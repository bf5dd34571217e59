import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).parents[1] / "scripts" / "count_lines.py"

MODULE = '''"""A module docstring
over two lines."""

# a comment line


def f(x):
    """A function docstring."""
    return x + 1  # a trailing comment


class A:
    pass
'''


def count_lines(*args):
    return subprocess.run([sys.executable, str(SCRIPT), *map(str, args)], capture_output=True, text=True)


def test_counts_lines_and_code_lines(tmp_path):
    # a.py: 13 lines, of which the def, the return, the class and the pass
    # are code; b.py: one statement over two lines, both code
    (tmp_path / "a.py").write_text(MODULE)
    (tmp_path / "b.py").write_text("x = (1,\n     2)\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    run = count_lines(tmp_path)
    assert run.returncode == 0
    assert run.stdout.splitlines() == [
        "     13       4  a.py",
        "      2       2  b.py",
        "     15       6  total (lines, code lines)",
    ]


def test_no_python_files_is_an_error(tmp_path):
    run = count_lines(tmp_path)
    assert run.returncode == 1
    assert run.stdout == "" and "no .py files" in run.stderr
