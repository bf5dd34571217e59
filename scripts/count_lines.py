"""Line counts of the package source: `wc -l`-style totals and code lines.

A code line holds at least one token that is not a comment and is not
inside a docstring (of the module, a class or a function). Blank lines,
comment-only lines and docstring lines do not count.

Usage: python scripts/count_lines.py [PACKAGE_DIR]   (default src/kurasteer)
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers covered by the docstrings of the module, its classes and
    its functions."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                if isinstance(body[0].value.value, str):
                    lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """Lines of `path` that hold a token other than a comment, outside docstrings."""
    source = path.read_text()
    with path.open("rb") as f:
        tokens = [t for t in tokenize.tokenize(f.readline) if t.type not in SKIPPED]
    lines = {n for t in tokens for n in range(t.start[0], t.end[0] + 1)}
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src" / "kurasteer")
    files = sorted(root.glob("*.py"))
    if not files:
        print(f"no .py files in {root}", file=sys.stderr)
        return 1
    total = code = 0
    for path in files:
        n = len(path.read_text().splitlines())
        c = code_lines(path)
        total += n
        code += c
        print(f"{n:7d} {c:7d}  {path.name}")
    print(f"{total:7d} {code:7d}  total (lines, code lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
