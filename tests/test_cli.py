import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kurasteer
from kurasteer import ControlSet, CostWeights, CouplingParams, Field, OptimizerConfig, interaction_field, solve_state
from kurasteer.checks import check_mass_and_bound
from kurasteer.cli import main
from kurasteer.config import DEFAULT_CONFIG, RunConfig, apply_override, load_config, parse_override
from kurasteer.grid import random_bandlimited
from kurasteer.outputs import read_field_file

FAST = [
    "--set", "discretization.n_theta=64",
    "--set", "discretization.n_t=400",
    "--set", "discretization.T=2.0",
]


def read(path):
    return path.read_bytes()


class TestConfig:
    def test_defaults_complete(self):
        cfg = load_config()
        assert cfg == DEFAULT_CONFIG and cfg is not DEFAULT_CONFIG

    def test_override_parsing(self):
        assert parse_override("physics.D=0.1") == ("physics.D", 0.1)
        assert parse_override("mode=interaction") == ("mode", "interaction")
        assert parse_override("weights.penalize_absolute_u2=true") == (
            "weights.penalize_absolute_u2", True,
        )

    def test_unknown_key_rejected(self):
        cfg = load_config()
        with pytest.raises(KeyError):
            apply_override(cfg, "physics.mass", 1.0)

    def test_user_file_merge(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"physics": {"D": 0.5}, "seed": 3}))
        cfg = load_config(p)
        assert cfg["physics"]["D"] == 0.5
        assert cfg["physics"]["K"] == 1.0
        assert cfg["seed"] == 3

    def test_readme_schema_has_the_default_keys(self):
        # the README's configuration block names every key, at every level
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("### Configuration", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]

        def keys(node):
            return {k: keys(v) for k, v in node.items()} if isinstance(node, dict) else None

        assert keys(json.loads(block)) == keys(DEFAULT_CONFIG)

    def test_defaults_are_the_dataclass_defaults(self):
        runcfg = RunConfig.from_dict(load_config())
        assert runcfg.params == CouplingParams()
        assert runcfg.weights == CostWeights()
        assert runcfg.optimizer == OptimizerConfig()

    def test_file_density_spec_with_kind_replaces_default(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"scenario": {"q0": {"kind": "uniform"}, "target": {"sigma": 0.5}}}))
        cfg = load_config(p)
        assert cfg["scenario"]["q0"] == {"kind": "uniform"}
        assert cfg["scenario"]["target"] == {**DEFAULT_CONFIG["scenario"]["target"], "sigma": 0.5}

    def test_section_object_override_merges(self, tmp_path):
        cfg = load_config(None, ['physics={"D":0.1}'])
        assert cfg["physics"] == {**DEFAULT_CONFIG["physics"], "D": 0.1}
        out = tmp_path / "run"
        assert main(["simulate", "--out", str(out), *FAST, "--set", 'physics={"D":0.1}']) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["physics"] == {**DEFAULT_CONFIG["physics"], "D": 0.1}

    def test_section_object_override_unknown_key(self, tmp_path, capsys):
        bad = 'physics={"D":0.1,"alpha":0,"K":1,"typo":5}'
        code = main(["simulate", "--out", str(tmp_path / "x"), *FAST, "--set", bad])
        assert code == 1
        assert "physics.typo" in capsys.readouterr().err

    def test_section_replaced_by_non_object_rejected(self, tmp_path, capsys):
        code = main(["simulate", "--out", str(tmp_path / "x"), *FAST, "--set", "physics=5"])
        assert code == 1
        assert "physics" in capsys.readouterr().err

    def test_unused_density_key_hard_error(self, tmp_path, capsys):
        spec = 'scenario.q0={"kind":"uniform","sigma":9}'
        code = main(["simulate", "--out", str(tmp_path / "x"), *FAST, "--set", spec])
        assert code == 1
        assert "sigma" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override, field",
        [
            ("weights.penalize_absolute_u2=False", "weights.penalize_absolute_u2"),
            ("weights.penalize_absolute_u2=1", "weights.penalize_absolute_u2"),
            ("optimizer.max_iters=5.9", "optimizer.max_iters"),
            ("optimizer.max_backtracks=true", "optimizer.max_backtracks"),
            ("physics.D=fast", "physics.D"),
            # every count a whole number and every number finite, in every section
            ("discretization.n_theta=64.9", "discretization.n_theta"),
            ("check.directions=1.9", "check.directions"),
            ("check.n_t=true", "check.n_t"),
            ("seed=1.5", "seed"),
            ("physics.D=NaN", "physics.D"),
            ("weights.beta1=NaN", "weights.beta1"),
            ("optimizer.grad_tol=NaN", "optimizer.grad_tol"),
            ("discretization.T=NaN", "discretization.T"),
        ],
    )
    def test_mistyped_setting_hard_error(self, tmp_path, capsys, override, field):
        code = main(["simulate", "--out", str(tmp_path / "x"), *FAST, "--set", override])
        assert code == 1
        assert field in capsys.readouterr().err

    OPT_FAST = [
        "--set", "discretization.n_theta=32",
        "--set", "discretization.n_t=100",
        "--set", "optimizer.max_iters=1",
    ]

    def test_control_file_unused_by_mode_hard_error(self, tmp_path, capsys):
        args = ["--set", "mode=interaction", "--set", "initial_controls.source_file=/nonexistent/s.f64"]
        code = main(["optimize", "--out", str(tmp_path / "x"), *self.OPT_FAST, *args])
        assert code == 1
        assert "initial_controls.source_file" in capsys.readouterr().err
        assert not (tmp_path / "x" / "summary.json").exists()

    def test_control_file_read_once(self, tmp_path, traced_peak):
        # the file's one array, perturbed in place and adopted read-only
        n_theta, n_t, seed, scale = 64, 800, 3, 0.3
        path = tmp_path / "u2.f64"
        start = 1.0 + 0.01 * np.random.default_rng(0).standard_normal((n_t + 1, n_theta))
        start.astype("<f8").tofile(path)
        runcfg = RunConfig.from_dict(load_config(None, [
            f"discretization.n_theta={n_theta}", f"discretization.n_t={n_t}", "mode=interaction",
            f"initial_controls.u2_file={path}", f"initial_controls.perturbation_scale={scale}",
        ], None, seed))
        runcfg.initial_controls()  # loads what the first call imports
        held = []
        peak = traced_peak(lambda: held.append(runcfg.initial_controls()))
        assert peak <= 1.2 * (n_t + 1) * n_theta * 8
        bump = random_bandlimited(runcfg.grid, np.random.default_rng(seed), scale=scale).values
        u2 = held[0].u2.data
        assert not u2.flags.writeable
        assert np.array_equal(u2, start + bump[None, :])

    @pytest.mark.parametrize("scale", ["-0.1", "NaN", "Infinity"])
    def test_bad_perturbation_scale_hard_error(self, tmp_path, capsys, scale):
        args = ["--set", f"initial_controls.perturbation_scale={scale}"]
        code = main(["optimize", "--out", str(tmp_path / "x"), *self.OPT_FAST, *args])
        assert code == 1
        assert "initial_controls.perturbation_scale" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "check"])
    @pytest.mark.parametrize(
        "override, key",
        [
            ("initial_controls.u1_file=/nonexistent/u1.f64", "initial_controls.u1_file"),
            ("initial_controls.source_file=/nonexistent/s.f64", "initial_controls.source_file"),
            ("initial_controls.perturbation_scale=-5", "initial_controls.perturbation_scale"),
            ("initial_controls.perturbation_scale=0.1", "initial_controls.perturbation_scale"),
        ],
    )
    def test_initial_controls_unread_by_command_hard_error(self, tmp_path, capsys, command, override, key):
        # simulate and check run the baseline controls: an initial control is never read
        out = tmp_path / "x"
        code = main([command, "--out", str(out), *self.OPT_FAST, "--set", override])
        assert code == 1
        assert key in capsys.readouterr().err
        assert not (out / "summary.json").exists() and not (out / "report.json").exists()


class TestSimulate:
    def test_uniform_initial_density_stays_incoherent(self, tmp_path):
        out = tmp_path / "run"
        code = main(
            ["simulate", "--out", str(out), *FAST,
             "--set", 'scenario.q0={"kind":"uniform"}']
        )
        assert code == 0
        rows = (out / "timeseries.csv").read_text().strip().splitlines()
        assert rows[0] == "t,R,psi,mass,Jq_running"
        R = np.array([float(r.split(",")[1]) for r in rows[1:]])
        mass = np.array([float(r.split(",")[3]) for r in rows[1:]])
        assert np.max(R) <= 1e-8
        assert np.max(np.abs(mass - 1.0)) <= 1e-8

    def test_coherence_grows_from_gaussian_start(self, tmp_path):
        out = tmp_path / "run"
        assert main(["simulate", "--out", str(out), *FAST]) == 0
        rows = (out / "timeseries.csv").read_text().strip().splitlines()[1:]
        R = np.array([float(r.split(",")[1]) for r in rows])
        assert R[-1] > R[0]
        assert np.all(np.diff(R) >= -1e-7)  # monotone trend toward the fixed point

    def test_outputs_and_summary(self, tmp_path):
        out = tmp_path / "run"
        assert main(["simulate", "--out", str(out), *FAST]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["max_mass_error"] <= 1e-8
        header, data = read_field_file(out / "state.f64")
        assert header["field"] == "state"
        assert data.shape == (401, 64)

    def test_cfl_violation_hard_error(self, tmp_path, capsys):
        code = main(
            ["simulate", "--out", str(tmp_path / "x"), *FAST,
             "--set", "discretization.n_t=20"]
        )
        assert code == 1
        assert "CFL" in capsys.readouterr().err

    def test_mixture_density_from_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        components = [
            {"weight": 2.0, "mean": 1.0, "sigma": 0.3},
            {"weight": 1.0, "mean": 4.0, "sigma": 0.5},
        ]
        cfg.write_text(json.dumps({"scenario": {"q0": {"kind": "mixture", "components": components}}}))
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out), *FAST]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["scenario"]["q0"] == {"kind": "mixture", "components": components}

    def test_bad_override_hard_error(self, tmp_path, capsys):
        code = main(["simulate", "--out", str(tmp_path / "x"), "--set", "physics.nope=1"])
        assert code == 1

    def test_default_initial_controls_accepted(self, tmp_path):
        # no file and a zero perturbation, even when set explicitly, are what simulate runs
        args = ["--set", "initial_controls.u1_file=null", "--set", "initial_controls.perturbation_scale=0"]
        assert main(["simulate", "--out", str(tmp_path / "run"), *FAST, *args]) == 0


OPT_FAST = [
    *FAST,
    "--set", "optimizer.max_iters=3",
]


class TestOptimize:
    def test_controlled_beats_baseline(self, tmp_path):
        out = tmp_path / "run"
        assert main(["optimize", "--out", str(out), *OPT_FAST]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert (
            summary["terminal_tracking_error"]
            < summary["baseline"]["terminal_tracking_error"]
        )
        conv = (out / "convergence.csv").read_text().strip().splitlines()
        assert conv[0] == "iter,J,J_q,J_u,grad_norm,step,backtracks"
        costs = [float(r.split(",")[1]) for r in conv[1:]]
        assert all(b < a for a, b in zip(costs, costs[1:]))
        assert (out / "control_u1.f64").exists()
        assert (out / "adjoint.f64").exists()

    def test_min_density_reported(self, tmp_path):
        # the optimized and the uncontrolled state's minima, exactly as written
        sim, opt = tmp_path / "sim", tmp_path / "opt"
        assert main(["simulate", "--out", str(sim), *FAST]) == 0
        assert main(["optimize", "--out", str(opt), *OPT_FAST]) == 0
        summary = json.loads((opt / "summary.json").read_text())
        assert summary["min_density"] == float(read_field_file(opt / "state.f64")[1].min())
        assert summary["baseline"]["min_density"] == float(read_field_file(sim / "state.f64")[1].min())

    def test_solve_counts_in_summary(self, tmp_path):
        out = tmp_path / "run"
        assert main(["optimize", "--out", str(out), *OPT_FAST]) == 0
        summary = json.loads((out / "summary.json").read_text())
        solves = summary["solves"]
        assert set(solves) == {"state", "adjoint", "line_search_trials"}
        assert solves["state"] == 1 + solves["line_search_trials"]
        assert solves["adjoint"] == 1 + summary["iterations"]
        # each step of this run is found by one line search, all of whose
        # trials are solved: its backtracks and the accepted trial
        backtracks = [int(row.split(",")[-1]) for row in (out / "convergence.csv").read_text().splitlines()[1:]]
        assert solves["line_search_trials"] == sum(bt + 1 for bt in backtracks[1:])

    def test_zero_iterations_matches_simulate(self, tmp_path):
        sim, opt = tmp_path / "sim", tmp_path / "opt"
        assert main(["simulate", "--out", str(sim), *FAST]) == 0
        assert main(["optimize", "--out", str(opt), *FAST,
                     "--set", "optimizer.max_iters=0"]) == 0
        assert read(sim / "state.f64") == read(opt / "state.f64")
        assert read(sim / "timeseries.csv") == read(opt / "timeseries.csv")

    def test_stalled_exit_code(self, tmp_path):
        code = main(
            ["optimize", "--out", str(tmp_path / "run"), *FAST,
             "--set", "optimizer.max_iters=4",
             "--set", "optimizer.initial_step=1e12",
             "--set", "optimizer.max_backtracks=1",
             "--set", "optimizer.armijo_c=0.999"]
        )
        assert code == 3
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["status"] == "stalled"

    def test_space_only_shape_from_config(self, tmp_path):
        out = tmp_path / "run"
        assert main(["optimize", "--out", str(out), *OPT_FAST,
                     "--set", "shape=space_only"]) == 0
        from kurasteer.outputs import read_field_file
        _, u1 = read_field_file(out / "control_u1.f64")
        assert np.max(np.abs(u1 - u1[0][None, :])) == 0.0

    def test_determinism_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["optimize", *OPT_FAST, "--seed", "11",
                "--set", "initial_controls.perturbation_scale=0.1"]
        assert main([*args, "--out", str(a)]) == 0
        assert main([*args, "--out", str(b)]) == 0
        for name in ("convergence.csv", "timeseries.csv", "state.f64", "control_u1.f64"):
            assert read(a / name) == read(b / name), name
        sa = json.loads((a / "summary.json").read_text())
        sb = json.loads((b / "summary.json").read_text())
        sa["config"]["output_dir"] = sb["config"]["output_dir"] = ""
        assert sa == sb


class TestCheck:
    CHECK_FAST = [
        "--set", "discretization.n_t=600",
        "--set", "discretization.T=3.0",
        "--set", 'check={"n_theta":32,"n_t":100,"T":0.5,"directions":2}',
    ]

    def test_default_checks_pass(self, tmp_path):
        out = tmp_path / "chk"
        assert main(["check", "--out", str(out), *self.CHECK_FAST]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["passed"]
        names = {c["name"] for c in report["checks"]}
        assert "spectral_identities" in names
        assert "gradient_check_velocity" in names
        assert "gradient_check_interaction" in names
        assert "gradient_check_linear_source" in names

    def test_mass_and_bound_is_row_by_row_exact(self):
        overrides = ["discretization.n_t=600", "discretization.T=3.0", "physics.alpha=0.5"]
        runcfg = RunConfig.from_dict(load_config(None, overrides))
        traj = solve_state(runcfg.q0, ControlSet(), runcfg.params, runcfg.tgrid)
        rows = [interaction_field(Field(runcfg.grid, traj.data[k]), 0.5).values for k in range(runcfg.tgrid.n_t + 1)]
        w_max = max(float(np.max(np.abs(w))) for w in rows)
        assert check_mass_and_bound(runcfg)["max_transport_field"] == w_max

    def test_zero_directions_hard_error(self, tmp_path, capsys):
        args = [a.replace('"directions":2', '"directions":0') for a in self.CHECK_FAST]
        assert main(["check", "--out", str(tmp_path / "chk"), *args]) == 1
        assert "n_directions >= 1" in capsys.readouterr().err

    def test_tampered_gradient_fails(self, tmp_path, shift_gradient):
        out = tmp_path / "chk"
        shift_gradient(0.05)
        assert main(["check", "--out", str(out), *self.CHECK_FAST]) == 2
        report = json.loads((out / "report.json").read_text())
        assert not report["passed"]


COLD_START = """
import json
import sys

import kurasteer, kurasteer.cli

out, args = sys.argv[1], sys.argv[2:]
codes = [kurasteer.cli.main([cmd, "--out", f"{out}/{cmd}", *args]) for cmd in ("simulate", "optimize", "check")]
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
kurasteer.bessel_ratio(1.0)
print(json.dumps({"codes": codes, "loaded": loaded, "oracle_loads": "scipy.special" in sys.modules}))
"""


def test_cold_start_loads_no_scipy(tmp_path):
    # only the Bessel oracle needs scipy; importing the package and running
    # each command must not load it (a fresh interpreter, so earlier tests
    # that ran the oracle cannot hide an import)
    src = str(Path(kurasteer.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    args = [
        "--set", "discretization.n_theta=32",
        "--set", "discretization.n_t=200",
        "--set", "optimizer.max_iters=1",
        "--set", "check.directions=1",
    ]
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START, str(tmp_path), *args],
        env=env, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["codes"] == [0, 0, 0]
    assert result["loaded"] == []
    assert result["oracle_loads"]
