import ast
import csv
import json
import os
import subprocess
import sys
import tomllib
from pathlib import Path
from types import ModuleType

import numpy as np
import pytest

import kurasteer
from kurasteer import ControlMode, ControlSet, CostWeights, CouplingParams, OptimizerConfig, solve_state
from kurasteer.checks import check_mass_and_bound, coarse_problem, run_all_checks
from kurasteer.cli import main
from kurasteer.config import DEFAULT_CONFIG, RunConfig, apply_override, load_config, parse_override
from kurasteer.coupling import interaction_values
from kurasteer.grid import random_bandlimited
from kurasteer.outputs import read_field_file

FAST = [
    "--set", "discretization.n_theta=64",
    "--set", "discretization.n_t=400",
    "--set", "discretization.T=2.0",
]


def read(path):
    return path.read_bytes()


def convergence_columns(out, *names):
    """Integer columns of an optimize run's convergence.csv, by name."""
    with open(out / "convergence.csv") as fh:
        rows = list(csv.DictReader(fh))
    return [[int(row[name]) for row in rows] for name in names]


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
        with pytest.raises(ValueError, match=r"^unknown config key 'physics\.mass'$"):
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
        assert runcfg.base.params == CouplingParams()
        assert runcfg.base.weights == CostWeights()
        assert runcfg.base.optimizer == OptimizerConfig()

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
            ("discretization.n_t=true", "discretization.n_t"),
            ("physics.D=fast", "physics.D"),
            # every count a whole number and every number finite, in every section
            ("discretization.n_theta=64.9", "discretization.n_theta"),
            ("check.directions=1.9", "check.directions"),
            ("check.n_t=true", "check.n_t"),
            ("seed=1.5", "seed"),
            ("physics.D=NaN", "physics.D"),
            ("weights.beta1=NaN", "weights.beta1"),
            ("weights.alpha_t=NaN", "weights.alpha_t"),
            ("discretization.T=NaN", "discretization.T"),
            # a number is not a JSON string, also in a density spec
            ('physics.D="0.1"', "physics.D"),
            ('scenario.q0={"kind":"wrapped_gaussian","mean":1.0,"sigma":true}', "scenario.q0.sigma"),
            ('scenario.q0={"kind":"wrapped_gaussian","mean":"1.0","sigma":0.8}', "scenario.q0.mean"),
            ('scenario.q0={"kind":"wrapped_gaussian","mean":NaN,"sigma":0.8}', "scenario.q0.mean"),
            ('scenario.target={"kind":"mixture","components":[{"weight":1,"mean":1.0,"sigma":"0.3"}]}',
             "scenario.target.components[0].sigma"),
            # each key of a density kind is required, and named when missing
            ('scenario.q0={"kind":"wrapped_gaussian","mean":1.0}', "scenario.q0.sigma"),
            ('scenario.target={"kind":"mixture","components":[{"weight":1.0,"mean":1.0}]}',
             "scenario.target.components[0].sigma"),
            ('scenario.q0={"kind":"from_file"}', "scenario.q0.path"),
            ('scenario.q0={"kind":"from_file","path":5}', "scenario.q0.path"),
            # components is a list of JSON objects
            ('scenario.target={"kind":"mixture","components":"abc"}', "scenario.target.components"),
            ('scenario.target={"kind":"mixture","components":[1.0]}', "scenario.target.components[0]"),
            # a density file that cannot be read names its setting
            ('scenario.q0={"kind":"from_file","path":""}', "scenario.q0.path"),
            ('scenario.target={"kind":"from_file","path":"/nonexistent/q.f64"}', "scenario.target.path"),
            # an out-of-range value in a density spec names its key
            ('scenario.q0={"kind":"wrapped_gaussian","mean":1.0,"sigma":-0.5}', "scenario.q0.sigma"),
            ('scenario.target={"kind":"mixture","components":[{"weight":1.0,"mean":1.0,"sigma":0.0}]}',
             "scenario.target.components[0].sigma"),
            ('scenario.target={"kind":"mixture","components":[{"weight":2.0,"mean":1.0,"sigma":0.3},'
             '{"weight":-1.0,"mean":2.0,"sigma":0.3}]}', "scenario.target.components[1].weight"),
            ('scenario.target={"kind":"mixture","components":[{"weight":0.0,"mean":1.0,"sigma":0.3}]}',
             "scenario.target.components: the weights must sum"),
            ('scenario.q0={"kind":"mixture","components":[]}', "scenario.q0.components"),
            # a wrapped Gaussian whose every sample underflows, alone or in a mixture
            ('scenario.q0={"kind":"wrapped_gaussian","mean":0.01,"sigma":1e-4}',
             "scenario.q0.sigma = 0.0001 is too narrow for the grid spacing 2*pi/n_theta = 0.0981748"),
            ('scenario.q0={"kind":"mixture","components":[{"weight":1.0,"mean":1.0,"sigma":0.5},'
             '{"weight":1.0,"mean":0.01,"sigma":1e-4}]}',
             "scenario.q0.components[1].sigma = 0.0001 is too narrow for the grid spacing 2*pi/n_theta = 0.0981748"),
            ('scenario.q0={"kind":"blob"}', "scenario.q0.kind"),
            # an out-of-range setting names its key, in every section, the
            # check section's too, before any command runs
            ("discretization.n_t=0", "discretization.n_t must be >= 1, got 0"),
            ("discretization.n_theta=7", "discretization.n_theta must be even and >= 8, got 7"),
            ("discretization.T=-1", "discretization.T (the final time) must be > 0, got -1.0"),
            ("physics.D=-1", "physics.D (the diffusion coefficient) must be >= 0, got -1.0"),
            ("weights.beta1=-1", "weights.beta1 must be >= 0, got -1.0"),
            ("optimizer.max_iters=-2", "optimizer.max_iters must be >= 0, got -2"),
            ("check.directions=0", "check.directions must be >= 1, got 0"),
            ("check.n_t=0", "check.n_t must be >= 1, got 0"),
            ("check.n_theta=6", "check.n_theta must be even and >= 8, got 6"),
            ("check.T=0", "check.T (the final time) must be > 0, got 0.0"),
            # a weight that the mode needs to be positive, though the command may not read it
            ("weights.beta1=0", "weights.beta1, the energy weight of active control 'u1', must be > 0"),
            ('weights={"alpha_r":0,"alpha_t":0}', "weights.alpha_r and alpha_t, the tracking weights, are both 0"),
            # a choice names its key and the choices
            ("mode=bogus", "mode must be one of 'velocity', 'interaction', 'linear_source', 'joint', got 'bogus'"),
            # every control is a space-time field, so there is no shape to choose
            ("shape=space_time", "unknown config key 'shape'"),
            # a seed is a whole number >= 0, from the config or from --seed
            ("seed=-1", "seed must be >= 0, got -1"),
            (("--seed", "-2"), "seed must be >= 0, got -2"),
            # a path is a string
            ("output_dir=5", "output_dir must be a string, got 5"),
            ("output_dir=null", "output_dir must be a string, got None"),
            ("initial_controls.u1_file=5", "initial_controls.u1_file must be a string, got 5"),
            ("initial_controls.u1_file=true", "initial_controls.u1_file must be a string, got True"),
            # an override is key=value, and its sections and keys exist
            ("physics.D", "override 'physics.D' is not of the form key=value"),
            ("physic.D=0.1", "unknown config section 'physic' in override 'physic.D'"),
            ("physics.typo=1", "unknown config key 'physics.typo'"),
        ],
    )
    def test_mistyped_setting_hard_error(self, tmp_path, monkeypatch, capsys, override, field):
        # no --out, which would replace output_dir: the run's directory is the
        # default, under tmp_path
        monkeypatch.chdir(tmp_path)
        args = list(override) if isinstance(override, tuple) else ["--set", override]
        code = main(["simulate", *FAST, *args])
        assert code == 1
        err = capsys.readouterr().err
        assert field in err
        if field.startswith("unknown config"):  # the whole line, which a KeyError would quote
            assert f"error: {field}" in err.splitlines()
        assert not list(tmp_path.iterdir())

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

    @pytest.mark.parametrize(
        "key, value",
        [("method", "ncg"), ("armijo_c", "1e-4"), ("backtrack_factor", "0.5"), ("initial_step", "1.0"),
         ("grad_tol", "1e-8"), ("cost_rel_tol", "1e-12"), ("max_backtracks", "40")],
    )
    def test_descent_method_is_not_a_setting(self, tmp_path, capsys, key, value):
        # the descent has one method, the Sobolev gradient, and one setting,
        # max_iters: the line search's constants are not settings
        code = main(["optimize", "--out", str(tmp_path / "x"), *self.OPT_FAST, "--set", f"optimizer.{key}={value}"])
        assert code == 1
        assert f"unknown config key 'optimizer.{key}'" in capsys.readouterr().err
        assert not (tmp_path / "x" / "summary.json").exists()

    def test_control_file_wrong_length_hard_error(self, tmp_path, capsys):
        path = tmp_path / "u1.f64"
        np.zeros(17).astype("<f8").tofile(path)
        args = ["--set", f"initial_controls.u1_file={path}"]
        code = main(["optimize", "--out", str(tmp_path / "x"), *self.OPT_FAST, *args])
        assert code == 1
        err = capsys.readouterr().err
        assert str(path) in err and "17 samples" in err and f"expected {101 * 32}" in err
        assert "initial_controls.u1_file" in err

    def test_non_finite_control_file_hard_error(self, tmp_path, capsys):
        path = tmp_path / "u1.f64"
        values = np.zeros(101 * 32)
        values[40] = np.nan
        values.astype("<f8").tofile(path)
        args = ["--set", f"initial_controls.u1_file={path}"]
        code = main(["optimize", "--out", str(tmp_path / "x"), *self.OPT_FAST, *args])
        assert code == 1
        err = capsys.readouterr().err
        assert f"initial_controls.u1_file: {path} holds a non-finite sample" in err
        assert not (tmp_path / "x" / "summary.json").exists()

    @pytest.mark.parametrize(
        "name, reason", [("missing.f64", "No such file"), ("", "Is a directory")], ids=["missing", "directory"]
    )
    def test_unreadable_control_file_hard_error(self, tmp_path, capsys, name, reason):
        path = tmp_path / name
        args = ["--set", f"initial_controls.u1_file={path}"]
        code = main(["optimize", "--out", str(tmp_path / "x"), *self.OPT_FAST, *args])
        assert code == 1
        err = capsys.readouterr().err
        assert "initial_controls.u1_file" in err and str(path) in err and reason in err

    def test_initial_controls_leave_baselines_to_control_set(self):
        assert RunConfig.from_dict(load_config()).initial_controls() == ControlSet()

    def test_perturbation_without_file_is_added_to_baseline(self):
        seed, scale, K = 1, 0.3, 1.3
        runcfg = RunConfig.from_dict(load_config(None, [
            "discretization.n_theta=64", "discretization.n_t=200", "mode=interaction",
            f"physics.K={K}", f"initial_controls.perturbation_scale={scale}",
        ], None, seed))
        u2 = runcfg.initial_controls().u2.data
        bump = random_bandlimited(runcfg.base.grid, np.random.default_rng(seed), scale=scale).values
        assert np.array_equal(u2, np.broadcast_to(K + bump, u2.shape))

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
        bump = random_bandlimited(runcfg.base.grid, np.random.default_rng(seed), scale=scale).values
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
        assert conv[0] == "iter,J,J_q,J_u,grad_norm,step,backtracks,trials"
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

    def test_baseline_is_what_simulate_writes(self, tmp_path):
        # from the baseline controls at K != 1, where the descent's first
        # state once stood in for it and differed in the last bit
        sim, opt = tmp_path / "sim", tmp_path / "opt"
        args = [*FAST, "--set", "mode=interaction", "--set", "physics.K=1.5", "--set", "physics.alpha=0.3"]
        assert main(["simulate", "--out", str(sim), *args]) == 0
        assert main(["optimize", "--out", str(opt), *args, "--set", "optimizer.max_iters=1"]) == 0
        simulated = json.loads((sim / "summary.json").read_text())
        baseline = json.loads((opt / "summary.json").read_text())["baseline"]
        assert baseline == {key: simulated[key] for key in baseline}

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
        trials, backtracks = convergence_columns(out, "trials", "backtracks")
        assert trials == [0] + [bt + 1 for bt in backtracks[1:]]
        assert sum(trials) == solves["line_search_trials"]

    def test_zero_iterations_matches_simulate(self, tmp_path):
        sim, opt = tmp_path / "sim", tmp_path / "opt"
        assert main(["simulate", "--out", str(sim), *FAST]) == 0
        assert main(["optimize", "--out", str(opt), *FAST,
                     "--set", "optimizer.max_iters=0"]) == 0
        assert read(sim / "state.f64") == read(opt / "state.f64")
        assert read(sim / "timeseries.csv") == read(opt / "timeseries.csv")

    def test_stalled_exit_code(self, tmp_path, stalling_search):
        code = main(["optimize", "--out", str(tmp_path / "run"), *FAST, "--set", "optimizer.max_iters=4"])
        assert code == 3
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["status"] == "stalled"

    def test_written_control_is_a_space_time_field(self, tmp_path):
        # the optimized control varies in both time and angle, as the paper's fields do
        out = tmp_path / "run"
        assert main(["optimize", "--out", str(out), *OPT_FAST]) == 0
        _, u1 = read_field_file(out / "control_u1.f64")
        assert np.max(np.abs(u1 - u1[0][None, :])) > 1e-3
        assert np.max(np.abs(u1 - u1[:, :1])) > 1e-3

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
        assert "gradient_check_joint" in names

    def test_mass_and_bound_is_row_by_row_exact(self):
        overrides = ["discretization.n_t=600", "discretization.T=3.0", "physics.alpha=0.5"]
        runcfg = RunConfig.from_dict(load_config(None, overrides))
        base = runcfg.base
        traj = solve_state(base.q0, ControlSet(), base.params, base.tgrid)
        rows = [interaction_values(base.grid, traj.data[k], 0.5) for k in range(base.tgrid.n_t + 1)]
        w_max = max(float(np.max(np.abs(w))) for w in rows)
        assert check_mass_and_bound(runcfg)["max_transport_field"] == w_max

    def test_unflipped_adjoint_lag_fails(self, monkeypatch):
        # w*'s table with the lag left unflipped, wherever the table is bound:
        # the spectral suites draw their own lags, so they see the error on a
        # config of zero lag, where the solvers' tables agree
        unflipped = lambda grid, alpha: -kurasteer.coupling.kernel_table(grid, alpha)
        for name, module in list(sys.modules.items()):
            if name.startswith("kurasteer") and hasattr(module, "adjoint_kernel_table"):
                monkeypatch.setattr(module, "adjoint_kernel_table", unflipped)
        runcfg = RunConfig.from_dict(load_config(None, self.CHECK_FAST[1::2]))
        assert runcfg.base.params.alpha == 0.0
        report = run_all_checks(runcfg)
        failed = {c["name"] for c in report["checks"] if not c["passed"]}
        assert {"spectral_identities", "nonlocal_equivalence"} <= failed

    def test_zero_directions_hard_error(self, tmp_path, capsys):
        args = [a.replace('"directions":2', '"directions":0') for a in self.CHECK_FAST]
        assert main(["check", "--out", str(tmp_path / "chk"), *args]) == 1
        assert "check.directions must be >= 1, got 0" in capsys.readouterr().err

    def test_tampered_gradient_fails(self, tmp_path, shift_gradient, passing_checks):
        out = tmp_path / "chk"
        shift_gradient(0.05)
        assert main(["check", "--out", str(out), *self.CHECK_FAST]) == 2
        report = json.loads((out / "report.json").read_text())
        assert not report["passed"]
        # every direction has a random space-time mean, so each mode's check
        # of the command sees the error at every seed, with 2 directions or 5
        runcfg = RunConfig.from_dict(load_config(None, self.CHECK_FAST[1::2]))
        assert passing_checks([coarse_problem(runcfg, mode) for mode in ControlMode]) == []


COLD_START = """
import csv
import json
import sys

import kurasteer, kurasteer.cli
from kurasteer.checks import coarse_problem
from kurasteer.config import RunConfig, load_config

out, args = sys.argv[1], sys.argv[2:]
run = lambda cmd: kurasteer.cli.main([cmd, "--out", f"{out}/{cmd}", *args])
codes = [run("simulate"), run("optimize")]
runcfg = RunConfig.from_dict(load_config(None, args[1::2]))
kurasteer.gradient_check(coarse_problem(runcfg, kurasteer.ControlMode.VELOCITY), n_directions=2)
random_loads = "numpy.random" in sys.modules
codes.append(run("check"))  # its spectral suites draw with numpy.random
kurasteer.stationary_density(kurasteer.CircleGrid(32), kurasteer.CouplingParams())
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps({"codes": codes, "loaded": loaded, "random_loads": random_loads}))
"""


@pytest.fixture(scope="module")
def cold_start(tmp_path_factory):
    """What a fresh interpreter (so that earlier tests cannot hide an import)
    loads as it runs simulate, optimize, a gradient check and check, and then
    the rotating-wave oracle."""
    src = str(Path(kurasteer.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    args = [
        "--set", "discretization.n_theta=32",
        "--set", "discretization.n_t=200",
        "--set", "optimizer.max_iters=1",
        "--set", "check.directions=1",
    ]
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START, str(tmp_path_factory.mktemp("cold")), *args],
        env=env, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["codes"] == [0, 0, 0]
    return result


def test_cold_start_loads_no_scipy(cold_start):
    # numpy is the package's one dependency: importing it, running each
    # command and the steady-state oracle load no scipy module
    assert cold_start["loaded"] == []


def test_cold_start_loads_no_numpy_random(cold_start):
    # numpy.random costs about 6 MiB of RSS: simulate, optimize with no
    # perturbation and gradient_check draw nothing with it
    assert not cold_start["random_loads"]


def run_benchmark(workload: str) -> None:
    """One benchmark workload, run as the benchmark runs it from the
    repository root: outputs that the benchmark would score incorrect fail."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", "0", "--trace", "0"],
        cwd=Path(__file__).parents[1], capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0


def test_benchmark_gradcheck_smoke():
    # the benchmark's shortest workload
    run_benchmark("gradcheck")


@pytest.mark.slow
def test_benchmark_steer_velocity_smoke():
    # the benchmark's checks of a descent: J strictly decreasing, J recomputed
    # from the written fields, terminal error at most half the baseline's
    run_benchmark("steer-velocity")


@pytest.mark.slow
def test_benchmark_steer_interaction_smoke():
    # the interaction descent crosses the workload's target J with a 0.1 %
    # margin: a change that misses the target fails here, not only in the
    # benchmark
    run_benchmark("steer-interaction")


class TestPlotScript:
    """scripts/plot_run.py, run with stub matplotlib modules (the figures are
    MagicMocks), reads the fields through kurasteer.outputs.read_field_file."""

    SCRIPT = Path(__file__).parents[1] / "scripts" / "plot_run.py"

    @pytest.fixture
    def run_script(self, monkeypatch, capsys):
        from unittest import mock

        pyplot = mock.MagicMock()
        pyplot.subplots.side_effect = lambda *a, **kw: (mock.MagicMock(), mock.MagicMock())
        monkeypatch.setitem(sys.modules, "matplotlib", mock.MagicMock(pyplot=pyplot))
        monkeypatch.setitem(sys.modules, "matplotlib.pyplot", pyplot)

        def run(out):
            import runpy

            monkeypatch.setattr(sys, "argv", ["plot_run.py", str(out), "--save", str(out / "figures")])
            runpy.run_path(str(self.SCRIPT), run_name="__main__")
            return capsys.readouterr().out

        return run

    def test_plots_a_simulate_run(self, tmp_path, run_script):
        out = tmp_path / "sim"
        assert main(["simulate", "--out", str(out), *FAST]) == 0
        assert "figures written" in run_script(out)

    def test_short_field_file_names_the_file_and_counts(self, tmp_path, run_script):
        out = tmp_path / "sim"
        assert main(["simulate", "--out", str(out), *FAST]) == 0
        state = out / "state.f64"
        n = state.stat().st_size // 8
        state.write_bytes(state.read_bytes()[:-8])
        with pytest.raises(ValueError, match=rf"state\.f64 holds {n - 1} samples, expected {n}"):
            run_script(out)


class TestPackage:
    def test_all_lists_every_public_name(self):
        # __init__ names each export twice, imported and in __all__: neither list may drift
        public = {n for n, v in vars(kurasteer).items() if not n.startswith("_") and not isinstance(v, ModuleType)}
        assert set(kurasteer.__all__) == public
        assert len(kurasteer.__all__) == len(public)

    def test_numpy_is_the_only_dependency(self):
        # each module imports only the standard library, numpy and the
        # package itself, and pyproject.toml declares numpy alone
        root = Path(__file__).parents[1]
        for path in sorted((root / "src" / "kurasteer").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    modules = [node.module]
                else:
                    continue
                for module in modules:
                    top = module.split(".")[0]
                    assert top in sys.stdlib_module_names or top == "numpy", f"{path.name} imports {module}"
        with open(root / "pyproject.toml", "rb") as fh:
            assert tomllib.load(fh)["project"]["dependencies"] == ["numpy>=2.0"]

    def test_readme_library_example_runs(self, capsys):
        # the README's library example, on a coarse problem with two iterations
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
        coarse = {"CircleGrid(128), TimeGrid(10.0, 2000)": "CircleGrid(32), TimeGrid(1.0, 100)",
                  "max_iters=100": "max_iters=2"}
        for full, small in coarse.items():
            assert full in block
            block = block.replace(full, small)
        exec(compile(block, "README.md", "exec"), {})
        status, J, R = capsys.readouterr().out.split()
        assert status == "max_iters"
        assert np.isfinite(float(J)) and 0.0 <= float(R) <= 1.0
