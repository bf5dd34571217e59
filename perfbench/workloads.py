"""The benchmark's workloads: inputs made from the seed, one timed operation
per round, and checks of every output against the benchmark's own
computations or against properties the method must have.

Workloads run in-process through the package's public entry points
(`kurasteer.cli.main`, `optimize`, `gradient_check`). Each round's outputs go
to a scratch directory under the run's working directory.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import shutil
import time
from pathlib import Path

import numpy as np

import kurasteer
from kurasteer import checks, cli, config, dynamics, optimizer, outputs
from spans import Tracer

# Reference scenario, passed to the program explicitly so that the checks
# below do not depend on the program's defaults.
D, K, ALPHA = 0.25, 1.0, 0.0
N_THETA, N_T, T_END = 128, 2000, 10.0
Q0_MEAN, Q0_SIGMA = math.pi / 2, 0.8
Z_MEAN, Z_SIGMA = 3 * math.pi / 2, 0.4
ALPHA_R, ALPHA_T, BETA1, BETA2, BETA_LIN = 1.0, 10.0, 1e-3, 1e-2, 1e-3

SCENARIO = [
    f"physics.D={D}",
    f"physics.K={K}",
    f"physics.alpha={ALPHA}",
    f"discretization.n_theta={N_THETA}",
    f"discretization.n_t={N_T}",
    f"discretization.T={T_END}",
    "scenario.q0=" + json.dumps({"kind": "wrapped_gaussian", "mean": Q0_MEAN, "sigma": Q0_SIGMA}),
    "scenario.target=" + json.dumps({"kind": "wrapped_gaussian", "mean": Z_MEAN, "sigma": Z_SIGMA}),
    f"weights.alpha_r={ALPHA_R}",
    f"weights.alpha_t={ALPHA_T}",
    f"weights.beta1={BETA1}",
    f"weights.beta2={BETA2}",
    f"weights.beta_lin={BETA_LIN}",
    "weights.penalize_absolute_u2=false",
]

# A checked direction passes when the adjoint directional derivative agrees
# with the central differences to GRAD_TOL at the best eps of the sweep, and
# the relative error at the smallest eps is at most FLOOR_TOL. There the
# truncation (~eps**2) and roundoff (~1e-9) errors are negligible, so that
# error is the adjoint's own mismatch with the discrete derivative, and a
# wrong adjoint raises it. The largest seen over seeds 0-39 (1,200
# directions) is 7.7e-5. gradient_check's own "V-shaped" verdict is not
# used: it rejects correct gradients on some seeds (see CHANGES.md).
GRAD_TOL = 1e-3
FLOOR_TOL = 2e-4
MASS_TOL = 1e-8
J_RTOL = 1e-10

# Spans of the untraced rounds: just enough to read the optimize() start and
# the solve count at each iterate. Traced rounds wrap every layer below.
PROBE_FUNCTIONS = {
    "optimizer.optimize": optimizer.optimize,
    "dynamics.solve_state": dynamics.solve_state,
    "dynamics.solve_adjoint": dynamics.solve_adjoint,
}
LAYER_FUNCTIONS = {
    **PROBE_FUNCTIONS,
    "optimizer.gradient_check": optimizer.gradient_check,
    "optimizer.cost": optimizer.cost,
    "optimizer.reduced_gradient": optimizer.reduced_gradient,
    "cli.optimize": cli.cmd_optimize,
    "outputs.write_timeseries_csv": outputs.write_timeseries_csv,
    "outputs.write_convergence_csv": outputs.write_convergence_csv,
    "outputs.write_field_file": outputs.write_field_file,
    "outputs.write_json": outputs.write_json,
}
CONFIG_FUNCTIONS = {
    "config.load_config": config.load_config,
    "checks.coarse_problem": checks.coarse_problem,
}
CONFIG_METHODS = {
    "config.from_dict": (config.RunConfig, "from_dict"),
    "config.problem": (config.RunConfig, "problem"),
}
SOLVES = ("dynamics.solve_state", "dynamics.solve_adjoint")


def target_density() -> np.ndarray:
    """The target wrapped Gaussian on the grid, normalized by the rectangle rule."""
    theta = np.arange(N_THETA) * (2 * math.pi / N_THETA)
    raw = sum(
        np.exp(-0.5 * ((theta - Z_MEAN + 2 * math.pi * m) / Z_SIGMA) ** 2) for m in range(-20, 21)
    )
    return raw / (raw.sum() * 2 * math.pi / N_THETA)


def bandlimited(rng: np.random.Generator, rms: float) -> np.ndarray:
    """Random real row with Fourier modes up to N_THETA/4 and the given RMS."""
    coef = np.zeros(N_THETA // 2 + 1, dtype=complex)
    kmax = N_THETA // 4
    coef[: kmax + 1] = rng.standard_normal(kmax + 1) + 1j * rng.standard_normal(kmax + 1)
    coef[0] = coef[0].real
    row = np.fft.irfft(coef, n=N_THETA)
    return row * (rms / np.sqrt(np.mean(row**2)))


class Outcome:
    """Operations attempted and failed, with the reason of each failed check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def op(self, failures: list[str]) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            self.failures.extend(failures)


def check_directions(report, label: str, outcome: Outcome) -> float:
    """One operation per direction; returns the worst best relative error."""
    worst = 0.0
    for i, d in enumerate(report.directions):
        rel = np.asarray(d.rel_errors)
        best = float(rel.min())
        problems = []
        if best > GRAD_TOL:
            problems.append(f"{label} direction {i}: best relative error {best:.3e} > {GRAD_TOL}")
        if rel[-1] > FLOOR_TOL:
            problems.append(f"{label} direction {i}: relative error {rel[-1]:.3e} at the smallest eps > {FLOOR_TOL}")
        if best != d.min_rel_error:
            problems.append(f"{label} direction {i}: reported min {d.min_rel_error!r} != {best!r}")
        outcome.op(problems)
        worst = max(worst, best)
    return worst


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced operation."""
    m: dict[str, float] = {}
    for name in SOLVES:
        spans = tr.named(name)
        steps = sum(s.steps for s in spans)
        busy = sum(s.duration for s in spans)
        m[f"{name}.calls"] = len(spans)
        m[f"{name}.s"] = busy
        m[f"{name}.us_per_step"] = 1e6 * busy / steps if steps else 0.0
        m[f"{name}.ffts_per_step"] = sum(s.ffts for s in spans) / steps if steps else 0.0
    runs = tr.named("optimizer.optimize")
    iterations = sum(s.iterations for s in runs)
    trials = len(tr.named("dynamics.solve_state", parent="optimizer.optimize")) - len(runs)
    m["optimizer.iterations"] = iterations
    m["optimizer.line_search.trials"] = trials
    m["optimizer.line_search.accept_ratio"] = iterations / trials if trials else 0.0
    m["optimizer.reduced_gradient.s"] = tr.total("optimizer.reduced_gradient")
    m["optimizer.cost.s"] = tr.total("optimizer.cost")
    m["optimizer.optimize.self_s"] = sum(s.self_s for s in runs)
    m["optimizer.gradient_check.solves"] = sum(
        len(tr.named(n, parent="optimizer.gradient_check")) for n in SOLVES
    )
    m["optimizer.gradient_check.self_s"] = sum(s.self_s for s in tr.named("optimizer.gradient_check"))
    m["cli.optimize.self_s"] = tr.total("cli.optimize") - sum(
        s.duration for s in tr.named("optimizer.optimize", parent="cli.optimize")
    )
    m["outputs.write_s"] = sum(
        s.duration
        for s in tr.spans
        if s.name.startswith("outputs.") and not (s.parent and s.parent.name.startswith("outputs."))
    )
    return m


class IterationLog(logging.Handler):
    """(time, J) of every per-iteration record that optimize() logs."""

    def __init__(self) -> None:
        super().__init__()
        self.records: list[tuple[float, float]] = []

    def emit(self, record: logging.LogRecord) -> None:
        if record.msg.startswith("iter"):
            self.records.append((time.perf_counter(), float(record.args[1])))


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


class Workload:
    """One workload: `setup` builds the problem (timed into setup_s),
    `run_round` makes one timed operation and checks it, and
    `finish` makes the once-per-run operations and checks."""

    gradcheck_directions = 5

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.outcome = Outcome()

    def make_inputs(self) -> None:
        """Write the seed's input files; not part of setup_s."""

    def gradcheck_overrides(self) -> list[str]:
        return SCENARIO + [
            "check.n_theta=64",
            "check.n_t=200",
            "check.T=1.0",
        ]

    def traced_setup(self) -> float:
        """Time spent in the config and scenario layers while setting up."""
        with Tracer(CONFIG_FUNCTIONS, CONFIG_METHODS) as tr:
            self.setup()
        return sum(s.duration for s in tr.spans)

    def coarse_problems(self, modes) -> list:
        runcfg = config.RunConfig.from_dict(config.load_config(None, self.gradcheck_overrides(), None, self.seed))
        return [checks.coarse_problem(runcfg, mode) for mode in modes]

    def gradient_checks(self, problems) -> list:
        return [
            kurasteer.gradient_check(p, n_directions=self.gradcheck_directions, seed=self.seed)
            for p in problems
        ]

    def grad_digits(self, reports) -> float:
        """Checks every direction; -log10 of the worst best relative error."""
        return -math.log10(max(check_directions(r, r.mode.value, self.outcome) for r in reports))


class Steer(Workload):
    """`kurasteer optimize` on the reference scenario for a fixed budget."""

    mode: dynamics.ControlMode
    max_iters: int
    target_J: float

    def overrides(self) -> list[str]:
        return SCENARIO + [f"mode={self.mode.value}", f"optimizer.max_iters={self.max_iters}"]

    def program_args(self) -> list[str]:
        return []

    def setup(self) -> None:
        config.RunConfig.from_dict(config.load_config(None, self.overrides(), None, None)).problem()

    def run_round(self, index: int, traced: bool) -> dict:
        out = self.workdir / f"round{index}"
        argv = ["optimize", "--out", str(out), *self.program_args()]
        for expr in self.overrides():
            argv += ["--set", expr]

        log = logging.getLogger("kurasteer.optimizer")
        handler, level, propagate = IterationLog(), log.level, log.propagate
        log.addHandler(handler)
        log.setLevel(logging.INFO)
        log.propagate = False
        tr = Tracer(LAYER_FUNCTIONS if traced else PROBE_FUNCTIONS, count_ffts=traced)
        try:
            with tr:
                t0 = time.perf_counter()
                code = cli.main(argv)
                run_s = time.perf_counter() - t0
        finally:
            log.removeHandler(handler)
            log.setLevel(level)
            log.propagate = propagate

        result = {"run_s": run_s}
        problems = [] if code == 0 else [f"exit code {code}"]
        hit = next((t for t, j in handler.records if j <= self.target_J), None)
        if hit is None:
            problems.append(f"target cost {self.target_J} not reached")
        else:
            opt = tr.named("optimizer.optimize")[0]
            result["time_to_target_s"] = hit - opt.start
            result["solves_to_target"] = sum(
                1 for n in SOLVES for s in tr.named(n, parent="optimizer.optimize") if s.end <= hit
            )
        if code == 0:
            problems += self.check_outputs(out, result)
        if traced:
            result["layers"] = layer_metrics(tr)
            result["layers"]["outputs.bytes_written"] = dir_bytes(out) if out.is_dir() else 0
        shutil.rmtree(out, ignore_errors=True)
        self.outcome.op(problems)
        return result

    def check_outputs(self, out: Path, result: dict) -> list[str]:
        problems = []
        with open(out / "summary.json") as fh:
            summary = json.load(fh)
        with open(out / "convergence.csv") as fh:
            js = [float(row["J"]) for row in csv.DictReader(fh)]
        result["final_J"] = summary["J"]
        if any(b >= a for a, b in zip(js, js[1:])):
            problems.append("J does not decrease strictly across accepted iterations")
        if js[-1] != summary["J"]:
            problems.append("summary J differs from the last convergence.csv row")

        q = np.fromfile(out / "state.f64", dtype="<f8").reshape(N_T + 1, N_THETA)
        name = self.mode.active_controls[0]
        u = np.fromfile(out / f"control_{name}.f64", dtype="<f8").reshape(N_T + 1, N_THETA)
        z = target_density()
        d_theta, dt = 2 * math.pi / N_THETA, T_END / N_T
        w = np.full(N_T + 1, dt)
        w[0] = w[-1] = dt / 2

        mass_err = float(np.max(np.abs(q.sum(axis=1) * d_theta - 1.0)))
        if mass_err > MASS_TOL:
            problems.append(f"state mass off by {mass_err:.2e}")

        mis = q - z
        j_q = 0.5 * ALPHA_R * float(w @ (mis**2).sum(axis=1)) * d_theta
        j_q += 0.5 * ALPHA_T * float((mis[-1] ** 2).sum()) * d_theta
        dev, beta = (u, BETA1) if name == "u1" else (u - K, BETA2)
        j_u = 0.5 * beta * float(w @ (dev**2).sum(axis=1)) * d_theta
        if abs(j_q + j_u - summary["J"]) > J_RTOL * abs(summary["J"]):
            problems.append(f"recomputed J {j_q + j_u!r} != reported {summary['J']!r}")

        terminal = float((mis[-1] ** 2).sum()) * d_theta
        baseline = summary["baseline"]["terminal_tracking_error"]
        if terminal > 0.5 * baseline:
            problems.append(f"terminal tracking error {terminal:.3e} > half of uncontrolled {baseline:.3e}")
        return problems

    def finish(self) -> dict:
        return {"grad_digits": self.grad_digits(self.gradient_checks(self.coarse_problems([self.mode])))}


class SteerVelocity(Steer):
    mode = dynamics.ControlMode.VELOCITY
    max_iters = 20
    target_J = 1.16


class SteerInteraction(Steer):
    """The README interaction command (perturbation 0.3, program seed 1) with
    a small seeded jitter of u2's initial control read from a file."""

    mode = dynamics.ControlMode.INTERACTION
    max_iters = 25
    target_J = 6.3
    jitter_rms = 0.003

    @property
    def u2_file(self) -> Path:
        return self.workdir / "u2_initial.f64"

    def make_inputs(self) -> None:
        row = K + bandlimited(np.random.default_rng(self.seed), self.jitter_rms)
        np.tile(row, (N_T + 1, 1)).astype("<f8").tofile(self.u2_file)

    def overrides(self) -> list[str]:
        return super().overrides() + [
            "initial_controls.perturbation_scale=0.3",
            f"initial_controls.u2_file={self.u2_file}",
        ]

    def program_args(self) -> list[str]:
        return ["--seed", "1"]


class GradCheck(Workload):
    """gradient_check for the three modes on the `check` section's coarse
    problem, as `kurasteer check` runs it, sized by its number of directions."""

    gradcheck_directions = 10
    modes = (
        dynamics.ControlMode.VELOCITY,
        dynamics.ControlMode.INTERACTION,
        dynamics.ControlMode.LINEAR_SOURCE,
    )

    def setup(self) -> None:
        self.problems = self.coarse_problems(self.modes)

    def run_round(self, index: int, traced: bool) -> dict:
        tr = Tracer(LAYER_FUNCTIONS if traced else PROBE_FUNCTIONS, count_ffts=traced)
        with tr:
            t0 = time.perf_counter()
            reports = self.gradient_checks(self.problems)
            run_s = time.perf_counter() - t0
        result = {
            "run_s": run_s,
            "time_to_target_s": run_s,
            "solves_to_target": sum(len(tr.named(n)) for n in SOLVES),
            "grad_digits": self.grad_digits(reports),
        }
        if traced:
            result["layers"] = layer_metrics(tr)
            result["layers"]["outputs.bytes_written"] = 0
        return result

    def finish(self) -> dict:
        """The cost at the check's base point u0, where every difference is centred."""
        p = self.problems[0]
        q = kurasteer.solve_state(p.q0, dynamics.ControlSet(), p.params, p.tgrid)
        return {"final_J": kurasteer.cost(q, p.target, dynamics.ControlSet(), p.weights, p.mode, p.params)[0]}


WORKLOADS = {
    "steer-velocity": SteerVelocity,
    "steer-interaction": SteerInteraction,
    "gradcheck": GradCheck,
}
