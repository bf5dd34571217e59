"""Batch entry point: simulate / optimize / check with deterministic outputs.

Exit codes: 0 success, 1 hard error, 2 checks failed, 3 optimizer stalled.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

import numpy as np

from .checks import run_all_checks
from .config import RunConfig, load_config
from .dynamics import CONTROLS, CFLError, ControlSet, NumericsError, Trajectory, solve_state, warn_if_negative
from .optimizer import difference_sums, optimize, sync_series
from .outputs import write_convergence_csv, write_field_file, write_json, write_timeseries_csv

logger = logging.getLogger(__name__)

FIELD_UNITS = {
    "state": "1/rad",
    "adjoint": "cost/density",
    **{name: spec.units for name, spec in CONTROLS.items()},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kurasteer",
        description="Density steering for mean-field Kuramoto-Sakaguchi oscillators.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log solver progress")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("simulate", "integrate the uncontrolled (baseline-control) dynamics"),
        ("optimize", "run the gradient-descent optimal control loop"),
        ("check", "run the spectral, conservation and gradient verification suites"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="dotted-key config override (repeatable), e.g. physics.D=0.1",
        )
        p.add_argument("--out", type=str, default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="random seed")
    return parser


def _state_report(traj: Trajectory, target: Trajectory, alpha_r: float) -> tuple[tuple, dict]:
    """A state's (t, R, psi, mass, Jq_running) series and its final metrics."""
    t, R, psi, mass = sync_series(traj)
    terr = difference_sums(traj.data, target.data) * traj.grid.d_theta  # integral of (q - z)^2 per row
    metrics = {
        "final_R": float(R[-1]),
        "final_psi": float(psi[-1]),
        "final_mass": float(mass[-1]),
        "terminal_tracking_error": float(terr[-1]),
        "min_density": float(traj.data.min()),
    }
    return (t, R, psi, mass, 0.5 * alpha_r * terr), metrics


def _write_state(out: Path, traj: Trajectory, series: tuple) -> None:
    write_timeseries_csv(out / "timeseries.csv", *series)
    write_field_file(out / "state.f64", traj, "state", FIELD_UNITS["state"])


def _reject_initial_controls(runcfg: RunConfig, command: str) -> None:
    """simulate and check run the baseline controls and never read
    initial_controls, so a setting there is an error, not a silent no-op."""
    for key, value in runcfg.raw["initial_controls"].items():
        if value:
            raise ValueError(
                f"initial_controls.{key} is set to {value!r}, but {command} runs the "
                "baseline controls and never reads it"
            )


def cmd_simulate(runcfg: RunConfig) -> int:
    _reject_initial_controls(runcfg, "simulate")
    out = runcfg.output_dir
    traj = solve_state(runcfg.q0, ControlSet(), runcfg.params, runcfg.tgrid)
    series, metrics = _state_report(traj, runcfg.target_trajectory(), runcfg.weights.alpha_r)
    _write_state(out, traj, series)
    mass = series[3]
    summary = {
        "command": "simulate",
        "config": runcfg.raw,
        **metrics,
        "max_mass_error": float(np.max(np.abs(mass - mass[0]))),
    }
    write_json(out / "summary.json", summary)
    logger.info("simulate: R(T)=%.4f mass error %.2e", summary["final_R"], summary["max_mass_error"])
    return 0


def cmd_optimize(runcfg: RunConfig) -> int:
    out = runcfg.output_dir
    problem = runcfg.problem()
    result = optimize(problem)

    # uncontrolled baseline for side-by-side metrics: the descent's first state
    # when it started from the baseline controls
    baseline = result.uncontrolled
    if baseline is None:
        baseline = solve_state(runcfg.q0, ControlSet(), runcfg.params, runcfg.tgrid)
    else:
        warn_if_negative(baseline.data, "state")
    _, baseline_metrics = _state_report(baseline, problem.target, runcfg.weights.alpha_r)
    series, metrics = _state_report(result.state, problem.target, runcfg.weights.alpha_r)

    write_convergence_csv(out / "convergence.csv", result.iterates)
    _write_state(out, result.state, series)
    write_field_file(out / "adjoint.f64", result.adjoint, "adjoint", FIELD_UNITS["adjoint"])
    for name in runcfg.mode.active_controls:
        write_field_file(out / f"control_{name}.f64", result.controls.get(name), name, FIELD_UNITS[name])

    summary = {
        "command": "optimize",
        "config": runcfg.raw,
        "status": result.status,
        "iterations": result.final.iteration,
        "J": result.final.J,
        "J_q": result.final.J_q,
        "J_u": result.final.J_u,
        "grad_norm": result.final.grad_norm,
        "solves": {
            "state": result.state_solves,
            "adjoint": result.adjoint_solves,
            "line_search_trials": result.line_search_trials,
        },
        **metrics,
        "baseline": baseline_metrics,
    }
    write_json(out / "summary.json", summary)
    logger.info(
        "optimize: status=%s J=%.6e terminal error %.3e (baseline %.3e)",
        result.status,
        result.final.J,
        metrics["terminal_tracking_error"],
        baseline_metrics["terminal_tracking_error"],
    )
    return 3 if result.status == "stalled" else 0


def cmd_check(runcfg: RunConfig) -> int:
    _reject_initial_controls(runcfg, "check")
    report = run_all_checks(runcfg)
    report["config"] = runcfg.raw
    write_json(runcfg.output_dir / "report.json", report)
    for chk in report["checks"]:
        logger.info("check %-28s %s", chk["name"], "PASS" if chk["passed"] else "FAIL")
    return 0 if report["passed"] else 2


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        cfg = load_config(args.config, args.overrides, args.out, args.seed)
        runcfg = RunConfig.from_dict(cfg)
        runcfg.output_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "simulate":
            return cmd_simulate(runcfg)
        if args.command == "optimize":
            return cmd_optimize(runcfg)
        return cmd_check(runcfg)
    except (CFLError, NumericsError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
