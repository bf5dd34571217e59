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
from .dynamics import CONTROLS, CFLError, ControlSet, NumericsError, solve_state
from .optimizer import optimize, sync_series
from .outputs import (
    tracking_error_series,
    write_convergence_csv,
    write_field_file,
    write_json,
    write_timeseries_csv,
)

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


def _simulate_outputs(runcfg: RunConfig, out: Path) -> dict:
    controls = ControlSet()
    traj = solve_state(runcfg.q0, controls, runcfg.params, runcfg.tgrid)
    target = runcfg.target_trajectory()
    t, R, psi, mass = sync_series(traj)
    terr = tracking_error_series(runcfg.grid, traj, target)
    jq_running = 0.5 * runcfg.weights.alpha_r * terr
    write_timeseries_csv(out / "timeseries.csv", t, R, psi, mass, jq_running)
    write_field_file(out / "state.f64", traj, "state", FIELD_UNITS["state"])
    summary = {
        "command": "simulate",
        "config": runcfg.raw,
        "final_R": float(R[-1]),
        "final_psi": float(psi[-1]),
        "final_mass": float(mass[-1]),
        "max_mass_error": float(np.max(np.abs(mass - mass[0]))),
        "terminal_tracking_error": float(terr[-1]),
        "min_density": float(traj.data.min()),
    }
    write_json(out / "summary.json", summary)
    return summary


def cmd_simulate(runcfg: RunConfig) -> int:
    out = runcfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    summary = _simulate_outputs(runcfg, out)
    logger.info("simulate: R(T)=%.4f mass error %.2e", summary["final_R"], summary["max_mass_error"])
    return 0


def cmd_optimize(runcfg: RunConfig) -> int:
    out = runcfg.output_dir
    out.mkdir(parents=True, exist_ok=True)

    # uncontrolled baseline for side-by-side metrics
    baseline = solve_state(runcfg.q0, ControlSet(), runcfg.params, runcfg.tgrid)
    target = runcfg.target_trajectory()
    bt, bR, bpsi, bmass = sync_series(baseline)
    baseline_terr = tracking_error_series(runcfg.grid, baseline, target)

    result = optimize(runcfg.problem())
    t, R, psi, mass = result.times, result.R, result.psi, result.mass
    terr = tracking_error_series(runcfg.grid, result.state, target)
    jq_running = 0.5 * runcfg.weights.alpha_r * terr

    write_convergence_csv(out / "convergence.csv", result.iterates)
    write_timeseries_csv(out / "timeseries.csv", t, R, psi, mass, jq_running)
    write_field_file(out / "state.f64", result.state, "state", FIELD_UNITS["state"])
    write_field_file(out / "adjoint.f64", result.adjoint, "adjoint", FIELD_UNITS["adjoint"])
    for name in runcfg.mode.active_controls:
        traj = result.controls.get(name)
        write_field_file(out / f"control_{name}.f64", traj, name, FIELD_UNITS[name])

    summary = {
        "command": "optimize",
        "config": runcfg.raw,
        "status": result.status,
        "iterations": result.final.iteration,
        "J": result.final.J,
        "J_q": result.final.J_q,
        "J_u": result.final.J_u,
        "grad_norm": result.final.grad_norm,
        "final_R": float(R[-1]),
        "final_psi": float(psi[-1]),
        "final_mass": float(mass[-1]),
        "terminal_tracking_error": float(terr[-1]),
        "baseline": {
            "final_R": float(bR[-1]),
            "final_psi": float(bpsi[-1]),
            "final_mass": float(bmass[-1]),
            "terminal_tracking_error": float(baseline_terr[-1]),
        },
    }
    write_json(out / "summary.json", summary)
    logger.info(
        "optimize: status=%s J=%.6e terminal error %.3e (baseline %.3e)",
        result.status,
        result.final.J,
        summary["terminal_tracking_error"],
        summary["baseline"]["terminal_tracking_error"],
    )
    return 3 if result.status == "stalled" else 0


def cmd_check(runcfg: RunConfig) -> int:
    out = runcfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    report = run_all_checks(runcfg)
    report["config"] = runcfg.raw
    write_json(out / "report.json", report)
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
