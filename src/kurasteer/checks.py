"""Canned verification suites behind the `check` subcommand.

Each check returns a plain dict (name, passed, measured numbers) so the CLI
can emit one machine-readable report.
"""

from __future__ import annotations

import numpy as np

from .config import RunConfig
from .coupling import interaction_field, interaction_field_adjoint
from .dynamics import ControlMode, ControlSet, ControlShape, TimeGrid, Trajectory, solve_state
from .grid import CircleGrid, Field, ddtheta, integrate, random_bandlimited
from .optimizer import OcpProblem, OptimizerConfig, gradient_check
from .oracles import interaction_adjoint_quadrature, interaction_field_quadrature
from .scenarios import DensitySpec

GREEN_TOL = 1e-10
DUALITY_TOL = 1e-12
QUADRATURE_TOL = 1e-12
MASS_TOL = 1e-8
W_BOUND_TOL = 1e-6


def check_spectral_identities(
    seed: int = 0, n_pairs: int = 100, sizes: tuple[int, ...] = (16, 64, 128)
) -> dict:
    """Green identity <f', g> = -<f, g'> and coupling duality <w[f], g> = <w*[g], f>."""
    rng = np.random.default_rng(seed)
    max_green = 0.0
    max_dual = 0.0
    for n in sizes:
        grid = CircleGrid(n)
        for _ in range(n_pairs):
            f = random_bandlimited(grid, rng)
            g = random_bandlimited(grid, rng)
            green = integrate(Field(grid, ddtheta(f).values * g.values)) + integrate(
                Field(grid, f.values * ddtheta(g).values)
            )
            scale = max(1.0, abs(integrate(Field(grid, f.values * g.values))))
            max_green = max(max_green, abs(green) / scale)
            alpha = rng.uniform(0.0, 2 * np.pi)
            dual = integrate(
                Field(grid, interaction_field(f, alpha).values * g.values)
            ) - integrate(Field(grid, interaction_field_adjoint(g, alpha).values * f.values))
            max_dual = max(max_dual, abs(dual) / scale)
    return {
        "name": "spectral_identities",
        "passed": max_green <= GREEN_TOL and max_dual <= DUALITY_TOL,
        "max_green_residual": float(max_green),
        "max_duality_residual": float(max_dual),
    }


def check_nonlocal_equivalence(
    seed: int = 1, n_fields: int = 100, sizes: tuple[int, ...] = (16, 64, 128)
) -> dict:
    """Moment-identity coupling against the O(n^2) quadrature path."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for n in sizes:
        grid = CircleGrid(n)
        for _ in range(n_fields):
            f = random_bandlimited(grid, rng)
            alpha = rng.uniform(0.0, 2 * np.pi)
            err_w = float(
                np.max(
                    np.abs(
                        interaction_field(f, alpha).values
                        - interaction_field_quadrature(f, alpha).values
                    )
                )
            )
            err_ws = float(
                np.max(
                    np.abs(
                        interaction_field_adjoint(f, alpha).values
                        - interaction_adjoint_quadrature(f, alpha).values
                    )
                )
            )
            scale = max(1.0, float(np.max(np.abs(f.values))))
            worst = max(worst, err_w / scale, err_ws / scale)
    return {
        "name": "nonlocal_equivalence",
        "passed": worst <= QUADRATURE_TOL,
        "max_residual": worst,
    }


def check_mass_and_bound(runcfg: RunConfig) -> dict:
    """Mass conservation and the |w[q]| <= 1 transport bound along a solve."""
    target = runcfg.target_trajectory()
    controls = ControlSet()
    traj = solve_state(runcfg.q0, controls, runcfg.params, runcfg.tgrid)
    mass_err = float(np.max(np.abs(traj.mass() - 1.0)))
    w_max = 0.0
    for k in range(0, runcfg.tgrid.n_t + 1):
        w = interaction_field(traj.field_at(k), runcfg.params.alpha)
        w_max = max(w_max, float(np.max(np.abs(w.values))))
    terminal_err = float(runcfg.grid.quad((traj.data[-1] - target.data[-1]) ** 2))
    return {
        "name": "mass_and_transport_bound",
        "passed": mass_err <= MASS_TOL and w_max <= 1.0 + W_BOUND_TOL,
        "max_mass_error": mass_err,
        "max_transport_field": w_max,
        "terminal_tracking_error": terminal_err,
    }


def coarse_problem(runcfg: RunConfig, mode: ControlMode) -> OcpProblem:
    """Gradient-check setup: coarse grids, the run's physics and weights."""
    chk = runcfg.raw["check"]
    grid = CircleGrid(int(chk["n_theta"]))
    tgrid = TimeGrid(float(chk["T"]), int(chk["n_t"]))
    q0 = DensitySpec.from_dict(runcfg.raw["scenario"]["q0"]).build(grid)
    target = DensitySpec.from_dict(runcfg.raw["scenario"]["target"]).build(grid)
    return OcpProblem(
        grid=grid,
        tgrid=tgrid,
        params=runcfg.params,
        mode=mode,
        shape=ControlShape.SPACE_TIME,
        weights=runcfg.weights,
        optimizer=OptimizerConfig(),
        q0=q0,
        target=Trajectory.from_field(target, tgrid),
    )


def check_gradients(runcfg: RunConfig) -> list[dict]:
    """Adjoint-vs-finite-difference verification for all three control modes."""
    chk = runcfg.raw["check"]
    out = []
    for mode in (ControlMode.VELOCITY, ControlMode.INTERACTION, ControlMode.LINEAR_SOURCE):
        report = gradient_check(
            coarse_problem(runcfg, mode),
            n_directions=int(chk["directions"]),
            seed=runcfg.seed,
            bias=float(chk["gradient_bias"]),
        )
        out.append(
            {
                "name": f"gradient_check_{mode.value}",
                "passed": report.passed,
                "min_rel_errors": [d.min_rel_error for d in report.directions],
                "eps_at_min": [d.eps_at_min for d in report.directions],
                "floor_rel_errors": [d.floor_rel_error for d in report.directions],
            }
        )
    return out


def run_all_checks(runcfg: RunConfig) -> dict:
    checks = [
        check_spectral_identities(seed=runcfg.seed),
        check_nonlocal_equivalence(seed=runcfg.seed + 1),
        check_mass_and_bound(runcfg),
    ]
    checks.extend(check_gradients(runcfg))
    return {"passed": all(c["passed"] for c in checks), "checks": checks}
