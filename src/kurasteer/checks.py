"""Canned verification suites behind the `check` subcommand.

Each check returns a plain dict (name, passed, measured numbers) so the CLI
can emit one machine-readable report.
"""

from __future__ import annotations

import numpy as np

from .config import RunConfig
from .coupling import interaction_field, interaction_field_adjoint, interaction_values
from .dynamics import ControlMode, ControlSet, ControlShape, solve_state
from .grid import CircleGrid, Field, ddtheta, integrate, random_bandlimited
from .optimizer import OcpProblem, OptimizerConfig, difference_sums, gradient_check
from .oracles import interaction_adjoint_quadrature, interaction_field_quadrature

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
    traj = solve_state(runcfg.q0, ControlSet(), runcfg.params, runcfg.tgrid)
    mass_err = float(np.max(np.abs(traj.mass() - 1.0)))
    w_max = float(np.max(np.abs(interaction_values(runcfg.grid, traj.data, runcfg.params.alpha))))
    mismatch = difference_sums(traj.data, runcfg.target_trajectory().data)  # row sums of (q - z)^2
    terminal_err = float(mismatch[-1] * runcfg.grid.d_theta)
    return {
        "name": "mass_and_transport_bound",
        "passed": mass_err <= MASS_TOL and w_max <= 1.0 + W_BOUND_TOL,
        "max_mass_error": mass_err,
        "max_transport_field": w_max,
        "terminal_tracking_error": terminal_err,
    }


def coarse_problem(runcfg: RunConfig, mode: ControlMode) -> OcpProblem:
    """Gradient-check setup: the run's scenario, physics and weights on the
    check section's grids, from the baseline controls."""
    grids = {key: runcfg.check[key] for key in runcfg.raw["discretization"]}
    coarse = RunConfig.from_dict({**runcfg.raw, "discretization": grids})
    return OcpProblem(
        grid=coarse.grid,
        tgrid=coarse.tgrid,
        params=coarse.params,
        mode=mode,
        shape=ControlShape.SPACE_TIME,
        weights=coarse.weights,
        optimizer=OptimizerConfig(),
        q0=coarse.q0,
        target=coarse.target_trajectory(),
    )


def check_gradients(runcfg: RunConfig) -> list[dict]:
    """Adjoint-vs-finite-difference verification for all three control modes."""
    out = []
    for mode in (ControlMode.VELOCITY, ControlMode.INTERACTION, ControlMode.LINEAR_SOURCE):
        problem = coarse_problem(runcfg, mode)
        report = gradient_check(problem, n_directions=runcfg.check["directions"], seed=runcfg.seed)
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
