"""Canned verification suites behind the `check` subcommand.

Each check returns a plain dict (name, passed, measured numbers) so the CLI
can emit one machine-readable report.
"""

from __future__ import annotations

import numpy as np

from .config import DEFAULT_CONFIG, RunConfig
from .coupling import adjoint_values, interaction_coefficient_table, interaction_values
from .dynamics import ControlMode, ControlSet, solve_state
from .grid import CircleGrid, random_bandlimited, rfft
from .optimizer import OcpProblem, difference_sums, gradient_check
from .oracles import adjoint_quadrature, interaction_quadrature

GREEN_TOL = 1e-10
DUALITY_TOL = 1e-12
QUADRATURE_TOL = 1e-12
MASS_TOL = 1e-8
W_BOUND_TOL = 1e-6
N_SAMPLES = 100  # random fields (or pairs) per grid size of the spectral suites
SIZES = (16, 64, 128)  # the grid sizes of the spectral suites


def check_spectral_identities(seed: int = 0) -> dict:
    """Green identity <f', g> = -<f, g'> and coupling duality
    <w[f], g> = <w*[g], f>, on the operators that the solvers run."""
    rng = np.random.default_rng(seed)
    max_green = 0.0
    max_dual = 0.0
    for n in SIZES:
        grid = CircleGrid(n)
        for _ in range(N_SAMPLES):
            f = random_bandlimited(grid, rng).values
            g = random_bandlimited(grid, rng).values
            green = grid.quad(grid.deriv(f) * g) + grid.quad(f * grid.deriv(g))
            scale = max(1.0, abs(grid.quad(f * g)))
            max_green = max(max_green, abs(green) / scale)
            alpha = rng.uniform(0.0, 2 * np.pi)
            dual = grid.quad(interaction_values(grid, f, alpha) * g) - grid.quad(adjoint_values(grid, g, alpha) * f)
            max_dual = max(max_dual, abs(dual) / scale)
    return {
        "name": "spectral_identities",
        "passed": max_green <= GREEN_TOL and max_dual <= DUALITY_TOL,
        "max_green_residual": float(max_green),
        "max_duality_residual": float(max_dual),
    }


def check_nonlocal_equivalence(seed: int = 1) -> dict:
    """The coupling, its adjoint and the state's read of the coupling off
    rfft mode 1 against the O(n^2) quadrature path."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for n in SIZES:
        grid = CircleGrid(n)
        for _ in range(N_SAMPLES):
            f = random_bandlimited(grid, rng).values
            alpha = rng.uniform(0.0, 2 * np.pi)
            w = interaction_quadrature(grid, f, alpha)
            mode1 = np.real(rfft(f)[1] * interaction_coefficient_table(grid, alpha))
            errors = (
                interaction_values(grid, f, alpha) - w,
                mode1 - w,
                adjoint_values(grid, f, alpha) - adjoint_quadrature(grid, f, alpha),
            )
            scale = max(1.0, float(np.max(np.abs(f))))
            worst = max(worst, *(float(np.max(np.abs(e))) / scale for e in errors))
    return {
        "name": "nonlocal_equivalence",
        "passed": worst <= QUADRATURE_TOL,
        "max_residual": worst,
    }


def check_mass_and_bound(runcfg: RunConfig) -> dict:
    """Mass conservation and the |w[q]| <= 1 transport bound along a solve."""
    base = runcfg.base
    traj = solve_state(base.q0, ControlSet(), base.params, base.tgrid)
    mass_err = float(np.max(np.abs(traj.mass() - 1.0)))
    w_max = float(np.max(np.abs(interaction_values(base.grid, traj.data, base.params.alpha))))
    mismatch = difference_sums(traj.data, base.target.data)  # row sums of (q - z)^2
    terminal_err = float(mismatch[-1] * base.grid.d_theta)
    return {
        "name": "mass_and_transport_bound",
        "passed": mass_err <= MASS_TOL and w_max <= 1.0 + W_BOUND_TOL,
        "max_mass_error": mass_err,
        "max_transport_field": w_max,
        "terminal_tracking_error": terminal_err,
    }


def coarse_problem(runcfg: RunConfig, mode: ControlMode) -> OcpProblem:
    """Gradient-check setup: the run's scenario, physics and weights on the
    check section's grids, the controls of the given mode at their
    baselines, and the default optimizer settings."""
    raw = runcfg.raw
    return RunConfig.from_dict({
        **raw,
        "discretization": {key: runcfg.check[key] for key in raw["discretization"]},
        "mode": mode.value,
        "optimizer": DEFAULT_CONFIG["optimizer"],
        "initial_controls": DEFAULT_CONFIG["initial_controls"],
    }).problem()


def check_gradients(runcfg: RunConfig) -> list[dict]:
    """Adjoint-vs-finite-difference verification for every control mode."""
    out = []
    for mode in ControlMode:
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
