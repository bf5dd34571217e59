"""Independent oracles: brute-force quadrature, the synchronization fixed
point, and a microscopic N-oscillator simulator.

Everything here double-checks the spectral solver through a different route:
the quadrature path never uses the moment identity, the fixed point never
integrates the PDE, and the particle system is the finite-N stochastic model
whose empirical density the PDE describes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coupling import CouplingParams
from .dynamics import CONTROLS, ControlSet, TimeGrid
from .grid import TWO_PI, CircleGrid, Field, FloatArray

SYNC_THRESHOLD = 2.0  # coupling-to-diffusion ratio below which only R = 0 solves


def interaction_quadrature(grid: CircleGrid, values: FloatArray, alpha: float) -> FloatArray:
    """O(n^2) direct quadrature of the sine coupling (reference path).

    w(theta_j) = d_theta * sum_j' sin(theta_j' - theta_j - alpha) * q_j'.
    """
    th = grid.theta
    kernel = np.sin(th[None, :] - th[:, None] - alpha)
    return kernel @ values * grid.d_theta


def adjoint_quadrature(grid: CircleGrid, values: FloatArray, alpha: float) -> FloatArray:
    """O(n^2) direct quadrature of the transposed coupling."""
    th = grid.theta
    kernel = np.sin(th[:, None] - th[None, :] - alpha)
    return kernel @ values * grid.d_theta


def bessel_ratio(x: float) -> float:
    """I_1(x) / I_0(x) of the modified Bessel functions.

    scipy is imported here, on first use, so that the solver, the optimizer
    and the CLI load without it.
    """
    from scipy.special import i0e, i1e

    return float(i1e(x) / i0e(x))


@dataclass(frozen=True)
class FixedPointResult:
    """Self-consistent coherence of the synchronized steady state."""

    R_star: float
    converged: bool
    residual: float


def stationary_fixed_point(params: CouplingParams) -> FixedPointResult:
    """Solve R = I_1(K R / D) / I_0(K R / D) by Brent's method (scipy's
    brentq, imported on first use as in bessel_ratio).

    Valid for zero phase lag. Below the synchronization threshold K/D = 2
    only the incoherent root R = 0 exists and is returned as converged.
    The mean phase is not determined by the fixed point; callers align it
    with the trajectory under comparison.
    """
    if params.D <= 0.0:
        raise ValueError("stationary fixed point requires D > 0")
    if params.K <= 0.0:
        raise ValueError("stationary fixed point requires K > 0")
    if params.alpha != 0.0:
        raise ValueError("semi-analytic steady state is only valid for zero phase lag")

    kappa = params.K / params.D

    def f(r: float) -> float:
        return bessel_ratio(kappa * r) - r

    if kappa <= SYNC_THRESHOLD or f(0.01) <= 0.0:
        return FixedPointResult(R_star=0.0, converged=True, residual=0.0)

    lo, hi = 0.01, 0.999
    if f(hi) >= 0.0:
        return FixedPointResult(R_star=hi, converged=False, residual=abs(f(hi)))
    from scipy.optimize import brentq

    r_star = brentq(f, lo, hi, xtol=1e-15)
    residual = abs(f(r_star))
    return FixedPointResult(R_star=r_star, converged=residual <= 1e-10, residual=residual)


def stationary_density(grid: CircleGrid, params: CouplingParams, psi: float = 0.0) -> Field:
    """Grid-normalized exp((K R*/D) cos(theta - psi)) steady profile."""
    fp = stationary_fixed_point(params)
    raw = np.exp((params.K * fp.R_star / params.D) * np.cos(grid.theta - psi))
    return Field(grid, raw / grid.quad(raw))


# -- microscopic N-oscillator model ------------------------------------------


@dataclass(frozen=True)
class ParticleEnsemble:
    """Finite swarm of oscillator phases, wrapped to [0, 2*pi)."""

    thetas: FloatArray
    rng_seed: int

    def __post_init__(self) -> None:
        th = np.array(self.thetas, dtype=np.float64)
        if th.ndim != 1:
            raise ValueError(f"thetas must be one-dimensional, got shape {th.shape}")
        if len(th) < 2:
            raise ValueError(f"need at least 2 oscillators, got {len(th)}")
        th = np.mod(th, TWO_PI)
        th.setflags(write=False)
        object.__setattr__(self, "thetas", th)

    @classmethod
    def from_density(cls, q0: Field, N: int, rng_seed: int) -> "ParticleEnsemble":
        """Sample N phases from a grid density via the piecewise-linear CDF.

        Stratified sampling (one draw per probability stratum) keeps the
        empirical measure unbiased while cutting initial-condition noise.
        """
        rng = np.random.default_rng(rng_seed)
        u = (np.arange(N) + rng.uniform(size=N)) / N
        grid = q0.grid
        # periodic node set with the wrap point appended so the CDF closes at 1
        pdf = np.append(q0.values, q0.values[0])
        theta_nodes = np.append(grid.theta, TWO_PI)
        cdf = np.concatenate(([0.0], np.cumsum((pdf[:-1] + pdf[1:]) * 0.5 * grid.d_theta)))
        cdf /= cdf[-1]
        thetas = np.interp(u, cdf, theta_nodes)
        return cls(thetas=thetas, rng_seed=rng_seed)


def moment_interaction_drift(thetas: FloatArray, alpha: float) -> tuple[complex, FloatArray]:
    """The first moment z = mean(exp(i theta)) and, from it in O(N), the drift
    (1/N) sum_j sin(theta_j - theta_i - alpha) = R sin(psi - theta_i - alpha)
    with z = R exp(i psi)."""
    z = np.exp(1j * thetas).mean()
    return z, np.abs(z) * np.sin(np.angle(z) - thetas - alpha)


def pairwise_interaction_drift(thetas: FloatArray, alpha: float = 0.0) -> FloatArray:
    """Same drift by the O(N^2) pairwise sum (brute-force reference)."""
    diff = thetas[None, :] - thetas[:, None] - alpha
    return np.sin(diff).mean(axis=1)


def simulate_particles(
    ens: ParticleEnsemble,
    controls: ControlSet,
    params: CouplingParams,
    tgrid: TimeGrid,
) -> tuple[FloatArray, FloatArray]:
    """Euler-Maruyama run of the controlled oscillator swarm.

    Controls are sampled from their PDE-grid histories, on the grid of the
    first: linear interpolation in theta, step-constant in time; with none,
    the swarm moves at the scalar baselines. Only controls that advect move
    particles; any other control raises ValueError. Noise increments are
    N(0, 2*D*dt), so the empirical density diffuses with coefficient D.
    Returns the discrete order parameter series (R_N(t_k), psi_N(t_k)).
    """
    given = [n for n in CONTROLS if controls.get(n) is not None]
    for name in given:
        if not CONTROLS[name].advects:
            raise ValueError(f"control '{name}' does not advect; the particle model cannot apply it")
    if given:
        grid = controls.get(given[0]).grid
        u1a, u2a = (controls.array(name, grid, tgrid, params) for name in ("u1", "u2"))
        theta_nodes = np.append(grid.theta, TWO_PI)

        def sample(table: FloatArray, k: int, th: FloatArray) -> FloatArray:
            row = table[k]
            return np.interp(th, theta_nodes, np.append(row, row[0]))

    rng = np.random.default_rng(ens.rng_seed)
    dt = tgrid.dt
    noise_std = np.sqrt(2.0 * params.D * dt)

    th = ens.thetas.copy()
    R = np.empty(tgrid.n_t + 1)
    psi = np.empty(tgrid.n_t + 1)
    for k in range(tgrid.n_t + 1):
        z, coupling = moment_interaction_drift(th, params.alpha)
        R[k], psi[k] = np.abs(z), np.angle(z) % TWO_PI
        if k == tgrid.n_t:
            break
        if given:
            u1 = sample(u1a, k, th)
            u2 = sample(u2a, k, th)
        else:
            u1, u2 = CONTROLS["u1"].baseline(params), CONTROLS["u2"].baseline(params)
        th = th + dt * (u1 + u2 * coupling)
        if params.D > 0.0:
            th = th + noise_std * rng.standard_normal(len(th))
        th = np.mod(th, TWO_PI)
    return R, psi
