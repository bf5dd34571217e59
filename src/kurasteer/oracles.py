"""Independent oracles: brute-force quadrature, the synchronized rotating
wave at any phase lag, and a microscopic N-oscillator simulator.

Everything here double-checks the spectral solver through a different route:
the quadrature path never uses the moment identity, the rotating wave solves
the stationary Fokker-Planck equation in Fourier modes and never integrates
the PDE, and the particle system is the finite-N stochastic model whose
empirical density the PDE describes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coupling import CouplingParams
from .dynamics import CONTROLS, ControlSet, TimeGrid
from .grid import TWO_PI, CircleGrid, ComplexArray, Field, FloatArray

SYNC_THRESHOLD = 2.0  # K*cos(alpha)/D at or below which only R = 0 solves
MIN_MODES = 64  # continued-fraction depth of the rotating wave at K/D <= 40.96
NEWTON_TOL = 1e-14  # on the self-consistency residual and the truncated mode
NEWTON_FD_STEP = 1e-7
NEWTON_MAX_STEPS = 50


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


@dataclass(frozen=True)
class RotatingWave:
    """Synchronized steady state: coherence R_star, rotation rate omega, and
    modes[k] = c_k, k = 0..n (see _modes), the integrals of Q(phi)*exp(-i*k*phi)
    of its profile Q in the co-rotating frame, so c_0 = 1 and c_1 = R_star."""

    R_star: float
    omega: float
    modes: ComplexArray


def _modes(params: CouplingParams, R: float, omega: float) -> ComplexArray:
    """c_0..c_n of the stationary profile in the frame rotating at omega under
    coherence R. Their ratios r_k = c_k/c_(k-1) follow the continued fraction, from
    r_(n+1) = 0: r_k = a*e^(i*alpha) / (D*k - i*omega + a*e^(-i*alpha)*r_(k+1)), a = K*R/2.
    The depth is n = max(MIN_MODES, ceil(10*sqrt(K/D))): the modes fall like
    exp(-k^2*D/(2*K*R)), so at R <= 1 the last is below roundoff."""
    a, lag = 0.5 * params.K * R, np.exp(1j * params.alpha)
    ratios = [0j]  # r_(n+1), then r_n down to r_1
    depth = max(MIN_MODES, int(np.ceil(10.0 * np.sqrt(params.K / params.D))))
    for k in range(depth, 0, -1):
        ratios.append(a * lag / (params.D * k - 1j * omega + a * np.conj(lag) * ratios[-1]))
    return np.cumprod([1.0, *ratios[:0:-1]])


def rotating_wave(params: CouplingParams) -> RotatingWave:
    """The self-consistent rotating wave of the uncontrolled dynamics at any
    phase lag (Risken, ch. 9; Sakaguchi & Kuramoto 1986): c_1(R, omega) = R,
    solved by Newton's method with a forward-difference Jacobian from R = 0.9
    and a locked bump's rate -0.9*K*sin(alpha), which avoids the trivial root
    R = 0. At or below K*cos(alpha)/D = SYNC_THRESHOLD only R = 0 exists."""
    if params.D <= 0.0 or params.K <= 0.0:
        raise ValueError(f"the rotating wave requires D > 0 and K > 0, got D={params.D}, K={params.K}")
    if params.K * np.cos(params.alpha) / params.D <= SYNC_THRESHOLD:
        return RotatingWave(0.0, 0.0, _modes(params, 0.0, 0.0))

    def residual(x: FloatArray) -> FloatArray:  # c_1(R, omega) - R as (real, imaginary) parts
        return np.array([_modes(params, *x)[1] - x[0]]).view(np.float64)

    x = np.array([0.9, -0.9 * params.K * np.sin(params.alpha)])
    for _ in range(NEWTON_MAX_STEPS):
        f = residual(x)
        if np.max(np.abs(f)) <= NEWTON_TOL:
            break
        jac = np.column_stack([(residual(x + NEWTON_FD_STEP * e) - f) / NEWTON_FD_STEP for e in np.eye(2)])
        x = x - np.linalg.solve(jac, f)
    modes = _modes(params, *x)
    if np.max(np.abs(f)) > NEWTON_TOL or x[0] <= 0.0 or abs(modes[-1]) > NEWTON_TOL:
        raise RuntimeError(
            f"Newton found no rotating wave with R > 0 resolved by {modes.size - 1} modes at {params}"
        )
    return RotatingWave(float(x[0]), float(x[1]) + 0.0, modes)  # + 0.0: no -0.0 at alpha = 0


def stationary_density(grid: CircleGrid, params: CouplingParams, psi: float = 0.0) -> Field:
    """Grid-normalized profile of rotating_wave with mean phase psi, summed from its modes."""
    modes = rotating_wave(params).modes
    phases = np.exp(1j * np.outer(grid.theta - psi, np.arange(len(modes))))
    raw = 2.0 * (phases @ modes).real - 1.0  # the sum over k = -n..n, as c_0 = 1
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
