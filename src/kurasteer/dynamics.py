"""Time integration of the nonlocal transport-diffusion state PDE and its adjoint.

State equation (forward):

    q_t - D q_tt + d/dtheta( u2 * w[q] * q + u1 * q ) = source

Adjoint equation (backward, terminal condition at t = T):

    -p_t - D p_tt - (u2 * w[q] + u1) p_t - w*[u2 * p_t * q] = alpha_r (q - z)

Both are integrated with the same scheme: Heun (explicit RK2) on the
advective/nonlocal/source part composed with the exact Fourier diffusion
propagator over each step. Diffusion is therefore unconditionally stable and
mass-exact; the explicit part is nonstiff because the coupling velocity w is
bounded by the density mass. The adjoint runs the mirrored scheme in reversed
time, reusing stored state rows at the exact stage times.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable

import numpy as np

from .coupling import CouplingParams, interaction_adjoint_values, interaction_values
from .grid import CircleGrid, Field, FloatArray

CFL_SAFETY = 0.5
POSITIVITY_TOL = 1e-6


class CFLError(ValueError):
    """Advective time-step restriction violated."""


class NumericsError(RuntimeError):
    """Non-finite values produced during time integration."""


class ResolutionWarning(UserWarning):
    """State dipped below zero beyond tolerance; refine the discretization."""


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid t_k = k*dt, k = 0..n_t, with dt = T/n_t."""

    T: float
    n_t: int

    def __post_init__(self) -> None:
        if self.T <= 0.0:
            raise ValueError(f"final time T must be > 0, got {self.T}")
        if self.n_t < 1:
            raise ValueError(f"n_t must be >= 1, got {self.n_t}")

    @property
    def dt(self) -> float:
        return self.T / self.n_t

    @cached_property
    def times(self) -> FloatArray:
        t = np.arange(self.n_t + 1) * self.dt
        t.setflags(write=False)
        return t

    @cached_property
    def trapezoid_weights(self) -> FloatArray:
        """Quadrature weights in time: dt * [1/2, 1, ..., 1, 1/2]."""
        w = np.full(self.n_t + 1, self.dt)
        w[0] = w[-1] = 0.5 * self.dt
        w.setflags(write=False)
        return w


@dataclass(frozen=True)
class Trajectory:
    """Space-time history: row k is the field at t_k. Write-once, immutable."""

    grid: CircleGrid
    tgrid: TimeGrid
    data: FloatArray

    def __post_init__(self) -> None:
        d = np.array(self.data, dtype=np.float64)
        expected = (self.tgrid.n_t + 1, self.grid.n_theta)
        if d.shape != expected:
            raise ValueError(f"trajectory shape {d.shape} != {expected}")
        if not np.all(np.isfinite(d)):
            raise ValueError("trajectory entries must all be finite")
        d.setflags(write=False)
        object.__setattr__(self, "data", d)

    @classmethod
    def zeros(cls, grid: CircleGrid, tgrid: TimeGrid) -> "Trajectory":
        return cls(grid, tgrid, np.zeros((tgrid.n_t + 1, grid.n_theta)))

    @classmethod
    def constant(cls, grid: CircleGrid, tgrid: TimeGrid, value: float) -> "Trajectory":
        return cls(grid, tgrid, np.full((tgrid.n_t + 1, grid.n_theta), value))

    @classmethod
    def from_field(cls, field: Field, tgrid: TimeGrid) -> "Trajectory":
        """Replicate a static field across all time rows."""
        return cls(field.grid, tgrid, np.tile(field.values, (tgrid.n_t + 1, 1)))

    def field_at(self, k: int) -> Field:
        return Field(self.grid, self.data[k])

    def mass(self) -> FloatArray:
        """Per-row integral over the circle."""
        return self.grid.quad_rows(self.data)


class ControlMode(str, Enum):
    """Which control enters the state equation and is optimized."""

    VELOCITY = "velocity"            # u1 active, u2 fixed at K
    INTERACTION = "interaction"      # u2 active, u1 fixed at 0
    LINEAR_SOURCE = "linear_source"  # additive source active, u1 = 0, u2 = K
    JOINT = "joint"                  # u1 and u2 both active

    @property
    def active_controls(self) -> tuple[str, ...]:
        return _ACTIVE[self]


_ACTIVE = {
    ControlMode.VELOCITY: ("u1",),
    ControlMode.INTERACTION: ("u2",),
    ControlMode.LINEAR_SOURCE: ("source",),
    ControlMode.JOINT: ("u1", "u2"),
}


class ControlShape(str, Enum):
    """Dependence pattern the control is restricted to."""

    SPACE_TIME = "space_time"
    SPACE_ONLY = "space_only"
    TIME_ONLY = "time_only"
    CONSTANT = "constant"


@dataclass(frozen=True)
class ControlSpec:
    """The facts of one control mechanism, written down only in CONTROLS."""

    baseline: Callable[[CouplingParams], float]  # value of the uncontrolled dynamics
    energy_weight: str  # CostWeights attribute weighting the control energy
    advects: bool  # advecting controls share the CFL budget
    units: str
    # (grid, alpha, q, p, dp = d/dtheta p) -> the reduced gradient less its
    # energy part beta * (u - offset), see CostWeights.penalty_offset
    gradient_kernel: Callable[[CircleGrid, float, FloatArray, FloatArray, FloatArray], FloatArray]


CONTROLS = {
    "u1": ControlSpec(
        baseline=lambda params: 0.0,
        energy_weight="beta1",
        advects=True,
        units="rad/s",
        gradient_kernel=lambda grid, alpha, q, p, dp: q * dp,
    ),
    "u2": ControlSpec(
        baseline=lambda params: params.K,
        energy_weight="beta2",
        advects=True,
        units="1",
        gradient_kernel=lambda grid, alpha, q, p, dp: interaction_values(grid, q, alpha) * q * dp,
    ),
    "source": ControlSpec(
        baseline=lambda params: 0.0,
        energy_weight="beta_lin",
        advects=False,
        units="1/(rad*s)",
        gradient_kernel=lambda grid, alpha, q, p, dp: p,
    ),
}


@dataclass(frozen=True)
class ControlSet:
    """Control histories; missing entries take their baselines (see CONTROLS)."""

    u1: Trajectory | None = None
    u2: Trajectory | None = None
    source: Trajectory | None = None

    def get(self, name: str) -> Trajectory | None:
        return getattr(self, name)

    def array(
        self, name: str, grid: CircleGrid, tgrid: TimeGrid, params: CouplingParams
    ) -> FloatArray:
        """Concrete (n_t+1, n_theta) history of one control."""
        traj = self.get(name)
        if traj is None:
            return np.full((tgrid.n_t + 1, grid.n_theta), CONTROLS[name].baseline(params))
        if traj.grid != grid or traj.tgrid != tgrid:
            raise ValueError(f"control '{name}' is not on the solver grid")
        return traj.data

    def resolve(
        self, grid: CircleGrid, tgrid: TimeGrid, params: CouplingParams
    ) -> tuple[FloatArray, FloatArray, FloatArray]:
        """Concrete (n_t+1, n_theta) arrays for u1, u2, source."""
        return tuple(self.array(name, grid, tgrid, params) for name in CONTROLS)


def advective_rhs_values(
    grid: CircleGrid,
    q: FloatArray,
    u1: FloatArray,
    u2: FloatArray,
    alpha: float,
    source: FloatArray | None = None,
) -> FloatArray:
    """Non-diffusive rate -d/dtheta((u2*w[q] + u1)*q) + source on sample rows."""
    w = interaction_values(grid, q, alpha)
    flux_hat = np.fft.rfft((u2 * w + u1) * q)
    rhs = -np.fft.irfft(grid._ik_first * flux_hat, n=grid.n_theta)
    if source is not None:
        rhs = rhs + source
    return rhs


def warn_if_negative(data: FloatArray, what: str) -> None:
    """ResolutionWarning when a density dips below -POSITIVITY_TOL."""
    min_q = float(data.min())
    if min_q < -POSITIVITY_TOL:
        warnings.warn(
            f"{what} density reached min {min_q:.3e}; increase resolution",
            ResolutionWarning,
            stacklevel=3,
        )


def required_dt(grid: CircleGrid, u1: FloatArray, u2: FloatArray) -> float:
    """Largest stable advective step: safety * dtheta / (max|u1| + max|u2|).

    The coupling velocity satisfies |w[q]| <= 1 for a normalized density, so
    max|u2| bounds the nonlocal transport speed.
    """
    speed = float(np.max(np.abs(u1))) + float(np.max(np.abs(u2))) + 1e-12
    return CFL_SAFETY * grid.d_theta / speed


def _lawson_heun(
    grid: CircleGrid,
    diffusion: float,
    dt: float,
    y0: FloatArray,
    rate: Callable[[int, FloatArray], FloatArray],
    rows: range,
    name: str,
) -> FloatArray:
    """Heun on `rate` composed with the exact heat propagator, row by row.

    Starts from y0 at rows[0] and steps to each following row; rate(k, y)
    evaluates the explicit part with the coefficients of row k. Returns the
    (len(rows), n_theta) history indexed by row.
    """
    prop = grid.heat_multiplier(diffusion, dt)
    data = np.empty((len(rows), grid.n_theta))
    data[rows[0]] = y = y0
    for a, b in zip(rows[:-1], rows[1:]):
        rate1 = rate(a, y)
        y_prop = np.fft.irfft(prop * np.fft.rfft(y), n=grid.n_theta)
        rate1_prop = np.fft.irfft(prop * np.fft.rfft(rate1), n=grid.n_theta)
        rate2 = rate(b, y_prop + dt * rate1_prop)
        y = y_prop + 0.5 * dt * (rate1_prop + rate2)
        if not np.all(np.isfinite(y)):
            raise NumericsError(f"{name} became non-finite at step {b} (t={b * dt:.6g})")
        data[b] = y
    return data


def solve_state(
    q0: Field,
    controls: ControlSet,
    params: CouplingParams,
    tgrid: TimeGrid,
) -> Trajectory:
    """Integrate the state PDE forward from the normalized density q0.

    Heun on the advective/source part composed with the exact diffusion
    propagator each step; second order in time. Mass is conserved exactly by
    the flux form (a nonzero-mean source injects mass by construction).
    Raises CFLError before stepping if dt exceeds the advective limit and
    NumericsError if the state goes non-finite mid-run.
    """
    grid = q0.grid
    mass0 = grid.quad(q0.values)
    if abs(mass0 - 1.0) > 1e-10:
        raise ValueError(f"q0 must integrate to 1 (got {mass0:.12g})")
    if float(q0.values.min()) < -1e-12:
        raise ValueError("q0 must be nonnegative")

    u1a, u2a, srca = controls.resolve(grid, tgrid, params)
    dt = tgrid.dt
    dt_max = required_dt(grid, u1a, u2a)
    if dt > dt_max:
        raise CFLError(
            f"dt={dt:.6g} violates the advective CFL limit; need dt <= {dt_max:.6g} "
            f"(n_t >= {int(np.ceil(tgrid.T / dt_max))})"
        )

    has_source = controls.source is not None

    def rate(k: int, q: FloatArray) -> FloatArray:
        return advective_rhs_values(
            grid, q, u1a[k], u2a[k], params.alpha, srca[k] if has_source else None
        )

    data = _lawson_heun(grid, params.D, dt, q0.values, rate, range(tgrid.n_t + 1), "state")
    warn_if_negative(data, "state")
    traj = Trajectory(grid, tgrid, data)
    if not has_source:
        drift = float(np.max(np.abs(traj.mass() - mass0)))
        if drift > 1e-8:
            raise NumericsError(f"mass drifted by {drift:.3e} despite flux form")
    return traj


def _adjoint_rate(
    grid: CircleGrid,
    p: FloatArray,
    q: FloatArray,
    u1: FloatArray,
    u2: FloatArray,
    alpha: float,
    mismatch: FloatArray,
    alpha_r: float,
) -> FloatArray:
    """Backward-time rate of the adjoint (diffusion handled by the propagator).

    With dp = d/dtheta p:  (u2*w[q] + u1)*dp + w*[u2*dp*q] + alpha_r*mismatch.
    """
    dp = grid.deriv(p)
    w_q = interaction_values(grid, q, alpha)
    rate = (u2 * w_q + u1) * dp
    rate += interaction_adjoint_values(grid, u2 * dp * q, alpha)
    if alpha_r != 0.0:
        rate += alpha_r * mismatch
    return rate


def solve_adjoint(
    q_traj: Trajectory,
    z_traj: Trajectory,
    controls: ControlSet,
    params: CouplingParams,
    weights: tuple[float, float],
) -> Trajectory:
    """Integrate the adjoint backward from p(T) = alpha_t*(q(T) - z(T)).

    weights = (alpha_r, alpha_t): running and terminal tracking weights.
    The scheme mirrors solve_state in reversed time; Heun stages evaluate
    coefficients on the stored state rows at their exact times, so the
    running-mismatch source is accumulated with trapezoidal weights matching
    the cost quadrature.
    """
    grid, tgrid = q_traj.grid, q_traj.tgrid
    if z_traj.grid != grid or z_traj.tgrid != tgrid:
        raise ValueError("target trajectory is not on the state grid")
    alpha_r, alpha_t = weights

    u1a, u2a, _ = controls.resolve(grid, tgrid, params)
    qd, zd = q_traj.data, z_traj.data

    def rate(m: int, p: FloatArray) -> FloatArray:
        return _adjoint_rate(grid, p, qd[m], u1a[m], u2a[m], params.alpha, qd[m] - zd[m], alpha_r)

    p_end = alpha_t * (qd[-1] - zd[-1])
    data = _lawson_heun(grid, params.D, tgrid.dt, p_end, rate, range(tgrid.n_t, -1, -1), "adjoint")
    return Trajectory(grid, tgrid, data)
