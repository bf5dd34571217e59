"""Time integration of the nonlocal transport-diffusion state PDE and its adjoint.

State equation (forward):

    q_t - D q_tt + d/dtheta( u2 * w[q] * q + u1 * q ) = source

Adjoint equation (backward, terminal condition at t = T):

    -p_t - D p_tt - (u2 * w[q] + u1) p_t - w*[u2 * p_t * q] = alpha_r (q - z)

Both are integrated with the same scheme: Heun (explicit RK2) on the
advective/nonlocal/source part composed with the exact Fourier diffusion
propagator over each step, an integrating-factor (Lawson) Runge-Kutta
method carried in rfft space, with four FFT calls per step. Diffusion is
therefore unconditionally stable and mass-exact; the explicit part is
nonstiff because the coupling velocity w is bounded by the density mass. The
adjoint runs the mirrored scheme in reversed time, reusing stored state rows
at the exact stage times. What does not depend on the stepped field (the
products of control, state and target histories, the coupling tables, the
scalar and mode factors) is computed once per solve. The state solver keeps
an absent control a scalar (an explicit K history costs it about 9 % per
solve); the adjoint reads every control as a history, an absent one as a
view of its baseline row. The state's coupling velocity lives in Fourier
modes +-1, so each stage reads it off mode 1 of the coefficients the stepper
already holds. A step is only its array calls: each of them writes into a
buffer made once per solve or into the stored row it fills (a rate writes
its increment into one the stepper passes; only the adjoint's w* term makes
small temporaries), and the transforms are the pocketfft gufuncs, bound
once per solve and called with 0-d factors and positional outputs (see
grid.transform_kernels). The state solver also takes a stack of control
histories and integrates them together. Given the stack one row at a time
instead, it keeps no history: each new state row goes to a consumer and is
overwritten by the next, which is how gradient_check scores all of its
finite-difference probes in one solve.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable

import numpy as np
from numpy import add, multiply  # bound by name: a step makes more than a dozen of these calls

from .coupling import CouplingParams, adjoint_kernel_table, interaction_coefficient_table, interaction_values
from .grid import CircleGrid, ComplexArray, Field, FloatArray, transform_kernels

CFL_SAFETY = 0.5
POSITIVITY_TOL = 1e-6
# rows per block in which whole-history temporaries and reductions are made
ROW_BLOCK = 256

# rate(k, x, c, stage, out) writes the stage increment's rfft coefficients
# into out and returns the increment's sample values, or None
Rate = Callable[[int, FloatArray, ComplexArray, int, ComplexArray], FloatArray | None]


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
        if not self.T > 0.0:
            raise ValueError(f"T (the final time) must be > 0, got {self.T}")
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


def row_blocks(n_rows: int) -> list[slice]:
    """Consecutive slices of at most ROW_BLOCK rows that cover n_rows rows;
    row k lies in block k // ROW_BLOCK."""
    return [slice(lo, min(lo + ROW_BLOCK, n_rows)) for lo in range(0, n_rows, ROW_BLOCK)]


def read_only(data: FloatArray) -> FloatArray:
    """Lock a fresh array against writes and return it, so that a Trajectory
    built on it adopts it without a copy."""
    data.setflags(write=False)
    return data


@dataclass(frozen=True)
class Trajectory:
    """Space-time history: row k is the field at t_k. Write-once, immutable.

    Ownership: writeable input is copied, so later writes to it do not reach
    the trajectory; a read-only float64 array is adopted as it is, with no
    copy, and whoever hands it over must not write to it through another
    view. Constant-in-time histories are read-only broadcast views of one row.
    """

    grid: CircleGrid
    tgrid: TimeGrid
    data: FloatArray

    def __post_init__(self) -> None:
        d = self.data
        if not (isinstance(d, np.ndarray) and d.dtype == np.float64 and not d.flags.writeable):
            d = read_only(np.array(d, dtype=np.float64))
        expected = (self.tgrid.n_t + 1, self.grid.n_theta)
        if d.shape != expected:
            raise ValueError(f"trajectory shape {d.shape} != {expected}")
        if first_non_finite(d, range(expected[0])) is not None:
            raise ValueError("trajectory entries must all be finite")
        object.__setattr__(self, "data", d)

    @classmethod
    def constant(cls, grid: CircleGrid, tgrid: TimeGrid, value: float) -> "Trajectory":
        return cls.from_field(Field.constant(grid, value), tgrid)

    @classmethod
    def from_field(cls, field: Field, tgrid: TimeGrid) -> "Trajectory":
        """A static field in every time row: a view of its one read-only row."""
        return cls(field.grid, tgrid, np.broadcast_to(field.values, (tgrid.n_t + 1, field.grid.n_theta)))

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


def _interaction_kernel(
    grid: CircleGrid, alpha: float, q: FloatArray, p: FloatArray, dp: FloatArray
) -> FloatArray:
    """w[q] * q * dp, multiplied into the w[q] history in place."""
    kernel = interaction_values(grid, q, alpha)
    kernel *= q
    kernel *= dp
    return kernel


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
        gradient_kernel=_interaction_kernel,
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
        """Concrete (n_t+1, n_theta) history of one control, read-only; an
        absent control's is a view of one baseline row."""
        traj = self.get(name)
        if traj is None:
            return Trajectory.constant(grid, tgrid, CONTROLS[name].baseline(params)).data
        if traj.grid != grid or traj.tgrid != tgrid:
            raise ValueError(f"control '{name}' is not on the solver grid")
        return traj.data


def _state_rate(
    grid: CircleGrid,
    alpha: float,
    u1: FloatArray | None,
    u2: FloatArray | float,
    source: FloatArray | None,
    gains: tuple[tuple[ComplexArray, float | FloatArray], ...],
    shape: tuple[int, ...],
) -> Rate:
    """Stage increments of the state's non-diffusive rate
    -d/dtheta((u2*w[q] + u1)*q) + source, on fields of the given shape (one
    sample row or a stack of rows).

    u1 and source are histories (time on the second-to-last axis, optionally
    stacked) or None when absent, which adds no term; u2 is a history, a stack
    or a scalar. The speed w[q] is one complex product of mode 1 of the
    field's coefficients with the row of interaction_coefficient_table, into
    which a scalar u2 is folded; a u2 history scales it by row k instead (a
    complex table of the whole history raised the peak memory of an
    interaction descent at 128 x 2000 by 3.6 MiB).
    rate(k, q, q^, stage, out) writes g_f*flux^ + g_s*source^ at row k into
    out, with (g_f, g_s) = gains[stage] and one forward transform of the flux
    (stacked with the source when there is one) into a buffer made here, and
    returns None.
    """
    fixed = np.ndim(u2) == 0
    table = interaction_coefficient_table(grid, alpha, u2 if fixed else 1.0)
    forward, one = transform_kernels(shape[-1])[:2]
    speed_c = np.empty(shape, dtype=np.complex128)
    speed = speed_c.real
    flux = np.empty(shape if source is None else (2,) + shape)
    flux_hat = np.empty(flux.shape[:-1] + (shape[-1] // 2 + 1,), dtype=np.complex128)
    if source is not None:
        (flux_q, flux_s), (flux_q_hat, flux_s_hat) = flux, flux_hat
    # views made once per solve: the histories time-first, so that row k is
    # [k], and mode 1 of each stage's coefficients, which the stepper keeps
    # in one buffer per stage for the whole solve (see _lawson_heun)
    u1_rows, source_rows = (None if h is None else np.moveaxis(h, -2, 0) for h in (u1, source))
    u2_rows = None if fixed else np.moveaxis(u2, -2, 0)
    mode1 = [None, None]

    def rate(k: int, q: FloatArray, q_hat: ComplexArray, stage: int, out: ComplexArray) -> None:
        c1 = mode1[stage]
        if c1 is None:
            c1 = mode1[stage] = q_hat[..., 1:2]
        multiply(c1, table, speed_c)
        if not fixed:
            multiply(speed, u2_rows[k], speed)
        if u1 is not None:
            add(speed, u1_rows[k], speed)
        flux_gain, source_gain = gains[stage]
        if source is None:
            multiply(speed, q, flux)
            forward(flux, one, flux_hat)
            multiply(flux_gain, flux_hat, out)
            return
        multiply(speed, q, flux_q)
        np.copyto(flux_s, source_rows[k])
        forward(flux, one, flux_hat)
        multiply(flux_gain, flux_q_hat, out)
        multiply(source_gain, flux_s_hat, flux_s_hat)
        add(out, flux_s_hat, out)

    return rate


def warn_if_negative(data: FloatArray, what: str) -> None:
    """ResolutionWarning when a density dips below -POSITIVITY_TOL."""
    min_q = float(data.min())
    if min_q < -POSITIVITY_TOL:
        warnings.warn(
            f"{what} density reached min {min_q:.3e}; increase resolution",
            ResolutionWarning,
            stacklevel=3,
        )


def _peak(u: FloatArray, axis: int | tuple[int, ...] = (-2, -1)) -> FloatArray:
    """max|u| over `axis` (each history of a stack, by default); no |u|
    history is made, and negation is exact, so the value is the same."""
    return np.maximum(u.max(axis=axis), -u.min(axis=axis))


def advective_speed(peaks: dict[str, FloatArray | float], params: CouplingParams) -> FloatArray | float:
    """max|u1| + max|u2|, the bound on the transport speed that the CFL limit
    divides by.

    `peaks` maps the given advecting controls to their max|u| (see _peak),
    one per history of a stack or a scalar; an absent control moves at its
    baseline's speed. The coupling velocity satisfies |w[q]| <= 1 for a
    normalized density, so max|u2| bounds the nonlocal transport speed.
    """
    return sum(peaks.get(n, abs(spec.baseline(params))) for n, spec in CONTROLS.items() if spec.advects)


def required_dt(
    grid: CircleGrid, peaks: dict[str, FloatArray | float], params: CouplingParams
) -> FloatArray | float:
    """Largest stable advective step: safety * dtheta / advective_speed."""
    return CFL_SAFETY * grid.d_theta / (advective_speed(peaks, params) + 1e-12)


def first_non_finite(data: FloatArray, rows: range) -> int | None:
    """The first of `rows`, in their order, at which some history of the
    stack `data` (rows on the second-to-last axis) holds a non-finite value,
    or None.

    A non-finite row always has a non-finite sum, so only rows whose sum
    across the stack is not finite get the exact test; a finite row whose sum
    overflows passes it. No boolean history is made.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        sums = data.sum(axis=-1)
    finite = np.isfinite(sums).reshape(-1, data.shape[-2]).all(axis=0)
    if finite.all():
        return None
    return next((k for k in rows if not (finite[k] or np.isfinite(data[..., k, :]).all())), None)


def _lawson_heun(
    prop: FloatArray,
    dt: float,
    y0: FloatArray,
    rate: Rate,
    rows: range,
    name: str,
    lift: ComplexArray | None = None,
    consume: Callable[[int, FloatArray], bool] | None = None,
    advance: Callable[[int], None] | None = None,
) -> FloatArray | None:
    """Heun on a rate composed with the exact heat propagator P, carried in rfft space.

    Starts from y0 (one sample row, or a stack of rows) at rows[0] and steps
    to each following row. With y^ the rfft coefficients of the field, a step
    from row a to row b is

        pred = P y^ + dt P r1^,    y^ <- (P y^ + pred) / 2 + (dt/2) r2^,

    with r1^ the rate at row a on the field and r2^ the rate at row b on
    pred. rate(k, x, c, stage, out) takes the stage's sample values x and its
    field's coefficients c (y^ for stage 0, pred for stage 1) and writes the
    stage's increment, dt*P*r1^ for stage 0 and (dt/2)*r2^ for stage 1, into
    out, so that the solver folds every scalar and mode factor into
    multipliers made once per solve; with `lift` it also returns the stage-1
    increment's sample values (else None).

    Without `lift`, x is the field itself and each new row is the inverse
    transform of y^. With `lift` (the adjoint's ik, so that x = dp/dtheta),
    x is the inverse transform of lift * y^, and the new row is assembled in
    sample space from the inverse transform of (P y^ + pred) / 2, stacked
    with the stage-2 input, plus the increment. Either way a step makes four
    FFT calls, each into an output made once per solve or into the row it
    fills, and a solve one more: the transform of y0, which row rows[0]
    stores exactly. Every coefficient of a step (P y^, pred, the halfway
    sum, the increment, the lifted fields) lives in a buffer made once per
    solve, and each operation writes into one, so the stepper makes no
    temporary. Returns the rows along the second-to-last axis.

    With `consume`, no row is stored and the solve returns None: every row,
    rows[0] first, goes to consume(k, y) in a buffer that the next step
    overwrites, and consume returns whether the row is finite (its answer
    for rows[0] is not read). With `advance`, advance(k) is called once per
    row k, before the first rate or consume call that reads row k.

    Finiteness is checked once, after the last step: the first non-finite
    row in integration order names the step at which the solve went bad.
    """
    n = y0.shape[-1]
    forward, one, inverse, inv_n = transform_kernels(n)
    one_half = np.array(0.5)
    data = bad = None
    if advance is not None:
        advance(rows[0])
    if consume is None:
        data = np.empty(y0.shape[:-1] + (len(rows), n))
        data[..., rows[0], :] = y0
    else:
        out = np.empty(y0.shape)
        consume(rows[0], y0)
    y = y0
    coef_shape = y0.shape[:-1] + (n // 2 + 1,)
    y_hat, pred, inc = np.empty((3,) + coef_shape, dtype=np.complex128)
    # `half` holds P y^, then in place (P y^ + pred) / 2; the adjoint stacks
    # lift * y^, then lift * pred, with it for one inverse call, and the
    # inverse's first row is its stage inputs' buffer x
    if lift is None:
        half = np.empty(coef_shape, dtype=np.complex128)
        x = np.empty(y0.shape)
    else:
        pair_hat = np.empty((2,) + coef_shape, dtype=np.complex128)
        lifted, half = pair_hat
        pair = np.empty((2,) + y0.shape)
        x, h = pair
    forward(y0, one, y_hat)
    for a, b in zip(rows[:-1], rows[1:]):
        row = out if data is None else data[..., b, :]
        multiply(prop, y_hat, half)
        rate(a, y if lift is None else inverse(multiply(lift, y_hat, lifted), inv_n, x), y_hat, 0, inc)
        if advance is not None:
            advance(b)
        add(half, inc, pred)
        add(half, pred, half)
        multiply(half, one_half, half)
        if lift is None:
            rate(b, inverse(pred, inv_n, x), pred, 1, inc)
            add(half, inc, y_hat)
            y = inverse(y_hat, inv_n, row)
        else:
            multiply(lift, pred, lifted)
            inverse(pair_hat, inv_n, pair)
            inc_x = rate(b, x, pred, 1, inc)
            add(half, inc, y_hat)
            add(h, inc_x, row)
        if consume is not None and not consume(b, row) and bad is None:
            bad = b
    if data is not None:
        bad = first_non_finite(data, rows[1:])
    if bad is not None:
        raise NumericsError(f"{name} became non-finite at step {bad} (t={bad * dt:.6g})")
    return data


def _solve_states(
    q0: Field,
    controls: dict[str, FloatArray],
    params: CouplingParams,
    tgrid: TimeGrid,
    fill: Callable[[int], None] | None = None,
    consume: Callable[[int, FloatArray], bool] | None = None,
) -> FloatArray | None:
    """States from q0 under a stack of control histories.

    `controls` maps control names to (B, n_t+1, n_theta) stacks or to one
    (n_t+1, n_theta) history shared by the stack; absent controls keep their
    baselines as scalars (no u1 or source term unless given). Returns the
    (B, n_t+1, n_theta) states, or one (n_t+1, n_theta) state when no control
    is stacked. Each history of the stack gets every check of solve_state but
    the negativity warning, which solve_state issues for its caller.

    With `fill`, the stack is made one row at a time and no state is kept:
    `controls` maps names to one (B, n_theta) buffer each, into which fill(k)
    writes row k of every history; every row is made before the first step,
    for each history's max|u| in the CFL limit, and again as the solve steps,
    as the stepper's advance. Each state row goes to consume(k, q) while the
    buffers hold row k (see _lawson_heun), and the call returns None.
    """
    grid = q0.grid
    mass0 = grid.quad(q0.values)
    if abs(mass0 - 1.0) > 1e-10:
        raise ValueError(f"q0 must integrate to 1 (got {mass0:.12g})")
    if float(q0.values.min()) < -1e-12:
        raise ValueError("q0 must be nonnegative")

    n_rows = tgrid.n_t + 1
    advecting = {n: u for n, u in controls.items() if CONTROLS[n].advects}
    if fill is None:
        peaks = {n: _peak(u) for n, u in advecting.items()}
    else:
        peaks = dict.fromkeys(advecting, 0.0)
        for k in range(n_rows):
            fill(k)
            for n, row in advecting.items():
                peaks[n] = np.maximum(peaks[n], _peak(row, -1))
        # every row of these views is the buffer, which holds the row last filled
        controls = {n: np.broadcast_to(row[..., None, :], row.shape[:-1] + (n_rows, row.shape[-1]))
                    for n, row in controls.items()}
    dt = tgrid.dt
    dt_max = float(np.min(required_dt(grid, peaks, params)))
    if dt > dt_max:
        raise CFLError(
            f"dt={dt:.6g} violates the advective CFL limit; need dt <= {dt_max:.6g} "
            f"(n_t >= {int(np.ceil(tgrid.T / dt_max))})"
        )

    u1, src = controls.get("u1"), controls.get("source")  # absent: their baseline 0, no term
    u2 = controls.get("u2", CONTROLS["u2"].baseline(params))
    prop = grid.heat_multiplier(params.D, dt)
    slope = -grid._ik_first  # the rate is -d/dtheta of the flux
    gains = ((dt * prop * slope, dt * prop), (0.5 * dt * slope, 0.5 * dt))
    batch = np.broadcast_shapes(*(c.shape[:-2] for c in controls.values()))
    y0 = np.broadcast_to(q0.values, batch + (grid.n_theta,))
    rate = _state_rate(grid, params.alpha, u1, u2, src, gains, y0.shape)
    if fill is None:
        data = _lawson_heun(prop, dt, y0, rate, range(n_rows), "state")
        drift = np.max(np.abs(grid.quad_rows(data) - mass0)) if src is None else 0.0
    else:
        drift = 0.0

        def take(k: int, q: FloatArray) -> bool:
            nonlocal drift
            if src is None:
                drift = np.maximum(drift, np.max(np.abs(grid.quad_rows(q) - mass0)))
            return consume(k, q)

        data = _lawson_heun(prop, dt, y0, rate, range(n_rows), "state", consume=take, advance=fill)
    if src is None and float(drift) > 1e-8:
        raise NumericsError(f"mass drifted by {float(drift):.3e} despite flux form")
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
    given = {
        name: controls.array(name, q0.grid, tgrid, params)
        for name in CONTROLS
        if controls.get(name) is not None
    }
    data = _solve_states(q0, given, params, tgrid)
    warn_if_negative(data, "state")
    return Trajectory(q0.grid, tgrid, read_only(data))


def _adjoint_rate(
    grid: CircleGrid,
    alpha: float,
    q: FloatArray,
    z: FloatArray,
    u1: FloatArray,
    u2: FloatArray,
    alpha_r: float,
    scale: float,
    gains: tuple[ComplexArray | None, ...],
) -> Rate:
    """Stage increments of the adjoint's backward-time rate (diffusion handled
    by the propagator), as rfft coefficients and as sample values.

    With dp = d/dtheta p:  (u2*w[q] + u1)*dp + w*[u2*dp*q] + alpha_r*(q - z).
    q, z, u1 and u2 are (n_t+1, n_theta) histories; an absent control is a
    view of its baseline row (see ControlSet.array). What does not depend on
    p is made one block of rows at a time (see row_blocks), when the backward
    sweep first reaches the block, and is released when it leaves it: the
    speed scale*(u2*w[q] + u1), the carried density u2*q and the forcing
    scale*alpha_r*(q - z); `scale` enters the w* table. rate(m, dp, c, stage,
    out) ignores the coefficients c, writes gains[stage] times the rfft of r
    (r^ alone for a None gain) into out and returns r, with r = scale times
    the rate at row m, in a buffer made here.
    """
    # w*[g] = C_c*row0 + C_s*row1 of the adjoint kernel table for moments
    # (C_c, C_s) of g, the dot products of the row g with the moment basis
    # times d_theta
    basis = grid.moment_basis
    lagged = (scale * grid.d_theta) * adjoint_kernel_table(grid, alpha)
    blocks = row_blocks(len(q))
    held = None  # (first row, speed, carried, forcing) of the block being swept
    forward, one = transform_kernels(grid.n_theta)[:2]
    g, r = np.empty((2, grid.n_theta))

    def block_terms(rows: slice) -> tuple[int, FloatArray, FloatArray, FloatArray | None]:
        qb = q[rows]
        speed = interaction_values(grid, qb, alpha)
        speed *= u2[rows]
        speed += u1[rows]
        speed *= scale
        forcing = None
        if alpha_r != 0.0:
            forcing = qb - z[rows]
            forcing *= scale * alpha_r
        return rows.start, speed, u2[rows] * qb, forcing

    def rate(m: int, dp: FloatArray, c: ComplexArray, stage: int, out: ComplexArray) -> FloatArray:
        nonlocal held
        if held is None or m < held[0]:
            held = None  # the swept block is not read again
            held = block_terms(blocks[m // ROW_BLOCK])
        start, speed, carried, forcing = held
        i = m - start
        multiply(carried[i], dp, g)
        multiply(speed[i], dp, r)
        add(r, np.vecdot(g, basis) @ lagged, r)
        if forcing is not None:
            add(r, forcing[i], r)
        forward(r, one, out)
        gain = gains[stage]
        if gain is not None:
            multiply(gain, out, out)
        return r

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
    the cost quadrature. The rate needs only dp/dtheta, which the stepper
    transforms back from the adjoint's coefficients times ik.
    """
    grid, tgrid = q_traj.grid, q_traj.tgrid
    if z_traj.grid != grid or z_traj.tgrid != tgrid:
        raise ValueError("target trajectory is not on the state grid")
    alpha_r, alpha_t = weights

    u1, u2 = (controls.array(name, grid, tgrid, params) for name in ("u1", "u2"))
    qd, zd = q_traj.data, z_traj.data
    dt = tgrid.dt
    prop = grid.heat_multiplier(params.D, dt)
    # rates carry dt/2, so stage 0's dt*P*r1^ is 2P times their transform
    rate = _adjoint_rate(grid, params.alpha, qd, zd, u1, u2, alpha_r, 0.5 * dt, (2.0 * prop, None))
    p_end = alpha_t * (qd[-1] - zd[-1])
    rows = range(tgrid.n_t, -1, -1)
    data = _lawson_heun(prop, dt, p_end, rate, rows, "adjoint", lift=grid._ik_first)
    return Trajectory(grid, tgrid, read_only(data))
