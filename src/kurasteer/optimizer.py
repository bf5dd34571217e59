"""Cost evaluation, reduced gradients, and the descent loop for the density OCP.

The reduced gradient per control, pointwise in (theta, t), is
beta * (u - baseline) + kernel, with the energy weight beta, the baseline
and the kernel of each control taken from dynamics.CONTROLS:

    velocity      beta1 * u1        + q * dp/dtheta
    interaction   beta2 * (u2 - K)  + w[q] * q * dp/dtheta
    source        beta_lin * u      + p

where p is the adjoint of the current state. Energy is measured from the
baseline, so the uncontrolled dynamics are the zero-cost control; set
penalize_absolute_u2 to penalize u2 itself.

All inner products, norms and cost integrals use the discrete L2(dtheta dt)
weighting with trapezoidal time weights, making step sizes and tolerances
resolution-independent. Every control is a space-time field u(theta, t).

The descent steps along the Sobolev gradient M^-1 g of the H1(theta) metric
M (see sobolev), not along g: the direction is smooth in theta, and the
progress per iteration does not degrade as the grid is refined.
"""

from __future__ import annotations

import logging
import random
import warnings
from dataclasses import dataclass, field

import numpy as np

from .coupling import CouplingParams, polar_order
from .dynamics import (
    CFL_SAFETY,
    CONTROLS,
    CFLError,
    ControlMode,
    ControlSet,
    ControlSpec,
    NumericsError,
    ResolutionWarning,
    TimeGrid,
    Trajectory,
    _solve_states,
    advective_speed,
    read_only,
    row_blocks,
    solve_adjoint,
    solve_state,
    warn_if_negative,
)
from .grid import TWO_PI, CircleGrid, Field, FloatArray, irfft, rfft

logger = logging.getLogger(__name__)

GRADCHECK_TOL = 1e-3
EPS_SWEEP = np.logspace(-1, -5, 9)  # gradient_check's finite-difference steps, descending
SOBOLEV_LENGTH = 1.0  # l of the descent metric M = I - l**2 d^2/dtheta^2, in radians
# Armijo backtracking, read by optimize when it is called
ARMIJO_C = 1e-4  # sufficient-decrease constant c1 (Nocedal & Wright 2006, 3.1)
INITIAL_STEP = 1.0  # the first search's first step
BACKTRACK_FACTOR = 0.5  # the largest factor on the step after a rejected trial
MIN_BACKTRACK = 0.1  # the smallest factor on the step after a rejected trial
MAX_BACKTRACKS = 40  # rejected trials before a search, and the run, stalls
# stopping rules
GRAD_TOL = 1e-8  # on the L2 norm of the gradient, not of the direction
COST_REL_TOL = 1e-12  # on the decrease of J per iteration, relative to J


@dataclass(frozen=True)
class CostWeights:
    """Nonnegative weights of the tracking and control-energy terms."""

    alpha_r: float = 1.0
    alpha_t: float = 10.0
    beta1: float = 1e-3
    beta2: float = 1e-2  # stiffer than beta1: keeps u2 from collapsing coherence
    beta_lin: float = 1e-3
    penalize_absolute_u2: bool = False

    def __post_init__(self) -> None:
        for name in ("alpha_r", "alpha_t", "beta1", "beta2", "beta_lin"):
            if not getattr(self, name) >= 0.0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")

    def validate_for_mode(self, mode: ControlMode) -> None:
        if self.alpha_r <= 0.0 and self.alpha_t <= 0.0:
            raise ValueError("alpha_r and alpha_t, the tracking weights, are both 0: one must be > 0")
        for name in mode.active_controls:
            spec = CONTROLS[name]
            if self.beta(spec) <= 0.0:
                raise ValueError(f"{spec.energy_weight}, the energy weight of active control '{name}', must be > 0")

    def beta(self, spec: ControlSpec) -> float:
        return getattr(self, spec.energy_weight)

    def penalty_offset(self, spec: ControlSpec, params: CouplingParams) -> float:
        """Value a control's energy is measured from: its baseline, or 0 with
        penalize_absolute_u2 (u2 is the only control with a nonzero baseline)."""
        return 0.0 if self.penalize_absolute_u2 else spec.baseline(params)


@dataclass(frozen=True)
class OptimizerConfig:
    """The descent's one setting: the iteration budget. The line search and
    the stopping rules are the module constants ARMIJO_C to COST_REL_TOL,
    and the metric's length is SOBOLEV_LENGTH (see optimize)."""

    max_iters: int = 100

    def __post_init__(self) -> None:
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")


@dataclass(frozen=True)
class OcpProblem:
    """Complete description of one optimal-control run."""

    grid: CircleGrid
    tgrid: TimeGrid
    params: CouplingParams
    mode: ControlMode
    weights: CostWeights
    optimizer: OptimizerConfig
    q0: Field
    target: Trajectory
    initial: ControlSet = field(default_factory=ControlSet)

    def __post_init__(self) -> None:
        self.weights.validate_for_mode(self.mode)
        if self.q0.grid != self.grid:
            raise ValueError("q0 is not on the problem grid")
        if self.target.grid != self.grid or self.target.tgrid != self.tgrid:
            raise ValueError("target trajectory is not on the problem grids")


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    J: float
    J_q: float
    J_u: float
    grad_norm: float
    step: float
    backtracks: int
    trials: int  # state solves of the line search that found this iterate


@dataclass(frozen=True)
class OptResult:
    """Outcome of optimize; sync_series(result.state) gives its R, psi and mass.

    status is "converged_grad", "converged_cost", "max_iters" or "stalled".
    state_solves is 1 + line_search_trials (the start and every trial control
    that was solved), adjoint_solves is 1 + the accepted steps. A "stalled"
    run adds one to each: the descent does not hold the state and adjoint of
    its iterate through the line search, and solves both again at the
    returned controls, which line_search_trials does not count. The
    iterates' trials add up to line_search_trials, but for the failed search
    of a stalled run, which found no iterate.
    """

    status: str
    iterates: tuple[IterationRecord, ...]
    controls: ControlSet
    state: Trajectory
    adjoint: Trajectory
    state_solves: int
    adjoint_solves: int
    line_search_trials: int

    @property
    def final(self) -> IterationRecord:
        return self.iterates[-1]


def _row_sums(shape: tuple[int, int], fill) -> FloatArray:
    """Row sums of a history that is made one block of rows at a time:
    fill(rows, out) writes rows `rows` of it into the scratch block `out` and
    returns it. Each row is summed as it would be in the whole history."""
    blocks = row_blocks(shape[0])
    sums = np.empty(shape[0])
    scratch = np.empty((blocks[0].stop, shape[1]))
    for rows in blocks:
        fill(rows, scratch[: rows.stop - rows.start]).sum(axis=1, out=sums[rows])
    return sums


def _quadrature(grid: CircleGrid, tgrid: TimeGrid, row_sums: FloatArray) -> float:
    """L2(dtheta dt) integral of a history from its row sums."""
    return float(tgrid.trapezoid_weights @ row_sums) * grid.d_theta


def space_time_inner(grid: CircleGrid, tgrid: TimeGrid, a: FloatArray, b: FloatArray) -> float:
    """L2(dtheta dt) inner product with trapezoidal time weights."""
    sums = _row_sums(a.shape, lambda rows, out: np.multiply(a[rows], b[rows], out=out))
    return _quadrature(grid, tgrid, sums)


def difference_sums(a: FloatArray, b: FloatArray | float) -> FloatArray:
    """Row sums of (a - b)**2, for a history a and a history or scalar b."""

    def fill(rows: slice, out: FloatArray) -> FloatArray:
        np.subtract(a[rows], b[rows] if np.ndim(b) else b, out=out)
        return np.multiply(out, out, out=out)

    return _row_sums(a.shape, fill)


def sobolev(grid: CircleGrid, x: FloatArray, inverse: bool, out: FloatArray | None = None) -> FloatArray:
    """M x, or M^-1 x when inverse, for M = I - l**2 d^2/dtheta^2 with
    l = SOBOLEV_LENGTH: rfft mode k of each row is multiplied, or divided, by
    1 + (l k)**2, one block of rows at a time, into out (made if None; it may
    be x)."""
    out = np.empty_like(x) if out is None else out
    factor = 1.0 + (SOBOLEV_LENGTH * grid.wavenumbers) ** 2
    for rows in row_blocks(len(x)):
        coef = rfft(x[rows])
        (np.divide if inverse else np.multiply)(coef, factor, out=coef)
        irfft(coef, grid.n_theta, out[rows])
    return out


def _advective_caps(problem: OcpProblem) -> dict[str, float]:
    """Pointwise bounds keeping optimized advective controls CFL-integrable.

    The stability budget safety*dtheta/dt bounds the summed transport speeds
    (see dynamics.advective_speed). Inactive advecting controls keep their
    baselines, whose speeds come off the budget; the rest is split evenly
    over the active advecting controls. Controls that do not advect need no
    cap.
    """
    budget = 0.995 * CFL_SAFETY * problem.grid.d_theta / problem.tgrid.dt
    shares = [n for n in problem.mode.active_controls if CONTROLS[n].advects]
    headroom = budget - advective_speed(dict.fromkeys(shares, 0.0), problem.params)
    if shares and headroom <= 0.0:
        raise CFLError(f"no CFL headroom left for control '{shares[0]}'; refine the time grid")
    return {name: headroom / len(shares) for name in shares}


def _baseline_arrays(problem: OcpProblem) -> dict[str, FloatArray]:
    """Initial histories of the active controls."""
    grid, tgrid, params = problem.grid, problem.tgrid, problem.params
    return {name: problem.initial.array(name, grid, tgrid, params) for name in problem.mode.active_controls}


def _evaluate(
    problem: OcpProblem, u: dict[str, FloatArray]
) -> tuple[ControlSet, Trajectory, tuple[float, float, float]]:
    """Controls, state and (J, J_q, J_u) at the control arrays u.

    ResolutionWarning is silenced: line-search trials are allowed to dip
    negative.
    """
    cs = ControlSet(**{name: Trajectory(problem.grid, problem.tgrid, arr) for name, arr in u.items()})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResolutionWarning)
        q = solve_state(problem.q0, cs, problem.params, problem.tgrid)
    return cs, q, cost(q, problem.target, cs, problem.weights, problem.mode, problem.params)


def _probe_costs(
    problem: OcpProblem, u0: dict[str, FloatArray], deltas: dict[str, Directions], steps: FloatArray
) -> FloatArray:
    """Cost J at every probe u0 + s*delta, for each direction of `deltas`
    (name -> the D directions of that control) and each s of `steps`, as a
    (D, S) array, from one state solve that issues no ResolutionWarning
    (probes may dip negative, as in _evaluate).

    No probe or direction history is made: row k of every direction is made
    from its draws into one (D, 1, n_theta) buffer, and row k of every
    probe's controls from it into one (D, S, n_theta) buffer per control;
    each state row is reduced to the probes' row sums as the solve makes it.
    These are the row sums that cost() takes, and _cost_terms turns them
    into J, so each J is bit-equal to cost()'s.
    """
    grid, tgrid, weights, params = problem.grid, problem.tgrid, problem.weights, problem.params
    n_dirs = len(next(iter(deltas.values())).mean)
    shape = (n_dirs, len(steps), grid.n_theta)
    scaled = steps[:, None]
    rows = {n: np.empty(shape) for n in u0}
    delta_row = np.empty((n_dirs, 1, grid.n_theta))

    def fill(k: int) -> None:
        for n, row in rows.items():
            deltas[n].rows(slice(None), slice(k, k + 1), delta_row)
            np.multiply(scaled, delta_row, out=row)
            row += u0[n][k]

    sums = np.empty((1 + len(rows), n_dirs, len(steps), tgrid.n_t + 1))  # mismatch, then each control
    offsets = [weights.penalty_offset(CONTROLS[n], params) for n in rows]
    z = problem.target.data
    scratch = np.empty(shape)

    def consume(k: int, q: FloatArray) -> bool:
        for i, (a, b) in enumerate([(q, z[k]), *zip(rows.values(), offsets)]):
            np.subtract(a, b, out=scratch)
            np.multiply(scratch, scratch, out=scratch)
            sums[i, ..., k] = scratch.sum(axis=-1)
        return bool(np.isfinite(sums[0, ..., k]).all() or np.isfinite(q).all())

    _solve_states(problem.q0, rows, params, tgrid, fill=fill, consume=consume)
    costs = np.empty(shape[:2])
    for d, s in np.ndindex(costs.shape):
        mismatch, *deviations = sums[:, d, s]
        costs[d, s] = _cost_terms(grid, tgrid, weights, mismatch, dict(zip(rows, deviations)))[0]
    return costs


def _cost_terms(
    grid: CircleGrid, tgrid: TimeGrid, weights: CostWeights,
    mismatch: FloatArray, deviations: dict[str, FloatArray],
) -> tuple[float, float, float]:
    """(J, J_q, J_u) from the row sums of the squared tracking mismatch
    (q - z)**2 and of each active control's squared deviation from
    CostWeights.penalty_offset."""
    j_q = 0.5 * weights.alpha_r * _quadrature(grid, tgrid, mismatch)
    j_q += 0.5 * weights.alpha_t * float(mismatch[-1]) * grid.d_theta
    j_u = 0.0
    for name, deviation in deviations.items():
        j_u += 0.5 * weights.beta(CONTROLS[name]) * _quadrature(grid, tgrid, deviation)
    return j_q + j_u, j_q, j_u


def cost(
    q_traj: Trajectory,
    z_traj: Trajectory,
    controls: ControlSet,
    weights: CostWeights,
    mode: ControlMode,
    params: CouplingParams,
) -> tuple[float, float, float]:
    """Total cost J = J_q + J_u with trapezoidal time quadrature.

    Returns (J, J_q, J_u). Only the active controls of the mode contribute
    control energy, measured from CostWeights.penalty_offset.
    """
    grid, tgrid = q_traj.grid, q_traj.tgrid
    if z_traj.data.shape != q_traj.data.shape:
        raise ValueError("state and target trajectories have mismatched shapes")
    deviations = {
        name: difference_sums(
            controls.array(name, grid, tgrid, params), weights.penalty_offset(CONTROLS[name], params)
        )
        for name in mode.active_controls
    }
    return _cost_terms(grid, tgrid, weights, difference_sums(q_traj.data, z_traj.data), deviations)


def reduced_gradient(
    q_traj: Trajectory,
    p_traj: Trajectory,
    controls: ControlSet,
    weights: CostWeights,
    mode: ControlMode,
    params: CouplingParams,
) -> dict[str, FloatArray]:
    """Space-time gradient arrays for every active control of the mode.

    dp/dtheta and the gradient kernels are made one block of rows at a time
    and added into the gradients as they are made."""
    grid, tgrid = q_traj.grid, q_traj.tgrid
    q, p = q_traj.data, p_traj.data
    grads: dict[str, FloatArray] = {}
    for name in mode.active_controls:
        spec = CONTROLS[name]
        grad = np.subtract(controls.array(name, grid, tgrid, params), weights.penalty_offset(spec, params))
        grad *= weights.beta(spec)
        grads[name] = grad
    for rows in row_blocks(len(q)):
        dp = grid.deriv(p[rows])
        for name, grad in grads.items():
            grad[rows] += CONTROLS[name].gradient_kernel(grid, params.alpha, q[rows], p[rows], dp)
        del dp  # before the next block's is made
    return grads


def _grad_norm(grid: CircleGrid, tgrid: TimeGrid, g: dict[str, FloatArray]) -> float:
    return float(np.sqrt(sum(space_time_inner(grid, tgrid, a, a) for a in g.values())))


def sync_series(traj: Trajectory) -> tuple[FloatArray, FloatArray, FloatArray, FloatArray]:
    """(t, R, psi, mass) along a state trajectory, from the first circular moment."""
    return (traj.tgrid.times, *polar_order(traj.grid, traj.data), traj.mass())


def optimize(problem: OcpProblem) -> OptResult:
    """Armijo-backtracking descent on the reduced cost along e = M^-1 g.

    Line-search candidates are clipped pointwise to the CFL-feasible box of
    the advective controls before evaluation, so a control saturating the
    stability limit in one region cannot freeze progress everywhere else;
    with no clipping the acceptance test is the literal Armijo rule
    J(u - s*e) <= J(u) - c*s*<g, e>. After a rejected trial at step s
    the next step is s times the minimizer of the quadratic through J(u),
    the predicted slope and the trial's cost, as a fraction of s, kept within
    [MIN_BACKTRACK, BACKTRACK_FACTOR]; a trial that fails to integrate, or a
    candidate with no predicted decrease, cuts the step by BACKTRACK_FACTOR.
    Each iteration runs one search, from INITIAL_STEP at the first and then
    from the last accepted step, doubled when it was accepted at its first
    trial. A search whose MAX_BACKTRACKS rejections are used up stops the
    run with status "stalled", keeping the best iterate found. The module
    constants are read at the call.

    The line search reads neither the state nor the adjoint of its start,
    nor g, and the descent does not hold them through it: a stalled run
    solves both again at the control it returns (see OptResult).
    """
    grid, tgrid, params = problem.grid, problem.tgrid, problem.params
    mode, weights = problem.mode, problem.weights
    tracking = (weights.alpha_r, weights.alpha_t)
    caps = _advective_caps(problem)
    trials = 0

    def trial(u, e, s, j_cur):
        """(hit, factor) of the candidate P(u - s*e): hit is its (u_try,
        controls, state, costs) if it passes the Armijo test, else None, and
        factor the next step's multiplier after a rejection. The candidate is
        built in place as one fresh read-only array per control; nothing of a
        rejected trial outlives the call."""
        nonlocal trials
        u_try, pred = {}, 0.0
        for n in u:
            arr = np.multiply(-s, e[n])
            arr += u[n]
            if n in caps:
                np.clip(arr, -caps[n], caps[n], out=arr)
            u_try[n] = read_only(arr)

            def fill(rows, out):
                sobolev(grid, e[n][rows], False, out)  # g = M e, remade block by block
                return np.multiply(out, np.subtract(u[n][rows], arr[rows]), out=out)

            # predicted decrease <g, u - P(u - s e)>; equals s*<g, e> unclipped
            pred += _quadrature(grid, tgrid, _row_sums(arr.shape, fill))
        if not pred > 0.0:
            return None, BACKTRACK_FACTOR
        trials += 1
        try:
            cs_try, q_try, costs = _evaluate(problem, u_try)
        except (CFLError, NumericsError):
            return None, BACKTRACK_FACTOR
        if costs[0] <= j_cur - ARMIJO_C * pred:
            return (u_try, cs_try, q_try, costs), None
        # safeguarded quadratic backtracking (Dennis & Schnabel 1983, 6.3.2):
        # the fraction of s at which the quadratic through j_cur, with slope
        # -pred/s, and through costs[0] at s is least; below 1/(2(1 - c))
        # here, since the trial was rejected
        ratio = pred / (2.0 * (costs[0] - j_cur + pred))
        return None, max(MIN_BACKTRACK, min(BACKTRACK_FACTOR, ratio))

    u = _baseline_arrays(problem)
    cs, q_traj, (j, j_q, j_u) = _evaluate(problem, u)
    p_traj = solve_adjoint(q_traj, problem.target, cs, params, tracking)
    state_solves = adjoint_solves = 1

    records: list[IterationRecord] = []
    status = "max_iters"
    step_used, bt_used, trials_used = 0.0, 0, 0
    s = INITIAL_STEP  # the next search's first step

    for it in range(problem.optimizer.max_iters + 1):
        g = reduced_gradient(q_traj, p_traj, cs, weights, mode, params)
        gn = _grad_norm(grid, tgrid, g)
        records.append(IterationRecord(it, j, j_q, j_u, gn, step_used, bt_used, trials_used))
        logger.info("iter %3d  J=%.9e  |grad|=%.3e  step=%.2e  bt=%d", it, j, gn, step_used, bt_used)

        if gn <= GRAD_TOL:
            status = "converged_grad"
            break
        if len(records) >= 2:
            decrease = records[-2].J - records[-1].J
            if decrease <= COST_REL_TOL * max(abs(records[-2].J), 1e-300):
                status = "converged_cost"
                break
        if it == problem.optimizer.max_iters:
            break

        # the line search reads neither the state nor the adjoint, nor g,
        # which the direction overwrites once its L2 norm is recorded
        del q_traj, p_traj
        e = {n: sobolev(grid, a, True, out=a) for n, a in g.items()}
        del g

        trials_before = trials
        for bt in range(MAX_BACKTRACKS + 1):
            hit, factor = trial(u, e, s, j)
            if hit is not None:
                break
            s *= factor
        else:
            status = "stalled"
            del e
            cs, q_traj, _ = _evaluate(problem, u)
            p_traj = solve_adjoint(q_traj, problem.target, cs, params, tracking)
            state_solves += 1
            adjoint_solves += 1
            break
        u, cs, q_traj, (j, j_q, j_u) = hit
        # the old direction is not read again
        del hit, e
        p_traj = solve_adjoint(q_traj, problem.target, cs, params, tracking)
        adjoint_solves += 1
        step_used, bt_used, trials_used = s, bt, trials - trials_before
        if bt == 0:
            s *= 2.0

    warn_if_negative(q_traj.data, "optimized state")
    return OptResult(
        status=status,
        iterates=tuple(records),
        controls=cs,
        state=q_traj,
        adjoint=p_traj,
        state_solves=state_solves + trials,
        adjoint_solves=adjoint_solves,
        line_search_trials=trials,
    )


# -- finite-difference gradient verification ---------------------------------


@dataclass(frozen=True)
class DirectionCheck:
    adjoint_value: float
    rel_errors: tuple[float, ...]  # one per step of EPS_SWEEP
    min_rel_error: float
    eps_at_min: float

    @property
    def floor_rel_error(self) -> float:
        """Relative error at the smallest eps: the adjoint's own mismatch
        with the derivative of the discrete cost."""
        return self.rel_errors[-1]

    @property
    def passed(self) -> bool:
        return self.floor_rel_error <= GRADCHECK_TOL


@dataclass(frozen=True)
class GradientCheckReport:
    mode: ControlMode
    directions: tuple[DirectionCheck, ...]

    @property
    def passed(self) -> bool:
        return all(d.passed for d in self.directions)


@dataclass(frozen=True, eq=False)
class Directions:
    """Gradient-check directions of one control, each kept as its draws (see
    _smooth_direction): row i of direction d is
    mean[d] + sum over m of amp[d, m] * (time[d, m, i] * angle[d, m])."""

    mean: FloatArray  # (D,)
    amp: FloatArray  # (D, 3)
    time: FloatArray  # (D, 3, n_t+1)
    angle: FloatArray  # (D, 3, n_theta)

    @classmethod
    def empty(cls, n: int, grid: CircleGrid, tgrid: TimeGrid) -> Directions:
        return cls(np.empty(n), np.empty((n, 3)), np.empty((n, 3, tgrid.n_t + 1)), np.empty((n, 3, grid.n_theta)))

    def rows(self, d: slice, k: slice, out: FloatArray) -> FloatArray:
        """Rows k of the directions d, into out of shape (D', R, n_theta): the
        mean, then each mode added in the order it was drawn, the arithmetic
        of np.full(mean) += amp * np.outer(time, angle)."""
        out[...] = self.mean[d, None, None]
        term = np.empty_like(out)
        for m in range(self.amp.shape[1]):
            np.multiply(self.time[d, m, k, None], self.angle[d, m, None, :], out=term)
            term *= self.amp[d, m, None, None]
            out += term
        return out


def _smooth_direction(rng: random.Random, grid: CircleGrid, tgrid: TimeGrid, dirs: Directions, d: int) -> None:
    """Draw direction d of dirs, a random band-limited direction that is
    resolution-independent: a constant drawn from N(0, 1), so that a uniform
    gradient error shows in every direction, plus three separable modes
    cos(pi j t / T + a) cos(k theta + b) with k < 7, j < 4, N(0, 1)
    amplitudes and uniform phases a, b. The draws and the modes' time and
    angle factors are kept, not the history."""
    th, t = grid.theta, tgrid.times
    dirs.mean[d] = rng.gauss(0.0, 1.0)
    for m in range(3):
        k = rng.randrange(7)
        j = rng.randrange(4)
        dirs.amp[d, m] = rng.gauss(0.0, 1.0)
        dirs.time[d, m] = np.cos(np.pi * j * t / tgrid.T + rng.uniform(0.0, TWO_PI))
        dirs.angle[d, m] = np.cos(k * th + rng.uniform(0.0, TWO_PI))


def gradient_check(problem: OcpProblem, n_directions: int = 5, seed: int = 0) -> GradientCheckReport:
    """Compare adjoint directional derivatives with central finite differences.

    For each random band-limited direction, the adjoint value <grad J, delta>
    is checked against (J(u + eps*delta) - J(u - eps*delta)) / (2 eps) for
    each eps of EPS_SWEEP. random.Random(seed) draws the directions, each a
    random constant plus three separable modes, kept as its draws; its rows
    are made only where they are read, a block of rows at a time by the
    redraw test and a row of every direction at a time by the probe solve
    (see _smooth_direction and Directions).
    Every direction is drawn first; then all the probes u +- eps*delta,
    every direction and both signs, are solved and scored in one batch that
    keeps no probe history (see _probe_costs). A CFL violation in any probe
    stops the check before any probe is solved.
    A direction passes when the relative error at the smallest eps is at
    most GRADCHECK_TOL: there the truncation error is negligible, so what
    remains is the O(dt) mismatch between the adjoint gradient and the
    derivative of the discrete cost, which a wrong gradient raises.
    Directions nearly orthogonal to the gradient are redrawn so the relative
    error keeps a meaningful denominator. n_directions must be at least 1:
    a check over no direction would pass without testing anything.
    """
    if n_directions < 1:
        raise ValueError(f"gradient_check needs n_directions >= 1, got {n_directions}")

    grid, tgrid, params = problem.grid, problem.tgrid, problem.params
    mode, weights = problem.mode, problem.weights
    rng = random.Random(seed)  # numpy.random would add about 6 MiB of RSS

    u0 = _baseline_arrays(problem)
    cs0, q0_traj, (j0, _, _) = _evaluate(problem, u0)
    p_traj = solve_adjoint(q0_traj, problem.target, cs0, params, (weights.alpha_r, weights.alpha_t))
    g = reduced_gradient(q0_traj, p_traj, cs0, weights, mode, params)
    del cs0, q0_traj, p_traj  # the probes need only u0 and the directions
    gn = _grad_norm(grid, tgrid, g)
    deltas = {n: Directions.empty(n_directions, grid, tgrid) for n in u0}

    def inner(n: str, d: int, a: FloatArray | None) -> float:
        """<a, delta> for direction d of control n, or <delta, delta> when a is None."""

        def fill(rows: slice, out: FloatArray) -> FloatArray:
            delta = deltas[n].rows(slice(d, d + 1), rows, out[None])[0]
            return np.multiply(delta if a is None else a[rows], delta, out=out)

        return _quadrature(grid, tgrid, _row_sums((tgrid.n_t + 1, grid.n_theta), fill))

    def draw_direction(d: int) -> float:
        for _ in range(20):
            for n in u0:
                _smooth_direction(rng, grid, tgrid, deltas[n], d)
            g_adj = sum(inner(n, d, g[n]) for n in u0)
            if gn == 0.0:
                return g_adj
            dn = float(np.sqrt(sum(inner(n, d, None) for n in u0)))
            if abs(g_adj) >= 0.05 * gn * dn:
                return g_adj
        return g_adj

    zero_floor = 1e-9 * (1.0 + abs(j0))

    adjoint_values = [draw_direction(d) for d in range(n_directions)]
    del g  # the probe solve holds no gradient
    costs = _probe_costs(problem, u0, deltas, np.concatenate((EPS_SWEEP, -EPS_SWEEP)))

    checks = []
    for g_adj, j_plus, j_minus in zip(adjoint_values, *np.split(costs, 2, axis=1)):
        fd_arr = (j_plus - j_minus) / (2.0 * EPS_SWEEP)
        if max(abs(g_adj), float(np.max(np.abs(fd_arr)))) <= zero_floor:
            # stationary direction: adjoint and FD agree on a zero derivative
            rel_arr, imin = np.zeros(len(EPS_SWEEP)), len(EPS_SWEEP) - 1
        else:
            rel_arr = np.abs(fd_arr - g_adj) / max(abs(g_adj), 1e-300)
            imin = int(np.argmin(rel_arr))
        checks.append(
            DirectionCheck(
                adjoint_value=g_adj,
                rel_errors=tuple(float(r) for r in rel_arr),
                min_rel_error=float(rel_arr[imin]),
                eps_at_min=float(EPS_SWEEP[imin]),
            )
        )
    return GradientCheckReport(mode=mode, directions=tuple(checks))
