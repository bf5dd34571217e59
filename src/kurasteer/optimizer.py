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
resolution-independent. Restricted control dependences (space-only,
time-only, constant) are handled by orthogonal projection of the space-time
gradient, i.e. averaging over the suppressed coordinate, which is the exact
gradient of the restricted problem.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass, field

import numpy as np

from .coupling import CouplingParams, moments_values
from .dynamics import (
    CFL_SAFETY,
    CONTROLS,
    CFLError,
    ControlMode,
    ControlSet,
    ControlShape,
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
from .grid import TWO_PI, CircleGrid, Field, FloatArray

logger = logging.getLogger(__name__)

GRADCHECK_TOL = 1e-3


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
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")

    def validate_for_mode(self, mode: ControlMode) -> None:
        if self.alpha_r <= 0.0 and self.alpha_t <= 0.0:
            raise ValueError("at least one of alpha_r, alpha_t must be > 0")
        for name in mode.active_controls:
            if self.beta(CONTROLS[name]) <= 0.0:
                raise ValueError(f"energy weight of active control '{name}' must be > 0")

    def beta(self, spec: ControlSpec) -> float:
        return getattr(self, spec.energy_weight)

    def penalty_offset(self, spec: ControlSpec, params: CouplingParams) -> float:
        """Value a control's energy is measured from: its baseline, or 0 with
        penalize_absolute_u2 (u2 is the only control with a nonzero baseline)."""
        return 0.0 if self.penalize_absolute_u2 else spec.baseline(params)


@dataclass(frozen=True)
class OptimizerConfig:
    """Armijo backtracking steepest-descent settings.

    The line search warm-starts from (a multiple of) the last accepted step;
    initial_step seeds the first iteration. method="ncg" switches to
    Polak-Ribiere conjugate directions with automatic restart (never the
    default; plain gradient descent is the reference configuration).
    """

    max_iters: int = 100
    armijo_c: float = 1e-4
    backtrack_factor: float = 0.5
    initial_step: float = 1.0
    grad_tol: float = 1e-8
    cost_rel_tol: float = 1e-12
    max_backtracks: int = 40
    method: str = "gd"

    def __post_init__(self) -> None:
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")
        if not 0.0 < self.armijo_c < 1.0:
            raise ValueError("armijo_c must lie in (0, 1)")
        if not 0.0 < self.backtrack_factor < 1.0:
            raise ValueError("backtrack_factor must lie in (0, 1)")
        for name in ("initial_step", "grad_tol", "cost_rel_tol"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be > 0")
        if self.max_backtracks < 1:
            raise ValueError("max_backtracks must be >= 1")
        if self.method not in ("gd", "ncg"):
            raise ValueError(f"unknown method {self.method!r}")


@dataclass(frozen=True)
class OcpProblem:
    """Complete description of one optimal-control run."""

    grid: CircleGrid
    tgrid: TimeGrid
    params: CouplingParams
    mode: ControlMode
    shape: ControlShape
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


@dataclass(frozen=True)
class OptResult:
    """Outcome of optimize; sync_series(result.state) gives its R, psi and mass.

    state_solves is 1 + line_search_trials (the start and every trial control
    that was solved), adjoint_solves is 1 + the accepted steps. A "stalled"
    run adds one to each: the descent does not hold the state and adjoint of
    its iterate through the line search, and solves both again at the
    returned controls, which line_search_trials does not count. `uncontrolled`
    is the state under the baseline controls when the descent started there
    (its first iterate), else None.
    """

    status: str
    iterates: tuple[IterationRecord, ...]
    controls: ControlSet
    state: Trajectory
    adjoint: Trajectory
    state_solves: int
    adjoint_solves: int
    line_search_trials: int
    uncontrolled: Trajectory | None = None

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


def difference_sums(a: FloatArray, b: FloatArray | float, c: FloatArray | None = None) -> FloatArray:
    """Row sums of c*(a - b), or of (a - b)**2 when c is None, for histories
    a and c and a history or scalar b."""

    def fill(rows: slice, out: FloatArray) -> FloatArray:
        np.subtract(a[rows], b[rows] if np.ndim(b) else b, out=out)
        return np.multiply(out if c is None else c[rows], out, out=out)

    return _row_sums(a.shape, fill)


def shape_project(arr: FloatArray, shape: ControlShape, tgrid: TimeGrid) -> FloatArray:
    """Orthogonal L2(dtheta dt) projection onto the control-shape subspace."""
    if shape is ControlShape.SPACE_TIME:
        return arr
    wt = tgrid.trapezoid_weights
    if shape is ControlShape.SPACE_ONLY:
        # a broadcast history would take matmul's non-BLAS loop, which rounds differently
        avg = wt @ np.ascontiguousarray(arr) / wt.sum()
        return np.broadcast_to(avg, arr.shape).copy()
    if shape is ControlShape.TIME_ONLY:
        avg = arr.mean(axis=1)
        return np.broadcast_to(avg[:, None], arr.shape).copy()
    c = float(wt @ arr.mean(axis=1)) / wt.sum()
    return np.full(arr.shape, c)


def _control_set(active: dict[str, FloatArray], grid: CircleGrid, tgrid: TimeGrid) -> ControlSet:
    return ControlSet(
        **{name: Trajectory(grid, tgrid, arr) for name, arr in active.items()}
    )


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
    caps = {name: headroom / len(shares) for name in shares}
    for name, cap in caps.items():
        if cap <= 0.0:
            raise CFLError(
                f"no CFL headroom left for control '{name}'; refine the time grid"
            )
    return caps


def _baseline_arrays(problem: OcpProblem) -> dict[str, FloatArray]:
    """Initial histories of the active controls, projected onto the shape."""
    grid, tgrid = problem.grid, problem.tgrid
    return {
        name: shape_project(problem.initial.array(name, grid, tgrid, problem.params), problem.shape, tgrid)
        for name in problem.mode.active_controls
    }


def _evaluate(
    problem: OcpProblem, u: dict[str, FloatArray]
) -> tuple[ControlSet, Trajectory, tuple[float, float, float]]:
    """Controls, state and (J, J_q, J_u) at the control arrays u.

    ResolutionWarning is silenced: line-search trials and coarse
    finite-difference probes are allowed to dip negative.
    """
    cs = _control_set(u, problem.grid, problem.tgrid)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResolutionWarning)
        q = solve_state(problem.q0, cs, problem.params, problem.tgrid)
    return cs, q, cost(q, problem.target, cs, problem.weights, problem.mode, problem.params)


def _probe_costs(
    problem: OcpProblem, u0: dict[str, FloatArray], deltas: dict[str, FloatArray], steps: FloatArray
) -> FloatArray:
    """Cost J at every probe u0 + s*delta, for each direction of the stacks
    `deltas` (name -> (D, n_t+1, n_theta)) and each s of `steps`, as a
    (D, S) array, from one state solve that issues no ResolutionWarning
    (probes may dip negative, as in _evaluate).

    No probe history is made: row k of every probe's controls is made into
    one (D, S, n_theta) buffer per control, and each state row is reduced to
    the probes' row sums as the solve makes it. These are the row sums that
    cost() takes, and _cost_terms turns them into J, so each J is bit-equal
    to cost()'s.
    """
    grid, tgrid, weights, params = problem.grid, problem.tgrid, problem.weights, problem.params
    n_dirs = len(next(iter(deltas.values())))
    shape = (n_dirs, len(steps), grid.n_theta)
    scaled = steps[:, None]
    rows = {n: np.empty(shape) for n in u0}

    def fill(k: int) -> None:
        for n, row in rows.items():
            np.multiply(scaled, deltas[n][:, None, k, :], out=row)
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
    shape: ControlShape = ControlShape.SPACE_TIME,
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
    return {name: shape_project(grad, shape, tgrid) for name, grad in grads.items()}


def _grad_norm(grid: CircleGrid, tgrid: TimeGrid, g: dict[str, FloatArray]) -> float:
    return float(np.sqrt(sum(space_time_inner(grid, tgrid, a, a) for a in g.values())))


def _polak_ribiere(
    grid: CircleGrid,
    tgrid: TimeGrid,
    g: dict[str, FloatArray],
    prev: tuple[dict[str, FloatArray], dict[str, FloatArray]],
) -> dict[str, FloatArray]:
    """Negated Polak-Ribiere direction -d from the last step's (gradient, -d)
    when d is a descent direction, else the gradient g itself (d = -g).
    Negation is exact, so -d holds the same values as d but for sign."""
    g_prev, e_prev = prev
    denom = sum(space_time_inner(grid, tgrid, g_prev[n], g_prev[n]) for n in g)
    numer = sum(_quadrature(grid, tgrid, difference_sums(g[n], g_prev[n], g[n])) for n in g)
    beta = max(0.0, numer / denom)
    e_try = {}
    for n in g:
        e_try[n] = np.multiply(beta, e_prev[n])
        e_try[n] += g[n]
    return e_try if sum(space_time_inner(grid, tgrid, e_try[n], g[n]) for n in g) > 0.0 else g


def sync_series(traj: Trajectory) -> tuple[FloatArray, FloatArray, FloatArray, FloatArray]:
    """(t, R, psi, mass) along a state trajectory, from the first circular moment."""
    c_c, c_s = moments_values(traj.grid, traj.data)
    return (
        traj.tgrid.times,
        np.hypot(c_c, c_s),
        np.mod(np.arctan2(c_s, c_c), TWO_PI),
        traj.mass(),
    )


def optimize(problem: OcpProblem) -> OptResult:
    """Armijo-backtracking descent on the reduced cost.

    Line-search candidates are clipped pointwise to the CFL-feasible box of
    the advective controls before evaluation, so a control saturating the
    stability limit in one region cannot freeze progress everywhere else;
    with no clipping the acceptance test is the literal Armijo rule
    J(u - s*grad) <= J(u) - c*s*|grad|^2. Candidates that still fail to
    integrate count as failed trials and trigger further backtracking. If a
    line search exhausts its backtracks from the current starting step, it
    retries once from 1/100 of that step before the run stops with status
    "stalled", keeping the best iterate found.

    The line search reads neither the state nor the adjoint of its start,
    and the descent does not hold them through it: a stalled run solves both
    again at the control it returns (see OptResult).
    """
    grid, tgrid, params = problem.grid, problem.tgrid, problem.params
    mode, weights, cfg = problem.mode, problem.weights, problem.optimizer
    tracking = (weights.alpha_r, weights.alpha_t)
    caps = _advective_caps(problem)
    trials = 0

    def trial(u, g, e, s, j_cur):
        """(u_try, controls, state, costs) of the candidate P(u - s*e) if it
        passes the Armijo test, else None; e is the negated search direction
        (the gradient, for GD). The candidate is built in place as one fresh
        read-only array per control; nothing of a rejected trial outlives the
        call."""
        nonlocal trials
        u_try, pred = {}, 0.0
        for n in u:
            arr = np.multiply(-s, e[n])
            arr += u[n]
            if n in caps:
                np.clip(arr, -caps[n], caps[n], out=arr)
            u_try[n] = read_only(arr)
            # predicted decrease <g, u - P(u - s e)>; equals s*<g, e> unclipped
            pred += _quadrature(grid, tgrid, difference_sums(u[n], arr, g[n]))
        if not pred > 0.0:
            return None
        trials += 1
        try:
            cs_try, q_try, costs = _evaluate(problem, u_try)
        except (CFLError, NumericsError):
            return None
        return (u_try, cs_try, q_try, costs) if costs[0] <= j_cur - cfg.armijo_c * pred else None

    def armijo(u, g, e, j_cur, s_start):
        s = s_start
        for bt in range(cfg.max_backtracks + 1):
            hit = trial(u, g, e, s, j_cur)
            if hit is not None:
                return s, bt, *hit
            s *= cfg.backtrack_factor
        return None

    u = _baseline_arrays(problem)
    cs, q_traj, (j, j_q, j_u) = _evaluate(problem, u)
    at_baseline = all(np.all(arr == CONTROLS[n].baseline(params)) for n, arr in u.items())
    uncontrolled = q_traj if at_baseline else None
    p_traj = solve_adjoint(q_traj, problem.target, cs, params, tracking)
    state_solves = adjoint_solves = 1

    records: list[IterationRecord] = []
    status = "max_iters"
    step_used, bt_used = 0.0, 0
    s_start = cfg.initial_step
    prev = None  # (gradient, negated direction) of the last step, which only NCG reads

    for it in range(cfg.max_iters + 1):
        g = reduced_gradient(q_traj, p_traj, cs, weights, mode, params, problem.shape)
        gn = _grad_norm(grid, tgrid, g)
        records.append(IterationRecord(it, j, j_q, j_u, gn, step_used, bt_used))
        logger.info("iter %3d  J=%.9e  |grad|=%.3e  step=%.2e  bt=%d", it, j, gn, step_used, bt_used)

        if gn <= cfg.grad_tol:
            status = "converged_grad"
            break
        if len(records) >= 2:
            decrease = records[-2].J - records[-1].J
            if decrease <= cfg.cost_rel_tol * max(abs(records[-2].J), 1e-300):
                status = "converged_cost"
                break
        if it == cfg.max_iters:
            status = "max_iters"
            break

        # the line search reads neither the state nor the adjoint
        del q_traj, p_traj
        e = g
        if prev is not None:
            e = _polak_ribiere(grid, tgrid, g, prev)
            prev = None

        hit = armijo(u, g, e, j, s_start)
        if hit is None:
            hit = armijo(u, g, e, j, s_start / 100.0)
        if hit is None:
            status = "stalled"
            del g, e
            cs, q_traj, _ = _evaluate(problem, u)
            p_traj = solve_adjoint(q_traj, problem.target, cs, params, tracking)
            state_solves += 1
            adjoint_solves += 1
            break
        s_acc, bt, u, cs, q_traj, (j, j_q, j_u) = hit
        if cfg.method == "ncg":
            prev = g, e
        # the old gradient and direction are not read again
        del hit, g, e
        p_traj = solve_adjoint(q_traj, problem.target, cs, params, tracking)
        adjoint_solves += 1
        step_used, bt_used = s_acc, bt
        s_start = 2.0 * s_acc if bt == 0 else s_acc

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
        uncontrolled=uncontrolled,
    )


# -- finite-difference gradient verification ---------------------------------


@dataclass(frozen=True)
class DirectionCheck:
    adjoint_value: float
    eps: tuple[float, ...]
    rel_errors: tuple[float, ...]
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
    passed: bool


def _smooth_direction(
    rng: np.random.Generator, grid: CircleGrid, tgrid: TimeGrid, n_modes: int = 3
) -> FloatArray:
    """Random separable band-limited direction, resolution-independent."""
    th, t = grid.theta, tgrid.times
    out = np.zeros((tgrid.n_t + 1, grid.n_theta))
    for _ in range(n_modes):
        k = rng.integers(0, 7)
        j = rng.integers(0, 4)
        amp = rng.standard_normal()
        out += amp * np.outer(
            np.cos(np.pi * j * t / tgrid.T + rng.uniform(0.0, TWO_PI)),
            np.cos(k * th + rng.uniform(0.0, TWO_PI)),
        )
    return out


def gradient_check(
    problem: OcpProblem,
    n_directions: int = 5,
    eps_sweep: FloatArray | None = None,
    seed: int = 0,
) -> GradientCheckReport:
    """Compare adjoint directional derivatives with central finite differences.

    For each random band-limited direction, the adjoint value <grad J, delta>
    is checked against (J(u + eps*delta) - J(u - eps*delta)) / (2 eps) over a
    sweep of decreasing eps. Every direction is drawn first; then all the
    probes u +- eps*delta, every direction and both signs, are solved and
    scored in one batch that keeps no probe history (see _probe_costs). A
    CFL violation in any probe stops the check before any probe is solved.
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
    if eps_sweep is None:
        eps_sweep = np.logspace(-1, -5, 9)
    eps_sweep = np.sort(np.asarray(eps_sweep, dtype=np.float64))[::-1]

    grid, tgrid, params = problem.grid, problem.tgrid, problem.params
    mode, weights = problem.mode, problem.weights
    rng = np.random.default_rng(seed)

    u0 = _baseline_arrays(problem)
    cs0, q0_traj, (j0, _, _) = _evaluate(problem, u0)
    p_traj = solve_adjoint(q0_traj, problem.target, cs0, params, (weights.alpha_r, weights.alpha_t))
    g = reduced_gradient(q0_traj, p_traj, cs0, weights, mode, params, problem.shape)
    del cs0, q0_traj, p_traj  # the probes need only u0 and the directions
    gn = _grad_norm(grid, tgrid, g)

    def draw_direction() -> tuple[dict[str, FloatArray], float]:
        for _ in range(20):
            delta = {
                n: shape_project(_smooth_direction(rng, grid, tgrid), problem.shape, tgrid)
                for n in u0
            }
            g_adj = sum(space_time_inner(grid, tgrid, g[n], delta[n]) for n in u0)
            if gn == 0.0:
                return delta, g_adj
            dn = _grad_norm(grid, tgrid, delta)
            if abs(g_adj) >= 0.05 * gn * dn:
                return delta, g_adj
        return delta, g_adj

    zero_floor = 1e-9 * (1.0 + abs(j0))

    drawn = [draw_direction() for _ in range(n_directions)]
    deltas = {n: np.stack([delta[n] for delta, _ in drawn]) for n in u0}
    adjoint_values = [g_adj for _, g_adj in drawn]
    del drawn, g  # the probe solve holds the directions once, and no gradient
    costs = _probe_costs(problem, u0, deltas, np.concatenate((eps_sweep, -eps_sweep)))

    checks = []
    for g_adj, j_plus, j_minus in zip(adjoint_values, *np.split(costs, 2, axis=1)):
        fd_arr = (j_plus - j_minus) / (2.0 * eps_sweep)
        if max(abs(g_adj), float(np.max(np.abs(fd_arr)))) <= zero_floor:
            # stationary direction: adjoint and FD agree on a zero derivative
            rel_arr, imin = np.zeros(len(eps_sweep)), len(eps_sweep) - 1
        else:
            rel_arr = np.abs(fd_arr - g_adj) / max(abs(g_adj), 1e-300)
            imin = int(np.argmin(rel_arr))
        checks.append(
            DirectionCheck(
                adjoint_value=g_adj,
                eps=tuple(float(e) for e in eps_sweep),
                rel_errors=tuple(float(r) for r in rel_arr),
                min_rel_error=float(rel_arr[imin]),
                eps_at_min=float(eps_sweep[imin]),
            )
        )
    return GradientCheckReport(
        mode=mode, directions=tuple(checks), passed=all(c.passed for c in checks)
    )
