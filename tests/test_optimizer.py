import dataclasses
import random
import warnings

import numpy as np
import pytest

from kurasteer import (
    CircleGrid,
    ControlMode,
    ControlSet,
    CostWeights,
    CouplingParams,
    Field,
    OcpProblem,
    OptimizerConfig,
    ResolutionWarning,
    TimeGrid,
    Trajectory,
    cost,
    gradient_check,
    optimize,
    reduced_gradient,
    solve_adjoint,
    solve_state,
)
from kurasteer.checks import check_gradients, coarse_problem
from kurasteer.config import RunConfig, load_config
from kurasteer import dynamics, optimizer
from kurasteer.dynamics import CONTROLS, ROW_BLOCK, CFLError, NumericsError, _solve_states, row_blocks
from kurasteer.optimizer import (
    ARMIJO_C,
    BACKTRACK_FACTOR,
    Directions,
    GRADCHECK_TOL,
    MIN_BACKTRACK,
    SOBOLEV_LENGTH,
    _advective_caps,
    _baseline_arrays,
    _evaluate,
    _probe_costs,
    _smooth_direction,
    sobolev,
    space_time_inner,
)
from kurasteer.scenarios import DensitySpec

TWO_PI = 2 * np.pi


def small_setup(n_theta=32, n_t=50, T=0.5):
    grid = CircleGrid(n_theta)
    tgrid = TimeGrid(T, n_t)
    params = CouplingParams(D=0.25, K=1.0)
    q0 = DensitySpec(kind="wrapped_gaussian", mean=np.pi / 2, sigma=0.8).build(grid)
    zf = DensitySpec(kind="wrapped_gaussian", mean=3 * np.pi / 2, sigma=0.6).build(grid)
    return grid, tgrid, params, q0, Trajectory.from_field(zf, tgrid)


def midpoint4_time_integral(samples, dt):
    """Independent time quadrature: composite midpoint at 4x resolution on the
    piecewise-linear interpolant of the samples."""
    total = 0.0
    for k in range(len(samples) - 1):
        for j in range(4):
            frac = (j + 0.5) / 4.0
            total += (dt / 4.0) * ((1 - frac) * samples[k] + frac * samples[k + 1])
    return total


class TestWeightsAndConfig:
    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            CostWeights(alpha_r=-1.0)

    def test_inactive_tracking_rejected_for_runs(self):
        grid, tgrid, params, q0, z = small_setup()
        with pytest.raises(ValueError, match="alpha_r"):
            OcpProblem(
                grid=grid, tgrid=tgrid, params=params, mode=ControlMode.VELOCITY,
                weights=CostWeights(alpha_r=0.0, alpha_t=0.0),
                optimizer=OptimizerConfig(), q0=q0, target=z,
            )

    def test_zero_active_beta_rejected(self):
        grid, tgrid, params, q0, z = small_setup()
        with pytest.raises(ValueError, match="u1"):
            OcpProblem(
                grid=grid, tgrid=tgrid, params=params, mode=ControlMode.VELOCITY,
                weights=CostWeights(beta1=0.0),
                optimizer=OptimizerConfig(), q0=q0, target=z,
            )

    @pytest.mark.parametrize(
        "field, other, message",
        [("q0", dict(n_theta=64), "q0 is not on the problem grid"),
         ("target", dict(n_theta=64), "target trajectory is not on the problem grids"),
         ("target", dict(n_t=100), "target trajectory is not on the problem grids")],
        ids=["q0", "target-theta", "target-time"],
    )
    def test_off_grid_problem_rejected(self, field, other, message):
        grid, tgrid, params, q0, z = small_setup()
        off_grid = dict(zip(("q0", "target"), small_setup(**other)[3:]))[field]
        with pytest.raises(ValueError, match=message):
            OcpProblem(
                grid=grid, tgrid=tgrid, params=params, mode=ControlMode.VELOCITY,
                weights=CostWeights(),
                optimizer=OptimizerConfig(), **{"q0": q0, "target": z, field: off_grid},
            )

    def test_optimizer_config_validation(self):
        with pytest.raises(ValueError, match="max_iters"):
            OptimizerConfig(max_iters=-1)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: CostWeights(beta1=np.nan),
            lambda: TimeGrid(np.nan, 10),
            lambda: CouplingParams(D=np.nan),
            lambda: CouplingParams(K=np.nan),
            lambda: CouplingParams(alpha=np.inf),
        ],
        ids=["CostWeights.beta1", "TimeGrid.T", "CouplingParams.D", "CouplingParams.K", "CouplingParams.alpha"],
    )
    def test_nan_setting_rejected(self, make):
        with pytest.raises(ValueError):
            make()


class TestModeInvariants:
    """Per-mode facts every control mechanism must keep: CFL caps, a
    zero-energy baseline, and the absolute-u2 penalty."""

    def make_problem(self, mode, weights=CostWeights()):
        grid, tgrid, params, q0, z = small_setup()
        return OcpProblem(
            grid=grid, tgrid=tgrid, params=params, mode=mode,
            weights=weights,
            optimizer=OptimizerConfig(), q0=q0, target=z,
        )

    @pytest.mark.parametrize("mode", list(ControlMode))
    def test_advective_caps(self, mode):
        prob = self.make_problem(mode)
        budget = 0.995 * 0.5 * prob.grid.d_theta / prob.tgrid.dt
        expected = {
            ControlMode.VELOCITY: {"u1": budget - abs(prob.params.K)},
            ControlMode.INTERACTION: {"u2": budget},
            ControlMode.LINEAR_SOURCE: {},
            ControlMode.JOINT: {"u1": budget / 2.0, "u2": budget / 2.0},
        }[mode]
        assert _advective_caps(prob) == expected

    @pytest.mark.parametrize("mode", list(ControlMode))
    def test_baseline_controls_cost_no_energy(self, mode):
        prob = self.make_problem(mode)
        cs = ControlSet(**{
            n: Trajectory(prob.grid, prob.tgrid, arr) for n, arr in _baseline_arrays(prob).items()
        })
        q = solve_state(prob.q0, cs, prob.params, prob.tgrid)
        for controls in (cs, ControlSet()):
            _, _, j_u = cost(q, prob.target, controls, prob.weights, mode, prob.params)
            assert j_u == 0.0

    @pytest.mark.parametrize("mode", list(ControlMode))
    def test_absolute_u2_penalty_at_baseline(self, mode):
        prob = self.make_problem(mode, CostWeights(penalize_absolute_u2=True))
        q = solve_state(prob.q0, ControlSet(), prob.params, prob.tgrid)
        _, _, j_u = cost(q, prob.target, ControlSet(), prob.weights, mode, prob.params)
        if "u2" in mode.active_controls:
            expected = 0.5 * prob.weights.beta2 * prob.params.K**2 * prob.tgrid.T * TWO_PI
            assert j_u == pytest.approx(expected, rel=1e-12)
        else:
            assert j_u == 0.0


class TestCost:
    def test_zero_at_target_with_baseline_controls(self):
        grid, tgrid, params, q0, z = small_setup()
        q = solve_state(q0, ControlSet(), params, tgrid)
        j, j_q, j_u = cost(q, q, ControlSet(), CostWeights(), ControlMode.VELOCITY, params)
        assert j == 0.0 and j_q == 0.0 and j_u == 0.0

    def test_constant_velocity_energy_closed_form(self):
        grid, tgrid, params, q0, z = small_setup(T=0.5)
        c, beta1 = 0.7, 1e-3
        u1 = Trajectory.constant(grid, tgrid, c)
        q = solve_state(q0, ControlSet(u1=u1), params, tgrid)
        _, _, j_u = cost(
            q, z, ControlSet(u1=u1), CostWeights(beta1=beta1), ControlMode.VELOCITY, params
        )
        assert j_u == pytest.approx(0.5 * beta1 * c**2 * TWO_PI * tgrid.T, rel=1e-12)

    def test_u2_deviation_vs_absolute_penalty(self):
        grid, tgrid, params, q0, z = small_setup()
        u2 = Trajectory.constant(grid, tgrid, params.K)  # exactly the baseline
        q = solve_state(q0, ControlSet(u2=u2), params, tgrid)
        _, _, j_dev = cost(q, z, ControlSet(u2=u2), CostWeights(), ControlMode.INTERACTION, params)
        assert j_dev == 0.0
        _, _, j_abs = cost(
            q, z, ControlSet(u2=u2),
            CostWeights(penalize_absolute_u2=True), ControlMode.INTERACTION, params,
        )
        assert j_abs == pytest.approx(0.5 * 1e-2 * params.K**2 * TWO_PI * tgrid.T, rel=1e-12)

    def test_matches_independent_quadrature_oracle(self, rng):
        grid, tgrid, params, q0, z = small_setup(n_t=37)
        u1 = Trajectory(grid, tgrid, rng.standard_normal((tgrid.n_t + 1, grid.n_theta)) * 0.01)
        q = solve_state(q0, ControlSet(u1=u1), params, tgrid)
        w = CostWeights(alpha_r=0.8, alpha_t=3.0, beta1=0.05)
        j, j_q, j_u = cost(q, z, ControlSet(u1=u1), w, ControlMode.VELOCITY, params)

        mis2 = grid.quad_rows((q.data - z.data) ** 2)
        u1sq = grid.quad_rows(u1.data**2)
        j_q_oracle = 0.5 * w.alpha_r * midpoint4_time_integral(mis2, tgrid.dt)
        j_q_oracle += 0.5 * w.alpha_t * mis2[-1]
        j_u_oracle = 0.5 * w.beta1 * midpoint4_time_integral(u1sq, tgrid.dt)
        assert j_q == pytest.approx(j_q_oracle, abs=1e-10)
        assert j_u == pytest.approx(j_u_oracle, abs=1e-10)
        assert j == pytest.approx(j_q_oracle + j_u_oracle, abs=1e-10)

    def test_shape_mismatch_rejected(self):
        grid, tgrid, params, q0, z = small_setup()
        q = solve_state(q0, ControlSet(), params, tgrid)
        other = Trajectory.constant(grid, TimeGrid(0.5, 25), 0.0)
        with pytest.raises(ValueError):
            cost(q, other, ControlSet(), CostWeights(), ControlMode.VELOCITY, params)


class TestReducedGradient:
    def test_zero_adjoint_baseline_controls(self):
        grid, tgrid, params, q0, z = small_setup()
        q = solve_state(q0, ControlSet(), params, tgrid)
        p = Trajectory.constant(grid, tgrid, 0.0)
        for mode in ControlMode:
            g = reduced_gradient(q, p, ControlSet(), CostWeights(), mode, params)
            for arr in g.values():
                assert np.max(np.abs(arr)) == 0.0

    def test_zero_adjoint_constant_u1(self):
        grid, tgrid, params, q0, z = small_setup()
        c = 0.31
        u1 = Trajectory.constant(grid, tgrid, c)
        q = solve_state(q0, ControlSet(u1=u1), params, tgrid)
        p = Trajectory.constant(grid, tgrid, 0.0)
        g = reduced_gradient(q, p, ControlSet(u1=u1), CostWeights(), ControlMode.VELOCITY, params)
        assert np.max(np.abs(g["u1"] - 1e-3 * c)) <= 1e-15

    def test_quadratic_only_gradient_exact(self, rng):
        # no PDE coupling: J_u alone, gradient exactly beta*u, FD to roundoff
        grid, tgrid, params, q0, z = small_setup()
        w = CostWeights(alpha_r=0.0, alpha_t=0.0)
        u1 = Trajectory(grid, tgrid, 0.2 * rng.standard_normal((tgrid.n_t + 1, grid.n_theta)))
        cs = ControlSet(u1=u1)
        with pytest.warns(ResolutionWarning, match=r"^state density reached min -2\.\d{3}e-04; increase"):
            q = solve_state(q0, cs, params, tgrid)  # the rough u1 dips the state to -2.0e-4
        p = Trajectory.constant(grid, tgrid, 0.0)
        g = reduced_gradient(q, p, cs, w, ControlMode.VELOCITY, params)["u1"]
        delta = rng.standard_normal(g.shape)
        g_adj = space_time_inner(grid, tgrid, g, delta)
        eps = 1e-4

        def j_of(arr):
            return cost(q, z, ControlSet(u1=Trajectory(grid, tgrid, arr)), w,
                        ControlMode.VELOCITY, params)[0]

        g_fd = (j_of(u1.data + eps * delta) - j_of(u1.data - eps * delta)) / (2 * eps)
        assert abs(g_fd - g_adj) / abs(g_adj) <= 1e-10

    def test_joint_mode_specializes_bitwise(self):
        grid, tgrid, params, q0, z = small_setup()
        u1 = Trajectory(grid, tgrid, 0.1 * np.sin(grid.theta)[None, :] * np.ones((tgrid.n_t + 1, 1)))
        u2 = Trajectory.constant(grid, tgrid, params.K)
        cs = ControlSet(u1=u1, u2=u2)
        q = solve_state(q0, cs, params, tgrid)
        p = solve_adjoint(q, z, cs, params, (1.0, 10.0))
        w = CostWeights()
        g_joint = reduced_gradient(q, p, cs, w, ControlMode.JOINT, params)
        g_vel = reduced_gradient(q, p, cs, w, ControlMode.VELOCITY, params)
        g_int = reduced_gradient(q, p, cs, w, ControlMode.INTERACTION, params)
        assert np.array_equal(g_joint["u1"], g_vel["u1"])
        assert np.array_equal(g_joint["u2"], g_int["u2"])



class TestGradientCheck:
    def make_problem(self, mode, n_t=100):
        grid, tgrid, params, q0, z = small_setup(n_theta=32, n_t=n_t, T=0.5)
        return OcpProblem(
            grid=grid, tgrid=tgrid, params=params, mode=mode,
            weights=CostWeights(), optimizer=OptimizerConfig(), q0=q0, target=z,
        )

    @pytest.mark.parametrize(
        "mode", [ControlMode.VELOCITY, ControlMode.INTERACTION, ControlMode.LINEAR_SOURCE]
    )
    def test_all_modes_pass(self, mode):
        report = gradient_check(self.make_problem(mode), n_directions=3, seed=0)
        assert report.passed
        for d in report.directions:
            assert d.min_rel_error <= 1e-3

    @pytest.mark.parametrize("mode", [ControlMode.VELOCITY, ControlMode.JOINT])
    def test_passes_from_a_rotating_control(self, mode):
        # away from the baseline the gradient reads the control's own energy
        # term and the state it drives, not only the uncontrolled state's
        prob = self.make_problem(mode)
        prob = dataclasses.replace(prob, initial=ControlSet(u1=Trajectory.constant(prob.grid, prob.tgrid, 0.4)))
        report = gradient_check(prob, n_directions=2, seed=3)
        assert report.passed
        assert all(abs(d.adjoint_value) > 1e-6 for d in report.directions)

    @pytest.mark.parametrize("K", [0.0, 1.0])
    def test_stationary_problem_reads_zero(self, K):
        # the uniform density as both start and target, with no source: the
        # state stays uniform, J and its gradient are 0, and the adjoint and
        # FD agree on a zero derivative in every direction
        grid, tgrid = CircleGrid(32), TimeGrid(0.5, 100)
        uniform = Field(grid, np.full(grid.n_theta, 1.0 / TWO_PI))
        prob = OcpProblem(
            grid=grid, tgrid=tgrid, params=CouplingParams(D=0.25, K=K), mode=ControlMode.LINEAR_SOURCE,
            weights=CostWeights(), optimizer=OptimizerConfig(), q0=uniform,
            target=Trajectory.from_field(uniform, tgrid),
        )
        report = gradient_check(prob, n_directions=2, seed=3)
        assert report.passed
        for d in report.directions:
            assert d.adjoint_value == 0.0
            assert d.rel_errors == (0.0,) * len(optimizer.EPS_SWEEP)

    def test_tampered_gradient_fails(self, shift_gradient, passing_checks):
        # every direction has a random space-time mean, so a uniform gradient
        # error shows at every seed, with few directions and with the default
        shift_gradient(0.05)
        assert passing_checks([self.make_problem(ControlMode.VELOCITY)]) == []

    @pytest.mark.parametrize("n_directions", [0, -1])
    def test_no_directions_rejected(self, n_directions):
        with pytest.raises(ValueError, match="n_directions >= 1"):
            gradient_check(self.make_problem(ControlMode.VELOCITY), n_directions=n_directions)

    def test_small_bias_fails(self, shift_gradient, passing_checks):
        # a uniform shift of 1e-3 still shows at the smallest eps, where the
        # correct gradient reads below 1e-4
        shift_gradient(1e-3)
        assert passing_checks([self.make_problem(ControlMode.VELOCITY)]) == []

    @pytest.mark.parametrize("mode", [ControlMode.VELOCITY, ControlMode.LINEAR_SOURCE])
    def test_batched_differences_match_probe_by_probe(self, mode, monkeypatch):
        # every probe u0 + s*delta of the check, s = +eps then -eps, is solved
        # in one streamed batch; its differences agree with solving the probes
        # one at a time
        problem = self.make_problem(mode)
        batches, batched_costs = [], optimizer._probe_costs

        def spy(prob, u0, deltas, steps):
            costs = batched_costs(prob, u0, deltas, steps)
            half = len(steps) // 2
            probes = {n: u0[n] + steps[:, None, None] * histories(dirs)[0] for n, dirs in deltas.items()}
            batches.extend([
                ({n: arr[:half] for n, arr in probes.items()}, costs[0, :half]),
                ({n: arr[half:] for n, arr in probes.items()}, costs[0, half:]),
            ])
            return costs

        monkeypatch.setattr(optimizer, "_probe_costs", spy)
        report = gradient_check(problem, n_directions=1, seed=2)
        (u_plus, j_plus), (u_minus, j_minus) = batches
        check = report.directions[0]
        eps = optimizer.EPS_SWEEP
        u0 = _baseline_arrays(problem)
        for name in u0:
            assert np.array_equal(u_plus[name] - u0[name], u0[name] - u_minus[name])
        fd_batch = (j_plus - j_minus) / (2.0 * eps)
        for i, e in enumerate(eps):
            j_p = _evaluate(problem, {n: arr[i] for n, arr in u_plus.items()})[2][0]
            j_m = _evaluate(problem, {n: arr[i] for n, arr in u_minus.items()})[2][0]
            fd_single = (j_p - j_m) / (2.0 * e)
            assert abs(fd_batch[i] - fd_single) <= 1e-9 * abs(fd_single)
        rel = np.abs(fd_batch - check.adjoint_value) / abs(check.adjoint_value)
        assert np.array_equal(rel, np.asarray(check.rel_errors))

    @pytest.mark.parametrize("alpha", [0.5, -2.0])
    @pytest.mark.parametrize("mode", list(ControlMode))
    def test_phase_lag_check_problem_passes(self, mode, alpha):
        # the 64 x 200 check problem with a phase lag, which enters the
        # coupling, its adjoint's lagged basis and the interaction kernel
        runcfg = RunConfig.from_dict(load_config(None, [f"physics.alpha={alpha}"]))
        report = gradient_check(
            coarse_problem(runcfg, mode), n_directions=int(runcfg.raw["check"]["directions"]), seed=0
        )
        assert report.passed
        assert max(d.floor_rel_error for d in report.directions) <= GRADCHECK_TOL

    def test_default_check_problem_seed1_passes(self):
        # interaction direction 3 is most accurate at the largest eps and then
        # rises to the O(dt) floor: a correct gradient that must pass
        runcfg = RunConfig.from_dict(load_config(seed=1))
        results = check_gradients(runcfg)
        assert all(r["passed"] for r in results)
        assert all(max(r["floor_rel_errors"]) <= 1e-4 for r in results)


def histories(dirs):
    """Every direction of a Directions as the (n_t+1, n_theta) history that
    the check stored before it kept the draws: np.full of its mean, and
    amp * np.outer(time, angle) added mode by mode."""
    out = np.empty((len(dirs.mean), dirs.time.shape[2], dirs.angle.shape[2]))
    for d, history in enumerate(out):
        history[...] = dirs.mean[d]
        for m in range(3):
            history += dirs.amp[d, m] * np.outer(dirs.time[d, m], dirs.angle[d, m])
    return out


def stored_smooth_direction(rng, grid, tgrid):
    """The check's direction as it was drawn and stored whole before it kept
    its draws: the reference for Directions and _smooth_direction."""
    th, t = grid.theta, tgrid.times
    out = np.full((tgrid.n_t + 1, grid.n_theta), rng.gauss(0.0, 1.0))
    for _ in range(3):
        k = rng.randrange(7)
        j = rng.randrange(4)
        amp = rng.gauss(0.0, 1.0)
        out += amp * np.outer(
            np.cos(np.pi * j * t / tgrid.T + rng.uniform(0.0, TWO_PI)),
            np.cos(k * th + rng.uniform(0.0, TWO_PI)),
        )
    return out


def draw_directions(grid, tgrid, n_dirs, rng):
    dirs = Directions.empty(n_dirs, grid, tgrid)
    for d in range(n_dirs):
        _smooth_direction(rng, grid, tgrid, dirs, d)
    return dirs


def per_direction_probe_costs(problem, u0, deltas, steps):
    """The probe path that the streamed solve replaced, written out: each
    direction's probes solved as one stored stack by _solve_states, and each
    probe scored by the whole-history cost arithmetic."""
    grid, tgrid, weights, params = problem.grid, problem.tgrid, problem.weights, problem.params
    w, dth = tgrid.trapezoid_weights, grid.d_theta
    stored = {n: histories(dirs) for n, dirs in deltas.items()}
    costs = []
    for d in range(len(next(iter(stored.values())))):
        u = {n: u0[n] + steps[:, None, None] * arr[d] for n, arr in stored.items()}
        for i, q in enumerate(_solve_states(problem.q0, u, params, tgrid)):
            scratch = np.subtract(q, problem.target.data)
            np.multiply(scratch, scratch, out=scratch)
            j_q = 0.5 * weights.alpha_r * (float(w @ scratch.sum(axis=1)) * dth)
            j_q += 0.5 * weights.alpha_t * float(scratch[-1].sum()) * dth
            j_u = 0.0
            for name, arr in u.items():
                spec = CONTROLS[name]
                np.subtract(arr[i], weights.penalty_offset(spec, params), out=scratch)
                np.multiply(scratch, scratch, out=scratch)
                j_u += 0.5 * weights.beta(spec) * (float(w @ scratch.sum(axis=1)) * dth)
            costs.append(j_q + j_u)
    return np.array(costs).reshape(-1, len(steps))


class TestDirections:
    """gradient_check keeps each direction as its draws and makes its rows
    where they are read: every row must be the stored direction's, bit for
    bit."""

    @pytest.mark.parametrize("seed", [0, 3])
    def test_rows_bit_equal_to_the_stored_direction(self, seed):
        grid, tgrid = CircleGrid(32), TimeGrid(0.5, ROW_BLOCK + 40)  # two row blocks
        dirs = draw_directions(grid, tgrid, 4, random.Random(seed))
        rng = random.Random(seed)
        stored = np.stack([stored_smooth_direction(rng, grid, tgrid) for _ in range(4)])
        assert np.array_equal(histories(dirs), stored)
        for d in range(4):  # one direction's row blocks, as the redraw test reads them
            for rows in row_blocks(tgrid.n_t + 1):
                block = np.empty((1, rows.stop - rows.start, grid.n_theta))
                assert np.array_equal(dirs.rows(slice(d, d + 1), rows, block)[0], stored[d, rows])
        row = np.empty((4, 1, grid.n_theta))
        for k in (0, ROW_BLOCK, tgrid.n_t):  # row k of every direction, as the probes read it
            assert np.array_equal(dirs.rows(slice(None), slice(k, k + 1), row)[:, 0], stored[:, k])

    @pytest.mark.parametrize("seed", [0, 3])
    def test_directions_are_band_limited(self, seed):
        # angular modes below 7 only, and the directions reach the fields
        # that vary in time and those that vary in angle
        grid, tgrid = CircleGrid(64), TimeGrid(0.5, 100)
        stored = histories(draw_directions(grid, tgrid, 4, random.Random(seed)))
        coef = np.abs(np.fft.rfft(stored, axis=2))
        assert np.max(coef[:, :, 7:]) <= 1e-12 * np.max(coef)
        assert np.max(np.abs(stored - stored[:, :1])) > 1e-3
        assert np.max(np.abs(stored - stored[:, :, :1])) > 1e-3


class TestStreamedProbes:
    """gradient_check solves every probe u0 + s*delta of a mode in one state
    solve that keeps no history: each probe's cost, and each check of the
    solve, must be what the probe gets when it is solved and scored alone."""

    STEPS = np.array([0.1, 1e-3, -0.1, -1e-3])

    @staticmethod
    def setup_probes(mode, alpha=0.0, u1=None, n_dirs=2, seed=0):
        grid, tgrid, _, q0, z = small_setup(n_theta=32, n_t=100, T=0.5)
        problem = OcpProblem(
            grid=grid, tgrid=tgrid, params=CouplingParams(alpha=alpha, D=0.25, K=1.0), mode=mode,
            weights=CostWeights(), optimizer=OptimizerConfig(), q0=q0, target=z,
            initial=ControlSet() if u1 is None else ControlSet(u1=Trajectory.constant(grid, tgrid, u1)),
        )
        rng = random.Random(seed)
        u0 = _baseline_arrays(problem)
        deltas = {n: draw_directions(grid, tgrid, n_dirs, rng) for n in u0}
        return problem, u0, deltas

    @staticmethod
    def stored_stack(u0, deltas, steps):
        """Every probe as one stored (D*S, n_t+1, n_theta) stack per control."""
        return {
            n: np.concatenate([u0[n] + steps[:, None, None] * d for d in histories(dirs)])
            for n, dirs in deltas.items()
        }

    def assert_costs_are_single_solves(self, problem, u0, deltas):
        costs = _probe_costs(problem, u0, deltas, self.STEPS)
        assert costs.shape == (2, len(self.STEPS))
        stored = {n: histories(dirs) for n, dirs in deltas.items()}
        for (d, i), j in np.ndenumerate(costs):
            probe = {n: u0[n] + self.STEPS[i] * arr[d] for n, arr in stored.items()}
            assert j == _evaluate(problem, probe)[2][0], (d, i)

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    @pytest.mark.parametrize("mode", list(ControlMode))
    def test_each_cost_bit_equal_to_its_own_solve(self, mode, alpha):
        self.assert_costs_are_single_solves(*self.setup_probes(mode, alpha))

    def test_cost_from_a_rotating_control_bit_equal_to_its_own_solve(self):
        self.assert_costs_are_single_solves(*self.setup_probes(ControlMode.VELOCITY, 0.5, u1=0.4))

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    @pytest.mark.parametrize("mode", list(ControlMode))
    def test_reports_equal_the_per_direction_path(self, mode, alpha, monkeypatch):
        runcfg = RunConfig.from_dict(load_config(None, [f"physics.alpha={alpha}"]))
        problem, n_dirs = coarse_problem(runcfg, mode), int(runcfg.raw["check"]["directions"])
        streamed = gradient_check(problem, n_directions=n_dirs, seed=1)
        monkeypatch.setattr(optimizer, "_probe_costs", per_direction_probe_costs)
        assert gradient_check(problem, n_directions=n_dirs, seed=1) == streamed

    def test_cfl_violation_raises_before_any_probe_is_solved(self, monkeypatch):
        problem, _, _ = self.setup_probes(ControlMode.VELOCITY)
        grid, tgrid = problem.grid, problem.tgrid
        # u1 = 15*t/T, and 15*t/T -+ 10*t/T along direction 1: exact peaks 15, 5 and
        # 25 against a limit of 18.6 (0.5*dtheta/dt - K); a bound
        # max|u0| + |s|*max|delta| would read 25 for every probe of direction 1
        ramp = np.broadcast_to(tgrid.times[:, None] / tgrid.T, (tgrid.n_t + 1, grid.n_theta))
        # directions 0 and -10*t/T, as one mode t/T times 1 of amplitude 0 and -10
        time = np.broadcast_to(tgrid.times / tgrid.T, (2, 3, tgrid.n_t + 1))
        ramps = Directions(np.zeros(2), np.array([[0.0, 0, 0], [-10.0, 0, 0]]), time, np.ones((2, 3, grid.n_theta)))
        u0, deltas = {"u1": 15.0 * ramp}, {"u1": ramps}
        assert np.array_equal(histories(ramps), np.stack([0.0 * ramp, -10.0 * ramp]))
        stepped = []
        stepper = dynamics._lawson_heun
        monkeypatch.setattr(dynamics, "_lawson_heun", lambda *a, **kw: stepped.append(1) or stepper(*a, **kw))
        assert _probe_costs(problem, u0, deltas, np.array([1.0])).shape == (2, 1)
        assert len(stepped) == 1
        stepped.clear()
        steps = np.array([1.0, -1.0])
        with pytest.raises(CFLError, match="need dt <=") as streamed:
            _probe_costs(problem, u0, deltas, steps)
        assert not stepped
        with pytest.raises(CFLError) as stored:
            _solve_states(problem.q0, self.stored_stack(u0, deltas, steps), problem.params, tgrid)
        assert str(streamed.value) == str(stored.value)
        dt_max = 0.5 * grid.d_theta / (25.0 + 1.0 + 1e-12)
        assert f"need dt <= {dt_max:.6g} (n_t >= {int(np.ceil(tgrid.T / dt_max))})" in str(streamed.value)

    def test_non_finite_probe_names_the_first_bad_step(self):
        problem, u0, deltas = self.setup_probes(ControlMode.LINEAR_SOURCE)
        deltas["source"].time[0, 1, 9] = np.inf  # row 9, first used by the stage-2 rate of step 9
        deltas["source"].time[1, 2, 5] = np.nan  # and row 5, of step 5
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(NumericsError, match=r"state became non-finite at step 5 \(t=0.025\)") as streamed:
                _probe_costs(problem, u0, deltas, self.STEPS)
            with pytest.raises(NumericsError) as stored:
                _solve_states(problem.q0, self.stored_stack(u0, deltas, self.STEPS), problem.params, problem.tgrid)
        assert str(streamed.value) == str(stored.value)

    def test_mass_drift_caught(self, monkeypatch):
        problem, u0, deltas = self.setup_probes(ControlMode.VELOCITY)
        heat = CircleGrid.heat_multiplier

        def leaky(grid, diffusion, dt):
            prop = heat(grid, diffusion, dt)
            prop[0] = 1.0 - 1e-6  # mode 0 loses mass every step
            return prop

        monkeypatch.setattr(CircleGrid, "heat_multiplier", leaky)
        with pytest.raises(NumericsError, match="mass drifted by") as streamed:
            _probe_costs(problem, u0, deltas, self.STEPS)
        with pytest.raises(NumericsError) as stored:
            _solve_states(problem.q0, self.stored_stack(u0, deltas, self.STEPS), problem.params, problem.tgrid)
        assert str(streamed.value) == str(stored.value)


class TestMemory:
    """The descent holds each history once: the target and the baseline
    controls are views of one row, the trajectories adopt the solvers' and
    the line search's fresh arrays, and nothing outlives its last read."""

    @pytest.mark.parametrize("mode, extra, seed", [
        ("velocity", [], None),
        ("interaction", ["initial_controls.perturbation_scale=0.3"], 1),
    ], ids=["velocity", "interaction"])
    def test_descent_peak_histories(self, mode, extra, seed, traced_peak):
        overrides = ["discretization.n_theta=64", "discretization.n_t=800", "discretization.T=4",
                     "optimizer.max_iters=4", f"mode={mode}", *extra]

        def build():
            return RunConfig.from_dict(load_config(None, overrides, None, seed)).problem()

        build()  # loads what the first build imports
        history = 801 * 64 * 8
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ResolutionWarning)
            peak = traced_peak(lambda: optimize(build()))
        assert peak <= 14 * history

    @pytest.mark.parametrize("mode, extra, seed, bound", [
        ("velocity", [], None, 5.3),
        ("interaction", ["initial_controls.perturbation_scale=0.3"], 1, 5.6),
    ], ids=["velocity", "interaction"])
    def test_line_search_holds_five_histories(self, mode, extra, seed, bound, traced_peak):
        # measured 5.01 (velocity: control, gradient, trial control, trial
        # state) and 5.35 (interaction), plus row blocks and the problem;
        # 6.01 (velocity) when the descent kept the uncontrolled state for
        # the CLI, and 9.52 and 8.21 when the state, adjoint and direction
        # were held through the line search and reductions made whole histories
        overrides = ["discretization.n_theta=64", "discretization.n_t=800", "discretization.T=4",
                     "optimizer.max_iters=4", f"mode={mode}", *extra]

        def build():
            return RunConfig.from_dict(load_config(None, overrides, None, seed)).problem()

        build()
        history = 801 * 64 * 8
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ResolutionWarning)
            peak = traced_peak(lambda: optimize(build()))
        assert peak <= bound * history

    CHECK_PROBLEM = ["check.n_theta=64", "check.n_t=200", "check.T=1.0"]

    @pytest.mark.parametrize("mode", [ControlMode.VELOCITY, ControlMode.LINEAR_SOURCE])
    def test_gradient_check_keeps_no_probe_history(self, mode, traced_peak):
        # the check problem, 10 directions x 18 probes: measured 19.91
        # (velocity) and 21.72 (linear_source) histories, of which the
        # probes' row sums are 5.6 (velocity); 29.23 and 31.04 when the
        # directions were stored whole, and 41.8 when each direction's 18
        # probe controls and states were stored too
        problem = coarse_problem(RunConfig.from_dict(load_config(None, self.CHECK_PROBLEM)), mode)
        gradient_check(problem, n_directions=10, seed=0)
        peak = traced_peak(lambda: gradient_check(problem, n_directions=10, seed=0))
        assert peak <= 22 * 201 * 64 * 8

    @pytest.mark.parametrize("mode", list(ControlMode))
    def test_gradient_check_stores_no_direction(self, mode, traced_peak):
        # from 2 to 10 directions the check's peak grows per added direction
        # by what its probe solve alone grows by (18 probes' row sums and
        # stepper buffers: 1.89 histories for velocity, 2.07 for
        # linear_source): measured 0.08 to 0.32 histories less. With each
        # direction stored whole it grew 0.85 (interaction) to 1.82 (joint)
        # histories more: 2.86 against 1.88 for velocity.
        problem = coarse_problem(RunConfig.from_dict(load_config(None, self.CHECK_PROBLEM)), mode)
        u0, steps = _baseline_arrays(problem), np.concatenate((optimizer.EPS_SWEEP, -optimizer.EPS_SWEEP))
        grid, tgrid = problem.grid, problem.tgrid

        def directions(n_dirs):
            rng = random.Random(0)
            return {n: draw_directions(grid, tgrid, n_dirs, rng) for n in u0}

        def growth(peaks):
            return (peaks[1] - peaks[0]) / 8 / (201 * 64 * 8)

        gradient_check(problem, n_directions=10, seed=0)
        check = growth([traced_peak(lambda: gradient_check(problem, n_directions=n, seed=0)) for n in (2, 10)])
        deltas = [directions(n) for n in (2, 10)]
        probes = growth([traced_peak(lambda: _probe_costs(problem, u0, d, steps)) for d in deltas])
        assert check <= probes + 0.25


class TestRowBlocks:
    """Whole-history reductions and temporaries are made one block of
    ROW_BLOCK rows at a time; every value must equal that of the
    whole-history expression, bit for bit, for row counts below, at and
    straddling the block."""

    ROWS = [101, ROW_BLOCK, ROW_BLOCK + 1, 601]

    @staticmethod
    def setup_histories(n_rows, alpha=0.5, seed=0):
        grid, tgrid = CircleGrid(16), TimeGrid(1.0, n_rows - 1)
        params = CouplingParams(alpha=alpha, D=0.25, K=1.0)
        rng = np.random.default_rng(seed)
        shape = (n_rows, grid.n_theta)
        controls = ControlSet(
            u1=Trajectory(grid, tgrid, 0.3 * rng.standard_normal(shape)),
            u2=Trajectory(grid, tgrid, 1.0 + 0.2 * rng.standard_normal(shape)),
            source=Trajectory(grid, tgrid, 0.01 * rng.standard_normal(shape)),
        )
        q0 = DensitySpec(kind="wrapped_gaussian", mean=np.pi / 2, sigma=0.8).build(grid)
        z = Trajectory.from_field(DensitySpec(kind="wrapped_gaussian", mean=3 * np.pi / 2, sigma=0.6).build(grid), tgrid)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ResolutionWarning)
            q = solve_state(q0, controls, params, tgrid)
        p = solve_adjoint(q, z, controls, params, (1.0, 10.0))
        return grid, tgrid, params, controls, q, p, z

    @pytest.mark.parametrize("n_rows", ROWS)
    def test_space_time_inner_and_cost(self, n_rows):
        grid, tgrid, params, controls, q, p, z = self.setup_histories(n_rows)
        w, dth = tgrid.trapezoid_weights, grid.d_theta
        for a, b in ((q.data, p.data), (p.data, z.data), (z.data, z.data)):
            assert space_time_inner(grid, tgrid, a, b) == float(w @ np.multiply(a, b).sum(axis=1)) * dth
        weights = CostWeights(alpha_r=0.7, penalize_absolute_u2=False)
        for mode in ControlMode:
            scratch = np.subtract(q.data, z.data)
            np.multiply(scratch, scratch, out=scratch)
            j_q = 0.5 * weights.alpha_r * (float(w @ scratch.sum(axis=1)) * dth)
            j_q += 0.5 * weights.alpha_t * float(scratch[-1].sum()) * dth
            j_u = 0.0
            for name in mode.active_controls:
                spec = CONTROLS[name]
                np.subtract(controls.array(name, grid, tgrid, params), weights.penalty_offset(spec, params), out=scratch)
                np.multiply(scratch, scratch, out=scratch)
                j_u += 0.5 * weights.beta(spec) * (float(w @ scratch.sum(axis=1)) * dth)
            assert cost(q, z, controls, weights, mode, params) == (j_q + j_u, j_q, j_u)

    @pytest.mark.parametrize("n_rows", ROWS)
    @pytest.mark.parametrize("mode", list(ControlMode))
    def test_reduced_gradient(self, mode, n_rows):
        grid, tgrid, params, controls, q, p, _ = self.setup_histories(n_rows)
        weights = CostWeights()
        dp = grid.deriv(p.data)
        got = reduced_gradient(q, p, controls, weights, mode, params)
        assert list(got) == list(mode.active_controls)
        for name in mode.active_controls:
            spec = CONTROLS[name]
            grad = np.subtract(controls.array(name, grid, tgrid, params), weights.penalty_offset(spec, params))
            grad *= weights.beta(spec)
            grad += spec.gradient_kernel(grid, params.alpha, q.data, p.data, dp)
            assert np.array_equal(got[name], grad), name

    @pytest.mark.parametrize("n_rows", ROWS)
    def test_sobolev(self, n_rows):
        # also when written over its input, as the descent writes its direction over g
        grid = CircleGrid(64)
        a = np.random.default_rng(n_rows).standard_normal((n_rows, grid.n_theta))
        factor = 1.0 + (SOBOLEV_LENGTH * grid.wavenumbers) ** 2
        assert np.array_equal(sobolev(grid, a, False), np.fft.irfft(np.fft.rfft(a) * factor, grid.n_theta))
        whole = np.fft.irfft(np.fft.rfft(a) / factor, grid.n_theta)
        assert sobolev(grid, a, True, out=a) is a and np.array_equal(a, whole)


class TestSobolev:
    """The descent metric M = I - l**2 d^2/dtheta^2 (l = SOBOLEV_LENGTH) and
    its inverse, which turns the L2 gradient into the search direction."""

    @staticmethod
    def histories(n_rows, n_theta=64, seed=0):
        grid, tgrid = CircleGrid(n_theta), TimeGrid(1.0, n_rows - 1)
        a, b = np.random.default_rng(seed).standard_normal((2, n_rows, n_theta))
        return grid, tgrid, a, b

    @pytest.mark.parametrize("n_rows", TestRowBlocks.ROWS)
    def test_inverse_is_self_adjoint(self, n_rows):
        grid, tgrid, a, b = self.histories(n_rows)
        left = space_time_inner(grid, tgrid, sobolev(grid, a, True), b)
        right = space_time_inner(grid, tgrid, a, sobolev(grid, b, True))
        assert abs(left - right) <= 1e-14 * np.sqrt(space_time_inner(grid, tgrid, a, a) * space_time_inner(grid, tgrid, b, b))

    @pytest.mark.parametrize("n_theta", [16, 64, 128])
    def test_rows_constant_in_theta_are_kept(self, n_theta):
        # exactly: M and M^-1 act on the angle only, and a uniform row has no angular mode
        grid, tgrid, a, _ = self.histories(601, n_theta)
        const = np.broadcast_to(a[:, :1], a.shape).copy()
        assert np.array_equal(sobolev(grid, const, True), const)
        assert np.array_equal(sobolev(grid, const, False), const)

    @pytest.mark.parametrize("n_rows", TestRowBlocks.ROWS)
    def test_metric_inverts_its_inverse(self, n_rows):
        grid, _, a, _ = self.histories(n_rows)
        e = sobolev(grid, a, True)
        # to roundoff amplified by the condition number of M, 1 + (l k)**2 at the top mode
        condition = 1.0 + (SOBOLEV_LENGTH * grid.wavenumbers[-1]) ** 2
        assert np.max(np.abs(sobolev(grid, e, False) - a)) <= condition * np.finfo(float).eps * np.max(np.abs(a))
        # M^-1 damps mode k by 1 + k**2: the direction is smoother than the gradient
        assert np.max(np.abs(e)) < np.max(np.abs(a))

    @pytest.mark.parametrize("shift", [1, 5, 16])
    def test_inverse_commutes_with_rotation(self, shift):
        # the direction of a rotated gradient is the rotated direction
        grid, _, a, _ = self.histories(601)
        rotated_first = sobolev(grid, np.roll(a, shift, axis=1), True)
        rotated_last = np.roll(sobolev(grid, a, True), shift, axis=1)
        assert np.max(np.abs(rotated_first - rotated_last)) <= 1e-14 * np.max(np.abs(a))

    @pytest.mark.parametrize("n_rows", TestRowBlocks.ROWS)
    def test_inverse_commutes_with_time_operations(self, n_rows):
        # M^-1 acts on each time row alone, across row blocks: it commutes
        # with reversing time and with the weighted time average
        grid, tgrid, a, _ = self.histories(n_rows)
        e, w = sobolev(grid, a, True), tgrid.trapezoid_weights
        scale = 1e-14 * np.max(np.abs(a))
        assert np.max(np.abs(sobolev(grid, a[::-1].copy(), True) - e[::-1])) <= scale
        averaged_first = sobolev(grid, (w @ a / w.sum())[None, :], True)[0]
        assert np.max(np.abs(averaged_first - w @ e / w.sum())) <= scale


class TestOptimize:
    def test_immediate_return_at_stationary_point(self):
        # target = the uncontrolled solution itself: gradient vanishes at start
        grid, tgrid, params, q0, _ = small_setup()
        z = solve_state(q0, ControlSet(), params, tgrid)
        prob = OcpProblem(
            grid=grid, tgrid=tgrid, params=params, mode=ControlMode.VELOCITY,
            weights=CostWeights(),
            optimizer=OptimizerConfig(), q0=q0, target=z,
        )
        res = optimize(prob)
        assert res.status == "converged_grad"
        assert res.final.iteration == 0
        assert res.final.grad_norm <= 1e-8
        assert res.final.J == 0.0

    def test_quadratic_bowl_contracts_geometrically(self, monkeypatch):
        # vanishing tracking weight: J is the control energy alone
        monkeypatch.setattr(optimizer, "INITIAL_STEP", 100.0)
        grid, tgrid, params, q0, z = small_setup()
        c = 0.5
        u1 = Trajectory.constant(grid, tgrid, c)
        prob = OcpProblem(
            grid=grid, tgrid=tgrid, params=params, mode=ControlMode.VELOCITY,
            weights=CostWeights(alpha_r=0.0, alpha_t=1e-30),
            optimizer=OptimizerConfig(max_iters=15),
            q0=q0, target=z, initial=ControlSet(u1=u1),
        )
        res = optimize(prob)
        costs = [r.J for r in res.iterates]
        assert all(b < a for a, b in zip(costs, costs[1:]))
        assert costs[-1] <= 1e-3 * costs[0]

    def test_negativity_warning_names_the_caller(self):
        grid, tgrid, params, q0, z = small_setup()
        prob = OcpProblem(
            grid=grid, tgrid=tgrid, params=params, mode=ControlMode.LINEAR_SOURCE,
            weights=CostWeights(),
            optimizer=OptimizerConfig(max_iters=0), q0=q0, target=z,
            initial=ControlSet(source=Trajectory.constant(grid, tgrid, -0.5)),
        )
        with pytest.warns(ResolutionWarning, match="optimized state density") as record:
            optimize(prob)
        assert [w.filename for w in record] == [__file__]

    def test_monotone_decrease_and_records(self):
        grid, tgrid, params, q0, z = small_setup(n_theta=64, n_t=100, T=1.0)
        prob = OcpProblem(
            grid=grid, tgrid=tgrid, params=params, mode=ControlMode.VELOCITY,
            weights=CostWeights(),
            optimizer=OptimizerConfig(max_iters=10), q0=q0, target=z,
        )
        res = optimize(prob)
        costs = [r.J for r in res.iterates]
        assert all(b < a for a, b in zip(costs, costs[1:]))
        assert res.final.J == pytest.approx(res.iterates[-1].J)
        assert len(res.iterates) == 11
        assert all(np.isfinite(r.grad_norm) for r in res.iterates)

    def test_stalled_run_returns_the_solves_at_its_controls(self, stalling_search):
        # a stall solves the state and adjoint again at the returned controls,
        # here a rotating start the descent cannot leave
        grid, tgrid, params, q0, z = small_setup(n_theta=64, n_t=100, T=1.0)
        start = ControlSet(u1=Trajectory(grid, tgrid, 0.4 + 0.2 * np.cos(grid.theta)[None, :] * tgrid.times[:, None]))
        prob = OcpProblem(
            grid=grid, tgrid=tgrid, params=params, mode=ControlMode.VELOCITY,
            weights=CostWeights(),
            optimizer=OptimizerConfig(max_iters=10), q0=q0, target=z, initial=start,
        )
        res = optimize(prob)
        assert res.status == "stalled"
        assert np.array_equal(res.controls.u1.data, start.u1.data)
        q = solve_state(q0, res.controls, params, tgrid)
        p = solve_adjoint(q, z, res.controls, params, (prob.weights.alpha_r, prob.weights.alpha_t))
        assert np.array_equal(res.state.data, q.data)
        assert np.array_equal(res.adjoint.data, p.data)

    def test_stalled_status_preserves_best(self, stalling_search):
        grid, tgrid, params, q0, z = small_setup(n_theta=64, n_t=100, T=1.0)
        prob = OcpProblem(
            grid=grid, tgrid=tgrid, params=params, mode=ControlMode.VELOCITY,
            weights=CostWeights(),
            optimizer=OptimizerConfig(max_iters=10), q0=q0, target=z,
        )
        res = optimize(prob)
        assert res.status == "stalled"
        assert np.max(np.abs(res.controls.u1.data)) == 0.0  # kept the start point

    def test_converged_cost_stops_at_the_first_small_decrease(self, monkeypatch):
        # J's relative decreases on this problem run 0.113, 0.145, 0.354,
        # 0.081, ...: at a tolerance of 0.1 the run stops at iterate 4, as the
        # default run went until then
        grid, tgrid, params, q0, z = small_setup(n_theta=64, n_t=100, T=1.0)
        prob = OcpProblem(
            grid=grid, tgrid=tgrid, params=params, mode=ControlMode.VELOCITY,
            weights=CostWeights(),
            optimizer=OptimizerConfig(max_iters=8), q0=q0, target=z,
        )
        full = optimize(prob).iterates
        monkeypatch.setattr(optimizer, "COST_REL_TOL", 0.1)
        res = optimize(prob)
        assert res.status == "converged_cost"
        assert res.final.iteration == 4
        assert res.iterates == full[:5]
        decreases = [(a.J - b.J) / a.J for a, b in zip(full, full[1:])]
        assert min(decreases[:3]) > 0.1 >= decreases[3]

    def test_linear_source_mode_descends(self):
        grid, tgrid, params, q0, z = small_setup(n_theta=64, n_t=100, T=1.0)
        prob = OcpProblem(
            grid=grid, tgrid=tgrid, params=params, mode=ControlMode.LINEAR_SOURCE,
            weights=CostWeights(),
            optimizer=OptimizerConfig(max_iters=5), q0=q0, target=z,
        )
        # the source drives the optimized state to -4.855e-2 (a known defect)
        with pytest.warns(ResolutionWarning, match=r"^optimized state density reached min -4\.\d{3}e-02; increase"):
            res = optimize(prob)
        assert res.final.J < res.iterates[0].J
        assert np.max(np.abs(res.controls.source.data)) > 0.0

    def test_joint_mode_updates_both_controls(self):
        grid, tgrid, params, q0, z = small_setup(n_theta=64, n_t=100, T=1.0)
        prob = OcpProblem(
            grid=grid, tgrid=tgrid, params=params, mode=ControlMode.JOINT,
            weights=CostWeights(),
            optimizer=OptimizerConfig(max_iters=5), q0=q0, target=z,
        )
        res = optimize(prob)
        assert res.final.J < res.iterates[0].J
        assert np.max(np.abs(res.controls.u1.data)) > 0.0
        assert np.max(np.abs(res.controls.u2.data - params.K)) > 0.0

    def test_shift_equivariance(self):
        # rotating q0, target and the problem by delta rotates the optimum
        grid, tgrid, params, q0, z = small_setup(n_theta=32, n_t=60, T=0.5)
        shift = 8  # nodes
        q0_s = Field(grid, np.roll(q0.values, shift))
        z_s = Trajectory(grid, tgrid, np.roll(z.data, shift, axis=1))
        opt = OptimizerConfig(max_iters=8)
        base = optimize(OcpProblem(
            grid=grid, tgrid=tgrid, params=params, mode=ControlMode.VELOCITY,
            weights=CostWeights(), optimizer=opt,
            q0=q0, target=z,
        ))
        rot = optimize(OcpProblem(
            grid=grid, tgrid=tgrid, params=params, mode=ControlMode.VELOCITY,
            weights=CostWeights(), optimizer=opt,
            q0=q0_s, target=z_s,
        ))
        rolled = np.roll(base.controls.u1.data, shift, axis=1)
        assert np.max(np.abs(rot.controls.u1.data - rolled)) <= 1e-6

    @pytest.mark.parametrize("mode", [ControlMode.VELOCITY, ControlMode.JOINT])
    def test_mirror_symmetry_is_kept(self, mode):
        # at alpha = 0, q0 and target even about theta = 0: the optimized
        # velocity stays odd and the interaction strength even, on the grid's
        # mirror theta_j -> theta_{-j}
        grid, tgrid = CircleGrid(32), TimeGrid(0.5, 60)
        q0 = DensitySpec(kind="wrapped_gaussian", mean=0.0, sigma=0.8).build(grid)
        zf = DensitySpec(kind="wrapped_gaussian", mean=0.0, sigma=0.4).build(grid)
        res = optimize(OcpProblem(
            grid=grid, tgrid=tgrid, params=CouplingParams(D=0.25, K=1.0), mode=mode,
            weights=CostWeights(), optimizer=OptimizerConfig(max_iters=8),
            q0=q0, target=Trajectory.from_field(zf, tgrid),
        ))
        assert res.final.J < 0.1 * res.iterates[0].J

        def mirrored(arr):
            return np.roll(arr[:, ::-1], 1, axis=1)

        u1 = res.controls.u1.data
        assert np.max(np.abs(u1 + mirrored(u1))) <= 1e-9 * np.max(np.abs(u1))
        if mode is ControlMode.JOINT:
            u2 = res.controls.u2.data
            assert np.max(np.abs(u2 - mirrored(u2))) <= 1e-9 * np.max(np.abs(u2))
            assert np.max(np.abs(u2 - 1.0)) > 0.1

    @pytest.mark.parametrize("max_iters, resolves", [(6, 0), (10, 1)], ids=["gd", "stalled"])
    def test_solve_counts(self, max_iters, resolves, monkeypatch, request):
        # state solves: the start and every line-search trial; adjoint solves:
        # the start and every accepted step; both as counted at the solvers.
        # A stalled run solves both once more, at the controls it returns.
        if resolves:
            request.getfixturevalue("stalling_search")
        grid, tgrid, params, q0, z = small_setup(n_theta=64, n_t=100, T=1.0)
        calls = {"state": 0, "adjoint": 0}

        def counted(kind, solver):
            def call(*args, **kwargs):
                calls[kind] += 1
                return solver(*args, **kwargs)
            return call

        monkeypatch.setattr(optimizer, "solve_state", counted("state", solve_state))
        monkeypatch.setattr(optimizer, "solve_adjoint", counted("adjoint", solve_adjoint))
        res = optimize(OcpProblem(
            grid=grid, tgrid=tgrid, params=params, mode=ControlMode.VELOCITY,
            weights=CostWeights(),
            optimizer=OptimizerConfig(max_iters=max_iters), q0=q0, target=z,
        ))
        accepted = len(res.iterates) - 1
        assert (res.status == "stalled") == bool(resolves)
        assert res.state_solves == 1 + resolves + res.line_search_trials == calls["state"]
        assert res.adjoint_solves == 1 + resolves + accepted == calls["adjoint"]
        assert res.line_search_trials >= accepted
        # each record counts the trials of the search that found it; the
        # failed search of a stalled run is in no record
        assert sum(r.trials for r in res.iterates) == res.line_search_trials - 2 * resolves
        if resolves:
            # one line search of two trials stalls at the start
            assert (res.state_solves, res.adjoint_solves, res.line_search_trials) == (4, 2, 2)


class TestBacktracking:
    """The step after a rejected trial: the minimizer of the quadratic fit of
    its cost, kept within [MIN_BACKTRACK, BACKTRACK_FACTOR], or
    BACKTRACK_FACTOR when the trial has no cost."""

    S0 = 1000.0  # the first trial overshoots, J 4.80 -> 26.9

    @staticmethod
    def candidate(problem, u0, e, s):
        """P(u0 - s*e), built as the line search builds it."""
        arr = np.multiply(-s, e["u1"])
        arr += u0["u1"]
        cap = _advective_caps(problem)["u1"]
        return np.clip(arr, -cap, cap, out=arr)

    @pytest.mark.parametrize("first", ["solved", "inflated", "cfl"])
    def test_second_trial_step(self, first, monkeypatch):
        monkeypatch.setattr(optimizer, "INITIAL_STEP", self.S0)
        grid, tgrid, params, q0, z = small_setup(n_theta=64, n_t=200, T=1.0)
        prob = OcpProblem(
            grid=grid, tgrid=tgrid, params=params, mode=ControlMode.VELOCITY,
            weights=CostWeights(),
            optimizer=OptimizerConfig(max_iters=1), q0=q0, target=z,
        )
        tried, costs = [], []

        def recorded(problem, u):
            # the first trial as solved, with its cost raised by 1e3, or failing the CFL limit
            tried.append(u)
            if len(tried) == 2 and first == "cfl":
                raise CFLError("dt violates the advective CFL limit")
            cs, q, (j, j_q, j_u) = _evaluate(problem, u)
            if len(tried) == 2 and first == "inflated":
                j += 1e3
            costs.append(j)
            return cs, q, (j, j_q, j_u)

        monkeypatch.setattr(optimizer, "_evaluate", recorded)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ResolutionWarning)  # the large first step dips negative
            optimize(prob)
        u0, u1, u2 = tried[:3]
        cs, q, (j0, _, _) = _evaluate(prob, u0)
        weights = prob.weights
        p = solve_adjoint(q, z, cs, params, (weights.alpha_r, weights.alpha_t))
        g = reduced_gradient(q, p, cs, weights, prob.mode, params)
        e = {"u1": sobolev(grid, g["u1"], True)}
        assert np.array_equal(u1["u1"], self.candidate(prob, u0, e, self.S0))

        largest = BACKTRACK_FACTOR
        if first == "cfl":
            s = self.S0 * largest
        else:
            j1 = costs[1]
            # <g, u0 - u1> with g remade from the direction, as the search makes it
            pred = space_time_inner(grid, tgrid, sobolev(grid, e["u1"], False), u0["u1"] - u1["u1"])
            assert j1 > j0 - ARMIJO_C * pred  # rejected
            ratio = pred / (2.0 * (j1 - j0 + pred))
            # the fit sets the step; far above the fit, the lower safeguard does
            assert (MIN_BACKTRACK < ratio < largest) if first == "solved" else ratio < MIN_BACKTRACK
            s = self.S0 * np.clip(ratio, MIN_BACKTRACK, largest)
        assert np.array_equal(u2["u1"], self.candidate(prob, u0, e, s))
        # the candidate pins the step to the last bit
        assert not np.array_equal(u2["u1"], self.candidate(prob, u0, e, np.nextafter(s, 0.0)))

    def test_no_predicted_decrease_stalls_without_a_trial(self, monkeypatch):
        # from u1 at its cap, a constant gradient of -1 points every candidate
        # u - s*e past the cap, where it clips back onto u: no candidate
        # predicts a decrease, so no trial is solved and the search stalls
        grid, tgrid, params, q0, z = small_setup(n_theta=64, n_t=200, T=1.0)
        prob = OcpProblem(
            grid=grid, tgrid=tgrid, params=params, mode=ControlMode.VELOCITY,
            weights=CostWeights(),
            optimizer=OptimizerConfig(max_iters=1), q0=q0, target=z,
        )
        at_cap = Trajectory.constant(grid, tgrid, _advective_caps(prob)["u1"])
        prob = dataclasses.replace(prob, initial=ControlSet(u1=at_cap))
        monkeypatch.setattr(optimizer, "reduced_gradient", lambda *args: {"u1": np.full(at_cap.data.shape, -1.0)})
        res = optimize(prob)
        assert res.status == "stalled" and res.line_search_trials == 0
        assert (res.state_solves, res.adjoint_solves) == (2, 2)  # the start, and again at the control it returns
        assert np.array_equal(res.controls.u1.data, at_cap.data)
