import warnings

import numpy as np
import pytest

from kurasteer import (
    CircleGrid,
    ControlMode,
    ControlSet,
    ControlShape,
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
from kurasteer.dynamics import CONTROLS, ROW_BLOCK, CFLError, NumericsError, _solve_states
from kurasteer.optimizer import (
    GRADCHECK_TOL,
    _advective_caps,
    _baseline_arrays,
    _evaluate,
    _probe_costs,
    _smooth_direction,
    shape_project,
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
                shape=ControlShape.SPACE_TIME,
                weights=CostWeights(alpha_r=0.0, alpha_t=0.0),
                optimizer=OptimizerConfig(), q0=q0, target=z,
            )

    def test_zero_active_beta_rejected(self):
        grid, tgrid, params, q0, z = small_setup()
        with pytest.raises(ValueError, match="u1"):
            OcpProblem(
                grid=grid, tgrid=tgrid, params=params, mode=ControlMode.VELOCITY,
                shape=ControlShape.SPACE_TIME, weights=CostWeights(beta1=0.0),
                optimizer=OptimizerConfig(), q0=q0, target=z,
            )

    @pytest.mark.parametrize(
        "kw", [{"armijo_c": 0.0}, {"backtrack_factor": 1.0}, {"initial_step": 0.0}, {"method": "bfgs"}]
    )
    def test_optimizer_config_validation(self, kw):
        with pytest.raises(ValueError):
            OptimizerConfig(**kw)


class TestModeInvariants:
    """Per-mode facts every control mechanism must keep: CFL caps, a
    zero-energy baseline, and the absolute-u2 penalty."""

    def make_problem(self, mode, weights=CostWeights()):
        grid, tgrid, params, q0, z = small_setup()
        return OcpProblem(
            grid=grid, tgrid=tgrid, params=params, mode=mode,
            shape=ControlShape.SPACE_TIME, weights=weights,
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
        q = solve_state(q0, cs, params, tgrid)
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

    def test_space_only_projection_is_weighted_time_average(self, rng):
        grid, tgrid, params, q0, z = small_setup()
        arr = rng.standard_normal((tgrid.n_t + 1, grid.n_theta))
        proj = shape_project(arr, ControlShape.SPACE_ONLY, tgrid)
        wt = tgrid.trapezoid_weights
        expected = wt @ arr / wt.sum()
        assert np.max(np.abs(proj - expected[None, :])) <= 1e-14
        assert np.all(proj == proj[0])  # constant in time

    def test_projection_is_orthogonal(self, rng):
        grid, tgrid, params, q0, z = small_setup()
        a = rng.standard_normal((tgrid.n_t + 1, grid.n_theta))
        for shape in ControlShape:
            pa = shape_project(a, shape, tgrid)
            # idempotent and self-adjoint in the weighted inner product
            assert np.max(np.abs(shape_project(pa, shape, tgrid) - pa)) <= 1e-13
            b = rng.standard_normal(a.shape)
            lhs = space_time_inner(grid, tgrid, pa, b)
            rhs = space_time_inner(grid, tgrid, a, shape_project(b, shape, tgrid))
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


class TestGradientCheck:
    def make_problem(self, mode, shape=ControlShape.SPACE_TIME, n_t=100):
        grid, tgrid, params, q0, z = small_setup(n_theta=32, n_t=n_t, T=0.5)
        return OcpProblem(
            grid=grid, tgrid=tgrid, params=params, mode=mode, shape=shape,
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

    def test_restricted_shapes_pass(self):
        # start from a rotating control so the restricted gradients are nonzero
        # (at baseline the time-only gradient vanishes by mirror symmetry)
        for shape in (ControlShape.SPACE_ONLY, ControlShape.TIME_ONLY, ControlShape.CONSTANT):
            prob = self.make_problem(ControlMode.VELOCITY, shape=shape)
            u1 = Trajectory.constant(prob.grid, prob.tgrid, 0.4)
            prob = OcpProblem(
                grid=prob.grid, tgrid=prob.tgrid, params=prob.params, mode=prob.mode,
                shape=shape, weights=prob.weights, optimizer=prob.optimizer,
                q0=prob.q0, target=prob.target, initial=ControlSet(u1=u1),
            )
            report = gradient_check(prob, n_directions=2, seed=3)
            assert report.passed, shape
            assert any(abs(d.adjoint_value) > 1e-6 for d in report.directions)

    def test_symmetric_baseline_time_only_is_stationary(self):
        # mirror symmetry kills the theta-averaged gradient; both adjoint and
        # FD agree on zero and the check reports degenerate directions as such
        report = gradient_check(
            self.make_problem(ControlMode.VELOCITY, shape=ControlShape.TIME_ONLY),
            n_directions=2, seed=3,
        )
        assert report.passed
        assert all(abs(d.adjoint_value) < 1e-12 for d in report.directions)

    def test_tampered_gradient_fails(self, shift_gradient):
        shift_gradient(0.05)
        report = gradient_check(self.make_problem(ControlMode.VELOCITY), n_directions=2, seed=0)
        assert not report.passed

    @pytest.mark.parametrize("n_directions", [0, -1])
    def test_no_directions_rejected(self, n_directions):
        with pytest.raises(ValueError, match="n_directions >= 1"):
            gradient_check(self.make_problem(ControlMode.VELOCITY), n_directions=n_directions)

    def test_small_bias_fails(self, shift_gradient):
        # a uniform shift of 1e-3 still shows at the smallest eps, where the
        # correct gradient reads below 1e-4
        shift_gradient(1e-3)
        report = gradient_check(self.make_problem(ControlMode.VELOCITY), n_directions=2, seed=0)
        assert not report.passed

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
            probes = {n: u0[n] + steps[:, None, None] * arr[0] for n, arr in deltas.items()}
            batches.extend([
                ({n: arr[:half] for n, arr in probes.items()}, costs[0, :half]),
                ({n: arr[half:] for n, arr in probes.items()}, costs[0, half:]),
            ])
            return costs

        monkeypatch.setattr(optimizer, "_probe_costs", spy)
        report = gradient_check(problem, n_directions=1, seed=2)
        (u_plus, j_plus), (u_minus, j_minus) = batches
        check = report.directions[0]
        eps = np.asarray(check.eps)
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


def per_direction_probe_costs(problem, u0, deltas, steps):
    """The probe path that the streamed solve replaced, written out: each
    direction's probes solved as one stored stack by _solve_states, and each
    probe scored by the whole-history cost arithmetic."""
    grid, tgrid, weights, params = problem.grid, problem.tgrid, problem.weights, problem.params
    w, dth = tgrid.trapezoid_weights, grid.d_theta
    costs = []
    for d in range(len(next(iter(deltas.values())))):
        u = {n: u0[n] + steps[:, None, None] * arr[d] for n, arr in deltas.items()}
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


class TestStreamedProbes:
    """gradient_check solves every probe u0 + s*delta of a mode in one state
    solve that keeps no history: each probe's cost, and each check of the
    solve, must be what the probe gets when it is solved and scored alone."""

    STEPS = np.array([0.1, 1e-3, -0.1, -1e-3])

    @staticmethod
    def setup_probes(mode, alpha=0.0, shape=ControlShape.SPACE_TIME, n_dirs=2, seed=0):
        grid, tgrid, _, q0, z = small_setup(n_theta=32, n_t=100, T=0.5)
        restricted = shape is not ControlShape.SPACE_TIME
        problem = OcpProblem(
            grid=grid, tgrid=tgrid, params=CouplingParams(alpha=alpha, D=0.25, K=1.0), mode=mode,
            shape=shape, weights=CostWeights(), optimizer=OptimizerConfig(), q0=q0, target=z,
            initial=ControlSet(u1=Trajectory.constant(grid, tgrid, 0.4)) if restricted else ControlSet(),
        )
        rng = np.random.default_rng(seed)
        u0 = _baseline_arrays(problem)
        deltas = {
            n: np.stack([shape_project(_smooth_direction(rng, grid, tgrid), shape, tgrid) for _ in range(n_dirs)])
            for n in u0
        }
        return problem, u0, deltas

    @staticmethod
    def stored_stack(u0, deltas, steps):
        """Every probe as one stored (D*S, n_t+1, n_theta) stack per control."""
        return {n: np.concatenate([u0[n] + steps[:, None, None] * d for d in arr]) for n, arr in deltas.items()}

    def assert_costs_are_single_solves(self, problem, u0, deltas):
        costs = _probe_costs(problem, u0, deltas, self.STEPS)
        assert costs.shape == (2, len(self.STEPS))
        for (d, i), j in np.ndenumerate(costs):
            probe = {n: u0[n] + self.STEPS[i] * arr[d] for n, arr in deltas.items()}
            assert j == _evaluate(problem, probe)[2][0], (d, i)

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    @pytest.mark.parametrize("mode", list(ControlMode))
    def test_each_cost_bit_equal_to_its_own_solve(self, mode, alpha):
        self.assert_costs_are_single_solves(*self.setup_probes(mode, alpha))

    @pytest.mark.parametrize("shape", [ControlShape.SPACE_ONLY, ControlShape.TIME_ONLY, ControlShape.CONSTANT])
    def test_restricted_shape_cost_bit_equal_to_its_own_solve(self, shape):
        self.assert_costs_are_single_solves(*self.setup_probes(ControlMode.VELOCITY, 0.5, shape))

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
        u0, deltas = {"u1": 15.0 * ramp}, {"u1": np.stack([0.0 * ramp, -10.0 * ramp])}
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
        deltas["source"][0, 9, 3] = np.inf  # first used by the stage-2 rate of step 9
        deltas["source"][1, 5, 7] = np.nan  # and of step 5
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
        ("velocity", [], None, 6.3),
        ("interaction", ["initial_controls.perturbation_scale=0.3"], 1, 5.6),
    ], ids=["velocity", "interaction"])
    def test_line_search_holds_five_histories(self, mode, extra, seed, bound, traced_peak):
        # measured 6.01 (velocity: control, gradient, trial control, trial
        # state, uncontrolled state) and 5.35 (interaction, which starts off
        # the baseline and keeps no uncontrolled state), plus row blocks and
        # the problem; 9.52 and 8.21 when the state, adjoint and direction
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

    @pytest.mark.parametrize("mode, extra, seed, bound", [
        ("velocity", [], None, 8.1),
        ("interaction", ["initial_controls.perturbation_scale=0.3"], 1, 7.7),
    ], ids=["velocity", "interaction"])
    def test_ncg_descent_peak_histories(self, mode, extra, seed, bound, traced_peak):
        # measured 7.70 (velocity) and 7.35 (interaction), while the gradient
        # is made: NCG holds the last gradient and direction beside the
        # control, its state, adjoint and new gradient; _polak_ribiere itself
        # adds one history per control (its direction) and row blocks
        overrides = ["discretization.n_theta=64", "discretization.n_t=800", "discretization.T=4",
                     "optimizer.max_iters=4", f"mode={mode}", "optimizer.method=ncg", *extra]

        def build():
            return RunConfig.from_dict(load_config(None, overrides, None, seed)).problem()

        build()
        history = 801 * 64 * 8
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ResolutionWarning)
            peak = traced_peak(lambda: optimize(build()))
        assert peak <= bound * history

    @pytest.mark.parametrize("mode", [ControlMode.VELOCITY, ControlMode.LINEAR_SOURCE])
    def test_gradient_check_keeps_no_probe_history(self, mode, traced_peak):
        # the check problem, 10 directions x 18 probes: measured 29.2
        # (velocity) and 31.2 (linear_source) histories, of which the
        # directions are 10 and the probes' row sums 5.6 (velocity); 41.8
        # when each direction's 18 probe controls and states were stored
        runcfg = RunConfig.from_dict(load_config(None, ["check.n_theta=64", "check.n_t=200", "check.T=1.0"]))
        problem = coarse_problem(runcfg, mode)
        gradient_check(problem, n_directions=10, seed=0)
        peak = traced_peak(lambda: gradient_check(problem, n_directions=10, seed=0))
        assert peak <= 33 * 201 * 64 * 8


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
    def test_polak_ribiere(self, n_rows):
        grid, tgrid = CircleGrid(16), TimeGrid(1.0, n_rows - 1)
        rng = np.random.default_rng(n_rows)
        g, g_prev, e_prev = ({n: rng.standard_normal((n_rows, 16)) for n in ("u1", "u2")} for _ in range(3))
        for flip in (1.0, -1.0):  # a descent direction, then one that is not: restart at g
            e_prev = {n: flip * arr for n, arr in e_prev.items()}
            denom = sum(space_time_inner(grid, tgrid, g_prev[n], g_prev[n]) for n in g)
            beta = max(0.0, sum(space_time_inner(grid, tgrid, g[n], g[n] - g_prev[n]) for n in g) / denom)
            e_try = {n: g[n] + beta * e_prev[n] for n in g}
            descent = sum(space_time_inner(grid, tgrid, e_try[n], g[n]) for n in g) > 0.0
            got = optimizer._polak_ribiere(grid, tgrid, g, (g_prev, e_prev))
            assert (got is g) == (not descent)
            for n in g:
                assert np.array_equal(got[n], e_try[n] if descent else g[n])


class TestOptimize:
    def test_immediate_return_at_stationary_point(self):
        # target = the uncontrolled solution itself: gradient vanishes at start
        grid, tgrid, params, q0, _ = small_setup()
        z = solve_state(q0, ControlSet(), params, tgrid)
        prob = OcpProblem(
            grid=grid, tgrid=tgrid, params=params, mode=ControlMode.VELOCITY,
            shape=ControlShape.SPACE_TIME, weights=CostWeights(),
            optimizer=OptimizerConfig(), q0=q0, target=z,
        )
        res = optimize(prob)
        assert res.status == "converged_grad"
        assert res.final.iteration == 0
        assert res.final.grad_norm <= 1e-8
        assert res.final.J == 0.0

    def test_quadratic_bowl_contracts_geometrically(self):
        # vanishing tracking weight: J is the control energy alone
        grid, tgrid, params, q0, z = small_setup()
        c = 0.5
        u1 = Trajectory.constant(grid, tgrid, c)
        prob = OcpProblem(
            grid=grid, tgrid=tgrid, params=params, mode=ControlMode.VELOCITY,
            shape=ControlShape.SPACE_TIME,
            weights=CostWeights(alpha_r=0.0, alpha_t=1e-30),
            optimizer=OptimizerConfig(max_iters=15, initial_step=100.0),
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
            shape=ControlShape.SPACE_TIME, weights=CostWeights(),
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
            shape=ControlShape.SPACE_TIME, weights=CostWeights(),
            optimizer=OptimizerConfig(max_iters=10), q0=q0, target=z,
        )
        res = optimize(prob)
        costs = [r.J for r in res.iterates]
        assert all(b < a for a, b in zip(costs, costs[1:]))
        assert res.final.J == pytest.approx(res.iterates[-1].J)
        assert len(res.iterates) == 11
        assert all(np.isfinite(r.grad_norm) for r in res.iterates)

    def test_stalled_run_returns_the_solves_at_its_controls(self):
        # a stall solves the state and adjoint again at the returned controls,
        # here a rotating start the descent cannot leave
        grid, tgrid, params, q0, z = small_setup(n_theta=64, n_t=100, T=1.0)
        start = ControlSet(u1=Trajectory(grid, tgrid, 0.4 + 0.2 * np.cos(grid.theta)[None, :] * tgrid.times[:, None]))
        prob = OcpProblem(
            grid=grid, tgrid=tgrid, params=params, mode=ControlMode.VELOCITY,
            shape=ControlShape.SPACE_TIME, weights=CostWeights(),
            optimizer=OptimizerConfig(
                max_iters=10, initial_step=1e12, max_backtracks=1, armijo_c=0.999
            ),
            q0=q0, target=z, initial=start,
        )
        res = optimize(prob)
        assert res.status == "stalled"
        assert np.array_equal(res.controls.u1.data, start.u1.data)
        q = solve_state(q0, res.controls, params, tgrid)
        p = solve_adjoint(q, z, res.controls, params, (prob.weights.alpha_r, prob.weights.alpha_t))
        assert np.array_equal(res.state.data, q.data)
        assert np.array_equal(res.adjoint.data, p.data)

    def test_stalled_status_preserves_best(self):
        grid, tgrid, params, q0, z = small_setup(n_theta=64, n_t=100, T=1.0)
        prob = OcpProblem(
            grid=grid, tgrid=tgrid, params=params, mode=ControlMode.VELOCITY,
            shape=ControlShape.SPACE_TIME, weights=CostWeights(),
            optimizer=OptimizerConfig(
                max_iters=10, initial_step=1e12, max_backtracks=1, armijo_c=0.999
            ),
            q0=q0, target=z,
        )
        res = optimize(prob)
        assert res.status == "stalled"
        assert np.max(np.abs(res.controls.u1.data)) == 0.0  # kept the start point

    def test_space_only_stays_in_subspace(self):
        grid, tgrid, params, q0, z = small_setup(n_theta=64, n_t=100, T=1.0)
        prob = OcpProblem(
            grid=grid, tgrid=tgrid, params=params, mode=ControlMode.VELOCITY,
            shape=ControlShape.SPACE_ONLY, weights=CostWeights(),
            optimizer=OptimizerConfig(max_iters=5), q0=q0, target=z,
        )
        res = optimize(prob)
        u1 = res.controls.u1.data
        assert np.max(np.abs(u1 - u1[0][None, :])) == 0.0
        assert res.final.J < res.iterates[0].J

    def test_linear_source_mode_descends(self):
        grid, tgrid, params, q0, z = small_setup(n_theta=64, n_t=100, T=1.0)
        prob = OcpProblem(
            grid=grid, tgrid=tgrid, params=params, mode=ControlMode.LINEAR_SOURCE,
            shape=ControlShape.SPACE_TIME, weights=CostWeights(),
            optimizer=OptimizerConfig(max_iters=5), q0=q0, target=z,
        )
        res = optimize(prob)
        assert res.final.J < res.iterates[0].J
        assert np.max(np.abs(res.controls.source.data)) > 0.0

    def test_joint_mode_updates_both_controls(self):
        grid, tgrid, params, q0, z = small_setup(n_theta=64, n_t=100, T=1.0)
        prob = OcpProblem(
            grid=grid, tgrid=tgrid, params=params, mode=ControlMode.JOINT,
            shape=ControlShape.SPACE_TIME, weights=CostWeights(),
            optimizer=OptimizerConfig(max_iters=5), q0=q0, target=z,
        )
        res = optimize(prob)
        assert res.final.J < res.iterates[0].J
        assert np.max(np.abs(res.controls.u1.data)) > 0.0
        assert np.max(np.abs(res.controls.u2.data - params.K)) > 0.0

    def test_ncg_also_descends(self):
        grid, tgrid, params, q0, z = small_setup(n_theta=64, n_t=100, T=1.0)
        prob = OcpProblem(
            grid=grid, tgrid=tgrid, params=params, mode=ControlMode.VELOCITY,
            shape=ControlShape.SPACE_TIME, weights=CostWeights(),
            optimizer=OptimizerConfig(max_iters=8, method="ncg"), q0=q0, target=z,
        )
        res = optimize(prob)
        costs = [r.J for r in res.iterates]
        assert all(b < a for a, b in zip(costs, costs[1:]))

    def test_shift_equivariance(self):
        # rotating q0, target and the problem by delta rotates the optimum
        grid, tgrid, params, q0, z = small_setup(n_theta=32, n_t=60, T=0.5)
        shift = 8  # nodes
        q0_s = Field(grid, np.roll(q0.values, shift))
        z_s = Trajectory(grid, tgrid, np.roll(z.data, shift, axis=1))
        opt = OptimizerConfig(max_iters=8)
        base = optimize(OcpProblem(
            grid=grid, tgrid=tgrid, params=params, mode=ControlMode.VELOCITY,
            shape=ControlShape.SPACE_TIME, weights=CostWeights(), optimizer=opt,
            q0=q0, target=z,
        ))
        rot = optimize(OcpProblem(
            grid=grid, tgrid=tgrid, params=params, mode=ControlMode.VELOCITY,
            shape=ControlShape.SPACE_TIME, weights=CostWeights(), optimizer=opt,
            q0=q0_s, target=z_s,
        ))
        rolled = np.roll(base.controls.u1.data, shift, axis=1)
        assert np.max(np.abs(rot.controls.u1.data - rolled)) <= 1e-6

    @pytest.mark.parametrize("opt, resolves", [
        (OptimizerConfig(max_iters=6), 0),
        (OptimizerConfig(max_iters=4, method="ncg"), 0),
        (OptimizerConfig(max_iters=10, initial_step=1e12, max_backtracks=1, armijo_c=0.999), 1),
    ], ids=["gd", "ncg", "stalled"])
    def test_solve_counts(self, opt, resolves, monkeypatch):
        # state solves: the start and every line-search trial; adjoint solves:
        # the start and every accepted step; both as counted at the solvers.
        # A stalled run solves both once more, at the controls it returns.
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
            shape=ControlShape.SPACE_TIME, weights=CostWeights(), optimizer=opt, q0=q0, target=z,
        ))
        accepted = len(res.iterates) - 1
        assert (res.status == "stalled") == bool(resolves)
        assert res.state_solves == 1 + resolves + res.line_search_trials == calls["state"]
        assert res.adjoint_solves == 1 + resolves + accepted == calls["adjoint"]
        assert res.line_search_trials >= accepted
        if resolves:
            # two line searches of two trials each stall at the start
            assert (res.state_solves, res.adjoint_solves, res.line_search_trials) == (6, 2, 4)
