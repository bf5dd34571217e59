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
    TimeGrid,
    Trajectory,
    cost,
    gradient_check,
    optimize,
    reduced_gradient,
    solve_adjoint,
    solve_state,
)
from kurasteer.checks import check_gradients
from kurasteer.config import RunConfig, load_config
from kurasteer.optimizer import _advective_caps, _baseline_arrays, shape_project, space_time_inner
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
        other = Trajectory.zeros(grid, TimeGrid(0.5, 25))
        with pytest.raises(ValueError):
            cost(q, other, ControlSet(), CostWeights(), ControlMode.VELOCITY, params)


class TestReducedGradient:
    def test_zero_adjoint_baseline_controls(self):
        grid, tgrid, params, q0, z = small_setup()
        q = solve_state(q0, ControlSet(), params, tgrid)
        p = Trajectory.zeros(grid, tgrid)
        for mode in ControlMode:
            g = reduced_gradient(q, p, ControlSet(), CostWeights(), mode, params)
            for arr in g.values():
                assert np.max(np.abs(arr)) == 0.0

    def test_zero_adjoint_constant_u1(self):
        grid, tgrid, params, q0, z = small_setup()
        c = 0.31
        u1 = Trajectory.constant(grid, tgrid, c)
        q = solve_state(q0, ControlSet(u1=u1), params, tgrid)
        p = Trajectory.zeros(grid, tgrid)
        g = reduced_gradient(q, p, ControlSet(u1=u1), CostWeights(), ControlMode.VELOCITY, params)
        assert np.max(np.abs(g["u1"] - 1e-3 * c)) <= 1e-15

    def test_quadratic_only_gradient_exact(self, rng):
        # no PDE coupling: J_u alone, gradient exactly beta*u, FD to roundoff
        grid, tgrid, params, q0, z = small_setup()
        w = CostWeights(alpha_r=0.0, alpha_t=0.0)
        u1 = Trajectory(grid, tgrid, 0.2 * rng.standard_normal((tgrid.n_t + 1, grid.n_theta)))
        cs = ControlSet(u1=u1)
        q = solve_state(q0, cs, params, tgrid)
        p = Trajectory.zeros(grid, tgrid)
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

    def test_tampered_gradient_fails(self):
        report = gradient_check(
            self.make_problem(ControlMode.VELOCITY), n_directions=2, seed=0, bias=0.05
        )
        assert not report.passed

    def test_small_bias_fails(self):
        # a uniform shift of 1e-3 still shows at the smallest eps, where the
        # correct gradient reads below 1e-4
        report = gradient_check(
            self.make_problem(ControlMode.VELOCITY), n_directions=2, seed=0, bias=1e-3
        )
        assert not report.passed

    def test_default_check_problem_seed1_passes(self):
        # interaction direction 3 is most accurate at the largest eps and then
        # rises to the O(dt) floor: a correct gradient that must pass
        runcfg = RunConfig.from_dict(load_config(seed=1))
        results = check_gradients(runcfg)
        assert all(r["passed"] for r in results)
        assert all(max(r["floor_rel_errors"]) <= 1e-4 for r in results)


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
