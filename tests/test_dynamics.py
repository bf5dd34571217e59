import numpy as np
import pytest

from kurasteer import (
    CFLError,
    CircleGrid,
    ControlSet,
    CouplingParams,
    Field,
    TimeGrid,
    Trajectory,
    integrate,
    interaction_field,
    solve_adjoint,
    solve_state,
    sync_series,
)
from kurasteer.dynamics import _adjoint_rate, advective_rhs_values
from kurasteer.grid import random_bandlimited
from kurasteer.oracles import interaction_field_quadrature, stationary_fixed_point
from kurasteer.scenarios import DensitySpec


def gaussian_q0(grid, mean=np.pi / 2, sigma=0.8):
    return DensitySpec(kind="wrapped_gaussian", mean=mean, sigma=sigma).build(grid)


class TestTimeGrid:
    def test_spacing(self):
        tg = TimeGrid(10.0, 2000)
        assert tg.dt == pytest.approx(0.005)
        assert tg.times[-1] == pytest.approx(10.0)
        assert tg.trapezoid_weights.sum() == pytest.approx(10.0)

    def test_invalid(self):
        with pytest.raises(ValueError):
            TimeGrid(-1.0, 10)
        with pytest.raises(ValueError):
            TimeGrid(1.0, 0)


class TestTrajectory:
    def test_shape_validation(self, grid):
        tg = TimeGrid(1.0, 10)
        with pytest.raises(ValueError):
            Trajectory(grid, tg, np.zeros((5, grid.n_theta)))

    def test_from_field_replicates(self, grid):
        tg = TimeGrid(1.0, 4)
        f = Field.constant(grid, 2.0)
        traj = Trajectory.from_field(f, tg)
        assert traj.data.shape == (5, grid.n_theta)
        assert np.all(traj.data == 2.0)

    def test_immutable(self, grid):
        traj = Trajectory.zeros(grid, TimeGrid(1.0, 3))
        with pytest.raises(ValueError):
            traj.data[0, 0] = 1.0


class TestStateRhs:
    def test_uniform_state_stationary(self, grid, params):
        q = np.full(grid.n_theta, 1 / (2 * np.pi))
        u1 = np.full(grid.n_theta, 0.7)
        u2 = np.full(grid.n_theta, params.K)
        rhs = advective_rhs_values(grid, q, u1, u2, params.alpha, np.zeros(grid.n_theta))
        assert np.max(np.abs(rhs)) <= 1e-12

    def test_pure_source(self, grid, params):
        q = np.full(grid.n_theta, 1 / (2 * np.pi))
        zero = np.zeros(grid.n_theta)
        src = np.sin(2 * grid.theta)
        rhs = advective_rhs_values(grid, q, zero, zero, params.alpha, src)
        assert np.max(np.abs(rhs - src)) <= 1e-14

    def test_matches_quadrature_oracle(self, grid, params, cosine_density):
        # -(d/dtheta)(w[q] q) with w from the O(n^2) oracle and spectral derivative
        q = cosine_density
        zero = np.zeros(grid.n_theta)
        rhs = advective_rhs_values(grid, q.values, zero, np.ones(grid.n_theta), params.alpha, zero)
        w_oracle = interaction_field_quadrature(q, params.alpha)
        expected = -grid.deriv(w_oracle.values * q.values)
        assert np.max(np.abs(rhs - expected)) <= 1e-10

    def test_grid_mismatch(self, grid, params):
        # a control row sampled on another grid cannot combine with the state
        other = CircleGrid(64)
        with pytest.raises(ValueError):
            advective_rhs_values(
                grid,
                np.ones(grid.n_theta),
                np.zeros(other.n_theta),
                np.ones(grid.n_theta),
                params.alpha,
                np.zeros(grid.n_theta),
            )


class TestSolveState:
    def test_heat_equation_exact(self, grid, cosine_density):
        # u1 = u2 = 0: only diffusion acts, handled by the exact propagator
        params = CouplingParams(D=0.25, K=1.0)
        tg = TimeGrid(1.0, 200)
        controls = ControlSet(u2=Trajectory.zeros(grid, tg))
        traj = solve_state(cosine_density, controls, params, tg)
        exact = (1 + np.exp(-0.25) * np.cos(grid.theta)) / (2 * np.pi)
        assert np.max(np.abs(traj.data[-1] - exact)) <= 1e-8

    def test_second_order_in_time_with_transport(self, grid, params):
        q0 = gaussian_q0(grid)
        ref = solve_state(q0, ControlSet(), params, TimeGrid(1.0, 6400)).data[-1]
        errs = []
        for n_t in (200, 400):
            sol = solve_state(q0, ControlSet(), params, TimeGrid(1.0, n_t)).data[-1]
            errs.append(np.max(np.abs(sol - ref)))
        assert errs[0] / errs[1] >= 3.5

    def test_mass_conserved_random_controls(self, grid, params, rng):
        tg = TimeGrid(1.0, 400)
        u1 = np.outer(np.ones(tg.n_t + 1), 0.5 * np.sin(grid.theta))
        u2 = np.full((tg.n_t + 1, grid.n_theta), params.K)
        u2 += 0.3 * np.cos(grid.theta)[None, :]
        controls = ControlSet(u1=Trajectory(grid, tg, u1), u2=Trajectory(grid, tg, u2))
        traj = solve_state(gaussian_q0(grid), controls, params, tg)
        assert np.max(np.abs(traj.mass() - 1.0)) <= 1e-10

    def test_transport_bound_along_solve(self, grid, params):
        tg = TimeGrid(10.0, 2000)
        traj = solve_state(gaussian_q0(grid), ControlSet(), params, tg)
        for k in range(0, tg.n_t + 1, 50):
            w = interaction_field(traj.field_at(k), params.alpha)
            assert np.max(np.abs(w.values)) <= 1.0 + 1e-6

    def test_approximate_positivity_default_resolution(self, grid, params):
        traj = solve_state(gaussian_q0(grid), ControlSet(), params, TimeGrid(10.0, 2000))
        assert traj.data.min() >= -1e-6

    def test_uncontrolled_reaches_fixed_point(self, grid, params):
        traj = solve_state(gaussian_q0(grid), ControlSet(), params, TimeGrid(40.0, 2000))
        _, R, _, _ = sync_series(traj)
        fp = stationary_fixed_point(params)
        assert abs(R[-1] - fp.R_star) / fp.R_star <= 0.02
        # nondecreasing after the initial transient
        tail = R[len(R) // 4 :]
        assert np.all(np.diff(tail) >= -1e-7)

    def test_cfl_violation_rejected(self, grid, params):
        tg = TimeGrid(10.0, 100)  # dt = 0.1 >> CFL limit for speed ~1
        with pytest.raises(CFLError, match="need dt <="):
            solve_state(gaussian_q0(grid), ControlSet(), params, tg)

    def test_unnormalized_q0_rejected(self, grid, params):
        with pytest.raises(ValueError, match="integrate to 1"):
            solve_state(Field.constant(grid, 1.0), ControlSet(), params, TimeGrid(1.0, 200))

    def test_source_injects_mass(self, grid, params):
        # linear-source mode: a nonzero-mean source changes the total mass
        tg = TimeGrid(1.0, 200)
        src = Trajectory.constant(grid, tg, 0.1 / (2 * np.pi))
        traj = solve_state(gaussian_q0(grid), ControlSet(source=src), params, tg)
        assert integrate(traj.field_at(tg.n_t)) == pytest.approx(1.1, abs=1e-6)


class TestAdjoint:
    def test_constant_p_leaves_only_mismatch(self, grid, params):
        p = np.full(grid.n_theta, 4.2)
        q = np.full(grid.n_theta, 1 / (2 * np.pi))
        u1 = np.full(grid.n_theta, 0.3)
        u2 = np.ones(grid.n_theta)
        mismatch = np.cos(grid.theta)
        out = _adjoint_rate(grid, p, q, u1, u2, params.alpha, mismatch, alpha_r=2.0)
        assert np.max(np.abs(out - 2.0 * mismatch)) <= 1e-12

    def test_zero_everywhere(self, grid, params):
        zero = np.zeros(grid.n_theta)
        out = _adjoint_rate(grid, zero, zero, zero, zero, params.alpha, zero, alpha_r=1.0)
        assert np.max(np.abs(out)) <= 1e-15

    def test_duality_spot_check(self, grid, params, rng):
        # <w*[u2 p' q], psi> == <w[psi], u2 p' q> for random band-limited fields
        from kurasteer import interaction_field_adjoint

        p = random_bandlimited(grid, rng)
        q = random_bandlimited(grid, rng)
        psi = random_bandlimited(grid, rng)
        u2 = 1.0 + 0.5 * np.cos(grid.theta)
        inner_arg = u2 * grid.deriv(p.values) * q.values
        lhs = grid.quad(interaction_field_adjoint(Field(grid, inner_arg), params.alpha).values * psi.values)
        rhs = grid.quad(interaction_field(psi, params.alpha).values * inner_arg)
        assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(lhs)))

    def test_target_equals_state_gives_zero_adjoint(self, grid, params):
        tg = TimeGrid(1.0, 200)
        q_traj = solve_state(gaussian_q0(grid), ControlSet(), params, tg)
        p_traj = solve_adjoint(q_traj, q_traj, ControlSet(), params, (1.0, 10.0))
        assert np.max(np.abs(p_traj.data)) == 0.0

    def test_backward_heat_decay(self, grid):
        # alpha_r = 0, u1 = u2 = 0: p solves the heat equation backward in time
        params = CouplingParams(D=0.25, K=1.0)
        tg = TimeGrid(1.0, 200)
        q_traj = Trajectory.from_field(Field.constant(grid, 1 / (2 * np.pi)), tg)
        z_data = q_traj.data.copy()
        z_data[-1] = z_data[-1] - np.cos(grid.theta)  # terminal mismatch = cos
        z_traj = Trajectory(grid, tg, z_data)
        controls = ControlSet(u2=Trajectory.zeros(grid, tg))
        p = solve_adjoint(q_traj, z_traj, controls, params, (0.0, 1.0))
        exact0 = np.exp(-0.25) * np.cos(grid.theta)
        assert np.max(np.abs(p.data[0] - exact0)) <= 1e-10

    def test_linear_source_specialization(self, grid, params, rng):
        # with u2 = K = 1 and zero lag the adjoint kernel flips sign, so the
        # general backward rate reduces to w[q] p' - w[q p'] + mismatch
        from kurasteer.coupling import interaction_values

        p = random_bandlimited(grid, rng).values
        q = random_bandlimited(grid, rng).values
        mis = random_bandlimited(grid, rng).values
        ones = np.ones(grid.n_theta)
        general = _adjoint_rate(grid, p, q, 0.0 * ones, ones, 0.0, mis, 1.0)
        dp = grid.deriv(p)
        reduced = (
            interaction_values(grid, q, 0.0) * dp
            - interaction_values(grid, q * dp, 0.0)
            + mis
        )
        assert np.max(np.abs(general - reduced)) <= 1e-12
