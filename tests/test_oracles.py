import numpy as np
import pytest

from kurasteer import (
    CircleGrid,
    ControlSet,
    CouplingParams,
    Field,
    TimeGrid,
    Trajectory,
    bessel_ratio,
    solve_state,
    stationary_density,
    stationary_fixed_point,
    sync_series,
)
from kurasteer import oracles
from kurasteer.coupling import polar_order
from kurasteer.oracles import (
    ParticleEnsemble,
    interaction_quadrature,
    moment_interaction_drift,
    pairwise_interaction_drift,
    simulate_particles,
)
from kurasteer.scenarios import DensitySpec


class TestQuadratureOracle:
    def test_uniform_vanishes(self, grid):
        q = np.full(grid.n_theta, 1 / (2 * np.pi))
        assert np.max(np.abs(interaction_quadrature(grid, q, 0.0))) <= 1e-14

    def test_one_hot_spike(self, grid):
        # grid spike of unit mass: the quadrature reduces to a single kernel term
        j0 = 37
        values = np.zeros(grid.n_theta)
        values[j0] = 1.0 / grid.d_theta
        w = interaction_quadrature(grid, values, alpha=0.3)
        expected = np.sin(grid.theta[j0] - grid.theta - 0.3)
        assert np.max(np.abs(w - expected)) <= 1e-12


class TestBesselRatio:
    def test_small_argument_series(self):
        # I1/I0 ~ x/2 - x^3/16 for small x
        for x in (1e-4, 1e-3, 1e-2):
            assert bessel_ratio(x) == pytest.approx(x / 2 - x**3 / 16, abs=x**5)

    def test_large_argument_tends_to_one(self):
        assert bessel_ratio(500.0) == pytest.approx(1.0, abs=2e-3)
        assert bessel_ratio(500.0) < 1.0


class TestStationaryFixedPoint:
    def test_below_threshold_incoherent(self):
        # at coupling/diffusion = 2 the ratio curve stays below the diagonal
        fp = stationary_fixed_point(CouplingParams(D=0.5, K=1.0))
        assert fp.R_star == 0.0 and fp.converged
        for r in np.linspace(0.01, 0.99, 99):
            assert bessel_ratio(2.0 * r) - r < 0.0

    def test_reference_parameters(self, params):
        fp = stationary_fixed_point(params)  # K=1, D=0.25
        assert fp.converged
        assert fp.residual <= 1e-10
        assert fp.R_star == pytest.approx(0.831462, abs=1e-5)
        assert bessel_ratio(4.0 * fp.R_star) == pytest.approx(fp.R_star, abs=1e-10)

    def test_strong_diffusion_incoherent(self):
        fp = stationary_fixed_point(CouplingParams(D=50.0, K=1.0))
        assert fp.R_star == 0.0 and fp.converged

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            stationary_fixed_point(CouplingParams(D=0.0, K=1.0))
        with pytest.raises(ValueError):
            stationary_fixed_point(CouplingParams(D=0.25, K=-1.0))
        with pytest.raises(ValueError):
            stationary_fixed_point(CouplingParams(D=0.25, K=1.0, alpha=0.3))

    def test_stationary_density_order_parameter(self, grid, params):
        psi = 2.1
        q = stationary_density(grid, params, psi=psi)
        assert grid.quad(q.values) == pytest.approx(1.0, abs=1e-12)
        R, psi_q = polar_order(grid, q.values)
        fp = stationary_fixed_point(params)
        assert R == pytest.approx(fp.R_star, abs=1e-8)
        assert psi_q == pytest.approx(psi, abs=1e-10)


class TestParticleEnsemble:
    def test_requires_two_particles(self):
        with pytest.raises(ValueError):
            ParticleEnsemble(thetas=np.zeros(1), rng_seed=0)

    def test_requires_one_dimensional_phases(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            ParticleEnsemble(thetas=np.zeros((2, 2)), rng_seed=0)

    def test_wraps_phases(self):
        ens = ParticleEnsemble(thetas=np.array([-1.0, 7.0, 2.0]), rng_seed=0)
        assert np.all(ens.thetas >= 0.0) and np.all(ens.thetas < 2 * np.pi)

    def test_from_density_matches_target_moments(self, grid):
        q0 = DensitySpec(kind="wrapped_gaussian", mean=np.pi / 2, sigma=0.8).build(grid)
        ens = ParticleEnsemble.from_density(q0, 20000, rng_seed=7)
        z = np.exp(1j * ens.thetas).mean()
        R, psi = polar_order(grid, q0.values)
        assert abs(z) == pytest.approx(R, abs=0.02)
        assert np.angle(z) % (2 * np.pi) == pytest.approx(psi, abs=0.02)


class TestInteractionDrift:
    @pytest.mark.parametrize("N", [8, 64, 512])
    def test_moment_trick_equals_pairwise(self, N, rng):
        thetas = rng.uniform(0, 2 * np.pi, N)
        alpha = rng.uniform(0, 2 * np.pi)
        _, fast = moment_interaction_drift(thetas, alpha)
        slow = pairwise_interaction_drift(thetas, alpha)
        assert np.max(np.abs(fast - slow)) <= 1e-10


class TestSimulateParticles:
    def test_frozen_without_forcing(self):
        # no coupling, no velocity, no noise: phases do not move
        params = CouplingParams(D=0.0, K=0.0)
        tg = TimeGrid(1.0, 50)
        ens = ParticleEnsemble(thetas=np.linspace(0, 5, 16), rng_seed=0)
        R, _ = simulate_particles(ens, ControlSet(), params, tg)
        assert np.max(np.abs(R - R[0])) <= 1e-12

    def test_synchronized_cluster_stays_locked(self):
        params = CouplingParams(D=0.0, K=1.0, alpha=0.0)
        tg = TimeGrid(1.0, 50)
        ens = ParticleEnsemble(thetas=np.full(32, 1.3), rng_seed=0)
        R, psi = simulate_particles(ens, ControlSet(), params, tg)
        assert np.all(np.abs(R - 1.0) <= 1e-12)
        assert np.all(np.abs(psi - 1.3) <= 1e-10)

    def test_velocity_control_follows_characteristics(self, grid):
        # noise-free, interaction-free: each particle obeys d theta/dt = u1
        params = CouplingParams(D=0.0, K=0.0)
        tg = TimeGrid(1.0, 400)
        u1_profile = 0.5 + 0.3 * np.sin(grid.theta)
        u1 = Trajectory(grid, tg, np.tile(u1_profile, (tg.n_t + 1, 1)))
        controls = ControlSet(u1=u1)

        theta0 = np.pi / 2
        ens = ParticleEnsemble(thetas=np.full(2, theta0), rng_seed=0)
        _, psi = simulate_particles(ens, controls, params, tg)

        q0 = DensitySpec(kind="wrapped_gaussian", mean=theta0, sigma=0.25).build(grid)
        traj = solve_state(q0, controls, params, tg)
        _, _, psi_pde, _ = sync_series(traj)
        assert abs(psi[-1] - psi_pde[-1]) <= 0.05

    def test_matches_meanfield_order_parameter(self, grid, params):
        tg = TimeGrid(10.0, 2000)
        q0 = DensitySpec(kind="wrapped_gaussian", mean=np.pi / 2, sigma=0.8).build(grid)
        traj = solve_state(q0, ControlSet(), params, tg)
        _, R_pde, _, _ = sync_series(traj)
        ens = ParticleEnsemble.from_density(q0, 2000, rng_seed=3)
        R_N, _ = simulate_particles(ens, ControlSet(), params, tg)
        assert np.max(np.abs(R_N - R_pde)) <= 0.05

    def test_baseline_history_equals_no_history(self):
        # the swarm samples a history on that history's own grid; an explicit
        # baseline u2 = K moves it exactly as the scalar baseline does
        grid, tg = CircleGrid(64), TimeGrid(1.0, 200)
        params = CouplingParams(alpha=0.5, D=0.25, K=1.3)
        q0 = DensitySpec(kind="wrapped_gaussian", mean=np.pi / 2, sigma=0.8).build(grid)
        ens = ParticleEnsemble.from_density(q0, 500, rng_seed=2)
        explicit = simulate_particles(ens, ControlSet(u2=Trajectory.constant(grid, tg, params.K)), params, tg)
        absent = simulate_particles(ens, ControlSet(), params, tg)
        assert np.array_equal(explicit[0], absent[0]) and np.array_equal(explicit[1], absent[1])

    def test_non_advecting_control_rejected(self):
        # the swarm has no birth/death process: an additive source cannot act
        grid = CircleGrid(32)
        tg = TimeGrid(1.0, 50)
        controls = ControlSet(source=Trajectory.constant(grid, tg, 5.0))
        q0 = DensitySpec(kind="wrapped_gaussian", mean=np.pi / 2, sigma=0.8).build(grid)
        ens = ParticleEnsemble.from_density(q0, 500, rng_seed=0)
        with pytest.raises(ValueError, match="source"):
            simulate_particles(ens, controls, CouplingParams(), tg)

    def test_deterministic_given_seed(self, params):
        tg = TimeGrid(1.0, 100)
        q0 = DensitySpec(kind="uniform").build(CircleGrid(64))
        a = simulate_particles(ParticleEnsemble.from_density(q0, 200, 5), ControlSet(), params, tg)
        b = simulate_particles(ParticleEnsemble.from_density(q0, 200, 5), ControlSet(), params, tg)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_swarm_moves_by_the_checked_moment_drift(self, params, monkeypatch):
        # criterion 10 checks moment_interaction_drift against the pairwise
        # sum, and the swarm moves by its drift: doubling that drift moves
        # the swarm exactly as doubling K does
        tg = TimeGrid(1.0, 100)
        q0 = DensitySpec(kind="wrapped_gaussian", mean=np.pi / 2, sigma=0.8).build(CircleGrid(64))
        ens = ParticleEnsemble.from_density(q0, 200, 5)
        R, _ = simulate_particles(ens, ControlSet(), params, tg)
        R_strong, _ = simulate_particles(ens, ControlSet(), CouplingParams(D=params.D, K=2.0 * params.K), tg)
        exact = oracles.moment_interaction_drift

        def doubled(thetas, alpha):
            z, drift = exact(thetas, alpha)
            return z, 2.0 * drift

        monkeypatch.setattr(oracles, "moment_interaction_drift", doubled)
        R_doubled, _ = simulate_particles(ens, ControlSet(), params, tg)
        assert not np.array_equal(R_doubled, R)
        assert np.array_equal(R_doubled, R_strong)
