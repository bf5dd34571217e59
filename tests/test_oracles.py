import numpy as np
import pytest

from kurasteer import (
    CircleGrid,
    ControlSet,
    CouplingParams,
    Field,
    TimeGrid,
    Trajectory,
    rotating_wave,
    solve_state,
    stationary_density,
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


def bessel_ratio(x: float) -> float:
    """I_1(x)/I_0(x) as the ratio of the integrals of exp(x*cos)*cos and
    exp(x*cos) by the rectangle rule, spectrally exact on 256 nodes."""
    theta = np.linspace(0.0, 2 * np.pi, 256, endpoint=False)
    weight = np.exp(x * np.cos(theta))
    return float((weight * np.cos(theta)).sum() / weight.sum())


class TestRotatingWave:
    @pytest.mark.parametrize(
        "alpha, R_star, omega",
        [(0.0, 0.83146202, 0.0), (0.2, 0.82192179, -0.13938148),
         (0.5, 0.75788033, -0.31809012), (1.0, 0.26492589, -0.43738768)],
    )
    def test_reference_parameters(self, alpha, R_star, omega):
        wave = rotating_wave(CouplingParams(alpha=alpha, D=0.25, K=1.0))
        assert wave.R_star == pytest.approx(R_star, abs=1e-8)
        assert wave.omega == pytest.approx(omega, abs=1e-8)
        assert wave.modes[0] == 1.0 and wave.modes[1] == pytest.approx(wave.R_star, abs=1e-14)

    def test_zero_lag_solves_the_bessel_ratio_equation(self, grid, params):
        # at alpha = 0 the profile is exp(K*R/D*cos) and R = I_1/I_0 of K*R/D
        R = rotating_wave(params).R_star  # K=1, D=0.25
        assert bessel_ratio(4.0 * R) == pytest.approx(R, abs=1e-13)
        von_mises = np.exp(4.0 * R * np.cos(grid.theta - 2.1))
        q = stationary_density(grid, params, psi=2.1)
        assert np.max(np.abs(q.values - von_mises / grid.quad(von_mises))) <= 1e-12

    @pytest.mark.parametrize(
        "params",
        [CouplingParams(D=0.5, K=1.0), CouplingParams(D=50.0, K=1.0),
         CouplingParams(alpha=1.3, D=0.25, K=1.0), CouplingParams(alpha=-2.0, D=0.25, K=1.0)],
        ids=["D=0.5", "D=50", "alpha=1.3", "alpha=-2"],
    )
    def test_incoherent_at_or_below_threshold(self, params):
        # K*cos(alpha)/D <= 2: only the uniform state solves
        wave = rotating_wave(params)
        assert wave.R_star == 0.0 and wave.omega == 0.0
        assert wave.modes[0] == 1.0 and not np.any(wave.modes[1:])

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            rotating_wave(CouplingParams(D=0.0, K=1.0))
        with pytest.raises(ValueError):
            rotating_wave(CouplingParams(D=0.25, K=-1.0))

    def test_strong_lagged_coupling_finds_the_locked_bump(self):
        # from Omega = 0 Newton falls onto the trivial root R = 0 here; from the
        # locked bump's rate it finds the coherent wave, which rotates at nearly
        # that rate, -K*R*sin(alpha)
        wave = rotating_wave(CouplingParams(alpha=1.2, D=0.25, K=20.0))
        assert wave.R_star > 0.95 and abs(wave.modes[1] - wave.R_star) <= 1e-14
        assert wave.omega == pytest.approx(-20.0 * wave.R_star * np.sin(1.2), rel=0.05)

    @pytest.mark.parametrize("K, depth", [(15.0, 78), (40.0, 127)])
    def test_strong_coupling_is_resolved(self, K, depth):
        # K/D = 60 and 160, where 64 modes left the last one above roundoff:
        # the depth is ceil(10*sqrt(K/D)), and the wave solves R = I_1/I_0(K*R/D)
        wave = rotating_wave(CouplingParams(D=0.25, K=K))
        assert len(wave.modes) == depth + 1 and abs(wave.modes[-1]) <= 1e-14
        assert bessel_ratio(4.0 * K * wave.R_star) == pytest.approx(wave.R_star, abs=1e-13)

    def test_unresolved_wave_names_its_parameters(self, monkeypatch):
        # one Newton step leaves the residual above the tolerance
        monkeypatch.setattr(oracles, "NEWTON_MAX_STEPS", 1)
        with pytest.raises(RuntimeError, match=r"64 modes at CouplingParams\(alpha=0.0, D=0.25, K=1.0\)"):
            rotating_wave(CouplingParams(D=0.25, K=1.0))

    def test_stationary_density_order_parameter(self, grid):
        params = CouplingParams(alpha=0.5, D=0.25, K=1.0)
        psi = 2.1
        q = stationary_density(grid, params, psi=psi)
        assert q.values.min() >= 0.0
        assert grid.quad(q.values) == pytest.approx(1.0, abs=1e-12)
        R, psi_q = polar_order(grid, q.values)
        assert R == pytest.approx(rotating_wave(params).R_star, abs=1e-8)
        assert psi_q == pytest.approx(psi, abs=1e-8)


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
