import numpy as np
import pytest

from kurasteer import (
    CircleGrid,
    ControlSet,
    CouplingParams,
    Field,
    TimeGrid,
    solve_state,
    sync_series,
)
from kurasteer.coupling import (
    adjoint_values,
    interaction_coefficient_table,
    interaction_values,
    moments_values,
    polar_order,
)
from kurasteer.grid import random_bandlimited
from kurasteer.oracles import adjoint_quadrature, interaction_quadrature
from kurasteer.scenarios import DensitySpec


class TestCouplingParams:
    def test_negative_diffusion_rejected(self):
        with pytest.raises(ValueError):
            CouplingParams(D=-0.1)

    def test_defaults(self, params):
        assert params.alpha == 0.0 and params.D == 0.25 and params.K == 1.0


class TestMoments:
    def test_uniform(self, grid):
        c_c, c_s = moments_values(grid, Field.constant(grid, 1 / (2 * np.pi)).values)
        assert abs(c_c) <= 1e-14 and abs(c_s) <= 1e-14

    def test_cosine_density(self, cosine_density):
        # oracle: dense quadrature of cos(t)*(1+cos t)/2pi gives exactly 1/2
        c_c, c_s = moments_values(cosine_density.grid, cosine_density.values)
        assert c_c == pytest.approx(0.5, abs=1e-12)
        assert abs(c_s) <= 1e-14

    def test_narrow_gaussian_delta_limit(self, grid):
        q = DensitySpec(kind="wrapped_gaussian", mean=np.pi / 2, sigma=0.05).build(grid)
        c_c, c_s = moments_values(grid, q.values)
        assert abs(c_c) <= 2e-3
        assert c_s == pytest.approx(1.0, abs=2e-3)


class TestOrderParameter:
    def test_uniform_incoherent(self, grid):
        R, _ = polar_order(grid, Field.constant(grid, 1 / (2 * np.pi)).values)
        assert R <= 1e-14

    def test_cosine_density(self, cosine_density):
        R, psi = polar_order(cosine_density.grid, cosine_density.values)
        assert R == pytest.approx(0.5, abs=1e-12)
        assert psi == pytest.approx(0.0, abs=1e-12) or psi == pytest.approx(2 * np.pi, abs=1e-12)

    def test_narrow_gaussian_phase_locked(self, grid):
        q = DensitySpec(kind="wrapped_gaussian", mean=3 * np.pi / 2, sigma=0.02).build(grid)
        R, psi = polar_order(grid, q.values)
        assert R == pytest.approx(1.0, abs=1e-3)
        assert psi == pytest.approx(3 * np.pi / 2, abs=1e-6)

    def test_shift_equivariance(self, grid, rng):
        q = DensitySpec(kind="wrapped_gaussian", mean=1.0, sigma=0.5).build(grid)
        R, psi = polar_order(grid, q.values)
        for shift_nodes in (1, 17, 64):
            delta = shift_nodes * grid.d_theta
            R_shifted, psi_shifted = polar_order(grid, np.roll(q.values, shift_nodes))
            assert R_shifted == pytest.approx(R, abs=1e-10)
            assert (psi_shifted - psi) % (2 * np.pi) == pytest.approx(delta, abs=1e-10)

    def test_sync_series_is_order_parameter_of_every_row(self, coarse_grid):
        # the series that timeseries.csv and summary.json report is
        # polar_order of each row, however the rows are stacked
        params = CouplingParams(alpha=0.5, D=0.25, K=1.3)
        q0 = DensitySpec(kind="wrapped_gaussian", mean=1.0, sigma=0.6).build(coarse_grid)
        traj = solve_state(q0, ControlSet(), params, TimeGrid(1.0, 200))
        _, R, psi, _ = sync_series(traj)
        rows = [polar_order(coarse_grid, row) for row in traj.data]
        assert np.array_equal(R, [R_k for R_k, _ in rows])
        assert np.array_equal(psi, [psi_k for _, psi_k in rows])


class TestInteractionField:
    def test_uniform_vanishes(self, grid):
        q = np.full(grid.n_theta, 1 / (2 * np.pi))
        for alpha in (0.0, 0.4, np.pi / 2):
            assert np.max(np.abs(interaction_values(grid, q, alpha))) <= 1e-14

    def test_cosine_density_zero_lag(self, grid, cosine_density):
        w = interaction_values(grid, cosine_density.values, 0.0)
        assert np.max(np.abs(w + np.sin(grid.theta) / 2)) <= 1e-12

    def test_cosine_density_quarter_lag(self, grid, cosine_density):
        w = interaction_values(grid, cosine_density.values, np.pi / 2)
        assert np.max(np.abs(w + np.cos(grid.theta) / 2)) <= 1e-12

    def test_adjoint_kernel_cosine_density(self, grid, cosine_density):
        ws = adjoint_values(grid, cosine_density.values, 0.0)
        assert np.max(np.abs(ws - np.sin(grid.theta) / 2)) <= 1e-12

    def test_adjoint_kernel_constant_vanishes(self, grid):
        g = np.full(grid.n_theta, 0.3)
        assert np.max(np.abs(adjoint_values(grid, g, 1.1))) <= 1e-13

    @pytest.mark.parametrize("n", [16, 64, 128])
    def test_matches_quadrature_oracle(self, n, rng):
        grid = CircleGrid(n)
        for _ in range(40):
            f = random_bandlimited(grid, rng).values
            alpha = rng.uniform(0, 2 * np.pi)
            scale = max(1.0, np.max(np.abs(f)))
            err_w = np.max(np.abs(interaction_values(grid, f, alpha) - interaction_quadrature(grid, f, alpha)))
            err_ws = np.max(np.abs(adjoint_values(grid, f, alpha) - adjoint_quadrature(grid, f, alpha)))
            assert err_w / scale <= 1e-12
            assert err_ws / scale <= 1e-12

    def test_duality_identity(self, grid, rng):
        for _ in range(100):
            f = random_bandlimited(grid, rng).values
            g = random_bandlimited(grid, rng).values
            alpha = rng.uniform(0, 2 * np.pi)
            lhs = grid.quad(interaction_values(grid, f, alpha) * g)
            rhs = grid.quad(adjoint_values(grid, g, alpha) * f)
            scale = max(1.0, abs(lhs))
            assert abs(lhs - rhs) / scale <= 1e-12

    def test_bounded_by_one_for_densities(self, grid, rng):
        # |w| <= 1 whenever the argument is a normalized nonnegative density
        for _ in range(50):
            raw = np.abs(random_bandlimited(grid, rng).values) + 1e-3
            q = raw / grid.quad(raw)
            alpha = rng.uniform(0, 2 * np.pi)
            assert np.max(np.abs(interaction_values(grid, q, alpha))) <= 1.0 + 1e-9

    def test_bounded_by_total_variation_generally(self, grid, rng):
        f = random_bandlimited(grid, rng).values
        bound = grid.quad(np.abs(f))
        assert np.max(np.abs(interaction_values(grid, f, 0.3))) <= bound + 1e-9


class TestStackedRows:
    """The coupling helpers act row by row on stacks of any depth."""

    @pytest.mark.parametrize("helper", [interaction_values, adjoint_values])
    @pytest.mark.parametrize("stack_shape", [(3,), (16,), (2, 3)])
    def test_matches_row_by_row(self, rng, helper, stack_shape):
        grid = CircleGrid(16)
        stack = rng.standard_normal(stack_shape + (grid.n_theta,))
        rows = [helper(grid, row, 0.5) for row in stack.reshape(-1, grid.n_theta)]
        expected = np.reshape(rows, stack.shape)
        assert np.array_equal(helper(grid, stack, 0.5), expected)


class TestCoefficientTable:
    """The coupling velocity read off rfft mode 1 equals the moment form."""

    @pytest.mark.parametrize("alpha", [0.0, 0.5, -2.0])
    @pytest.mark.parametrize("stack_shape", [(), (4,), (4, 11)])
    @pytest.mark.parametrize("history_gain", [False, True])
    def test_matches_interaction_values(self, rng, alpha, stack_shape, history_gain):
        grid = CircleGrid(32)
        q = rng.standard_normal(stack_shape + (grid.n_theta,))
        gain = 1.0 + 0.3 * rng.standard_normal(q.shape) if history_gain else 1.7
        table = interaction_coefficient_table(grid, alpha, gain)
        assert table.shape == np.broadcast_shapes(np.shape(gain), (grid.n_theta,))
        w = np.real(np.fft.rfft(q)[..., 1:2] * table)
        expected = gain * interaction_values(grid, q, alpha)
        assert np.max(np.abs(w - expected)) <= 1e-14 * np.max(np.abs(q))
