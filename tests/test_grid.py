import numpy as np
import pytest

from kurasteer import CircleGrid, Field, ddtheta, integrate
from kurasteer.grid import irfft, random_bandlimited, rfft


def diffuse(f, diffusion, dt):
    """f propagated through the heat semigroup exp(D dt d^2/dtheta^2)."""
    mult = f.grid.heat_multiplier(diffusion, dt)
    return Field(f.grid, np.fft.irfft(mult * np.fft.rfft(f.values), n=f.grid.n_theta))


class TestCircleGrid:
    def test_node_layout(self, grid):
        assert grid.n_theta == 128
        assert grid.theta[0] == 0.0
        assert grid.theta[-1] < 2 * np.pi  # no duplicated endpoint
        assert grid.d_theta == pytest.approx(2 * np.pi / 128)

    @pytest.mark.parametrize("n", [7, 9, 4, 0, -8])
    def test_rejects_bad_sizes(self, n):
        with pytest.raises(ValueError):
            CircleGrid(n)


class TestTransforms:
    """rfft and irfft are numpy's public transforms, bit for bit, without
    their argument handling; a numpy that changes either fails here."""

    @pytest.mark.parametrize("n", [8, 32, 64, 128, 250])
    def test_rows_and_stacks_bit_equal_numpy(self, n, rng):
        for shape in [(n,), (5, n)]:
            x = rng.standard_normal(shape)
            c = np.empty(shape[:-1] + (n // 2 + 1,), dtype=np.complex128)
            assert rfft(x, c) is c
            assert np.array_equal(c, np.fft.rfft(x))
            y = np.empty(shape)
            assert irfft(c, n, y) is y
            assert np.array_equal(y, np.fft.irfft(c, n=n))
            assert np.array_equal(rfft(x), c) and np.array_equal(irfft(c, n), y)

    def test_read_only_broadcast_input(self, grid, rng):
        row = rng.standard_normal(grid.n_theta)
        row.setflags(write=False)
        stack = np.broadcast_to(row, (3, grid.n_theta))
        assert np.array_equal(rfft(stack), np.fft.rfft(stack))

    def test_strided_out_row_of_a_stacked_history(self, grid, rng):
        c = np.fft.rfft(rng.standard_normal((3, grid.n_theta)))
        data = np.zeros((3, 7, grid.n_theta))
        out = data[..., 4, :]
        assert irfft(c, grid.n_theta, out) is out
        assert np.array_equal(data[..., 4, :], np.fft.irfft(c, n=grid.n_theta))
        assert not data[..., :4, :].any() and not data[..., 5:, :].any()

    def test_irfft_ignores_imaginary_parts_at_modes_0_and_nyquist(self, grid, rng):
        m = grid.n_theta // 2 + 1
        c = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        assert c[0].imag != 0.0 and c[-1].imag != 0.0
        y = irfft(c, grid.n_theta)
        assert np.array_equal(y, np.fft.irfft(c, n=grid.n_theta))
        c[0], c[-1] = c[0].real, c[-1].real
        assert np.array_equal(y, irfft(c, grid.n_theta))


class TestField:
    def test_length_mismatch(self, grid):
        with pytest.raises(ValueError):
            Field(grid, np.zeros(64))

    def test_nonfinite_rejected(self, grid):
        values = np.zeros(grid.n_theta)
        values[3] = np.nan
        with pytest.raises(ValueError):
            Field(grid, values)

    def test_values_immutable(self, grid):
        f = Field.constant(grid, 1.0)
        with pytest.raises(ValueError):
            f.values[0] = 2.0

    def test_does_not_lock_caller_array(self, grid):
        source = np.zeros(grid.n_theta)
        Field(grid, source)
        source[0] = 5.0  # caller's buffer stays writable


class TestDdtheta:
    def test_sin_to_cos(self, grid):
        f = Field(grid, np.sin(grid.theta))
        assert np.max(np.abs(ddtheta(f).values - np.cos(grid.theta))) <= 1e-12

    def test_constant_to_zero(self, grid):
        f = Field.constant(grid, 3.7)
        assert np.max(np.abs(ddtheta(f).values)) <= 1e-12

    def test_cos3_to_minus3sin3(self, grid):
        f = Field(grid, np.cos(3 * grid.theta))
        assert np.max(np.abs(ddtheta(f).values + 3 * np.sin(3 * grid.theta))) <= 1e-12

    def test_nyquist_mode_dropped(self, grid):
        nyq = Field(grid, np.cos(grid.n_theta // 2 * grid.theta))
        assert np.max(np.abs(ddtheta(nyq).values)) <= 1e-12


class TestIntegrate:
    def test_uniform_density(self, grid):
        assert integrate(Field.constant(grid, 1.0 / (2 * np.pi))) == pytest.approx(1.0, abs=1e-14)

    def test_odd_harmonic(self, grid):
        assert abs(integrate(Field(grid, np.sin(grid.theta)))) <= 1e-14

    def test_one_plus_cos(self, grid):
        f = Field(grid, 1.0 + np.cos(grid.theta))
        assert integrate(f) == pytest.approx(2 * np.pi, rel=1e-14)


class TestDiffuse:
    def test_zero_diffusion_identity(self, grid):
        assert np.array_equal(grid.heat_multiplier(0.0, 1.0), np.ones(grid.n_theta // 2 + 1))

    def test_single_mode_decay(self, grid):
        f = Field(grid, np.cos(grid.theta))
        out = diffuse(f, 0.25, 1.0)
        assert np.max(np.abs(out.values - np.exp(-0.25) * np.cos(grid.theta))) <= 1e-12

    def test_mass_preserved(self, grid, rng):
        f = random_bandlimited(grid, rng)
        assert grid.heat_multiplier(0.7, 2.3)[0] == 1.0
        assert integrate(diffuse(f, 0.7, 2.3)) == pytest.approx(integrate(f), abs=1e-14)

    def test_negative_diffusion_rejected(self, grid):
        with pytest.raises(ValueError):
            grid.heat_multiplier(-0.1, 1.0)


class TestSpectralIdentities:
    @pytest.mark.parametrize("n", [16, 64, 128])
    def test_green_identity(self, n, rng):
        grid = CircleGrid(n)
        for _ in range(50):
            f = random_bandlimited(grid, rng)
            g = random_bandlimited(grid, rng)
            lhs = integrate(Field(grid, ddtheta(f).values * g.values))
            rhs = -integrate(Field(grid, f.values * ddtheta(g).values))
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_ddtheta_twice_matches_d2(self, grid, rng):
        f = random_bandlimited(grid, rng)  # band-limited: no Nyquist content
        twice = ddtheta(ddtheta(f)).values
        d2 = np.fft.irfft(-grid.wavenumbers**2 * np.fft.rfft(f.values), n=grid.n_theta)
        assert np.max(np.abs(twice - d2)) <= 1e-10

    def test_diffuse_semigroup(self, grid, rng):
        f = random_bandlimited(grid, rng)
        once = diffuse(f, 0.25, 0.7 + 0.4)
        twice = diffuse(diffuse(f, 0.25, 0.7), 0.25, 0.4)
        assert np.max(np.abs(once.values - twice.values)) <= 1e-12
