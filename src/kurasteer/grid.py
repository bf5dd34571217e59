"""Uniform periodic discretization of the unit circle with spectral operators.

The grid covers [0, 2*pi) with no duplicated endpoint. Derivatives and the
diffusion propagator act mode-by-mode through the real FFT; integration is
the rectangle rule, which is spectrally accurate for smooth periodic data.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.typing import NDArray

FloatArray = NDArray[np.float64]
ComplexArray = NDArray[np.complex128]

TWO_PI = 2.0 * np.pi


# The transforms call the pocketfft gufuncs that np.fft.rfft and np.fft.irfft
# end in, with the same factors (1 forward, 1/n back), so every value is
# bit-equal to theirs, without numpy's Python wrapper (dispatch, dtype, norm
# and shape handling), which at the grid sizes used here costs more than the
# transform itself. They look np.fft up at call time, so that numpy.fft loads
# at the first transform, not with the package: loaded with the package, it
# raised the peak RSS of the benchmark's steering runs by 0.2-0.3 MiB.


def rfft(x: FloatArray, out: ComplexArray | None = None) -> ComplexArray:
    """Real FFT along the last axis, of even length, into `out` (made if None)."""
    if out is None:
        out = np.empty(x.shape[:-1] + (x.shape[-1] // 2 + 1,), dtype=np.complex128)
    return np.fft._pocketfft_umath.rfft_n_even(x, 1.0, out=out)


def irfft(c: ComplexArray, n: int, out: FloatArray | None = None) -> FloatArray:
    """Inverse of rfft, to n samples along the last axis, into `out` (made if None)."""
    if out is None:
        out = np.empty(c.shape[:-1] + (n,))
    return np.fft._pocketfft_umath.irfft(c, 1.0 / n, out=out)


@dataclass(frozen=True)
class CircleGrid:
    """Collocation grid theta_j = 2*pi*j/n_theta, j = 0..n_theta-1."""

    n_theta: int

    def __post_init__(self) -> None:
        if self.n_theta % 2 != 0 or self.n_theta < 8:
            raise ValueError(f"n_theta must be even and >= 8, got {self.n_theta}")

    @property
    def d_theta(self) -> float:
        return TWO_PI / self.n_theta

    @cached_property
    def theta(self) -> FloatArray:
        th = np.arange(self.n_theta) * self.d_theta
        th.setflags(write=False)
        return th

    @cached_property
    def cos_theta(self) -> FloatArray:
        c = np.cos(self.theta)
        c.setflags(write=False)
        return c

    @cached_property
    def sin_theta(self) -> FloatArray:
        s = np.sin(self.theta)
        s.setflags(write=False)
        return s

    @cached_property
    def moment_basis(self) -> FloatArray:
        """(2, n_theta) rows cos(theta), sin(theta): the first circular moments
        of a sample are its dot products with them, times d_theta."""
        b = np.stack((self.cos_theta, self.sin_theta))
        b.setflags(write=False)
        return b

    @cached_property
    def wavenumbers(self) -> FloatArray:
        """Nonnegative mode numbers 0..n/2 of the real FFT."""
        k = np.arange(self.n_theta // 2 + 1, dtype=np.float64)
        k.setflags(write=False)
        return k

    @cached_property
    def _ik_first(self) -> ComplexArray:
        # Nyquist mode derivative set to zero: keeps real fields real and
        # makes the discrete d/dtheta exactly skew-symmetric.
        ik = 1j * self.wavenumbers
        ik = ik.copy()
        ik[-1] = 0.0
        ik.setflags(write=False)
        return ik

    # -- array-level operators (hot path) --

    def deriv(self, values: FloatArray) -> FloatArray:
        """Spectral d/dtheta of one sample row, or of every row of a stack."""
        coef = rfft(values)
        return irfft(np.multiply(self._ik_first, coef, out=coef), self.n_theta)

    def quad(self, values: FloatArray) -> float:
        """Integral over the circle (rectangle rule on the periodic grid)."""
        return float(values.sum()) * self.d_theta

    def quad_rows(self, rows: FloatArray) -> FloatArray:
        """Row-wise circle integral of a stacked (n_rows, n_theta) array."""
        return rows.sum(axis=-1) * self.d_theta

    def heat_multiplier(self, diffusion: float, dt: float) -> FloatArray:
        """rfft-mode factors exp(-D k^2 dt) of the exact diffusion propagator.

        Mode 0 is 1, so the propagator preserves the integral exactly; D = 0
        gives the identity.
        """
        if diffusion < 0.0:
            raise ValueError(f"diffusion coefficient must be >= 0, got {diffusion}")
        if dt <= 0.0:
            raise ValueError(f"dt must be > 0, got {dt}")
        return np.exp(-self.wavenumbers**2 * (diffusion * dt))


@dataclass(frozen=True)
class Field:
    """One real-valued sample on a CircleGrid (density, adjoint, control slice).

    Value type: the sample array is copied on construction and locked
    read-only, so Fields are safe to share across threads.
    """

    grid: CircleGrid
    values: FloatArray

    def __post_init__(self) -> None:
        v = np.array(self.values, dtype=np.float64)
        if v.shape != (self.grid.n_theta,):
            raise ValueError(
                f"Field length {v.shape} does not match grid n_theta={self.grid.n_theta}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("Field values must all be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @classmethod
    def constant(cls, grid: CircleGrid, value: float) -> "Field":
        return cls(grid, np.full(grid.n_theta, value))


def ddtheta(f: Field) -> Field:
    """Spectral derivative; exact for resolved modes, Nyquist mode dropped."""
    return Field(f.grid, f.grid.deriv(f.values))


def integrate(f: Field) -> float:
    """Integral of f over the circle."""
    return f.grid.quad(f.values)


def random_bandlimited(
    grid: CircleGrid,
    rng: np.random.Generator,
    k_max: int | None = None,
    scale: float = 1.0,
) -> Field:
    """Random smooth field with spectral content confined below k_max.

    Normalized so the sample RMS equals `scale` regardless of resolution.
    Used by property tests and control perturbations; band-limiting keeps
    every spectral identity exact at any tested resolution.
    """
    if k_max is None:
        k_max = grid.n_theta // 4
    k_max = min(k_max, grid.n_theta // 2 - 1)
    coef = np.zeros(grid.n_theta // 2 + 1, dtype=np.complex128)
    coef[: k_max + 1] = rng.standard_normal(k_max + 1) + 1j * rng.standard_normal(k_max + 1)
    coef[0] = coef[0].real
    values = irfft(coef, grid.n_theta)
    rms = float(np.sqrt(np.mean(values**2)))
    return Field(grid, values * (scale / rms))
