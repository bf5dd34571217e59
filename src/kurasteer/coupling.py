"""The phase-lagged sine coupling and the polar order parameter.

The kernel sin(theta' - theta - alpha) is rank 2 and separable:

    sin(theta' - theta - alpha) = cos(theta')*(-sin(theta + alpha)) + sin(theta')*cos(theta + alpha),

so the coupling w[f] = C_c*row0 + C_s*row1, with (C_c, C_s) the first
circular moments of f and (row0, row1) the rows of kernel_table. That table
is the one source of every coupling operator: the transposed kernel
sin(theta - theta' - alpha) is minus the kernel with lag -alpha, which
adjoint_kernel_table states once, and the state's Fourier-mode read and the
adjoint solver's w* term take their tables from these two. Each operator
acts on sample arrays (one row or a stack of rows) in O(n) per row and is
exact; the O(n^2) quadrature equivalents live in the oracles module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import TWO_PI, CircleGrid, ComplexArray, FloatArray


@dataclass(frozen=True)
class CouplingParams:
    """Physical parameters: phase lag alpha, diffusion D, base coupling K."""

    alpha: float = 0.0
    D: float = 0.25
    K: float = 1.0

    def __post_init__(self) -> None:
        if not self.D >= 0.0:
            raise ValueError(f"D (the diffusion coefficient) must be >= 0, got {self.D}")
        for name in ("alpha", "K"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")


def moments_values(grid: CircleGrid, values: FloatArray) -> tuple[FloatArray, FloatArray]:
    """First circular moments (integral of cos*v, integral of sin*v) of one
    sample row, or of every row of a stacked (n_rows, n_theta) array.

    vecdot takes one dot product per row and basis row, so a row's moments
    do not depend on the stack it is in (a matrix-vector product may round
    differently).
    """
    m = np.vecdot(values[..., None, :], grid.moment_basis) * grid.d_theta
    return m[..., 0], m[..., 1]


def polar_order(grid: CircleGrid, values: FloatArray) -> tuple[FloatArray, FloatArray]:
    """Coherence R = |C_c + i*C_s| and phase psi = arg(C_c + i*C_s) in
    [0, 2*pi) of one sample row, or of every row of a stack, from the first
    circular moments. For a normalized density R = 0 is incoherence and
    R = 1 phase locking."""
    c_c, c_s = moments_values(grid, values)
    return np.hypot(c_c, c_s), np.mod(np.arctan2(c_s, c_c), TWO_PI)


def kernel_table(grid: CircleGrid, alpha: float) -> FloatArray:
    """(2, n_theta) rows -sin(theta + alpha) and cos(theta + alpha): the
    coupling of a sample with moments (C_c, C_s) is C_c*row0 + C_s*row1."""
    shifted = grid.theta + alpha
    return np.stack((-np.sin(shifted), np.cos(shifted)))


def adjoint_kernel_table(grid: CircleGrid, alpha: float) -> FloatArray:
    """The table of w*, which satisfies <w[f], g> = <w*[g], f> for all f, g:
    the transposed kernel sin(theta - theta' - alpha) is minus the kernel
    with lag -alpha."""
    return -kernel_table(grid, -alpha)


def _apply(grid: CircleGrid, values: FloatArray, table: FloatArray) -> FloatArray:
    """C_c*row0 + C_s*row1 for the moments of each row of values."""
    c_c, c_s = moments_values(grid, values)
    out = c_c[..., None] * table[0]
    out += c_s[..., None] * table[1]
    return out


def interaction_values(grid: CircleGrid, values: FloatArray, alpha: float) -> FloatArray:
    """Coupling velocity w: the integral of sin(theta' - theta - alpha)
    against the sample. For a normalized density with polar order (R, psi)
    it is R*sin(psi - theta - alpha), so |w| <= 1. Accepts one row or a
    stack of rows of any depth, like moments_values."""
    return _apply(grid, values, kernel_table(grid, alpha))


def adjoint_values(grid: CircleGrid, values: FloatArray, alpha: float) -> FloatArray:
    """Adjoint coupling w* of one row or a stack of rows (see
    adjoint_kernel_table)."""
    return _apply(grid, values, adjoint_kernel_table(grid, alpha))


def interaction_coefficient_table(
    grid: CircleGrid, alpha: float, gain: FloatArray | float = 1.0
) -> ComplexArray:
    """Table T = gain*dtheta*(row0 + i*row1) of kernel_table that reads the
    coupling velocity off the rfft coefficients q^ of a sample:
    gain*w[q] = Re(q^_1 * T), with q^_1 = rfft(q)[..., 1:2].

    The kernel is rank 2, so w[q] lives in Fourier modes +-1:
    rfft(q)[1] = (C_c - i*C_s)/dtheta, whose product with dtheta*(row0 + i*row1)
    has the real part C_c*row0 + C_s*row1. gain is a scalar or an array that
    broadcasts against one row; T has the broadcast shape.
    """
    row0, row1 = kernel_table(grid, alpha)
    return np.multiply(gain, grid.d_theta * (row0 + 1j * row1))
