"""Sine-coupling functionals and the polar order parameter.

The phase-lagged sine kernel sin(theta' - theta - alpha) is a rank-2
separable kernel, so both coupling integrals reduce to the two first
circular moments of their argument. Evaluation is O(n) per call and exact;
the O(n^2) quadrature equivalent lives in the oracles module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import TWO_PI, CircleGrid, ComplexArray, Field, FloatArray

MASS_TOL = 1e-3


@dataclass(frozen=True)
class CouplingParams:
    """Physical parameters: phase lag alpha, diffusion D, base coupling K."""

    alpha: float = 0.0
    D: float = 0.25
    K: float = 1.0

    def __post_init__(self) -> None:
        if self.D < 0.0:
            raise ValueError(f"diffusion coefficient D must be >= 0, got {self.D}")


@dataclass(frozen=True)
class PolarOrder:
    """Coherence amplitude R in [0, 1] and mean-field phase psi in [0, 2*pi)."""

    R: float
    psi: float


def moments_values(grid: CircleGrid, values: FloatArray) -> tuple[FloatArray, FloatArray]:
    """First circular moments (integral of cos*v, integral of sin*v) of one
    sample row, or of every row of a stacked (n_rows, n_theta) array.

    vecdot takes one dot product per row and basis row, so a row's moments
    do not depend on the stack it is in (a matrix-vector product may round
    differently).
    """
    m = np.vecdot(values[..., None, :], grid.moment_basis) * grid.d_theta
    return m[..., 0], m[..., 1]


def circular_moments(q: Field) -> tuple[float, float]:
    """First circular moments (integral of cos*q, integral of sin*q)."""
    return moments_values(q.grid, q.values)


def order_parameter(q: Field) -> PolarOrder:
    """Polar order parameter of a normalized density.

    R = 0 is incoherence, R = 1 phase locking. Raises if the density mass
    deviates from 1 by more than 1e-3 (caller passed an unnormalized field).
    """
    mass = q.grid.quad(q.values)
    if abs(mass - 1.0) > MASS_TOL:
        raise ValueError(f"order_parameter needs a normalized density; mass = {mass:.6g}")
    c_c, c_s = circular_moments(q)
    return PolarOrder(R=float(np.hypot(c_c, c_s)), psi=float(np.arctan2(c_s, c_c)) % TWO_PI)


def lagged_basis(grid: CircleGrid, alpha: float) -> tuple[FloatArray, FloatArray]:
    """cos(theta + alpha) and sin(theta + alpha): the kernel is
    sin(theta' - theta - alpha) = sin(theta')*cos(theta + alpha) - cos(theta')*sin(theta + alpha)."""
    shifted = grid.theta + alpha
    return np.cos(shifted), np.sin(shifted)


def interaction_values(grid: CircleGrid, values: FloatArray, alpha: float) -> FloatArray:
    """Transport velocity from the sine coupling, evaluated via moments.

    Equals the integral of sin(theta' - theta - alpha) against the sample;
    with moments (C_c, C_s) this is C_s*cos(theta+alpha) - C_c*sin(theta+alpha).
    Accepts one row or a stack of rows of any depth, like moments_values.
    """
    c_c, c_s = moments_values(grid, values)
    cos_a, sin_a = lagged_basis(grid, alpha)
    w = c_s[..., None] * cos_a
    w -= c_c[..., None] * sin_a
    return w


def interaction_coefficient_table(
    grid: CircleGrid, alpha: float, gain: FloatArray | float = 1.0
) -> ComplexArray:
    """Table T = gain*i*dtheta*exp(i*(theta + alpha)) that reads the coupling
    velocity off the rfft coefficients q^ of a sample: gain*w[q] = Re(q^_1 * T),
    with q^_1 = rfft(q)[..., 1:2].

    The kernel is rank 2, so w[q] lives in Fourier modes +-1:
    rfft(q)[1] = (C_c - i*C_s)/dtheta, and
    Re(q^_1 * i*dtheta*exp(i*(theta + alpha))) = C_s*cos(theta+alpha) - C_c*sin(theta+alpha),
    which is interaction_values. gain is a scalar or an array that
    broadcasts against one row; T has the broadcast shape.
    """
    return np.multiply(gain, 1j * grid.d_theta * np.exp(1j * (grid.theta + alpha)))


def interaction_adjoint_values(grid: CircleGrid, values: FloatArray, alpha: float) -> FloatArray:
    """Transposed coupling: integral of sin(theta - theta' - alpha) against the
    sample, which is minus the coupling with lag -alpha."""
    return -interaction_values(grid, values, -alpha)


def interaction_field(q: Field, alpha: float = 0.0) -> Field:
    """Self-generated transport velocity w of the density (or any sample).

    For a normalized density with order parameter (R, psi) this is exactly
    R*sin(psi - theta - alpha), hence bounded by 1 in absolute value.
    """
    return Field(q.grid, interaction_values(q.grid, q.values, alpha))


def interaction_field_adjoint(g: Field, alpha: float = 0.0) -> Field:
    """Adjoint coupling w*: satisfies <w[f], g> = <w*[g], f> for all f, g."""
    return Field(g.grid, interaction_adjoint_values(g.grid, g.values, alpha))
