"""Optimal control of the mean-field Kuramoto-Sakaguchi equation.

Spectral forward/adjoint solvers for the nonlocal oscillator-density PDE,
reduced gradients for velocity, interaction-strength and additive-source
controls, an Armijo descent loop, and independent validation oracles.
"""

from .coupling import CouplingParams
from .dynamics import (
    CFLError,
    ControlMode,
    ControlSet,
    NumericsError,
    ResolutionWarning,
    TimeGrid,
    Trajectory,
    solve_adjoint,
    solve_state,
)
from .grid import CircleGrid, Field, random_bandlimited
from .optimizer import (
    CostWeights,
    GradientCheckReport,
    IterationRecord,
    OcpProblem,
    OptResult,
    OptimizerConfig,
    cost,
    gradient_check,
    optimize,
    reduced_gradient,
    sync_series,
)
from .oracles import (
    ParticleEnsemble,
    interaction_quadrature,
    rotating_wave,
    simulate_particles,
    stationary_density,
)
from .scenarios import DensitySpec

__version__ = "0.1.0"

__all__ = [
    "CFLError",
    "CircleGrid",
    "ControlMode",
    "ControlSet",
    "CostWeights",
    "CouplingParams",
    "DensitySpec",
    "Field",
    "GradientCheckReport",
    "IterationRecord",
    "NumericsError",
    "OcpProblem",
    "OptResult",
    "OptimizerConfig",
    "ParticleEnsemble",
    "ResolutionWarning",
    "TimeGrid",
    "Trajectory",
    "cost",
    "gradient_check",
    "interaction_quadrature",
    "optimize",
    "random_bandlimited",
    "reduced_gradient",
    "rotating_wave",
    "simulate_particles",
    "solve_adjoint",
    "solve_state",
    "stationary_density",
    "sync_series",
]
