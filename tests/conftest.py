import tracemalloc

import numpy as np
import pytest

from kurasteer import CircleGrid, CouplingParams, Field, TimeGrid, optimizer


@pytest.fixture
def grid():
    return CircleGrid(128)


@pytest.fixture
def coarse_grid():
    return CircleGrid(64)


@pytest.fixture
def params():
    return CouplingParams(alpha=0.0, D=0.25, K=1.0)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def cosine_density(grid):
    """(1 + cos theta) / (2 pi): normalized, moments known in closed form."""
    return Field(grid, (1.0 + np.cos(grid.theta)) / (2.0 * np.pi))


@pytest.fixture
def unit_timegrid():
    return TimeGrid(1.0, 200)


@pytest.fixture
def traced_peak():
    """Peak bytes that a call allocates and holds at once (tracemalloc),
    counting nothing that was allocated before it."""

    def peak(fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak


@pytest.fixture
def shift_gradient(monkeypatch):
    """shift_gradient(s) adds s to every value of the gradients that
    optimizer.reduced_gradient returns for the rest of the test: a wrong
    adjoint gradient, which a gradient check must reject."""

    def shift(by: float) -> None:
        exact = optimizer.reduced_gradient
        monkeypatch.setattr(
            optimizer, "reduced_gradient", lambda *args, **kw: {n: g + by for n, g in exact(*args, **kw).items()}
        )

    return shift
