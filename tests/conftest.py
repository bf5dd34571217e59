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


@pytest.fixture
def stalling_search(monkeypatch):
    """Line-search constants under which no trial passes, for the rest of the
    test: a first step of 1e12, one backtrack and an Armijo constant of
    0.999, so the first search stalls after two trials."""
    for name, value in [("INITIAL_STEP", 1e12), ("MAX_BACKTRACKS", 1), ("ARMIJO_C", 0.999)]:
        monkeypatch.setattr(optimizer, name, value)


@pytest.fixture
def passing_checks():
    """passing_checks(problems) lists (mode, n_directions, seed) for every
    gradient check of a problem, with 2 directions and with 5 at seeds 0-39,
    that passes. A check draws its directions in turn and scores each on its
    own, so the check with 2 directions is the first two of the check with 5;
    seed 0 asserts that, and the other seeds read it off."""

    def run(problems) -> list[tuple[str, int, int]]:
        passing = []
        for problem in problems:
            assert optimizer.gradient_check(problem, n_directions=2).directions == (
                optimizer.gradient_check(problem, n_directions=5).directions[:2]
            )
            for seed in range(40):
                report = optimizer.gradient_check(problem, n_directions=5, seed=seed)
                for n in (2, 5):
                    if all(d.passed for d in report.directions[:n]):
                        passing.append((problem.mode.value, n, seed))
        return passing

    return run
