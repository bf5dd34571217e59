"""Initial and target density construction from declarative specs."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .grid import TWO_PI, CircleGrid, Field

N_WRAPS = 12  # wrapped-Gaussian image terms; plenty for sigma up to ~2 rad
NORMALIZATION_TOL = 1e-12
KIND_KEYS = {  # the keys of a density spec besides "kind", per kind
    "uniform": (),
    "wrapped_gaussian": ("mean", "sigma"),
    "mixture": ("components",),
    "from_file": ("path",),
}


def wrapped_gaussian_values(grid: CircleGrid, mean: float, sigma: float) -> np.ndarray:
    if sigma <= 0.0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    th = grid.theta
    acc = np.zeros(grid.n_theta)
    for m in range(-N_WRAPS, N_WRAPS + 1):
        acc += np.exp(-0.5 * ((th - mean + TWO_PI * m) / sigma) ** 2)
    return acc / (sigma * np.sqrt(TWO_PI))


def _reject_unused(spec: dict, keys: set[str], what: str) -> None:
    unused = sorted(set(spec) - keys)
    if unused:
        raise ValueError(f"{what} does not use {', '.join(map(repr, unused))}")


@dataclass(frozen=True)
class DensitySpec:
    """Declarative density: uniform, wrapped Gaussian, mixture, or file.

    kind: "uniform" | "wrapped_gaussian" | "mixture" | "from_file".
    The built Field is nonnegative and grid-normalized to unit mass.
    """

    kind: str
    mean: float = 0.0
    sigma: float = 0.4
    components: tuple[tuple[float, float, float], ...] = ()  # (weight, mean, sigma)
    path: str = ""

    @classmethod
    def from_dict(cls, d: dict) -> "DensitySpec":
        kind = d.get("kind")
        if not isinstance(kind, str) or kind not in KIND_KEYS:
            raise ValueError(f"unknown density kind {kind!r}")
        _reject_unused(d, {"kind", *KIND_KEYS[kind]}, f"density kind {kind!r}")
        if kind == "uniform":
            return cls(kind="uniform")
        if kind == "wrapped_gaussian":
            return cls(kind=kind, mean=float(d["mean"]), sigma=float(d["sigma"]))
        if kind == "mixture":
            for c in d["components"]:
                _reject_unused(c, {"weight", "mean", "sigma"}, "a mixture component")
            comps = tuple(
                (float(c["weight"]), float(c["mean"]), float(c["sigma"]))
                for c in d["components"]
            )
            if not comps:
                raise ValueError("mixture needs at least one component")
            return cls(kind=kind, components=comps)
        return cls(kind=kind, path=str(d["path"]))

    def build(self, grid: CircleGrid) -> Field:
        if self.kind == "uniform":
            raw = np.full(grid.n_theta, 1.0 / TWO_PI)
        elif self.kind == "wrapped_gaussian":
            raw = wrapped_gaussian_values(grid, self.mean, self.sigma)
        elif self.kind == "mixture":
            raw = np.zeros(grid.n_theta)
            total = sum(w for w, _, _ in self.components)
            if total <= 0.0:
                raise ValueError("mixture weights must sum to a positive value")
            for w, mu, sig in self.components:
                if w < 0.0:
                    raise ValueError("mixture weights must be nonnegative")
                raw += (w / total) * wrapped_gaussian_values(grid, mu, sig)
        elif self.kind == "from_file":
            raw = load_field_values(Path(self.path), grid)
        else:
            raise ValueError(f"unknown density kind {self.kind!r}")

        if raw.min() < -1e-12:
            raise ValueError(f"density is negative (min {raw.min():.3e})")
        raw = np.maximum(raw, 0.0)
        mass = grid.quad(raw)
        if mass <= 0.0:
            raise ValueError("density has zero mass")
        f = Field(grid, raw / mass)
        assert abs(grid.quad(f.values) - 1.0) <= NORMALIZATION_TOL
        return f


def load_field_values(path: Path, grid: CircleGrid) -> np.ndarray:
    values = np.fromfile(path, dtype="<f8")
    if values.shape != (grid.n_theta,):
        raise ValueError(
            f"density file {path} holds {values.size} samples, grid needs {grid.n_theta}"
        )
    return values.astype(np.float64)
