"""Initial and target density construction from declarative specs, the
cast that checks every config value, and the reader of raw sample files."""

from __future__ import annotations

import math
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
COMPONENT_KEYS = ("weight", "mean", "sigma")  # of a mixture component


TYPE_NAMES = {bool: "true or false", int: "a whole number", float: "a finite number", str: "a string"}


def cast_setting(key: str, value: object, default: object):
    """A config value cast to the type of its default. A flag must be a JSON
    boolean, a count a whole number, a number finite and not a string;
    anything else stops the run with an error that names the key."""
    kind = type(default)
    try:
        if isinstance(value, bool) != (kind is bool) or isinstance(value, str) != (kind is str):
            raise TypeError
        cast = kind(value)
        if kind is int and cast != value or kind is float and not math.isfinite(cast):
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{key} must be {TYPE_NAMES[kind]}, got {value!r}") from None
    return cast


def read_samples(path: str | Path, count: int, key: str) -> np.ndarray:
    """The little-endian float64 samples of a raw file, which must hold
    `count` finite values; a read error, a wrong count or a non-finite
    sample names `key`, the setting that named the file."""
    try:
        values = np.fromfile(path, dtype="<f8")
    except OSError as exc:
        raise ValueError(f"{key}: cannot read {str(path)!r}: {exc.strerror or exc}") from None
    if values.size != count:
        raise ValueError(f"{key}: {path} holds {values.size} samples, expected {count} (little-endian float64)")
    if not np.isfinite(values).all():
        i = np.argmin(np.isfinite(values))
        raise ValueError(f"{key}: {path} holds a non-finite sample ({values[i]} at index {i})")
    return values


def wrapped_gaussian_values(grid: CircleGrid, mean: float, sigma: float, key: str) -> np.ndarray:
    """Wrapped normal density on the grid; `key` names sigma in its errors,
    for sigma <= 0 and for a sigma so narrow that every sample underflows."""
    if sigma <= 0.0:
        raise ValueError(f"{key} must be > 0, got {sigma}")
    th = grid.theta
    acc = np.zeros(grid.n_theta)
    for m in range(-N_WRAPS, N_WRAPS + 1):
        acc += np.exp(-0.5 * ((th - mean + TWO_PI * m) / sigma) ** 2)
    if not acc.any():
        raise ValueError(
            f"{key} = {sigma} is too narrow for the grid spacing 2*pi/n_theta = {grid.d_theta:.6g}: "
            "every sample is 0"
        )
    return acc / (sigma * np.sqrt(TWO_PI))


def _check_keys(spec: object, keys: tuple[str, ...], key: str) -> None:
    """The spec at config key `key` must be a JSON object that holds each of
    `keys` and no other."""
    if not isinstance(spec, dict):
        raise ValueError(f"{key} must be a JSON object, got {spec!r}")
    unused = sorted(set(spec) - set(keys))
    if unused:
        raise ValueError(f"{key} does not use {', '.join(map(repr, unused))}")
    missing = [k for k in keys if k not in spec]
    if missing:
        raise ValueError(f"{key}.{missing[0]} is required")


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
    key: str = "density"  # the config key of the spec, which errors name

    @classmethod
    def from_dict(cls, d: dict, key: str) -> "DensitySpec":
        """The spec of the config dict d at the config key `key`, which
        errors name."""
        kind = d.get("kind")
        if not isinstance(kind, str) or kind not in KIND_KEYS:
            raise ValueError(f"{key}.kind must be one of {', '.join(map(repr, KIND_KEYS))}, got {kind!r}")
        _check_keys(d, ("kind", *KIND_KEYS[kind]), key)
        if kind == "uniform":
            return cls(kind="uniform", key=key)
        if kind == "wrapped_gaussian":
            return cls(kind=kind, key=key, **{k: cast_setting(f"{key}.{k}", d[k], 0.0) for k in KIND_KEYS[kind]})
        if kind == "mixture":
            if not isinstance(d["components"], list):
                raise ValueError(f"{key}.components must be a list of JSON objects, got {d['components']!r}")
            for i, c in enumerate(d["components"]):
                _check_keys(c, COMPONENT_KEYS, f"{key}.components[{i}]")
            comps = tuple(
                tuple(cast_setting(f"{key}.components[{i}].{k}", c[k], 0.0) for k in COMPONENT_KEYS)
                for i, c in enumerate(d["components"])
            )
            if not comps:
                raise ValueError(f"{key}.components needs at least one component")
            return cls(kind=kind, components=comps, key=key)
        return cls(kind=kind, path=cast_setting(f"{key}.path", d["path"], ""), key=key)

    def build(self, grid: CircleGrid) -> Field:
        """The density on the grid; an out-of-range value stops it with an
        error that names the value's config key (see `key`), and negative or
        zero-mass samples with one that names the setting they came from."""
        key = self.key
        if self.kind == "uniform":
            raw = np.full(grid.n_theta, 1.0 / TWO_PI)
        elif self.kind == "wrapped_gaussian":
            raw = wrapped_gaussian_values(grid, self.mean, self.sigma, f"{self.key}.sigma")
        elif self.kind == "mixture":
            key = f"{self.key}.components"
            for i, (w, _, _) in enumerate(self.components):
                if w < 0.0:
                    raise ValueError(f"{key}[{i}].weight must be >= 0, got {w}")
            total = sum(w for w, _, _ in self.components)
            if total <= 0.0:
                raise ValueError(f"{key}: the weights must sum to a positive value, got {total}")
            raw = np.zeros(grid.n_theta)
            for i, (w, mu, sig) in enumerate(self.components):
                raw += (w / total) * wrapped_gaussian_values(grid, mu, sig, f"{key}[{i}].sigma")
        elif self.kind == "from_file":
            key = f"{self.key}.path"
            raw = read_samples(self.path, grid.n_theta, key)
        else:
            raise ValueError(f"{self.key}.kind must be one of {', '.join(map(repr, KIND_KEYS))}, got {self.kind!r}")

        if raw.min() < -1e-12:
            raise ValueError(f"{key}: density is negative (min {raw.min():.3e})")
        raw = np.maximum(raw, 0.0)
        mass = grid.quad(raw)
        if mass <= 0.0:
            raise ValueError(f"{key}: density has zero mass")
        f = Field(grid, raw / mass)
        assert abs(grid.quad(f.values) - 1.0) <= NORMALIZATION_TOL
        return f
