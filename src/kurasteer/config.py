"""Run configuration: JSON file plus dotted-key command-line overrides.

One nested dictionary is the schema (see DEFAULT_CONFIG and the README). The
physics, weights and optimizer sections are the fields and defaults of the
settings dataclasses; RunConfig materializes the dictionary into solver
objects.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .coupling import CouplingParams
from .dynamics import CONTROLS, ControlMode, ControlSet, ControlShape, TimeGrid, Trajectory
from .grid import CircleGrid, Field, random_bandlimited
from .optimizer import CostWeights, OcpProblem, OptimizerConfig
from .scenarios import DensitySpec

DEFAULT_CONFIG: dict = {
    "physics": asdict(CouplingParams()),
    "discretization": {"n_theta": 128, "n_t": 2000, "T": 10.0},
    "mode": "velocity",
    "shape": "space_time",
    "weights": asdict(CostWeights()),
    "optimizer": asdict(OptimizerConfig()),
    "scenario": {
        "q0": {"kind": "wrapped_gaussian", "mean": np.pi / 2, "sigma": 0.8},
        "target": {"kind": "wrapped_gaussian", "mean": 3 * np.pi / 2, "sigma": 0.4},
    },
    "initial_controls": {**{f"{name}_file": None for name in CONTROLS}, "perturbation_scale": 0.0},
    "check": {"n_theta": 64, "n_t": 200, "T": 1.0, "directions": 5},
    "output_dir": "out",
    "seed": 0,
}


def parse_override(expr: str) -> tuple[str, object]:
    """Split 'dotted.key=value'; the value is parsed as JSON when possible."""
    if "=" not in expr:
        raise ValueError(f"override {expr!r} is not of the form key=value")
    key, raw = expr.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key.strip(), value


def apply_override(cfg: dict, key: str, value: object) -> None:
    """Set one dotted key. A JSON-object value merges into its section by the
    rules of a config file (see _merge), so every key it names is checked."""
    *sections, last = key.split(".")
    node, prefix = cfg, ""
    for part in sections:
        if part not in node or not isinstance(node[part], dict):
            raise KeyError(f"unknown config section {part!r} in override {key!r}")
        node, prefix = node[part], prefix + part + "."
    _merge(node, {last: value}, prefix)


def load_config(
    path: str | Path | None = None,
    overrides: list[str] | None = None,
    out_dir: str | None = None,
    seed: int | None = None,
) -> dict:
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        with open(path) as fh:
            user = json.load(fh)
        _merge(cfg, user)
    for expr in overrides or []:
        key, value = parse_override(expr)
        apply_override(cfg, key, value)
    if out_dir is not None:
        cfg["output_dir"] = out_dir
    if seed is not None:
        cfg["seed"] = seed
    return cfg


def _merge(base: dict, update: dict, prefix: str = "") -> None:
    """Merge a config file into the defaults. A section or density spec takes
    only a JSON object; a density spec that names its kind replaces the old
    spec whole, one without merges field by field."""
    for key, value in update.items():
        if key not in base:
            raise KeyError(f"unknown config key {prefix + key!r}")
        node = base[key]
        if isinstance(node, dict) and not isinstance(value, dict):
            raise ValueError(f"config section {prefix + key!r} must be a JSON object, got {value!r}")
        if isinstance(node, dict) and not ("kind" in node and "kind" in value):
            _merge(node, value, prefix + key + ".")
        else:
            base[key] = value


KIND_NAMES = {bool: "true or false", int: "a whole number", float: "a finite number", str: "a string"}


def _cast(key: str, value: object, default: object):
    """A config value cast to the type of its default. A flag must be a JSON
    boolean, a count a whole number and a number finite; anything else stops
    the run with an error that names the key."""
    kind = type(default)
    try:
        if isinstance(value, bool) != (kind is bool):
            raise TypeError
        cast = kind(value)
        if kind is int and cast != value or kind is float and not math.isfinite(cast):
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{key} must be {KIND_NAMES[kind]}, got {value!r}") from None
    return cast


def _section(cfg: dict, name: str) -> dict:
    """A config section with each value cast to the type of its default."""
    defaults = DEFAULT_CONFIG[name]
    return {key: _cast(f"{name}.{key}", cfg[name][key], default) for key, default in defaults.items()}


@dataclass(frozen=True)
class RunConfig:
    """Materialized configuration: solver objects built from the config dict."""

    raw: dict
    grid: CircleGrid
    tgrid: TimeGrid
    params: CouplingParams
    mode: ControlMode
    shape: ControlShape
    weights: CostWeights
    optimizer: OptimizerConfig
    q0: Field
    target_field: Field
    check: dict
    seed: int
    output_dir: Path

    @classmethod
    def from_dict(cls, cfg: dict) -> "RunConfig":
        disc = _section(cfg, "discretization")
        grid = CircleGrid(disc["n_theta"])
        return cls(
            raw=cfg,
            grid=grid,
            tgrid=TimeGrid(disc["T"], disc["n_t"]),
            params=CouplingParams(**_section(cfg, "physics")),
            mode=ControlMode(cfg["mode"]),
            shape=ControlShape(cfg["shape"]),
            weights=CostWeights(**_section(cfg, "weights")),
            optimizer=OptimizerConfig(**_section(cfg, "optimizer")),
            q0=DensitySpec.from_dict(cfg["scenario"]["q0"]).build(grid),
            target_field=DensitySpec.from_dict(cfg["scenario"]["target"]).build(grid),
            check=_section(cfg, "check"),
            seed=_cast("seed", cfg["seed"], DEFAULT_CONFIG["seed"]),
            output_dir=Path(cfg["output_dir"]),
        )

    def target_trajectory(self) -> Trajectory:
        """Static target replicated across all time rows."""
        return Trajectory.from_field(self.target_field, self.tgrid)

    def initial_controls(self) -> ControlSet:
        """Optional initial-control files plus a seeded random perturbation."""
        ic = self.raw["initial_controls"]
        for name in CONTROLS:
            if ic[f"{name}_file"] and name not in self.mode.active_controls:
                raise ValueError(
                    f"initial_controls.{name}_file is set, but mode {self.mode.value!r} "
                    f"does not optimize {name!r}"
                )
        scale = _cast("initial_controls.perturbation_scale", ic["perturbation_scale"], 0.0)
        if scale < 0.0:
            raise ValueError(f"initial_controls.perturbation_scale must be >= 0, got {scale}")
        # a control is its file's array or one baseline row repeated in time; the
        # perturbation (one row) goes in place into a file's array, else a new row
        shape = (self.tgrid.n_t + 1, self.grid.n_theta)
        arrays: dict[str, np.ndarray] = {}
        for name in self.mode.active_controls:
            path = ic[f"{name}_file"]
            if path:
                arr = np.fromfile(path, dtype="<f8")
                if arr.size != shape[0] * shape[1]:
                    raise ValueError(
                        f"control file {path} holds {arr.size} samples, expected {shape[0] * shape[1]}"
                    )
                arrays[name] = arr.reshape(shape)
            else:
                arrays[name] = Field.constant(self.grid, CONTROLS[name].baseline(self.params)).values
        if scale > 0.0:
            rng = np.random.default_rng(self.seed)
            for name, arr in arrays.items():
                bump = random_bandlimited(self.grid, rng, scale=scale).values
                arrays[name] = np.add(arr, bump, out=arr if arr.ndim == 2 else None)
        return ControlSet(
            **{name: Trajectory(self.grid, self.tgrid, np.broadcast_to(arr, shape)) for name, arr in arrays.items()}
        )

    def problem(self) -> OcpProblem:
        return OcpProblem(
            grid=self.grid,
            tgrid=self.tgrid,
            params=self.params,
            mode=self.mode,
            shape=self.shape,
            weights=self.weights,
            optimizer=self.optimizer,
            q0=self.q0,
            target=self.target_trajectory(),
            initial=self.initial_controls(),
        )
