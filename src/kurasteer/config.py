"""Run configuration: JSON file plus dotted-key command-line overrides.

One nested dictionary is the schema (see DEFAULT_CONFIG and the README). The
physics, weights and optimizer sections are the fields and defaults of the
settings dataclasses; RunConfig materializes the dictionary into solver
objects.
"""

from __future__ import annotations

import copy
import json
from dataclasses import asdict, dataclass, fields
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
    "check": {"n_theta": 64, "n_t": 200, "T": 1.0, "directions": 5, "gradient_bias": 0.0},
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
        cfg["seed"] = int(seed)
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


def _settings(cls: type, section: dict, prefix: str):
    """One settings dataclass from its config section, each value cast to the
    type of the field's default. Booleans must be JSON booleans and integer
    fields whole numbers."""
    values = {}
    for f in fields(cls):
        key, value, kind = f"{prefix}.{f.name}", section[f.name], type(f.default)
        if kind is bool and not isinstance(value, bool):
            raise ValueError(f"{key} must be true or false, got {value!r}")
        try:
            values[f.name] = kind(value)
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"{key} must be a {kind.__name__}, got {value!r}") from None
        if kind is int and (values[f.name] != value or isinstance(value, bool)):
            raise ValueError(f"{key} must be a whole number, got {value!r}")
    return cls(**values)


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
    seed: int
    output_dir: Path

    @classmethod
    def from_dict(cls, cfg: dict) -> "RunConfig":
        grid = CircleGrid(int(cfg["discretization"]["n_theta"]))
        tgrid = TimeGrid(float(cfg["discretization"]["T"]), int(cfg["discretization"]["n_t"]))
        return cls(
            raw=cfg,
            grid=grid,
            tgrid=tgrid,
            params=_settings(CouplingParams, cfg["physics"], "physics"),
            mode=ControlMode(cfg["mode"]),
            shape=ControlShape(cfg["shape"]),
            weights=_settings(CostWeights, cfg["weights"], "weights"),
            optimizer=_settings(OptimizerConfig, cfg["optimizer"], "optimizer"),
            q0=DensitySpec.from_dict(cfg["scenario"]["q0"]).build(grid),
            target_field=DensitySpec.from_dict(cfg["scenario"]["target"]).build(grid),
            seed=int(cfg["seed"]),
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
        scale = float(ic["perturbation_scale"] or 0.0)
        if not scale >= 0.0:
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
