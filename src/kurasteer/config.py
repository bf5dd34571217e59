"""Run configuration: JSON file plus dotted-key command-line overrides.

One nested dictionary is the authoritative schema (see DEFAULT_CONFIG and the
README); RunConfig materializes it into solver objects.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .coupling import CouplingParams
from .dynamics import CONTROLS, ControlMode, ControlSet, ControlShape, TimeGrid, Trajectory
from .grid import CircleGrid, Field, random_bandlimited
from .optimizer import CostWeights, OcpProblem, OptimizerConfig
from .scenarios import DensitySpec

DEFAULT_CONFIG: dict = {
    "physics": {"D": 0.25, "alpha": 0.0, "K": 1.0},
    "discretization": {"n_theta": 128, "n_t": 2000, "T": 10.0},
    "mode": "velocity",
    "shape": "space_time",
    "weights": {
        "alpha_r": 1.0,
        "alpha_t": 10.0,
        "beta1": 1e-3,
        "beta2": 1e-2,
        "beta_lin": 1e-3,
        "penalize_absolute_u2": False,
    },
    "optimizer": {
        "max_iters": 100,
        "armijo_c": 1e-4,
        "backtrack_factor": 0.5,
        "initial_step": 1.0,
        "grad_tol": 1e-8,
        "cost_rel_tol": 1e-12,
        "max_backtracks": 40,
        "method": "gd",
    },
    "scenario": {
        "q0": {"kind": "wrapped_gaussian", "mean": np.pi / 2, "sigma": 0.8},
        "target": {"kind": "wrapped_gaussian", "mean": 3 * np.pi / 2, "sigma": 0.4},
    },
    "initial_controls": {
        "u1_file": None,
        "u2_file": None,
        "source_file": None,
        "perturbation_scale": 0.0,
    },
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
    parts = key.split(".")
    node = cfg
    for part in parts[:-1]:
        if part not in node or not isinstance(node[part], dict):
            raise KeyError(f"unknown config section {part!r} in override {key!r}")
        node = node[part]
    if parts[-1] not in node:
        raise KeyError(f"unknown config key {key!r}")
    node[parts[-1]] = value


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
    for key, value in update.items():
        if key not in base:
            raise KeyError(f"unknown config key {prefix + key!r}")
        if isinstance(base[key], dict) and isinstance(value, dict):
            _merge(base[key], value, prefix + key + ".")
        else:
            base[key] = value


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
        phys = cfg["physics"]
        params = CouplingParams(alpha=float(phys["alpha"]), D=float(phys["D"]), K=float(phys["K"]))
        mode = ControlMode(cfg["mode"])
        shape = ControlShape(cfg["shape"])
        w = cfg["weights"]
        weights = CostWeights(
            alpha_r=float(w["alpha_r"]),
            alpha_t=float(w["alpha_t"]),
            beta1=float(w["beta1"]),
            beta2=float(w["beta2"]),
            beta_lin=float(w["beta_lin"]),
            penalize_absolute_u2=bool(w["penalize_absolute_u2"]),
        )
        o = cfg["optimizer"]
        opt = OptimizerConfig(
            max_iters=int(o["max_iters"]),
            armijo_c=float(o["armijo_c"]),
            backtrack_factor=float(o["backtrack_factor"]),
            initial_step=float(o["initial_step"]),
            grad_tol=float(o["grad_tol"]),
            cost_rel_tol=float(o["cost_rel_tol"]),
            max_backtracks=int(o["max_backtracks"]),
            method=str(o["method"]),
        )
        q0 = DensitySpec.from_dict(cfg["scenario"]["q0"]).build(grid)
        target = DensitySpec.from_dict(cfg["scenario"]["target"]).build(grid)
        return cls(
            raw=cfg,
            grid=grid,
            tgrid=tgrid,
            params=params,
            mode=mode,
            shape=shape,
            weights=weights,
            optimizer=opt,
            q0=q0,
            target_field=target,
            seed=int(cfg["seed"]),
            output_dir=Path(cfg["output_dir"]),
        )

    def target_trajectory(self) -> Trajectory:
        """Static target replicated across all time rows."""
        return Trajectory.from_field(self.target_field, self.tgrid)

    def initial_controls(self) -> ControlSet:
        """Optional initial-control files plus a seeded random perturbation."""
        ic = self.raw["initial_controls"]
        shape = (self.tgrid.n_t + 1, self.grid.n_theta)
        arrays: dict[str, np.ndarray] = {}
        for name in self.mode.active_controls:
            file_key = f"{name}_file"
            path = ic.get(file_key)
            if path:
                arr = np.fromfile(path, dtype="<f8")
                if arr.size != shape[0] * shape[1]:
                    raise ValueError(
                        f"control file {path} holds {arr.size} samples, expected {shape[0] * shape[1]}"
                    )
                arrays[name] = arr.reshape(shape).astype(np.float64)
            else:
                arrays[name] = np.full(shape, CONTROLS[name].baseline(self.params))
        scale = float(ic.get("perturbation_scale") or 0.0)
        if scale > 0.0:
            rng = np.random.default_rng(self.seed)
            for name in arrays:
                bump = random_bandlimited(self.grid, rng, scale=scale).values
                arrays[name] = arrays[name] + bump[None, :]
        return ControlSet(
            **{name: Trajectory(self.grid, self.tgrid, arr) for name, arr in arrays.items()}
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
