"""Run configuration: JSON file plus dotted-key command-line overrides.

One nested dictionary is the schema (see DEFAULT_CONFIG and the README). The
physics, weights and optimizer sections are the fields and defaults of the
settings dataclasses; RunConfig materializes the dictionary into the one
OcpProblem it describes and the settings of the run around it.
"""

from __future__ import annotations

import copy
import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .coupling import CouplingParams
from .dynamics import CONTROLS, ControlMode, ControlSet, TimeGrid, Trajectory
from .grid import CircleGrid, random_bandlimited
from .optimizer import CostWeights, OcpProblem, OptimizerConfig
from .scenarios import DensitySpec, cast_setting, read_samples

DEFAULT_CONFIG: dict = {
    "physics": asdict(CouplingParams()),
    "discretization": {"n_theta": 128, "n_t": 2000, "T": 10.0},
    "mode": "velocity",
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
            raise ValueError(f"unknown config section {part!r} in override {key!r}")
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
            raise ValueError(f"unknown config key {prefix + key!r}")
        node = base[key]
        if isinstance(node, dict) and not isinstance(value, dict):
            raise ValueError(f"config section {prefix + key!r} must be a JSON object, got {value!r}")
        if isinstance(node, dict) and not ("kind" in node and "kind" in value):
            _merge(node, value, prefix + key + ".")
        else:
            base[key] = value


def _section(cfg: dict, name: str) -> dict:
    """A config section with each value cast to the type of its default."""
    defaults = DEFAULT_CONFIG[name]
    return {key: cast_setting(f"{name}.{key}", cfg[name][key], default) for key, default in defaults.items()}


def _settings(section: str, build, **values):
    """build(**values), the settings of one config section. The settings
    classes begin each out-of-range error with the field's name, which this
    prefixes with the section's, so the error names its dotted key."""
    try:
        return build(**values)
    except ValueError as exc:
        raise ValueError(f"{section}.{exc}") from None


def _check_section(cfg: dict) -> dict:
    """The check section, whose grids and direction count are tested here,
    before any command runs, under their own keys."""
    check = _section(cfg, "check")
    _settings("check", CircleGrid, n_theta=check["n_theta"])
    _settings("check", TimeGrid, T=check["T"], n_t=check["n_t"])
    if check["directions"] < 1:
        raise ValueError(f"check.directions must be >= 1, got {check['directions']}")
    return check


def _control_files(cfg: dict) -> dict[str, str]:
    """The initial-control file of each control that names one (null and ""
    name none); a value that is not a string names its key."""
    ic = cfg["initial_controls"]
    paths = {name: ic[f"{name}_file"] for name in CONTROLS if ic[f"{name}_file"] is not None}
    return {name: path for name, path in paths.items() if cast_setting(f"initial_controls.{name}_file", path, "")}


@dataclass(frozen=True)
class RunConfig:
    """Materialized configuration: the problem that the config dict
    describes, with its controls at their baselines (`base`), and the
    settings of the run around it."""

    raw: dict
    base: OcpProblem
    check: dict
    seed: int
    output_dir: Path

    @classmethod
    def from_dict(cls, cfg: dict) -> "RunConfig":
        disc = _section(cfg, "discretization")
        grid = _settings("discretization", CircleGrid, n_theta=disc["n_theta"])
        tgrid = _settings("discretization", TimeGrid, T=disc["T"], n_t=disc["n_t"])
        params = _settings("physics", CouplingParams, **_section(cfg, "physics"))
        modes = [member.value for member in ControlMode]
        if cfg["mode"] not in modes:
            raise ValueError(f"mode must be one of {', '.join(map(repr, modes))}, got {cfg['mode']!r}")
        mode = ControlMode(cfg["mode"])
        weights = _settings("weights", CostWeights, **_section(cfg, "weights"))
        _settings("weights", weights.validate_for_mode, mode=mode)
        optimizer = _settings("optimizer", OptimizerConfig, **_section(cfg, "optimizer"))
        q0, z = (DensitySpec.from_dict(cfg["scenario"][k], f"scenario.{k}").build(grid) for k in ("q0", "target"))
        base = OcpProblem(grid, tgrid, params, mode, weights, optimizer, q0, Trajectory.from_field(z, tgrid))
        check = _check_section(cfg)
        _control_files(cfg)  # every command rejects a control file setting that is not a string
        seed = cast_setting("seed", cfg["seed"], DEFAULT_CONFIG["seed"])
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        output_dir = Path(cast_setting("output_dir", cfg["output_dir"], DEFAULT_CONFIG["output_dir"]))
        return cls(raw=cfg, base=base, check=check, seed=seed, output_dir=output_dir)

    def initial_controls(self) -> ControlSet:
        """Optional initial-control files plus a seeded random perturbation, for
        the controls that have either; ControlSet gives the others baselines."""
        base, files = self.base, _control_files(self.raw)
        for name in files:
            if name not in base.mode.active_controls:
                raise ValueError(
                    f"initial_controls.{name}_file is set, but mode {base.mode.value!r} does not optimize {name!r}"
                )
        key = "initial_controls.perturbation_scale"
        scale = cast_setting(key, self.raw["initial_controls"]["perturbation_scale"], 0.0)
        if scale < 0.0:
            raise ValueError(f"{key} must be >= 0, got {scale}")
        shape = (base.tgrid.n_t + 1, base.grid.n_theta)
        arrays = {
            name: read_samples(path, shape[0] * shape[1], f"initial_controls.{name}_file").reshape(shape)
            for name, path in files.items()
        }
        if scale > 0.0:
            # numpy.random loads on first use (about 6 MiB of RSS), so only here;
            # the perturbation (one row) goes in place into a file's array, else
            # it is added to the baseline as a new row
            rng = np.random.default_rng(self.seed)
            for name in base.mode.active_controls:
                bump = random_bandlimited(base.grid, rng, scale=scale).values
                start = arrays.get(name, CONTROLS[name].baseline(base.params))
                arrays[name] = np.add(start, bump, out=arrays.get(name))
        return ControlSet(
            **{name: Trajectory(base.grid, base.tgrid, np.broadcast_to(arr, shape)) for name, arr in arrays.items()}
        )

    def problem(self) -> OcpProblem:
        return replace(self.base, initial=self.initial_controls())
