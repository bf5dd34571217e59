"""Deterministic file writers: CSV time series, raw field dumps, summary JSON.

Floats are rendered with %.17g (shortest exact round-trip), dictionaries are
written with sorted keys, and nothing records wall-clock state, so identical
inputs produce byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

import numpy as np

from .dynamics import Trajectory
from .grid import FloatArray
from .optimizer import IterationRecord


def fmt(x: float) -> str:
    return f"{float(x):.17g}"


def write_timeseries_csv(
    path: Path,
    t: FloatArray,
    R: FloatArray,
    psi: FloatArray,
    mass: FloatArray,
    jq_running: FloatArray,
) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("t,R,psi,mass,Jq_running\n")
        for row in zip(t, R, psi, mass, jq_running):
            fh.write(",".join(fmt(x) for x in row) + "\n")


def write_convergence_csv(path: Path, iterates: Iterable[IterationRecord]) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("iter,J,J_q,J_u,grad_norm,step,backtracks\n")
        for rec in iterates:
            fh.write(
                f"{rec.iteration},{fmt(rec.J)},{fmt(rec.J_q)},{fmt(rec.J_u)},"
                f"{fmt(rec.grad_norm)},{fmt(rec.step)},{rec.backtracks}\n"
            )


def write_field_file(path: Path, traj: Trajectory, name: str, units: str) -> None:
    """Raw little-endian float64 samples, time-major rows, plus a JSON sidecar."""
    # no copy unless the history is a broadcast view or not little-endian
    np.ascontiguousarray(traj.data, dtype="<f8").tofile(path)
    header = {
        "field": name,
        "units": units,
        "n_theta": traj.grid.n_theta,
        "n_t": traj.tgrid.n_t,
        "T": traj.tgrid.T,
        "dtype": "<f8",
        "order": "time-major",
    }
    write_json(path.with_suffix(path.suffix + ".json"), header)


def read_field_file(path: Path) -> tuple[dict, np.ndarray]:
    with open(path.with_suffix(path.suffix + ".json")) as fh:
        header = json.load(fh)
    data = np.fromfile(path, dtype="<f8").reshape(header["n_t"] + 1, header["n_theta"])
    return header, data.astype(np.float64)


def write_json(path: Path, payload: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
