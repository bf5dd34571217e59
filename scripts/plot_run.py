#!/usr/bin/env python3
"""Regenerate the standard figures from a run's output directory.

Post-hoc only: reads the CSV/field files written by `kurasteer simulate` or
`kurasteer optimize`; the solver never depends on this script.

Usage: python scripts/plot_run.py OUT_DIR [--save DIR], with the package
installed (pip install -e .), whose reader checks each field file's length.
"""

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from kurasteer.outputs import read_field_file

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib is required for plotting", file=sys.stderr)
    sys.exit(1)


def read_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    header, data = rows[0], np.array([[float(x) for x in r] for r in rows[1:]])
    return {name: data[:, i] for i, name in enumerate(header)}


def spacetime_panel(ax, meta, data, title):
    t = np.linspace(0, meta["T"], meta["n_t"] + 1)
    theta = np.linspace(0, 2 * np.pi, meta["n_theta"], endpoint=False)
    pcm = ax.pcolormesh(theta, t, data, shading="nearest", cmap="viridis")
    ax.set_xlabel("theta [rad]")
    ax.set_ylabel("t [s]")
    ax.set_title(title)
    return pcm


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("out_dir", type=Path)
    parser.add_argument("--save", type=Path, default=None, help="figure directory (default: OUT_DIR)")
    args = parser.parse_args()
    out = args.out_dir
    save = args.save or out
    save.mkdir(parents=True, exist_ok=True)

    ts = read_csv(out / "timeseries.csv")
    fig, axes = plt.subplots(1, 2, figsize=(10, 4))
    axes[0].plot(ts["t"], ts["R"])
    axes[0].set_xlabel("t [s]")
    axes[0].set_ylabel("R")
    axes[0].set_title("phase coherence")
    axes[1].plot(ts["R"] * np.cos(ts["psi"]), ts["R"] * np.sin(ts["psi"]))
    axes[1].set_xlabel("R cos psi")
    axes[1].set_ylabel("R sin psi")
    axes[1].set_title("order parameter in the complex plane")
    axes[1].set_aspect("equal")
    fig.tight_layout()
    fig.savefig(save / "coherence.png", dpi=150)

    conv_path = out / "convergence.csv"
    if conv_path.exists():
        conv = read_csv(conv_path)
        fig, axes = plt.subplots(1, 2, figsize=(10, 4))
        axes[0].semilogy(conv["iter"], conv["J"])
        axes[0].set_xlabel("iteration")
        axes[0].set_ylabel("J")
        axes[0].set_title("cost")
        axes[1].semilogy(conv["iter"], conv["grad_norm"])
        axes[1].set_xlabel("iteration")
        axes[1].set_ylabel("|grad J|")
        axes[1].set_title("gradient norm")
        fig.tight_layout()
        fig.savefig(save / "convergence.png", dpi=150)

    for name in ("state", "adjoint", "control_u1", "control_u2", "control_source"):
        path = out / f"{name}.f64"
        if not path.exists():
            continue
        meta, data = read_field_file(path)
        fig, ax = plt.subplots(figsize=(6, 4.5))
        pcm = spacetime_panel(ax, meta, data, meta["field"])
        fig.colorbar(pcm, ax=ax)
        fig.tight_layout()
        fig.savefig(save / f"{name}.png", dpi=150)

        fig, ax = plt.subplots(figsize=(6, 3.5))
        theta = np.linspace(0, 2 * np.pi, meta["n_theta"], endpoint=False)
        ax.plot(theta, data[0], label="t = 0")
        ax.plot(theta, data[-1], label=f"t = {meta['T']:g}")
        ax.set_xlabel("theta [rad]")
        ax.set_title(f"{meta['field']}: first and final slices")
        ax.legend()
        fig.tight_layout()
        fig.savefig(save / f"{name}_slices.png", dpi=150)

    print(f"figures written to {save}")


if __name__ == "__main__":
    main()
