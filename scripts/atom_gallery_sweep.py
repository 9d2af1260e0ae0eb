#!/usr/bin/env python3
"""Sweep the zero-path atom and the minimal harmonic function over the
bundled filter gallery and write one CSV per filter.

Usage:
    python scripts/atom_gallery_sweep.py [--grid-level 8] [--tail-K 2000] [--outdir sweeps]
"""

import argparse
import pathlib

import numpy as np

import wavewalk as ww
from wavewalk.serialize import csv_text


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--grid-level", type=int, default=8)
    ap.add_argument(
        "--tail-K", type=int, default=2000, dest="tail_k",
        help="lattice-sum cutoff K, used only for filters with no exact harmonic "
        "function (off-grid or non-partition tables, or coefficient filters that "
        "are not a low-pass partition)",
    )
    ap.add_argument("--outdir", default="sweeps")
    args = ap.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(exist_ok=True)
    policy = ww.TruncationPolicy(tail_cutoff_k=args.tail_k)

    print(f"{'filter':16s} {'min F':>10s} {'max F':>10s} {'min h':>10s} {'max h':>10s}")
    for name in ww.GALLERY_NAMES:
        spec = ww.load_gallery(name)
        system = ww.PathSystem(spec.scale_n)
        cells = spec.scale_n**args.grid_level
        xs = np.arange(cells, dtype=np.float64) / cells
        atoms = ww.zero_path_atoms(spec, system, xs, policy)
        h = ww.harmonic_on_grid(spec, system, xs, policy)
        text = csv_text(
            {"filter": name, "grid_level": args.grid_level, "tail_K": args.tail_k},
            ["x", "atom", "atom_converged", "harmonic_mass", "depth_used"],
            [xs, atoms.value, atoms.converged, h, atoms.depth_used],
        )
        (outdir / f"{name}_sweep.csv").write_text(text)
        print(
            f"{name:16s} {atoms.value.min():10.3e} {atoms.value.max():10.3e} "
            f"{h.min():10.3e} {h.max():10.3e}"
        )
    print(f"CSV files in {outdir}/")


if __name__ == "__main__":
    main()
