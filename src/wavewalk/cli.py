"""Command-line front end.

Subcommands: validate, atom, harmonic, diagnose, transfer, scaling,
coeffs, simulate.  Exit codes: 0 success, 1 usage, argument or I/O
error, 2 a validation verdict failed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import __version__
from .diagnostics import diagnose_convergence, estimate_cylinder, sample_path
from .errors import WavewalkError
from .filters import FilterSpec, validate_filter
from .ifs import DigitWord, PathSystem
from .measures import TruncationPolicy, lattice_masses, zero_path_atoms
from .scaling import cascade, scaling_norm_sq, wavelet_coeffs, wavelet_from_scaling
from .serialize import csv_text, json_text
from .transfer import power_iterate, ruelle_measure


class CliUsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliUsageError(message)


_TAIL_K_HELP = (
    "lattice-sum cutoff K (|k| <= K); harmonic always sums the lattice, scaling "
    "and diagnose use K only for filters with no exact harmonic function "
    "(tabulated, not a partition, or not low-pass)"
)


def _add_common(p, *names):
    if "grid_level" in names:
        p.add_argument("--grid-level", type=int, default=8, dest="grid_level")
    if "depth" in names:
        p.add_argument("--depth", type=int, default=40)
    if "tail_k" in names:
        p.add_argument("--tail-K", type=int, default=2000, dest="tail_k", help=_TAIL_K_HELP)
    if "tol" in names:
        p.add_argument("--tol", type=float, default=None)
    p.add_argument("--out", default="-")
    p.add_argument("--format", choices=("csv", "json"), default=None)


def build_parser() -> _Parser:
    p = _Parser(prog="wavewalk", description=__doc__)
    p.add_argument("--version", action="version", version=f"wavewalk {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="run filter sanity checks")
    v.add_argument("filter")
    _add_common(v, "grid_level", "tol")

    a = sub.add_parser("atom", help="sweep the all-zero-path atom over a grid")
    a.add_argument("filter")
    _add_common(a, "grid_level", "depth", "tol")

    h = sub.add_parser("harmonic", help="sweep the lattice-mass harmonic function")
    h.add_argument("filter")
    _add_common(h, "grid_level", "depth", "tail_k", "tol")

    d = sub.add_parser("diagnose", help="pointwise convergence diagnosis")
    d.add_argument("filter")
    d.add_argument("--x", type=float, required=True)
    d.add_argument("--max-n", type=int, default=30, dest="max_n")
    _add_common(d, "depth", "tail_k", "tol")

    t = sub.add_parser("transfer", help="grid power iteration and stationary masses")
    t.add_argument("filter")
    t.add_argument("--iters", type=int, default=200)
    _add_common(t, "grid_level")

    s = sub.add_parser("scaling", help="cascade the scaling function or its wavelet")
    s.add_argument("filter")
    s.add_argument("--iters", type=int, default=10)
    s.add_argument("--function", choices=("phi", "psi"), default="phi")
    _add_common(s, "grid_level", "depth", "tail_k", "tol")

    c = sub.add_parser("coeffs", help="subband wavelet coefficients of a signal")
    c.add_argument("filter")
    c.add_argument("--levels", type=int, default=3)
    c.add_argument("--signal", help="single-column CSV of samples")
    c.add_argument("--random-n", type=int, default=None, dest="random_n")
    c.add_argument("--seed", type=int, default=0)
    _add_common(c)

    m = sub.add_parser("simulate", help="sample walk paths / estimate a cylinder")
    m.add_argument("filter")
    m.add_argument("--x", type=float, required=True)
    m.add_argument("--word", help="comma-separated digits of the target prefix")
    m.add_argument("--n", type=int, default=16, help="path length when sampling")
    m.add_argument("--trials", type=int, default=100000)
    m.add_argument("--seed", type=int, default=0)
    _add_common(m)
    return p


def _policy(args) -> TruncationPolicy:
    return TruncationPolicy(
        product_depth=getattr(args, "depth", 40),
        tail_cutoff_k=getattr(args, "tail_k", 2000),
        convergence_tol=getattr(args, "tol", None) or 1e-12,
    )


def _meta(args, spec: FilterSpec) -> dict:
    skip = {"out", "command", "filter", "func"}
    config = {
        k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None
    }
    return {
        "tool": "wavewalk",
        "version": __version__,
        "command": args.command,
        "filter_label": spec.label,
        "config": config,
    }


def _emit(args, meta: dict, payload: dict, csv_header=None, csv_rows=None) -> None:
    fmt = args.format or ("json" if csv_header is None else "csv")
    if fmt == "csv" and csv_header is not None:
        flat_meta = dict(meta)
        flat_meta["config"] = " ".join(f"{k}={v}" for k, v in meta["config"].items())
        text = csv_text(flat_meta, csv_header, csv_rows)
    else:
        text = json_text({"meta": meta, **payload}) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_spec(path: str) -> FilterSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise CliUsageError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}")
    except OSError as exc:
        raise CliUsageError(f"{path}: {exc.strerror or exc}")
    try:
        return FilterSpec.from_json_dict(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise CliUsageError(f"{path}: bad filter spec: {exc}")


def _grid(system: PathSystem, level: int) -> np.ndarray:
    cells = system.scale_n**level
    return np.arange(cells, dtype=np.float64) / cells


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        spec = _load_spec(args.filter)
        return _COMMANDS[args.command](args, spec, PathSystem(spec.scale_n), _meta(args, spec))
    except (CliUsageError, WavewalkError, ValueError) as exc:
        # ValueError: an argument the API rejects, such as --depth 0
        print(f"wavewalk: error: {exc}", file=sys.stderr)
        return 1


def _validate(args, spec, system, meta_doc) -> int:
    tol = args.tol or 1e-9
    report = validate_filter(spec, grid_level=args.grid_level, tol=tol)
    doc = report.to_json_dict()
    keys = {"partition": "partition_max_error", "quadrature": "quadrature_max_error",
            "lowpass": "lowpass_error"}
    rows = [(name, doc[key], report.verdicts[name])
            for name, key in keys.items() if doc.get(key) is not None]
    _emit(args, meta_doc, {"report": doc},
          csv_header=["condition", "error", "verdict"], csv_rows=rows)
    return 0 if report.all_ok else 2


def _sweep(measure, args, spec, system, meta_doc) -> int:
    """atom / harmonic: one MeasureArray over the grid, one row per point."""
    xs = _grid(system, args.grid_level)
    arr = measure(spec, system, xs, _policy(args))
    tails = [None if math.isnan(t) else t for t in arr.tail_bound.tolist()]
    rows = list(zip(xs.tolist(), arr.value.tolist(), arr.converged.tolist(), tails,
                    arr.depth_used.tolist()))
    _emit(args, meta_doc, {"rows": [list(r) for r in rows]},
          csv_header=["x", "value", "converged", "tail_bound", "depth_used"],
          csv_rows=rows)
    return 0


def _diagnose(args, spec, system, meta_doc) -> int:
    report = diagnose_convergence(spec, system, args.x, args.max_n, _policy(args))
    rows = list(zip(range(len(report.partial_products)), report.partial_products,
                    report.harmonic_values))
    _emit(args, meta_doc, {"report": report.to_json_dict()},
          csv_header=["n", "partial_product", "harmonic_value"], csv_rows=rows)
    return 0


def _transfer(args, spec, system, meta_doc) -> int:
    grid_fn, history = power_iterate(spec, system, args.grid_level, args.iters)
    masses, residual = ruelle_measure(spec, system, args.grid_level, args.iters)
    lefts = (np.arange(grid_fn.cells) / grid_fn.cells).tolist()
    rows = list(zip(range(grid_fn.cells), lefts, grid_fn.values.tolist(), masses.values.tolist()))
    _emit(args, meta_doc,
          {"harmonic_grid": grid_fn.values, "sup_change_history": history,
           "ruelle_masses": masses.values, "ruelle_residual": residual},
          csv_header=["cell", "left", "harmonic_value", "ruelle_mass"],
          csv_rows=rows)
    return 0


def _scaling(args, spec, system, meta_doc) -> int:
    phi = cascade(spec, system, iters=args.iters, level=args.grid_level)
    fn = phi if args.function == "phi" else wavelet_from_scaling(spec, phi)
    meta_doc["norm_sq_riemann"] = fn.norm_sq()
    meta_doc["norm_sq_harmonic"] = scaling_norm_sq(
        spec, system, _policy(args), level=min(args.grid_level, 10)
    )
    rows = list(zip(fn.grid().tolist(), fn.samples.real.tolist(), fn.samples.imag.tolist()))
    _emit(args, meta_doc,
          {"t_min": fn.t_min, "t_max": fn.t_max, "step": fn.step,
           "re": fn.samples.real, "im": fn.samples.imag},
          csv_header=["t", "re", "im"], csv_rows=rows)
    return 0


def _coeffs(args, spec, system, meta_doc) -> int:
    if (args.signal is None) == (args.random_n is None):
        raise CliUsageError("give exactly one of --signal / --random-n")
    if args.signal:
        sig = np.loadtxt(args.signal, delimiter=",", comments="#", ndmin=1)
    else:
        rng = np.random.Generator(np.random.Philox(key=np.uint64(args.seed)))
        sig = rng.standard_normal(args.random_n)
    details, smooth = wavelet_coeffs(spec, sig, args.levels)
    payload = {}
    for i, band in enumerate(details, start=1):
        payload[f"detail_{i}"] = {"re": band.real, "im": band.imag}
    payload["smooth"] = {"re": smooth.real, "im": smooth.imag}
    payload["energy"] = float(
        sum(np.sum(np.abs(b) ** 2) for b in details) + np.sum(np.abs(smooth) ** 2)
    )
    _emit(args, meta_doc, payload)
    return 0


def _simulate(args, spec, system, meta_doc) -> int:
    if args.word:
        digits = DigitWord(tuple(int(d) for d in args.word.split(",")))
        est = estimate_cylinder(spec, system, args.x, digits, args.trials, args.seed)
        _emit(args, meta_doc, {"result": est.to_json_dict()})
    else:
        walk = sample_path(spec, system, args.x, args.n, args.seed)
        _emit(args, meta_doc, {
            "x0": walk.x0,
            "seed": walk.seed,
            "digits": walk.digits.to_json(),
            "step_norms": list(walk.step_norms),
        })
    return 0


#: subcommand -> handler(args, spec, system, meta_doc) returning the exit code
_COMMANDS = {
    "validate": _validate,
    "atom": functools.partial(_sweep, zero_path_atoms),
    "harmonic": functools.partial(_sweep, lattice_masses),
    "diagnose": _diagnose,
    "transfer": _transfer,
    "scaling": _scaling,
    "coeffs": _coeffs,
    "simulate": _simulate,
}


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
