"""Command-line front end.

Subcommands: validate, atom, harmonic, diagnose, transfer, scaling,
coeffs, simulate.  Exit codes: 0 success, 1 usage, argument or I/O
error, 2 a validation verdict failed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import __version__
from .diagnostics import diagnose_convergence, estimate_cylinder, sample_path
from .errors import WavewalkError
from .filters import DEFAULT_TOL, FilterSpec, validate_filter
from .ifs import DigitWord, PathSystem, cell_grid
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
    "(off-grid or non-partition tables, or coefficient filters that are not a "
    "low-pass partition); harmonic's tail_bound is the sum over the outer decade "
    "of |k|, an indicator rather than a proven bound"
)


def _add_common(p, *names):
    if "grid_level" in names:
        p.add_argument("--grid-level", type=int, default=8, dest="grid_level")
    if "tail_k" in names:
        p.add_argument("--tail-K", type=int, default=TruncationPolicy.tail_cutoff_k, dest="tail_k",
                       help=_TAIL_K_HELP)
    if "tol" in names:
        p.add_argument("--tol", type=float, default=None)
    p.add_argument("--out", default="-")
    p.add_argument("--format", choices=("csv", "json"), default=None)


def _parser(names) -> _Parser:
    """The top-level parser with the subparsers of the named subcommands only."""
    p = _Parser(prog="wavewalk", description=__doc__)
    p.add_argument("--version", action="version", version=f"wavewalk {__version__}")
    sub = p.add_subparsers(dest="command", required=True)
    for name in names:
        help_text, add_arguments, _ = _COMMANDS[name]
        s = sub.add_parser(name, help=help_text)
        s.add_argument("filter")
        add_arguments(s)
    return p


def build_parser() -> _Parser:
    """The parser of every subcommand, for -h, --version and unknown commands."""
    return _parser(_COMMANDS)


def _policy(args) -> TruncationPolicy:
    return TruncationPolicy(tail_cutoff_k=args.tail_k)


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


def _emit(args, meta: dict, payload: dict, csv_header=None, csv_columns=None) -> None:
    """Write meta and payload as JSON, or the CSV table where there is one.

    A subcommand with a table gives its header and one column per header
    field: a 1-D numpy array or list, formatted as serialize.csv_text says.
    CSV is the default where a table is given, JSON otherwise.
    """
    if csv_header is not None and args.format != "json":
        flat_meta = dict(meta)
        flat_meta["config"] = " ".join(f"{k}={v}" for k, v in meta["config"].items())
        text = csv_text(flat_meta, csv_header, csv_columns)
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
    try:
        return FilterSpec.from_json_dict(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise CliUsageError(f"{path}: bad filter spec: {exc}")


def main(argv=None) -> int:
    try:
        argv = sys.argv[1:] if argv is None else list(argv)
        # a run of one subcommand needs only that subparser, which parses
        # the arguments as the full parser does
        names = argv[:1] if argv and argv[0] in _COMMANDS else _COMMANDS
        args = _parser(names).parse_args(argv)
        spec = _load_spec(args.filter)
        handler = _COMMANDS[args.command][2]
        return handler(args, spec, PathSystem(spec.scale_n), _meta(args, spec))
    except (CliUsageError, WavewalkError, ValueError) as exc:
        # ValueError: an argument the API rejects, such as --tail-K 0
        print(f"wavewalk: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # a file that cannot be read or written: the filter, --signal or --out
        print(f"wavewalk: error: {exc.filename}: {exc.strerror}" if exc.filename and exc.strerror
              else f"wavewalk: error: {exc}", file=sys.stderr)
        return 1


def _validate(args, spec, system, meta_doc) -> int:
    tol = DEFAULT_TOL if args.tol is None else args.tol
    if not tol >= 0.0:
        raise CliUsageError(f"--tol must be >= 0, got {tol!r}")
    report = validate_filter(spec, grid_level=args.grid_level, tol=tol)
    doc = report.to_json_dict()
    keys = {"partition": "partition_max_error", "quadrature": "quadrature_max_error",
            "lowpass": "lowpass_error"}
    names = [name for name, key in keys.items() if doc.get(key) is not None]
    errors = [doc[keys[name]] for name in names]
    _emit(args, meta_doc, {"report": doc}, csv_header=["condition", "error", "verdict"],
          csv_columns=[names, errors, [report.verdicts[name] for name in names]])
    return 0 if report.all_ok else 2


def _sweep(measure, args, spec, system, meta_doc) -> int:
    """atom / harmonic: one MeasureArray measure(spec, system, xs, args) over the grid, one row per point."""
    xs = cell_grid(system.scale_n, args.grid_level)
    arr = measure(spec, system, xs, args)
    columns = [xs, arr.value, arr.converged, arr.tail_bound, arr.depth_used]
    # JSON writes the NaN of a missing tail bound as null, as CSV does
    rows = (list(map(list, zip(*(c.tolist() for c in columns))))
            if args.format == "json" else None)
    _emit(args, meta_doc, {"rows": rows},
          csv_header=["x", "value", "converged", "tail_bound", "depth_used"],
          csv_columns=columns)
    return 0


def _diagnose(args, spec, system, meta_doc) -> int:
    report = diagnose_convergence(spec, system, args.x, args.max_n, _policy(args))
    _emit(args, meta_doc, {"report": report.to_json_dict()},
          csv_header=["n", "partial_product", "harmonic_value"],
          csv_columns=[np.arange(len(report.partial_products)), report.partial_products,
                       report.harmonic_values])
    return 0


def _transfer(args, spec, system, meta_doc) -> int:
    grid_fn, history = power_iterate(spec, system, args.grid_level, args.iters)
    masses, residual = ruelle_measure(spec, system, args.grid_level, args.iters)
    cells = np.arange(grid_fn.cells)
    _emit(args, meta_doc,
          {"harmonic_grid": grid_fn.values, "sup_change_history": history,
           "ruelle_masses": masses.values, "ruelle_residual": residual},
          csv_header=["cell", "left", "harmonic_value", "ruelle_mass"],
          csv_columns=[cells, cells / grid_fn.cells, grid_fn.values, masses.values])
    return 0


def _scaling(args, spec, system, meta_doc) -> int:
    phi = cascade(spec, system, iters=args.iters, level=args.grid_level)
    fn = phi if args.function == "phi" else wavelet_from_scaling(spec, phi)
    meta_doc["norm_sq_riemann"] = fn.norm_sq()
    meta_doc["norm_sq_harmonic"] = scaling_norm_sq(
        spec, system, _policy(args), level=min(args.grid_level, 10)
    )
    _emit(args, meta_doc,
          {"t_min": fn.t_min, "t_max": fn.t_max, "step": fn.step,
           "re": fn.samples.real, "im": fn.samples.imag},
          csv_header=["t", "re", "im"], csv_columns=[fn.grid(), fn.samples.real, fn.samples.imag])
    return 0


def _coeffs(args, spec, system, meta_doc) -> int:
    if (args.signal is None) == (args.random_n is None):
        raise CliUsageError("give exactly one of --signal / --random-n")
    if args.random_n is not None and args.random_n < 1:
        raise CliUsageError(f"--random-n must be >= 1, got {args.random_n}")
    if args.signal:
        sig = np.loadtxt(args.signal, delimiter=",", comments="#", ndmin=1)
    else:
        rng = np.random.Generator(np.random.Philox(key=np.uint64(args.seed)))
        try:
            sig = rng.standard_normal(args.random_n)
        except MemoryError as exc:
            raise CliUsageError(f"a signal of {args.random_n} samples cannot be allocated") from exc
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


def _validate_args(p) -> None:
    _add_common(p, "grid_level", "tol")


def _atom_args(p) -> None:
    _add_common(p, "grid_level")


def _harmonic_args(p) -> None:
    _add_common(p, "grid_level", "tail_k")


def _diagnose_args(p) -> None:
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--max-n", type=int, default=30, dest="max_n")
    _add_common(p, "tail_k")


def _transfer_args(p) -> None:
    p.add_argument("--iters", type=int, default=200)
    _add_common(p, "grid_level")


def _scaling_args(p) -> None:
    p.add_argument("--iters", type=int, default=10)
    p.add_argument("--function", choices=("phi", "psi"), default="phi")
    _add_common(p, "grid_level", "tail_k")


def _coeffs_args(p) -> None:
    p.add_argument("--levels", type=int, default=3)
    p.add_argument("--signal", help="single-column CSV of samples")
    p.add_argument("--random-n", type=int, default=None, dest="random_n")
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)


def _simulate_args(p) -> None:
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--word", help="comma-separated digits of the target prefix")
    p.add_argument("--n", type=int, default=16, help="path length when sampling")
    p.add_argument("--trials", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)


#: subcommand -> (help, builder of its arguments after the filter,
#: handler(args, spec, system, meta_doc) returning the exit code)
_COMMANDS = {
    "validate": ("run filter sanity checks", _validate_args, _validate),
    "atom": ("sweep the all-zero-path atom over a grid; a product stops at its closed rest "
             "(tail_bound: proven relative bound on it), at 0 on underflow, or unconverged "
             "with value null where it has no limit",
             _atom_args,
             functools.partial(_sweep, lambda spec, system, xs, args: zero_path_atoms(spec, system, xs))),
    "harmonic": ("sweep the lattice-mass harmonic function", _harmonic_args,
                 functools.partial(_sweep, lambda spec, system, xs, args:
                                   lattice_masses(spec, system, xs, _policy(args)))),
    "diagnose": ("pointwise convergence diagnosis", _diagnose_args, _diagnose),
    "transfer": ("grid power iteration and stationary masses", _transfer_args, _transfer),
    "scaling": ("cascade the scaling function or its wavelet", _scaling_args, _scaling),
    "coeffs": ("subband wavelet coefficients of a signal", _coeffs_args, _coeffs),
    "simulate": ("sample walk paths / estimate a cylinder", _simulate_args, _simulate),
}


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
