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
import warnings

import numpy as np

from . import __version__
from .diagnostics import diagnose_convergence, estimate_cylinder, sample_path
from .errors import WavewalkError
from .filters import DEFAULT_TOL, FilterSpec, load_filter, validate_filter
from .ifs import DigitWord, PathSystem, cell_grid
from .measures import TruncationPolicy, harmonic_masses, zero_path_atoms
from .scaling import cascade, scaling_norm_sq, wavelet_coeffs, wavelet_from_scaling
from .serialize import csv_text, json_text
from .transfer import power_iterate, ruelle_measure


class CliUsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliUsageError(message)


#: argument specs, (flag, add_argument keywords), that several subcommands share
_GRID_LEVEL = ("--grid-level", dict(type=int, default=8, dest="grid_level"))
_TAIL_K = ("--tail-K", dict(type=int, default=TruncationPolicy.tail_cutoff_k, dest="tail_k",
                            help="lattice-sum cutoff K (|k| <= K), read only where the filter has no "
                                 "exact harmonic function"))
_OUT = ("--out", dict(default="-"))
#: the output of a subcommand with a table, CSV by default or JSON; coeffs and simulate write JSON
_OUTPUT = (_OUT, ("--format", dict(choices=("csv", "json"), default=None)))


def build_parser() -> _Parser:
    """A fresh parser of every subcommand of _COMMANDS, which the caller owns:
    what it adds to the parser never reaches main.

    main parses every run in a process with one such parser, built on its
    first run.  Reusing it is safe: argparse fills a new Namespace on every
    parse, and every default here is immutable (an int, a str or None).
    """
    p = _Parser(prog="wavewalk", description=__doc__)
    p.add_argument("--version", action="version", version=f"wavewalk {__version__}")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (help_text, arguments, _) in _COMMANDS.items():
        s = sub.add_parser(name, help=help_text)
        s.add_argument("filter")
        for flag, kwargs in arguments:
            s.add_argument(flag, **kwargs)
    return p


def _policy(args) -> TruncationPolicy:
    return TruncationPolicy(tail_cutoff_k=args.tail_k)


def _meta(args, spec: FilterSpec) -> dict:
    skip = {"out", "command", "filter"}
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


def _emit(args, meta: dict, payload: dict, csv_header=None, csv_columns=None, csv_meta=None) -> None:
    """Write meta and payload as JSON, or the CSV table where there is one.

    A subcommand with a table gives its header and one column per header
    field: a 1-D numpy array or list, formatted as serialize.csv_text says,
    and may give csv_meta, the payload's scalars as more meta lines.
    CSV is the default where a table is given, JSON otherwise.
    """
    if csv_header is not None and args.format != "json":
        flat_meta = dict(meta)
        flat_meta["config"] = " ".join(f"{k}={v}" for k, v in meta["config"].items())
        flat_meta.update(csv_meta or {})
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
        return load_filter(path)
    # a JSONDecodeError is a ValueError: it is told apart first
    except json.JSONDecodeError as exc:
        raise CliUsageError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CliUsageError(f"{path}: bad filter spec: {exc}")


#: main's parser: one per process, built on its first run
_main_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _main_parser().parse_args(argv)
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
    # one row per condition: the verdicts and the errors are in the same order
    errors = [v for k, v in doc.items() if k.endswith("_error")]
    _emit(args, meta_doc, {"report": doc}, csv_header=["condition", "error", "verdict"],
          csv_columns=[list(report.verdicts), errors, list(report.verdicts.values())])
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
    doc = report.to_json_dict()
    # x and the verdicts, which the table does not show, as meta lines; true and false as the table writes them
    verdicts = {k: str(v).lower() for k, v in doc.items() if not isinstance(v, tuple)}
    _emit(args, meta_doc, {"report": doc},
          csv_header=["n", "partial_product", "harmonic_value"],
          csv_columns=[np.arange(len(report.partial_products)), report.partial_products,
                       report.harmonic_values],
          csv_meta=verdicts)
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
        # a file with no samples is reported by wavelet_coeffs, as any bad length is
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
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


#: subcommand -> (help, the argument specs after the filter, in order,
#: handler(args, spec, system, meta_doc) returning the exit code)
_COMMANDS = {
    "validate": ("run filter sanity checks",
                 (("--grid-level", dict(_GRID_LEVEL[1], help="the grid on which a table's partition is "
                                        "sampled; a coefficient filter's is read exactly off its taps")),
                  ("--tol", dict(type=float, default=None)), *_OUTPUT),
                 _validate),
    "atom": ("sweep the all-zero-path atom over a grid; a product stops at its closed rest "
             "(tail_bound: proven relative bound on it), at 0 on underflow, or unconverged "
             "with value null where it has no limit",
             (_GRID_LEVEL, *_OUTPUT),
             functools.partial(_sweep, lambda spec, system, xs, args: zero_path_atoms(spec, system, xs))),
    "harmonic": ("sweep the minimal harmonic function h, the lattice mass: exact where the "
                 "filter allows it (tail_bound 0.0), else the lattice sum over |k| <= K "
                 "(tail_bound: the outer decade of |k|, an indicator, not a proven bound)",
                 (_GRID_LEVEL, _TAIL_K, *_OUTPUT),
                 functools.partial(_sweep, lambda spec, system, xs, args:
                                   harmonic_masses(spec, system, xs, _policy(args)))),
    "diagnose": ("pointwise convergence diagnosis",
                 (("--x", dict(type=float, required=True)),
                  ("--max-n", dict(type=int, default=30, dest="max_n")), _TAIL_K, *_OUTPUT),
                 _diagnose),
    "transfer": ("grid power iteration and stationary masses",
                 (("--iters", dict(type=int, default=200)), _GRID_LEVEL, *_OUTPUT),
                 _transfer),
    "scaling": ("cascade the scaling function or its wavelet; norm_sq_harmonic: a(0) of h, exact "
                "where h is, else a quadrature on the grid level (at most 10)",
                (("--iters", dict(type=int, default=10)),
                 ("--function", dict(choices=("phi", "psi"), default="phi")), _GRID_LEVEL, _TAIL_K, *_OUTPUT),
                _scaling),
    "coeffs": ("subband wavelet coefficients of a signal",
               (("--levels", dict(type=int, default=3)),
                ("--signal", dict(help="single-column CSV of samples")),
                ("--random-n", dict(type=int, default=None, dest="random_n")),
                ("--seed", dict(type=int, default=0)), _OUT),
               _coeffs),
    "simulate": ("sample a walk path of --n digits, or, with --word, estimate the cylinder mass "
                 "of the word: the fraction of --trials paths that the walk keeps on it",
                 (("--x", dict(type=float, required=True)),
                  ("--word", dict(help="comma-separated digits of the target prefix")),
                  ("--n", dict(type=int, default=16, help="path length when sampling")),
                  ("--trials", dict(type=int, default=100000,
                                    help="sampled paths the --word estimate counts, 100 to 2**63 - 1; it "
                                         "draws one binomial count per digit, so its cost does not grow "
                                         "with them")),
                  ("--seed", dict(type=int, default=0)), _OUT),
                 _simulate),
}


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
