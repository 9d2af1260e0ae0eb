"""Per-layer metrics of the traced run.

Each traced function gets calls, self and total seconds per traced
pass.  Work counters come from hooks that read a call's arguments and
result, so a rate is measured where the work happens; quality values
come from the workloads' oracle checks.  A metric whose function the
package no longer has, or that a workload does not call, reads 0 and
its function is listed as absent or idle.
"""

from __future__ import annotations

import statistics

from .tracer import COUNTED_METHODS

#: functions with calls / self_s / total_s metrics
TRACED = (
    "filters.weight_array",
    "filters.eval_weight",
    "filters.validate_filter",
    "measures.zero_path_atom",
    "measures.lattice_mass",
    "measures.harmonic_on_grid",
    "measures.expect_finite",
    "measures.refinement_check",
    "scaling.scaling_norm_sq",
    "scaling.cascade",
    "scaling.wavelet_coeffs",
    "transfer.power_iterate",
    "transfer.ruelle_measure",
    "diagnostics.diagnose_convergence",
    "diagnostics.estimate_cylinder",
    "diagnostics.sample_path",
    "serialize.json_text",
    "serialize.csv_text",
)
#: methods with a call count only
COUNTED = COUNTED_METHODS
CLI_SUBCOMMANDS = ("validate", "atom", "harmonic", "diagnose", "transfer", "scaling",
                   "coeffs", "simulate")
CLI_FILTERS = ("d4", "stretched_haar")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _size(a):
    return getattr(a, "size", 1)


def _lattice_mass(args, kwargs, result):
    k = _arg(args, kwargs, 3, "policy").tail_cutoff_k
    return {"atoms": 2 * k + 1, "results": 1, "unconverged": 0 if result.converged else 1}


def _harmonic_on_grid(args, kwargs, result):
    k = _arg(args, kwargs, 3, "policy").tail_cutoff_k
    return {"atoms": _size(result) * (2 * k + 1)}


def _ruelle(args, kwargs, result):
    masses = result[0]
    return {"cell_updates": masses.cells * masses.n_branches * _arg(args, kwargs, 3, "iters")}


def _diagnose(args, kwargs, result):
    verdicts = (result.product_verdict, result.harmonic_verdict)
    return {"results": 1, "inconclusive": 1 if "inconclusive" in verdicts else 0}


def _expect_finite(args, kwargs, result):
    f = _arg(args, kwargs, 3, "f")
    return {"words": f.n_branches**f.arity}


def _serialized(args, kwargs, result):
    return {"bytes": len(result)}


HOOKS = {
    "measures.lattice_mass": _lattice_mass,
    "measures.harmonic_on_grid": _harmonic_on_grid,
    "measures.zero_path_atom": lambda a, k, r: {"depth": r.depth_used, "results": 1},
    "measures.expect_finite": _expect_finite,
    "filters.weight_array": lambda a, k, r: {"evals": _size(r)},
    "diagnostics.estimate_cylinder": lambda a, k, r: {
        "trial_steps": r.trials * len(_arg(a, k, 3, "word"))},
    "diagnostics.sample_path": lambda a, k, r: {"steps": len(r.digits)},
    "diagnostics.diagnose_convergence": _diagnose,
    "scaling.cascade": lambda a, k, r: {"samples": _arg(a, k, 2, "iters") * len(r.samples)},
    "scaling.wavelet_coeffs": lambda a, k, r: {"samples": len(_arg(a, k, 1, "signal"))},
    "transfer.ruelle_measure": _ruelle,
    "serialize.json_text": _serialized,
    "serialize.csv_text": _serialized,
}

# (name, unit, better, how): how is ("rate", function, counter) per second
# of the function's total time, ("frac", function, counter, base) for a
# counter over a base count, or ("max" | "avg", quality metric)
NAMED = (
    ("measures.lattice_mass.atoms_per_s", "1/s", "higher", ("rate", "measures.lattice_mass", "atoms")),
    ("measures.harmonic_on_grid.atoms_per_s", "1/s", "higher",
     ("rate", "measures.harmonic_on_grid", "atoms")),
    ("measures.lattice_mass.unconverged_frac", "ratio", "lower",
     ("frac", "measures.lattice_mass", "unconverged", "results")),
    ("measures.harmonic_on_grid.max_err", "abs", "lower", ("max", "measures.harmonic_on_grid.max_err")),
    ("measures.harmonic_on_grid.lag_err", "abs", "lower", ("max", "measures.harmonic_on_grid.lag_err")),
    ("scaling.scaling_norm_sq.err", "abs", "lower", ("max", "scaling.scaling_norm_sq.err")),
    ("measures.zero_path_atom.depth_mean", "count", "lower",
     ("frac", "measures.zero_path_atom", "depth", "results")),
    ("cli.atom.depth_mean", "count", "lower", ("avg", "cli.atom.depth_mean")),
    ("cli.atom.unconverged_frac", "ratio", "lower", ("avg", "cli.atom.unconverged_frac")),
    ("cli.atom.max_err", "abs", "lower", ("max", "cli.atom.max_err")),
    ("measures.expect_finite.words_per_s", "1/s", "higher", ("rate", "measures.expect_finite", "words")),
    ("measures.expect_finite.mass_err", "abs", "lower", ("max", "measures.expect_finite.mass_err")),
    ("filters.weight_array.evals_per_s", "1/s", "higher", ("rate", "filters.weight_array", "evals")),
    ("diagnostics.estimate_cylinder.trial_steps_per_s", "1/s", "higher",
     ("rate", "diagnostics.estimate_cylinder", "trial_steps")),
    ("diagnostics.estimate_cylinder.z_max", "z", "lower", ("max", "diagnostics.estimate_cylinder.z_max")),
    ("diagnostics.sample_path.steps_per_s", "1/s", "higher", ("rate", "diagnostics.sample_path", "steps")),
    ("diagnostics.diagnose_convergence.inconclusive_frac", "ratio", "lower",
     ("frac", "diagnostics.diagnose_convergence", "inconclusive", "results")),
    ("scaling.cascade.samples_per_s", "1/s", "higher", ("rate", "scaling.cascade", "samples")),
    ("scaling.wavelet_coeffs.samples_per_s", "1/s", "higher",
     ("rate", "scaling.wavelet_coeffs", "samples")),
    ("scaling.wavelet_coeffs.energy_err", "ratio", "lower", ("max", "scaling.wavelet_coeffs.energy_err")),
    ("transfer.ruelle_measure.cell_updates_per_s", "1/s", "higher",
     ("rate", "transfer.ruelle_measure", "cell_updates")),
    ("transfer.ruelle_measure.residual", "abs", "lower", ("max", "transfer.ruelle_measure.residual")),
)


def metric_specs():
    """[(name, unit, better)] of every per-layer metric, in report order."""
    out = []
    for fn in TRACED:
        out += [(f"{fn}.calls", "count", "lower"), (f"{fn}.self_s", "s", "lower"),
                (f"{fn}.total_s", "s", "lower")]
    out += [(f"{m}.calls", "count", "lower") for m in COUNTED]
    out += [(f"cli.{s}.{f}.ms", "ms", "lower") for s in CLI_SUBCOMMANDS for f in CLI_FILTERS]
    out += [(name, unit, better) for name, unit, better, _ in NAMED]
    out += [
        ("serialize.bytes_per_s", "B/s", "higher"),
        ("trace.overhead_s", "s", "lower"),
        ("ops.fail_frac", "ratio", "lower"),
    ]
    return out


def compute(tracer, traced_passes, quality, cli_ms, overhead_s, fail_frac):
    """{name: value} for every metric of metric_specs()."""
    totals = tracer.totals()
    counters = tracer.counters
    per_pass = max(traced_passes, 1)
    values = {}
    for fn in TRACED:
        calls, total, self_s = totals.get(fn, (0, 0.0, 0.0))
        values[f"{fn}.calls"] = calls / per_pass
        values[f"{fn}.self_s"] = self_s / per_pass
        values[f"{fn}.total_s"] = total / per_pass
    for m in COUNTED:
        values[f"{m}.calls"] = tracer.counts.get(m, 0) / per_pass
    for s in CLI_SUBCOMMANDS:
        for f in CLI_FILTERS:
            values[f"cli.{s}.{f}.ms"] = cli_ms.get((s, f), 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    for name, _, _, how in NAMED:
        kind = how[0]
        if kind == "rate":
            seconds = totals.get(how[1], (0, 0.0, 0.0))[1]
            values[name] = ratio(counters.get(how[1], {}).get(how[2], 0.0), seconds)
        elif kind == "frac":
            c = counters.get(how[1], {})
            values[name] = ratio(c.get(how[2], 0.0), c.get(how[3], 0.0))
        elif kind == "max":
            values[name] = max(quality.get(how[1], [0.0]))
        else:
            values[name] = statistics.fmean(quality.get(how[1], [0.0]))
    ser = [counters.get(f"serialize.{f}", {}).get("bytes", 0.0) for f in ("json_text", "csv_text")]
    ser_s = [totals.get(f"serialize.{f}", (0, 0.0, 0.0))[1] for f in ("json_text", "csv_text")]
    values["serialize.bytes_per_s"] = ratio(sum(ser), sum(ser_s))
    values["trace.overhead_s"] = overhead_s
    values["ops.fail_frac"] = fail_frac
    return values
