"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload lattice --seed 1 --seconds 35 --trace 0

Runs from the root of a source checkout: wavewalk is imported from
src/ of that checkout and nowhere else.  The workload runs in this one
process on one thread; the set-up probe starts fresh interpreters one
at a time and waits for each.  Passes over the workload's op list
repeat until --seconds have gone by (and at least MIN_PASSES have run).
Timings are reported at the host's nominal speed (see hostspeed.py);
the values as measured are printed beside them and kept in the record.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
and traced passes and prints the per-layer metrics.  Human-readable
lines come first; the last line of stdout is one JSON object.  A record
of the run (all metrics, environment, failures) is written to
.perfbench/runs/ for perfbench/compare.py, and under --trace 1 the spans
go to .perfbench/trace/.
"""

from __future__ import annotations

import argparse
import os
import sys

# single-threaded numeric libraries, fixed before numpy is imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

import inspect  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402

MIN_PASSES = 4
#: per-layer metrics carry no bound, so a traced run needs fewer passes
MIN_TRACE_PASSES = 2
SETUP_REPS = 9
SETUP_CODE = (
    "import wavewalk, wavewalk.cli\n"
    "[wavewalk.load_gallery(n) for n in wavewalk.GALLERY_NAMES]\n"
    "wavewalk.cli.build_parser()\n"
)
#: the tail sits 2.5 op slots below the top of a pass, which leaves at
#: least ten ops beyond it once MIN_PASSES passes have run
TAIL_SLOTS = 2.5


def _import_wavewalk():
    """Import wavewalk from this checkout's src/, or exit without a result."""
    if not os.path.isdir(os.path.join(SRC, "wavewalk")):
        sys.exit(f"perfbench: no wavewalk sources under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, ROOT)
    import wavewalk

    if os.path.dirname(os.path.dirname(os.path.abspath(wavewalk.__file__))) != SRC:
        sys.exit(f"perfbench: wavewalk imported from {wavewalk.__file__}, not {SRC}")
    return wavewalk


def measure_setup(host):
    """Median wall time of a fresh interpreter that imports wavewalk,
    loads the gallery and builds the CLI parser (one unmeasured start
    first, which also writes the bytecode caches).

    Returns (scaled, raw): the median at the host's nominal speed, from
    a block of reference samples before each start, and as measured.
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    times, refs = [], []
    for rep in range(SETUP_REPS + 1):
        block = host.block()
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env, check=True)
        if rep:
            times.append(time.perf_counter() - start)
            refs += block
    raw = statistics.median(times)
    return raw * host.scale(refs), raw


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def environment(ww, np):
    """Versions, machine, thread settings and working-set sizes.

    Only what the interpreter itself reports: the run reads no files
    outside its checkout, so the CPU model and cache sizes of the
    reference box are in perfbench/README.md instead.
    """
    chunk = inspect.signature(ww.harmonic_on_grid).parameters.get("chunk")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "wavewalk": ww.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "working_sets": {
            "harmonic_on_grid_chunk_bytes": chunk.default * 8 if chunk else None,
            "expect_finite_arity20_table_bytes": 2**20 * 16,
            "expect_finite_arity20_float_array_bytes": 2**20 * 8,
        },
    }


@dataclass
class Pass:
    """One pass over the op list.

    results holds (latency_s, ok, ratios) per op, as measured; scale
    takes them to the host's nominal speed (hostspeed.py), from the
    reference samples taken between the ops.  elapsed is the pass's wall
    time including those samples.
    """

    results: list
    scale: float
    elapsed: float

    @property
    def seconds(self):
        """Sum of the op latencies at nominal speed."""
        return self.scale * sum(lat for lat, _, _ in self.results)

    def latencies(self):
        return [self.scale * lat for lat, _, _ in self.results]


def run_pass(ops, quality, checker_cls, tracer, op_base, failures, host):
    """Run every op once, each after a warm sample of the reference kernel."""
    results, refs = [], []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = op_base + i
        checker = checker_cls(quality)
        host.sample()  # the op before may have left the caches cold
        refs.append(host.sample())
        t0 = time.perf_counter()
        try:
            op.fn(checker)
            ok = True
        except Exception:  # an op that raises is a failed op; the run goes on
            ok = False
            if op.label not in failures:
                failures[op.label] = traceback.format_exc(limit=3)
        results.append((time.perf_counter() - t0, ok, checker.ratios))
    return Pass(results, host.scale(refs), time.perf_counter() - start)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--runs-dir", default=os.path.join(ROOT, ".perfbench", "runs"),
                   help="where the run record is written")
    args = p.parse_args(argv)

    ww = _import_wavewalk()
    import numpy as np

    from perfbench import workloads
    from perfbench.hostspeed import HostSpeed

    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}")
    workdir = os.path.join(ROOT, ".perfbench", "work", f"{args.workload}-{os.getpid()}")
    try:
        os.makedirs(workdir, exist_ok=True)
        host = HostSpeed()
        setup = measure_setup(host)
        ops = workloads.WORKLOADS[args.workload](np.random.default_rng(args.seed),
                                                 workloads.Gallery(), workdir)
        return report(args, ww, np, ops, setup, *measure(args, ops, host))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, ops, host):
    """Run passes until the time is up.

    Returns (plain, traced, quality, tracer, failures, peak_mb).
    """
    from perfbench import layers, workloads
    from perfbench.tracer import Tracer

    quality = workloads.Quality()
    tracer = Tracer(layers.HOOKS) if args.trace else None
    failures: dict[str, str] = {}
    plain, traced = [], []  # Pass records
    started = time.perf_counter()
    op_base = 0
    # the peak after a fixed number of passes: the allocator's high-water
    # mark creeps up with every pass, and the pass count varies by run
    peak_mb = None
    while True:
        done = len(plain) + len(traced)
        if args.trace:
            enough = min(len(plain), len(traced)) >= MIN_TRACE_PASSES
        else:
            enough = len(plain) >= MIN_PASSES
        typical = statistics.median(p.elapsed for p in plain + traced) if done else 0.0
        if enough and time.perf_counter() - started + typical > args.seconds:
            break
        use_trace = bool(args.trace) and done % 2 == 1
        if use_trace:
            tracer.install(layers.TRACED + layers.COUNTED)
        try:
            done_pass = run_pass(ops, quality, workloads.Checker,
                                 tracer if use_trace else None, op_base, failures, host)
        finally:
            if use_trace:
                tracer.uninstall()
        op_base += len(ops)
        (traced if use_trace else plain).append(done_pass)
        if len(plain) == MIN_PASSES and not use_trace:
            peak_mb = peak_rss_mb()
    return plain, traced, quality, tracer, failures, peak_mb


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timings(np, per_pass, tail_pct):
    """wall_s, op_p50_ms and op_tail_ms from per-pass op latencies (seconds)."""
    pooled = [lat for lats in per_pass for lat in lats]
    return {
        "wall_s": statistics.median(sum(lats) for lats in per_pass),
        "op_p50_ms": 1e3 * float(np.percentile(pooled, 50)),
        "op_tail_ms": 1e3 * float(np.percentile(pooled, tail_pct)),
    }


def report(args, ww, np, ops, setup, plain, traced, quality, tracer, failures, peak_mb):
    """Compute, print and record the metrics; the last stdout line is the JSON result."""
    from perfbench import layers
    from perfbench.hostspeed import NOMINAL_S

    bench = json.loads(_read(os.path.join(ROOT, "BENCHMARK.json")) or "{}")
    known = {i for i, op in enumerate(ops) if op.known_defect}
    outcomes = [(i, ok) for p in plain + traced for i, (_, ok, _) in enumerate(p.results)]
    attempted = len(outcomes)
    failed_all = sum(1 for _, ok in outcomes if not ok)
    unexpected = sum(1 for i, ok in outcomes if not ok and i not in known)
    ratios = [q for p in plain for i, (_, _, qs) in enumerate(p.results) if i not in known
              for q in qs]
    slot_ms = [1e3 * statistics.median(p.latencies()[i] for p in plain) for i in range(len(ops))]
    tail_pct = 100.0 * (1.0 - TAIL_SLOTS / len(ops))
    scaled = timings(np, [p.latencies() for p in plain], tail_pct)
    raw = {"setup_s": setup[1], **timings(np, [[lat for lat, _, _ in p.results] for p in plain],
                                          tail_pct)}
    e2e = {
        "setup_s": setup[0],
        **scaled,
        "err_ratio": max(ratios) if ratios else 0.0,
        "ok_frac": (attempted - failed_all) / attempted,
        "peak_rss_mb": peak_mb if peak_mb is not None else peak_rss_mb(),
    }
    scales = [p.scale for p in plain]
    units = {m["name"]: m["unit"] for m in bench.get("end_to_end", [])}
    units.update({m["name"]: m["unit"] for m in bench.get("per_layer", [])})

    layer_values = {}
    absent = []
    if args.trace:
        by_cli = {}
        for op, ms in zip(ops, slot_ms):
            if op.cli:
                by_cli.setdefault(op.cli, []).append(ms)
        cli_ms = {k: statistics.fmean(v) for k, v in by_cli.items()}
        overhead = statistics.median(p.seconds for p in traced) - scaled["wall_s"]
        layer_values = layers.compute(tracer, len(traced), quality.values, cli_ms, overhead,
                                      failed_all / attempted)
        absent = tracer.absent
        trace_dir = os.path.join(ROOT, ".perfbench", "trace")
        os.makedirs(trace_dir, exist_ok=True)
        tracer.write(os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json.gz"))

    print(f"workload {args.workload}  seed {args.seed}  passes {len(plain)} untraced"
          f" + {len(traced)} traced  ops/pass {len(ops)}  attempted {attempted}")
    for name, value in e2e.items():
        as_measured = f"  (as measured {raw[name]:.6g})" if name in raw else ""
        print(f"  {name:<14} {value:.6g} {units.get(name, '')}{as_measured}")
    print(f"  times are at the host's nominal speed: measured x {statistics.median(scales):.4f}"
          f" (median over passes; reference kernel {1e3 * NOMINAL_S:g} ms nominal)")
    print(f"  {'fail_frac':<14} {failed_all / attempted:.6g} ratio"
          f"  ({failed_all} failed: {failed_all - unexpected} known open-item-1,"
          f" {unexpected} unexpected)")
    pooled = len(plain) * len(ops)
    print(f"  op_tail_ms is p{tail_pct:.2f} of {pooled} ops"
          f" ({pooled * TAIL_SLOTS / len(ops):.0f} beyond it)")
    for label, text in failures.items():
        tag = "known" if any(op.label == label and op.known_defect for op in ops) else "FAILED"
        print(f"  {tag} {label}: {text.strip().splitlines()[-1]}")
    for name, value in layer_values.items():
        print(f"  {name:<52} {value:.6g} {units.get(name, '')}")
    for name in absent:
        print(f"  absent: {name}")
    if args.trace:
        lm = layer_values["measures.lattice_mass.atoms_per_s"]
        hog = layer_values["measures.harmonic_on_grid.atoms_per_s"]
        if lm and hog:
            print(f"  lattice_mass / harmonic_on_grid atoms_per_s = {lm / hog:.3f}")

    shown = layer_values if args.trace else e2e
    metrics = {k: {"value": v, "unit": units.get(k, "")} for k, v in shown.items()}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "ops_per_pass": len(ops), "untraced_passes": len(plain),
        "traced_passes": len(traced), "attempted": attempted, "failed_all": failed_all,
        "unexpected_failures": unexpected, "known_defect_ops": len(known),
        "tail_percentile": tail_pct, "tail_ops": pooled,
        "pass_s": [p.seconds for p in plain], "traced_pass_s": [p.seconds for p in traced],
        "pass_scale": scales, "traced_pass_scale": [p.scale for p in traced],
        "pass_op_ms": [[1e3 * lat for lat, _, _ in p.results] for p in plain],
        "slot_ms": [[op.label, ms] for op, ms in zip(ops, slot_ms)],
        "end_to_end": e2e, "end_to_end_as_measured": raw, "per_layer": layer_values, "absent": absent,
        "failures": failures, "environment": environment(ww, np),
    }
    os.makedirs(args.runs_dir, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    with open(os.path.join(args.runs_dir, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": unexpected == 0, "attempted": attempted,
                      "failed": unexpected, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
