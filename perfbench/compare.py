"""Compare two sets of benchmark runs, workload by workload.

    python3 perfbench/compare.py RUNS_A RUNS_B

Each argument is a directory of run records written by run.py (by
default .perfbench/runs/; pass --runs-dir to run.py to keep sets apart).
For each workload and end-to-end metric it prints each set's median and
quartiles, and whether B's median is within the metric's bound from
BENCHMARK.json of A's median ("agree"), worse by more ("B worse") or
better by more ("B better").  Exits 1 if any pair does not agree.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(directory):
    """{workload: [end_to_end dict]} of the untraced runs in a directory."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as fh:
            rec = json.load(fh)
        if rec.get("trace") == 0:
            runs.setdefault(rec["workload"], []).append(rec["end_to_end"])
    return runs


def summary(values):
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(med_a, med_b, bound, better):
    """'agree', 'B worse' or 'B better' for B's median against A's."""
    change = (med_b - med_a) / abs(med_a) if med_a else (0.0 if med_b == med_a else float("inf"))
    worse = change if better == "lower" else -change
    if worse > bound:
        return "B worse"
    if -worse > bound:
        return "B better"
    return "agree"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("runs_a")
    p.add_argument("runs_b")
    p.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = p.parse_args(argv)
    with open(args.benchmark, encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    a, b = load_runs(args.runs_a), load_runs(args.runs_b)
    disagree = 0
    for workload in sorted(set(a) | set(b)):
        if workload not in a or workload not in b:
            print(f"{workload}: runs only in {'A' if workload in a else 'B'}")
            disagree += 1
            continue
        print(f"{workload}: {len(a[workload])} runs in A, {len(b[workload])} in B")
        for m in metrics:
            name = m["name"]
            qa = summary([r[name] for r in a[workload]])
            qb = summary([r[name] for r in b[workload]])
            v = verdict(qa[1], qb[1], m["bound"], m["better"])
            disagree += v != "agree"
            print(f"  {name:<12} A {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]"
                  f"  B {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}] {m['unit']}"
                  f"  bound {m['bound']:.0%}  {v}")
    return 1 if disagree else 0


if __name__ == "__main__":
    sys.exit(main())
