"""Benchmark of wavewalk: time to a checked answer, with a per-module trace.

Run one workload with ``python3 perfbench/run.py --workload lattice``;
see README.md in this directory for the workloads, metrics and oracles.
"""
