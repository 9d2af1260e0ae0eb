#!/usr/bin/env python3
"""Digests of wavewalk's numbers, to check that a change keeps their bits.

Imports wavewalk from the src/ directory SRC, computes each kernel below
on fixed inputs and prints one line per filter and kernel: the first 16
hex digits of a SHA-256 over the dtypes and bytes of its results.  Run it
on the src/ of two checkouts and diff the output; equal lines mean equal
bits.  A kernel that raises prints the exception's name instead.

Kernels: weight_array, zero_path_atoms, lattice_masses, harmonic_on_grid,
scaling_hat, estimate_cylinder, sample_path, cascade and expect_finite,
and the bytes, stdout and stderr, and the exit code of every CLI
subcommand: runs of each, one usage error of each, --version and every
--help (wrapped at COLUMNS=100).

Usage:
    python scripts/digests.py SRC
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys

import numpy as np


def digest(*arrays):
    return hashlib.sha256(
        b"".join(str(np.asarray(a).dtype).encode() + np.asarray(a).tobytes() for a in arrays)
    ).hexdigest()[:16]


def guarded(ww, fn, *args):
    """The digest of fn(*args), or the name of the wavewalk error it raises."""
    try:
        return digest(*fn(*args))
    except ww.WavewalkError as exc:
        return type(exc).__name__


def filters(ww):
    specs = {name: ww.load_gallery(name) for name in ww.GALLERY_NAMES}
    for i, c in enumerate([{0: 0.5, 1: 0.3 + 0.4j, 2: -0.1j}, {0: 0.5 + 0.2j, 1: 0.5 - 0.2j}]):
        specs[f"cplx{i}"] = ww.FilterSpec.from_coefficients(c)
    specs["box3"] = ww.FilterSpec.from_coefficients({0: 1 / 3, 2: 1 / 3, 4: 1 / 3}, scale_n=3)
    specs["end3"] = ww.FilterSpec.from_table([0.0, 0.4], [1.0, 0.5], scale_n=3)
    # zero weights tie cumulative shares; the last weight 0 makes a share exactly 1
    ties = [0.5, 0, 1, 0.25, 0, 0, 0, 0.25, 0.5, 0, 0, 0.5, 0, 1, 0, 0]
    specs["ties4"] = ww.FilterSpec.from_table(np.arange(16) / 16, ties, scale_n=4)
    specs["holes"] = ww.FilterSpec.from_table([0.0, 0.25, 0.5, 0.75], [0.0, 0.6, 0.0, 0.4])
    specs["share1"] = ww.FilterSpec.from_table([0.0, 0.5], [1.0, 0.0])
    return specs


def kernel_lines(ww, spec):
    s = ww.PathSystem(spec.scale_n)
    n = spec.scale_n
    rng = np.random.default_rng(2024)
    xs = np.concatenate([rng.uniform(-1, 1, 1000), rng.uniform(-5000, 5000, 1000),
                         [0.0, -0.0, 0.5, -0.5, 1e300, -1e300, 2.0**-11, 1e-310]])
    yield "weight_array", digest(ww.weight_array(spec, xs), ww.weight_array(spec, xs.reshape(2, -1)[:, :7]))
    a = ww.zero_path_atoms(spec, s, xs)
    yield "zero_path_atoms", digest(a.value, a.converged, a.tail_bound, a.depth_used)
    for k in (5, 50, 2000):
        p = ww.TruncationPolicy(tail_cutoff_k=k)
        pts = xs[: 40 if k == 2000 else 200]
        m = ww.lattice_masses(spec, s, pts, p)
        yield f"lattice_masses K={k}", digest(m.value, m.converged, m.tail_bound, m.depth_used)
        yield f"harmonic_on_grid K={k}", digest(ww.harmonic_on_grid(spec, s, pts, p))
    if spec.kind == "coefficients":
        hats = [ww.scaling_hat(spec, s, float(x)) for x in xs[::25]]
        yield "scaling_hat", digest([h.value for h in hats], [h.converged for h in hats], [h.depth_used for h in hats])
        yield "cascade", digest(*(
            np.concatenate([[phi.t_min, phi.t_max, phi.step], phi.samples.view(np.float64)])
            for iters in (0, 1, 3, 7, 9) for level in (0, 1, 4, 7)
            for phi in [ww.cascade(spec, s, iters, level)]
        ))

    def walk(x, seed):
        w = ww.sample_path(spec, s, x, 64, seed, seed % 3)
        return w.digits.digits, w.step_norms

    def estimate(x, word, trials, seed):
        e = ww.estimate_cylinder(spec, s, x, ww.DigitWord(word), trials, seed, seed % 3)
        return e.estimate, e.stderr

    for x in (0.3, 0.71, 1 - 2**-53, 5e-324):
        yield f"sample_path x={x!r}", "/".join(guarded(ww, walk, x, seed) for seed in range(5))
        cases = []
        for length, trials in enumerate((100, 12345, 16385, 10**5, 1000)):
            try:
                word = ww.sample_path(spec, s, x, length, length + 100).digits.digits
            except ww.WavewalkError:
                word = (0,) * length
            cases += [(x, word, trials, length), (x, word[:-1] + ((word[-1] + 1) % n,), trials, length)] if word else []
        yield f"estimate_cylinder x={x!r}", "/".join(guarded(ww, estimate, *case) for case in cases)

    terms = np.random.default_rng(7)
    arities = [a for a in (0, 1, 3, 8, 15, 17) if n**a <= 2**17]
    funcs = [ww.FiniteCoordFn(a, n, terms.standard_normal(n**a) + 1j * terms.standard_normal(n**a)) for a in arities]
    yield "expect_finite", "/".join(guarded(ww, lambda f, x: [ww.expect_finite(spec, s, x, f)], f, x)
                                    for f in funcs for x in (0.3, 0.71, 5e-324))


def cli_lines(ww):
    from wavewalk.cli import main

    # argparse wraps --help to the terminal width it reads from COLUMNS
    os.environ["COLUMNS"] = "100"

    def run(argv):
        """The exit code of main(argv), and the digest of its stdout and stderr."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # --help and --version
                code = exc.code
        return f"{code} {digest(*(np.frombuffer(f.getvalue().encode(), np.uint8) for f in (out, err)))}"

    for name in ("haar", "d4", "stretched_haar"):
        path = str(ww.gallery_path(name))
        for argv in (["simulate", path, "--x", "0.3", "--word", "0,1", "--trials", "100000", "--seed", "7"],
                     ["simulate", path, "--x", "0.71", "--n", "40", "--seed", "3"],
                     ["scaling", path, "--grid-level", "6", "--iters", "9"],
                     ["scaling", path, "--grid-level", "7", "--iters", "4", "--format", "json"],
                     ["scaling", path, "--grid-level", "5", "--iters", "8", "--function", "psi"],
                     ["atom", path, "--grid-level", "8"],
                     ["diagnose", path, "--x", "0.3", "--format", "json"],
                     ["diagnose", path, "--x", "0.3"],
                     ["diagnose", path, "--x", "0.71", "--max-n", "12", "--tail-K", "7", "--format", "json"],
                     ["validate", path, "--grid-level", "6", "--format", "json"],
                     ["harmonic", path, "--grid-level", "7"],
                     ["harmonic", path, "--grid-level", "5", "--tail-K", "7"],
                     ["transfer", path, "--grid-level", "6", "--iters", "30"],
                     ["transfer", path, "--grid-level", "4", "--iters", "5", "--format", "json"],
                     ["coeffs", path, "--random-n", "64", "--seed", "5"],
                     ["coeffs", path, "--random-n", "40", "--levels", "2", "--seed", "11"]):
            yield name, f"cli {' '.join(argv[:1] + argv[2:])}", run(argv)
    # a table's partition is sampled on the grid
    path = str(ww.gallery_path("shannon"))
    for argv in (["validate", path, "--grid-level", "10"], ["validate", path, "--grid-level", "3", "--format", "json"]):
        yield "shannon", f"cli {' '.join(argv[:1] + argv[2:])}", run(argv)

    # usage errors (exit 1, one stderr line), then --version and every --help
    path = str(ww.gallery_path("d4"))
    for argv in (["validate", path, "--tol", "abc"], ["atom", path, "--depth", "40"],
                 ["harmonic", path, "--tail-K", "x"], ["diagnose", path], ["transfer", path, "--iters", "2.5"],
                 ["scaling", path, "--function", "chi"], ["coeffs", path, "--bogus"], ["simulate", path],
                 ["frobnicate", path], []):
        yield "d4", f"usage {' '.join(argv[:1] + argv[2:]) or '(none)'}", run(argv)
    yield "-", "cli --version", run(["--version"])
    yield "-", "cli --help", run(["--help"])
    for command in ("validate", "atom", "harmonic", "diagnose", "transfer", "scaling", "coeffs", "simulate"):
        yield "-", f"cli {command} --help", run([command, "--help"])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("src", help="the src/ directory of a checkout")
    args = ap.parse_args()
    sys.path.insert(0, args.src)
    import wavewalk as ww

    for name, spec in filters(ww).items():
        for kernel, line in kernel_lines(ww, spec):
            print(name, kernel, line)
    for name, kernel, line in cli_lines(ww):
        print(name, kernel, line)


if __name__ == "__main__":
    main()
