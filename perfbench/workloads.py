"""The three workloads: ops on wavewalk's public API, each with its oracle check.

An op is one CLI invocation (``wavewalk.cli.main``) or one top-level
API call together with the check of its output.  Every pass of a run
executes the same op list; the list is made from the run's seed, so
the program only sees generated inputs.  Only names in
``wavewalk.__all__`` and ``wavewalk.cli.main`` are called, always
through the module attribute, so an installed tracer sees the call.

Sizes are fixed per workload; the seed moves points, tables, words
and signals.  CLI ops run at default truncation settings (K = 2000,
depth 40, tol 1e-12), but `harmonic` and `scaling` use grid levels 5 to 7
instead of 8, so that a run holds several passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import wavewalk as ww
import wavewalk.cli as ww_cli

from . import oracles as orc

SYSTEM = ww.PathSystem(2)
POLICY = ww.TruncationPolicy()
K = POLICY.tail_cutoff_k
H_TOL = orc.tail_tol(K)
LAGS = range(1, 6)
#: the CLI's default tolerance for `validate`
VALIDATE_TOL = 1e-9


# ----------------------------------------------------------------------
# ops and their checks


class OpFailed(Exception):
    """An oracle check rejected an op's output."""


@dataclass
class Op:
    """One timed unit of work: a call plus the check of what it returned.

    cli is (subcommand, filter) for CLI ops.  known_defect marks the
    fixed open-item-1 cases: they fail at the commit that added them and
    are reported apart from unexpected failures.
    """

    label: str
    fn: object
    cli: tuple | None = None
    known_defect: bool = False


@dataclass
class Quality:
    """Quality observations (errors, depths, z-scores) keyed by metric name."""

    values: dict = field(default_factory=dict)

    def observe(self, metric: str, value: float) -> None:
        self.values.setdefault(metric, []).append(float(value))


class Checker:
    """Checks of one op; err_ratio collects floored error / tolerance."""

    def __init__(self, quality: Quality):
        self.quality = quality
        self.ratios: list[float] = []

    def close(self, what, got, want, tol, metric=None, relative=False):
        got = np.asarray(got, dtype=np.float64)
        want = np.asarray(want, dtype=np.float64)
        if got.shape != want.shape:
            raise OpFailed(f"{what}: shape {got.shape} != {want.shape}")
        diff = np.abs(got - want)
        if relative:
            diff = diff / np.abs(want)
        err = float(np.max(diff)) if diff.size else 0.0
        if metric:
            self.quality.observe(metric, err)
        if not math.isfinite(err) or err > tol:
            raise OpFailed(f"{what}: error {err:.3g} > tolerance {tol:.3g}")
        self.ratios.append(max(err, orc.ROUNDING_FLOOR) / tol)

    def monte_carlo(self, what, estimate, p, trials, metric=None):
        z = orc.mc_z(estimate, p, trials)
        if metric:
            self.quality.observe(metric, z)
        if not z <= orc.MC_Z_MAX:
            raise OpFailed(f"{what}: estimate {estimate} is {z:.1f} sd from {p}")

    @staticmethod
    def require(cond, what):
        if not cond:
            raise OpFailed(what)


def run_cli(argv):
    """wavewalk.cli.main in-process; returns (exit code, stdout text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ww_cli.main(argv)
    return code, out.getvalue()


def cli_ok(c, argv):
    code, text = run_cli(argv)
    c.require(code == 0, f"{argv[0]} exited with {code}")
    return text


def parse_csv(text):
    """(meta, columns) of wavewalk's CSV: '# key = value' lines, header, rows."""
    lines = text.splitlines()
    meta = {}
    i = 0
    while lines[i].startswith("# "):
        key, _, value = lines[i][2:].partition(" = ")
        meta[key] = value
        i += 1
    header = lines[i].split(",")
    rows = [line.split(",") for line in lines[i + 1 :]]
    return meta, {h: [r[j] for r in rows] for j, h in enumerate(header)}


def floats(col):
    return np.array([math.nan if v == "null" else float(v) for v in col])


def box_window(spec, level):
    """Sample count of wavewalk's cascade window: hull of [0, 1) and the support."""
    ks = [k for k, _ in spec.coeffs]
    n = spec.scale_n
    t_min = min(0, math.floor(min(ks) / (n - 1)))
    t_max = max(1, math.ceil(max(ks) / (n - 1)) + 1)
    return (t_max - t_min) * n**level


class Gallery:
    def __init__(self):
        self.spec = {n: ww.load_gallery(n) for n in ww.GALLERY_NAMES}
        self.path = {n: str(ww.gallery_path(n)) for n in ww.GALLERY_NAMES}


def _ones(xs):
    return np.ones_like(np.asarray(xs, dtype=np.float64))


H_REF = {"haar": _ones, "d4": _ones, "shannon": _ones, "stretched_haar": orc.stretched_h}
LAG_REF = {"haar": orc.onb_lag, "d4": orc.onb_lag, "shannon": orc.onb_lag,
           "stretched_haar": orc.stretched_lag}
NORM_REF = {"haar": 1.0, "d4": 1.0, "stretched_haar": 1 / 3}
ATOM_REF = {"haar": orc.sinc_sq, "stretched_haar": orc.stretched_atom}


def zero_path_atom_op(g, name, y):
    spec = g.spec[name]
    want = float(ATOM_REF[name](y))
    # relative accuracy, plus what rounding alone costs near a zero of W
    tol = orc.ATOM_TOL + orc.atom_rounding(spec, y)

    def fn(c):
        mv = ww.zero_path_atom(spec, SYSTEM, y, POLICY)
        c.close("atom", mv.value, want, tol, relative=True)

    return Op(f"zero_path_atom.{name}.{y:.6g}", fn)


# ----------------------------------------------------------------------
# lattice: lattice sums under wide K

#: CLI `harmonic` grid levels: d4 at 128 points, where a CLI routed through
#: harmonic_on_grid would fill its 4 MiB chunk; stretched Haar at 32
HARMONIC_LEVEL = {"d4": 7, "stretched_haar": 5}


def lattice(rng, g, workdir):
    ops = []
    for name in ("d4", "stretched_haar"):
        spec, path, h_ref = g.spec[name], g.path[name], H_REF[name]

        level = HARMONIC_LEVEL[name]

        def harmonic(c, path=path, h_ref=h_ref, level=level):
            text = cli_ok(c, ["harmonic", path, "--grid-level", str(level)])
            _, cols = parse_csv(text)
            xs = floats(cols["x"])
            c.require(len(xs) == 2**level, "harmonic row count")
            c.close("h", floats(cols["value"]), h_ref(xs), H_TOL)

        def scaling(c, spec=spec, path=path, want=NORM_REF[name]):
            text = cli_ok(c, ["scaling", path, "--grid-level", "5"])
            meta, cols = parse_csv(text)
            c.require(len(cols["t"]) == box_window(spec, 5), "scaling row count")
            c.require(np.all(np.isfinite(floats(cols["re"]))), "finite samples")
            c.close("norm", float(meta["norm_sq_harmonic"]), want, H_TOL,
                    metric="scaling.scaling_norm_sq.err")

        x = float(rng.uniform(0.05, 0.95))

        def diagnose(c, spec=spec, path=path, h_ref=h_ref, x=x):
            text = cli_ok(c, ["diagnose", path, "--x", repr(x), "--format", "json"])
            rep = json.loads(text)["report"]
            c.close("partial products", rep["partial_products"],
                    orc.partial_products(spec, x, 30), orc.TREE_TOL)
            pts = x / 2.0 ** np.arange(31)
            c.close("h along x/2^n", rep["harmonic_values"], h_ref(pts), H_TOL)

        ops += [
            Op(f"cli.harmonic.{name}", harmonic, cli=("harmonic", name)),
            Op(f"cli.scaling.{name}", scaling, cli=("scaling", name)),
            Op(f"cli.diagnose.{name}", diagnose, cli=("diagnose", name)),
        ]

    # at 128 points harmonic_on_grid fills one 2**19-element (4 MiB) chunk,
    # twice the L2 of the reference box; 32 points use a 1 MiB chunk
    for name, cells in (("haar", 32), ("d4", 128), ("stretched_haar", 32), ("shannon", 32)):
        xs = (np.arange(cells) + rng.uniform(0.0, 1.0)) / cells

        def grid(c, spec=g.spec[name], name=name, xs=xs):
            h = ww.harmonic_on_grid(spec, SYSTEM, xs, POLICY)
            c.close("h", h, H_REF[name](xs), H_TOL, metric="measures.harmonic_on_grid.max_err")
            c.close("lags", orc.lags_from_samples(xs, h, LAGS),
                    [LAG_REF[name](n) for n in LAGS], H_TOL,
                    metric="measures.harmonic_on_grid.lag_err")

        ops.append(Op(f"harmonic_on_grid.{name}", grid))

    for name in ("d4", "stretched_haar"):
        def norm(c, spec=g.spec[name], want=NORM_REF[name]):
            got = ww.scaling_norm_sq(spec, SYSTEM, POLICY, level=4)
            c.close("norm", got, want, H_TOL, metric="scaling.scaling_norm_sq.err")

        ops.append(Op(f"scaling_norm_sq.{name}", norm))

    # deep products: atoms at x + k across the whole truncation window
    for name, count in (("haar", 2), ("stretched_haar", 3)):
        for _ in range(count):
            y = float(rng.uniform(0.0, 1.0) + rng.integers(-K, K + 1))
            ops.append(zero_path_atom_op(g, name, y))
    return ops


# ----------------------------------------------------------------------
# walks: exact tree sums and Monte Carlo on path space


def _indicator_mass(spec, x, word):
    f = ww.FiniteCoordFn.indicator(ww.DigitWord(tuple(word)), spec.scale_n)
    return ww.expect_finite(spec, SYSTEM, x, f).real


def _cylinder_case(rng, spec, length):
    """(x, word) with cylinder mass inside [0.05, 0.95], or any for 0/1 weights."""
    binary = spec.kind == "tabulated_w"
    while True:
        x = float(rng.uniform(0.0, 1.0))
        word = tuple(int(d) for d in rng.integers(0, 2, length))
        if binary or 0.05 <= orc.cylinder(spec, x, word) <= 0.95:
            return x, word


def _lifted_two_digit(rng, arity):
    """A seeded f(w_1, w_2) tabulated at the given arity, and its 2x2 table."""
    g2 = rng.uniform(-1.0, 1.0, (2, 2))
    table = np.repeat(g2.ravel(), 2 ** (arity - 2)).astype(np.complex128)
    return ww.FiniteCoordFn(arity, 2, table), g2


def walks(rng, g, workdir):
    ops = []
    for name in ("d4", "stretched_haar", "shannon"):
        spec, path = g.spec[name], g.path[name]
        x = float(rng.uniform(0.0, 1.0))

        def mass(c, spec=spec, x=x):
            one = ww.FiniteCoordFn.constant(1.0, 16, 2)
            got = ww.expect_finite(spec, SYSTEM, x, one).real
            c.close("mass", got, 1.0, orc.TREE_TOL, metric="measures.expect_finite.mass_err")

        f12, g2 = _lifted_two_digit(rng, 12)

        def two_digit(c, spec=spec, x=x, f=f12, g2=g2):
            got = ww.expect_finite(spec, SYSTEM, x, f).real
            c.close("E[f(w1, w2)]", got, orc.two_digit_mean(spec, x, g2), orc.TREE_TOL)

        f14 = ww.FiniteCoordFn(14, 2, rng.uniform(-1.0, 1.0, 2**14).astype(np.complex128))

        def consistency(c, spec=spec, x=x, f=f14):
            c.close("consistency", ww.consistency_check(spec, SYSTEM, x, f), 0.0, orc.TREE_TOL)

        def refinement(c, spec=spec, x=x, f=f14):
            c.close("refinement", ww.refinement_check(spec, SYSTEM, x, f), 0.0, orc.TREE_TOL)

        ops += [
            Op(f"expect_finite.mass.{name}", mass),
            Op(f"expect_finite.two_digit.{name}", two_digit),
            Op(f"consistency_check.{name}", consistency),
            Op(f"refinement_check.{name}", refinement),
        ]
        for i in range(2):
            cx, word = _cylinder_case(rng, spec, 4)

            def cylinder(c, spec=spec, x=cx, word=word):
                got = _indicator_mass(spec, x, word)
                c.close("cylinder", got, orc.cylinder(spec, x, word), orc.TREE_TOL)

            ops.append(Op(f"expect_finite.cylinder{i}.{name}", cylinder))

        ex, eword = _cylinder_case(rng, spec, 3)
        seed = int(rng.integers(0, 2**31))

        def estimate(c, spec=spec, x=ex, word=eword, seed=seed):
            est = ww.estimate_cylinder(spec, SYSTEM, x, ww.DigitWord(word), 10**6, seed)
            p = _indicator_mass(spec, x, word)
            c.monte_carlo("estimate", est.estimate, p, 10**6,
                          metric="diagnostics.estimate_cylinder.z_max")

        sx, sword = _cylinder_case(rng, spec, 3)
        sseed = int(rng.integers(0, 2**31))

        def simulate_word(c, spec=spec, path=path, x=sx, word=sword, seed=sseed):
            text = cli_ok(c, ["simulate", path, "--x", repr(x), "--word",
                              ",".join(map(str, word)), "--seed", str(seed)])
            res = json.loads(text)["result"]
            p = _indicator_mass(spec, x, word)
            c.monte_carlo("simulate --word", res["estimate"], p, res["trials"],
                          metric="diagnostics.estimate_cylinder.z_max")

        px = float(rng.uniform(0.0, 1.0))
        pseed = int(rng.integers(0, 2**31))

        def simulate_path(c, spec=spec, path=path, x=px, seed=pseed):
            text = cli_ok(c, ["simulate", path, "--x", repr(x), "--n", "32",
                              "--seed", str(seed)])
            doc = json.loads(text)
            digits = doc["digits"]
            c.require(len(digits) == 32 and set(digits) <= {0, 1}, "path digits")
            c.close("step norms", doc["step_norms"], np.ones(32), orc.TREE_TOL)
            c.require(orc.cylinder(spec, x, digits) > 0.0, "sampled a null path")

        ops += [
            Op(f"estimate_cylinder.{name}", estimate),
            Op(f"cli.simulate.word.{name}", simulate_word, cli=("simulate", name)),
            Op(f"cli.simulate.path.{name}", simulate_path, cli=("simulate", name)),
        ]

    # one tree at the 2**20-word budget
    d4 = g.spec["d4"]
    x20 = float(rng.uniform(0.0, 1.0))
    f20, g20 = _lifted_two_digit(rng, 20)

    def tree20(c):
        got = ww.expect_finite(d4, SYSTEM, x20, f20).real
        c.close("E[f(w1, w2)] at arity 20", got, orc.two_digit_mean(d4, x20, g20), orc.TREE_TOL)

    ops.append(Op("expect_finite.arity20.d4", tree20))
    return ops + known_defects(g)


def known_defects(g):
    """The two open-item-1 cases: walk states that round onto 1.0.

    Both are fixed inputs, never seeded, and fail at the commit that
    added them (mass 0.3; refinement residuals of order 0.1).
    """
    partition = ww.FilterSpec.from_table([0.0, 0.25, 0.5, 0.75], [0.3, 0.0, 0.7, 1.0],
                                         label="partition")

    def table_mass(c):
        for arity in (2, 3):
            one = ww.FiniteCoordFn.constant(1.0, arity, 2)
            got = ww.expect_finite(partition, SYSTEM, 1 - 2**-52, one).real
            c.close(f"mass at arity {arity}", got, 1.0, orc.TREE_TOL)

    d4 = g.spec["d4"]

    def refinement_near_one(c):
        for arity in (2, 4):
            f = ww.FiniteCoordFn(arity, 2, np.arange(1.0, 2**arity + 1) / 2**arity + 0j)
            got = ww.refinement_check(d4, SYSTEM, 1 - 2**-53, f)
            c.close(f"refinement at arity {arity}", got, 0.0, orc.TREE_TOL)

    return [
        Op("known_defect.table_mass_near_one", table_mass, known_defect=True),
        Op("known_defect.d4_refinement_near_one", refinement_near_one, known_defect=True),
    ]


# ----------------------------------------------------------------------
# grids: operators on fine grids and the signal pipeline


def grids(rng, g, workdir):
    ops = []
    level = 16
    xs = np.arange(2**level, dtype=np.float64) / 2**level
    atom_ref = {"haar": orc.sinc_sq(xs), "stretched_haar": orc.stretched_atom(xs),
                "d4": orc.atom(g.spec["d4"], xs)}
    for name in ("haar", "d4", "stretched_haar"):
        def atom(c, path=g.path[name], want=atom_ref[name]):
            _, cols = parse_csv(cli_ok(c, ["atom", path, "--grid-level", str(level)]))
            got = floats(cols["value"])
            c.close("atom", got, want, orc.ATOM_TOL, metric="cli.atom.max_err")
            c.quality.observe("cli.atom.depth_mean", float(np.mean(floats(cols["depth_used"]))))
            c.quality.observe("cli.atom.unconverged_frac",
                              float(np.mean(np.asarray(cols["converged"]) != "true")))

        ops.append(Op(f"cli.atom.{name}", atom, cli=("atom", name)))

    signal_len = 2**15
    for name in ("d4", "stretched_haar"):
        path = g.path[name]

        def validate(c, path=path):
            _, cols = parse_csv(cli_ok(c, ["validate", path, "--grid-level", str(level)]))
            c.require(all(v == "true" for v in cols["verdict"]), "validate verdicts")
            c.close("condition errors", floats(cols["error"]), np.zeros(len(cols["error"])),
                    VALIDATE_TOL)

        def transfer(c, path=path):
            _, cols = parse_csv(cli_ok(c, ["transfer", path, "--grid-level", "12"]))
            c.require(len(cols["cell"]) == 2**12, "transfer row count")
            c.close("harmonic grid", floats(cols["harmonic_value"]), np.ones(2**12), orc.TREE_TOL)
            c.close("total Ruelle mass", float(np.sum(floats(cols["ruelle_mass"]))), 1.0,
                    orc.TREE_TOL)

        signal = rng.standard_normal(signal_len)
        sig_path = os.path.join(workdir, f"signal-{name}.csv")
        np.savetxt(sig_path, signal, fmt="%.17g")
        signal = np.loadtxt(sig_path, ndmin=1)
        energy = float(np.sum(signal**2))

        def coeffs(c, path=path, sig_path=sig_path, energy=energy):
            text = cli_ok(c, ["coeffs", path, "--signal", sig_path, "--levels", "8"])
            doc = json.loads(text)
            bands = [doc[f"detail_{i}"] for i in range(1, 9)] + [doc["smooth"]]
            c.require(sum(len(b["re"]) for b in bands) == signal_len, "coefficient count")
            parsed = sum(float(np.sum(np.square(b["re"]) + np.square(b["im"]))) for b in bands)
            c.close("energy", [doc["energy"], parsed], [energy, energy], orc.ENERGY_RTOL,
                    relative=True)

        ops += [
            Op(f"cli.validate.{name}", validate, cli=("validate", name)),
            Op(f"cli.transfer.{name}", transfer, cli=("transfer", name)),
            Op(f"cli.coeffs.{name}", coeffs, cli=("coeffs", name)),
        ]

    for name in ("haar", "d4", "stretched_haar"):
        def cascade(c, spec=g.spec[name], name=name):
            phi = ww.cascade(spec, SYSTEM, iters=16, level=16)
            # from the unit box, 16 steps at step 2**-16 keep integral and
            # norm exact: haar stays the box, stretched Haar an indicator
            c.close("integral", phi.integral().real, 1.0, orc.TREE_TOL)
            c.close("norm", phi.norm_sq(), 1.0, orc.TREE_TOL)
            if name != "d4":
                c.require(np.all((phi.samples == 0) | (phi.samples == 1)), "0/1 samples")

        ops.append(Op(f"cascade.{name}", cascade))

    for name in ("d4", "stretched_haar"):
        signal = rng.standard_normal(2**18)

        def round_trip(c, spec=g.spec[name], s=signal):
            details, smooth = ww.wavelet_coeffs(spec, s, 8)
            energy = sum(float(np.sum(np.abs(b) ** 2)) for b in details)
            energy += float(np.sum(np.abs(smooth) ** 2))
            c.close("energy", energy, float(np.sum(s**2)), orc.ENERGY_RTOL, relative=True,
                    metric="scaling.wavelet_coeffs.energy_err")
            back = ww.wavelet_reconstruct(spec, details, smooth)
            c.close("reconstruction", back.real, s, orc.ENERGY_RTOL * np.max(np.abs(s)))

        def ruelle(c, spec=g.spec[name]):
            masses, residual = ww.ruelle_measure(spec, SYSTEM, 14, 30)
            c.quality.observe("transfer.ruelle_measure.residual", residual)
            c.close("total mass", float(np.sum(masses.values)), 1.0, orc.TREE_TOL)
            c.require(np.all(masses.values >= 0.0), "nonnegative masses")

        ops += [Op(f"wavelet_round_trip.{name}", round_trip), Op(f"ruelle_measure.{name}", ruelle)]

    # shallow products: atoms at points of [0, 1)
    for name in ("haar", "stretched_haar"):
        for _ in range(10):
            ops.append(zero_path_atom_op(g, name, float(rng.uniform(0.0, 1.0))))
    return ops


WORKLOADS = {"lattice": lattice, "walks": walks, "grids": grids}
