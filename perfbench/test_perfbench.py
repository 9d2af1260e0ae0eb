"""Tests of the benchmark itself: its oracles, tracer, metric lists and imports.

Each oracle the workloads check wavewalk against is first checked here
against an independent brute-force computation.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import ast
import glob
import json
import math
import os
import re

import numpy as np
import pytest

import wavewalk as ww
from perfbench import compare, layers, oracles as orc
from perfbench.tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SYSTEM = ww.PathSystem(2)
XS = np.array([0.0625, 0.3, 0.5, 0.77, 0.93])


def brute_atom(w, xs, depth=60):
    p = np.ones_like(xs)
    for n in range(1, depth + 1):
        p *= w(xs / 2.0**n)
    return p


def lattice_sum(atom, x, k_cutoff):
    ks = np.arange(-k_cutoff, k_cutoff + 1, dtype=np.float64)
    return float(np.sum(atom(x + ks)))


# ----------------------------------------------------------------------
# oracles against brute force


def test_haar_atom_is_sinc_squared():
    ys = np.concatenate([XS, XS + 17.0, XS - 1234.0])
    brute = brute_atom(lambda y: np.cos(np.pi * y) ** 2, ys)
    assert np.allclose(orc.sinc_sq(ys), brute, rtol=1e-9, atol=0)
    assert np.allclose(orc.atom(ww.load_gallery("haar"), ys), brute, rtol=1e-9, atol=0)


def test_stretched_atom_is_sinc_squared_of_3x():
    ys = np.concatenate([XS, XS + 5.0, XS - 801.0])
    brute = brute_atom(lambda y: np.cos(3 * np.pi * y) ** 2, ys)
    assert np.allclose(orc.stretched_atom(ys), brute, rtol=1e-9, atol=0)
    assert np.allclose(orc.atom(ww.load_gallery("stretched_haar"), ys), brute, rtol=1e-9, atol=0)


def test_sinc_oracles_keep_relative_accuracy_near_zeros():
    mp = pytest.importorskip("mpmath")
    mp.mp.prec = 200
    rng = np.random.default_rng(5)
    for k, oracle in ((1, orc.sinc_sq), (3, orc.stretched_atom)):
        m = rng.integers(1, 6000, 200) * rng.choice([-1, 1], 200)
        ys = m / k + 10.0 ** rng.uniform(-12, -3, 200) * rng.choice([-1, 1], 200)
        got = oracle(ys)
        for y, g in zip(ys, got):
            z = k * mp.mpf(float(y))
            exact = (mp.sin(mp.pi * z) / (mp.pi * z)) ** 2
            assert abs(g - exact) / exact < 64 * 2.0**-53


def test_atom_rounding_allowance_is_negligible_away_from_zeros():
    for name in ("haar", "stretched_haar"):
        spec = ww.load_gallery(name)
        for y in (0.3, 17.1, -1234.45):
            assert orc.atom_rounding(spec, y) < 0.01 * orc.ATOM_TOL
    # one factor of the stretched-Haar product is ~1e-9 here, and
    # 1/2 + cos(6 pi x)/2 keeps only an absolute accuracy near its zero
    assert orc.atom_rounding(ww.load_gallery("stretched_haar"), -1706.661110115893) > 1e-8


@pytest.mark.parametrize("x", XS)
def test_harmonic_function_is_one_for_orthonormal_filters(x):
    k_big = 200_000
    assert lattice_sum(orc.sinc_sq, x, k_big) == pytest.approx(1.0, abs=2 / (math.pi**2 * k_big))
    d4 = ww.load_gallery("d4")
    assert lattice_sum(lambda y: orc.atom(d4, y), x, 400) == pytest.approx(1.0, abs=1e-6)
    shannon = ww.load_gallery("shannon")
    assert lattice_sum(lambda y: orc.atom(shannon, y), x, 20) == 1.0


@pytest.mark.parametrize("x", XS)
def test_stretched_harmonic_closed_form(x):
    k_big = 200_000
    brute = lattice_sum(orc.stretched_atom, x, k_big)
    assert float(orc.stretched_h(x)) == pytest.approx(brute, abs=1 / (math.pi**2 * k_big))


def test_stretched_lags_and_norm():
    # lags of phi = chi_[0,3)/3 by direct overlap of the box with its shifts
    for n in range(-4, 5):
        overlap = max(0.0, 3.0 - abs(n)) / 9.0
        assert orc.stretched_lag(n) == overlap
    xs = (np.arange(64) + 0.37) / 64
    lags = orc.lags_from_samples(xs, orc.stretched_h(xs), range(0, 6))
    assert np.allclose(lags, [orc.stretched_lag(n) for n in range(6)], atol=1e-15)
    # norm: mean of h = integral of the atom over the line
    t = np.linspace(-4000.0, 4000.0, 8_000_001)
    integral = float(np.sum(orc.stretched_atom(t)) * (t[1] - t[0]))
    assert integral == pytest.approx(1 / 3, abs=1e-4)
    assert lags[0] == pytest.approx(1 / 3, abs=1e-15)


def test_lags_vanish_for_the_haar_box():
    # <chi_[0,1), chi_[0,1)(. - n)> = delta_n0, read off the truncated h
    xs = (np.arange(64) + 0.5) / 64
    h = np.array([lattice_sum(orc.sinc_sq, x, 20000) for x in xs])
    lags = orc.lags_from_samples(xs, h, range(1, 6))
    assert max(abs(v) for v in lags) <= orc.tail_tol(20000)
    assert [orc.onb_lag(n) for n in range(3)] == [1.0, 0.0, 0.0]


def test_d4_subband_step_is_orthogonal():
    # energy conservation: the one-level analysis matrix of d4 is orthogonal
    d4 = ww.load_gallery("d4")
    a = dict((k, v.real) for k, v in d4.coeffs)
    b = {1 - k: (-1.0) ** (2 - k) * v for k, v in a.items()}
    length = 16
    rows = []
    for taps in (a, b):
        for n in range(length // 2):
            row = np.zeros(length)
            for k, v in taps.items():
                row[(2 * n + k) % length] += 2 * v / math.sqrt(2)
            rows.append(row)
    m = np.array(rows)
    assert np.allclose(m @ m.T, np.eye(length), atol=1e-14)


@pytest.mark.parametrize("name", ["d4", "stretched_haar", "shannon"])
def test_cylinder_mass_matches_tree_sum(name):
    spec = ww.load_gallery(name)
    rng = np.random.default_rng(5)
    for _ in range(5):
        x = float(rng.uniform())
        word = tuple(int(d) for d in rng.integers(0, 2, 4))
        direct = orc.cylinder(spec, x, word)
        # brute force: add the masses of every arity-7 word extending the prefix
        total = 0.0
        for tail in range(2**3):
            ext = word + tuple((tail >> s) & 1 for s in range(3))
            total += orc.cylinder(spec, x, ext)
        assert total == pytest.approx(direct, abs=1e-14)
        f = ww.FiniteCoordFn.indicator(ww.DigitWord(word), 2)
        assert ww.expect_finite(spec, SYSTEM, x, f).real == pytest.approx(direct, abs=1e-14)


@pytest.mark.parametrize("name", ["d4", "stretched_haar", "shannon"])
def test_weight_partition_keeps_ruelle_mass(name):
    spec = ww.load_gallery(name)
    cells = 2**8
    xs = np.arange(cells) / cells
    w0, w1 = orc.weight(spec, xs / 2), orc.weight(spec, (xs + 1) / 2)
    assert np.allclose(w0 + w1, 1.0, atol=1e-14)
    # dense adjoint iteration: each cell's mass splits into the partition
    mass = np.full(cells, 1.0 / cells)
    for _ in range(10):
        new = np.zeros(cells)
        for j, w in ((0, w0), (1, w1)):
            np.add.at(new, (np.arange(cells) + j * cells) // 2, mass * w)
        mass = new
    assert float(np.sum(mass)) == pytest.approx(1.0, abs=1e-14)
    masses, _ = ww.ruelle_measure(spec, SYSTEM, 8, 10)
    assert float(np.sum(masses.values)) == pytest.approx(1.0, abs=1e-14)


def test_monte_carlo_score():
    assert orc.mc_z(0.5, 0.5, 100) == 0.0
    assert orc.mc_z(0.6, 0.5, 100) == pytest.approx(2.0)
    assert orc.mc_z(1.0, 1.0, 100) == 0.0
    assert orc.mc_z(0.99, 1.0, 100) == math.inf


# ----------------------------------------------------------------------
# public API only


def _bench_sources():
    return sorted(glob.glob(os.path.join(HERE, "*.py")))


def _parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read())


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_private_wavewalk_names():
    for path in _bench_sources():
        tree = _parse(path)
        aliases = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("wavewalk"):
                assert not any(_private(p) for p in node.module.split(".")), path
                for alias in node.names:
                    assert not _private(alias.name), f"{path}: {alias.name}"
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("wavewalk"):
                        assert not any(_private(p) for p in alias.name.split(".")), path
                        aliases.add(alias.asname or alias.name)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases):
                assert not _private(node.attr), f"{path}: {node.value.id}.{node.attr}"


def test_workloads_call_only_exported_names():
    tree = _parse(os.path.join(HERE, "workloads.py"))
    used = {n.attr for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "ww"}
    assert used <= set(ww.__all__) | {"__version__"}, used - set(ww.__all__)
    cli_used = {n.attr for n in ast.walk(tree)
                if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                and n.value.id == "ww_cli"}
    assert cli_used == {"main"}


# ----------------------------------------------------------------------
# tracer


def test_tracer_wraps_every_binding_and_restores():
    import wavewalk.measures as measures

    original = ww.filters.weight_array
    tracer = Tracer(layers.HOOKS)
    tracer.install(("filters.weight_array", "measures.no_such_function"))
    try:
        assert measures.weight_array is ww.weight_array is ww.filters.weight_array
        assert measures.weight_array is not original
        tracer.op_id = 7
        ww.zero_path_atom(ww.load_gallery("haar"), SYSTEM, 0.3, ww.TruncationPolicy())
        SYSTEM.branch(1, 0.25)
    finally:
        tracer.uninstall()
    assert measures.weight_array is original and ww.weight_array is original
    assert tracer.absent == ["measures.no_such_function"]
    totals = tracer.totals()
    calls, total, self_s = totals["measures.zero_path_atom"]
    assert calls == 1 and 0 < self_s < total
    wa_calls, wa_total, _ = totals["filters.weight_array"]
    assert wa_calls >= 8 and wa_total < total
    assert all(span[4] == 7 for span in tracer.spans)
    assert tracer.counts["ifs.PathSystem.branch"] == 1
    assert tracer.counters["measures.zero_path_atom"]["results"] == 1


def test_tracer_gives_recursive_calls_one_span():
    tracer = Tracer(layers.HOOKS)
    tracer.install()
    try:
        text = ww.serialize.json_text({"a": [1.0, 2.0, [3, 4]]})
    finally:
        tracer.uninstall()
    assert tracer.totals()["serialize.json_text"][0] == 1
    assert tracer.counters["serialize.json_text"]["bytes"] == len(text)


# ----------------------------------------------------------------------
# the benchmark definition


def test_benchmark_json_matches_layers_and_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                          "per_layer"}
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        layers.metric_specs()
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    assert {"setup_s", "wall_s", "op_p50_ms", "op_tail_ms", "err_ratio", "ok_frac",
            "peak_rss_mb"} == {m["name"] for m in bench["end_to_end"]}
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    assert 2 <= len(bench["workloads"]) <= 8 and 1 <= len(bench["per_layer"]) <= 128
    assert isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60
    for m in bench["end_to_end"] + bench["per_layer"] + bench["workloads"]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", m["name"]), m["name"]
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]), m["unit"]
        assert m["better"] in ("higher", "lower")
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in bench["workloads"])
    assert os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")) <= 64 * 1024
    from perfbench import workloads

    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_compare_verdicts():
    assert compare.verdict(1.0, 1.05, 0.1, "lower") == "agree"
    assert compare.verdict(1.0, 1.2, 0.1, "lower") == "B worse"
    assert compare.verdict(1.0, 0.8, 0.1, "lower") == "B better"
    assert compare.verdict(1.0, 0.8, 0.1, "higher") == "B worse"


def test_host_speed_scale_takes_times_to_nominal_speed():
    from perfbench.hostspeed import NOMINAL_S, HostSpeed

    # kernel samples at half the nominal time: the host runs twice as fast
    assert HostSpeed.scale([NOMINAL_S / 2, NOMINAL_S / 2, NOMINAL_S]) == pytest.approx(2.0)
    block = HostSpeed().block()
    assert len(block) >= 3 and all(t > 0 for t in block)
