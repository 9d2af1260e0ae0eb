"""Contracts of the tiled product kernel, the lattice-row kernel and
the trigonometric-series weight.

Each fast kernel is checked against a plain reference written here:
the stop rule stepped element by element under masks, the per-point
lattice sum over the integer words k by k with its decade rule, and the
weight, the products and the lattice rows summed term by term in high
precision.
"""

import functools
import math
from fractions import Fraction

import numpy as np
import pytest

import wavewalk as ww
from conftest import DIVERGENT, SIXTHS, TABLE16, TENTHS, complex_quadrature_filter, quadrature_family
from wavewalk.ifs import cell_grid
from wavewalk.filters import (
    _response_closure,
    _weight_closure,
    _weight_taps,
    eval_weight,
    response_array,
    weight_array,
)
from wavewalk.measures import (
    ATOM_TILE,
    ATOM_UNDERFLOW,
    MAX_CHAIN_CELLS,
    _absorption_solve,
    _atom_array,
    _chain_harmonic,
    _harmonic_taps,
    _row_atoms,
    _word_products,
    _zero_path_products,
)


def stretched_h(xs, p=3):
    """h of the filter a_0 = a_p = 1/2, whose phi is the box on [0, p) over p.

    Its autocorrelations are (p - |n|) / p**2, summed at the argument
    reduced to [-1/2, 1/2] so that a large |x| costs no accuracy here.
    """
    r = np.asarray(xs, dtype=np.float64)
    r = r - np.rint(r)
    return sum((p - abs(n)) / p**2 * np.cos(2 * np.pi * n * r) for n in range(1 - p, p))


def _reference_atoms(spec, system, xs, prefix=1.0, taken=0):
    """The stop rule element by element, by masks over the whole array.

    No tiles, gathers or compaction: every element steps until all have
    stopped, and the step at which it first stops decides it.  Each
    product starts at prefix, the product of the `taken` factors before
    xs (a lattice row's word product), and goes on at step taken + 1.
    """
    closure = _weight_closure(spec)
    y = np.array(xs, dtype=np.float64)
    p = np.broadcast_to(np.asarray(prefix, dtype=np.float64), y.shape).copy()
    value = np.zeros(y.shape)
    tail = np.full(y.shape, np.nan)
    depth = np.zeros(y.shape, dtype=np.int64)
    live = np.ones(y.shape, dtype=bool)
    step = taken
    while live.any():
        step += 1
        y = y / system.scale_n
        p = p * weight_array(spec, y)
        dead = live & (p < ATOM_UNDERFLOW)
        shut = live & ~dead & (closure.lo <= y) & (y < closure.hi)
        if shut.any():
            value[shut] = p[shut] * closure.rest(y[shut])
            tail[shut] = closure.bound
        tail[dead] = 0.0
        depth[dead | shut] = step
        live &= ~(dead | shut)
    # a value that is not finite (a NaN rest: no limit) is unconverged
    converged = np.isfinite(value)
    tail[~converged] = np.nan
    return ww.MeasureArray(value, converged, tail, depth)


def _word_count(n, kk):
    """The levels m of the words of a lattice row: the most with N**m <= 2K+1."""
    m = 0
    while n ** (m + 1) <= 2 * kk + 1:
        m += 1
    return m


def _row_sum(atoms, ks, kk):
    """A row's value, flag, tail and depth from its atoms, by the decade rule."""
    vals = atoms.value
    absk = np.abs(ks)
    converged = bool(atoms.converged.all())
    tail = None
    if kk >= 10:
        tail = float(np.sum(vals[absk > kk // 10]))
        if kk >= 100:
            inner = float(np.sum(vals[(absk > kk // 100) & (absk <= kk // 10)]))
            if tail > inner + 1e-15:
                converged = False
    return float(np.sum(vals)), converged, tail if converged else None, int(atoms.depth_used.max())


def _direct_lattice_row(spec, system, x, policy, stride=1):
    """One point's lattice sum over atoms taken whole at the rounded x + stride*k."""
    kk = policy.tail_cutoff_k
    ks = np.arange(-kk, kk + 1)
    return _row_sum(_atom_array(spec, system, x + float(stride) * ks), ks, kk)


def _reference_lattice_mass(spec, system, x, policy, stride=1):
    """One point's lattice sum over the tree of integer words, k by k."""
    kk = policy.tail_cutoff_k
    return _row_sum(_reference_row_atoms(spec, system, x, policy, stride), np.arange(-kk, kk + 1), kk)


def _reference_row_atoms(spec, system, x, policy, stride=1):
    """One point's lattice-row atoms over the tree of integer words, k by k.

    The atom at x + stride*k is the product of the first m factors of
    its word r = (floor(x) + stride*k) mod N**m, read level by level at
    (x - floor(x) + r mod N**s) / N**s, and then the stop rule goes on
    from z_k = (x + stride*k) / N**m.  A word whose product underflows
    at level s gives 0 at depth s; an atom whose closure comes within
    the first m levels (z_k closed) is taken whole at x + stride*k.
    """
    n, stride = system.scale_n, int(stride)
    kk = policy.tail_cutoff_k
    ks = np.arange(-kk, kk + 1)
    m = _word_count(n, kk)
    base = math.floor(x)
    words = (base + stride * ks) % n**m
    prefix = np.ones(ks.size)
    dead_at = np.zeros(ks.size, dtype=np.int64)
    for s in range(1, m + 1):
        prefix = prefix * weight_array(spec, (x - base + words % n**s) / n**s)
        dead_at[(dead_at == 0) & (prefix < ATOM_UNDERFLOW)] = s
    points = x + float(stride) * ks
    z = points.copy()
    for _ in range(m):
        z = z / n
    closure = _weight_closure(spec)
    whole = (closure.lo <= z) & (z < closure.hi)
    atoms = _reference_atoms(spec, system, z, prefix, m)
    atoms.depth_used[dead_at > 0] = dead_at[dead_at > 0]
    atoms.value[dead_at > 0] = 0.0
    atoms.converged[dead_at > 0] = True
    direct = _reference_atoms(spec, system, points[whole])
    atoms.value[whole], atoms.converged[whole], atoms.depth_used[whole] = (
        direct.value, direct.converged, direct.depth_used
    )
    return atoms


@pytest.mark.parametrize("name", ["highpass_haar", "shannon", "stretched_haar", "d4", "divergent", "asym cells"])
def test_atom_array_over_tiles_matches_elementwise_rule(name, system2):
    spec = {"divergent": DIVERGENT, "asym cells": ASYM_CELLS}.get(name) or ww.load_gallery(name)
    ks = np.arange(-2000, 2001, dtype=np.float64)
    xs = (np.array([0.3, 0.0, 0.71, 0.125, 1 / 3])[:, None] + ks).ravel()
    assert xs.size > ATOM_TILE
    atoms = _atom_array(spec, system2, xs)
    # every 9th element, plus both sides of each tile seam
    seams = np.arange(ATOM_TILE, xs.size, ATOM_TILE)
    picks = np.unique(np.concatenate([np.arange(0, xs.size, 9), seams - 1, seams]))
    ref = _reference_atoms(spec, system2, xs[picks])
    for got, want in zip(
        (atoms.value, atoms.converged, atoms.tail_bound, atoms.depth_used),
        (ref.value, ref.converged, ref.tail_bound, ref.depth_used),
    ):
        np.testing.assert_array_equal(got[picks], want)
    depth = atoms.depth_used
    assert depth.min() == 1
    if name in ("highpass_haar", "divergent"):
        # W(0) != 1: every product stops at its first step, at exactly 0
        # where |W(0)| < 1 and with no limit otherwise; a first factor of
        # exactly 0 (at the odd integers) underflows and makes the atom 0
        assert (depth == 1).all()
        zero = (atoms.value == 0.0) & atoms.converged & (atoms.tail_bound == 0.0)
        if name == "highpass_haar":
            assert zero.all()
        else:
            nan = np.isnan(atoms.value) & ~atoms.converged & np.isnan(atoms.tail_bound)
            np.testing.assert_array_equal(zero, weight_array(spec, xs / 2) == 0.0)
            assert (zero | nan).all() and zero.sum() == 2000
    else:
        # the array mixes elements that leave their tile at the first step
        # with elements that take ten steps or more to reach the closure
        assert atoms.converged.all() and depth.max() >= 10


def test_zero_path_atom_is_the_kernel_at_one_point(stretched, system2, policy):
    xs = np.array([0.3 + 7, 0.3 - 1500, 0.5, -2.0**-11, 2.0**-11])
    atoms = _atom_array(stretched, system2, xs)
    for i, x in enumerate(xs):
        assert ww.zero_path_atom(stretched, system2, float(x), policy) == atoms.at(i)


def _assert_same_bits(got, want):
    for field in ("value", "converged", "tail_bound", "depth_used"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field


def test_asymmetric_table_closes_at_either_end(system2):
    # on the two sides of 0 the closure ends at different distances, and
    # y = hi itself is not closed
    closure = _weight_closure(ASYM_CELLS)
    assert (closure.lo, closure.hi) == (-0.4, 0.1)
    j = 2.0 ** np.arange(6)
    xs = np.concatenate([0.1 * j, -0.4 * j, 0.1 * j - 1e-9, -0.4 * j - 1e-9, [0.0, -0.0, 5.3, -5.3]])
    _assert_same_bits(_atom_array(ASYM_CELLS, system2, xs), _reference_atoms(ASYM_CELLS, system2, xs))
    for x, value, depth in ((0.2, 0.8, 2), (0.199, 1.0, 1), (-0.8, 0.0, 1), (-0.81, 0.0, 2), (-0.0, 1.0, 1)):
        atom = ww.zero_path_atom(ASYM_CELLS, system2, x, ww.TruncationPolicy())
        assert atom == ww.MeasureValue(value, True, 0.0, depth), x


def test_one_tile_mixes_first_step_stops_with_long_products(system2):
    # first steps that close (|x| / 2 <= rho) or underflow (W(1/2) = 0 for
    # d4) next to products that take 20 steps and more, all in one tile
    rng = np.random.default_rng(41)
    xs = np.concatenate([[1.0, -1.0, 1e-3, 0.0], rng.uniform(-1e7, 1e7, 40), rng.uniform(-1e-3, 1e-3, 20)])
    rng.shuffle(xs)
    assert xs.size < ATOM_TILE
    for spec in (ww.load_gallery("d4"), ww.load_gallery("stretched_haar"), ASYM_CELLS):
        atoms = _atom_array(spec, system2, xs)
        _assert_same_bits(atoms, _reference_atoms(spec, system2, xs))
        assert atoms.depth_used.min() == 1 and atoms.depth_used.max() >= 20


def test_underflow_at_the_closing_step_is_exactly_zero(haar, system2):
    # a product that starts at the floor: at y = 0 the factor is 1 and the
    # product closes at ATOM_UNDERFLOW; at 0 < y <= rho the factor is below
    # 1, so the product underflows at the very step its closure starts
    closure = _weight_closure(haar)
    ys = np.array([0.0, 0.9 * closure.hi])
    w = weight_array(haar, ys)
    assert w[0] == 1.0 and w[1] < 1.0
    factor = functools.partial(weight_array, haar)
    atoms = _zero_path_products(factor, closure, 2, 2.0 * ys, prefix=np.full(2, ATOM_UNDERFLOW))
    assert atoms.at(0) == ww.MeasureValue(ATOM_UNDERFLOW, True, closure.bound, 1)
    assert atoms.at(1) == ww.MeasureValue(0.0, True, 0.0, 1)
    _assert_same_bits(atoms, _reference_atoms(haar, system2, 2.0 * ys, prefix=ATOM_UNDERFLOW))


#: small weights on the cell [0.001, 0.5) and tiny ones on the last cell: a
#: lattice row's word products stay above the floor (at most m = 6 factors
#: of 1e-40 for K = 50), and the kernel's steps then push some below it
FADING = ww.FilterSpec.from_table([0.0, 0.001, 0.5], [1.0, 1e-10, 1e-40], label="fading")


def test_lattice_prefixes_underflow_inside_the_kernel(system2):
    policy = ww.TruncationPolicy(tail_cutoff_k=50)
    m = _word_count(2, 50)
    for x in (0.3, 0.71, 0.999):
        value, converged, depth = _row_atoms(FADING, system2, np.array([x]), policy, 1)
        ref = _reference_row_atoms(FADING, system2, x, policy)
        for got, want in ((value, ref.value), (converged, ref.converged), (depth, ref.depth_used)):
            assert got.ravel().tobytes() == want.tobytes()
        # not underflowed in the word tree, then 0 inside the kernel, before
        # the closure (whose rest is 1 above 0) was reached
        _, dead_at = _word_products(FADING, np.array([x]), 2, m)
        inside = (depth[0] > m) & (value[0] == 0.0) & (np.arange(-50, 51) + x > 0)
        assert inside.any() and (dead_at == 0).all(), x


def test_scaling_hat_is_the_elementwise_complex_product(system2):
    # the kernel on one complex element, stepped here on Python complex
    # numbers: p = p * m(y) from p = 1, closed by p * rest(y)
    specs = [ww.load_gallery("d4"), complex_quadrature_filter(7), BOX3,
             ww.FilterSpec.from_coefficients({0: 1 / 3, 2: 1 / 3, 4: 1 / 3}, scale_n=3)]
    rng = np.random.default_rng(43)
    xs = np.concatenate([[0.0, -0.0, 0.5, -0.5, 1e-6, 3.0], rng.uniform(-3000.0, 3000.0, 12)])
    for spec in specs:
        n = spec.scale_n
        closure = _response_closure(spec)
        for x in xs.tolist():
            y, p, step = x, 1 + 0j, 0
            while True:
                step += 1
                y = y / n
                p = p * complex(response_array(spec, np.array([y]))[0])
                if abs(p) < ATOM_UNDERFLOW:
                    want = (0j, step, 0.0)
                    break
                if closure.lo <= y < closure.hi:
                    want = (p * complex(closure.rest(np.array([y]))[0]), step, closure.bound)
                    break
            hat = ww.scaling_hat(spec, ww.PathSystem(n), x)
            assert isinstance(hat.value, complex)
            assert np.array([hat.value]).tobytes() == np.array([want[0]]).tobytes(), (spec.label, x)
            # the kernel's own record: the closure's proven bound, 0 for an exact 0
            assert (hat.converged, hat.depth_used, hat.tail_bound) == (True, want[1], want[2])


@pytest.mark.parametrize("kk", [5, 50, 2000])
@pytest.mark.parametrize("npts", [0, 1, 3, 5, 17])
def test_lattice_masses_match_pointwise_rule(kk, npts, system2):
    policy = ww.TruncationPolicy(tail_cutoff_k=kk)
    xs = np.random.default_rng(npts + kk).random(npts)
    for spec, h in ((ww.load_gallery("d4"), np.ones_like), (ww.load_gallery("stretched_haar"), stretched_h)):
        masses = ww.lattice_masses(spec, system2, xs, policy)
        grid = ww.harmonic_on_grid(spec, system2, xs, policy)
        assert masses.value.shape == grid.shape == xs.shape
        for i, x in enumerate(xs):
            value, converged, tail, depth = _reference_lattice_mass(spec, system2, x, policy)
            mv = ww.lattice_mass(spec, system2, float(x), policy)
            for got in (masses.at(i), mv):
                assert got.value == pytest.approx(value, rel=1e-15, abs=1e-300)
                assert got.converged == converged
                assert got.depth_used == depth
                if tail is None:
                    assert got.tail_bound is None
                else:
                    assert got.tail_bound == pytest.approx(tail, rel=1e-15, abs=1e-300)
        # harmonic_on_grid takes the exact route for these filters
        np.testing.assert_allclose(grid, h(xs), rtol=0, atol=1e-13)


def test_lattice_masses_keep_the_shape_of_the_points(d4, system2):
    policy = ww.TruncationPolicy(tail_cutoff_k=50)
    xs = np.linspace(0.0, 1.0, 6).reshape(2, 3)
    masses = ww.lattice_masses(d4, system2, xs, policy)
    for field in (masses.value, masses.converged, masses.tail_bound, masses.depth_used):
        assert field.shape == (2, 3)
    np.testing.assert_array_equal(masses.value.ravel(), ww.lattice_masses(d4, system2, xs.ravel(), policy).value)
    grid = ww.harmonic_on_grid(d4, system2, xs, policy)
    assert grid.shape == (2, 3)
    np.testing.assert_allclose(grid, 1.0, rtol=0, atol=1e-13)
    exact = ww.harmonic_masses(d4, system2, xs, policy)
    assert exact.converged.shape == exact.tail_bound.shape == exact.depth_used.shape == (2, 3)
    assert exact.converged.all() and not exact.tail_bound.any() and not exact.depth_used.any()


def test_lattice_masses_with_stride_sum_the_sublattice(haar, system2):
    policy = ww.TruncationPolicy(tail_cutoff_k=300)
    for stride in (2.0, 8.0):
        value, converged, _, depth = _reference_lattice_mass(haar, system2, 0.37, policy, stride)
        got = ww.lattice_masses(haar, system2, [0.37], policy, stride=stride).at(0)
        assert got.value == pytest.approx(value, rel=1e-15)
        assert (got.converged, got.depth_used) == (converged, depth)


BOX3 = ww.FilterSpec.from_coefficients({0: 1 / 3, 1: 1 / 3, 2: 1 / 3}, scale_n=3, label="box3")

#: the end cells carry the closures: 1 on the first, 0.7 (so a rest of 0) on the last
END_CELLS = ww.FilterSpec.from_table([0.0, 0.25, 0.5, 0.75], [1.0, 0.3, 0.0, 0.7], label="end cells")

#: end cells of unequal width: the closure is [-0.4, 0.1), a rest of 0 below 0 and of 1 above
ASYM_CELLS = ww.FilterSpec.from_table([0.0, 0.1, 0.6], [1.0, 0.8, 0.5], label="asym cells")


@pytest.mark.parametrize("spec", [ww.load_gallery("highpass_haar"), FADING, ASYM_CELLS],
                         ids=["highpass_haar", "fading", "asym_cells"])
def test_harmonic_masses_off_the_exact_routes_are_lattice_masses(spec, system2):
    # no exact h: a coefficient filter that is not low-pass, and two tables off every N-adic grid
    policy = ww.TruncationPolicy(tail_cutoff_k=300)
    xs = np.random.default_rng(7).random(9)
    got, want = ww.harmonic_masses(spec, system2, xs, policy), ww.lattice_masses(spec, system2, xs, policy)
    for field in ("value", "converged", "tail_bound", "depth_used"):
        np.testing.assert_array_equal(getattr(got, field), getattr(want, field))


@pytest.mark.parametrize("kk", [5, 50, 2000])
@pytest.mark.parametrize("name", ["box3", "end cells", "asym cells", "highpass_haar", "d4"])
def test_lattice_rows_keep_the_stop_rule_of_the_direct_rows(name, kk):
    spec = {"box3": BOX3, "end cells": END_CELLS, "asym cells": ASYM_CELLS}.get(name) or ww.load_gallery(name)
    n = spec.scale_n
    system = ww.PathSystem(n)
    policy = ww.TruncationPolicy(tail_cutoff_k=kk)
    inside = np.random.default_rng(kk + n).random(3)
    # n * x is the point cocycle_residual sums its sublattice at
    xs = np.concatenate([inside, [0.0], n * inside[:1], [-7.25, 1e6 + 0.3]])
    for stride in (1, n, n**2):
        masses = ww.lattice_masses(spec, system, xs, policy, stride=stride)
        for i, x in enumerate(xs):
            got = masses.at(i)
            value, converged, tail, depth = _reference_lattice_mass(spec, system, float(x), policy, stride)
            assert got.value == pytest.approx(value, rel=1e-15, abs=1e-300), (stride, x)
            assert (got.converged, got.depth_used) == (converged, depth), (stride, x)
            assert (got.tail_bound is None) == (tail is None)
            _, direct_converged, direct_tail, direct_depth = _direct_lattice_row(spec, system, float(x), policy, stride)
            assert (got.converged, got.depth_used) == (direct_converged, direct_depth), (stride, x)
            assert (got.tail_bound is None) == (direct_tail is None)
    if name == "highpass_haar":
        # W(0) = 0: at x = 0 the word 0 underflows at its first level
        _, dead_at = _word_products(spec, np.zeros(1), n, _word_count(n, kk))
        assert dead_at[0, 0] == 1


def _exact_end_cells_row(x, kk):
    """The lattice sum of END_CELLS over |k| <= kk at the float x, in rationals.

    Each atom multiplies W((x + k) / 2**n) until the argument enters the
    first cell, where every later factor is 1, or the last cell shifted
    by -1, where every later factor is 0.7 and the product tends to 0.
    """
    edges = [Fraction(b) for b in END_CELLS.breakpoints]
    values = [Fraction(v) for v in END_CELLS.values]
    total = Fraction(0)
    for k in range(-kk, kk + 1):
        y, atom = Fraction(x) + k, Fraction(1)
        while True:
            y /= 2
            if edges[-1] - 1 <= y < edges[1]:
                total += atom if y >= 0 else 0
                break
            r = y - math.floor(y)
            atom *= values[max(i for i, e in enumerate(edges) if e <= r)]
    return float(total)


# a lattice row reads its atoms at the float x + k and x - floor(x), not
# at the exact points: one float next to a breakpoint is misread
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="lattice rows misread floats next to a breakpoint (ROADMAP items 4, 5)")
@pytest.mark.parametrize("x, want", [(0.5 - 2.0**-53, 1.0), (-(2.0**-60), 0.882351)],
                         ids=["below-one-half", "below-zero"])
def test_lattice_row_next_to_a_breakpoint_is_the_exact_sum(x, want, system2):
    # at 0.5 - 2**-53 the row reads 1.582351 at K = 50 and 1.680227 at
    # K = 2000, both called converged, where a mass cannot exceed 1; at
    # -2**-60, x - floor(x) rounds to 1 and the row reads 0.0, converged
    # with tail 0.0
    assert _exact_end_cells_row(x, 50) == pytest.approx(want, abs=1e-15)
    row = ww.lattice_masses(END_CELLS, system2, [x], ww.TruncationPolicy(tail_cutoff_k=50)).at(0)
    assert row.value == pytest.approx(want, abs=1e-12)
    wide = ww.lattice_masses(END_CELLS, system2, [x], ww.TruncationPolicy(tail_cutoff_k=2000)).at(0)
    assert wide.value <= 1.0 + 1e-12 or not wide.converged


def test_lattice_masses_take_only_a_positive_integral_stride(haar, system2):
    policy = ww.TruncationPolicy(tail_cutoff_k=50)
    for stride in (0, -1, 0.5, -2.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            ww.lattice_masses(haar, system2, [0.3], policy, stride=stride)
    two = ww.lattice_masses(haar, system2, [0.3], policy, stride=2)
    assert two.at(0) == ww.lattice_masses(haar, system2, [0.3], policy, stride=2.0).at(0)
    assert two.at(0) == ww.lattice_masses(haar, system2, [0.3], policy, stride=np.int64(2)).at(0)


def _exact_row(c, x, kk):
    """sum_{|k| <= K} sinc^2(c (x + k)) in 200-bit arithmetic, for x not an integer."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workprec(200):
        x = mpmath.mpf(float(x))
        # sin^2(pi c (x + k)) = sin^2(pi c x) for integers c and k
        num = mpmath.sin(mpmath.pi * c * x) ** 2 / (mpmath.pi * c) ** 2
        return float(num * mpmath.fsum(1 / (x + k) ** 2 for k in range(-kk, kk + 1)))


@pytest.mark.parametrize("kk", [50, 2000])
def test_lattice_rows_match_the_exact_sum(kk):
    pytest.importorskip("mpmath")
    # phi is the box on [0, 1) for Haar and for the N = 3 box filter, and
    # on [0, 3) over 3 for the stretched Haar filter: the atoms are sinc^2
    # of x and of 3x
    cases = [(ww.load_gallery("haar"), 1), (BOX3, 1), (ww.load_gallery("stretched_haar"), 3)]
    xs = np.random.default_rng(29).random(40)
    xs = xs[stretched_h(xs) >= 0.1][:6]
    assert xs.size == 6
    policy = ww.TruncationPolicy(tail_cutoff_k=kk)
    for spec, c in cases:
        got = ww.lattice_masses(spec, ww.PathSystem(spec.scale_n), xs, policy).value
        want = np.array([_exact_row(c, x, kk) for x in xs])
        assert np.max(np.abs(got - want) / want) <= 1e-14, spec.label


@pytest.mark.parametrize("name", ["haar", "d4", "stretched_haar"])
def test_lattice_rows_are_sums_of_integer_atoms(name, system2):
    # the embedding identity: the atom at x + k is the mass of k's digit
    # word times the atom at the word's end point
    spec = ww.load_gallery(name)
    kk = 50
    policy = ww.TruncationPolicy(tail_cutoff_k=kk)
    xs = np.random.default_rng(31).random(5)
    rows = ww.lattice_masses(spec, system2, xs, policy).value
    for x, row in zip(xs, rows):
        atoms = [ww.integer_atom(spec, system2, float(x), k).value for k in range(-kk, kk + 1)]
        assert abs(math.fsum(atoms) - row) <= 1e-13 * row


# ----------------------------------------------------------------------
# the weight series


COMPLEX_TAPS = [
    {-1: 0.3j, 0: 0.5, 2: 0.5 - 0.3j},
    {0: 0.5 + 0.2j, 1: 0.5 - 0.2j},
]


def _series_filters():
    specs = [ww.FilterSpec.from_coefficients(c) for c in COMPLEX_TAPS]
    specs += [ww.load_gallery(n) for n in ww.GALLERY_NAMES]
    return specs


@pytest.mark.parametrize("spec", _series_filters(), ids=lambda s: s.label or str(dict(s.coeffs)))
def test_weight_array_matches_eval_weight_far_out(spec):
    rng = np.random.default_rng(11)
    xs = np.concatenate([
        rng.uniform(-4000.0, 4000.0, 400),
        rng.uniform(-1.0, 1.0, 200),
        np.arange(-4000.0, 4001.0, 250.0) + 0.5,
        [0.0, 0.5, -0.5, 1e-9, 3999.999999],
    ])
    got = weight_array(spec, xs)
    ref = np.array([eval_weight(spec, float(x)) for x in xs])
    assert np.max(np.abs(got - ref)) <= 1e-13


def _plain_weight(spec, xs):
    """W at xs: the series of _weight_taps by Clenshaw's recurrence from
    b_1 = b_2 = 0, every operation a new array and none in place, in the
    order weight_array sums it."""
    c0, cos_taps, sin_taps = _weight_taps(spec)
    xs = np.asarray(xs, dtype=np.float64)
    ang = 2.0 * np.pi * (xs - np.rint(xs))
    c = np.cos(ang)

    def clenshaw(taps):
        b1, b2 = 0.0, 0.0
        for t in reversed(taps):
            b1, b2 = 2.0 * c * b1 - b2 + t, b1
        return b1, b2

    b1, b2 = clenshaw(cos_taps)
    out = c * b1 - b2 + c0
    if sin_taps:
        out = out + np.sin(ang) * clenshaw(sin_taps)[0]
    return np.maximum(out, 0.0)


#: the points at which the weight is pinned: the ends of the reduced
#: range, both zeros, and arguments whose reduction is all of their value
PIN_POINTS = [0.5, -0.5, -0.0, 0.0, 1e300, -1e300, 1.7e308, 3.25, -4000.3, 2.0**-1074]


@pytest.mark.parametrize("spec", [s for s in _series_filters() if s.kind == "coefficients"],
                         ids=lambda s: s.label or str(dict(s.coeffs)))
def test_weight_array_keeps_the_bits_and_shape_of_a_plain_clenshaw(spec):
    rng = np.random.default_rng(23)
    grid = np.concatenate([PIN_POINTS, rng.uniform(-1.0, 1.0, 40), rng.uniform(-4000.0, 4000.0, 40)])
    inputs = [0.3, -0.5, np.float64(0.5), np.float64(-0.0), np.array(1e300), np.array(-0.0),
              grid, grid.reshape(10, -1), grid[:1]]
    for xs in inputs:
        got, want = weight_array(spec, xs), _plain_weight(spec, xs)
        # a scalar or 0-d argument gives a numpy scalar, an array one of its shape
        assert type(got) is type(want) and np.shape(got) == np.shape(xs)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), xs


def test_table_weight_takes_a_scalar():
    table = ww.FilterSpec.from_table([0.0, 0.25, 0.5, 0.75], [1.0, 0.3, 0.0, 0.7])
    for x, w in ((0.3, 0.3), (-0.3, 0.0), (np.float64(-(2.0**-60)), 1.0), (np.array(0.8), 0.7)):
        got = weight_array(table, x)
        assert np.shape(got) == () and got == w and got == eval_weight(table, float(x))


@pytest.mark.parametrize("spec", _series_filters()[:2] + [ww.load_gallery("d4")], ids=["cplx3", "cplx1", "d4"])
def test_weight_is_exact_to_rounding_at_large_arguments(spec):
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.prec = 200
    xs = np.random.default_rng(5).uniform(-4000.0, 4000.0, 60)

    def exact(x):
        m = sum(
            mpmath.mpc(v.real, v.imag) * mpmath.expj(-2 * mpmath.pi * k * mpmath.mpf(float(x)))
            for k, v in spec.coeffs
        )
        return float(abs(m) ** 2)

    ref = np.array([exact(x) for x in xs])
    assert np.max(np.abs(weight_array(spec, xs) - ref)) <= 2e-15
    assert max(abs(eval_weight(spec, float(x)) - r) for x, r in zip(xs, ref)) <= 2e-15


def test_single_coefficient_weight_is_constant(system2):
    spec = ww.FilterSpec.from_coefficients({3: 1.0})
    np.testing.assert_array_equal(weight_array(spec, np.array([0.0, 0.3, 1234.5])), 1.0)
    # a_0 = 1 alone: W = m = 1, so |f - 1| <= 1/2 on a disc of every radius,
    # and every product closes at once, at exactly 1
    one = ww.FilterSpec.from_coefficients({0: 1.0})
    xs = [0.3, -5.0, 1e300]
    assert ww.zero_path_atoms(one, system2, xs).value.tolist() == [1.0] * 3
    assert [ww.scaling_hat(one, system2, x).value for x in xs] == [1.0] * 3


def test_zero_path_atoms_record(d4, stretched, system2, policy):
    # the public record is the kernel's, NaN tail where unconverged
    xs = np.array([[0.0, 0.3, 5.5], [-7.25, 1e3, 0.49]])
    for spec in (d4, stretched, DIVERGENT):
        atoms = ww.zero_path_atoms(spec, system2, xs)
        kernel = _atom_array(spec, system2, xs)
        assert atoms.value.shape == xs.shape
        for field in ("value", "converged", "depth_used", "tail_bound"):
            assert np.array_equal(getattr(atoms, field), getattr(kernel, field), equal_nan=True)
        assert np.array_equal(np.isnan(atoms.tail_bound), ~atoms.converged)
        assert atoms.converged.all() == (spec is not DIVERGENT)
        for i, x in enumerate(xs.ravel()):
            # MeasureValue compares NaN values as unequal, so compare them as text
            assert repr(atoms.at(i)) == repr(ww.zero_path_atom(spec, system2, float(x), policy))


# ----------------------------------------------------------------------
# the exact harmonic function


def _far_points(count=1200, seed=13):
    rng = np.random.default_rng(seed)
    return np.concatenate([
        rng.uniform(-4000.0, 4000.0, count // 2),
        rng.uniform(-1.0, 1.0, count // 2),
        [0.0, 0.5, 1 / 3, 2 / 3, -4000.0, 3999.999999],
    ])


def test_exact_harmonic_closed_forms(system2, policy):
    xs = _far_points()
    assert np.abs(xs).max() >= 4000.0
    for name in ("haar", "d4"):
        h = ww.harmonic_on_grid(ww.load_gallery(name), system2, xs, policy)
        assert np.max(np.abs(h - 1.0)) <= 1e-13
    h = ww.harmonic_on_grid(ww.load_gallery("stretched_haar"), system2, xs, policy)
    assert np.max(np.abs(h - stretched_h(xs))) <= 1e-13
    # a_0 = a_p = 1/2 has the cycles of x -> 2x on the points j/p:
    # {1/5, 2/5, 4/5, 3/5} for p = 5; {1/7, 2/7, 4/7} and {3/7, 6/7, 5/7} for p = 7
    for p in (5, 7):
        spec = ww.FilterSpec.from_coefficients({0: 0.5, p: 0.5})
        h = ww.harmonic_on_grid(spec, system2, xs, policy)
        assert np.max(np.abs(h - stretched_h(xs, p))) <= 1e-13
    # scale 3: the box a_0 = a_1 = a_2 = 1/3 has h = 1 with no lattice sum
    masses = ww.harmonic_masses(BOX3, ww.PathSystem(3), xs, policy)
    assert np.max(np.abs(masses.value - 1.0)) <= 1e-13 and not masses.tail_bound.any()
    # a_0 = a_2 = a_4 = 1/3 has phi the box on [0, 2) over 2
    spec = ww.FilterSpec.from_coefficients({0: 1 / 3, 2: 1 / 3, 4: 1 / 3}, scale_n=3)
    h = ww.harmonic_on_grid(spec, ww.PathSystem(3), xs, policy)
    assert np.max(np.abs(h - stretched_h(xs, 2))) <= 1e-13
    # complex taps: W has a sine series, and phi is orthonormal
    spec = complex_quadrature_filter(7)
    assert ww.validate_filter(spec).all_ok
    assert max(abs(t) for t in _weight_taps(spec)[2]) > 0.1
    h = ww.harmonic_on_grid(spec, system2, xs, policy)
    assert np.max(np.abs(h - 1.0)) <= 1e-13


def test_exact_harmonic_of_the_quadrature_family(system2, policy):
    xs = _far_points(200)
    for theta in np.random.default_rng(17).uniform(0.0, 2.0 * np.pi, 40):
        h = ww.harmonic_on_grid(quadrature_family(float(theta)), system2, xs, policy)
        assert np.max(np.abs(h - 1.0)) <= 1e-12
    # theta = pi is the stretched Haar filter: eigenvalue 1 is double
    h = ww.harmonic_on_grid(quadrature_family(np.pi), system2, xs, policy)
    assert np.max(np.abs(h - stretched_h(xs))) <= 1e-13


def test_exact_harmonic_is_near_the_lattice_sum(system2):
    kk = 20_000
    policy = ww.TruncationPolicy(tail_cutoff_k=kk)
    xs = np.random.default_rng(19).random(8)
    for name in ("haar", "d4", "stretched_haar"):
        spec = ww.load_gallery(name)
        exact = ww.harmonic_on_grid(spec, system2, xs, policy)
        lattice = ww.lattice_masses(spec, system2, xs, policy).value
        assert np.max(np.abs(exact - lattice)) <= 4 / (np.pi**2 * kk)


def test_exact_harmonic_gridfunction_is_harmonic(system2, policy):
    for name in ("haar", "d4", "stretched_haar"):
        spec = ww.load_gallery(name)
        h = ww.harmonic_gridfunction(spec, system2, 7, policy)
        assert ww.harmonic_residual(spec, system2, h, eval_level=6) <= 1e-12
    # low-pass partitions for N = 3 and 5, a_0 = a_2 = ... = a_{2N-2} = 1/N:
    # a third of the rounded branch points of N = 3 fall on a cell edge
    for n, level in ((3, 6), (5, 5)):
        spec = ww.FilterSpec.from_coefficients({2 * i: 1 / n for i in range(n)}, scale_n=n)
        system = ww.PathSystem(n)
        h = ww.harmonic_gridfunction(spec, system, level, policy)
        for lev in range(1, level):
            assert ww.harmonic_residual(spec, system, h, eval_level=lev) <= 1e-12, (n, lev)


def _branch_point_residual(spec, system, h, lev):
    """The residual read at the rounded branch points of the level-`lev`
    grid points, through GridFunction.values_at: the formula of
    harmonic_residual before it took the grid flows."""
    xs = np.arange(system.scale_n**lev) / system.scale_n**lev
    ys = system.branch_array(np.arange(system.scale_n)[:, None], xs)
    acc = (weight_array(spec, ys) * h.values_at(ys)).sum(axis=0)
    return float(np.max(np.abs(acc - h.values_at(xs))))


@pytest.mark.parametrize("name", ww.GALLERY_NAMES)
def test_harmonic_residual_for_n2_is_the_branch_point_formula(name, system2, policy):
    # for N = 2 every branch point of a dyadic grid point is exact, so the
    # grid flows read the very cells the rounded branch points do
    spec = ww.load_gallery(name)
    rng = np.random.default_rng(41)
    for level in (1, 3, 6, 9):
        grids = [ww.harmonic_gridfunction(spec, system2, level, ww.TruncationPolicy(tail_cutoff_k=50)),
                 ww.GridFunction(level, 2, rng.random(2**level))]
        for h in grids:
            for lev in range(1, level + 1):
                got = ww.harmonic_residual(spec, system2, h, eval_level=lev)
                assert got.hex() == _branch_point_residual(spec, system2, h, lev).hex(), (level, lev)


def test_filters_off_the_exact_route_keep_the_lattice_sum(system2):
    policy = ww.TruncationPolicy(tail_cutoff_k=50)
    xs = np.random.default_rng(23).random(9)
    # 2**-40 has an orbit of 2**38 points under x -> 3x mod 1
    beyond_cap = ww.FilterSpec.from_table([0.0, 2.0**-40], [1 / 3, 1 / 3], scale_n=3)
    assert _chain_harmonic(beyond_cap) is None
    # x -> 6x mod 1 carries the dyadic b = fl(0.1) / 1024 through points
    # that no float is: the first, q, rounds to the float b2, which as a
    # breakpoint is a rational of its own, so two cell edges are one float
    b = 0.1 / 1024
    q = Fraction(b)
    while Fraction(float(q)) == q:
        q = q * 6 % 1
    b2 = float(q)
    assert Fraction(b2) != q and Fraction(b2).limit_denominator(MAX_CHAIN_CELLS) != b2
    one_float = ww.FilterSpec.from_table([0.0, b, b2], [1 / 3, 0.5, 0.2], scale_n=6)
    assert _chain_harmonic(one_float) is None
    specs = [
        ww.load_gallery("highpass_haar"),
        ww.FilterSpec.from_table([0.0], [0.4]),  # not a partition
        ww.FilterSpec.from_coefficients({0: 0.6, 1: 0.4}),  # low-pass, not a partition
        quadrature_family(np.pi + 1e-4),  # a fixed point too ill-conditioned to solve for
        # eigenvalue 1 neither simple nor double at rounding level
        quadrature_family(np.pi + 1e-5),
        quadrature_family(np.pi + 1e-6),
        beyond_cap,
        one_float,
    ]
    for spec in specs:
        system = ww.PathSystem(spec.scale_n)
        got = ww.harmonic_on_grid(spec, system, xs, policy)
        np.testing.assert_array_equal(got, ww.lattice_masses(spec, system, xs, policy).value)


# ----------------------------------------------------------------------
# the exact harmonic function of a table: the chain on its Markov partition


#: a partition whose lattice sums approach h = 1 slowly
SLOW_TAIL = ww.FilterSpec.from_table(np.arange(8) / 8, [1, 0.0276, 0.7535, 0, 0, 0.9724, 0.2465, 1])


def test_declined_exact_solves_take_the_lattice_route(monkeypatch):
    # the taps and the chain are cached per filter, so each case is a filter of its own label
    declined = []
    # stretched Haar has the W-cycle {1/3, 2/3}, on the period-2 grid j/3;
    # with the search capped below 3 it finds fewer cycles than the
    # eigenvalue 1 has, and the taps decline
    coeffs = {0: 0.5, 3: 0.5}
    assert _harmonic_taps(ww.FilterSpec.from_coefficients(coeffs, label="cycle search, cap 2**20")) is not None
    with monkeypatch.context() as m:
        m.setattr(ww.measures, "MAX_TREE_WORDS", 2)
        declined.append(ww.FilterSpec.from_coefficients(coeffs, label="cycle search, cap 2"))
        assert _harmonic_taps(declined[-1]) is None
    # a free cell with no weight out of the free cells has pivot 0, at the
    # first cell or after the elimination of another, and the chain declines
    assert _absorption_solve(np.zeros((1, 1)), np.zeros(1), np.ones((1, 2))) is None
    assert _absorption_solve(np.array([[0.0, 0.5], [0.0, 0.0]]), np.array([0.5, 0.0]), np.ones((2, 2))) is None
    with monkeypatch.context() as m:
        m.setattr(ww.measures, "_absorption_solve",
                  lambda inner, leak, rhs: _absorption_solve(0 * inner, 0 * leak, rhs))
        declined.append(ww.FilterSpec.from_table(SLOW_TAIL.breakpoints, SLOW_TAIL.values, label="failed solve"))
        assert _chain_harmonic(declined[-1]) is None
    policy = ww.TruncationPolicy(tail_cutoff_k=50)
    xs = np.random.default_rng(29).random(9)
    for spec in declined:
        got = ww.harmonic_masses(spec, ww.PathSystem(2), xs, policy)
        want = ww.lattice_masses(spec, ww.PathSystem(2), xs, policy)
        for field in ("value", "converged", "tail_bound", "depth_used"):
            np.testing.assert_array_equal(getattr(got, field), getattr(want, field))


def _end_cell_fraction(spec, system, xs, trials, steps, seed, lo=1 / 16, hi=15 / 16):
    """Per start point, the fraction of dyadic walks that sit in an end
    cell, [0, lo) or [hi, 1), after `steps` steps: where the end cells have
    W = 1 on the digit that keeps a walk inside them (the 16-bin end cells
    of TABLE16 by default), this estimates h there."""
    rng = np.random.default_rng(seed)
    y = np.repeat(np.asarray(xs, dtype=np.float64), trials)
    for _ in range(steps):
        one = rng.random(y.size) >= weight_array(spec, system.branch_array(0, y))
        y = system.branch_array(one.astype(np.float64), y)
    ends = (y < lo) | (y >= hi)
    return ends.reshape(len(xs), trials).mean(axis=1)


def test_chain_harmonic_of_shannon_is_one(system2):
    shannon = ww.load_gallery("shannon")
    assert _chain_harmonic(shannon) is not None
    policy = ww.TruncationPolicy(tail_cutoff_k=2000)
    xs = _far_points(400)
    assert np.max(np.abs(ww.harmonic_on_grid(shannon, system2, xs, policy) - 1.0)) <= 1e-14
    mids = (np.arange(32) + 0.37) / 32
    lattice = ww.lattice_masses(shannon, system2, mids, policy).value
    assert np.max(np.abs(ww.harmonic_on_grid(shannon, system2, mids, policy) - lattice)) <= 1e-12


def test_chain_harmonic_without_a_target_is_zero(system2, policy):
    xs = _far_points(400)
    for spec in (
        ww.FilterSpec.from_table([0.0], [0.5]),
        # W = 1 on the cycle {1/3, 2/3}, and 0 at both ends
        ww.FilterSpec.from_table([0.0, 0.25, 0.5, 0.75], [0.0, 1.0, 1.0, 0.0]),
    ):
        assert _chain_harmonic(spec) is not None
        np.testing.assert_array_equal(ww.harmonic_on_grid(spec, system2, xs, policy), 0.0)


def test_chain_harmonic_of_a_slow_lattice_tail(system2, policy):
    xs = np.array([0.0625, 0.3125, 0.4375])
    assert np.max(np.abs(ww.harmonic_on_grid(SLOW_TAIL, system2, xs, policy) - 1.0)) <= 1e-12


def test_chain_harmonic_against_walks_and_the_lattice_sum(system2):
    policy = ww.TruncationPolicy(tail_cutoff_k=2000)
    xs = (np.array([6, 10, 12]) + 0.5) / 16
    want = np.array([3, 6, 8]) / 13
    h = ww.harmonic_on_grid(TABLE16, system2, xs, policy)
    assert np.max(np.abs(h - want)) <= 1e-14
    # the whole cell carries the value, edges included
    edges = np.array([6, 10, 12]) / 16
    np.testing.assert_array_equal(ww.harmonic_on_grid(TABLE16, system2, edges, policy), h)
    trials = 20_000
    walked = _end_cell_fraction(TABLE16, system2, xs, trials, 200, seed=29)
    stderr = np.sqrt(walked * (1.0 - walked) / trials)
    assert np.all(np.abs(walked - h) <= 6 * stderr)
    lattice = ww.lattice_masses(TABLE16, system2, xs, policy).value
    assert np.max(np.abs(lattice - h)) <= 1e-3


@pytest.mark.parametrize("spec, bottom", [(TENTHS, 0.1), (SIXTHS, 1 / 6)], ids=["tenths", "sixths"])
def test_chain_harmonic_off_the_dyadic_grid_against_walks(spec, bottom, system2):
    # the bottom cell [0, bottom) keeps every walk that enters it (W = 1 on
    # digit 0), and every walk enters it: h = 1, where the lattice sum at
    # K = 2000 read 0.32-0.76 and called it converged
    policy = ww.TruncationPolicy(tail_cutoff_k=2000)
    xs = np.array([0.05, 0.3, 0.45, 0.55, 0.7, 0.95])
    h = ww.harmonic_on_grid(spec, system2, xs, policy)
    np.testing.assert_array_equal(h, 1.0)
    trials = 2_000
    walked = _end_cell_fraction(spec, system2, xs, trials, 400, seed=31, lo=bottom, hi=1.0)
    stderr = np.sqrt(walked * (1.0 - walked) / trials)
    # 1e-3 allows for the walks not yet absorbed after 400 steps (a few
    # in 10,000 are left after 300 on the tenths)
    assert np.all(np.abs(walked - h) <= 6 * stderr + 1e-3)


@pytest.mark.parametrize("spec, scale, h", [
    (ww.FilterSpec.from_table([0.0, 0.1, 0.5, 0.6], [1.0, 0.5, 0.0, 0.5]), 2, 1.0),
    (ww.FilterSpec.from_table([0.0, 2.0**-10, 0.5, 0.5 + 2.0**-10], [1.0, 0.5, 0.0, 0.5]), 2, 1.0),
    # a float ninth reads as 1/9: the weight is 1/3 everywhere, no end cell keeps a walk
    (ww.FilterSpec.from_table([0.0, 1 / 9], [1 / 3, 1 / 3], scale_n=3), 3, 0.0),
], ids=["tenths", "over_cap", "ninth"])
def test_tables_off_every_small_grid_take_the_chain(spec, scale, h, policy):
    # as floats, these breakpoints lie on no N**-L grid with
    # N**L <= MAX_CHAIN_CELLS (2**-10 needs 2**10 cells), yet their Markov
    # partition has a few cells: h is exact, not the lattice sum
    assert 2**10 > MAX_CHAIN_CELLS
    system = ww.PathSystem(scale)
    masses = ww.harmonic_masses(spec, system, _far_points(400), policy)
    np.testing.assert_array_equal(masses.value, h)
    assert masses.converged.all() and not masses.tail_bound.any()
    assert ww.check_partition(spec, 10 if scale == 2 else 6).all_ok


def test_chain_harmonic_reads_cells_as_the_grid_function_does(system2, policy):
    # breakpoints on sixteenths: the Markov partition is the level-4 grid
    edges, cells = _chain_harmonic(TABLE16)
    np.testing.assert_array_equal(edges, cell_grid(2, 4))
    xs = np.concatenate([_far_points(400), [1 - 2.0**-53, -(2.0**-60), 15 / 16, 1 / 16]])
    grid = ww.GridFunction(4, 2, np.asarray(cells))
    np.testing.assert_array_equal(ww.harmonic_on_grid(TABLE16, system2, xs, policy), grid.values_at(xs))
    np.testing.assert_array_equal(ww.harmonic_gridfunction(TABLE16, system2, 4, policy).values, cells)


def test_chain_harmonic_at_scale_6_reads_its_own_grid_points(policy):
    # x -> 6x mod 1 maps eighths to eighths, so the cells are the eighths;
    # a table on eighths is a partition at N = 6 exactly when
    # v_i + v_(i+4) = 1/3, so no end cell has weight 1 and h is 0
    spec = ww.FilterSpec.from_table(np.arange(8) / 8, [0.25, 0.125, 0.0, 1 / 3, 1 / 12, 5 / 24, 1 / 3, 0.0],
                                    scale_n=6)
    system6 = ww.PathSystem(6)
    edges, cells = _chain_harmonic(spec)
    np.testing.assert_array_equal(edges, np.arange(8) / 8)
    # each 6**-3 grid point m/216 lies in the eighth floor(m/27)
    pts = cell_grid(6, 3)
    want = cells[np.arange(216) // 27]
    np.testing.assert_array_equal(ww.harmonic_on_grid(spec, system6, pts, policy), want)
    np.testing.assert_array_equal(ww.harmonic_gridfunction(spec, system6, 3, policy).values, want)
    assert ww.check_partition(spec, 6).all_ok


# ----------------------------------------------------------------------
# the closed rest of the products


def _closure_filters():
    """Low-pass coefficient filters: (spec, id)."""
    specs = [(ww.load_gallery(n), n) for n in ("haar", "d4", "stretched_haar")]
    specs.append((complex_quadrature_filter(7), "complex"))
    specs.append((ww.FilterSpec.from_coefficients({0: 1 / 3, 2: 1 / 3, 4: 1 / 3}, scale_n=3), "scale3"))
    specs += [(quadrature_family(t), f"qmf{t}") for t in (0.7, 2.0, 4.5)]
    return specs


@pytest.mark.parametrize("spec", [s for s, _ in _closure_filters()], ids=[i for _, i in _closure_filters()])
def test_atoms_match_the_exact_product(spec):
    mpmath = pytest.importorskip("mpmath")
    n = spec.scale_n
    system = ww.PathSystem(n)
    policy = ww.TruncationPolicy()
    terms = {2: 7, 3: 6}[n]  # the fewest series terms whose remainder bound is <= 2**-60
    rng = np.random.default_rng(29)
    ks = np.concatenate([[-2000, -1, 0, 1, 2000], rng.integers(-2000, 2001, 27)])
    xs = np.concatenate([0.3 + ks[:16], 0.71 + ks[16:]])
    with mpmath.workprec(200):
        taps = [(k, mpmath.mpc(v.real, v.imag)) for k, v in spec.coeffs]

        def response(y):
            return abs(sum(v * mpmath.expj(-2 * mpmath.pi * k * y) for k, v in taps)) ** 2

        # the weight of the exactly low-pass filter nearest the taps, W(0) = 1
        w0 = response(0)

        def weight(y):
            return response(y) / w0

        def product(y):
            """prod_{m>=1} W(y / N**m) and its smallest factor, to far below 2**-60."""
            p, low, y = mpmath.mpf(1), mpmath.inf, mpmath.mpf(y)
            while abs(y) >= mpmath.mpf(2) ** -80:
                y /= n
                f = weight(y)
                p, low = p * f, min(low, f)
            return p, low

        ell = mpmath.taylor(lambda z: mpmath.log(weight(z)), 0, terms)
        compared = 0
        for x in xs.tolist():
            atom = ww.zero_path_atom(spec, system, x, policy)
            assert atom.converged and 0 < atom.tail_bound <= 2.0**-60
            # the kernel's factors at its own arguments (x / N**m rounds for N = 3),
            # then the exact rest from the point where it closed
            exact, low, y = mpmath.mpf(1), mpmath.inf, x
            for _ in range(atom.depth_used):
                y = y / n
                f = weight(mpmath.mpf(y))
                exact, low = exact * f, min(low, f)
            rest, rest_low = product(y)
            exact *= rest
            if min(low, rest_low) >= 1e-3:
                assert abs(atom.value - exact) <= 1e-13 * exact, x
                compared += 1
            # what the closure leaves out: the series terms past the last one kept
            series = sum(ell[k] * mpmath.mpf(y) ** k / (n**k - 1) for k in range(1, terms + 1))
            assert abs(mpmath.log(rest) - series) <= atom.tail_bound, x
        assert compared >= 5


def test_fair_coin_table_atoms_are_exactly_zero(system2):
    fair = ww.FilterSpec.from_table([0.0], [0.5], label="fair")
    xs = np.linspace(-1.0, 1.0, 41)[:-1]
    atoms = ww.zero_path_atoms(fair, system2, xs)
    assert (atoms.value == 0.0).all() and atoms.converged.all()
    assert (atoms.depth_used == 1).all() and (atoms.tail_bound == 0.0).all()
    mass = ww.lattice_mass(fair, system2, 0.3, ww.TruncationPolicy(tail_cutoff_k=20_000))
    assert mass.value == 0.0 and mass.converged


def test_tables_close_at_their_end_cells(system2):
    # the first cell holds 1, so the rest is exactly 1 there; the last
    # cell holds 0.8, so every later factor is 0.8 and the atom is 0
    table = ww.FilterSpec.from_table([0.0, 0.25, 0.5, 0.75], [1.0, 0.6, 0.9, 0.8])
    policy = ww.TruncationPolicy()
    for x, value, depth in ((0.2, 1.0, 1), (-0.3, 0.0, 1), (5.1, 0.9 * 0.6 * 0.9 * 0.6, 5), (-5.1, 0.0, 5)):
        atom = ww.zero_path_atom(table, system2, x, policy)
        assert atom == ww.MeasureValue(value, True, 0.0, depth), x


def test_underflow_is_exactly_zero(system2, policy):
    # 1e-9**34 < ATOM_UNDERFLOW < 1e-9**33, long before y reaches the table's cell
    tiny = ww.FilterSpec.from_table([0.0], [1e-9])
    assert ww.zero_path_atom(tiny, system2, 2.0**45, policy) == ww.MeasureValue(0.0, True, 0.0, 34)


@pytest.mark.parametrize("spec", [s for s, _ in _closure_filters() if s.scale_n == 2],
                         ids=[i for s, i in _closure_filters() if s.scale_n == 2])
def test_scaling_hat_squared_is_the_atom_to_rounding(spec, system2, policy):
    # where every factor is >= 0.1, so that rounding near a zero of W
    # (about 1e-16 / W per factor) stays out of the comparison
    compared = 0
    for x in np.random.default_rng(31).uniform(-3.0, 3.0, 80).tolist():
        if weight_array(spec, x / 2.0 ** np.arange(1, 41)).min() < 0.1:
            continue
        hat = ww.scaling_hat(spec, system2, x)
        atom = ww.zero_path_atom(spec, system2, x, policy)
        assert hat.converged and atom.converged
        assert abs(abs(hat.value) ** 2 - atom.value) <= 1e-14 * atom.value, x
        compared += 1
    assert compared >= 10
