import cmath
import dataclasses
import inspect
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wavewalk as ww
from wavewalk.ifs import DigitWord
from wavewalk import measures
from wavewalk.measures import FiniteCoordFn, _chain_harmonic, _grow, _harmonic_coefficients, _table_order

from conftest import DIVERGENT, EDGE_STATES, SIXTHS, TABLE16, TENTHS, nextafter_branch, quadrature_family, sinc_sq


@st.composite
def dyadic_partition_filter(draw):
    """Tabulated weight that is an exact partition of unity by construction."""
    level = draw(st.integers(min_value=1, max_value=4))
    half = 2 ** (level - 1)
    vals = draw(
        st.lists(
            st.floats(min_value=0, max_value=1, allow_nan=False),
            min_size=half,
            max_size=half,
        )
    )
    bps = [m / 2**level for m in range(2**level)]
    return ww.FilterSpec.from_table(bps, vals + [1.0 - v for v in vals], label="rand")


@st.composite
def rational_partition_filter(draw):
    """A partition table at N = 2 or 3 with rational breakpoints.

    The cuts of [0, 1/N) have denominators 3 to 12; the table repeats
    them at each shift by j/N, with the N weights of a piece summing to 1
    (to rounding level), so an end weight is exactly 1 now and then.
    """
    n = draw(st.sampled_from([2, 3]))
    qs = draw(st.lists(st.integers(min_value=3, max_value=12), max_size=6))
    cuts = {Fraction(draw(st.integers(min_value=1, max_value=q - 1)), q) for q in qs}
    base = [Fraction(0)] + sorted(c for c in cuts if c < Fraction(1, n))
    shares = []
    for _ in base:
        rest, piece = 1.0, []
        for _ in range(n - 1):
            piece.append(draw(st.floats(min_value=0, max_value=1)) * rest)
            rest -= piece[-1]
        shares.append(piece + [rest])
    bps = [float(b + Fraction(j, n)) for j in range(n) for b in base]
    vals = [share[j] for j in range(n) for share in shares]
    return ww.FilterSpec.from_table(bps, vals, scale_n=n, label="rational")


# ----------------------------------------------------------------------
# cylinder masses


def test_cylinder_examples(haar, system2):
    assert ww.cylinder_prob(haar, system2, 0.0, DigitWord((0,))) == pytest.approx(1.0)
    assert ww.cylinder_prob(haar, system2, 0.0, DigitWord((1,))) < 1e-30
    # W(1/6) W(7/12) = cos^2(pi/6) sin^2(pi/12)
    expected = (math.cos(math.pi / 6) * math.sin(math.pi / 12)) ** 2
    got = ww.cylinder_prob(haar, system2, 1 / 3, DigitWord((0, 1)))
    assert got == pytest.approx(expected, abs=1e-14)
    assert got == pytest.approx(0.05024047358083555, abs=1e-12)


def test_cylinder_additivity(haar, d4, stretched, system2):
    for spec in (haar, d4, stretched):
        total = sum(
            ww.cylinder_prob(spec, system2, 0.37, DigitWord((a, b, c)))
            for a in (0, 1)
            for b in (0, 1)
            for c in (0, 1)
        )
        assert total == pytest.approx(1.0, abs=1e-12)


# ----------------------------------------------------------------------
# expectations of finite-coordinate functions


def test_expect_constant_is_total_mass(haar, d4, stretched, shannon, system2):
    one = FiniteCoordFn.constant(1.0, arity=4, n_branches=2)
    for spec in (haar, d4, stretched, shannon):
        val = ww.expect_finite(spec, system2, 0.71, one)
        assert val.real == pytest.approx(1.0, abs=1e-10)
        assert abs(val.imag) < 1e-15


def test_expect_indicator_is_cylinder(haar, system2):
    word = DigitWord((1, 0, 1))
    f = FiniteCoordFn.indicator(word, n_branches=2)
    assert ww.expect_finite(haar, system2, 0.29, f).real == pytest.approx(
        ww.cylinder_prob(haar, system2, 0.29, word), abs=1e-15
    )


def test_expect_first_digit_parity_at_zero(haar, system2):
    # at x = 0 all mass sits on the all-zero word
    f = FiniteCoordFn.from_callable(lambda w: w[0] % 2, arity=3, n_branches=2)
    assert abs(ww.expect_finite(haar, system2, 0.0, f)) < 1e-30


def test_expect_arity_budget(haar, system2):
    with pytest.raises(ww.ArityTooLarge):
        ww.expect_finite(haar, system2, 0.0, FiniteCoordFn.constant(1.0, 25, 2))


def whole_array_terms(spec, system, x, f):
    """The terms weight(w) * f(w) of the tree sum, as one flat array.

    The breadth-first word tree: every level built whole, the words
    growing as index * N + digit; the reference for the streamed sum of
    expect_finite.
    """
    n = system.scale_n
    weights = np.ones(1)
    y = np.array([ww.frac(x)])
    for _ in range(f.arity):
        y = system.branch_array(np.arange(n), y[:, None])
        weights = (weights[:, None] * ww.weight_array(spec, y)).ravel()
        y = y.ravel()
    return weights * f.table


TABLE_PARTITION = ww.FilterSpec.from_table([0.0, 0.25, 0.5, 0.75], [1.0, 0.3, 0.0, 0.7], label="partition")


@pytest.mark.parametrize("name", ["d4", "stretched_haar", "shannon", "partition"])
@pytest.mark.parametrize("arity", [1, 13, 14, 15, 16, 20])
def test_tree_sum_is_the_whole_array_sum_bit_for_bit(name, arity, system2):
    # arity 14 is the last one whose tree is one ATOM_TILE of words
    spec = TABLE_PARTITION if name == "partition" else ww.load_gallery(name)
    rng = np.random.default_rng(arity)
    table = rng.standard_normal(2**arity) + 1j * rng.standard_normal(2**arity)
    f = FiniteCoordFn(arity, 2, table)
    for x in (0.0, 1 - 2**-52, float(rng.random())):
        want = complex(np.sum(whole_array_terms(spec, system2, x, f)))
        got = ww.expect_finite(spec, system2, x, f)
        assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex()), x


def state_major_grow(spec, system, weights, ys, levels):
    """The tree grown state-major: each level an (M, N) array, the new
    digit the fast axis, branched by the masked-nextafter rule; the
    reference for the digit-major _grow."""
    digits = np.arange(system.scale_n)
    for _ in range(levels):
        ys = nextafter_branch(system.scale_n, digits, ys[:, None])
        weights = (weights[:, None] * ww.weight_array(spec, ys)).ravel()
        ys = ys.ravel()
    return weights, ys


def grow_filters(n):
    """The box filter a_0 = ... = a_{N-1} = 1/N and a table on 2N cells, at scale n."""
    box = ww.FilterSpec.from_coefficients({k: 1 / n for k in range(n)}, scale_n=n)
    bps = [j / (2 * n) for j in range(2 * n)]
    return box, ww.FilterSpec.from_table(bps, [(j % 3 + 1) / 4 for j in range(2 * n)], scale_n=n)


@pytest.mark.parametrize("n", range(2, 6))
def test_grow_is_the_state_major_growth_bit_for_bit(n):
    system = ww.PathSystem(n)
    rng = np.random.default_rng(n)
    ys = np.array(EDGE_STATES)
    weights = rng.random(ys.size)
    for spec in grow_filters(n):
        for levels in range(7):
            got = (_table_order(a, n, levels) for a in _grow(spec, system, weights, ys, levels))
            want = state_major_grow(spec, system, weights, ys, levels)
            for g, w in zip(got, want):
                assert g.view(np.int64).tolist() == w.view(np.int64).tolist(), (spec.label, levels)


@pytest.mark.parametrize("n", [2, 3])
def test_table_order_is_the_transposed_copy(n):
    rng = np.random.default_rng(n)
    for levels in (0, 1, 2, 5, 8):
        for states in (1, 3, 7):
            a = rng.standard_normal(n**levels * states) + 1j * rng.standard_normal(n**levels * states)
            for b in (a, a.real.copy()):
                want = b.reshape((n,) * levels + (-1,)).T.ravel()
                assert _table_order(b, n, levels).tobytes() == want.tobytes(), (levels, states)


@pytest.mark.parametrize("n, arities", [(3, (1, 5, 8, 9, 10, 12)), (4, (1, 4, 7, 8, 10))])
def test_tree_sum_is_the_state_major_tree_sum(n, arities, monkeypatch):
    # the N = 3 box and an N = 4 filter: the streamed sum over blocks is
    # the same with either growth, to the last bit
    system = ww.PathSystem(n)
    for arity in arities:
        rng = np.random.default_rng(arity)
        f = FiniteCoordFn(arity, n, rng.standard_normal(n**arity) + 1j * rng.standard_normal(n**arity))
        for spec in grow_filters(n):
            for x in (0.0, 5e-324, 0.3, 1 - 2**-52):
                got = ww.expect_finite(spec, system, x, f)
                with monkeypatch.context() as m:
                    m.setattr(measures, "_grow", state_major_grow)
                    m.setattr(measures, "_table_order", lambda a, n, levels: a)
                    want = ww.expect_finite(spec, system, x, f)
                assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex()), (arity, x)


@pytest.mark.parametrize("arity", range(1, 13))
def test_tree_sum_for_n3_is_the_whole_array_sum_reordered(arity):
    # the blocks of a base-3 tree do not fall on numpy's pairwise splits
    system = ww.PathSystem(3)
    rng = np.random.default_rng(arity)
    table = rng.standard_normal(3**arity) + 1j * rng.standard_normal(3**arity)
    f = FiniteCoordFn(arity, 3, table)
    for spec in (
        ww.FilterSpec.from_coefficients({0: 1 / 3, 1: 1 / 3, 2: 1 / 3}, scale_n=3),
        ww.FilterSpec.from_coefficients({0: 0.3, 1: 0.5, 2: 0.2}, scale_n=3),
    ):
        for x in (0.0, 1 - 2**-52, float(rng.random())):
            terms = whole_array_terms(spec, system, x, f)
            got = ww.expect_finite(spec, system, x, f)
            assert abs(got - np.sum(terms)) <= 4 * np.finfo(float).eps * np.sum(np.abs(terms))


def test_tree_sum_never_holds_the_whole_tree(d4, system2):
    f = FiniteCoordFn.constant(1.0, 20, 2)
    tracemalloc.start()
    try:
        ww.expect_finite(d4, system2, 0.3, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 2**20 words' weights alone would take 8 MiB, their products 16
    assert peak < 4 * 2**20


# ----------------------------------------------------------------------
# atoms


def test_atom_haar_values(haar, system2, policy):
    assert ww.zero_path_atom(haar, system2, 0.0, policy).value == 1.0
    half = ww.zero_path_atom(haar, system2, 0.5, policy)
    assert half.converged
    assert half.value == pytest.approx((2 / math.pi) ** 2, abs=1e-9)


def test_atom_matches_sinc_oracle(haar, system2, policy):
    for x in (-2.3, -0.6, 0.12, 1 / 3, 0.9, 2.7):
        got = ww.zero_path_atom(haar, system2, x, policy)
        assert got.converged
        assert got.value == pytest.approx(sinc_sq(x), abs=1e-10)


def test_atom_highpass_vanishes(highpass, system2, policy):
    for x in (0.1, 0.37, 0.9):
        mv = ww.zero_path_atom(highpass, system2, x, policy)
        assert mv.value == 0.0
        assert mv.converged


def test_highpass_atoms_and_rows_are_exactly_zero(highpass, system2, policy):
    # W(0) = 0: the factors tend to 0, so every product is exactly 0 from
    # its first step on, however far out x lies
    kk = policy.tail_cutoff_k
    xs = np.random.default_rng(37).random(5)
    window = (xs[:, None] + np.arange(-kk, kk + 1)).ravel()
    atoms = ww.zero_path_atoms(highpass, system2, window)
    assert (atoms.value == 0.0).all() and atoms.converged.all()
    assert (atoms.tail_bound == 0.0).all() and (atoms.depth_used == 1).all()
    for stride in (1, 2, 4):
        rows = ww.lattice_masses(highpass, system2, xs, policy, stride=stride)
        assert (rows.value == 0.0).all() and rows.converged.all()
        assert (rows.tail_bound == 0.0).all() and (rows.depth_used == 1).all()
    assert ww.lattice_mass(highpass, system2, 0.3, policy) == ww.MeasureValue(0.0, True, 0.0, 1)


def test_products_with_no_limit_are_unconverged(system2, policy):
    # W(0) = 1.44: no limit, so NaN at the first step, with no tail bound
    xs = np.array([0.3, -1999.7, 2000.3, 0.5, 12.25])
    atoms = ww.zero_path_atoms(DIVERGENT, system2, xs)
    assert np.isnan(atoms.value).all() and not atoms.converged.any()
    assert np.isnan(atoms.tail_bound).all() and (atoms.depth_used == 1).all()
    assert ww.zero_path_atom(DIVERGENT, system2, 0.3, policy).tail_bound is None
    rows = ww.lattice_masses(DIVERGENT, system2, xs, policy)
    assert np.isnan(rows.value).all() and not rows.converged.any() and np.isnan(rows.tail_bound).all()
    mass = ww.lattice_mass(DIVERGENT, system2, 0.3, policy)
    assert not mass.converged and mass.tail_bound is None
    assert not ww.integer_atom(DIVERGENT, system2, 0.3, -5).converged
    rep = ww.diagnose_convergence(DIVERGENT, system2, 0.3, 16, policy)
    assert rep.hypothesis == rep.product_verdict == "inconclusive" and rep.consistent
    # a first factor of exactly 0 makes the product 0 whatever follows
    assert ww.zero_path_atom(DIVERGENT, system2, 1.0, policy) == ww.MeasureValue(0.0, True, 0.0, 1)


def test_scaling_hat_without_a_limit_while_its_atom_converges(haar, system2, policy):
    # m = i (1 + e(-x)) / 2: m(0) = i turns the product a quarter turn a
    # step, so it has no limit; W = |m|**2 is Haar's weight
    spec = ww.FilterSpec.from_coefficients({0: 0.5j, 1: 0.5j})
    for x in (0.0, 0.3, -7.6):
        hat = ww.scaling_hat(spec, system2, x)
        assert cmath.isnan(hat.value) and not hat.converged and hat.depth_used == 1
        assert hat.tail_bound is None
        atom = ww.zero_path_atom(spec, system2, x, policy)
        assert atom.converged and atom == ww.zero_path_atom(haar, system2, x, policy)
    # m(0) = 0 for the high-pass response: exactly 0 at the first step
    hat = ww.scaling_hat(ww.load_gallery("highpass_haar"), system2, 0.3)
    assert (hat.value, hat.converged, hat.tail_bound, hat.depth_used) == (0.0, True, 0.0, 1)


#: a table with 1 on its first cell: the rest is 1 there, and 0 on its last
END_TABLE = ww.FilterSpec.from_table([0.0, 0.25, 0.5, 0.75], [1.0, 0.6, 0.9, 0.8], label="end table")


@pytest.mark.parametrize("name", ["d4", "end table", "highpass_haar", "divergent"])
def test_products_stop_at_extreme_arguments(name, system2):
    spec = {"end table": END_TABLE, "divergent": DIVERGENT}.get(name) or ww.load_gallery(name)
    xs = np.array([1e300, -1e300, 5e-324, -5e-324])
    atoms = ww.zero_path_atoms(spec, system2, xs)
    if name == "divergent":
        assert not atoms.converged.any() and (atoms.depth_used == 1).all()
        return
    assert atoms.converged.all()
    if name == "highpass_haar":
        assert (atoms.value == 0.0).all() and (atoms.depth_used == 1).all()
        return
    # x / 2 rounds to 0, inside the closure: W(0), to rounding 1, times a rest of 1
    assert (atoms.value[2:] == ww.weight_array(spec, np.zeros(2))).all() and (atoms.depth_used[2:] == 1).all()
    # at 1e300, y = x / 2**m reaches 1 only at m = 997: no step count short of that settles these
    assert (atoms.depth_used[:2] >= 900).all() and (atoms.depth_used[:2] <= 1100).all()
    hat = ww.scaling_hat(spec, system2, 1e300) if spec.kind == "coefficients" else None
    assert hat is None or (hat.converged and hat.depth_used <= 1100)


def test_atom_stall_not_fooled_by_lattice(haar, stretched, system2, policy):
    # periodic maxima of W at large arguments must not fake convergence
    assert ww.zero_path_atom(haar, system2, 1024.0, policy).value == 0.0
    got = ww.zero_path_atom(stretched, system2, 256 + 1 / 3, policy)
    assert got.value == pytest.approx(sinc_sq(3 * (256 + 1 / 3)), abs=1e-10)


def test_integer_atom_examples(haar, system2):
    assert ww.integer_atom(haar, system2, 0.0, 0).value == 1.0
    got = ww.integer_atom(haar, system2, 0.5, 1)
    assert got.value == pytest.approx(4 / (9 * math.pi**2), abs=1e-9)
    assert got.route_gap < 1e-12
    neg = ww.integer_atom(haar, system2, 1 / 3, -1)
    assert neg.value == pytest.approx(sinc_sq(2 / 3), abs=1e-9)
    assert neg.route_gap < 1e-12


def test_integer_atom_bridge_sample(haar, d4, system2, policy):
    rng = np.random.Generator(np.random.Philox(key=np.uint64(7)))
    for spec in (haar, d4):
        for _ in range(10):
            x = float(rng.random())
            k = int(rng.integers(-20, 21))
            route = ww.integer_atom(spec, system2, x, k)
            direct = ww.zero_path_atom(spec, system2, x + k, policy)
            assert abs(route.value - direct.value) <= 1e-9


def test_negative_embedding_report(haar, highpass, system2):
    rep = ww.check_negative_embedding(haar, system2, 0.3, -1, (0, 1, 2))
    assert rep.reference == pytest.approx(sinc_sq(0.7), abs=1e-10)
    assert rep.max_vs_reference <= 1e-9
    assert rep.max_pairwise <= 1e-9
    # the naive fixed-length reading is not length-independent
    assert max(abs(v - rep.reference) for v in rep.literal_values) > 1e-2
    hp = ww.check_negative_embedding(highpass, system2, 0.3, -2, (1, 2))
    assert all(v == 0.0 for v in hp.values)
    with pytest.raises(ValueError):
        ww.check_negative_embedding(haar, system2, 0.3, -3, (0,))


# ----------------------------------------------------------------------
# lattice masses


def test_lattice_mass_haar_against_direct_sum(haar, system2):
    policy = ww.TruncationPolicy(tail_cutoff_k=1000)
    got = ww.lattice_mass(haar, system2, 1 / 3, policy)
    oracle = sum(sinc_sq(1 / 3 + k) for k in range(-1000, 1001))
    assert got.value == pytest.approx(oracle, abs=1e-9)
    assert got.value == pytest.approx(1.0, abs=2e-4)
    assert got.converged
    assert got.tail_bound is not None and got.tail_bound < 1e-2


def test_lattice_mass_stretched_closed_form(stretched, system2, policy):
    h = lambda x: 1 / 3 + 4 / 9 * math.cos(2 * math.pi * x) + 2 / 9 * math.cos(4 * math.pi * x)
    for x in np.arange(0.0, 1.0, 1 / 16):
        got = ww.lattice_mass(stretched, system2, float(x), policy)
        assert got.value == pytest.approx(h(x), abs=3e-5)


def test_lattice_mass_highpass_zero(highpass, system2, policy):
    assert ww.lattice_mass(highpass, system2, 0.3, policy).value < 1e-200


def test_harmonic_on_grid_matches_pointwise(haar, system2, policy):
    xs = np.array([0.1, 0.5, 0.9])
    lattice = ww.lattice_masses(haar, system2, xs, policy).value
    for x, v in zip(xs, lattice):
        assert v == pytest.approx(
            ww.lattice_mass(haar, system2, float(x), policy).value, abs=1e-12
        )
    # the exact route: h = 1 for an orthonormal filter
    np.testing.assert_allclose(ww.harmonic_on_grid(haar, system2, xs, policy), 1.0, rtol=0, atol=1e-13)


def test_scaled_lattice_mass(haar, system2, policy):
    base = ww.lattice_mass(haar, system2, 0.4, policy)
    k0 = ww.scaled_lattice_mass(haar, system2, 0.4, 0, policy)
    assert k0.value == base.value
    k1 = ww.scaled_lattice_mass(haar, system2, 0.5, 1, policy)
    assert k1.value == pytest.approx(0.5, abs=2e-4)
    assert k1.route_gap < 1e-10
    with pytest.raises(ValueError):
        ww.scaled_lattice_mass(haar, system2, 0.4, -1, policy)


def test_scaled_lattice_mass_monotone_limit(haar, system2, policy):
    # masses of the nested sublattices decrease to the atom
    for x in (1 / 3, 1 / 5, 0.77):
        vals = [
            ww.scaled_lattice_mass(haar, system2, x, k, policy).value
            for k in range(26)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
        assert vals[25] == pytest.approx(sinc_sq(x), abs=1e-6)


# ----------------------------------------------------------------------
# consistency and refinement


def test_consistency_haar(haar, system2):
    rng = np.random.Generator(np.random.Philox(key=np.uint64(3)))
    f = FiniteCoordFn(3, 2, rng.random(8) + 0j)
    assert ww.consistency_check(haar, system2, 0.37, f) < 1e-12
    const = FiniteCoordFn.constant(2.5, 3, 2)
    assert ww.consistency_check(haar, system2, 0.37, const) < 1e-12


def test_consistency_detects_partition_violation(system2):
    w04 = ww.FilterSpec.from_table([0.0], [0.4], label="w04")
    one = FiniteCoordFn.constant(1.0, 3, 2)
    # each extra level multiplies the mass by 0.8
    got = ww.consistency_check(w04, system2, 0.2, one)
    assert got == pytest.approx(0.8**3 * 0.2, abs=1e-12)


def test_refinement_haar(haar, system2):
    one = FiniteCoordFn.constant(1.0, 1, 2)
    assert ww.refinement_check(haar, system2, 0.3, one) < 1e-14
    ind = FiniteCoordFn.indicator(DigitWord((0, 0)), 2)
    assert ww.refinement_check(haar, system2, 0.2, ind) < 1e-14


def test_refinement_stretched_random(stretched, system2):
    rng = np.random.Generator(np.random.Philox(key=np.uint64(5)))
    f = FiniteCoordFn(4, 2, rng.random(16) + 0j)
    assert ww.refinement_check(stretched, system2, 0.61, f) < 1e-12


def test_refinement_requires_arity(haar, system2):
    with pytest.raises(ValueError):
        ww.refinement_check(haar, system2, 0.3, FiniteCoordFn.constant(1.0, 0, 2))


@given(spec=dyadic_partition_filter(), x=st.floats(min_value=0, max_value=1, exclude_max=True))
@example(spec=ww.FilterSpec.from_table([0.0, 0.5], [0.0, 1.0]), x=1 - 2**-53)
@example(spec=ww.FilterSpec.from_table([0.0, 0.25, 0.5, 0.75], [0.3, 0.0, 0.7, 1.0]), x=1 - 2**-52)
@example(spec=ww.FilterSpec.from_table([m / 8 for m in range(8)], [0, 0, 1, 1, 1, 1, 0, 0]), x=1 - 2**-52)
@settings(max_examples=40, deadline=None)
def test_total_mass_random_partition_filters(spec, x):
    system2 = ww.PathSystem(2)
    one = FiniteCoordFn.constant(1.0, 5, 2)
    assert ww.expect_finite(spec, system2, x, one).real == pytest.approx(1.0, abs=1e-10)


@given(spec=dyadic_partition_filter())
@example(spec=ww.FilterSpec.from_table([0.0, 0.25, 0.5, 0.75], [0.3, 0.0, 0.7, 1.0]))
@settings(max_examples=60, deadline=None)
def test_chain_harmonic_of_random_partition_tables(spec):
    # h is exact on these tables: a probability, 1 on an end cell whose
    # digit repeats with weight 1, and a fixed point of the transfer operator
    system, policy = ww.PathSystem(2), ww.TruncationPolicy(tail_cutoff_k=50)
    level = len(spec.breakpoints).bit_length() - 1
    xs = (np.arange(2**level) + 0.5) / 2**level
    h = ww.harmonic_on_grid(spec, system, xs, policy)
    chain = _chain_harmonic(spec)
    if chain is None:
        # declined: weights so small that the walk takes more steps to
        # leave the inner cells than DEFAULT_TOL allows the solve
        np.testing.assert_array_equal(h, ww.lattice_masses(spec, system, xs, policy).value)
        return
    # every breakpoint m / 2**L goes to 0 along the level-L grid, so those are the cells
    np.testing.assert_array_equal(chain[0], np.arange(2**level) / 2**level)
    assert h.min() >= 0.0 and h.max() <= 1.0 + 1e-12
    if spec.values[0] == 1.0:
        assert h[0] == 1.0
    if spec.values[-1] == 1.0:
        assert h[-1] == 1.0
    grid = ww.harmonic_gridfunction(spec, system, level + 1, policy)
    assert ww.harmonic_residual(spec, system, grid, eval_level=level) <= 1e-12


@given(spec=dyadic_partition_filter(), finer=st.integers(min_value=0, max_value=3))
@example(spec=TABLE16, finer=0)
@example(spec=TABLE16, finer=2)
@settings(max_examples=40, deadline=None)
def test_chain_harmonic_coefficients_of_random_partition_tables(spec, finer):
    # h is a step function on the level-L cells (the Markov partition of
    # these tables), so on the cells of every level l >= L: each cell
    # integrates exactly to its midpoint value times sinc(k / 2**l), at
    # every lag k, those past 2**l included
    system, policy = ww.PathSystem(2), ww.TruncationPolicy(tail_cutoff_k=50)
    chain = _chain_harmonic(spec)
    if chain is None:
        return
    ks = np.arange(-40, 41)
    exact = _harmonic_coefficients(spec, system, ks, policy, 0)
    cells = chain[0].size * 2**finer
    mids = (np.arange(cells) + 0.5) / cells
    h = ww.harmonic_on_grid(spec, system, mids, policy)
    quadrature = np.array([np.mean(h * np.exp(2j * np.pi * k * mids)) for k in ks]) * np.sinc(ks / cells)
    assert np.max(np.abs(exact - quadrature)) <= 1e-13


@given(spec=rational_partition_filter())
@example(spec=TENTHS)
@example(spec=SIXTHS)
# declined: the top cell keeps a walk with weight 1 - 1e-12, too long for DEFAULT_TOL
@example(spec=ww.FilterSpec.from_table([0.0, 0.25, 0.5, 0.75], [1.0, 1e-12, 0.0, 1 - 1e-12]))
@settings(max_examples=60, deadline=None)
def test_chain_harmonic_of_random_rational_tables(spec):
    # the chain on the Markov partition: h is a probability, 1 on an end
    # cell whose digit repeats with weight 1, and a fixed point of the
    # transfer operator; where the chain declines, the lattice sum
    system, policy = ww.PathSystem(spec.scale_n), ww.TruncationPolicy(tail_cutoff_k=50)
    xs = np.random.default_rng(17).random(8)

    def read(y):
        return ww.harmonic_on_grid(spec, system, [y], policy)[0]

    h = ww.harmonic_on_grid(spec, system, xs, policy)
    if _chain_harmonic(spec) is None:
        np.testing.assert_array_equal(h, ww.lattice_masses(spec, system, xs, policy).value)
        return
    assert h.min() >= 0.0 and h.max() <= 1.0 + 1e-12
    if spec.values[0] == 1.0:
        assert read(0.0) == 1.0
    if spec.values[-1] == 1.0:
        assert read(1 - 2**-53) == 1.0
    for x in xs:
        assert abs(ww.apply_transfer(spec, system, read, x) - read(x)) <= 1e-12


def test_breakpoints_read_as_small_rationals():
    # 0.1 and 0.6 read as 1/10 and 3/5, whose orbits under doubling give 7
    # cells.  Read as the floats themselves, this table is no partition:
    # on [0.19999999999999996, 0.2) the branch points x/2 lie below the
    # float 0.1 and (x + 1)/2 at or above the float 0.6, weights 1 and 0.7
    edges, h = _chain_harmonic(TENTHS)
    np.testing.assert_array_equal(edges, [0.0, 0.1, 0.2, 0.4, 0.5, 0.6, 0.8])
    np.testing.assert_array_equal(h, 1.0)
    x = Fraction(0.19999999999999998)
    assert Fraction(0.19999999999999996) <= x < Fraction(0.2)
    assert x / 2 < Fraction(0.1) and (x + 1) / 2 >= Fraction(0.6)
    # a float third reads as 1/3, whose orbit is {1/3, 2/3}; 2**-10 is a
    # rational of denominator past MAX_CHAIN_CELLS and reads as itself
    third = ww.FilterSpec.from_table([0.0, 1 / 3], [0.5, 0.5])
    np.testing.assert_array_equal(_chain_harmonic(third)[0], [0.0, 1 / 3, 2 / 3])
    tiny = ww.FilterSpec.from_table([0.0, 2.0**-10], [0.5, 0.5])
    np.testing.assert_array_equal(_chain_harmonic(tiny)[0], [0.0] + [2.0**-k for k in range(10, 0, -1)])


@given(theta=st.floats(min_value=0.05, max_value=6.2), x=st.floats(min_value=0, max_value=1, exclude_max=True))
@example(theta=math.pi / 3, x=1 - 2**-53)
@settings(max_examples=25, deadline=None)
def test_consistency_quadrature_family(theta, x):
    spec = quadrature_family(theta)
    system2 = ww.PathSystem(2)
    f = FiniteCoordFn.from_callable(lambda w: 1.0 + w[0] - 0.5 * w[1], 3, 2)
    assert ww.consistency_check(spec, system2, x, f) < 1e-10
    assert ww.refinement_check(spec, system2, x, f) < 1e-10


def test_policy_validation():
    with pytest.raises(ValueError):
        ww.TruncationPolicy(tail_cutoff_k=0)
    # the lattice cutoff is the one setting: products have no depth cap
    assert [f.name for f in dataclasses.fields(ww.TruncationPolicy)] == ["tail_cutoff_k"]


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_non_finite_points_raise(d4, shannon, system2, policy, x):
    # d4 takes the exact harmonic route, shannon the lattice sum
    for spec in (d4, shannon):
        with pytest.raises(ww.NonFiniteArgument):
            ww.zero_path_atom(spec, system2, x, policy)
        with pytest.raises(ww.NonFiniteArgument):
            ww.zero_path_atoms(spec, system2, np.array([0.3, x]))
        with pytest.raises(ww.NonFiniteArgument):
            ww.lattice_mass(spec, system2, x, policy)
        with pytest.raises(ww.NonFiniteArgument):
            ww.lattice_masses(spec, system2, np.array([x, 0.3]), policy)
        with pytest.raises(ww.NonFiniteArgument):
            ww.harmonic_on_grid(spec, system2, np.array([0.3, x]), policy)
    with pytest.raises(ww.NonFiniteArgument):
        ww.scaling_hat(d4, system2, x)


#: every public function taking (spec, system, ...): its call on a filter
#: and a path system of different scales
_POLICY = ww.TruncationPolicy(tail_cutoff_k=20)
_ONES = FiniteCoordFn.constant(1.0, 2, 2)
SCALE_MISMATCH_CALLS = {
    "apply_transfer": lambda spec, s: ww.apply_transfer(spec, s, lambda y: 1.0, 0.3),
    "apply_transfer_n": lambda spec, s: ww.apply_transfer_n(spec, s, lambda y: 1.0, 0.3, 2),
    "autocorrelation": lambda spec, s: ww.autocorrelation(spec, s, [0, 1], _POLICY, 3),
    "cascade": lambda spec, s: ww.cascade(spec, s, 2, 3),
    "cascade_step": lambda spec, s: ww.cascade_step(spec, s, ww.cascade(spec, ww.PathSystem(3), 0, 2)),
    "check_negative_embedding": lambda spec, s: ww.check_negative_embedding(spec, s, 0.3, -1, [1]),
    "cocycle_residual": lambda spec, s: ww.cocycle_residual(spec, s, 0.3, _POLICY),
    "consistency_check": lambda spec, s: ww.consistency_check(spec, s, 0.3, _ONES),
    "cylinder_prob": lambda spec, s: ww.cylinder_prob(spec, s, 0.3, DigitWord((0, 1))),
    "diagnose_convergence": lambda spec, s: ww.diagnose_convergence(spec, s, 0.3, 8, _POLICY),
    "estimate_cylinder": lambda spec, s: ww.estimate_cylinder(spec, s, 0.3, DigitWord((0,)), 100, 0),
    "expect_finite": lambda spec, s: ww.expect_finite(spec, s, 0.3, _ONES),
    "harmonic_from_cocycle": lambda spec, s: ww.harmonic_from_cocycle(spec, s, lambda y: _ONES, 0.3),
    "harmonic_gridfunction": lambda spec, s: ww.harmonic_gridfunction(spec, s, 3, _POLICY),
    "harmonic_masses": lambda spec, s: ww.harmonic_masses(spec, s, [0.3], _POLICY),
    "harmonic_on_grid": lambda spec, s: ww.harmonic_on_grid(spec, s, [0.3], _POLICY),
    # h on the path system's own grid: only the filter's scale is off
    "harmonic_residual": lambda spec, s: ww.harmonic_residual(spec, s, ww.GridFunction(3, 2, np.ones(8))),
    "integer_atom": lambda spec, s: ww.integer_atom(spec, s, 0.3, 5),
    "lattice_mass": lambda spec, s: ww.lattice_mass(spec, s, 0.3, _POLICY),
    "lattice_masses": lambda spec, s: ww.lattice_masses(spec, s, [0.3], _POLICY),
    "power_iterate": lambda spec, s: ww.power_iterate(spec, s, 3, 2),
    "refinement_check": lambda spec, s: ww.refinement_check(spec, s, 0.3, _ONES),
    "ruelle_measure": lambda spec, s: ww.ruelle_measure(spec, s, 3, 2),
    "sample_path": lambda spec, s: ww.sample_path(spec, s, 0.3, 4, 0),
    "scaled_lattice_mass": lambda spec, s: ww.scaled_lattice_mass(spec, s, 0.3, 1, _POLICY),
    "scaling_hat": lambda spec, s: ww.scaling_hat(spec, s, 0.3),
    "scaling_norm_sq": lambda spec, s: ww.scaling_norm_sq(spec, s, _POLICY, 3),
    "zero_path_atom": lambda spec, s: ww.zero_path_atom(spec, s, 0.3, _POLICY),
    "zero_path_atoms": lambda spec, s: ww.zero_path_atoms(spec, s, [0.3]),
}


@pytest.mark.parametrize("name", sorted(SCALE_MISMATCH_CALLS))
def test_scale_mismatch_guard(name):
    # the scale-3 box walked with the dyadic branches returns numbers, all wrong
    box3 = ww.FilterSpec.from_coefficients({0: 1 / 3, 1: 1 / 3, 2: 1 / 3}, scale_n=3)
    with pytest.raises(ValueError, match="filter scale 3 != path-system scale 2"):
        SCALE_MISMATCH_CALLS[name](box3, ww.PathSystem(2))


def test_scale_mismatch_guard_covers_every_spec_system_function():
    takes_both = {
        name for name in ww.__all__
        if inspect.isfunction(getattr(ww, name))
        and list(inspect.signature(getattr(ww, name)).parameters)[:2] == ["spec", "system"]
    }
    assert takes_both == set(SCALE_MISMATCH_CALLS)


#: calls of this module that refuse their input: (call, exception, message)
REFUSED = {
    "table-wrong-length": (lambda: FiniteCoordFn(2, 2, np.zeros(3)), ValueError, "table must have length 4"),
    "slice-arity-0": (lambda: FiniteCoordFn.constant(1.0, 0, 2).slice_first(0), ValueError,
                      "cannot slice an arity-0 function"),
    "expect-branch-count": (lambda: ww.expect_finite(ww.load_gallery("haar"), ww.PathSystem(2), 0.3,
                                                     FiniteCoordFn.constant(1.0, 2, 3)),
                            ValueError, "function branch count does not match the system"),
    "embedding-k-0": (lambda: ww.check_negative_embedding(ww.load_gallery("haar"), ww.PathSystem(2), 0.3, 0, [1]),
                      ValueError, "embedding check is for negative k"),
}


@pytest.mark.parametrize("case", list(REFUSED))
def test_refused_input(case):
    call, exc, message = REFUSED[case]
    with pytest.raises(exc, match=re.escape(message)):
        call()
