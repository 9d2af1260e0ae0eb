import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wavewalk as ww
from wavewalk.ifs import DigitWord
from wavewalk.measures import FiniteCoordFn

from conftest import quadrature_family, sinc_sq


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


def test_atom_stall_not_fooled_by_lattice(haar, stretched, system2, policy):
    # periodic maxima of W at large arguments must not fake convergence
    assert ww.zero_path_atom(haar, system2, 1024.0, policy).value == 0.0
    got = ww.zero_path_atom(stretched, system2, 256 + 1 / 3, policy)
    assert got.value == pytest.approx(sinc_sq(3 * (256 + 1 / 3)), abs=1e-10)


def test_integer_atom_examples(haar, system2, policy):
    assert ww.integer_atom(haar, system2, 0.0, 0, policy).value == 1.0
    got = ww.integer_atom(haar, system2, 0.5, 1, policy)
    assert got.value == pytest.approx(4 / (9 * math.pi**2), abs=1e-9)
    assert got.route_gap < 1e-12
    neg = ww.integer_atom(haar, system2, 1 / 3, -1, policy)
    assert neg.value == pytest.approx(sinc_sq(2 / 3), abs=1e-9)
    assert neg.route_gap < 1e-12


def test_integer_atom_bridge_sample(haar, d4, system2, policy):
    rng = np.random.Generator(np.random.Philox(key=np.uint64(7)))
    for spec in (haar, d4):
        for _ in range(10):
            x = float(rng.random())
            k = int(rng.integers(-20, 21))
            route = ww.integer_atom(spec, system2, x, k, policy)
            direct = ww.zero_path_atom(spec, system2, x + k, policy)
            assert abs(route.value - direct.value) <= 1e-9


def test_negative_embedding_report(haar, highpass, system2, policy):
    rep = ww.check_negative_embedding(haar, system2, 0.3, -1, (0, 1, 2), policy)
    assert rep.reference == pytest.approx(sinc_sq(0.7), abs=1e-10)
    assert rep.max_vs_reference <= 1e-9
    assert rep.max_pairwise <= 1e-9
    # the naive fixed-length reading is not length-independent
    assert max(abs(v - rep.reference) for v in rep.literal_values) > 1e-2
    hp = ww.check_negative_embedding(highpass, system2, 0.3, -2, (1, 2), policy)
    assert all(v == 0.0 for v in hp.values)
    with pytest.raises(ValueError):
        ww.check_negative_embedding(haar, system2, 0.3, -3, (0,), policy)


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
        ww.TruncationPolicy(product_depth=0)
    with pytest.raises(ValueError):
        ww.TruncationPolicy(tail_cutoff_k=0)
    with pytest.raises(ValueError):
        ww.TruncationPolicy(convergence_tol=0.0)


def test_scale_mismatch_guard(haar):
    with pytest.raises(ValueError):
        ww.zero_path_atom(haar, ww.PathSystem(3), 0.3, ww.TruncationPolicy())
