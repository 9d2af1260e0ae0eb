import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wavewalk as ww
from wavewalk.ifs import DigitWord, PathSystem, cell_grid, frac

from conftest import EDGE_STATES, nextafter_branch


def test_frac_edges():
    assert frac(0.3) == pytest.approx(0.3)
    assert frac(-0.3) == pytest.approx(0.7)
    assert frac(1.0) == 0.0
    assert frac(-1e-20) == 0.0


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_frac_rejects_non_finite(x):
    # nan % 1.0 is nan, and inf % 1.0 too: neither may pass for 0
    with pytest.raises(ww.NonFiniteArgument):
        frac(x)
    with pytest.raises(ww.NonFiniteArgument):
        PathSystem(2).shift(x)


def test_cell_grid_checks_its_level():
    assert cell_grid(3, 2, 0.5).tolist() == [(m + 0.5) / 9 for m in range(9)]
    assert cell_grid(2, 0).tolist() == [0.0]
    with pytest.raises(ValueError, match="grid level must be >= 0"):
        cell_grid(2, -1)
    # past numpy's size limit; GridTooLarge is a WavewalkError
    with pytest.raises(ww.WavewalkError, match="grid level 70: 2\\*\\*70 cells"):
        cell_grid(2, 70)


def test_negative_counts_raise_at_the_api(d4):
    s2 = PathSystem(2)
    with pytest.raises(ValueError, match="iters"):
        ww.cascade(d4, s2, iters=-1, level=4)
    with pytest.raises(ValueError, match="grid level"):
        ww.cascade(d4, s2, iters=2, level=-1)
    with pytest.raises(ww.GridTooLarge, match="grid level 70"):
        ww.cascade(d4, s2, iters=2, level=70)
    with pytest.raises(ValueError, match="path length"):
        ww.sample_path(d4, s2, 0.3, -1, seed=0)
    with pytest.raises(ValueError, match="levels"):
        ww.wavelet_coeffs(d4, np.ones(8), -1)
    with pytest.raises(ValueError, match="grid level"):
        ww.scaling_norm_sq(d4, s2, ww.TruncationPolicy(), level=-1)
    with pytest.raises(ValueError, match="grid level"):
        ww.harmonic_gridfunction(d4, s2, -1, ww.TruncationPolicy())


def test_shift_examples():
    s2, s3 = PathSystem(2), PathSystem(3)
    assert s2.shift(0.3) == pytest.approx(0.6)
    assert s2.shift(0.75) == pytest.approx(0.5)
    assert s3.shift(0.9) == pytest.approx(0.7, abs=1e-14)


def test_branch_examples():
    assert PathSystem(2).branch(1, 0.0) == 0.5
    assert PathSystem(2).branch(0, 0.5) == 0.25
    assert PathSystem(4).branch(3, 0.2) == pytest.approx(0.8)
    with pytest.raises(ww.DigitOutOfRange):
        PathSystem(2).branch(2, 0.1)
    with pytest.raises(ww.DigitOutOfRange):
        PathSystem(2).branch(-1, 0.1)


def test_branch_keeps_states_below_one():
    # (x + N - 1)/N rounds up onto 1.0 for x just below 1
    for n, x in ((2, 1 - 2**-53), (3, 1 - 2**-53), (2, 1 - 2**-52)):
        s = PathSystem(n)
        y = s.branch(n - 1, x)
        assert y < 1.0 and y == pytest.approx(1.0, abs=1e-15)
        ys = s.branch_array(np.arange(n), np.full(n, x))
        assert np.all(ys < 1.0)
        assert ys[-1] == y
        assert s.branch_array(np.arange(n), np.full(n, 0.3)).tolist() == [s.branch(j, 0.3) for j in range(n)]


@pytest.mark.parametrize("n", range(2, 8))
def test_branch_array_is_the_nextafter_rule_bit_for_bit(n):
    # the bit-pattern step toward zero against masked np.nextafter, for
    # every layout of the digits
    s = PathSystem(n)
    rng = np.random.default_rng(n)
    ys = np.concatenate([EDGE_STATES, rng.random(200), 1 - rng.random(50) * 2**-40, rng.random(50) * 1e-308])
    digits = np.arange(n)
    cases = [(j, ys) for j in range(n)] + [(digits, ys[:, None]), (digits[:, None], ys), (digits, ys[:n])]
    for d, y in cases:
        got, want = s.branch_array(d, y), nextafter_branch(n, d, y)
        assert got.shape == want.shape
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
    # float32 states are read as float64, and scalars (or a 0-d state)
    # give a 0-d result with the same bits as a one-state array
    y32 = ys.astype(np.float32)
    for d, y in ((n - 1, y32), (digits, y32[:, None]), (digits[:, None], y32)):
        got, want = s.branch_array(d, y), nextafter_branch(n, d, y.astype(np.float64))
        assert got.dtype == np.float64 and got.view(np.int64).tolist() == want.view(np.int64).tolist()
    for j in range(n):
        for y in EDGE_STATES:
            want = nextafter_branch(n, j, np.array([y]))
            for got in (s.branch_array(j, y), s.branch_array(np.int64(j), np.array(y))):
                assert got.shape == () and got.view(np.int64) == want.view(np.int64)[0]


def test_digits_of():
    s2, s3 = PathSystem(2), PathSystem(3)
    assert s2.digits_of(6).digits == (0, 1, 1)
    assert s2.digits_of(0).digits == ()
    assert s3.digits_of(5).digits == (2, 1)


def test_word_of_int_negative():
    s2 = PathSystem(2)
    assert s2.word_of_int(-1).digits == (1,)
    assert s2.word_of_int(-3).digits == (1, 0, 1)
    assert s2.word_of_int(4).digits == (0, 0, 1)


def test_word_of_int_negative_shape():
    # length n+1 with most significant digit N-1
    s3 = PathSystem(3)
    for k in range(-40, 0):
        w = s3.word_of_int(k)
        n = 0
        while 3**n < -k:
            n += 1
        assert len(w) == n + 1
        assert w.digits[-1] == 2


@given(k=st.integers(min_value=0, max_value=10**6), n=st.sampled_from([2, 3, 4]))
@settings(max_examples=200)
def test_digit_round_trip(k, n):
    sys_n = PathSystem(n)
    assert sys_n.word_to_int(sys_n.digits_of(k)) == k


def test_round_trip_exhaustive_small():
    for n in (2, 3, 4):
        sys_n = PathSystem(n)
        for k in range(2000):
            assert sys_n.word_to_int(sys_n.digits_of(k)) == k


@given(
    n=st.sampled_from([2, 3, 4]),
    j=st.integers(min_value=0, max_value=3),
    x=st.floats(min_value=0, max_value=1, exclude_max=True, allow_nan=False),
)
@settings(max_examples=200)
def test_shift_inverts_branch(n, j, x):
    sys_n = PathSystem(n)
    if j >= n:
        return
    d = abs(sys_n.shift(sys_n.branch(j, x)) - frac(x))
    assert min(d, 1.0 - d) < 1e-12


@given(
    n=st.sampled_from([2, 3]),
    digits=st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=10),
    x=st.floats(min_value=0, max_value=1, exclude_max=True, allow_nan=False),
)
@settings(max_examples=200)
def test_word_application_bridge(n, digits, x):
    # branch(i_n) o ... o branch(i_1) lands at (x + int(word)) / N**len
    sys_n = PathSystem(n)
    word = DigitWord(tuple(digits))
    direct = sys_n.apply_word(word, x)
    closed = (x + sys_n.word_to_int(word)) / n ** len(word)
    assert direct == pytest.approx(closed, abs=1e-15)


def test_apply_word_examples(system2):
    assert system2.apply_word(DigitWord((1,)), 0.0) == 0.5
    assert system2.apply_word(DigitWord((1, 1)), 0.0) == pytest.approx(0.75)
    assert system2.apply_word(DigitWord((0, 1)), 0.5) == pytest.approx(0.625)


def test_word_interval_examples(system2):
    assert system2.word_interval(DigitWord((1,))) == (0.5, 1.0)
    lo, hi = system2.word_interval(DigitWord((0, 1)))
    assert (lo, hi) == (pytest.approx(0.25), pytest.approx(0.5))
    lo, hi = PathSystem(3).word_interval(DigitWord((2, 0)))
    assert lo == pytest.approx(2 / 3)
    assert hi == pytest.approx(2 / 3 + 1 / 9)
    with pytest.raises(ww.EmptyWord):
        system2.word_interval(DigitWord(()))


def test_intervals_disjoint_unless_equal(system2):
    words = [DigitWord((a, b, c)) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    for w1 in words:
        for w2 in words:
            a = system2.word_interval(w1)
            b = system2.word_interval(w2)
            if w1 == w2:
                assert a == b
            else:
                assert a[1] <= b[0] or b[1] <= a[0]


@given(
    digits=st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=8),
    j=st.integers(min_value=0, max_value=1),
)
@settings(max_examples=100)
def test_interval_nesting(digits, j):
    system2 = PathSystem(2)
    w = DigitWord(tuple(digits))
    outer = system2.word_interval(w)
    inner = system2.word_interval(w.extended(j))
    assert outer[0] <= inner[0] and inner[1] <= outer[1] + 1e-15


def test_word_json_order(system2):
    # least significant digit first, matching the expansion order
    assert system2.digits_of(6).to_json() == [0, 1, 1]


def test_scale_validation():
    with pytest.raises(ValueError):
        PathSystem(1)


@given(
    n=st.sampled_from([2, 4]),
    digits=st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=12),
    x=st.floats(min_value=0, max_value=1, exclude_max=True, allow_nan=False),
)
@example(n=2, digits=[0, 1, 0], x=1 - 2**-52)
@example(n=2, digits=[1, 1, 1], x=1 - 2**-53)
@example(n=4, digits=[0, 0], x=2.225073858507203e-309)
@settings(max_examples=200)
def test_branch_states_stay_in_the_exact_cells(n, digits, x):
    # each state is the exact (x + int(word)) / N**len cut down to the
    # float grid, so every N-adic cell down to depth 52 is the exact one
    sys_n = PathSystem(n)
    word = DigitWord(tuple(d % n for d in digits))
    y = sys_n.apply_word(word, x)
    exact = (Fraction(x) + sys_n.word_to_int(word)) / n ** len(word)
    assert Fraction(y) <= exact
    assert math.floor(Fraction(y) * 2**52) == math.floor(exact * 2**52)
    ys = sys_n.branch_array(np.arange(n), np.full(n, y))
    assert ys.tolist() == [sys_n.branch(j, y) for j in range(n)]
