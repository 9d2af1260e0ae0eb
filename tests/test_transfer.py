import math
import re

import numpy as np
import pytest

import wavewalk as ww
from wavewalk.ifs import cell_grid, frac
from wavewalk.measures import FiniteCoordFn
from wavewalk.transfer import GridFunction


def test_apply_transfer_preserves_one(haar, d4, stretched, shannon, highpass, system2):
    for spec in (haar, d4, stretched, shannon, highpass):
        for x in (0.0, 0.31, 0.77):
            assert ww.apply_transfer(spec, system2, lambda y: 1.0, x) == pytest.approx(
                1.0, abs=1e-12
            )


def test_transfer_of_one_near_one():
    # for x just below 1, (x + k)/N**n rounded to nearest lands on the edge
    # of the next cell, where this table reads another value; R 1 = 1 needs
    # every preimage inside its own cell
    partition = ww.FilterSpec.from_table([0.0, 0.25, 0.5, 0.75], [0.3, 0.0, 0.7, 1.0])
    system2 = ww.PathSystem(2)
    x = 1 - 2**-53
    assert ww.apply_transfer(partition, system2, lambda y: 1.0, x) == 1.0
    for n in (1, 2, 3):
        assert ww.apply_transfer_n(partition, system2, lambda y: 1.0, x, n) == pytest.approx(1.0, abs=1e-15)


def test_apply_transfer_haar_cosine(haar, system2):
    # W(0) cos(0) + W(1/2) cos(pi) = 1
    got = ww.apply_transfer(haar, system2, lambda y: math.cos(2 * math.pi * y), 0.0)
    assert got == pytest.approx(1.0, abs=1e-15)


def test_apply_transfer_constant_weight(system2):
    w04 = ww.FilterSpec.from_table([0.0], [0.4], label="w04")
    assert ww.apply_transfer(w04, system2, lambda y: 1.0, 0.3) == pytest.approx(0.8)


def test_power_zero_returns_g(haar, system2):
    g = lambda y: y * y
    assert ww.apply_transfer_n(haar, system2, g, 0.37, 0) == pytest.approx(0.37**2)


def test_power_one_matches_single(haar, system2):
    g = lambda y: math.sin(2 * math.pi * y) + 2.0
    for x in (0.0, 0.41):
        assert ww.apply_transfer_n(haar, system2, g, x, 1) == pytest.approx(
            ww.apply_transfer(haar, system2, g, x), abs=1e-12
        )


def test_power_preserves_one(haar, d4, system2):
    for spec in (haar, d4):
        for n in (1, 3, 6):
            assert ww.apply_transfer_n(spec, system2, lambda y: 1.0, 0.23, n) == pytest.approx(
                1.0, abs=1e-12
            )


def test_power_duality_with_expectation(haar, d4, system2):
    # the n-th power is the n-step path expectation of g at the endpoint
    rng = np.random.Generator(np.random.Philox(key=np.uint64(11)))
    gvals = rng.random(8)
    g = lambda y: float(gvals[int(frac(y) * 8) % 8])
    for spec in (haar, d4):
        for n in (1, 2, 4, 6):
            x = float(rng.random())
            f = FiniteCoordFn.from_callable(
                lambda w: g(system2.apply_word(ww.DigitWord(w), x)), n, 2
            )
            lhs = ww.apply_transfer_n(spec, system2, g, x, n)
            rhs = ww.expect_finite(spec, system2, x, f).real
            assert lhs == pytest.approx(rhs, abs=1e-10)


def test_power_semigroup(haar, d4, system2):
    rng = np.random.Generator(np.random.Philox(key=np.uint64(13)))
    gvals = rng.random(16)
    g = lambda y: float(gvals[int(frac(y) * 16) % 16])
    for spec in (haar, d4):
        for a, b in ((1, 1), (2, 3), (4, 1)):
            x = float(rng.random())
            inner = lambda y: ww.apply_transfer_n(spec, system2, g, y, b)
            assert ww.apply_transfer_n(spec, system2, g, x, a + b) == pytest.approx(
                ww.apply_transfer_n(spec, system2, inner, x, a), abs=1e-10
            )


def test_power_positivity(d4, system2):
    rng = np.random.Generator(np.random.Philox(key=np.uint64(17)))
    gvals = rng.random(8)
    g = lambda y: float(gvals[int(frac(y) * 8) % 8])
    for n in (1, 3, 5):
        assert ww.apply_transfer_n(d4, system2, g, 0.9, n) >= -1e-15


def test_power_depth_budget(haar, system2):
    with pytest.raises(ww.DepthTooLarge):
        ww.apply_transfer_n(haar, system2, lambda y: 1.0, 0.1, 25)


# ----------------------------------------------------------------------
# grid functions and residuals


def test_gridfunction_reads():
    g = GridFunction(2, 2, np.array([1.0, 2.0, 3.0, 4.0]))
    assert g.value_at(0.0) == 1.0
    assert g.value_at(0.26) == 2.0
    assert g.value_at(0.999) == 4.0
    assert g.value_at(1.25) == 2.0
    assert list(g.values_at(np.array([0.1, 0.6]))) == [1.0, 3.0]
    for x in (math.nan, math.inf, -math.inf):
        with pytest.raises(ww.NonFiniteArgument):
            g.values_at(np.array([0.1, x]))
        with pytest.raises(ww.NonFiniteArgument):
            g.value_at(x)


@pytest.mark.parametrize("n, level", [(2, 10), (3, 6), (5, 5), (6, 4)])
def test_gridfunction_reads_each_grid_point_in_its_own_cell(n, level):
    # m / N**L rounds below m for N not a power of 2 at some m, and
    # (m / N**L) * N**L then below m: the reader searches the points themselves
    values = np.arange(n**level, dtype=np.float64)
    g = GridFunction(level, n, values)
    np.testing.assert_array_equal(g.values_at(cell_grid(n, level)), values)
    assert [g.value_at(x) for x in cell_grid(n, level)[:50].tolist()] == values[:50].tolist()


def test_harmonic_residual_constant(haar, system2):
    ones = GridFunction(6, 2, np.ones(64))
    assert ww.harmonic_residual(haar, system2, ones) < 1e-12


def test_harmonic_residual_identity_function(haar, system2):
    # closed form: |R(id)(x) - x| = |sin^2(pi x / 2) - x| / 2, max about 0.053
    ident = GridFunction.from_callable(lambda x: x, 6, 2)
    assert ww.harmonic_residual(haar, system2, ident) > 0.05


def test_harmonic_residual_d4_lattice_mass(d4, system2, policy):
    h = ww.harmonic_gridfunction(d4, system2, 6, policy)
    assert ww.harmonic_residual(d4, system2, h) <= 5e-4


def test_harmonic_residual_eval_level_guard(haar, system2):
    g = GridFunction(3, 2, np.ones(8))
    with pytest.raises(ValueError):
        ww.harmonic_residual(haar, system2, g, eval_level=4)


def test_power_iterate_fixes_partition_filters(haar, stretched, highpass, shannon, system2):
    # exact partition of unity makes the constant 1 a fixed point, so
    # iterates stay flat for every bundled filter
    for spec in (haar, stretched, highpass, shannon):
        grid, history = ww.power_iterate(spec, system2, 8, 30)
        assert np.max(np.abs(grid.values - 1.0)) < 1e-12
        assert history[0] < 1e-13


def test_power_iterate_decay_without_partition(system2):
    w04 = ww.FilterSpec.from_table([0.0], [0.4], label="w04")
    grid, history = ww.power_iterate(w04, system2, 6, 20)
    assert np.max(np.abs(grid.values - 0.8**20)) < 1e-12
    assert history[-1] < history[0]


def test_ruelle_fair_coin_uniform(system2):
    fair = ww.FilterSpec.from_table([0.0], [0.5], label="fair")
    masses, residual = ww.ruelle_measure(fair, system2, 6, 50)
    assert np.max(np.abs(masses.values - 1 / 64)) < 1e-15
    assert residual < 1e-15


def test_ruelle_haar_concentrates_at_zero(haar, system2):
    masses, _ = ww.ruelle_measure(haar, system2, 8, 200)
    v = masses.values
    assert v.min() >= 0.0
    assert v.sum() == pytest.approx(1.0, abs=1e-12)
    near_zero = float(v[:16].sum() + v[-16:].sum())
    assert near_zero >= 0.99


def test_ruelle_shannon_nonuniform_stationary(shannon, system2):
    masses, residual = ww.ruelle_measure(shannon, system2, 8, 500)
    assert residual < 1e-8
    assert masses.values.max() > 0.4


def test_ruelle_stretched_cycle_mass(stretched, system2):
    # the walk has a second recurrent class at the cycle {1/3, 2/3}
    masses, _ = ww.ruelle_measure(stretched, system2, 8, 300)
    v = masses.values
    third = int(256 / 3)
    assert v[third] + v[2 * third] > 0.5


_HAAR, _S2 = ww.load_gallery("haar"), ww.PathSystem(2)

#: calls of this module that refuse their input: (call, exception, message)
REFUSED = {
    "power-negative": (lambda: ww.apply_transfer_n(_HAAR, _S2, lambda y: 1.0, 0.3, -1), ValueError,
                       "power must be >= 0"),
    "residual-eval-level-0": (lambda: ww.harmonic_residual(_HAAR, _S2, GridFunction(3, 2, np.ones(8)), eval_level=0),
                              ValueError, "need a grid of level >= 1"),
    "residual-grid-scale": (lambda: ww.harmonic_residual(_HAAR, _S2, GridFunction(2, 3, np.ones(9))), ValueError,
                            "grid scale 3 != path-system scale 2"),
    "power-iterate-level-0": (lambda: ww.power_iterate(_HAAR, _S2, 0, 5), ValueError,
                              "need level >= 1 and iters >= 1"),
    "power-iterate-iters-0": (lambda: ww.power_iterate(_HAAR, _S2, 3, 0), ValueError,
                              "need level >= 1 and iters >= 1"),
    "ruelle-level-0": (lambda: ww.ruelle_measure(_HAAR, _S2, 0, 5), ValueError, "need level >= 1 and iters >= 1"),
    "ruelle-iters-0": (lambda: ww.ruelle_measure(_HAAR, _S2, 3, 0), ValueError, "need level >= 1 and iters >= 1"),
}


@pytest.mark.parametrize("case", list(REFUSED))
def test_refused_input(case):
    call, exc, message = REFUSED[case]
    with pytest.raises(exc, match=re.escape(message)):
        call()
