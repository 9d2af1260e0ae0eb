import math

import numpy as np
import pytest

import wavewalk as ww
from wavewalk.diagnostics import _rng, _shares
from wavewalk.ifs import DigitWord
from wavewalk.measures import ATOM_TILE, FiniteCoordFn

from conftest import sinc_sq


def test_cocycle_residual_haar(haar, system2, policy):
    res = ww.cocycle_residual(haar, system2, 1 / 3, policy)
    assert res <= 1e-9
    lhs = ww.eval_weight(haar, 1 / 3) * ww.lattice_mass(haar, system2, 1 / 3, policy).value
    assert lhs == pytest.approx(0.25, abs=1e-4)


def test_cocycle_residual_highpass(highpass, system2, policy):
    assert ww.cocycle_residual(highpass, system2, 0.4, policy) < 1e-200


def test_cocycle_residual_d4(d4, system2, policy):
    rng = np.random.Generator(np.random.Philox(key=np.uint64(19)))
    for _ in range(10):
        assert ww.cocycle_residual(d4, system2, float(rng.random()), policy) <= 1e-5


# ----------------------------------------------------------------------
# pointwise diagnosis


def test_diagnose_haar_third(haar, system2, policy):
    rep = ww.diagnose_convergence(haar, system2, 1 / 3, 30, policy)
    assert rep.hypothesis == "met" and rep.atom_positive
    assert rep.product_verdict == "converged"
    assert rep.partial_products[-1] == pytest.approx(27 / (4 * math.pi**2), abs=1e-9)
    assert rep.harmonic_verdict == "limit-one"
    assert rep.consistent
    # far out, the last 8 factors are not yet near 1, but the product
    # verdict reads the atom, the product's certified limit
    far = ww.diagnose_convergence(haar, system2, 1500.3, 8, policy)
    assert far.hypothesis == "met" and far.product_verdict == "converged" and far.consistent
    assert far.partial_products[-1] > sinc_sq(1500.3) * 1.01


def test_diagnose_haar_origin(haar, system2, policy):
    rep = ww.diagnose_convergence(haar, system2, 0.0, 12, policy)
    assert all(p == 1.0 for p in rep.partial_products)
    assert all(abs(h - 1.0) < 1e-12 for h in rep.harmonic_values)
    assert rep.consistent


def test_diagnose_highpass_hypothesis_not_met(highpass, system2, policy):
    for x in (0.1, 0.37, 0.9):
        rep = ww.diagnose_convergence(highpass, system2, x, 20, policy)
        assert rep.hypothesis == "not-met"
        assert not rep.atom_positive
        assert rep.consistent
        assert rep.product_verdict == "diverged"


def test_diagnose_serialization(haar, system2, policy):
    rep = ww.diagnose_convergence(haar, system2, 0.25, 10, policy)
    doc = rep.to_json_dict()
    assert len(doc["partial_products"]) == 11
    assert len(doc["harmonic_values"]) == 11
    assert doc["consistent"] is True


def test_diagnose_requires_depth(haar, system2, policy):
    with pytest.raises(ValueError):
        ww.diagnose_convergence(haar, system2, 0.3, 3, policy)


# ----------------------------------------------------------------------
# cocycle candidates


def test_cocycle_constant_one(haar, system2):
    rep = ww.harmonic_from_cocycle(haar, system2, lambda y: FiniteCoordFn.constant(1.0, 4, 2), 0.37)
    assert rep.value == pytest.approx(1.0, abs=1e-12)
    assert rep.harmonic_residual < 1e-12
    assert rep.cocycle_violation == 0.0


def test_cocycle_zero_prefix_value(haar, system2):
    # the strict zero-prefix indicator averages to the running product;
    # its transfer residual converges to the next-integer atom (it is
    # not a cocycle: the limit singleton is not shift-invariant)
    def candidate(arity):
        zero = DigitWord((0,) * arity)
        return lambda y: FiniteCoordFn.indicator(zero, 2)

    r4 = ww.harmonic_from_cocycle(haar, system2, candidate(4), 0.37, n_paths=20)
    prods = ww.diagnose_convergence(haar, system2, 0.37, 8, ww.TruncationPolicy())
    assert r4.value.real == pytest.approx(prods.partial_products[4], abs=1e-12)
    r8 = ww.harmonic_from_cocycle(haar, system2, candidate(8), 0.37, n_paths=20)
    limit = max(sinc_sq(m / 32 + 1) for m in range(32))
    assert r8.harmonic_residual == pytest.approx(limit, abs=1e-3)


def test_cocycle_entered_tail_residual_shrinks(haar, system2):
    # freeing the first m digits approximates the eventually-zero set,
    # whose indicator is a genuine cocycle; the transfer residual is the
    # dyadic band mass beyond 2**m and decays geometrically in m
    def candidate(free, arity):
        def build(y):
            return FiniteCoordFn.from_callable(
                lambda w: float(all(d == 0 for d in w[free:])), arity, 2
            )

        return build

    res = [
        ww.harmonic_from_cocycle(haar, system2, candidate(m, m + 6), 0.37, n_paths=10).harmonic_residual
        for m in (2, 4, 6)
    ]
    assert res[2] < res[1] < res[0]
    assert res[2] < 0.25 * res[0]


def test_cocycle_first_digit_flagged(haar, system2):
    first_digit = lambda y: FiniteCoordFn.from_callable(lambda w: float(w[0] == 1), 3, 2)
    rep = ww.harmonic_from_cocycle(haar, system2, first_digit, 1 / 3, n_paths=200, seed=1)
    assert rep.cocycle_violation >= 0.5


# ----------------------------------------------------------------------
# sampling


def test_sample_path_haar_origin(haar, system2):
    walk = ww.sample_path(haar, system2, 0.0, 12, seed=5)
    assert walk.digits.digits == (0,) * 12
    assert all(t == pytest.approx(1.0, abs=1e-12) for t in walk.step_norms)


def test_sample_path_deterministic(d4, system2):
    a = ww.sample_path(d4, system2, 0.77, 20, seed=123)
    b = ww.sample_path(d4, system2, 0.77, 20, seed=123)
    assert a.digits == b.digits
    # a fair walk separates seeds with overwhelming probability
    fair = ww.FilterSpec.from_table([0.0], [0.5], label="fair")
    c = ww.sample_path(fair, system2, 0.77, 40, seed=123)
    d = ww.sample_path(fair, system2, 0.77, 40, seed=124)
    assert c.digits != d.digits


def test_sample_path_matches_scalar_walk(haar, d4, stretched, shannon, system2):
    # reference: one scalar weight per branch and one uniform per step,
    # drawn from the same Philox stream
    for spec in (haar, d4, stretched, shannon):
        for seed in range(10):
            x = 0.1 + seed / 13
            walk = ww.sample_path(spec, system2, x, 32, seed, stream=seed % 3)
            key = np.array([seed, seed % 3], dtype=np.uint64)
            rng = np.random.Generator(np.random.Philox(key=key))
            y, digits = x, []
            for norm in walk.step_norms:
                w = [ww.eval_weight(spec, system2.branch(i, y)) for i in range(2)]
                assert norm == pytest.approx(sum(w), abs=4e-15)
                d = int(rng.random() >= w[0] / sum(w))
                digits.append(d)
                y = system2.branch(d, y)
            assert walk.digits.digits == tuple(digits)


def test_sample_path_fair_coin_frequency(system2):
    fair = ww.FilterSpec.from_table([0.0], [0.5], label="fair")
    walk = ww.sample_path(fair, system2, 0.31, 10000, seed=2)
    freq = sum(walk.digits.digits) / 10000
    assert abs(freq - 0.5) <= 0.02


def test_sample_path_degenerate(system2):
    dead = ww.FilterSpec.from_table([0.0], [0.0], label="dead")
    with pytest.raises(ww.DegenerateStep):
        ww.sample_path(dead, system2, 0.3, 4, seed=0)


def test_estimate_cylinder_sure_event(haar, system2):
    est = ww.estimate_cylinder(haar, system2, 0.0, DigitWord((0, 0, 0)), 1000, seed=0)
    assert est.estimate == 1.0
    assert est.stderr == 0.0


def test_estimate_cylinder_fair_coin(system2):
    fair = ww.FilterSpec.from_table([0.0], [0.5], label="fair")
    est = ww.estimate_cylinder(fair, system2, 0.5, DigitWord((0, 1)), 100000, seed=0)
    assert abs(est.estimate - 0.25) <= 0.006
    assert est.stderr == pytest.approx(math.sqrt(0.25 * 0.75 / 100000), rel=0.1)


def test_estimate_cylinder_haar_third(haar, system2):
    word = DigitWord((0, 1))
    p = ww.cylinder_prob(haar, system2, 1 / 3, word)
    est = ww.estimate_cylinder(haar, system2, 1 / 3, word, 100000, seed=0)
    assert abs(est.estimate - p) <= 4 * est.stderr


def test_estimate_cylinder_deterministic(d4, system2):
    w = DigitWord((1, 0))
    a = ww.estimate_cylinder(d4, system2, 0.3, w, 5000, seed=9)
    b = ww.estimate_cylinder(d4, system2, 0.3, w, 5000, seed=9)
    assert a.estimate == b.estimate


def test_estimate_cylinder_needs_trials(haar, system2):
    with pytest.raises(ValueError):
        ww.estimate_cylinder(haar, system2, 0.3, DigitWord((0,)), 50, seed=0)


# ----------------------------------------------------------------------
# the cylinder estimate walks the word's own path


def per_trial_estimate(spec, system, x, word, trials, seed, stream=0):
    """The estimate as a walk of every trial: all N weights at every trial's state.

    Draws the same Philox stream and takes as digit the number of
    cumulative shares at or below the uniform, the rule that the
    estimate's test cum[t-1] <= u < cum[t] must match bit for bit; it
    raises DegenerateStep at a dead state that any trial reaches.
    """
    key = np.array([seed, stream], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    nb = system.scale_n
    y = np.full(trials, ww.frac(x))
    match = np.ones(trials, dtype=bool)
    for target in word:
        branches = system.branch_array(np.arange(nb)[:, None], y)
        w = ww.weight_array(spec, branches)
        totals = w.sum(axis=0)
        if not (totals > nb * 1e-15).all():
            raise ww.DegenerateStep("dead state")
        cum = np.cumsum(w[:-1], axis=0) / totals
        digits = (rng.random(trials) >= cum).sum(axis=0)
        match &= digits == target
        y = np.take_along_axis(branches, digits[None, :], axis=0)[0]
    return float(match.mean())


def _table_partition():
    return ww.FilterSpec.from_table([0.0, 0.25, 0.5, 0.75], [1.0, 0.3, 0.0, 0.7], label="partition")


def _table_scale9():
    # one bin per branch, so the N = 9 shares sum nine weights
    p = np.random.default_rng(4).random(9)
    return ww.FilterSpec.from_table(np.arange(9) / 9, p / p.sum(), scale_n=9, label="scale 9")


def _table_scale4_ties():
    # zero weights make equal cumulative shares, which a uniform never
    # falls between
    values = [0.5, 0, 1, 0.25, 0, 0, 0, 0.25, 0.5, 0, 0, 0.5, 0, 1, 0, 0]
    return ww.FilterSpec.from_table(np.arange(16) / 16, values, scale_n=4, label="scale 4 ties")


ESTIMATE_FILTERS = {
    "haar": lambda: ww.load_gallery("haar"),
    "d4": lambda: ww.load_gallery("d4"),
    "stretched_haar": lambda: ww.load_gallery("stretched_haar"),
    "shannon": lambda: ww.load_gallery("shannon"),
    "scale 3": lambda: ww.FilterSpec.from_coefficients({0: 0.3, 1: 0.5, 2: 0.2}, scale_n=3),
    "table partition": _table_partition,
    "table scale 9": _table_scale9,
    "table scale 4 ties": _table_scale4_ties,
}


@pytest.mark.parametrize("make", list(ESTIMATE_FILTERS.values()), ids=list(ESTIMATE_FILTERS))
@pytest.mark.parametrize("x", [0.3, 0.71, 1 - 2**-53, 5e-324])
def test_estimate_cylinder_equals_the_per_trial_walk(make, x):
    spec = make()
    system = ww.PathSystem(spec.scale_n)
    trials = [100, 1000, 10**4, 10**5]
    for length in range(9):
        seed = 3 * length + 1
        # a word the walk itself takes, so its cylinder is rarely empty
        digits = ww.sample_path(spec, system, x, length, seed + 100).digits.digits
        for word in (digits, digits[:-1] + ((digits[-1] + 1) % system.scale_n,) if digits else ()):
            n = trials[(length + len(word)) % 4]
            stream = length % 3
            got = ww.estimate_cylinder(spec, system, x, DigitWord(word), n, seed, stream)
            want = per_trial_estimate(spec, system, x, word, n, seed, stream)
            assert got.estimate.hex() == want.hex(), (word, n)


HOLES = ww.FilterSpec.from_table([0.0, 0.25, 0.5, 0.75], [0.0, 0.6, 0.0, 0.4], label="holes")


def test_estimate_cylinder_reads_only_states_on_the_word(system2):
    # every state in [0, 1/2) is dead; digit 0 from 0.7 reaches 0.35,
    # but the word (1, 1) never does
    word = DigitWord((1, 1))
    est = ww.estimate_cylinder(HOLES, system2, 0.7, word, 10**5, seed=0)
    p = ww.cylinder_prob(HOLES, system2, 0.7, word)
    assert p == pytest.approx(0.16)
    assert abs(est.estimate - p) <= 6 * est.stderr
    with pytest.raises(ww.DegenerateStep):
        per_trial_estimate(HOLES, system2, 0.7, word.digits, 10**5, 0)


def test_estimate_cylinder_raises_at_a_dead_state_on_the_word(system2):
    with pytest.raises(ww.DegenerateStep, match="0.35"):
        ww.estimate_cylinder(HOLES, system2, 0.7, DigitWord((0, 1, 1)), 10**4, seed=0)
    # the sampled path from 0.7 takes digit 0, into [0, 1/2), at some step
    with pytest.raises(ww.DegenerateStep):
        ww.sample_path(HOLES, system2, 0.7, 40, seed=0)


def test_estimate_cylinder_stops_once_no_trial_is_left(system2):
    # digit 0 has weight 0 from 0.7 and leads to the dead state 0.35:
    # no trial gets there, so the estimate is 0 as the per-trial walk says
    table = ww.FilterSpec.from_table([0.0, 0.25, 0.5, 0.75], [0.0, 0.0, 0.0, 1.0])
    est = ww.estimate_cylinder(table, system2, 0.7, DigitWord((0, 1)), 1000, seed=0)
    assert est.estimate == 0.0
    assert per_trial_estimate(table, system2, 0.7, (0, 1), 1000, 0) == 0.0


def one_array_estimate(spec, system, x, word, trials, seed, stream=0):
    """The estimate drawing each step's uniforms as one array of `trials`.

    The word's-own-path walk with every step's draws made at once, the
    reference for the tile-wise draws of estimate_cylinder.
    """
    rng = _rng(seed, stream)
    y = ww.frac(x)
    last = system.scale_n - 1
    match = np.ones(trials, dtype=bool)
    for target in word:
        branches, _, cum = _shares(spec, system, y)
        u = rng.random(trials)
        if target > 0:
            match &= cum[target - 1] <= u
        if target < last:
            match &= u < cum[target]
        if not match.any():
            break
        y = branches[target]
    p_hat = float(match.mean())
    return p_hat, float(np.sqrt(p_hat * (1.0 - p_hat) / trials))


@pytest.mark.parametrize("name", ["d4", "stretched_haar", "shannon"])
def test_estimate_cylinder_draws_as_one_array_per_step(name, system2):
    spec = ww.load_gallery(name)
    rng = np.random.default_rng(11)
    # both sides of a tile of ATOM_TILE uniforms, and many tiles
    for trials in (100, 12345, ATOM_TILE, ATOM_TILE + 1, 10**6):
        for length in (1, 2, 3, 4):
            word = tuple(int(d) for d in rng.integers(0, 2, length))
            seed = int(rng.integers(0, 2**32))
            x = float(rng.random())
            got = ww.estimate_cylinder(spec, system2, x, DigitWord(word), trials, seed, stream=length)
            want = one_array_estimate(spec, system2, x, word, trials, seed, stream=length)
            assert (got.estimate, got.stderr) == want, (trials, word, seed)


@pytest.mark.parametrize("trials", [1000, ATOM_TILE + 1, 10**5])
def test_estimate_cylinder_early_exit_and_dead_states_draw_as_one_array(trials, system2):
    # no trial is left after digit 0 from 0.7, so the dead state 0.35 is
    # never read and later digits draw nothing
    table = ww.FilterSpec.from_table([0.0, 0.25, 0.5, 0.75], [0.0, 0.0, 0.0, 1.0])
    got = ww.estimate_cylinder(table, system2, 0.7, DigitWord((0, 1)), trials, seed=0)
    assert (got.estimate, got.stderr) == one_array_estimate(table, system2, 0.7, (0, 1), trials, 0) == (0.0, 0.0)
    word = (1, 1, 1, 0)
    got = ww.estimate_cylinder(HOLES, system2, 0.7, DigitWord(word), trials, seed=3)
    assert (got.estimate, got.stderr) == one_array_estimate(HOLES, system2, 0.7, word, trials, 3)
    for estimate in (ww.estimate_cylinder, one_array_estimate):
        with pytest.raises(ww.DegenerateStep, match="0.35"):
            estimate(HOLES, system2, 0.7, DigitWord((0, 1, 1)), trials, 0)


@pytest.mark.parametrize("word", [(2,), (0, 5), (1, 0, 2)])
def test_estimate_cylinder_rejects_digits_out_of_range(d4, system2, word):
    with pytest.raises(ww.DigitOutOfRange):
        ww.estimate_cylinder(d4, system2, 0.3, DigitWord(word), 1000, seed=0)


# ----------------------------------------------------------------------
# non-finite points


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_non_finite_points_raise(d4, system2, policy, x):
    with pytest.raises(ww.NonFiniteArgument):
        ww.expect_finite(d4, system2, x, FiniteCoordFn.constant(1.0, 1, 2))
    with pytest.raises(ww.NonFiniteArgument):
        ww.cylinder_prob(d4, system2, x, DigitWord((0, 1)))
    with pytest.raises(ww.NonFiniteArgument):
        ww.estimate_cylinder(_table_partition(), system2, x, DigitWord((0,)), 1000, seed=0)
    with pytest.raises(ww.NonFiniteArgument):
        ww.sample_path(d4, system2, x, 4, seed=0)
    with pytest.raises(ww.NonFiniteArgument):
        ww.diagnose_convergence(d4, system2, x, 8, policy)
