import dataclasses
import math
import warnings

import numpy as np
import pytest

import wavewalk as ww
from wavewalk.diagnostics import _rng, _shares, _word_bounds
from wavewalk.ifs import DigitWord
from wavewalk.measures import FiniteCoordFn

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


def test_to_json_dict_is_asdict(d4, system2, policy):
    reports = [ww.diagnose_convergence(d4, system2, 0.3, 30, policy),
               ww.estimate_cylinder(d4, system2, 0.3, DigitWord((0, 1)), 1000, seed=3)]
    for rep in reports:
        doc = rep.to_json_dict()
        assert list(doc.items()) == list(dataclasses.asdict(rep).items())
        # shallow: the fields themselves, not copies
        assert all(doc[f.name] is getattr(rep, f.name) for f in dataclasses.fields(rep))


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

    r4 = ww.harmonic_from_cocycle(haar, system2, candidate(4), 0.37)
    prods = ww.diagnose_convergence(haar, system2, 0.37, 8, ww.TruncationPolicy())
    assert r4.value.real == pytest.approx(prods.partial_products[4], abs=1e-12)
    r8 = ww.harmonic_from_cocycle(haar, system2, candidate(8), 0.37)
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

    reps = [ww.harmonic_from_cocycle(haar, system2, candidate(m, m + 6), 0.37) for m in (2, 4, 6)]
    res = [rep.harmonic_residual for rep in reps]
    assert res[2] < res[1] < res[0]
    assert res[2] < 0.25 * res[0]
    # yet each candidate breaks the shift relation on some word by 1: the
    # word whose digit m + 1 is the last non-zero one
    assert all(rep.cocycle_violation == 1.0 for rep in reps)


def test_cocycle_first_digit_flagged(haar, system2):
    first_digit = lambda y: FiniteCoordFn.from_callable(lambda w: float(w[0] == 1), 3, 2)
    rep = ww.harmonic_from_cocycle(haar, system2, first_digit, 1 / 3)
    assert rep.cocycle_violation == 1.0


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


def per_trial_matches(spec, system, x, word, trials, seed, stream=0):
    """Whether each trial follows the word, walking every trial: all N weights at every trial's state.

    Draws the (seed, stream) Philox stream's uniforms and takes as digit
    the number of cumulative shares at or below the uniform, sample_path's
    rule; it raises DegenerateStep at a dead state that any trial reaches.
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
    return match


def per_trial_estimate(spec, system, x, word, trials, seed, stream=0):
    """The cylinder estimate of the per-trial walk: the fraction of trials on the word."""
    return float(per_trial_matches(spec, system, x, word, trials, seed, stream).mean())


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
    # W = 0 on [1/2, 1): digits 2 and 3 have weight 0, and two shares are exactly 1
    "table last weights 0": lambda: ww.FilterSpec.from_table(np.arange(4) / 4, [0.5, 0.5, 0.0, 0.0], scale_n=4),
}


@pytest.mark.parametrize("make", list(ESTIMATE_FILTERS.values()), ids=list(ESTIMATE_FILTERS))
@pytest.mark.parametrize("x", [0.3, 0.71, 1 - 2**-53, 5e-324])
def test_sample_path_digits_are_the_float_uniform_rule(make, x):
    # sample_path reads raw 64-bit words; the reference reads numpy's
    # uniforms of the same stream and counts the shares at or below them
    spec = make()
    system = ww.PathSystem(spec.scale_n)
    for seed in range(6):
        walk = ww.sample_path(spec, system, x, 40, seed, stream=seed % 3)
        rng = _rng(seed, seed % 3)
        y, digits = ww.frac(x), []
        for _ in range(40):
            branches, _, cum = _shares(spec, system, y)
            digits.append(int((rng.random() >= cum).sum()))
            y = branches[digits[-1]]
        assert walk.digits.digits == tuple(digits), seed


def test_word_bounds_are_the_uniform_test_in_integers():
    # numpy's uniform of a word r is (r >> 11) * 2**-53, so r >> 11 = m
    # meets a share c exactly when m * 2**-53 >= c
    shares = np.array([-1e-17, -0.0, 0.0, 5e-324, 2**-54, 2**-53, 0.3, 0.5, 1 - 2**-53, 1.0, 1 + 2**-52, math.nan])
    for c, k in zip(shares.tolist(), _word_bounds(shares)):
        assert 0 <= k <= 2**53
        for m in {0, 1, max(k - 1, 0), min(k, 2**53 - 1), min(k + 1, 2**53 - 1), 2**52, 2**53 - 1}:
            assert (m >= k) == (m * 2.0**-53 >= c), (c, m)


def word_law(spec, system, x, word):
    """(prod_t p_t, whether the weights sum to 1 at every state read).

    p_t = (K[t] - K[t-1]) * 2**-53 in the word bounds K of _word_bounds
    is the share of 64-bit words r with K[t-1] <= r >> 11 < K[t], so the
    product is the chance that one trial of sample_path's rule follows
    the word.  States past the first p_t of 0 are not read.
    """
    y, p, partition = ww.frac(x), 1.0, True
    for target in word:
        branches, total, cum = _shares(spec, system, y)
        partition &= abs(total - 1.0) <= 1e-12
        bounds = [0, *_word_bounds(cum), 1 << 53]
        p *= max(bounds[target + 1] - bounds[target], 0) * 2.0**-53
        if p == 0.0:
            break
        y = branches[target]
    return p, partition


def chi_square_sf(stat, dof):
    """P(chi-square with dof degrees of freedom > stat): 1 minus the
    regularized lower incomplete gamma P(dof/2, stat/2), by its series."""
    a, z = dof / 2, stat / 2
    if z == 0.0:
        return 1.0
    term = total = math.exp(a * math.log(z) - z - math.lgamma(a + 1))
    n = 1
    while term > 1e-17 * total:
        term *= z / (a + n)
        total += term
        n += 1
    return max(1.0 - total, 0.0)


def binomial_fit(counts, trials, p):
    """(z of the mean, chi-square p-value) of counts against Binomial(trials, p).

    The z is continuity-corrected, as a word of small p is met a few
    times in all the trials.  The chi-square bins the counts in runs of k
    whose expected number is at least 5, the last run taking the upper
    tail; where that leaves one bin it has nothing to test, and reads 1.
    """
    runs = len(counts)
    pmf = [math.comb(trials, k) * p**k * (1 - p) ** (trials - k) for k in range(trials + 1)]
    observed = np.bincount(counts, minlength=trials + 1)
    bins, e, o = [], 0.0, 0
    for k in range(trials + 1):
        e, o = e + runs * pmf[k], o + observed[k]
        if e >= 5 and runs * sum(pmf[k + 1:]) >= 5:
            bins.append((o, e))
            e, o = 0.0, 0
    bins.append((o, e))
    stat = sum((o - e) ** 2 / e for o, e in bins)
    n = runs * trials
    z = max(abs(sum(counts) - n * p) - 0.5, 0.0) / math.sqrt(n * p * (1 - p))
    return z, chi_square_sf(stat, len(bins) - 1) if len(bins) > 1 else 1.0


#: trials per estimate, and estimates per word, of the law test
LAW_TRIALS, LAW_RUNS = 100, 200


@pytest.mark.parametrize("make", list(ESTIMATE_FILTERS.values()), ids=list(ESTIMATE_FILTERS))
@pytest.mark.parametrize("x", [0.3, 0.71, 1 - 2**-53, 5e-324])
def test_estimate_cylinder_equals_the_per_trial_walk(make, x):
    # equal in law: over seeds, the trials left on the word, by the
    # estimate and by walking every trial, are both Binomial(T, prod p_t)
    spec = make()
    system = ww.PathSystem(spec.scale_n)
    t = LAW_TRIALS
    for length in range(9):
        # a word the walk itself takes, so its cylinder is rarely empty
        digits = ww.sample_path(spec, system, x, length, length + 100).digits.digits
        for word in (digits, digits[:-1] + ((digits[-1] + 1) % system.scale_n,) if digits else ()):
            p, partition = word_law(spec, system, x, word)
            if partition:
                # the cylinder mass, read off the weights themselves
                assert abs(p - ww.cylinder_prob(spec, system, x, DigitWord(word))) <= 8 * length * 2.0**-53, word
            stream = length % 3
            got = [round(ww.estimate_cylinder(spec, system, x, DigitWord(word), t, seed, stream).estimate * t)
                   for seed in range(LAW_RUNS)]
            walked = per_trial_matches(spec, system, x, word, t * LAW_RUNS, length, stream)
            want = walked.reshape(LAW_RUNS, t).sum(axis=1).tolist()
            if not word:
                # nothing is drawn on the empty word: every trial is on it
                est = ww.estimate_cylinder(spec, system, x, DigitWord(()), t, 0, stream)
                assert (est.estimate, est.stderr) == (1.0, 0.0)
            for counts in (got, want):
                if p in (0.0, 1.0):
                    assert set(counts) == {round(p * t)}, word
                else:
                    z, p_value = binomial_fit(counts, t, p)
                    assert z <= 6 and p_value >= 1e-4, (word, p, z, p_value)


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


#: weights that overflow: the N = 3 box (its weight at 0 is 9 * 3.6e307),
#: and d4 scaled so far that inf - inf leaves NaN weights
OVERFLOWING = {
    "box3": ww.FilterSpec.from_coefficients({0: 6e153, 1: 6e153, 2: 6e153}, scale_n=3),
    "d4-nan": ww.FilterSpec.from_coefficients(
        {k: v.real * 2e154 for k, v in ww.load_gallery("d4").coeffs}),
}


@pytest.mark.parametrize("name", OVERFLOWING)
def test_walk_raises_where_the_weight_total_is_not_finite(name):
    spec = OVERFLOWING[name]
    system = ww.PathSystem(spec.scale_n)
    with warnings.catch_warnings():
        # no inf / inf share may be formed, nor an overflow warned of
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ww.DegenerateStep, match="overflow at state 0.3"):
            ww.sample_path(spec, system, 0.3, 5, seed=0)
        with pytest.raises(ww.DegenerateStep, match="overflow at state 0.3"):
            ww.estimate_cylinder(spec, system, 0.3, DigitWord((0, 1)), 1000, seed=0)


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


@pytest.mark.parametrize("trials", [1000, 2**14 + 1, 10**5, 10**15])
def test_estimate_cylinder_early_exit_and_dead_states_draw_as_one_array(trials, system2):
    # no trial is left after digit 0 from 0.7, so the dead state 0.35 is
    # never read and later digits draw nothing; up to 10**5 trials the
    # walk of one array of every trial is the reference
    walked = trials <= 10**5
    table = ww.FilterSpec.from_table([0.0, 0.25, 0.5, 0.75], [0.0, 0.0, 0.0, 1.0])
    got = ww.estimate_cylinder(table, system2, 0.7, DigitWord((0, 1)), trials, seed=0)
    assert (got.estimate, got.stderr) == (0.0, 0.0)
    if walked:
        assert per_trial_estimate(table, system2, 0.7, (0, 1), trials, 0) == 0.0
    # the word ends at the dead state 0.48125, which is never read
    word = DigitWord((1, 1, 1, 0))
    got = ww.estimate_cylinder(HOLES, system2, 0.7, word, trials, seed=3)
    assert abs(got.estimate - ww.cylinder_prob(HOLES, system2, 0.7, word)) <= 6 * got.stderr
    with pytest.raises(ww.DegenerateStep, match="0.35"):
        ww.estimate_cylinder(HOLES, system2, 0.7, DigitWord((0, 1, 1)), trials, seed=0)
    if walked:
        with pytest.raises(ww.DegenerateStep):
            per_trial_estimate(HOLES, system2, 0.7, (0, 1, 1), trials, 0)


def test_estimate_cylinder_counts_up_to_the_int64_limit(d4, system2):
    word = DigitWord((0, 1))
    p = ww.cylinder_prob(d4, system2, 0.3, word)
    est = ww.estimate_cylinder(d4, system2, 0.3, word, ww.diagnostics.MAX_TRIALS, seed=1)
    assert est.trials == 2**63 - 1 and abs(est.estimate - p) <= 6 * est.stderr
    with pytest.raises(ValueError, match="2\\*\\*63 - 1"):
        ww.estimate_cylinder(d4, system2, 0.3, word, 2**63, seed=1)


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
