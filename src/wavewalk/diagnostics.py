"""Convergence diagnosis, cocycle checks, and Monte Carlo cross-validation.

The central equivalence being diagnosed: at a point x whose all-zero
atom is positive, the product prod_n W(x/N**n) converges to the atom
exactly when the harmonic lattice mass h(x/N**n) tends to 1.  The
product side is the atom itself, the certified limit of the one
zero-path product kernel (measures.zero_path_atom); the harmonic side is
read off finitely many values of h, a heuristic.  So verdicts are
tri-state and "inconclusive" is a first-class outcome.  A cocycle
candidate's violation is exact, a maximum over the word tree.

Randomness is pinned to the Philox counter-based generator (fixed
constants); derived streams use the key pair (seed, stream_index).
Both Monte Carlo samplers walk one state at a time: sample_path its
sampled path, estimate_cylinder the word's own path, on which every
trial still counted sits.  sample_path reads the stream's raw 64-bit
words and picks digits by one integer rule (_word_bounds), exact
against the uniforms numpy would make of the same words, so its paths
are platform-stable.  estimate_cylinder draws, per digit, how many
trials that rule keeps on the word, a binomial count with the rule's
exact probability; numpy's binomial sampler is not covered by its
stream-compatibility policy and decides with libm's log and exp, so a
seeded estimate is reproducible only for a given numpy version and
platform, and is tested in law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateStep, NonFiniteArgument
from .filters import FilterSpec
from .ifs import DigitWord, PathSystem, cell_grid, frac
from .measures import (
    TruncationPolicy,
    _branch_weights,
    _check_scales,
    _grow,
    _partial_products,
    _table_order,
    expect_finite,
    harmonic_on_grid,
    scaled_lattice_mass,
    zero_path_atom,
)
from .transfer import apply_transfer

#: atoms at or below this are treated as zero when gating the diagnosis
ATOM_FLOOR = 1e-12

#: the harmonic verdict reads the last VERDICT_WINDOW harmonic values
VERDICT_WINDOW = 8

#: how near 1 those harmonic values sit for "limit-one"
H_TOL = 1e-3

#: the most trials estimate_cylinder counts: numpy draws binomials of int64 counts
MAX_TRIALS = 2**63 - 1


def _rng(seed: int, stream: int = 0) -> np.random.Generator:
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, stream & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# ----------------------------------------------------------------------
# cocycle identity


def cocycle_residual(spec: FilterSpec, system: PathSystem, x: float, policy: TruncationPolicy) -> float:
    """|W(x) h(x) - mass of N*Z at N*x|, both sides truncated alike.

    A view of measures.scaled_lattice_mass at N*x with k = 1: its
    route_gap sets W(N*x / N) times the lattice mass at N*x / N (x itself
    for N = 2) against the atoms summed over the sublattice N*Z directly,
    on the real line with the unreduced argument N*x.  Agreement
    exercises the one-step functional equation of the atom together with
    the periodicity of the weight.
    """
    return scaled_lattice_mass(spec, system, system.scale_n * x, 1, policy).route_gap


# ----------------------------------------------------------------------
# pointwise convergence diagnosis


@dataclass(frozen=True)
class DiagnosisReport:
    """Both diagnostic sequences at one point plus tri-state verdicts.

    hypothesis and product_verdict both read the zero-path atom, the
    certified limit of the product: "met" and "converged" where it lies
    above ATOM_FLOOR, "not-met" and "diverged" where it does not, and
    "inconclusive" for both where the product has no limit.
    partial_products are the running products, reported but not judged.
    harmonic_verdict: "limit-one" / "limit-below-one" / "inconclusive"
    from the rescaled lattice masses.  When the atom hypothesis is not
    established positive the equivalence is vacuous and `consistent` is
    set with hypothesis = "not-met" or "inconclusive" as a label.
    """

    x: float
    partial_products: tuple[float, ...]
    harmonic_values: tuple[float, ...]
    atom_positive: bool
    hypothesis: str
    product_verdict: str
    harmonic_verdict: str
    consistent: bool

    def to_json_dict(self) -> dict:
        """The fields by name, in field order: a shallow dict that shares
        the report's tuples, which are immutable."""
        return dict(vars(self))


def diagnose_convergence(
    spec: FilterSpec,
    system: PathSystem,
    x: float,
    max_n: int,
    policy: TruncationPolicy,
) -> DiagnosisReport:
    """Fill both sequences at x and judge the convergence equivalence.

    partial_products[n] = prod_{j<=n} W(x/N**j) with the empty product
    at n = 0; harmonic_values[n] is the minimal harmonic function at
    x/N**n (harmonic_on_grid, by the routes of measures.harmonic_masses).
    The zero-path atom at x is computed once and classified once, as
    DiagnosisReport says: the product verdict is the atom's, whatever
    max_n.  The harmonic verdict looks at whether the last
    VERDICT_WINDOW harmonic values sit within H_TOL of 1, or have
    stabilized away from 1.  A NaN or infinite x raises
    NonFiniteArgument, and a max_n whose points numpy cannot allocate a
    WavewalkError.
    """
    if max_n < 4:
        raise ValueError("max_n must be >= 4")
    if not math.isfinite(x):
        raise NonFiniteArgument(f"cannot diagnose at {x!r}")
    pts, partials = _partial_products(spec, system.scale_n, x, max_n)
    h_vals = harmonic_on_grid(spec, system, pts, policy)

    window = min(VERDICT_WINDOW, max_n)
    atom = zero_path_atom(spec, system, x, policy)
    if not atom.converged:
        atom_positive, hypothesis, product_verdict = False, "inconclusive", "inconclusive"
    elif atom.value > ATOM_FLOOR:
        atom_positive, hypothesis, product_verdict = True, "met", "converged"
    else:
        atom_positive, hypothesis, product_verdict = False, "not-met", "diverged"

    tail = h_vals[-window:]
    if np.all(np.abs(tail - 1.0) <= H_TOL):
        harmonic_verdict = "limit-one"
    elif np.all(np.abs(np.diff(tail)) <= H_TOL) and np.all(np.abs(tail - 1.0) > H_TOL):
        harmonic_verdict = "limit-below-one"
    else:
        harmonic_verdict = "inconclusive"

    # where the hypothesis is met the product converged, so only h stabilized below 1 contradicts it
    consistent = hypothesis != "met" or harmonic_verdict != "limit-below-one"

    return DiagnosisReport(
        x=float(x),
        partial_products=tuple(float(v) for v in partials),
        harmonic_values=tuple(float(v) for v in h_vals),
        atom_positive=atom_positive,
        hypothesis=hypothesis,
        product_verdict=product_verdict,
        harmonic_verdict=harmonic_verdict,
        consistent=consistent,
    )


# ----------------------------------------------------------------------
# harmonic functions from cocycle candidates


@dataclass(frozen=True)
class CocycleHarmonicReport:
    """P_x-average of a cocycle candidate and how cocycle-like it is."""

    value: complex
    harmonic_residual: float
    cocycle_violation: float


def harmonic_from_cocycle(
    spec: FilterSpec,
    system: PathSystem,
    candidate,
    x: float,
    grid_level: int = 5,
) -> CocycleHarmonicReport:
    """Average a base-point-dependent finite-depth candidate cocycle.

    `candidate` maps a base point y to a FiniteCoordFn of fixed arity n.
    Returns h(x) = E_x[candidate(x)], the sup of |Rh - h| over a coarse
    grid (small only when the candidate is close to a cocycle), and the
    largest violation of the shift relation
    candidate(x)(w_1..w_n) = candidate(branch(w_1, x))(w_2..w_{n+1})
    over every word w_1..w_{n+1} of positive cylinder mass at x: the
    tree below each branch point, N**n words, as expect_finite sums.
    """

    def h(y: float) -> complex:
        return expect_finite(spec, system, y, candidate(y))

    value = h(x)

    residual = max(abs(apply_transfer(spec, system, h, y) - h(y))
                   for y in cell_grid(system.scale_n, grid_level).tolist())

    n, here = system.scale_n, candidate(x)
    ys, w = _branch_weights(spec, system, np.array([frac(x)]))
    # row i: candidate(x) at (i, w_2..w_n) for the words w_2..w_{n+1} below branch i
    lhs = np.repeat(here.table, n).reshape(n, -1)
    violation = 0.0
    for i in np.flatnonzero(w[:, 0] > 0.0).tolist():
        below, _ = _grow(spec, system, np.ones(1), ys[i], here.arity)
        gap = np.abs(lhs[i] - candidate(float(ys[i, 0])).table)
        live = _table_order(below, n, here.arity) > 0.0
        violation = max(violation, float(np.max(gap, where=live, initial=0.0)))

    return CocycleHarmonicReport(
        value=value,
        harmonic_residual=residual,
        cocycle_violation=violation,
    )


# ----------------------------------------------------------------------
# Monte Carlo


@dataclass(frozen=True)
class WalkSample:
    """One sampled digit path, with the per-step weight totals logged."""

    seed: int
    x0: float
    digits: DigitWord
    step_norms: tuple[float, ...]


def _shares(spec: FilterSpec, system: PathSystem, y: float):
    """The walk step at state y: (branch points, weight total, cumulative shares).

    Digit i has weight W(branch(i, y)) over the weight total.  The N - 1
    cumulative shares never decrease, so the number of them at or below
    a uniform u is the digit u draws, and it stays below N.
    Raises DegenerateStep unless N * 1e-15 < total < inf: where the
    weights vanish, and where they overflow (a weight inf, or NaN from
    inf - inf), so that no share is read off an infinite total.  Callers
    evaluate it under np.errstate(over="ignore", invalid="ignore"), as
    those overflows are raised here instead.
    """
    branches, w = _branch_weights(spec, system, np.array([y]))
    # one sum in branch order, as over a trial axis: np.sum of a single
    # column may add N >= 8 weights in another order
    cum = np.cumsum(w[:, 0])
    total = cum[-1]
    if not total < math.inf:
        raise DegenerateStep(f"the branch weights overflow at state {float(y)!r}: their total is {total}")
    if not total > system.scale_n * 1e-15:
        raise DegenerateStep(f"all branch weights vanish at state {float(y)!r}")
    return branches[:, 0], total, cum[:-1] / total


def _word_bounds(cum) -> list[int]:
    """The word bounds K_i = ceil(cum_i * 2**53) of cumulative shares, as ints.

    numpy's Philox double is u = (r >> 11) * 2**-53 for the 64-bit word r,
    so u >= cum_i exactly when r >> 11 >= K_i: the scale is a power of 2
    and the ceiling an integer one, so K_i is exact.  A share below 0 (a
    weight rounded below 0) gets the bound 0 that every word meets, and
    one above 1, or NaN, the bound 2**53 that none does, as no uniform
    meets those shares either.  sample_path counts the bounds a word
    meets; estimate_cylinder reads a digit's probability off two bounds.
    """
    return [math.ceil(max(c, 0.0) * 2.0**53) if c <= 1.0 else 1 << 53 for c in cum.tolist()]


def sample_path(
    spec: FilterSpec,
    system: PathSystem,
    x: float,
    n: int,
    seed: int,
    stream: int = 0,
) -> WalkSample:
    """Draw n digits: from state y, digit i with weight W(branch(i, y)).

    One 64-bit word r of the (seed, stream) Philox stream per step picks
    the digit by the cumulative shares of _shares: the digit is the
    number of word bounds (_word_bounds) at or below r >> 11, which is
    exactly the number of shares at or below the uniform
    (r >> 11) * 2**-53 that numpy's random() makes of the same word.
    estimate_cylinder counts trials by the law of this rule.  Weights are
    renormalized by their sum each step as a guard against partition
    error; the per-step sums are logged in the sample.
    Raises DegenerateStep at the first state reached whose branch weights
    all vanish or overflow, and ValueError for a negative n.
    """
    _check_scales(spec, system)
    if n < 0:
        raise ValueError(f"path length must be >= 0, got {n}")
    words = _rng(seed, stream).bit_generator
    y = frac(x)
    digits, norms = [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n):
            branches, total, cum = _shares(spec, system, y)
            v = words.random_raw() >> 11
            d = sum(k <= v for k in _word_bounds(cum))
            digits.append(d)
            norms.append(float(total))
            y = branches[d]
    return WalkSample(seed=seed, x0=float(x), digits=DigitWord(tuple(digits)), step_norms=tuple(norms))


@dataclass(frozen=True)
class CylinderEstimate:
    """The fraction `estimate` of `trials` sampled paths on a word, and its
    binomial standard error sqrt(estimate (1 - estimate) / trials)."""

    estimate: float
    stderr: float
    trials: int
    seed: int

    def to_json_dict(self) -> dict:
        """The fields by name, in field order: a shallow dict of scalars."""
        return dict(vars(self))


def estimate_cylinder(
    spec: FilterSpec,
    system: PathSystem,
    x: float,
    word: DigitWord,
    trials: int,
    seed: int,
    stream: int = 0,
) -> CylinderEstimate:
    """Fraction of sampled paths whose prefix equals the word.

    Every trial that still follows the word after s steps sits at the
    same state, the branch composition of frac(x) along the word's first
    s digits, and only those trials count.  So the estimate walks that one
    state and counts the trials left on it: of the trials still on the
    word before step s, each stays with the probability p_s that
    sample_path's digit rule picks the word's digit there, independently
    of the others, so the count left after the step is
    Binomial(count before, p_s), one draw of the (seed, stream) Philox
    stream.  With the word bounds K of _word_bounds, and K[-1] = 0 and
    K[N-1] = 2**53, the rule picks digit t for a 64-bit word r exactly
    when K[t-1] <= r >> 11 < K[t], so p_s = (K[t] - K[t-1]) * 2**-53,
    exact as a float (0 where the bounds do not increase).  The estimate
    has the law of walking every trial by sample_path's rule, at one draw
    per digit whatever the trial count, and is reproducible for a given
    (seed, stream), numpy version and platform (unlike sample_path's raw
    words, numpy's binomial draws are not pinned across versions).

    Raises ValueError for fewer than 100 trials or more than
    MAX_TRIALS, DigitOutOfRange for a digit outside [0, N), and
    DegenerateStep when the branch weights all vanish, or overflow, at a
    state of the word's own path that some trial reaches.  Trials that
    have left the word are not walked, so a dead state off the path does
    not raise, and once no trial is left the estimate is 0 whatever the
    rest of the word.
    """
    _check_scales(spec, system)
    if trials < 100:
        raise ValueError("need at least 100 trials")
    if trials > MAX_TRIALS:
        raise ValueError(f"at most 2**63 - 1 trials can be counted, got {trials}")
    for target in word:
        system._check_digit(target)
    rng = _rng(seed, stream)
    y = frac(x)
    left = trials
    for target in word:
        with np.errstate(over="ignore", invalid="ignore"):
            branches, _, cum = _shares(spec, system, y)
        bounds = [0, *_word_bounds(cum), 1 << 53]
        left = int(rng.binomial(left, max(bounds[target + 1] - bounds[target], 0) * 2.0**-53))
        if not left:
            break
        y = branches[target]
    p_hat = left / trials
    stderr = math.sqrt(p_hat * (1.0 - p_hat) / trials)
    return CylinderEstimate(estimate=p_hat, stderr=stderr, trials=trials, seed=seed)
