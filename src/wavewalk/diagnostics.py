"""Convergence diagnosis, cocycle checks, and Monte Carlo cross-validation.

The central equivalence being diagnosed: at a point x whose all-zero
atom is positive, the product prod_n W(x/N**n) converges to the atom
exactly when the harmonic lattice mass h(x/N**n) tends to 1.  The
product side is the atom itself, the certified limit of the one
zero-path product kernel (measures.zero_path_atom); the harmonic side is
read off finitely many values of h, a heuristic.  So verdicts are
tri-state and "inconclusive" is a first-class outcome.

Randomness is pinned to the Philox counter-based generator (fixed
constants, platform-stable streams); derived streams use the key pair
(seed, stream_index).  Both Monte Carlo samplers walk one state at a
time: sample_path its sampled path, estimate_cylinder the word's own
path, on which every trial still counted sits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateStep, NonFiniteArgument, _allocating
from .filters import FilterSpec, eval_weight, weight_array
from .ifs import DigitWord, PathSystem, cell_grid, frac
from .measures import (
    ATOM_TILE,
    TruncationPolicy,
    expect_finite,
    harmonic_on_grid,
    lattice_mass,
    lattice_masses,
    zero_path_atom,
)
from .transfer import _branch_weights, apply_transfer

#: atoms at or below this are treated as zero when gating the diagnosis
ATOM_FLOOR = 1e-12

#: the harmonic verdict reads the last VERDICT_WINDOW harmonic values
VERDICT_WINDOW = 8

#: how near 1 those harmonic values sit for "limit-one"
H_TOL = 1e-3


def _rng(seed: int, stream: int = 0) -> np.random.Generator:
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, stream & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# ----------------------------------------------------------------------
# cocycle identity


def cocycle_residual(spec: FilterSpec, system: PathSystem, x: float, policy: TruncationPolicy) -> float:
    """|h(x) W(x) - mass of N*Z at N*x|, both sides truncated alike.

    The left side multiplies the lattice mass at x by the weight; the
    right side sums atoms over the even sublattice directly, on the
    real line with the unreduced argument N*x.  Agreement exercises the
    one-step functional equation of the atom together with the
    periodicity of the weight.
    """
    lhs = eval_weight(spec, x) * lattice_mass(spec, system, x, policy).value
    n = system.scale_n
    rhs = lattice_masses(spec, system, [n * x], policy, stride=n).value[0]
    return abs(lhs - float(rhs))


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
        return {
            "x": self.x,
            "partial_products": list(self.partial_products),
            "harmonic_values": list(self.harmonic_values),
            "atom_positive": self.atom_positive,
            "hypothesis": self.hypothesis,
            "product_verdict": self.product_verdict,
            "harmonic_verdict": self.harmonic_verdict,
            "consistent": self.consistent,
        }


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
    x/N**n (harmonic_on_grid: exact for a low-pass partition coefficient
    filter and for a tabulated partition whose breakpoints lie on an
    N-adic grid of at most measures.MAX_CHAIN_CELLS cells, the lattice
    sum truncated at K otherwise).  The zero-path atom at x is computed
    once and classified once, as DiagnosisReport says: the product
    verdict is the atom's, whatever max_n.  The harmonic verdict looks at
    whether the last VERDICT_WINDOW harmonic values sit within H_TOL of
    1, or have stabilized away from 1.  A NaN or infinite x raises
    NonFiniteArgument, and a max_n whose points numpy cannot allocate a
    WavewalkError.
    """
    if max_n < 4:
        raise ValueError("max_n must be >= 4")
    if not math.isfinite(x):
        raise NonFiniteArgument(f"cannot diagnose at {x!r}")
    n = system.scale_n
    with _allocating(f"the {max_n + 1} points x / N**n"):
        pts = np.empty(max_n + 1, dtype=np.float64)
    pts[0] = x
    y = float(x)
    for i in range(1, max_n + 1):
        y = y / n
        pts[i] = y
    partials = np.concatenate([[1.0], np.cumprod(weight_array(spec, pts[1:]))])
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

    if hypothesis != "met":
        consistent = True
    elif product_verdict == "inconclusive" or harmonic_verdict == "inconclusive":
        consistent = True
    else:
        consistent = (product_verdict == "converged") == (harmonic_verdict == "limit-one")

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
    n_paths: int = 200,
    seed: int = 0,
) -> CocycleHarmonicReport:
    """Average a base-point-dependent finite-depth candidate cocycle.

    `candidate` maps a base point y to a FiniteCoordFn of fixed arity.
    Returns h(x) = E_x[candidate(x)], the sup of |Rh - h| over a coarse
    grid (small only when the candidate is close to a cocycle), and the
    largest violation of the shift relation
    candidate(y)(w_1..w_n) = candidate(branch(w_1, y))(w_2..w_{n+1})
    seen along n_paths walk samples from x.
    """

    def h(y: float) -> complex:
        return expect_finite(spec, system, y, candidate(y))

    value = h(x)

    residual = max(abs(apply_transfer(spec, system, h, y) - h(y))
                   for y in cell_grid(system.scale_n, grid_level).tolist())

    arity = candidate(x).arity
    violation = 0.0
    for t in range(n_paths):
        walk = sample_path(spec, system, x, arity + 1, seed, stream=t + 1)
        w = walk.digits.digits
        lhs = candidate(x).value_at(w[:arity])
        rhs = candidate(system.branch(w[0], frac(x))).value_at(w[1 : arity + 1])
        violation = max(violation, abs(lhs - rhs))

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
    """
    branches, w = _branch_weights(spec, system, np.array([y]))
    # one sum in branch order, as over a trial axis: np.sum of a single
    # column may add N >= 8 weights in another order
    cum = np.cumsum(w[:, 0])
    total = cum[-1]
    if not total > system.scale_n * 1e-15:
        raise DegenerateStep(f"all branch weights vanish at state {float(y)!r}")
    return branches[:, 0], total, cum[:-1] / total


def sample_path(
    spec: FilterSpec,
    system: PathSystem,
    x: float,
    n: int,
    seed: int,
    stream: int = 0,
) -> WalkSample:
    """Draw n digits: from state y, digit i with weight W(branch(i, y)).

    One uniform of the (seed, stream) Philox stream per step picks the
    digit by the cumulative shares of _shares, the step estimate_cylinder
    takes.  Weights are renormalized by their sum each step as a guard
    against partition error; the per-step sums are logged in the sample.
    Raises DegenerateStep at the first state reached whose branch weights
    all vanish, and ValueError for a negative n.
    """
    if n < 0:
        raise ValueError(f"path length must be >= 0, got {n}")
    rng = _rng(seed, stream)
    y = frac(x)
    digits, norms = [], []
    for _ in range(n):
        branches, total, cum = _shares(spec, system, y)
        d = int((rng.random() >= cum).sum())
        digits.append(d)
        norms.append(float(total))
        y = branches[d]
    return WalkSample(seed=seed, x0=float(x), digits=DigitWord(tuple(digits)), step_norms=tuple(norms))


@dataclass(frozen=True)
class CylinderEstimate:
    estimate: float
    stderr: float
    trials: int
    seed: int

    def to_json_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "stderr": self.stderr,
            "trials": self.trials,
            "seed": self.seed,
        }


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
    state: step s draws one uniform per trial off a single Philox stream,
    keeps the trials whose uniform picks the word's digit, and moves to
    the branch of that digit.  A step's uniforms are drawn ATOM_TILE at a
    time into one reused buffer: the same draws of the same stream, in
    the same order, as one array of `trials` uniforms per step.  The
    estimate is bit-reproducible for a given (seed, stream), and equal to
    that of walking every trial.

    Raises DigitOutOfRange for a digit outside [0, N), and DegenerateStep
    when the branch weights all vanish at a state of the word's own path
    that some trial reaches.  Trials that have left the word are not
    walked, so a dead state off the path does not raise, and once no
    trial is left the estimate is 0 whatever the rest of the word.
    Trials too many for numpy to allocate a flag each raise WavewalkError.
    """
    if trials < 100:
        raise ValueError("need at least 100 trials")
    for target in word:
        system._check_digit(target)
    rng = _rng(seed, stream)
    y = frac(x)
    last = system.scale_n - 1
    with _allocating(f"a flag for each of {trials} trials"):
        match = np.ones(trials, dtype=bool)
    buf = np.empty(min(trials, ATOM_TILE))
    for target in word:
        branches, _, cum = _shares(spec, system, y)
        for start in range(0, trials, buf.size):
            tile = match[start : start + buf.size]
            u = rng.random(out=buf[: tile.size])
            # u draws the target digit when exactly `target` shares are <= u;
            # the shares never decrease, so that is cum[t-1] <= u < cum[t]
            if target > 0:
                tile &= cum[target - 1] <= u
            if target < last:
                tile &= u < cum[target]
        if not match.any():
            break
        y = branches[target]
    p_hat = float(match.mean())
    stderr = float(np.sqrt(p_hat * (1.0 - p_hat) / trials))
    return CylinderEstimate(estimate=p_hat, stderr=stderr, trials=trials, seed=seed)
