"""Convergence diagnosis, cocycle checks, and Monte Carlo cross-validation.

The central equivalence being diagnosed: at a point x whose all-zero
atom is positive, the product prod_n W(x/N**n) converges to the atom
exactly when the harmonic lattice mass h(x/N**n) tends to 1.  Finite
computation can only certify either side heuristically, so verdicts are
tri-state and "inconclusive" is a first-class outcome.

Randomness is pinned to the Philox counter-based generator (fixed
constants, platform-stable streams); derived streams use the key pair
(seed, stream_index).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateStep
from .filters import FilterSpec, eval_weight, weight_array
from .ifs import DigitWord, PathSystem, frac
from .measures import (
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

    product_verdict: "converged" / "diverged" / "inconclusive" from the
    running products.  harmonic_verdict: "limit-one" /
    "limit-below-one" / "inconclusive" from the rescaled lattice
    masses.  When the atom hypothesis is not established positive the
    equivalence is vacuous and `consistent` is set with
    hypothesis = "not-met" or "inconclusive" as a label.
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
    factor_tol: float = 1e-10,
    h_tol: float = 1e-3,
    atom_floor: float = ATOM_FLOOR,
) -> DiagnosisReport:
    """Fill both sequences at x and judge the convergence equivalence.

    partial_products[n] = prod_{j<=n} W(x/N**j) with the empty product
    at n = 0; harmonic_values[n] is the minimal harmonic function at
    x/N**n (harmonic_on_grid: exact for a low-pass partition filter,
    the lattice sum truncated at K otherwise).  The product verdict
    looks at whether the last `stall_window` factors sit within
    factor_tol of 1 while the running product stays above atom_floor;
    the harmonic verdict at whether the last values sit within h_tol of
    1, or have stabilized away from 1.
    """
    if max_n < 4:
        raise ValueError("max_n must be >= 4")
    n = system.scale_n
    pts = np.empty(max_n + 1, dtype=np.float64)
    pts[0] = x
    y = float(x)
    for i in range(1, max_n + 1):
        y = y / n
        pts[i] = y
    factors = weight_array(spec, pts[1:])
    partials = np.concatenate([[1.0], np.cumprod(factors)])
    h_vals = harmonic_on_grid(spec, system, pts, policy)

    window = min(TruncationPolicy().stall_window, max_n)
    atom = zero_path_atom(spec, system, x, policy)
    if atom.converged and atom.value > atom_floor:
        atom_positive, hypothesis = True, "met"
    elif atom.converged:
        atom_positive, hypothesis = False, "not-met"
    else:
        atom_positive, hypothesis = False, "inconclusive"

    if partials[-1] <= atom_floor:
        product_verdict = "diverged"
    elif np.all(np.abs(1.0 - factors[-window:]) <= factor_tol):
        product_verdict = "converged"
    else:
        product_verdict = "inconclusive"

    tail = h_vals[-window:]
    if np.all(np.abs(tail - 1.0) <= h_tol):
        harmonic_verdict = "limit-one"
    elif np.all(np.abs(np.diff(tail)) <= h_tol) and np.all(np.abs(tail - 1.0) > h_tol):
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

    cells = system.scale_n**grid_level
    residual = max(abs(apply_transfer(spec, system, h, m / cells) - h(m / cells))
                   for m in range(cells))

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


def _walk_step(spec: FilterSpec, system: PathSystem, ys: np.ndarray, us: np.ndarray):
    """One walk step from every state in ys: (digits, weight totals, next states).

    Digit i has weight W(branch(i, y)) over the weight total; the digit
    taken is the first whose cumulative share exceeds the uniform u.
    """
    nb = system.scale_n
    branches, w = _branch_weights(spec, system, ys)
    totals = w.sum(axis=0)
    dead = ~(totals > nb * 1e-15)
    if dead.any():
        raise DegenerateStep(f"all branch weights vanish at state {float(ys[dead][0])!r}")
    # shares never decrease, so counting the first N - 1 at or below u
    # gives the digit and keeps it below N
    cum = np.cumsum(w[:-1], axis=0) / totals
    digits = (us >= cum).sum(axis=0)
    return digits, totals, np.take_along_axis(branches, digits[None, :], axis=0)[0]


def sample_path(
    spec: FilterSpec,
    system: PathSystem,
    x: float,
    n: int,
    seed: int,
    stream: int = 0,
) -> WalkSample:
    """Draw n digits: from state y, digit i with weight W(branch(i, y)).

    The walk step is the one estimate_cylinder takes, run on a single
    path with one uniform of the (seed, stream) Philox stream per step.
    Weights are renormalized by their sum each step as a guard against
    partition error; the per-step sums are logged in the sample.
    """
    rng = _rng(seed, stream)
    y = np.array([frac(x)])
    digits, norms = [], []
    for _ in range(n):
        d, total, y = _walk_step(spec, system, y, rng.random(1))
        digits.append(int(d[0]))
        norms.append(float(total[0]))
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

    All trials run as one vectorized sweep off a single Philox stream,
    so the estimate is bit-reproducible for a given (seed, stream).
    """
    if trials < 100:
        raise ValueError("need at least 100 trials")
    rng = _rng(seed, stream)
    y = np.full(trials, frac(x), dtype=np.float64)
    match = np.ones(trials, dtype=bool)
    for target in word:
        digit, _, y = _walk_step(spec, system, y, rng.random(trials))
        match &= digit == target
    p_hat = float(match.mean())
    stderr = float(np.sqrt(p_hat * (1.0 - p_hat) / trials))
    return CylinderEstimate(estimate=p_hat, stderr=stderr, trials=trials, seed=seed)
