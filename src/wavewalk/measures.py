"""Path-space measures driven by a branch weight.

For a weight W on [0, 1) that sums to 1 over the N branches, each
starting point x carries a probability measure on infinite digit
strings whose cylinder masses are the running products of W along the
inverse-branch walk.  This module evaluates those masses exactly
(cylinder probabilities, expectations of finite-coordinate functions)
and by controlled truncation (the atom at the all-zero string, atoms at
embedded integers, the mass of the embedded integer lattice and of its
N**k-fold sublattices).  For a low-pass coefficient filter whose weight
is an exact partition, the lattice mass (the minimal harmonic function)
is also computed exactly, as a trigonometric polynomial.

Truncation rule for infinite products: a product is declared converged
once `stall_window` consecutive factors sit within `convergence_tol` of
1, or once the running product falls below the underflow floor (then
the value is exactly 0).  Anything else is reported unconverged rather
than guessed.

All functions are pure; array sweeps use fixed-shape numpy reductions,
so results are deterministic for a given input.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ArityTooLarge
from .filters import (
    DEFAULT_TOL,
    KIND_COEFFICIENTS,
    FilterSpec,
    _trig_series,
    _weight_taps,
    eval_weight,
    weight_array,
)
from .ifs import DigitWord, PathSystem, frac

ATOM_UNDERFLOW = 1e-300

#: elements per tile of the product kernel: a tile's dozen working arrays
#: (128 KiB each) fit together in a 2 MiB L2 cache
ATOM_TILE = 1 << 14

#: hard cap on the number of enumerated words in exact tree sums
MAX_TREE_WORDS = 1 << 20


@dataclass(frozen=True)
class TruncationPolicy:
    """Knobs for truncating infinite products and lattice sums."""

    product_depth: int = 40
    tail_cutoff_k: int = 2000
    convergence_tol: float = 1e-12
    stall_window: int = 8

    def __post_init__(self) -> None:
        if self.product_depth < 1:
            raise ValueError("product_depth must be >= 1")
        if self.tail_cutoff_k < 1:
            raise ValueError("tail_cutoff_k must be >= 1")
        if self.convergence_tol <= 0:
            raise ValueError("convergence_tol must be positive")
        if self.stall_window < 1:
            raise ValueError("stall_window must be >= 1")


@dataclass(frozen=True)
class MeasureValue:
    """A truncated measure evaluation plus its convergence bookkeeping.

    tail_bound is a heuristic indicator of the truncation residual
    (None when the evaluation did not converge), never a proven bound.
    route_gap, when present, is the absolute discrepancy between two
    independent evaluation routes of the same quantity.
    """

    value: float
    converged: bool
    tail_bound: float | None
    depth_used: int
    route_gap: float | None = None


@dataclass(frozen=True, eq=False)
class MeasureArray:
    """Per-point measure values with their convergence bookkeeping.

    The array form of MeasureValue, returned by zero_path_atoms and
    lattice_masses: arrays of the shape of the points, with tail_bound
    NaN wherever MeasureValue.tail_bound would be None.
    """

    value: np.ndarray
    converged: np.ndarray
    tail_bound: np.ndarray
    depth_used: np.ndarray

    def at(self, i: int) -> MeasureValue:
        """The entry at flat index i as a MeasureValue."""
        tail = float(self.tail_bound.flat[i])
        return MeasureValue(
            value=float(self.value.flat[i]),
            converged=bool(self.converged.flat[i]),
            tail_bound=None if np.isnan(tail) else tail,
            depth_used=int(self.depth_used.flat[i]),
        )


def _check_scales(spec: FilterSpec, system: PathSystem) -> None:
    if spec.scale_n != system.scale_n:
        raise ValueError(
            f"filter scale {spec.scale_n} != path-system scale {system.scale_n}"
        )


# ----------------------------------------------------------------------
# infinite products along the zero branch


def _atom_array(spec, system, xs, policy):
    """Truncated products prod_n W(x / N**n) over an array of real x.

    Returns (values, converged, depth_used, stall_deviation) with the
    shape of xs.  The array is worked through in tiles of ATOM_TILE
    elements, each taken through all product steps before the next one
    starts, so the working set stays in cache.  An element leaves its
    tile at the step its product stalls at 1-ish factors or collapses to
    exactly 0, and its results are written out once; elements still
    live at product_depth are reported unconverged.
    """
    xs = np.asarray(xs, dtype=np.float64)
    flat = xs.ravel()
    values = np.empty(flat.shape, dtype=np.float64)
    converged = np.zeros(flat.shape, dtype=bool)
    depth_used = np.full(flat.shape, policy.product_depth, dtype=np.int64)
    last_dev = np.empty(flat.shape, dtype=np.float64)
    for start in range(0, flat.size, ATOM_TILE):
        idx = np.arange(start, min(start + ATOM_TILE, flat.size))
        y = flat[idx]
        p = np.ones(idx.size)
        streak = np.zeros(idx.size, dtype=np.int64)
        for step in range(1, policy.product_depth + 1):
            y /= system.scale_n
            f = weight_array(spec, y)
            p *= f
            dev = np.abs(1.0 - f)
            # near-1 factors only count toward a stall once the argument
            # is inside |y| < 1/2: further divisions then stay near 0 and
            # cannot wrap back onto accidental maxima of the periodic weight
            near = (dev <= policy.convergence_tol) & (np.abs(y) < 0.5)
            streak += 1
            streak *= near
            dead = p < ATOM_UNDERFLOW
            stop = dead | (streak >= policy.stall_window)
            if stop.any():
                p[dead] = 0.0
                dev[dead] = 0.0
                out = idx[stop]
                values[out] = p[stop]
                converged[out] = True
                depth_used[out] = step
                last_dev[out] = dev[stop]
                keep = np.flatnonzero(~stop)
                idx, y, p, streak, dev = idx[keep], y[keep], p[keep], streak[keep], dev[keep]
                if not idx.size:
                    break
        values[idx] = p
        last_dev[idx] = dev
    shape = xs.shape
    return (
        values.reshape(shape),
        converged.reshape(shape),
        depth_used.reshape(shape),
        last_dev.reshape(shape),
    )


def zero_path_atoms(spec: FilterSpec, system: PathSystem, xs, policy: TruncationPolicy) -> MeasureArray:
    """Mass of the all-zero digit string at every x in xs: prod_n W(x/N**n), n >= 1.

    Each x is a real number, not reduced mod 1; the weight is read
    1-periodically but the product genuinely depends on x itself.  The
    tail_bound of a converged atom is |1 - W| at its last factor.
    """
    _check_scales(spec, system)
    vals, conv, depth, dev = _atom_array(spec, system, xs, policy)
    return MeasureArray(vals, conv, np.where(conv, dev, np.nan), depth)


def zero_path_atom(spec: FilterSpec, system: PathSystem, x: float, policy: TruncationPolicy) -> MeasureValue:
    """The single-point view of zero_path_atoms."""
    return zero_path_atoms(spec, system, [x], policy).at(0)


def integer_atom(spec: FilterSpec, system: PathSystem, x: float, k: int, policy: TruncationPolicy) -> MeasureValue:
    """Atom at the embedded integer k, with a built-in two-route check.

    Route 1 multiplies the branch weights along the addressing word of
    k and finishes with the zero-path atom at the terminal point,
    tracked on the real line as (x + k) / N**len(word).  For negative k
    that terminal point is the real-line continuation of the modular
    word, which makes the value independent of the admissible word
    length.  Route 2 evaluates the zero-path atom at x + k directly;
    the two must agree and their gap is reported.
    """
    _check_scales(spec, system)
    word = system.word_of_int(k)
    prefix = cylinder_prob(spec, system, x, word)
    z = (x + k) / system.scale_n ** len(word)
    tail = zero_path_atom(spec, system, z, policy)
    route1 = prefix * tail.value
    route2 = zero_path_atom(spec, system, x + k, policy)
    return MeasureValue(
        value=route1,
        converged=tail.converged and route2.converged,
        tail_bound=tail.tail_bound,
        depth_used=len(word) + tail.depth_used,
        route_gap=abs(route1 - route2.value),
    )


# ----------------------------------------------------------------------
# lattice masses


def lattice_masses(
    spec: FilterSpec, system: PathSystem, xs, policy: TruncationPolicy, stride: float = 1.0
) -> MeasureArray:
    """Sums of atom(x + stride*k) over |k| <= K for every x in xs.

    K = policy.tail_cutoff_k; stride 1 gives the mass of the embedded
    integer lattice, stride N**j that of the sublattice N**j * Z.  Rows
    of 2K+1 atoms go through the product kernel a tile at a time, so
    nothing of size len(xs) * (2K+1) is held at once.

    The tail_bound of a point is the contribution of the outermost
    decade of |k| (a conservative indicator for polynomially decaying
    atoms, not a proven bound).  A point is flagged unconverged if any
    of its atoms failed to converge or the decade sums stopped
    decreasing; the tail is reported (K >= 10) only for converged points.
    """
    _check_scales(spec, system)
    xs = np.asarray(xs, dtype=np.float64)
    flat = xs.ravel()
    kk = policy.tail_cutoff_k
    offsets = stride * np.arange(-kk, kk + 1, dtype=np.float64)
    absk = np.abs(np.arange(-kk, kk + 1))
    outer_cols = absk > kk // 10
    inner_cols = (absk > kk // 100) & ~outer_cols
    value = np.empty(flat.shape, dtype=np.float64)
    converged = np.empty(flat.shape, dtype=bool)
    tail = np.full(flat.shape, np.nan)
    depth_used = np.empty(flat.shape, dtype=np.int64)
    rows = max(1, ATOM_TILE // offsets.size)
    for r0 in range(0, flat.size, rows):
        sl = slice(r0, min(r0 + rows, flat.size))
        vals, conv, depth, _ = _atom_array(spec, system, flat[sl, None] + offsets, policy)
        value[sl] = vals.sum(axis=1)
        converged[sl] = conv.all(axis=1)
        depth_used[sl] = depth.max(axis=1)
        if kk >= 10:
            # compress keeps the selected columns C-ordered, so each row
            # sums in the order of a one-point lattice sum
            tail[sl] = vals.compress(outer_cols, axis=1).sum(axis=1)
            if kk >= 100:
                inner = vals.compress(inner_cols, axis=1).sum(axis=1)
                converged[sl] &= ~(tail[sl] > inner + 1e-15)
    tail[~converged] = np.nan
    shape = xs.shape
    return MeasureArray(
        value.reshape(shape), converged.reshape(shape), tail.reshape(shape), depth_used.reshape(shape)
    )


def _nontrivial_cycles(spec: FilterSpec, max_period: int) -> list[float]:
    """One point of each W-cycle other than {0}, of period <= max_period.

    A W-cycle is an orbit of x -> N x mod 1 with W = 1 at every point;
    a period-p orbit lies on the grid j / (N**p - 1), which the map
    permutes.  Each cycle is named by its smallest point.  Grids larger
    than MAX_TREE_WORDS are not searched.
    """
    n = spec.scale_n
    found = set()
    for p in range(1, max_period + 1):
        period = n**p - 1
        if period > MAX_TREE_WORDS:
            break
        top = weight_array(spec, np.arange(period) / period) >= 1.0 - DEFAULT_TOL
        top[0] = False
        for j in np.flatnonzero(top).tolist():
            orbit = [j]
            k = j * n % period
            while k != j:
                orbit.append(k)
                k = k * n % period
            if top[orbit].all():
                g = math.gcd(min(orbit), period)
                found.add((min(orbit) // g, period // g))
    return sorted(j / q for j, q in found)


@functools.lru_cache(maxsize=64)
def _harmonic_taps(spec: FilterSpec):
    """The minimal harmonic function of a coefficient filter, exactly.

    For a filter of coefficient span S, h(x) = sum_k atom(x + k) is the
    trigonometric polynomial sum_{|n| <= L} b_n exp(2 pi i n x) with
    L = S // (N - 1), and its coefficients (the autocorrelations
    <phi, phi(. - n)>) are a fixed point of the transfer operator on
    such polynomials: the matrix M[q, n] = N w_{Nq - n}, where w_j are
    the Fourier coefficients of W (Lawton 1991; Cohen 1990).  The
    eigenvalue 1 of M has multiplicity r, read from the SVD of M - I;
    b is the eigenvector with h(0) = 1 that vanishes on the r - 1
    nontrivial W-cycles (a cycle point takes N - 1 zeros of m, so a
    cycle has period <= L).

    Returns the taps of h in the layout of filters._weight_taps, or None
    where the route does not apply: a tabulated filter, a filter that is
    not an exact partition (N w_{Nm} = delta_{m0}) or not low-pass
    (|sum a_k| = 1) at DEFAULT_TOL, a cycle count other than r - 1, or
    a solve whose condition number times the unit roundoff, or whose
    residual, exceeds DEFAULT_TOL.
    Cached per filter, as tuples.
    """
    if spec.kind != KIND_COEFFICIENTS:
        return None
    n = spec.scale_n
    c0, cos_taps, sin_taps = _weight_taps(spec)
    span = len(cos_taps)
    half = (np.asarray(cos_taps) - 1j * np.asarray(sin_taps or np.zeros(span))) / 2
    w = np.concatenate([half[::-1].conj(), [c0], half])
    if not sin_taps:
        w = w.real
    js = np.arange(-span, span + 1)
    on_grid = js % n == 0
    if np.max(np.abs(n * w[on_grid] - (js[on_grid] == 0))) > DEFAULT_TOL:
        return None
    if abs(abs(sum(v for _, v in spec.coeffs)) - 1.0) > DEFAULT_TOL:
        return None
    ell = span // (n - 1)
    idx = np.arange(-ell, ell + 1)
    lag = n * idx[:, None] - idx
    fixed = np.where(np.abs(lag) <= span, n * w[np.clip(lag + span, 0, 2 * span)], 0.0)
    fixed -= np.eye(idx.size)
    r = int(np.sum(np.linalg.svd(fixed, compute_uv=False) <= DEFAULT_TOL))
    cycles = _nontrivial_cycles(spec, ell) if r > 1 else []
    if r == 0 or len(cycles) != r - 1:
        return None
    # h(0) = 1, and h = 0 (real and imaginary part) at one point of each cycle
    ang = 2.0 * np.pi * np.outer(cycles, idx)
    system = np.vstack([fixed, np.ones(idx.size), np.cos(ang), np.sin(ang)])
    rhs = np.zeros(system.shape[0])
    rhs[idx.size] = 1.0
    b, _, _, sv = np.linalg.lstsq(system, rhs, rcond=None)
    # rounding in b grows with the condition number: near a filter with a
    # cycle (the 4-tap orthogonal family at angle pi + 1e-4) it reaches 1e-7
    ill_conditioned = sv[0] * np.finfo(float).eps > sv[-1] * DEFAULT_TOL
    if ill_conditioned or np.max(np.abs(system @ b - rhs)) > DEFAULT_TOL:
        return None
    # the real part of h: b_n e(nx) + b_-n e(-nx) summed as cosines and sines
    pos, neg = b[ell + 1 :], b[:ell][::-1]
    sines = tuple((neg.imag - pos.imag).tolist()) if np.iscomplexobj(b) else ()
    return float(b[ell].real), tuple((pos.real + neg.real).tolist()), sines if any(sines) else ()


def harmonic_on_grid(spec, system, xs, policy) -> np.ndarray:
    """The minimal harmonic function h(x) = sum_k atom(x + k) at every x in xs.

    For a coefficient filter that is an exact partition and low-pass, h
    is the trigonometric polynomial of _harmonic_taps, summed exactly
    (no truncation; policy is not used).  Every other filter takes the
    lattice route, lattice_masses(...).value: the sum over |k| <= K,
    K = policy.tail_cutoff_k.
    """
    _check_scales(spec, system)
    taps = _harmonic_taps(spec)
    if taps is None:
        return lattice_masses(spec, system, xs, policy).value
    return _trig_series(taps, np.asarray(xs, dtype=np.float64))


def lattice_mass(spec: FilterSpec, system: PathSystem, x: float, policy: TruncationPolicy) -> MeasureValue:
    """Mass of the embedded integer lattice: sum of atom(x + k), |k| <= K.

    The single-point view of lattice_masses, with the same tail_bound
    and convergence rule.
    """
    return lattice_masses(spec, system, [x], policy).at(0)


def scaled_lattice_mass(spec: FilterSpec, system: PathSystem, x: float, k: int, policy: TruncationPolicy) -> MeasureValue:
    """Mass of the embedded sublattice N**k * Z, by two routes.

    The returned value factors the mass as
    (prod_{j<=k} W(x/N**j)) * lattice_mass(x/N**k); route_gap reports
    the discrepancy against direct summation of atoms over the
    sublattice with the same truncation window and convergence rule.
    """
    _check_scales(spec, system)
    if k < 0:
        raise ValueError("sublattice exponent must be >= 0")
    n = system.scale_n
    prefix = 1.0
    y = float(x)
    for _ in range(k):
        y = y / n
        prefix *= eval_weight(spec, y)
    base = lattice_mass(spec, system, y, policy)
    value = prefix * base.value
    direct = lattice_masses(spec, system, [x], policy, stride=float(n) ** k).at(0)
    return MeasureValue(
        value=value,
        converged=base.converged and direct.converged,
        tail_bound=(prefix * base.tail_bound) if base.tail_bound is not None else None,
        depth_used=k + base.depth_used,
        route_gap=abs(value - direct.value),
    )


# ----------------------------------------------------------------------
# finite-coordinate functions and exact expectations


@dataclass(frozen=True, eq=False)
class FiniteCoordFn:
    """A function of the first `arity` digits, tabulated over all words.

    The flat table index treats the first coordinate as most
    significant: index(w) = w_1*N**(n-1) + ... + w_n.
    """

    arity: int
    n_branches: int
    table: np.ndarray

    def __post_init__(self) -> None:
        expected = self.n_branches**self.arity
        if self.table.shape != (expected,):
            raise ValueError(f"table must have length {expected}")

    @classmethod
    def constant(cls, c, arity: int, n_branches: int) -> "FiniteCoordFn":
        return cls(arity, n_branches, np.full(n_branches**arity, c, dtype=np.complex128))

    @classmethod
    def indicator(cls, word: DigitWord, n_branches: int) -> "FiniteCoordFn":
        n = len(word)
        table = np.zeros(n_branches**n, dtype=np.complex128)
        idx = 0
        for d in word:
            idx = idx * n_branches + d
        table[idx] = 1.0
        return cls(n, n_branches, table)

    @classmethod
    def from_callable(cls, fn, arity: int, n_branches: int) -> "FiniteCoordFn":
        """Tabulate fn(word_tuple) over all words of the given arity."""
        words = np.arange(n_branches**arity)
        table = np.empty(n_branches**arity, dtype=np.complex128)
        for i in words:
            digits = []
            v = int(i)
            for _ in range(arity):
                v, d = divmod(v, n_branches)
                digits.append(d)
            table[i] = fn(tuple(reversed(digits)))
        return cls(arity, n_branches, table)

    def value_at(self, word) -> complex:
        idx = 0
        for d in word:
            idx = idx * self.n_branches + d
        return complex(self.table[idx])

    def lifted(self) -> "FiniteCoordFn":
        """The same function viewed with one more (ignored) coordinate."""
        return FiniteCoordFn(self.arity + 1, self.n_branches, np.repeat(self.table, self.n_branches))

    def slice_first(self, i: int) -> "FiniteCoordFn":
        """The section w -> f(i, w) of one lower arity."""
        if self.arity < 1:
            raise ValueError("cannot slice an arity-0 function")
        block = self.n_branches ** (self.arity - 1)
        return FiniteCoordFn(self.arity - 1, self.n_branches, self.table[i * block : (i + 1) * block])


def cylinder_prob(spec: FilterSpec, system: PathSystem, x: float, word: DigitWord) -> float:
    """Product of branch weights along the word: the cylinder mass at x.

    Assumes the partition check has been run; the value is a
    probability only for weights that sum to 1 over the branches.
    """
    _check_scales(spec, system)
    p = 1.0
    y = frac(x)
    for d in word:
        y = system.branch(d, y)
        p *= eval_weight(spec, y)
    return p


def _chain_weights(spec, system, x, arity):
    """Cylinder weights of all words of the given length, flat-indexed.

    The words grow one digit at a time (index * N + digit), so step s
    evaluates only the N**s states of the words of length s.
    """
    n = system.scale_n
    if n**arity > MAX_TREE_WORDS:
        raise ArityTooLarge(f"{n}**{arity} words exceed the tree budget {MAX_TREE_WORDS}")
    weights = np.ones(1)
    y = np.array([frac(x)])
    for _ in range(arity):
        y = system.branch_array(np.arange(n), y[:, None])
        weights = (weights[:, None] * weight_array(spec, y)).ravel()
        y = y.ravel()
    return weights


def expect_finite(spec: FilterSpec, system: PathSystem, x: float, f: FiniteCoordFn) -> complex:
    """Expectation of a finite-coordinate function: the exact tree sum."""
    _check_scales(spec, system)
    if f.n_branches != system.scale_n:
        raise ValueError("function branch count does not match the system")
    if f.arity == 0:
        return complex(f.table[0])
    weights = _chain_weights(spec, system, x, f.arity)
    return complex(np.sum(weights * f.table))


def consistency_check(spec: FilterSpec, system: PathSystem, x: float, f: FiniteCoordFn) -> float:
    """Discrepancy between the arity-n and lifted arity-(n+1) expectations.

    Zero (up to rounding) exactly when the weight is a partition of
    unity over the branches.
    """
    a = expect_finite(spec, system, x, f)
    b = expect_finite(spec, system, x, f.lifted())
    return abs(a - b)


def refinement_check(spec: FilterSpec, system: PathSystem, x: float, f: FiniteCoordFn) -> float:
    """Residual of the one-step self-similarity of the measure family.

    Compares sum_i W(branch_i x) * E_{branch_i x}[f(i, .)] against
    E_x[f].
    """
    _check_scales(spec, system)
    if f.arity < 1:
        raise ValueError("refinement check needs arity >= 1")
    total = 0.0 + 0.0j
    for i in range(system.scale_n):
        yi = system.branch(i, frac(x))
        total += eval_weight(spec, yi) * expect_finite(spec, system, yi, f.slice_first(i))
    return abs(total - expect_finite(spec, system, x, f))


# ----------------------------------------------------------------------
# the negative-integer embedding, measured rather than assumed


@dataclass(frozen=True)
class NegativeEmbeddingReport:
    """Atom of a negative integer computed with every admissible word length.

    values[i] follows the addressing word of length n_values[i] + 1 with
    the terminal atom tracked on the real line; literal_values[i] is the
    atom of the corresponding finite word with a plain zero tail, which
    is what a naive fixed-length reading would give.  reference is the
    direct atom at x + k.
    """

    x: float
    k: int
    n_values: tuple[int, ...]
    values: tuple[float, ...]
    literal_values: tuple[float, ...]
    reference: float
    max_pairwise: float
    max_vs_reference: float


def check_negative_embedding(
    spec: FilterSpec,
    system: PathSystem,
    x: float,
    k: int,
    n_values,
    policy: TruncationPolicy,
) -> NegativeEmbeddingReport:
    """Measure how the negative-integer atom depends on the word length."""
    _check_scales(spec, system)
    if k >= 0:
        raise ValueError("embedding check is for negative k")
    n = system.scale_n
    vals = []
    literal = []
    for nn in n_values:
        if n**nn < -k:
            raise ValueError(f"n={nn} is not admissible for k={k}")
        shifted = n ** (nn + 1) + k
        word = system.digits_of(shifted)
        prefix = cylinder_prob(spec, system, x, word)
        z = (x + k) / n ** len(word)
        vals.append(prefix * zero_path_atom(spec, system, z, policy).value)
        literal.append(zero_path_atom(spec, system, x + shifted, policy).value)
    ref = zero_path_atom(spec, system, x + k, policy).value
    arr = np.asarray(vals)
    max_pair = float(np.max(arr) - np.min(arr)) if len(arr) else 0.0
    return NegativeEmbeddingReport(
        x=x,
        k=k,
        n_values=tuple(int(v) for v in n_values),
        values=tuple(float(v) for v in vals),
        literal_values=tuple(float(v) for v in literal),
        reference=float(ref),
        max_pairwise=max_pair,
        max_vs_reference=float(np.max(np.abs(arr - ref))) if len(arr) else 0.0,
    )
