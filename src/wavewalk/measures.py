"""Path-space measures driven by a branch weight.

For a weight W on [0, 1) that sums to 1 over the N branches, each
starting point x carries a probability measure on infinite digit
strings whose cylinder masses are the running products of W along the
inverse-branch walk.  This module evaluates those masses exactly
(cylinder probabilities, expectations of finite-coordinate functions)
and by controlled truncation (the atom at the all-zero string, atoms at
embedded integers, the mass of the embedded integer lattice and of its
N**k-fold sublattices).  The lattice mass (the minimal harmonic function
h) is also computed exactly where the filter allows it:
  * a low-pass coefficient filter whose weight is an exact partition:
    h is a trigonometric polynomial, the fixed point of the transfer
    operator on such polynomials (_harmonic_taps);
  * a tabulated partition with rational breakpoints: the walk on the
    cells of the Markov partition of x -> N*x mod 1 (the breakpoints'
    forward orbits) is a finite Markov chain, and h is a step function
    on those cells, its absorption probability into the end cells
    (_chain_harmonic).
Every other filter keeps the truncated lattice sum.  The one pointwise
branch step (N branch points and W there) is _branch_weights, and the
finite running products of W at x / N**j are _partial_products.

Stop rule for the products prod_n f(x/N**n) (the atom, f = W, and in
scaling the transform of phi, f = m): factors are multiplied in one at a
time until the rest of the product has a closed form, and that form
finishes it (filters._weight_closure, _response_closure).
  * Low-pass coefficient filter (f(0) = 1 to rounding level): once
    |y| <= rho = r/128, where r is the radius of a disc on which
    |f - 1| <= 1/2, the rest is exp(sum_{k<=T} l_k y^k / (N**k - 1)) for
    the series log f = sum_k l_k y^k.  A Cauchy bound on the terms left
    out makes the relative error at most 2**-60 (T = 7 for N = 2).
  * Table: once y lies in the first cell, or in the last cell shifted
    by -1, every later factor is that cell's value, so the rest is
    exactly 1 or exactly 0.
  * Any other coefficient filter: the factors tend to f(0), so from the
    first step the rest is exactly 0 where |f(0)| < 1; otherwise the
    product has no limit (NaN, unconverged).
A product that falls below the underflow floor is exactly 0.  Every
closure holds y = 0, so every product stops, for N = 2 within about
1,030 + log2(1/rho) steps even at |x| near the float maximum.  One
kernel (_zero_path_products) steps every product of the package, a tile
of ATOM_TILE elements at a time: a step only drops the elements that
stop and notes where they stopped, and each tile's stops are closed
together by one call of the closed rest.

The lattice sum is a sum over the tree of integer words.  The atom at
x + k is the mass of k's digit word times the atom at the word's end
point (integer_atom), so all k with the same residue r mod N**m share
their first m factors W((x - floor(x) + r) / N**n), n <= m.
lattice_masses grows those products over all N**m words once per point,
m the most levels with N**m <= 2K+1 (none where the closure covers the
whole line), and the product kernel carries each atom on from its
word's product at (x + k) / N**m.  So a row keeps the
stop rule of its atoms taken whole: a word whose product falls below
the underflow floor at level s makes its atoms 0 at depth s, an atom
whose closure comes within the first m levels is taken whole, and
every other atom stops where it would have, up to the rounding of its
first m factors.

Exact expectations of functions of the first n digits are tree sums
over the N**n words, streamed so that no array of N**n words is built
(expect_finite).  The tree grows breadth-first while a level fits in
ATOM_TILE words; each block of those states is then carried through the
remaining levels on its own and summed against its slice of the table,
and the block sums are added in halves.  For N = 2 that is the order of
numpy's pairwise sum of the whole array, so the result is bit-identical
to it; for other N it is that sum reordered, equal to rounding level.
Each growth (_grow) lays its levels out digit-major, the N branches of
M states one (N, M) array, so numpy's inner loops run over the states;
one reorder (_table_order) puts what the sum reads in the table's
order: the top states and weights, and each block's weights.

All functions are pure; array sweeps use fixed-shape numpy reductions,
so results are deterministic for a given input.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ArityTooLarge, _allocating
from .filters import (
    DEFAULT_TOL,
    KIND_COEFFICIENTS,
    FilterSpec,
    _trig_series,
    _weight_closure,
    _weight_fourier,
    check_partition,
    eval_weight,
    weight_array,
)
from .ifs import DigitWord, PathSystem, _cell_of, _check_finite, cell_grid, frac

ATOM_UNDERFLOW = 1e-300

#: elements per tile of the product kernel: a tile's dozen working arrays
#: (128 KiB each) fit together in a 2 MiB L2 cache
ATOM_TILE = 1 << 14

#: hard cap on the number of enumerated words in exact tree sums
MAX_TREE_WORDS = 1 << 20

#: most cells of the partition in the chain of a tabulated filter; its dense
#: solve holds a (cells x cells) float64 matrix, 2 MiB at 2**9 cells
MAX_CHAIN_CELLS = 1 << 9


@dataclass(frozen=True)
class TruncationPolicy:
    """The lattice-sum cutoff |k| <= tail_cutoff_k.

    Only the lattice functions read it (lattice_masses and those built on
    it); every product stops by itself, as the module docstring says.
    """

    tail_cutoff_k: int = 2000

    def __post_init__(self) -> None:
        if self.tail_cutoff_k < 1:
            raise ValueError("tail_cutoff_k must be >= 1")


@dataclass(frozen=True)
class MeasureValue:
    """A truncated measure evaluation plus its convergence bookkeeping.

    value is a float, except for the transform of phi (scaling.scaling_hat),
    a product of complex responses, where it is complex.  tail_bound is
    None when the evaluation did not converge.  For a product (an atom,
    or the transform of phi) it is a proven bound on the relative error
    of the closed rest (0 where the value is exact); for a lattice mass
    it is the heuristic outer-decade indicator of lattice_masses.
    route_gap, when present, is the absolute discrepancy between two
    independent evaluation routes of the same quantity.
    """

    value: float | complex
    converged: bool
    tail_bound: float | None
    depth_used: int
    route_gap: float | None = None


@dataclass(frozen=True, eq=False)
class MeasureArray:
    """Per-point measure values with their convergence bookkeeping.

    The array form of MeasureValue, returned by the product kernel
    (zero_path_atoms; complex values for scaling.scaling_hat), by
    lattice_masses and by harmonic_masses: arrays of the shape of the
    points, with tail_bound NaN wherever MeasureValue.tail_bound would
    be None.
    """

    value: np.ndarray
    converged: np.ndarray
    tail_bound: np.ndarray
    depth_used: np.ndarray

    def at(self, i: int) -> MeasureValue:
        """The entry at flat index i as a MeasureValue, its value a Python float or complex."""
        tail = float(self.tail_bound.flat[i])
        return MeasureValue(
            value=self.value.flat[i].item(),
            converged=bool(self.converged.flat[i]),
            tail_bound=None if np.isnan(tail) else tail,
            depth_used=int(self.depth_used.flat[i]),
        )


def _check_scales(spec: FilterSpec, system: PathSystem) -> None:
    if spec.scale_n != system.scale_n:
        raise ValueError(
            f"filter scale {spec.scale_n} != path-system scale {system.scale_n}"
        )


def _branch_weights(spec: FilterSpec, system: PathSystem, xs: np.ndarray):
    """The one branch step: the branch points (x + j)/N of states xs, shape
    (N, len(xs)) with the digit the slow axis, and W there."""
    ys = system.branch_array(np.arange(system.scale_n)[:, None], xs)
    return ys, weight_array(spec, ys)


# ----------------------------------------------------------------------
# infinite products along the zero branch


def _zero_path_products(factor, closure, n, xs, dtype=np.float64, prefix=None) -> MeasureArray:
    """The one product kernel: prod_{m>=1} factor(x / N**m) over an array of finite real x.

    Step m multiplies in factor(y), y = x / N**m, into a product that
    starts at the element's entry of prefix (the factors taken before x,
    as lattice_masses takes a word's; 1 where prefix is None), then
    stops an element (1) at 0 once the product falls below
    ATOM_UNDERFLOW, or (2) once closure.lo <= y < closure.hi,
    multiplying in the closed rest closure.rest(y) with relative error
    at most closure.bound; the closure holds y = 0, so every element
    stops.  tail_bound is closure.bound, 0 for an underflow, and NaN
    where the value is not finite (a NaN rest: no limit), which is
    unconverged.  The array is worked through in tiles of ATOM_TILE
    elements, each taken through all its steps before the next one
    starts, so the working set stays in cache; an element's stop depends
    on its own y only.

    A step is the division, the factor, the product and the stop test.
    Where some element stops, the step writes each stopping element's
    product, y and step to its place in the tile and drops it from the
    live index, y and product by one boolean mask.  The tile's stops are
    closed together once its last element has stopped, with one
    closure.rest call: an underflow (product below ATOM_UNDERFLOW, read
    off the stored product) is closed at y = 0, where every rest is
    finite, and then set to 0.  Products are multiplied in place: on one
    complex element numpy's out-of-place multiply rounds differently.
    """
    xs = np.asarray(xs, dtype=np.float64)
    flat = xs.ravel()
    if prefix is not None:
        prefix = np.asarray(prefix).ravel()
    values = np.empty(flat.shape, dtype=dtype)
    depth_used = np.empty(flat.shape, dtype=np.int64)
    tail_bound = np.empty(flat.shape)
    # a real product is a product of weights, which are >= 0
    magnitude = np.abs if np.dtype(dtype).kind == "c" else (lambda p: p)
    for start in range(0, flat.size, ATOM_TILE):
        tile = slice(start, min(start + ATOM_TILE, flat.size))
        y = flat[tile]
        p = np.ones(y.size, dtype=dtype) if prefix is None else prefix[tile].astype(dtype)
        # each element's product, y and step where it stopped, by its place in the tile
        ps, ys, steps = values[tile], np.empty(y.size), depth_used[tile]
        idx = np.arange(y.size)
        step = 0
        while True:
            step += 1
            y = y / n
            p *= factor(y)
            stop = (magnitude(p) < ATOM_UNDERFLOW) | ((closure.lo <= y) & (y < closure.hi))
            if stop.any():
                out = idx[stop]
                ps[out], ys[out], steps[out] = p[stop], y[stop], step
                if out.size == idx.size:
                    break
                keep = ~stop
                idx, y, p = idx[keep], y[keep], p[keep]
        gone = magnitude(ps) < ATOM_UNDERFLOW
        ps *= closure.rest(np.where(gone, 0.0, ys))
        ps[gone] = 0.0
        tail_bound[tile] = np.where(gone, 0.0, closure.bound)
    converged = np.isfinite(values)
    tail_bound[~converged] = np.nan
    shape = xs.shape
    return MeasureArray(
        values.reshape(shape), converged.reshape(shape), tail_bound.reshape(shape), depth_used.reshape(shape)
    )


def _atom_array(spec, system, xs) -> MeasureArray:
    """prod_n W(x / N**n) over an array of finite real x, closed by _weight_closure."""
    return _zero_path_products(functools.partial(weight_array, spec), _weight_closure(spec), system.scale_n, xs)


def _partial_products(spec: FilterSpec, n: int, x: float, depth: int):
    """The points x / N**j, j = 0..depth, by repeated division, and the running
    products prod_{i<=j} W(x / N**i) (1 at j = 0); too many points raise WavewalkError."""
    with _allocating(f"the {depth + 1} points x / N**n"):
        pts = np.empty(depth + 1, dtype=np.float64)
    pts[0] = x
    y = float(x)
    for i in range(1, depth + 1):
        y = y / n
        pts[i] = y
    return pts, np.concatenate([[1.0], np.cumprod(weight_array(spec, pts[1:]))])


def zero_path_atoms(spec: FilterSpec, system: PathSystem, xs) -> MeasureArray:
    """Mass of the all-zero digit string at every x in xs: prod_n W(x/N**n), n >= 1.

    Each x is a real number, not reduced mod 1; the weight is read
    1-periodically but the product genuinely depends on x itself.  The
    product stops as the module docstring says: a converged atom's
    tail_bound is a proven relative bound on the closed rest (2**-60 or
    less for a low-pass coefficient filter, the same for every atom of
    the filter; 0 where the value is exact).  An atom is unconverged
    only where its value is not finite, NaN where the product has no
    limit.  A NaN or infinite x raises NonFiniteArgument.
    """
    _check_scales(spec, system)
    xs = np.asarray(xs, dtype=np.float64)
    _check_finite(xs)
    return _atom_array(spec, system, xs)


def zero_path_atom(spec: FilterSpec, system: PathSystem, x: float, policy: TruncationPolicy) -> MeasureValue:
    """The single-point view of zero_path_atoms.

    policy is not read: the product stops by itself.  The parameter stays
    so that callers which pass it positionally, the benchmark workloads
    among them, keep working.
    """
    return zero_path_atoms(spec, system, [x]).at(0)


def integer_atom(spec: FilterSpec, system: PathSystem, x: float, k: int) -> MeasureValue:
    """Atom at the embedded integer k, with a built-in two-route check.

    Route 1 multiplies the branch weights along the addressing word of
    k and finishes with the zero-path atom at the terminal point,
    tracked on the real line as (x + k) / N**len(word).  For negative k
    that terminal point is the real-line continuation of the modular
    word, which makes the value independent of the admissible word
    length.  Route 2 evaluates the zero-path atom at x + k directly;
    the two must agree and their gap is reported.  lattice_masses sums
    route 1 over a whole row, sharing the words' first factors (see the
    module docstring).  Both products are taken in one kernel call.
    """
    _check_scales(spec, system)
    word = system.word_of_int(k)
    prefix = cylinder_prob(spec, system, x, word)
    z = (x + k) / system.scale_n ** len(word)
    atoms = zero_path_atoms(spec, system, [z, x + k])
    tail, route2 = atoms.at(0), atoms.at(1)
    route1 = prefix * tail.value
    return MeasureValue(
        value=route1,
        converged=tail.converged and route2.converged,
        tail_bound=tail.tail_bound,
        depth_used=len(word) + tail.depth_used,
        route_gap=abs(route1 - route2.value),
    )


# ----------------------------------------------------------------------
# lattice masses


def _word_products(spec, fracs, n, levels):
    """The first `levels` factors of the atoms at x + j for every integer j.

    For f = x - floor(x) (which may round up to 1) and r = j mod N**levels,
    the s-th factor W((f + j) / N**s) is W((f + r) / N**s), W having
    period 1: it depends on the word r alone.  The words grow one digit at
    a time, the product of r + d N**(s-1) at level s being that of r times
    W((f + r + d N**(s-1)) / N**s), so level s evaluates N**s weights.
    Returns, of shape (len(fracs), N**levels) and indexed by r, the
    products over the `levels` factors and the level at which each first
    fell below ATOM_UNDERFLOW (0 where none did).
    """
    p = np.ones((fracs.size, 1))
    dead_at = np.zeros(p.shape, dtype=np.int64)
    for level in range(1, levels + 1):
        words = n**level
        p = np.tile(p, n) * weight_array(spec, (fracs[:, None] + np.arange(words)) / words)
        dead_at = np.tile(dead_at, n)
        dead_at[(dead_at == 0) & (p < ATOM_UNDERFLOW)] = level
    return p, dead_at


def _row_atoms(spec, system, xs, policy, stride):
    """atom(x + stride*k), |k| <= K, for every x in xs, over the tree of integer words.

    With m the most levels with N**m <= 2K+1 (0 where the closure covers
    the whole line, so every atom is taken whole), the atom is the product
    of the first m factors of its word
    r = (floor(x) + stride*k) mod N**m (_word_products at x - floor(x)),
    carried on by the product kernel from z = (x + stride*k) / N**m, z
    reached by the kernel's own chain of divisions.  A word that
    underflows at level s gives 0 at depth s; an atom whose closure comes
    within the first m levels (z closed) is taken whole, from x + stride*k
    with prefix 1, in the same kernel call.  Returns values, convergence
    flags and depths of shape (len(xs), 2K+1).
    """
    n = system.scale_n
    ks = np.arange(-policy.tail_cutoff_k, policy.tail_cutoff_k + 1)
    closure = _weight_closure(spec)
    levels = 0
    while n ** (levels + 1) <= ks.size and closure.hi < math.inf:
        levels += 1
    words = n**levels
    base = np.floor(xs)
    tree, dead_at = _word_products(spec, xs - base, n, levels)
    # each atom's word, as an index into the flattened word tables
    word = (np.mod(base, words).astype(np.int64)[:, None] + stride % words * ks) % words
    word += words * np.arange(xs.size)[:, None]
    depth = dead_at.take(word)
    offsets = float(stride) * ks
    z = xs[:, None] + offsets
    for _ in range(levels):
        z /= n
    whole = (closure.lo <= z) & (z < closure.hi)
    rest = (depth == 0) & ~whole
    wrows, wcols = np.nonzero(whole)
    atoms = _zero_path_products(
        functools.partial(weight_array, spec), closure, n,
        np.concatenate([xs[wrows] + offsets[wcols], z[rest]]),
        prefix=np.concatenate([np.ones(wrows.size), tree.take(word[rest])]),
    )
    value = np.zeros(z.shape)
    converged = np.ones(z.shape, dtype=bool)
    for mask, part, taken in ((whole, slice(None, wrows.size), 0), (rest, slice(wrows.size, None), levels)):
        value[mask], converged[mask] = atoms.value[part], atoms.converged[part]
        depth[mask] = atoms.depth_used[part] + taken
    return value, converged, depth


def lattice_masses(
    spec: FilterSpec, system: PathSystem, xs, policy: TruncationPolicy, stride: int = 1
) -> MeasureArray:
    """Sums of atom(x + stride*k) over |k| <= K for every x in xs.

    K = policy.tail_cutoff_k.  stride is a positive integer (2 and 2.0
    alike; anything else raises ValueError): 1 for the mass of the
    embedded integer lattice, N**j for that of the sublattice N**j * Z.
    A row is summed over the tree of integer words, as the module
    docstring says: the first m factors of an atom, N**m <= 2K+1, are
    read at x - floor(x) plus an integer below N**m, that is at the
    exact x + stride*k rather than at its rounding.  Rows go through the
    product kernel about a tile at a time, so nothing of size
    len(xs) * (2K+1) is held at once.

    The tail_bound of a point is the contribution of the outermost
    decade of |k| (a conservative indicator for polynomially decaying
    atoms, not a proven bound).  A point is flagged unconverged if any
    of its atoms failed to converge or the decade sums stopped
    decreasing; the tail is reported (K >= 10) only for converged points.
    The depth_used of a point is the most factors any of its atoms took,
    counted from x + stride*k as zero_path_atoms counts them.  A NaN or
    infinite x raises NonFiniteArgument, and a K whose 2K+1 terms numpy
    cannot allocate, or cannot count, a WavewalkError.
    """
    _check_scales(spec, system)
    if not (stride > 0 and float(stride).is_integer()):
        raise ValueError(f"stride must be a positive integer, got {stride!r}")
    xs = np.asarray(xs, dtype=np.float64)
    _check_finite(xs)
    flat = xs.ravel()
    kk = policy.tail_cutoff_k
    with _allocating(f"a lattice row of 2K+1 = {2 * kk + 1} terms"):
        absk = np.abs(np.arange(-kk, kk + 1))
        if absk.size != 2 * kk + 1:
            # numpy's length of a range past its index type wraps round to 0
            raise ValueError(f"numpy made it {absk.size} terms long")
    outer_cols = absk > kk // 10
    inner_cols = (absk > kk // 100) & ~outer_cols
    value = np.empty(flat.shape, dtype=np.float64)
    converged = np.empty(flat.shape, dtype=bool)
    tail = np.full(flat.shape, np.nan)
    depth_used = np.empty(flat.shape, dtype=np.int64)
    rows = max(1, ATOM_TILE // absk.size)
    for r0 in range(0, flat.size, rows):
        sl = slice(r0, min(r0 + rows, flat.size))
        vals, done, depth = _row_atoms(spec, system, flat[sl], policy, int(stride))
        value[sl] = vals.sum(axis=1)
        converged[sl] = done.all(axis=1)
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
    the Fourier coefficients of W, filters._weight_fourier (Lawton 1991;
    Cohen 1990).  The eigenvalue 1 of M has multiplicity r, the number of
    singular values of M - I at rounding level (100 eps ||M||);
    b is the eigenvector with h(0) = 1 that vanishes on the r - 1
    nontrivial W-cycles (a cycle point takes N - 1 zeros of m, so a
    cycle has period <= L).

    Returns the taps of h in the layout of filters._weight_taps, or None
    where the route does not apply: a tabulated filter, a filter that is
    not an exact partition (filters.check_partition) or not low-pass
    (|sum a_k| = 1) at DEFAULT_TOL, a singular value of M - I above
    rounding level but within DEFAULT_TOL, a cycle count other than
    r - 1, or a solve whose condition number times the unit roundoff, or
    whose residual, exceeds DEFAULT_TOL.
    Cached per filter, as tuples.
    """
    if spec.kind != KIND_COEFFICIENTS:
        return None
    if not check_partition(spec, 0).all_ok or abs(abs(sum(v for _, v in spec.coeffs)) - 1.0) > DEFAULT_TOL:
        return None
    n = spec.scale_n
    _, w = _weight_fourier(spec)
    span = w.size // 2
    ell = span // (n - 1)
    idx = np.arange(-ell, ell + 1)
    lag = n * idx[:, None] - idx
    m = np.where(np.abs(lag) <= span, n * w[np.clip(lag + span, 0, 2 * span)], 0.0)
    fixed = m - np.eye(idx.size)
    sv = np.linalg.svd(fixed, compute_uv=False)
    # a singular value above rounding level but within DEFAULT_TOL belongs
    # to a filter near one with a cycle (the 4-tap orthogonal family at
    # angle pi + 1e-5 has 3.6e-11): its multiplicity cannot be told
    rounding = 100 * np.finfo(float).eps * np.linalg.norm(m, 2)
    if np.any((sv > rounding) & (sv <= DEFAULT_TOL)):
        return None
    r = int(np.sum(sv <= rounding))
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


def _absorption_solve(inner, leak, rhs):
    """Solve (D - Q) x = rhs for a chain's free cells, by GTH elimination.

    inner[i, j] >= 0 is the weight from free cell i to free cell j (zero
    diagonal), leak[i] >= 0 the weight from i out of the free cells, and
    D = diag(leak + the row sums of inner): the weight leaving each cell,
    which is 1 - Q_ii for an exact partition.  Gaussian elimination
    takes every pivot as the weight leaving a cell of the chain censored
    to the cells not yet eliminated (Grassmann, Taksar and Heyman 1985),
    so nothing is ever subtracted: a chain slow to leave its free cells
    loses no accuracy to cancellation, as 1 - Q_ii and a pivoting LU
    solve do.  Returns None at a pivot that is not positive.
    """
    inner, leak, rhs = inner.copy(), leak.copy(), rhs.copy()
    size = leak.size
    pivots = np.empty(size)
    for k in range(size):
        pivots[k] = leak[k] + inner[k, k + 1 :].sum()
        if not pivots[k] > 0.0:
            return None
        share = inner[k + 1 :, k] / pivots[k]
        inner[k + 1 :, k + 1 :] += np.outer(share, inner[k, k + 1 :])
        leak[k + 1 :] += share * leak[k]
        rhs[k + 1 :] += np.outer(share, rhs[k])
    sol = np.empty_like(rhs)
    for k in range(size - 1, -1, -1):
        sol[k] = (rhs[k] + inner[k, k + 1 :] @ sol[k + 1 :]) / pivots[k]
    return sol


@functools.lru_cache(maxsize=64)
def _chain_harmonic(spec: FilterSpec):
    """The minimal harmonic function of a tabulated filter, exactly.

    The cells lie between consecutive points of E, which is {0} and the
    forward orbits of the breakpoints under x -> N*x mod 1, in exact
    rationals: the Markov partition.  A float breakpoint b reads as the
    rational of denominator at most MAX_CHAIN_CELLS that rounds to b where
    there is one (0.1 is 1/10; two such rationals are more than an ulp
    apart), else as b itself.  No point of E lies strictly inside a branch
    image (C + j)/N of a cell C, so W is constant on the image, which lies
    in one cell: the walk on the cells is a finite Markov chain, read at
    the images' midpoints.  h(x) = P_x(the digits end in 0^inf or in
    (N-1)^inf) is its absorption probability in the end cells whose digit
    repeats forever (Kemeny-Snell, Finite Markov Chains, 1960): the bottom
    cell counts when its digit-0 weight is exactly 1, the top cell when
    its digit-(N-1) weight is; h = 1 there and 0 on every cell that cannot
    reach one along positive weights; the rest solve (I - Q) h = b
    (_absorption_solve).

    Returns (edges, values), both read-only: values[i] on the cell
    [edges[i], edges[i+1]), read by ifs._cell_of as a table is.  Returns
    None where the route does not apply: a coefficient filter, E past
    MAX_CHAIN_CELLS points or with two that round to one float, a weight
    that is not an exact partition on the cells (to rounding level), or a
    solve whose condition number (in the infinity norm) times the unit
    roundoff, or whose residual, exceeds DEFAULT_TOL.  Cached per filter.
    """
    if spec.kind == KIND_COEFFICIENTS:
        return None
    # imported here, so that importing the package does not pay for it
    from fractions import Fraction

    n = spec.scale_n
    todo = [Fraction(b).limit_denominator(MAX_CHAIN_CELLS) for b in spec.breakpoints]
    todo = [r if float(r) == b else Fraction(b) for r, b in zip(todo, spec.breakpoints)]
    points = {Fraction(0)}
    while todo:
        p = todo.pop()
        if p not in points:
            points.add(p)
            if len(points) > MAX_CHAIN_CELLS:
                return None
            todo.append(p * n % 1)
    edges = np.array([float(p) for p in sorted(points)])
    if np.any(np.diff(edges) <= 0.0):
        return None
    cells = edges.size
    mids = (edges + np.append(edges[1:], 1.0)) / 2
    ys = (mids + np.arange(n)[:, None]) / n
    flows, dest = weight_array(spec, ys), _cell_of(edges, ys)
    total = flows.sum(axis=0)
    if np.any(np.abs(total - 1.0) > 100 * np.finfo(float).eps * total):
        return None
    target = np.zeros(cells, dtype=bool)
    target[0], target[-1] = flows[0, 0] == 1.0, flows[-1, -1] == 1.0
    # the cells from which a target is reachable: grown backward along
    # positive weights until it stops growing
    live = target.copy()
    while True:
        grown = live | ((flows > 0.0) & live[dest]).any(axis=0)
        if (grown == live).all():
            break
        live = grown
    h = target.astype(np.float64)
    free = live & ~target
    if free.any():
        # two digits of a cell may go to one cell, so their weights add
        step = np.zeros((cells, cells))
        np.add.at(step, (np.arange(cells), dest), flows)
        np.fill_diagonal(step, 0.0)
        inner = step[np.ix_(free, free)]
        leak = step[np.ix_(free, ~free)].sum(axis=1)
        rhs = np.column_stack([step[np.ix_(free, target)].sum(axis=1), np.ones(inner.shape[0])])
        sol = _absorption_solve(inner, leak, rhs)
        if sol is None:
            return None
        # I - Q, with its diagonal the weight leaving each cell, is an
        # M-matrix: its inverse is >= 0, and the infinity norm of the
        # inverse is the largest entry of inverse @ 1 (sol[:, 1])
        system = np.diag(leak + inner.sum(axis=1)) - inner
        norm = np.abs(system).sum(axis=1).max()
        residual = np.max(np.abs(system @ sol[:, 0] - rhs[:, 0]))
        # the condition number is norm * max(inverse @ 1), tested unmultiplied
        well_conditioned = sol[:, 1].max() <= DEFAULT_TOL / (norm * np.finfo(float).eps)
        if not (well_conditioned and residual <= DEFAULT_TOL):
            return None
        h[free] = sol[:, 0]
    edges.flags.writeable = h.flags.writeable = False
    return edges, h


def harmonic_masses(spec: FilterSpec, system: PathSystem, xs, policy: TruncationPolicy) -> MeasureArray:
    """The minimal harmonic function h(x) = sum_k atom(x + k) at every x in xs.

    The route choice for h, taken as well by _harmonic_coefficients.  Two
    kinds of filter have h exactly, with no truncation (policy is not
    used), and their rows are exact: converged, tail_bound 0.0, depth_used 0:
      * a low-pass coefficient filter that is an exact partition: the
        trigonometric polynomial of _harmonic_taps;
      * a tabulated partition whose Markov partition has at most
        MAX_CHAIN_CELLS cells: the step function of _chain_harmonic, read
        by ifs._cell_of as weight_array reads a table.
    Every other filter (a table that is not a partition or whose
    breakpoint orbits pass that cap, a coefficient filter that is not a
    low-pass partition, or one of either kind whose exact solve is
    declined) takes the lattice route: lattice_masses(spec, system, xs,
    policy), returned unchanged, the sum over |k| <= K,
    K = policy.tail_cutoff_k.  A NaN or infinite x raises
    NonFiniteArgument.
    """
    _check_scales(spec, system)
    xs = np.asarray(xs, dtype=np.float64)
    _check_finite(xs)
    taps = _harmonic_taps(spec)
    if taps is not None:
        value = _trig_series(taps, xs)
    else:
        chain = _chain_harmonic(spec)
        if chain is None:
            return lattice_masses(spec, system, xs, policy)
        edges, h = chain
        value = h[_cell_of(edges, xs)]
    return MeasureArray(value, np.ones(xs.shape, dtype=bool), np.zeros(xs.shape),
                        np.zeros(xs.shape, dtype=np.int64))


def _harmonic_coefficients(spec: FilterSpec, system: PathSystem, ks, policy: TruncationPolicy, level: int) -> np.ndarray:
    """a(k) = int_0^1 h(x) exp(2 pi i k x) dx = <phi, phi(. - k)> for every integer k in ks, complex.

    The routes of harmonic_masses, in its order.  The polynomial of
    _harmonic_taps, degree L: a(0) = c_0, a(+-k) = (cos_k +- i sin_k) / 2
    up to L, 0 past it.  The step function of _chain_harmonic: a cell of
    width w and midpoint m integrates exactly to its value times
    w sinc(k w) e(k m), e(t) = exp(2 pi i t).  Else the midpoint quadrature
    of lattice_masses on the level-`level` grid, aliased once
    |k| + L >= N**level (h of degree L), the one route to read level and
    policy.  A negative level raises ValueError, a lag not an int TypeError.
    """
    _check_scales(spec, system)
    if level < 0:
        raise ValueError(f"grid level must be >= 0, got {level}")
    ks = np.array([operator.index(k) for k in ks], dtype=np.int64)
    taps = _harmonic_taps(spec)
    if taps is not None:
        c0, cos_taps, sin_taps = taps
        half = (np.asarray(cos_taps) + 1j * np.asarray(sin_taps or np.zeros(len(cos_taps)))) / 2
        # a(k) for |k| <= L + 1, 0 at both ends (past the degree)
        two_sided = np.concatenate([[0.0], half[::-1].conj(), [c0], half, [0.0]])
        return two_sided[np.clip(ks, -half.size - 1, half.size + 1) + half.size + 1]
    chain = _chain_harmonic(spec)
    if chain is None:
        mids = cell_grid(system.scale_n, level, 0.5)
        h = lattice_masses(spec, system, mids, policy).value
        return np.array([complex(np.mean(h * np.exp(2j * np.pi * k * mids))) for k in ks])
    edges, h = chain
    widths = np.diff(edges, append=1.0)
    phases = np.exp(2j * np.pi * np.outer(ks, edges + widths / 2))
    return (h * widths * np.sinc(np.outer(ks, widths)) * phases).sum(axis=1)


def harmonic_on_grid(spec, system, xs, policy) -> np.ndarray:
    """h at every x in xs: the value of harmonic_masses, whose docstring gives the routes."""
    return harmonic_masses(spec, system, xs, policy).value


def lattice_mass(spec: FilterSpec, system: PathSystem, x: float, policy: TruncationPolicy) -> MeasureValue:
    """Mass of the embedded integer lattice: sum of atom(x + k), |k| <= K.

    The single-point view of lattice_masses, with the same tail_bound
    and convergence rule.
    """
    return lattice_masses(spec, system, [x], policy).at(0)


def scaled_lattice_mass(spec: FilterSpec, system: PathSystem, x: float, k: int, policy: TruncationPolicy) -> MeasureValue:
    """Mass of the embedded sublattice N**k * Z, by two routes.

    The returned value factors the mass as
    (prod_{j<=k} W(x/N**j)) * lattice_mass(x/N**k) (_partial_products);
    route_gap reports the discrepancy against direct summation of atoms
    over the sublattice with the same truncation window and convergence
    rule.
    """
    _check_scales(spec, system)
    if k < 0:
        raise ValueError("sublattice exponent must be >= 0")
    n = system.scale_n
    pts, partials = _partial_products(spec, n, x, k)
    prefix = float(partials[k])
    base = lattice_mass(spec, system, float(pts[k]), policy)
    value = prefix * base.value
    direct = lattice_masses(spec, system, [x], policy, stride=n**k).at(0)
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


def _grow(spec, system, weights, ys, levels):
    """Carry states and their cylinder weights `levels` digits deeper, digit-major.

    Each level is one (N, M) array, the N branches of the M states with
    the new digit the slow axis, so every elementwise pass runs over the
    states.  The flat index of a word is
    d_levels N**(levels-1) M + ... + d_1 M + state; _table_order puts the
    words in table order.  Each state and weight is the one a state-major
    growth gives, bit for bit.
    """
    for _ in range(levels):
        ys, w = _branch_weights(spec, system, ys)
        w *= weights
        weights, ys = w.ravel(), ys.ravel()
    return weights, ys


@functools.lru_cache(maxsize=64)
def _table_permutation(n, levels, size):
    """The gather indices of _table_order, read-only, for `size` entries."""
    perm = np.arange(size).reshape((n,) * levels + (-1,)).T.ravel()
    perm.flags.writeable = False
    return perm


def _table_order(a, n, levels):
    """Reorder a digit-major growth `levels` deep (_grow) into table order.

    Reversing the axes gives state N**levels + d_1 N**(levels-1) + ... +
    d_levels, index * N + digit at every level: the words below one state
    stay consecutive, in the order of the flat table.  The reorder is one
    gather (`take`) over a permutation cached per (N, levels, size): a
    transposed copy over levels + 1 axes of size N runs numpy's inner
    loop over N elements at a time.
    """
    return a.take(_table_permutation(n, levels, a.size))


def _sum_halves(parts):
    """Add a list's entries by splitting it in halves, as numpy's pairwise sum does."""
    if len(parts) == 1:
        return parts[0]
    mid = len(parts) // 2
    return _sum_halves(parts[:mid]) + _sum_halves(parts[mid:])


def expect_finite(spec: FilterSpec, system: PathSystem, x: float, f: FiniteCoordFn) -> complex:
    """Expectation of a finite-coordinate function: the exact tree sum.

    The sum of W-products times f over all N**arity words, streamed.  The
    word tree grows breadth-first while a level fits in ATOM_TILE words;
    then each block of those states is carried through the remaining
    levels on its own, at most ATOM_TILE words at a time, and summed
    against its own slice of f.table.  _grow builds each level
    digit-major; _table_order puts the top states and weights, and each
    block's weights, in table order (index * N + digit), so they line up
    with the slices of f.table.  A block's states are never read and stay
    unordered.  The block sums are added in halves.  For N = 2 each block
    holds 2**14 words and there are a power of 2 of them, so every
    addition falls where numpy's pairwise sum of the whole power-of-two
    array of terms puts it: the result is bit-identical to
    np.sum(weights * f.table), with the array of all word weights never
    built.  For other N the blocks do not fall on numpy's splits, and the
    result is that sum reordered, equal to rounding level.  N**arity
    above MAX_TREE_WORDS raises ArityTooLarge.
    """
    _check_scales(spec, system)
    n = system.scale_n
    if f.n_branches != n:
        raise ValueError("function branch count does not match the system")
    if f.arity == 0:
        return complex(f.table[0])
    if n**f.arity > MAX_TREE_WORDS:
        raise ArityTooLarge(f"{n}**{f.arity} words exceed the tree budget {MAX_TREE_WORDS}")
    top = 0
    while top < f.arity and n ** (top + 1) <= ATOM_TILE:
        top += 1
    weights, ys = (_table_order(a, n, top) for a in _grow(spec, system, np.ones(1), np.array([frac(x)]), top))
    span = n ** (f.arity - top)
    step = max(1, ATOM_TILE // span)
    sums = []
    for start in range(0, weights.size, step):
        block, _ = _grow(spec, system, weights[start : start + step], ys[start : start + step], f.arity - top)
        block = _table_order(block, n, f.arity - top)
        sums.append(np.sum(block * f.table[start * span : start * span + block.size]))
    return complex(_sum_halves(sums))


def consistency_check(spec: FilterSpec, system: PathSystem, x: float, f: FiniteCoordFn) -> float:
    """Discrepancy between the arity-n and lifted arity-(n+1) expectations.

    Zero (up to rounding) exactly when the weight is a partition of
    unity over the branches.  Both sides are streamed tree sums
    (expect_finite): for N = 2 bit-identical to numpy's pairwise sum of
    the whole array of terms, for other N that sum reordered.
    """
    a = expect_finite(spec, system, x, f)
    b = expect_finite(spec, system, x, f.lifted())
    return abs(a - b)


def refinement_check(spec: FilterSpec, system: PathSystem, x: float, f: FiniteCoordFn) -> float:
    """Residual of the one-step self-similarity of the measure family.

    Compares sum_i W(branch_i x) * E_{branch_i x}[f(i, .)], the branch
    points and weights of one _branch_weights step, against
    E_x[f], each expectation a streamed tree sum (expect_finite): for
    N = 2 bit-identical to numpy's pairwise sum of the whole array of
    terms, for other N that sum reordered.
    """
    _check_scales(spec, system)
    if f.arity < 1:
        raise ValueError("refinement check needs arity >= 1")
    ys, w = _branch_weights(spec, system, np.array([frac(x)]))
    total = 0.0 + 0.0j
    for i, (yi, wi) in enumerate(zip(ys[:, 0].tolist(), w[:, 0].tolist())):
        total += wi * expect_finite(spec, system, yi, f.slice_first(i))
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
) -> NegativeEmbeddingReport:
    """Measure how the negative-integer atom depends on the word length.

    Every atom of the report (the terminal ones, the literal ones and the
    reference) is taken in one call of the product kernel.
    """
    _check_scales(spec, system)
    if k >= 0:
        raise ValueError("embedding check is for negative k")
    n = system.scale_n
    prefixes, ends, literal_points = [], [], []
    for nn in n_values:
        if n**nn < -k:
            raise ValueError(f"n={nn} is not admissible for k={k}")
        shifted = n ** (nn + 1) + k
        word = system.digits_of(shifted)
        prefixes.append(cylinder_prob(spec, system, x, word))
        ends.append((x + k) / n ** len(word))
        literal_points.append(x + shifted)
    count = len(prefixes)
    atoms = zero_path_atoms(spec, system, ends + literal_points + [x + k]).value
    arr = np.asarray(prefixes) * atoms[:count]
    literal, ref = atoms[count:-1], atoms[-1]
    max_pair = float(np.max(arr) - np.min(arr)) if len(arr) else 0.0
    return NegativeEmbeddingReport(
        x=x,
        k=k,
        n_values=tuple(int(v) for v in n_values),
        values=tuple(float(v) for v in arr),
        literal_values=tuple(float(v) for v in literal),
        reference=float(ref),
        max_pairwise=max_pair,
        max_vs_reference=float(np.max(np.abs(arr - ref))) if len(arr) else 0.0,
    )
