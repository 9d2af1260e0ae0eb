"""The transfer operator of the branch system and its grid iterations.

(Rg)(x) = sum_j W((x+j)/N) g((x+j)/N) summed over the N branches.
Exact powers are tree sums over all branch words; grid versions carry
functions as piecewise-constant values on the level-L N-adic cells.
The adjoint iteration moves cell masses along the walk and renormalizes,
approximating the stationary (Ruelle) measure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DepthTooLarge
from .filters import FilterSpec, weight_array
from .ifs import PathSystem, cell_grid, frac
from .measures import (
    MAX_TREE_WORDS,
    TruncationPolicy,
    _cell_index,
    _check_finite,
    _grid_flows,
    harmonic_on_grid,
)


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Values of a 1-periodic function on the level-L N-adic grid.

    values[m] is the value at m / N**level, read back as a
    piecewise-constant function on the cell [m/N**L, (m+1)/N**L).
    """

    level: int
    n_branches: int
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.level < 0:
            raise ValueError("level must be >= 0")
        expected = self.n_branches**self.level
        if self.values.shape != (expected,):
            raise ValueError(f"values must have length {expected}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid values must be finite")

    @property
    def cells(self) -> int:
        return self.n_branches**self.level

    def grid_points(self) -> np.ndarray:
        return cell_grid(self.n_branches, self.level)

    def value_at(self, x: float) -> float:
        return float(self.values_at([x])[0])

    def values_at(self, xs) -> np.ndarray:
        """The cell values at every x in xs, read 1-periodically; a NaN or
        infinite x raises NonFiniteArgument."""
        xs = np.asarray(xs, dtype=np.float64)
        _check_finite(xs)
        return self.values[_cell_index(xs, self.cells)]

    @classmethod
    def from_callable(cls, fn, level: int, n_branches: int) -> "GridFunction":
        pts = cell_grid(n_branches, level)
        vals = np.asarray([float(fn(p)) for p in pts])
        return cls(level, n_branches, vals)


def harmonic_gridfunction(
    spec: FilterSpec, system: PathSystem, level: int, policy: TruncationPolicy
) -> GridFunction:
    """The minimal harmonic function (harmonic_on_grid) sampled on the level-L grid.

    Exact for a low-pass partition coefficient filter (a trigonometric
    polynomial) and for a tabulated partition with breakpoints on the
    N**-L' grid, N**L' <= MAX_CHAIN_CELLS (a level-L' step function); the
    lattice sum truncated at K = policy.tail_cutoff_k for every other
    filter.
    """
    pts = cell_grid(system.scale_n, level)
    return GridFunction(level, system.scale_n, harmonic_on_grid(spec, system, pts, policy))


def _branch_weights(spec: FilterSpec, system: PathSystem, xs: np.ndarray):
    """Branch points (x + j)/N of states xs, shape (N, len(xs)), and W there."""
    ys = system.branch_array(np.arange(system.scale_n)[:, None], xs)
    return ys, weight_array(spec, ys)


def apply_transfer(spec: FilterSpec, system: PathSystem, g, x: float) -> float | complex:
    """One application of the transfer operator at a point.

    g may be a GridFunction (read piecewise-constantly) or any callable,
    real or complex valued; the result is a float or a complex to match.
    x is reduced to [0, 1) first, and g is read at the N branch points
    of frac(x), rounded as in PathSystem.branch_array.
    """
    read = g.value_at if isinstance(g, GridFunction) else g
    ys, weights = _branch_weights(spec, system, np.array([frac(x)]))
    gvals = np.asarray([read(y) for y in ys[:, 0].tolist()])
    return (weights[:, 0] * gvals).sum().item()


def apply_transfer_n(spec: FilterSpec, system: PathSystem, g, x: float, n: int) -> float:
    """Exact n-th power via the full preimage tree.

    The N**n preimages of x are (x + k)/N**n, the branches of the system
    at scale N**n and rounded as they are; each carries the product of
    weights along its forward orbit.  n = 0 returns g(x).
    """
    if n < 0:
        raise ValueError("power must be >= 0")
    read = g.value_at if isinstance(g, GridFunction) else g
    if n == 0:
        return float(read(frac(x)))
    nb = system.scale_n
    count = nb**n
    if count > MAX_TREE_WORDS:
        raise DepthTooLarge(f"{nb}**{n} preimages exceed the tree budget")
    ys = PathSystem(count).branch_array(np.arange(count), frac(x))
    weights = np.ones(count, dtype=np.float64)
    orbit = ys.copy()
    for _ in range(n):
        weights *= weight_array(spec, orbit)
        orbit = np.mod(orbit * nb, 1.0)
    gvals = np.asarray([read(y) for y in ys], dtype=np.float64)
    return float(np.sum(weights * gvals))


def harmonic_residual(
    spec: FilterSpec,
    system: PathSystem,
    h: GridFunction,
    eval_level: int | None = None,
) -> float:
    """Max of |(Rh)(x) - h(x)| over the level-`eval_level` grid points.

    Rh is the grid transfer operator on h's own grid (_grid_flows), which
    finds each branch point's cell in integers, not from a rounded point,
    taken at the level-`eval_level` points: every N**(L - eval_level)-th.
    With eval_level = h.level - 1 every read lands on a grid point of h,
    so the residual measures the function, not the interpolation.
    """
    lev = h.level if eval_level is None else eval_level
    if lev < 1:
        raise ValueError("need a grid of level >= 1")
    if lev > h.level:
        raise ValueError("cannot evaluate on a finer grid than h carries")
    if h.n_branches != system.scale_n:
        raise ValueError(f"grid scale {h.n_branches} != path-system scale {system.scale_n}")
    every = system.scale_n ** (h.level - lev)
    weights, cells = _grid_flows(spec, system, h.level, every)
    acc = (weights * h.values[cells]).sum(axis=0)
    return float(np.max(np.abs(acc - h.values[::every])))


def power_iterate(
    spec: FilterSpec,
    system: PathSystem,
    level: int,
    iters: int,
) -> tuple[GridFunction, np.ndarray]:
    """Iterate g <- Rg from the constant 1 on the level-L grid.

    Returns the final grid function and the per-iteration sup change.
    For a weight that is an exact partition of unity the constant 1 is
    already a fixed point, so the sup change certifies the partition;
    no convergence toward the minimal harmonic function is claimed.
    """
    if level < 1 or iters < 1:
        raise ValueError("need level >= 1 and iters >= 1")
    weights, src = _grid_flows(spec, system, level)
    vals = np.ones(system.scale_n**level, dtype=np.float64)
    history = np.empty(iters, dtype=np.float64)
    for t in range(iters):
        new = np.sum(weights * vals[src], axis=0)
        history[t] = float(np.max(np.abs(new - vals)))
        vals = new
    return GridFunction(level, system.scale_n, vals), history


def ruelle_measure(
    spec: FilterSpec,
    system: PathSystem,
    level: int,
    iters: int,
) -> tuple[GridFunction, float]:
    """Stationary cell masses of the walk, by adjoint power iteration.

    Mass at the cell of x flows to the cells of the branch points
    (x+j)/N weighted by W((x+j)/N); masses are renormalized to total 1
    each sweep.  Returns the final masses and the last L1 change.
    """
    if level < 1 or iters < 1:
        raise ValueError("need level >= 1 and iters >= 1")
    cells = system.scale_n**level
    flow_w, targets = _grid_flows(spec, system, level)
    targets = targets.ravel()
    mass = np.full(cells, 1.0 / cells, dtype=np.float64)
    residual = np.inf
    for _ in range(iters):
        new = np.bincount(targets, (flow_w * mass).ravel(), minlength=cells)
        total = new.sum()
        if total > 0:
            new /= total
        residual = float(np.abs(new - mass).sum())
        mass = new
    return GridFunction(level, system.scale_n, mass), residual
