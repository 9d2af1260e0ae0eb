"""The transfer operator of the branch system and its grid iterations.

(Rg)(x) = sum_j W((x+j)/N) g((x+j)/N) summed over the N branches, at a
point one measures._branch_weights step.  Exact powers are tree sums
over all branch words; grid versions carry GridFunctions on the level-L
N-adic cells through the grid operator filters._grid_flows.  The
adjoint iteration moves cell masses along the walk and renormalizes,
approximating the stationary (Ruelle) measure.
"""

from __future__ import annotations

import numpy as np

from .errors import DepthTooLarge
from .filters import FilterSpec, _grid_flows, weight_array
from .ifs import GridFunction, PathSystem, cell_grid, frac
from .measures import MAX_TREE_WORDS, TruncationPolicy, _branch_weights, _check_scales, harmonic_on_grid


def harmonic_gridfunction(
    spec: FilterSpec, system: PathSystem, level: int, policy: TruncationPolicy
) -> GridFunction:
    """The minimal harmonic function (harmonic_on_grid) sampled on the level-L grid.

    Exact, or the lattice sum truncated at K = policy.tail_cutoff_k, by
    the routes of measures.harmonic_masses.
    """
    pts = cell_grid(system.scale_n, level)
    return GridFunction(level, system.scale_n, harmonic_on_grid(spec, system, pts, policy))


def apply_transfer(spec: FilterSpec, system: PathSystem, g, x: float) -> float | complex:
    """One application of the transfer operator at a point.

    g may be a GridFunction (read piecewise-constantly) or any callable,
    real or complex valued; the result is a float or a complex to match.
    x is reduced to [0, 1) first, and g is read at the N branch points
    of frac(x), rounded as in PathSystem.branch_array.
    """
    _check_scales(spec, system)
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
    _check_scales(spec, system)
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
    _check_scales(spec, system)
    lev = h.level if eval_level is None else eval_level
    if lev < 1:
        raise ValueError("need a grid of level >= 1")
    if lev > h.level:
        raise ValueError("cannot evaluate on a finer grid than h carries")
    if h.n_branches != system.scale_n:
        raise ValueError(f"grid scale {h.n_branches} != path-system scale {system.scale_n}")
    every = system.scale_n ** (h.level - lev)
    weights, cells = _grid_flows(spec, h.level, every)
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
    _check_scales(spec, system)
    if level < 1 or iters < 1:
        raise ValueError("need level >= 1 and iters >= 1")
    weights, src = _grid_flows(spec, level)
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
    _check_scales(spec, system)
    if level < 1 or iters < 1:
        raise ValueError("need level >= 1 and iters >= 1")
    cells = system.scale_n**level
    flow_w, targets = _grid_flows(spec, level)
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
