"""Reference values that do not go through wavewalk.

Closed forms from the theory (sinc^2 atoms, the stretched-Haar harmonic
function and its lags) and brute-force routes written with numpy and
math only (the weight straight from its definition, products of it
along a word, the N-adic atom as a fixed-depth product).  The
benchmark's own tests check each closed form against a brute-force
computation.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

#: errors below this are rounding, not a change of route or accuracy
ROUNDING_FLOOR = 1e-12
#: the atom and tree-sum accuracy the acceptance criteria state
ATOM_TOL = 1e-8
#: per-factor rounding of a product atom, see atom_rounding: 4 units of
#: roundoff u = 2**-53 (wavewalk's haar and stretched-Haar atoms stay
#: below 0.4 u on 12,000 points, 6,000 of them within 1e-3 of a zero)
ATOM_ROUNDING = 4 * 2.0**-53
TREE_TOL = 1e-10
#: relative error allowed on conserved energies and round trips
ENERGY_RTOL = 1e-10
#: a Monte Carlo estimate this many standard errors off is a failure
MC_Z_MAX = 6.0


def tail_tol(k_cutoff: int) -> float:
    """Tolerance for a lattice sum truncated at |k| <= K.

    Twice the tail bound 2 / (pi^2 K) of the slowest-decaying gallery
    atom, sinc^2, so a correct truncated sum reads at most about 0.5.
    """
    return 4.0 / (math.pi**2 * k_cutoff)


def scaled_sinc_sq(k: int, x):
    """sinc^2(k x) = (sin(pi k x) / (pi k x))^2 for a small integer k, to a few ulp.

    np.sinc(k * x) loses all relative accuracy near the zeros k x = m:
    rounding k x and pi k x leaves an absolute error of about ulp(k x)
    in the angle.  Here k x is formed exactly as a pair hi + lo (Dekker's
    split; k has at most a few bits) and the sine is taken of the reduced
    angle pi (k x - round(k x)), which is exact up to the last addition.
    """
    x = np.asarray(x, dtype=np.float64)
    t = 134217729.0 * x  # 2**27 + 1
    x_hi = t - (t - x)
    x_lo = x - x_hi
    z = k * x
    z_lo = (k * x_hi - z) + k * x_lo
    r = (z - np.round(z)) + z_lo
    with np.errstate(invalid="ignore", divide="ignore"):
        out = (np.sin(np.pi * r) / (np.pi * z)) ** 2
    return np.where(z == 0.0, 1.0, out)


def sinc_sq(x):
    """The Haar atom |phi^(x)|^2 = (sin(pi x) / (pi x))^2."""
    return scaled_sinc_sq(1, x)


def stretched_atom(x):
    """The stretched-Haar atom: phi = chi_[0,3) / 3, so |phi^(x)|^2 = sinc^2(3x)."""
    return scaled_sinc_sq(3, x)


def atom_rounding(spec, x: float, depth: int = 64) -> float:
    """Relative error that float64 rounding alone can put on a product atom at x.

    The factor W(x / N^n) is computed with an absolute error of a few
    ulp of its angle, 2 pi k_max |x / N^n|, plus a few ulp of 1; that
    error reaches the product divided by the factor.  So near a zero of
    one factor (x / N^n close to a zero of W) no product route can be
    accurate to a fixed relative tolerance, and this is the allowance:
    ATOM_ROUNDING times sum_n (1 + 2 pi k_max |x / N^n|) / W(x / N^n).
    """
    k_max = max(abs(k) for k, _ in spec.coeffs) if spec.kind == "coefficients" else 0
    xn = x / float(spec.scale_n) ** np.arange(1, depth + 1)
    with np.errstate(divide="ignore"):
        cond = np.sum((1.0 + 2.0 * np.pi * k_max * np.abs(xn)) / weight(spec, xn))
    return ATOM_ROUNDING * float(cond)


def stretched_h(x):
    """Minimal harmonic function of stretched Haar: sum_k sinc^2(3(x + k))."""
    x = np.asarray(x, dtype=np.float64)
    return 1 / 3 + (4 / 9) * np.cos(2 * np.pi * x) + (2 / 9) * np.cos(4 * np.pi * x)


def stretched_lag(n: int) -> float:
    """<phi, phi(. - n)> for phi = chi_[0,3) / 3."""
    return max(0, 3 - abs(n)) / 9


def onb_lag(n: int) -> float:
    """Lags of an orthonormal scaling function."""
    return 1.0 if n == 0 else 0.0


def lags_from_samples(xs, h, lags):
    """Fourier coefficients int h(x) e^{2 pi i n x} dx from a uniform grid.

    xs is a shifted uniform grid of one period; the rule is exact for
    trigonometric polynomials of degree below len(xs) - max(lags).
    """
    xs = np.asarray(xs, dtype=np.float64)
    return [float(np.mean(h * np.cos(2 * np.pi * n * xs))) for n in lags]


def weight(spec, xs):
    """W(x) from the filter definition, without wavewalk's kernels.

    Coefficient filters: |sum_k a_k e^{-2 pi i k x}|^2 term by term.
    Tabulated filters: the piece [b_i, b_{i+1}) holding x mod 1.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if spec.kind == "coefficients":
        m = np.zeros(xs.shape, dtype=np.complex128)
        for k, a in spec.coeffs:
            m += a * np.exp(-2j * np.pi * k * xs)
        return np.abs(m) ** 2
    r = np.mod(xs, 1.0)
    idx = [bisect.bisect_right(spec.breakpoints, float(v)) - 1 for v in r.ravel()]
    return np.asarray([spec.values[i] for i in idx], dtype=np.float64).reshape(xs.shape)


def atom(spec, xs, depth: int = 64):
    """prod_{n=1..depth} W(x / N**n); past depth 60 the factors are 1 to rounding."""
    xs = np.asarray(xs, dtype=np.float64)
    p = np.ones_like(xs)
    for n in range(1, depth + 1):
        p *= weight(spec, xs / float(spec.scale_n) ** n)
    return p


def partial_products(spec, x: float, count: int):
    """[1, W(x/N), W(x/N) W(x/N^2), ...] with count + 1 entries."""
    out = [1.0]
    for n in range(1, count + 1):
        out.append(out[-1] * float(weight(spec, x / float(spec.scale_n) ** n)))
    return out


def cylinder(spec, x: float, digits) -> float:
    """Mass of the cylinder of a digit word: the product of W along its walk."""
    y = x % 1.0
    p = 1.0
    for d in digits:
        y = (y + d) / spec.scale_n
        p *= float(weight(spec, y))
    return p


def two_digit_mean(spec, x: float, g) -> float:
    """E_x[g(w_1, w_2)] as the explicit sum over the N^2 two-digit words."""
    n = spec.scale_n
    return sum(
        cylinder(spec, x, (i, j)) * g[i][j] for i in range(n) for j in range(n)
    )


def mc_z(estimate: float, p: float, trials: int) -> float:
    """Standard score of an estimated cylinder mass against its exact value.

    The standard error is that of the exact p, so a degenerate estimate
    cannot shrink its own error bar.  p in {0, 1} admits no deviation.
    """
    if p <= 0.0 or p >= 1.0:
        return 0.0 if estimate == p else math.inf
    return abs(estimate - p) / math.sqrt(p * (1.0 - p) / trials)
