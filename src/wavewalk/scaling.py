"""Scaling-function construction and the subband coefficient pipeline.

Two routes to the scaling function of a coefficient filter: the
frequency-domain truncated product of responses m(x/N) m(x/N^2) ...,
and the time-domain cascade iteration phi <- N sum_k a_k phi(N. - k)
on a dyadic sample grid.  On top of those sit the norm and
autocorrelation checks (via the minimal harmonic function
h(x) = sum_k |phi^(x + k)|^2 of measures.harmonic_on_grid, so cascade
error cannot contaminate them; h is exact for a low-pass partition
filter and a lattice sum truncated at K otherwise) and the banded
analysis operators that compute wavelet coefficients of discrete
signals.

Sign conventions: Fourier transform with kernel exp(-i 2 pi t x); the
companion wavelet uses b_k = (-1)**(k+1) conj(a_{1-k}).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FilterKindError, UnsupportedScale
from .filters import FilterSpec, KIND_COEFFICIENTS, high_pass, response_array
from .ifs import PathSystem
from .measures import ATOM_UNDERFLOW, TruncationPolicy, harmonic_on_grid


@dataclass(frozen=True, eq=False)
class SampledFunction:
    """Complex samples on a uniform grid t_min + i*step, step = N**-L."""

    t_min: float
    t_max: float
    step: float
    samples: np.ndarray

    def __post_init__(self) -> None:
        expected = round((self.t_max - self.t_min) / self.step)
        if len(self.samples) != expected:
            raise ValueError(f"expected {expected} samples, got {len(self.samples)}")

    def grid(self) -> np.ndarray:
        return self.t_min + self.step * np.arange(len(self.samples))

    def norm_sq(self) -> float:
        """Riemann-sum squared L2 norm."""
        return float(np.sum(np.abs(self.samples) ** 2) * self.step)

    def integral(self) -> complex:
        return complex(np.sum(self.samples) * self.step)


@dataclass(frozen=True)
class ProductValue:
    """A truncated complex product with its convergence bookkeeping."""

    value: complex
    converged: bool
    depth_used: int


def scaling_hat_partial(spec: FilterSpec, system: PathSystem, x: float, depth: int) -> complex:
    """Depth-pinned product m(x/N) * (product of depth-1 at x/N).

    Computed by exactly that recursion (right-fold), so the one-step
    scaling relation holds bit for bit at any fixed depth.
    """
    spec._need_coefficients()
    n = system.scale_n
    pts = np.empty(depth, dtype=np.float64)
    y = float(x)
    for i in range(depth):
        y = y / n
        pts[i] = y
    factors = response_array(spec, pts)
    acc = 1.0 + 0.0j
    for f in factors[::-1]:
        acc = f * acc
    return complex(acc)


def scaling_hat(spec: FilterSpec, system: PathSystem, x: float, policy: TruncationPolicy) -> ProductValue:
    """Truncated Fourier transform of the scaling function at x.

    Same stall rule as the zero-path atom: stop once `stall_window`
    consecutive response factors sit within `convergence_tol` of 1.
    The squared magnitude agrees with the zero-path atom wherever both
    converge.
    """
    spec._need_coefficients()
    n = system.scale_n
    acc = 1.0 + 0.0j
    y = float(x)
    streak = 0
    for step in range(1, policy.product_depth + 1):
        y = y / n
        f = complex(response_array(spec, np.array([y]))[0])
        acc *= f
        # same stall gate as the atom products: near-1 factors count
        # only once the argument sits inside |y| < 1/2
        if abs(1.0 - f) <= policy.convergence_tol and abs(y) < 0.5:
            streak += 1
        else:
            streak = 0
        if abs(acc) < ATOM_UNDERFLOW:
            return ProductValue(0.0 + 0.0j, True, step)
        if streak >= policy.stall_window:
            return ProductValue(acc, True, step)
    return ProductValue(acc, False, policy.product_depth)


# ----------------------------------------------------------------------
# time-domain cascade


def _coeff_span(spec: FilterSpec) -> tuple[int, int]:
    ks = [k for k, _ in spec.coeffs]
    return min(ks), max(ks)


def cascade_step(spec: FilterSpec, system: PathSystem, phi: SampledFunction) -> SampledFunction:
    """One refinement application N sum_k a_k phi(N. - k) on phi's window.

    The window endpoints must be integers and the step N**-L, so the
    arguments N*t - k land on the same grid family and no interpolation
    is involved.  Mass refined outside the window is dropped; callers
    keep the window at least the limit support hull.
    """
    spec._need_coefficients()
    n = system.scale_n
    cells = round(1.0 / phi.step)
    t_min = round(phi.t_min)
    if t_min != phi.t_min or round(phi.t_max) != phi.t_max:
        raise ValueError("cascade window endpoints must be integers")
    total = len(phi.samples)
    base = (n - 1) * t_min * cells + n * np.arange(total, dtype=np.int64)
    new = np.zeros(total, dtype=np.complex128)
    for k, a in spec.coeffs:
        src = base - k * cells
        ok = (src >= 0) & (src < total)
        new[ok] += n * a * phi.samples[src[ok]]
    return SampledFunction(phi.t_min, phi.t_max, phi.step, new)


def cascade(spec: FilterSpec, system: PathSystem, iters: int, level: int) -> SampledFunction:
    """Cascade iteration from the unit box, sampled at step N**-level.

    The sample window is the hull of [0, 1) and the limit support
    [k_min, k_max] / (N - 1).
    """
    spec._need_coefficients()
    n = system.scale_n
    k_lo, k_hi = _coeff_span(spec)
    t_min = min(0, int(np.floor(k_lo / (n - 1))))
    t_max = max(1, int(np.ceil(k_hi / (n - 1))) + 1)
    cells = n**level
    total = (t_max - t_min) * cells
    start = np.zeros(total, dtype=np.complex128)
    start[(0 - t_min) * cells : (1 - t_min) * cells] = 1.0
    phi = SampledFunction(float(t_min), float(t_max), 1.0 / cells, start)
    for _ in range(iters):
        phi = cascade_step(spec, system, phi)
    return phi


def wavelet_from_scaling(spec: FilterSpec, phi: SampledFunction) -> SampledFunction:
    """Companion wavelet 2 sum_k b_k phi(2t - k) on the same grid family."""
    if spec.scale_n != 2:
        raise UnsupportedScale("the companion wavelet is dyadic")
    hp = high_pass(spec)
    b_lo, b_hi = _coeff_span(hp)
    cells = round(1.0 / phi.step)
    t_min = int(np.floor((phi.t_min + b_lo) / 2))
    t_max = int(np.ceil((phi.t_max + b_hi) / 2))
    total = (t_max - t_min) * cells
    idx = np.arange(total, dtype=np.int64)
    psi = np.zeros(total, dtype=np.complex128)
    phi_min_idx = round(phi.t_min * cells)
    for k, b in hp.coeffs:
        src = 2 * (t_min * cells + idx) - k * cells - phi_min_idx
        ok = (src >= 0) & (src < len(phi.samples))
        psi[ok] += 2 * b * phi.samples[src[ok]]
    return SampledFunction(float(t_min), float(t_max), phi.step, psi)


# ----------------------------------------------------------------------
# norm and autocorrelation via the minimal harmonic function


def scaling_norm_sq(spec: FilterSpec, system: PathSystem, policy: TruncationPolicy, level: int) -> float:
    """Squared L2 norm of the scaling function.

    Midpoint quadrature of h = harmonic_on_grid over one period;
    unfolding the integer sum turns the period integral into the line
    integral of the squared Fourier transform.  Where h is the exact
    trigonometric polynomial of degree L < N**level, the quadrature is
    exact too; elsewhere h is the lattice sum truncated at K.
    """
    cells = system.scale_n**level
    mids = (np.arange(cells, dtype=np.float64) + 0.5) / cells
    return float(np.mean(harmonic_on_grid(spec, system, mids, policy)))


@dataclass(frozen=True)
class Autocorrelation:
    """Lag-k autocorrelation with the off-real leakage kept visible."""

    value: float
    imag_residual: float


def autocorrelation(
    spec: FilterSpec,
    system: PathSystem,
    lags,
    policy: TruncationPolicy,
    level: int,
) -> list[Autocorrelation]:
    """Fourier coefficients of h = the autocorrelations at lags.

    Midpoint quadrature of h(x) exp(i 2 pi k x) over one period, one
    Autocorrelation per lag k in `lags`, all from a single evaluation of
    h = harmonic_on_grid on the level-`level` grid: exact for a low-pass
    partition filter while |k| + L < N**level, and from the lattice sum
    truncated at K otherwise.  The imaginary part must vanish for any
    real filter and is reported as a sanity residual.
    """
    cells = system.scale_n**level
    mids = (np.arange(cells, dtype=np.float64) + 0.5) / cells
    h = harmonic_on_grid(spec, system, mids, policy)
    vals = [complex(np.mean(h * np.exp(2j * np.pi * k * mids))) for k in lags]
    return [Autocorrelation(value=v.real, imag_residual=abs(v.imag)) for v in vals]


def autocorrelation_time_domain(phi: SampledFunction, k: int) -> float:
    """Riemann-sum <phi, phi(. - k)> as a cross-check for sampled phi."""
    shift = round(k / phi.step)
    a = phi.samples
    if shift >= len(a) or shift <= -len(a):
        return 0.0
    if shift >= 0:
        overlap = np.conjugate(a[shift:]) * a[: len(a) - shift]
    else:
        overlap = np.conjugate(a[:shift]) * a[-shift:]
    return float(np.real(np.sum(overlap) * phi.step))


# ----------------------------------------------------------------------
# banded analysis operators (dyadic subband pipeline)


@dataclass(frozen=True, eq=False)
class SlantedMatrices:
    """Banded analysis taps with the 2-shift row structure.

    Row n of the smoothing operator is (1/sqrt 2) P_{k-2n} with
    P_k = 2 a_k; the detail operator uses Q_k = 2 b_k from the
    high-pass mirror.  Signals are treated periodically.
    """

    low_taps: tuple[tuple[int, complex], ...]
    high_taps: tuple[tuple[int, complex], ...]


def build_slanted(spec: FilterSpec) -> SlantedMatrices:
    if spec.kind != KIND_COEFFICIENTS:
        raise FilterKindError("subband pipeline needs a coefficient filter")
    if spec.scale_n != 2:
        raise UnsupportedScale("subband pipeline is dyadic")
    hp = high_pass(spec)
    return SlantedMatrices(
        low_taps=tuple((k, 2 * v) for k, v in spec.coeffs),
        high_taps=tuple((k, 2 * v) for k, v in hp.coeffs),
    )


def _analysis_step(taps, signal: np.ndarray) -> np.ndarray:
    length = len(signal)
    half = length // 2
    out = np.zeros(half, dtype=np.complex128)
    ns = np.arange(half)
    for k, c in taps:
        out += c * signal[(2 * ns + k) % length]
    return out / np.sqrt(2.0)


def _synthesis_step(taps, coeffs: np.ndarray, length: int) -> np.ndarray:
    out = np.zeros(length, dtype=np.complex128)
    ns = np.arange(len(coeffs))
    for k, c in taps:
        np.add.at(out, (2 * ns + k) % length, np.conjugate(c) * coeffs)
    return out / np.sqrt(2.0)


def wavelet_coeffs(spec: FilterSpec, signal, levels: int) -> tuple[list[np.ndarray], np.ndarray]:
    """Detail bands [G s, G F s, ...] and the final smooth band F**levels s.

    Periodic wrap; the signal length must be divisible by 2**levels.
    For quadrature filters total coefficient energy equals signal
    energy.
    """
    sl = build_slanted(spec)
    s = np.asarray(signal, dtype=np.complex128)
    if len(s) % (1 << levels):
        raise ValueError(f"signal length {len(s)} not divisible by 2**{levels}")
    details = []
    for _ in range(levels):
        details.append(_analysis_step(sl.high_taps, s))
        s = _analysis_step(sl.low_taps, s)
    return details, s


def wavelet_reconstruct(spec: FilterSpec, details, smooth) -> np.ndarray:
    """Adjoint synthesis; inverts wavelet_coeffs for quadrature filters."""
    sl = build_slanted(spec)
    s = np.asarray(smooth, dtype=np.complex128)
    for band in reversed(list(details)):
        length = 2 * len(band)
        s = _synthesis_step(sl.low_taps, s, length) + _synthesis_step(
            sl.high_taps, np.asarray(band, dtype=np.complex128), length
        )
    return s
