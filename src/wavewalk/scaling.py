"""Scaling-function construction and the subband coefficient pipeline.

Two routes to the scaling function of a coefficient filter: the
frequency-domain product of responses m(x/N) m(x/N^2) ..., settled by
the one zero-path product kernel of measures (scaling_hat), and the
time-domain cascade iteration phi <- N sum_k a_k phi(N. - k)
on a dyadic sample grid.  On top of those sit the norm and
autocorrelation checks (via the minimal harmonic function
h(x) = sum_k |phi^(x + k)|^2 of measures.harmonic_on_grid, so cascade
error cannot contaminate them; h is exact for a low-pass partition
filter and for an on-grid tabulated partition, and a lattice sum
truncated at K otherwise) and the banded
analysis operators that compute wavelet coefficients of discrete
signals.

Sign conventions: Fourier transform with kernel exp(-i 2 pi t x); the
companion wavelet uses b_k = (-1)**(k+1) conj(a_{1-k}).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import FilterKindError, NonFiniteArgument, UnsupportedScale
from .filters import FilterSpec, KIND_COEFFICIENTS, _response_closure, high_pass, response_array
from .ifs import PathSystem, cell_grid, grid_cells
from .measures import MeasureValue, TruncationPolicy, _zero_path_products, harmonic_on_grid


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


def scaling_hat(spec: FilterSpec, system: PathSystem, x: float) -> MeasureValue:
    """The Fourier transform of the scaling function at x: prod_n m(x/N**n).

    The zero-path product kernel of measures, with the response m for the
    weight, and its record: a MeasureValue whose value is complex.  Where
    m(0) = 1, the series of log m closes the product once
    |x/N**n| <= r/128, and tail_bound is the proven relative bound on that
    closed rest (2**-60 or less).  Where m(0) != 1 it stops at the first
    step: at 0 for |m(0)| < 1 (tail_bound 0, the value is exact), else
    unconverged at NaN with tail_bound None (no limit, as for m(0) = i).
    The squared magnitude agrees with the zero-path atom wherever both
    converge.  A NaN or infinite x raises NonFiniteArgument.
    """
    spec._need_coefficients()
    if not math.isfinite(x):
        raise NonFiniteArgument(f"transform of phi at {x!r}")
    return _zero_path_products(
        functools.partial(response_array, spec), _response_closure(spec), system.scale_n, [x], dtype=np.complex128
    ).at(0)


# ----------------------------------------------------------------------
# time-domain cascade


def _coeff_span(spec: FilterSpec) -> tuple[int, int]:
    ks = [k for k, _ in spec.coeffs]
    return min(ks), max(ks)


def _add_strided(out: np.ndarray, c, src: np.ndarray, off: int, n: int) -> None:
    """out[i] += c * src[off + n*i] wherever 0 <= off + n*i < len(src)."""
    lo = max(0, -(off // n))
    hi = min(len(out), (len(src) - 1 - off) // n + 1)
    if lo < hi:
        out[lo:hi] += c * src[off + n * lo : off + n * hi : n]


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
    new = np.zeros(len(phi.samples), dtype=np.complex128)
    for k, a in spec.coeffs:
        _add_strided(new, n * a, phi.samples, ((n - 1) * t_min - k) * cells, n)
    return SampledFunction(phi.t_min, phi.t_max, phi.step, new)


def cascade(spec: FilterSpec, system: PathSystem, iters: int, level: int) -> SampledFunction:
    """Cascade iteration from the unit box, sampled at step N**-level.

    The sample window is the hull of [0, 1) and the limit support
    [k_min, k_max] / (N - 1).  A negative iteration count or level raises
    ValueError, and a window whose samples cannot be allocated
    GridTooLarge.
    """
    spec._need_coefficients()
    if iters < 0:
        raise ValueError(f"iters must be >= 0, got {iters}")
    n = system.scale_n
    k_lo, k_hi = _coeff_span(spec)
    t_min = min(0, int(np.floor(k_lo / (n - 1))))
    t_max = max(1, int(np.ceil(k_hi / (n - 1))) + 1)
    with grid_cells(n, level) as cells:
        start = np.zeros((t_max - t_min) * cells, dtype=np.complex128)
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
    psi = np.zeros((t_max - t_min) * cells, dtype=np.complex128)
    phi_min_idx = round(phi.t_min * cells)
    for k, b in hp.coeffs:
        _add_strided(psi, 2 * b, phi.samples, (2 * t_min - k) * cells - phi_min_idx, 2)
    return SampledFunction(float(t_min), float(t_max), phi.step, psi)


# ----------------------------------------------------------------------
# norm and autocorrelation via the minimal harmonic function


def scaling_norm_sq(spec: FilterSpec, system: PathSystem, policy: TruncationPolicy, level: int) -> float:
    """Squared L2 norm of the scaling function.

    Midpoint quadrature of h = harmonic_on_grid over one period;
    unfolding the integer sum turns the period integral into the line
    integral of the squared Fourier transform.  Where h is the exact
    trigonometric polynomial of degree L < N**level, or the exact step
    function of a table on the N**-L grid with L <= level, the
    quadrature is exact too; elsewhere h is the lattice sum truncated
    at K.
    """
    mids = cell_grid(system.scale_n, level, 0.5)
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
    mids = cell_grid(system.scale_n, level, 0.5)
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


def _wrapped(k: int, length: int):
    """n -> (2n + k) % length for n < length/2, length even, as strided slices.

    Returns the (n slice, index slice) pairs of the two runs that wrap
    around the period; the second is empty when nothing wraps.
    """
    half = length // 2
    r = k % length
    m = (length - r + 1) // 2
    s = 2 * m + r - length
    return ((slice(0, m), slice(r, r + 2 * m, 2)),
            (slice(m, half), slice(s, s + 2 * (half - m), 2)))


def _analysis_step(taps, signal: np.ndarray) -> np.ndarray:
    out = np.zeros(len(signal) // 2, dtype=np.complex128)
    for k, c in taps:
        for ns, idx in _wrapped(k, len(signal)):
            out[ns] += c * signal[idx]
    return out / np.sqrt(2.0)


def _synthesis_step(taps, coeffs: np.ndarray, length: int) -> np.ndarray:
    out = np.zeros(length, dtype=np.complex128)
    for k, c in taps:
        vals = np.conjugate(c) * coeffs
        for ns, idx in _wrapped(k, length):
            out[idx] += vals[ns]
    return out / np.sqrt(2.0)


def wavelet_coeffs(spec: FilterSpec, signal, levels: int) -> tuple[list[np.ndarray], np.ndarray]:
    """Detail bands [G s, G F s, ...] and the final smooth band F**levels s.

    Periodic wrap; the signal length must be a positive multiple of
    2**levels, and levels must be >= 0, else ValueError.  For quadrature
    filters total coefficient energy equals signal energy.
    """
    if levels < 0:
        raise ValueError(f"levels must be >= 0, got {levels}")
    sl = build_slanted(spec)
    s = np.asarray(signal, dtype=np.complex128)
    if len(s) == 0 or len(s) % (1 << levels):
        raise ValueError(f"signal length {len(s)} is not a positive multiple of 2**{levels}")
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
