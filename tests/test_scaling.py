import math
import re

import mpmath
import numpy as np
import pytest

import wavewalk as ww
from wavewalk.scaling import SampledFunction

from conftest import DIVERGENT, TABLE16, complex_quadrature_filter, quadrature_family, sinc_sq


def exact_stretched_phi(level=7):
    """The fixed point chi_[0,3)/3 sampled on the stretched-Haar window."""
    cells = 2**level
    samples = np.zeros(4 * cells, dtype=np.complex128)
    samples[: 3 * cells] = 1 / 3
    return SampledFunction(0.0, 4.0, 1.0 / cells, samples)


# ----------------------------------------------------------------------
# frequency route


def test_scaling_hat_at_zero(haar, d4, stretched, system2):
    for spec in (haar, d4, stretched):
        got = ww.scaling_hat(spec, system2, 0.0)
        assert got.converged
        assert got.value == pytest.approx(1.0, abs=1e-12)


def test_scaling_hat_haar_values(haar, system2):
    # the response at 1/2 vanishes only to round-off in the complex route
    assert abs(ww.scaling_hat(haar, system2, 1.0).value) < 1e-15
    half = ww.scaling_hat(haar, system2, 0.5)
    assert abs(half.value) == pytest.approx(2 / math.pi, abs=1e-9)


def test_scaling_hat_squared_is_atom(haar, d4, system2, policy):
    # both products close by their series well within depth 40, so every
    # draw converges on both routes and is compared
    rng = np.random.Generator(np.random.Philox(key=np.uint64(23)))
    compared = 0
    for spec in (haar, d4):
        for _ in range(20):
            x = float(6 * rng.random() - 3)
            hat = ww.scaling_hat(spec, system2, x)
            atom = ww.zero_path_atom(spec, system2, x, policy)
            assert hat.converged
            if atom.converged:
                assert abs(hat.value) ** 2 == pytest.approx(atom.value, abs=1e-9)
                compared += 1
    assert compared == 40


@pytest.mark.parametrize("name", ["d4", "haar", "stretched_haar", "complex", "box3"])
def test_scaling_hat_satisfies_the_scaling_relation(name):
    # phi^(x) = m(x/N) phi^(x/N): both sides step the same y = x/N**n and
    # stop at the same step, so they differ only by the grouping of the factors
    from wavewalk.filters import response_array

    spec = {"complex": complex_quadrature_filter(7),
            "box3": ww.FilterSpec.from_coefficients({0: 1 / 3, 1: 1 / 3, 2: 1 / 3}, scale_n=3),
            }.get(name) or ww.load_gallery(name)
    n = spec.scale_n
    system = ww.PathSystem(n)
    rng = np.random.default_rng(53)
    for x in np.concatenate([rng.uniform(-5.0, 5.0, 300), rng.uniform(-3000.0, 3000.0, 300)]).tolist():
        lhs = ww.scaling_hat(spec, system, x)
        rest = ww.scaling_hat(spec, system, x / n)
        rhs = complex(response_array(spec, np.array([x / n]))[0]) * rest.value
        assert lhs.converged and rest.converged
        assert abs(lhs.value - rhs) <= 32 * np.finfo(float).eps * abs(rhs), (x, lhs.value, rhs)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_scaling_hat_at_the_float_maximum_raises_no_overflow(d4, system2):
    # the response reduces its argument first, so 2 pi x / N is never formed
    got = ww.scaling_hat(d4, system2, 1.7e308)
    assert got.converged and math.isfinite(abs(got.value))


def test_scaling_hat_keeps_its_phase_far_out(d4, system2, policy):
    # at |x| = 1e300 the first fractional y is a half-integer; d4's response
    # vanishes there to rounding, the other two filters' does not
    for spec in (d4, ww.FilterSpec.from_coefficients({0: 0.6, 1: 0.4}),
                 ww.FilterSpec.from_coefficients({-1: 0.3, 0: 0.5, 2: 0.2})):
        for x in (1e300, -1e300):
            hat = ww.scaling_hat(spec, system2, x)
            atom = ww.zero_path_atom(spec, system2, x, policy)
            assert hat.converged and atom.converged
            assert abs(abs(hat.value) ** 2 - atom.value) <= 1e-13 * atom.value + 1e-60, (spec.label, x)


# ----------------------------------------------------------------------
# cascade route


def test_cascade_haar_exact_fixed_point(haar, system2):
    phi = ww.cascade(haar, system2, iters=8, level=8)
    cells = 256
    assert np.all(phi.samples[:cells] == 1.0)
    assert np.all(phi.samples[cells:] == 0.0)
    assert phi.norm_sq() == pytest.approx(1.0)


def test_cascade_step_fixes_stretched_box(stretched, system2):
    # chi_[0,3)/3 solves phi(t) = phi(2t) + phi(2t - 3): substitution is exact
    phi = exact_stretched_phi()
    again = ww.cascade_step(stretched, system2, phi)
    assert np.array_equal(again.samples, phi.samples)


def test_cascade_d4_norm(d4, system2):
    phi = ww.cascade(d4, system2, iters=10, level=8)
    assert phi.norm_sq() == pytest.approx(1.0, abs=1e-3)
    assert phi.integral().real == pytest.approx(1.0, abs=1e-12)


def test_cascade_stretched_weak_limit_only(stretched, system2):
    # iterates keep unit mass and unit energy; the box limit shows up in
    # averages, not in L2: the energy never drops toward 1/3
    phi = ww.cascade(stretched, system2, iters=12, level=10)
    assert phi.integral().real == pytest.approx(1.0, abs=1e-12)
    assert phi.norm_sq() == pytest.approx(1.0, abs=1e-12)
    cells = 1024
    mean_box = float(np.real(np.mean(phi.samples[: 3 * cells])))
    assert mean_box == pytest.approx(1 / 3, abs=1e-12)


def fine_grid_cascade(spec, system, iters, level):
    """The cascade refined on the level-`level` grid from the box on: the
    per-step reference for cascade, which refines at its iterate's resolution."""
    box = ww.cascade(spec, system, 0, 0)
    cells = system.scale_n**level
    phi = SampledFunction(box.t_min, box.t_max, 1.0 / cells, np.repeat(box.samples, cells))
    for _ in range(iters):
        phi = ww.cascade_step(spec, system, phi)
    return phi


CASCADE_FILTERS = {
    "haar": lambda: ww.load_gallery("haar"),
    "d4": lambda: ww.load_gallery("d4"),
    "stretched_haar": lambda: ww.load_gallery("stretched_haar"),
    "box3": lambda: ww.FilterSpec.from_coefficients({0: 1 / 3, 1: 1 / 3, 2: 1 / 3}, scale_n=3),
    "box3 spread": lambda: ww.FilterSpec.from_coefficients({0: 1 / 3, 2: 1 / 3, 4: 1 / 3}, scale_n=3),
    "d4 shifted right": lambda: ww.FilterSpec.from_coefficients({k + 3: a for k, a in ww.load_gallery("d4").coeffs}),
    "d4 shifted left": lambda: ww.FilterSpec.from_coefficients({k - 2: a for k, a in ww.load_gallery("d4").coeffs}),
    "complex": lambda: ww.FilterSpec.from_coefficients({0: 0.5, 1: 0.3 + 0.4j, 2: -0.1j}),
}


@pytest.mark.parametrize("make", list(CASCADE_FILTERS.values()), ids=list(CASCADE_FILTERS))
def test_cascade_is_the_fine_grid_cascade_bit_for_bit(make):
    spec = make()
    system = ww.PathSystem(spec.scale_n)
    for iters in (0, 1, 3, 7, 9):
        for level in (0, 1, 4, 7):
            got = ww.cascade(spec, system, iters, level)
            want = fine_grid_cascade(spec, system, iters, level)
            assert (got.t_min, got.t_max, got.step) == (want.t_min, want.t_max, want.step), (iters, level)
            assert got.samples.tobytes() == want.samples.tobytes(), (iters, level)


@pytest.mark.parametrize("level", [45, 70])
def test_cascade_checks_its_grid_before_refining(d4, system2, level, monkeypatch):
    def refused(*args):
        raise AssertionError("refined before the level-L grid was checked")

    monkeypatch.setattr(ww.scaling, "cascade_step", refused)
    monkeypatch.setattr(np, "repeat", refused)
    with pytest.raises(ww.GridTooLarge):
        ww.cascade(d4, system2, iters=3, level=level)


def test_cascade_window_guard(stretched, system2):
    bad = SampledFunction(0.25, 1.25, 1 / 8, np.ones(8, dtype=np.complex128))
    with pytest.raises(ValueError):
        ww.cascade_step(stretched, system2, bad)


def _random_window(t_min, t_max, cells, seed):
    rng = np.random.default_rng(seed)
    total = (t_max - t_min) * cells
    samples = rng.standard_normal(total) + 1j * rng.standard_normal(total)
    return SampledFunction(float(t_min), float(t_max), 1.0 / cells, samples)


def _gather_cascade_step(spec, n, phi):
    """The cascade step as a masked gather with an index array per tap."""
    cells = round(1.0 / phi.step)
    total = len(phi.samples)
    base = (n - 1) * round(phi.t_min) * cells + n * np.arange(total, dtype=np.int64)
    new = np.zeros(total, dtype=np.complex128)
    for k, a in spec.coeffs:
        src = base - k * cells
        ok = (src >= 0) & (src < total)
        new[ok] += n * a * phi.samples[src[ok]]
    return new


STEP_FILTERS = [
    ("d4", 2, None),
    ("d4 shifted to k = -3..0", 2, -3),
    ("scale 3", 3, None),
    ("scale 3, k = -4..1, complex", 3, -4),
]


@pytest.mark.parametrize("label, n, shift", STEP_FILTERS, ids=[f[0] for f in STEP_FILTERS])
@pytest.mark.parametrize("window", [(0, 4), (-3, 2), (-5, -1), (2, 6)])
@pytest.mark.parametrize("level", [0, 3])
def test_cascade_step_matches_masked_gather(d4, label, n, shift, window, level):
    if n == 2:
        taps = dict(d4.coeffs)
    else:
        taps = {0: 0.3, 1: 1 / 3, 2: 0.4 - 1 / 3 + 0.25j, 3: -0.25j}
    if shift is not None:
        taps = {k + shift - min(taps): v for k, v in taps.items()}
    spec = ww.FilterSpec.from_coefficients(taps, scale_n=n)
    phi = _random_window(*window, cells=n**level, seed=10 * n + 5 + window[0])
    got = ww.cascade_step(spec, ww.PathSystem(n), phi)
    assert got.samples.tobytes() == _gather_cascade_step(spec, n, phi).tobytes()


# ----------------------------------------------------------------------
# wavelet construction


def test_wavelet_haar_exact(haar, system2):
    phi = ww.cascade(haar, system2, iters=4, level=6)
    psi = ww.wavelet_from_scaling(haar, phi)
    cells = 64
    offset = round(-psi.t_min * cells)
    first = psi.samples[offset : offset + cells // 2]
    second = psi.samples[offset + cells // 2 : offset + cells]
    assert np.all(first == -1.0)
    assert np.all(second == 1.0)
    assert abs(psi.integral()) < 1e-10


def test_wavelet_stretched_closed_form(stretched, system2):
    psi = ww.wavelet_from_scaling(stretched, exact_stretched_phi())
    ts = psi.grid()
    expected = np.where(
        (ts >= 0.5) & (ts < 2), 1 / 3, np.where((ts >= -1) & (ts < 0.5), -1 / 3, 0.0)
    )
    assert np.max(np.abs(psi.samples - expected)) < 1e-15


def test_wavelet_d4_norm(d4, system2):
    phi = ww.cascade(d4, system2, iters=12, level=8)
    psi = ww.wavelet_from_scaling(d4, phi)
    assert psi.norm_sq() == pytest.approx(1.0, abs=2e-3)
    assert abs(psi.integral()) < 1e-10


def test_wavelet_needs_dyadic():
    n3 = ww.FilterSpec.from_coefficients({0: 0.5, 1: 0.5}, scale_n=3)
    phi = SampledFunction(0.0, 1.0, 1 / 8, np.ones(8, dtype=np.complex128))
    with pytest.raises(ww.UnsupportedScale):
        ww.wavelet_from_scaling(n3, phi)


@pytest.mark.parametrize("shift", [0, -3, 2])
@pytest.mark.parametrize("window", [(0, 4), (-3, 2), (-5, -1)])
@pytest.mark.parametrize("cells", [1, 16])
def test_wavelet_from_scaling_matches_masked_gather(d4, shift, window, cells):
    spec = ww.FilterSpec.from_coefficients({k + shift: v for k, v in d4.coeffs})
    phi = _random_window(*window, cells=cells, seed=7 + shift + window[0] + 5)
    psi = ww.wavelet_from_scaling(spec, phi)
    # the masked gather on psi's window
    idx = np.arange(len(psi.samples), dtype=np.int64)
    want = np.zeros(len(psi.samples), dtype=np.complex128)
    for k, b in ww.high_pass(spec).coeffs:
        src = 2 * (round(psi.t_min) * cells + idx) - k * cells - round(phi.t_min * cells)
        ok = (src >= 0) & (src < len(phi.samples))
        want[ok] += 2 * b * phi.samples[src[ok]]
    assert psi.samples.tobytes() == want.tobytes()


# ----------------------------------------------------------------------
# norms and autocorrelation through the lattice mass


def test_norms(haar, d4, stretched, highpass, system2, policy):
    assert ww.scaling_norm_sq(haar, system2, policy, level=10) == pytest.approx(1.0, abs=1e-4)
    assert ww.scaling_norm_sq(d4, system2, policy, level=10) == pytest.approx(1.0, abs=1e-4)
    assert ww.scaling_norm_sq(stretched, system2, policy, level=10) == pytest.approx(
        1 / 3, abs=5e-3
    )
    assert ww.scaling_norm_sq(highpass, system2, policy, level=8) < 1e-100


def _lattice_lags(spec, system, lags, policy, level):
    """Midpoint Fourier coefficients of the truncated lattice mass."""
    cells = system.scale_n**level
    mids = (np.arange(cells, dtype=np.float64) + 0.5) / cells
    h = ww.lattice_masses(spec, system, mids, policy).value
    return [complex(np.mean(h * np.exp(2j * np.pi * k * mids))) for k in lags]


def test_autocorrelation_haar(haar, system2, policy):
    # the truncated lattice mass: the symmetric window leaves a
    # 1/(2 pi^2 K) boundary term at lag 1; higher lags have purely
    # oscillating tails
    _, lat1, *lat_higher = _lattice_lags(haar, system2, range(6), policy, level=10)
    assert lat1.real == pytest.approx(1 / (2 * math.pi**2 * 2000), abs=1e-6)
    assert abs(lat1.imag) < 1e-9
    for lag in lat_higher:
        assert abs(lag.real) < 1e-6
    # the exact route has no boundary term
    lag0, lag1, *higher = ww.autocorrelation(haar, system2, range(6), policy, level=10)
    assert abs(lag1.value) <= 1e-12
    assert lag1.imag_residual < 1e-9
    for lag in higher:
        assert abs(lag.value) <= 1e-12
    assert lag0.value == pytest.approx(
        ww.scaling_norm_sq(haar, system2, policy, level=10), abs=1e-13
    )


def test_autocorrelation_stretched(stretched, system2, policy):
    lag1, lag3 = ww.autocorrelation(stretched, system2, [1, 3], policy, level=10)
    assert lag1.value == pytest.approx(2 / 9, abs=5e-3)
    assert abs(lag3.value) < 1e-4


LAGS = range(-6, 7)

#: TABLE16's h exactly: (lo, hi, p, q) for the value p/q on [lo/8, hi/8), 0 elsewhere
TABLE16_H = ((-1, 1, 1, 1), (3, 4, 3, 13), (5, 6, 6, 13), (6, 7, 8, 13))


def _step_coefficient(pieces, k) -> complex:
    """int_0^1 h(x) exp(2 pi i k x) dx of the 1-periodic step function h, at 40 digits."""
    with mpmath.workdps(40):
        total = mpmath.mpc(0)
        for lo, hi, p, q in pieces:
            a, b = mpmath.mpf(lo) / 8, mpmath.mpf(hi) / 8
            cell = b - a if k == 0 else (mpmath.expjpi(2 * k * b) - mpmath.expjpi(2 * k * a)) / (2j * mpmath.pi * k)
            total += mpmath.mpf(p) / q * cell
        return complex(total)


DELTA = [float(k == 0) for k in LAGS]

#: filters whose h harmonic_masses has exactly, and their a(k) at LAGS
EXACT_AUTOCORRELATIONS = {
    "haar": (ww.load_gallery("haar"), DELTA),
    "d4": (ww.load_gallery("d4"), DELTA),
    "shannon": (ww.load_gallery("shannon"), DELTA),
    "box3": (ww.FilterSpec.from_coefficients({0: 1 / 3, 1: 1 / 3, 2: 1 / 3}, scale_n=3), DELTA),
    "stretched_haar": (ww.load_gallery("stretched_haar"), [{0: 1 / 3, 1: 2 / 9, 2: 1 / 9}.get(abs(k), 0.0) for k in LAGS]),
    "table16": (TABLE16, [_step_coefficient(TABLE16_H, k) for k in LAGS]),
}


@pytest.mark.parametrize("level", [0, 1, 2, 12])
@pytest.mark.parametrize("name", list(EXACT_AUTOCORRELATIONS))
def test_autocorrelation_is_exact_where_h_is(name, level, policy):
    # read off h's own representation: no grid, so no level is too coarse
    spec, want = EXACT_AUTOCORRELATIONS[name]
    system = ww.PathSystem(spec.scale_n)
    got = ww.autocorrelation(spec, system, LAGS, policy, level)
    for lag, a in zip(got, np.asarray(want, dtype=complex)):
        assert abs(lag.value - a.real) <= 1e-15
        assert abs(lag.imag_residual - abs(a.imag)) <= 1e-15


@pytest.mark.parametrize("spec", [
    ww.load_gallery("d4"),
    TABLE16,
    ww.load_gallery("highpass_haar"),
    ww.FilterSpec.from_table([0, 0.1, 0.5, 0.75], [1, 0.3, 0, 0.7]),
    DIVERGENT,
], ids=["trigonometric", "chain", "highpass_haar", "off-grid-table", "divergent"])
def test_norm_is_the_lag_0_autocorrelation(spec, system2):
    policy = ww.TruncationPolicy(tail_cutoff_k=300)
    norm = ww.scaling_norm_sq(spec, system2, policy, 5)
    lag0 = ww.autocorrelation(spec, system2, [0], policy, 5)[0].value
    assert norm == lag0 or (math.isnan(norm) and math.isnan(lag0))


@pytest.mark.parametrize("lag", [1.5, 1.0, "1"])
def test_autocorrelation_takes_integer_lags_only(lag, d4, system2, policy):
    with pytest.raises(TypeError):
        ww.autocorrelation(d4, system2, [0, lag], policy, 3)


def test_autocorrelation_time_domain_cross_check(stretched):
    phi = exact_stretched_phi()
    assert ww.autocorrelation_time_domain(phi, 0) == pytest.approx(1 / 3, abs=1e-12)
    assert ww.autocorrelation_time_domain(phi, 1) == pytest.approx(2 / 9, abs=1e-12)
    assert ww.autocorrelation_time_domain(phi, 3) == 0.0
    # phi is real, so a lag and its negative read the same overlap
    assert ww.autocorrelation_time_domain(phi, -1) == ww.autocorrelation_time_domain(phi, 1)
    # past the sampled window [0, 4) no sample overlaps
    assert ww.autocorrelation_time_domain(phi, 4) == 0.0
    assert ww.autocorrelation_time_domain(phi, -5) == 0.0


# ----------------------------------------------------------------------
# subband pipeline


def test_wavelet_coeffs_haar_constant(haar):
    details, smooth = ww.wavelet_coeffs(haar, np.ones(4), levels=1)
    assert np.max(np.abs(details[0])) < 1e-14
    assert np.allclose(smooth, math.sqrt(2.0))


def test_wavelet_coeffs_constant_signal_kills_details():
    spec = quadrature_family(0.8)
    details, _ = ww.wavelet_coeffs(spec, np.full(32, 3.0), levels=3)
    for band in details:
        assert np.max(np.abs(band)) < 1e-10


def test_wavelet_coeffs_energy_and_reconstruction(d4):
    rng = np.random.Generator(np.random.Philox(key=np.uint64(31)))
    s = rng.standard_normal(64)
    details, smooth = ww.wavelet_coeffs(d4, s, levels=3)
    assert [len(b) for b in details] == [32, 16, 8]
    energy = sum(float(np.sum(np.abs(b) ** 2)) for b in details) + float(
        np.sum(np.abs(smooth) ** 2)
    )
    assert energy == pytest.approx(float(np.sum(s**2)), abs=1e-8)
    recon = ww.wavelet_reconstruct(d4, details, smooth)
    assert np.max(np.abs(recon - s)) < 1e-10


def _gather_analysis_step(taps, signal):
    """The analysis step as a gather with a periodic index array per tap."""
    length = len(signal)
    ns = np.arange(length // 2)
    out = np.zeros(length // 2, dtype=np.complex128)
    for k, c in taps:
        out += c * signal[(2 * ns + k) % length]
    return out / np.sqrt(2.0)


def _add_at_synthesis_step(taps, coeffs, length):
    """The synthesis step as an np.add.at scatter per tap."""
    ns = np.arange(len(coeffs))
    out = np.zeros(length, dtype=np.complex128)
    for k, c in taps:
        np.add.at(out, (2 * ns + k) % length, np.conjugate(c) * coeffs)
    return out / np.sqrt(2.0)


def _subband_taps(spec):
    """The (low, high) analysis taps P_k = 2 a_k and Q_k = 2 b_k of the high-pass mirror."""
    return tuple((k, 2 * v) for k, v in spec.coeffs), tuple((k, 2 * v) for k, v in ww.high_pass(spec).coeffs)


SUBBAND_TAPS = {
    "haar": {0: 0.5, 1: 0.5},
    "d4 shifted to k = -3..0": {k - 3: v for k, v in ww.load_gallery("d4").coeffs},
    "stretched_haar": dict(ww.load_gallery("stretched_haar").coeffs),
    "complex, k = -9..2": {-9: 0.3, -4: 0.25j, 0: 0.4 - 0.1j, 2: -0.2},
}


@pytest.mark.parametrize("taps", list(SUBBAND_TAPS.values()), ids=list(SUBBAND_TAPS))
@pytest.mark.parametrize("length", [2, 4, 8, 64, 2**10])
def test_subband_steps_match_gather_and_add_at(taps, length):
    from wavewalk.scaling import _analysis_step, _synthesis_step

    spec = ww.FilterSpec.from_coefficients(taps)
    rng = np.random.default_rng(length + len(taps))
    signal = rng.standard_normal(length) + 1j * rng.standard_normal(length)
    coeffs = rng.standard_normal(length // 2) + 1j * rng.standard_normal(length // 2)
    for band in _subband_taps(spec):
        got = _analysis_step(band, signal)
        assert got.tobytes() == _gather_analysis_step(band, signal).tobytes()
        got = _synthesis_step(band, coeffs, length)
        assert got.tobytes() == _add_at_synthesis_step(band, coeffs, length).tobytes()


@pytest.mark.parametrize("name", ["haar", "d4", "stretched_haar"])
def test_subband_round_trip_matches_gather_and_add_at(name):
    spec = ww.load_gallery(name)
    low, high = _subband_taps(spec)
    s = np.random.default_rng(3).standard_normal(2**12).astype(np.complex128)
    details, smooth = ww.wavelet_coeffs(spec, s, levels=6)
    for band in details:
        assert band.tobytes() == _gather_analysis_step(high, s).tobytes()
        s = _gather_analysis_step(low, s)
    assert smooth.tobytes() == s.tobytes()
    for band in reversed(details):
        s = _add_at_synthesis_step(low, s, 2 * len(band)) + _add_at_synthesis_step(high, band, 2 * len(band))
    assert ww.wavelet_reconstruct(spec, details, smooth).tobytes() == s.tobytes()


def test_wavelet_coeffs_length_guard(d4):
    with pytest.raises(ValueError):
        ww.wavelet_coeffs(d4, np.ones(12), levels=3)
    # an empty signal is no positive multiple of 2**levels, at any level
    for levels in (0, 1, 3):
        with pytest.raises(ValueError, match="signal length 0 is not a positive multiple"):
            ww.wavelet_coeffs(d4, np.ones(0), levels=levels)
    sh = ww.load_gallery("shannon")
    with pytest.raises(ww.FilterKindError):
        ww.wavelet_coeffs(sh, np.ones(8), levels=1)


# ----------------------------------------------------------------------
# truncated frame energy for the stretched-Haar system


def frame_recovery(f_translates, n_range, k_range, level):
    """Exact truncated frame sum for the stretched-Haar wavelet system.

    Signals live in the span of integer translates of chi_[0,3)/3; all
    functions involved are piecewise constant with breakpoints on the
    2**-level grid, so midpoint sums are exact integrals.
    """
    step = 2.0**-level
    js = sorted(f_translates)
    ts = np.arange(js[0], js[-1] + 3, step) + step / 2
    f = np.zeros_like(ts)
    for j, c in f_translates.items():
        f += c * np.where((ts - j >= 0) & (ts - j < 3), 1 / 3, 0.0)
    norm2 = float(np.sum(f * f) * step)
    total = 0.0
    for n in range(-n_range, n_range + 1):
        sc = 2.0 ** (n / 2)
        pts = 2.0**n * ts
        for k in range(-k_range, k_range + 1):
            u = pts - k
            g = np.where((u >= 0.5) & (u < 2), 1 / 3, np.where((u >= -1) & (u < 0.5), -1 / 3, 0.0))
            ip = float(np.sum(sc * g * f) * step)
            total += ip * ip
    return total / norm2


def test_stretched_frame_energy_recovery():
    # partial sums of the frame energy stay below the signal energy and
    # climb toward it as the index box grows; at |n|<=6, |k|<=64 the
    # recovered share is 98.78% for this signal (wider boxes: 99.7%+)
    f = {-3: 1.0, 0: -1.0}
    r_small = frame_recovery(f, n_range=6, k_range=64, level=7)
    assert r_small == pytest.approx(0.987847, abs=5e-4)
    assert r_small <= 1.0 + 1e-9
    r_big = frame_recovery(f, n_range=8, k_range=256, level=11)
    assert r_big > r_small
    assert 0.995 <= r_big <= 1.0 + 1e-9


BOX3 = ww.FilterSpec.from_coefficients({0: 1 / 3, 1: 1 / 3, 2: 1 / 3}, scale_n=3)

#: calls of this module that refuse their input: (call, exception, message)
REFUSED = {
    "samples-wrong-length": (lambda: SampledFunction(0.0, 1.0, 0.25, np.zeros(3)), ValueError,
                             "expected 4 samples, got 3"),
    "coeffs-scale-3": (lambda: ww.wavelet_coeffs(BOX3, np.ones(8), 1), ww.UnsupportedScale,
                       "subband pipeline is dyadic"),
}


@pytest.mark.parametrize("case", list(REFUSED))
def test_refused_input(case):
    call, exc, message = REFUSED[case]
    with pytest.raises(exc, match=re.escape(message)):
        call()
