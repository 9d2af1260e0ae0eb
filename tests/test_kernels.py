"""Contracts of the tiled product kernel, the lattice-row kernel and
the trigonometric-series weight.

Each fast kernel is checked against a plain reference written here:
a per-element loop of the stop rule, the per-point lattice sum with its
decade rule, and the weight summed term by term in high precision.
"""

import numpy as np
import pytest

import wavewalk as ww
from conftest import quadrature_family
from wavewalk.filters import _weight_taps, eval_weight, weight_array
from wavewalk.measures import ATOM_TILE, ATOM_UNDERFLOW, _atom_array


def stretched_h(xs, p=3):
    """h of the filter a_0 = a_p = 1/2, whose phi is the box on [0, p) over p.

    Its autocorrelations are (p - |n|) / p**2, summed at the argument
    reduced to [-1/2, 1/2] so that a large |x| costs no accuracy here.
    """
    r = np.asarray(xs, dtype=np.float64)
    r = r - np.rint(r)
    return sum((p - abs(n)) / p**2 * np.cos(2 * np.pi * n * r) for n in range(1 - p, p))


def _reference_atom(spec, system, x, policy):
    """The stop rule one element at a time: (value, converged, depth, dev)."""
    p, streak, y = 1.0, 0, float(x)
    for step in range(1, policy.product_depth + 1):
        y = y / system.scale_n
        f = float(weight_array(spec, np.array([y]))[0])
        p *= f
        dev = abs(1.0 - f)
        streak = streak + 1 if dev <= policy.convergence_tol and abs(y) < 0.5 else 0
        if p < ATOM_UNDERFLOW:
            return 0.0, True, step, 0.0
        if streak >= policy.stall_window:
            return p, True, step, dev
    return p, False, policy.product_depth, dev


def _reference_lattice_mass(spec, system, x, policy, stride=1.0):
    """One point's lattice sum with the decade rule, on one flat row."""
    kk = policy.tail_cutoff_k
    ks = np.arange(-kk, kk + 1, dtype=np.float64)
    vals, conv, depth, _ = _atom_array(spec, system, x + stride * ks, policy)
    absk = np.abs(ks)
    converged = bool(conv.all())
    tail = None
    if kk >= 10:
        tail = float(np.sum(vals[absk > kk // 10]))
        if kk >= 100:
            inner = float(np.sum(vals[(absk > kk // 100) & (absk <= kk // 10)]))
            if tail > inner + 1e-15:
                converged = False
    return float(np.sum(vals)), converged, tail if converged else None, int(depth.max())


@pytest.mark.parametrize("name", ["highpass_haar", "shannon", "stretched_haar", "d4"])
def test_atom_array_over_tiles_matches_elementwise_rule(name, system2, policy):
    spec = ww.load_gallery(name)
    ks = np.arange(-2000, 2001, dtype=np.float64)
    xs = (np.array([0.3, 0.0, 0.71, 0.125, 1 / 3])[:, None] + ks).ravel()
    assert xs.size > ATOM_TILE
    vals, conv, depth, dev = _atom_array(spec, system2, xs, policy)
    # every 9th element, plus both sides of each tile seam
    seams = np.arange(ATOM_TILE, xs.size, ATOM_TILE)
    picks = np.unique(np.concatenate([np.arange(0, xs.size, 9), seams - 1, seams]))
    for i in picks:
        ref = _reference_atom(spec, system2, xs[i], policy)
        got = (float(vals[i]), bool(conv[i]), int(depth[i]), float(dev[i]))
        assert got == ref, (i, xs[i])
    # the array mixes elements that leave their tile at the first step
    # with elements that run to the depth limit
    assert depth.min() == 1
    if name in ("highpass_haar", "stretched_haar"):
        first = slice(0, ATOM_TILE)
        assert (depth[first] == policy.product_depth).any() and (~conv[first]).any()


def test_zero_path_atom_is_the_kernel_at_one_point(stretched, system2, policy):
    xs = np.array([0.3 + 7, 0.3 - 1500, 0.5])
    vals, conv, depth, dev = _atom_array(stretched, system2, xs, policy)
    for i, x in enumerate(xs):
        mv = ww.zero_path_atom(stretched, system2, float(x), policy)
        assert (mv.value, mv.converged, mv.depth_used) == (vals[i], conv[i], depth[i])
        assert mv.tail_bound == (dev[i] if conv[i] else None)


@pytest.mark.parametrize("kk", [5, 50, 2000])
@pytest.mark.parametrize("npts", [0, 1, 3, 5, 17])
def test_lattice_masses_match_pointwise_rule(kk, npts, system2):
    policy = ww.TruncationPolicy(tail_cutoff_k=kk)
    xs = np.random.default_rng(npts + kk).random(npts)
    for spec, h in ((ww.load_gallery("d4"), np.ones_like), (ww.load_gallery("stretched_haar"), stretched_h)):
        masses = ww.lattice_masses(spec, system2, xs, policy)
        grid = ww.harmonic_on_grid(spec, system2, xs, policy)
        assert masses.value.shape == grid.shape == xs.shape
        for i, x in enumerate(xs):
            value, converged, tail, depth = _reference_lattice_mass(spec, system2, x, policy)
            mv = ww.lattice_mass(spec, system2, float(x), policy)
            for got in (masses.at(i), mv):
                assert got.value == pytest.approx(value, rel=1e-15, abs=1e-300)
                assert got.converged == converged
                assert got.depth_used == depth
                if tail is None:
                    assert got.tail_bound is None
                else:
                    assert got.tail_bound == pytest.approx(tail, rel=1e-15, abs=1e-300)
        # harmonic_on_grid takes the exact route for these filters
        np.testing.assert_allclose(grid, h(xs), rtol=0, atol=1e-13)


def test_lattice_masses_keep_the_shape_of_the_points(d4, system2):
    policy = ww.TruncationPolicy(tail_cutoff_k=50)
    xs = np.linspace(0.0, 1.0, 6).reshape(2, 3)
    masses = ww.lattice_masses(d4, system2, xs, policy)
    for field in (masses.value, masses.converged, masses.tail_bound, masses.depth_used):
        assert field.shape == (2, 3)
    np.testing.assert_array_equal(masses.value.ravel(), ww.lattice_masses(d4, system2, xs.ravel(), policy).value)
    grid = ww.harmonic_on_grid(d4, system2, xs, policy)
    assert grid.shape == (2, 3)
    np.testing.assert_allclose(grid, 1.0, rtol=0, atol=1e-13)


def test_lattice_masses_with_stride_sum_the_sublattice(haar, system2):
    policy = ww.TruncationPolicy(tail_cutoff_k=300)
    for stride in (2.0, 8.0):
        value, converged, _, depth = _reference_lattice_mass(haar, system2, 0.37, policy, stride)
        got = ww.lattice_masses(haar, system2, [0.37], policy, stride=stride).at(0)
        assert got.value == pytest.approx(value, rel=1e-15)
        assert (got.converged, got.depth_used) == (converged, depth)


# ----------------------------------------------------------------------
# the weight series


COMPLEX_TAPS = [
    {-1: 0.3j, 0: 0.5, 2: 0.5 - 0.3j},
    {0: 0.5 + 0.2j, 1: 0.5 - 0.2j},
]


def _series_filters():
    specs = [ww.FilterSpec.from_coefficients(c) for c in COMPLEX_TAPS]
    specs += [ww.load_gallery(n) for n in ww.GALLERY_NAMES]
    return specs


@pytest.mark.parametrize("spec", _series_filters(), ids=lambda s: s.label or str(dict(s.coeffs)))
def test_weight_array_matches_eval_weight_far_out(spec):
    rng = np.random.default_rng(11)
    xs = np.concatenate([
        rng.uniform(-4000.0, 4000.0, 400),
        rng.uniform(-1.0, 1.0, 200),
        np.arange(-4000.0, 4001.0, 250.0) + 0.5,
        [0.0, 0.5, -0.5, 1e-9, 3999.999999],
    ])
    got = weight_array(spec, xs)
    ref = np.array([eval_weight(spec, float(x)) for x in xs])
    assert np.max(np.abs(got - ref)) <= 1e-13


@pytest.mark.parametrize("spec", _series_filters()[:2] + [ww.load_gallery("d4")], ids=["cplx3", "cplx1", "d4"])
def test_weight_is_exact_to_rounding_at_large_arguments(spec):
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.prec = 200
    xs = np.random.default_rng(5).uniform(-4000.0, 4000.0, 60)

    def exact(x):
        m = sum(
            mpmath.mpc(v.real, v.imag) * mpmath.expj(-2 * mpmath.pi * k * mpmath.mpf(float(x)))
            for k, v in spec.coeffs
        )
        return float(abs(m) ** 2)

    ref = np.array([exact(x) for x in xs])
    assert np.max(np.abs(weight_array(spec, xs) - ref)) <= 2e-15
    assert max(abs(eval_weight(spec, float(x)) - r) for x, r in zip(xs, ref)) <= 2e-15


def test_single_coefficient_weight_is_constant():
    spec = ww.FilterSpec.from_coefficients({3: 1.0})
    np.testing.assert_array_equal(weight_array(spec, np.array([0.0, 0.3, 1234.5])), 1.0)


def test_zero_path_atoms_record(d4, stretched, system2):
    # the public record carries the kernel's columns, NaN tail where unconverged
    policy = ww.TruncationPolicy(product_depth=12)
    xs = np.array([[0.0, 0.3, 5.5], [-7.25, 1e3, 0.49]])
    for spec in (d4, stretched):
        atoms = ww.zero_path_atoms(spec, system2, xs, policy)
        vals, conv, depth, dev = _atom_array(spec, system2, xs, policy)
        assert atoms.value.shape == xs.shape
        assert np.array_equal(atoms.value, vals) and np.array_equal(atoms.converged, conv)
        assert np.array_equal(atoms.depth_used, depth)
        assert np.array_equal(np.isnan(atoms.tail_bound), ~conv)
        assert np.array_equal(atoms.tail_bound[conv], dev[conv])
        for i, x in enumerate(xs.ravel()):
            assert atoms.at(i) == ww.zero_path_atom(spec, system2, float(x), policy)


# ----------------------------------------------------------------------
# the exact harmonic function


def _far_points(count=1200, seed=13):
    rng = np.random.default_rng(seed)
    return np.concatenate([
        rng.uniform(-4000.0, 4000.0, count // 2),
        rng.uniform(-1.0, 1.0, count // 2),
        [0.0, 0.5, 1 / 3, 2 / 3, -4000.0, 3999.999999],
    ])


def _complex_quadrature_filter(seed):
    """A 4-tap low-pass quadrature filter with complex taps.

    Its polyphase row [u, v z] V is unit on the circle for a unit vector
    (u, v) and a unitary V, and V maps (u, v) to (1, 1)/sqrt 2, so the
    taps sum to 1.
    """
    rng = np.random.default_rng(seed)
    u = rng.normal(size=2) + 1j * rng.normal(size=2)
    u /= np.linalg.norm(u)
    u_perp = np.array([-u[1].conjugate(), u[0].conjugate()])
    v = (np.outer(u.conj(), [1.0, 1.0]) + np.outer(u_perp.conj(), [1.0, -1.0])) / np.sqrt(2)
    e0 = (u[0] * v[0, 0], u[1] * v[1, 0])
    e1 = (u[0] * v[0, 1], u[1] * v[1, 1])
    taps = {0: e0[0], 1: e1[0], 2: e0[1], 3: e1[1]}
    return ww.FilterSpec.from_coefficients({k: t / np.sqrt(2) for k, t in taps.items()})


def test_exact_harmonic_closed_forms(system2, policy):
    xs = _far_points()
    assert np.abs(xs).max() >= 4000.0
    for name in ("haar", "d4"):
        h = ww.harmonic_on_grid(ww.load_gallery(name), system2, xs, policy)
        assert np.max(np.abs(h - 1.0)) <= 1e-13
    h = ww.harmonic_on_grid(ww.load_gallery("stretched_haar"), system2, xs, policy)
    assert np.max(np.abs(h - stretched_h(xs))) <= 1e-13
    # a_0 = a_p = 1/2 has the cycles of x -> 2x on the points j/p:
    # {1/5, 2/5, 4/5, 3/5} for p = 5; {1/7, 2/7, 4/7} and {3/7, 6/7, 5/7} for p = 7
    for p in (5, 7):
        spec = ww.FilterSpec.from_coefficients({0: 0.5, p: 0.5})
        h = ww.harmonic_on_grid(spec, system2, xs, policy)
        assert np.max(np.abs(h - stretched_h(xs, p))) <= 1e-13
    # scale 3: a_0 = a_2 = a_4 = 1/3 has phi the box on [0, 2) over 2
    spec = ww.FilterSpec.from_coefficients({0: 1 / 3, 2: 1 / 3, 4: 1 / 3}, scale_n=3)
    h = ww.harmonic_on_grid(spec, ww.PathSystem(3), xs, policy)
    assert np.max(np.abs(h - stretched_h(xs, 2))) <= 1e-13
    # complex taps: W has a sine series, and phi is orthonormal
    spec = _complex_quadrature_filter(7)
    assert ww.validate_filter(spec).all_ok
    assert max(abs(t) for t in _weight_taps(spec)[2]) > 0.1
    h = ww.harmonic_on_grid(spec, system2, xs, policy)
    assert np.max(np.abs(h - 1.0)) <= 1e-13


def test_exact_harmonic_of_the_quadrature_family(system2, policy):
    xs = _far_points(200)
    for theta in np.random.default_rng(17).uniform(0.0, 2.0 * np.pi, 40):
        h = ww.harmonic_on_grid(quadrature_family(float(theta)), system2, xs, policy)
        assert np.max(np.abs(h - 1.0)) <= 1e-12
    # theta = pi is the stretched Haar filter: eigenvalue 1 is double
    h = ww.harmonic_on_grid(quadrature_family(np.pi), system2, xs, policy)
    assert np.max(np.abs(h - stretched_h(xs))) <= 1e-13


def test_exact_harmonic_is_near_the_lattice_sum(system2):
    kk = 20_000
    policy = ww.TruncationPolicy(tail_cutoff_k=kk)
    xs = np.random.default_rng(19).random(8)
    for name in ("haar", "d4", "stretched_haar"):
        spec = ww.load_gallery(name)
        exact = ww.harmonic_on_grid(spec, system2, xs, policy)
        lattice = ww.lattice_masses(spec, system2, xs, policy).value
        assert np.max(np.abs(exact - lattice)) <= 4 / (np.pi**2 * kk)


def test_exact_harmonic_gridfunction_is_harmonic(system2, policy):
    for name in ("haar", "d4", "stretched_haar"):
        spec = ww.load_gallery(name)
        h = ww.harmonic_gridfunction(spec, system2, 7, policy)
        assert ww.harmonic_residual(spec, system2, h, eval_level=6) <= 1e-12


def test_filters_off_the_exact_route_keep_the_lattice_sum(system2):
    policy = ww.TruncationPolicy(tail_cutoff_k=50)
    xs = np.random.default_rng(23).random(9)
    specs = [
        ww.load_gallery("shannon"),
        ww.load_gallery("highpass_haar"),
        ww.FilterSpec.from_table([0.0, 0.25, 0.5, 0.75], [0.3, 0.0, 0.7, 1.0]),
        ww.FilterSpec.from_coefficients({0: 0.6, 1: 0.4}),  # low-pass, not a partition
        quadrature_family(np.pi + 1e-4),  # a fixed point too ill-conditioned to solve for
    ]
    for spec in specs:
        got = ww.harmonic_on_grid(spec, system2, xs, policy)
        np.testing.assert_array_equal(got, ww.lattice_masses(spec, system2, xs, policy).value)
