import json
import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wavewalk as ww
from wavewalk.cli import main
from wavewalk.filters import _weight_fourier, check_lowpass, check_partition

from conftest import complex_quadrature_filter, quadrature_family


def test_response_haar_values(haar):
    assert ww.eval_response(haar, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert abs(ww.eval_response(haar, 0.5)) < 1e-15


def test_response_d4_at_zero(d4):
    assert ww.eval_response(d4, 0.0) == pytest.approx(1.0, abs=1e-14)


def test_weight_haar_third(haar):
    # |(1 + exp(-i 2 pi / 3)) / 2|^2 = cos^2(pi/3) = 1/4
    assert ww.eval_weight(haar, 1 / 3) == pytest.approx(0.25, abs=1e-14)


def test_weight_shannon_lookup(shannon):
    assert ww.eval_weight(shannon, 0.1) == 1.0
    assert ww.eval_weight(shannon, 0.3) == 0.0
    assert ww.eval_weight(shannon, 0.8) == 1.0
    assert ww.eval_weight(shannon, 1.1) == ww.eval_weight(shannon, 0.1)


def test_weight_highpass_at_zero(highpass):
    assert ww.eval_weight(highpass, 0.0) == pytest.approx(0.0, abs=1e-30)


@given(x=st.floats(min_value=-5, max_value=5, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_periodicity(x):
    spec = ww.load_gallery("d4")
    assert abs(ww.eval_response(spec, x) - ww.eval_response(spec, x + 1)) < 1e-11
    assert abs(ww.eval_weight(spec, x) - ww.eval_weight(spec, x + 1)) < 1e-11


@pytest.mark.parametrize("name", ww.GALLERY_NAMES)
def test_weight_array_matches_scalar(name):
    spec = ww.load_gallery(name)
    xs = np.linspace(-2.0, 3.0, 997)
    vec = ww.weight_array(spec, xs)
    sca = np.array([ww.eval_weight(spec, float(x)) for x in xs])
    assert np.max(np.abs(vec - sca)) < 5e-15
    assert vec.min() >= 0.0


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_non_finite_points(shannon, d4, x):
    # a table has no NaN entry: both lookups refuse instead of guessing
    with pytest.raises(ww.NonFiniteArgument):
        ww.eval_weight(shannon, x)
    with pytest.raises(ww.NonFiniteArgument):
        ww.weight_array(shannon, np.array([0.3, x]))
    assert math.isnan(ww.eval_weight(d4, x))
    with np.errstate(invalid="ignore"):
        assert np.isnan(ww.weight_array(d4, np.array([x]))).all()


@pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf])
def test_non_finite_filter_is_refused(v):
    with pytest.raises(ww.NonFiniteArgument):
        ww.FilterSpec.from_coefficients({0: 0.5, 1: v})
    with pytest.raises(ww.NonFiniteArgument):
        ww.FilterSpec.from_coefficients({0: 0.5, 1: complex(0.5, v)})
    with pytest.raises(ww.NonFiniteArgument):
        ww.FilterSpec.from_table([0.0, v], [0.5, 0.5])


@pytest.mark.parametrize("v", [3e154, -3e154j, complex(1e154, 1e154) * 1.4, complex(1.5e308, 1.5e308)])
def test_coefficient_whose_square_overflows_is_refused(v):
    with pytest.raises(ww.NonFiniteArgument, match=r"\|a_k\|\*\*2 overflows"):
        ww.FilterSpec.from_coefficients({0: 0.5, 1: v})
    # the largest |a_k| whose square is finite
    edge = math.sqrt(sys.float_info.max)
    spec = ww.FilterSpec.from_coefficients({0: edge, 1: -edge})
    assert math.isfinite(abs(spec.coeffs[0][1]) ** 2)


def test_partition_haar(haar):
    rep = check_partition(haar, grid_level=8)
    assert rep.partition_max_error < 1e-12
    assert rep.verdicts["partition"]


def test_partition_stretched_haar_level10(stretched):
    # cos^2(3 pi x / 2) + cos^2(3 pi (x+1) / 2) = 1
    rep = check_partition(stretched, grid_level=10)
    assert rep.partition_max_error < 1e-12


def test_partition_constant_04_fails():
    spec = ww.FilterSpec.from_table([0.0], [0.4], label="w04")
    rep = check_partition(spec, grid_level=6)
    assert rep.partition_max_error == pytest.approx(0.2, abs=1e-15)
    assert not rep.verdicts["partition"]


def test_partition_shannon_exact(shannon):
    assert check_partition(shannon, grid_level=10).partition_max_error == 0.0


def test_partition_of_a_scale_3_table_reads_exact_branch_points():
    # each branch point (m + j 3**L) / 3**(L+1) is one rounding from the
    # exact point, where (m / 3**L + j) / 3 is three; on the ninths, whose
    # branch triples sum to 1 exactly, three roundings misread cells and
    # read an error of 0.375
    table = ww.FilterSpec.from_table(np.arange(9) / 9, [0.5, 1, 0.125, 0.25, 0, 0.375, 0.25, 0, 0.5],
                                     scale_n=3)
    level = 9
    cells = 3**level
    pts = (np.arange(cells) + cells * np.arange(3)[:, None]).astype(np.float64) / (3 * cells)
    want = float(np.max(np.abs(ww.weight_array(table, pts).sum(axis=0) - 1.0)))
    rep = check_partition(table, grid_level=level)
    assert rep.partition_max_error == want == 0.0
    assert rep.grid_level == level and rep.all_ok


def test_partition_haar_d4_on_the_taps(haar, d4):
    # N w_{2m} = delta_{m0}: exact on haar's taps, a few ulp off on d4's
    assert check_partition(haar, grid_level=8).partition_max_error == 0.0
    rep = check_partition(d4, grid_level=8)
    assert 0.0 < rep.partition_max_error < 1e-15
    assert rep.grid_level == 0 and rep.all_ok


def test_partition_on_the_taps_rejects():
    bad = ww.FilterSpec.from_coefficients({0: 0.6, 1: 0.4})
    rep = check_partition(bad, grid_level=8)
    assert rep.partition_max_error == pytest.approx(0.04, abs=1e-15)
    assert not rep.verdicts["partition"]
    # N = 3: the three branch weights of (1 + e(-x)) / 2 sum to 3/2 everywhere
    n3 = ww.FilterSpec.from_coefficients({0: 0.5, 1: 0.5}, scale_n=3)
    rep = check_partition(n3, grid_level=8)
    assert rep.partition_max_error == 0.5 and not rep.all_ok


def _quadrature_deviation(spec):
    """sum_n |sum_k conj(a_k) a_{k+2n} - delta_{n0}/2|, summed from the coefficients."""
    cmap = dict(spec.coeffs)
    span = max(cmap) - min(cmap)
    return sum(abs(sum(v.conjugate() * cmap.get(k + 2 * n, 0.0) for k, v in cmap.items()) - (n == 0) / 2)
               for n in range(-(span // 2), span // 2 + 1))


@pytest.mark.parametrize("spec", [ww.load_gallery("haar"), ww.load_gallery("d4"), complex_quadrature_filter(3),
                                  ww.FilterSpec.from_coefficients({0: 0.6, 1: 0.4}), quadrature_family(0.4)],
                         ids=["haar", "d4", "complex", "off", "qmf"])
def test_dyadic_partition_error_is_twice_the_quadrature_deviation(spec):
    # for N = 2, N w_{2m} = delta_{m0} is the quadrature condition
    # sum_k conj(a_k) a_{k+2n} = delta_{n0}/2 (Lawton 1991), term by term
    assert check_partition(spec, 1).partition_max_error == pytest.approx(2 * _quadrature_deviation(spec),
                                                                         rel=1e-12, abs=1e-15)


def test_lowpass(haar, d4, highpass):
    assert check_lowpass(haar).lowpass_error == 0.0
    assert check_lowpass(d4).lowpass_error < 1e-15
    rep = check_lowpass(highpass)
    assert rep.lowpass_error == pytest.approx(1.0, abs=1e-15)
    assert not rep.verdicts["lowpass"]


@given(theta=st.floats(min_value=0.01, max_value=6.27))
@settings(max_examples=25, deadline=None)
def test_quadrature_family_partition(theta):
    # quadrature implies the weight is a partition of unity, on the taps
    spec = quadrature_family(theta)
    rep = check_partition(spec, grid_level=8)
    assert rep.partition_max_error <= 1e-12 and rep.grid_level == 0


def test_quadrature_family_partition_level12():
    spec = quadrature_family(1.234)
    assert check_partition(spec, grid_level=12).partition_max_error <= 1e-12
    assert _sampled_partition_error(spec) <= 1e-12


def _sampled_partition_error(spec, cells=2**12):
    """max |sum_j W((x + j)/N) - 1| over x = i / 2**12, read by weight_array."""
    n = spec.scale_n
    pts = (np.arange(cells) + cells * np.arange(n)[:, None]) / (n * cells)
    return float(np.max(np.abs(ww.weight_array(spec, pts).sum(axis=0) - 1.0)))


def _paraunitary_filter(n, degree, rng, complex_taps):
    """A random scale-n low-pass partition: polyphase row ones(n)/n times
    degree-one paraunitary factors I - P + z P (P a rank-one projector).

    The polyphase components P_r of m (a_{r + n l} = coefficient l of P_r)
    then have sum_r |P_r|**2 = 1/n on the circle, which is
    sum_j W((x + j)/n) = 1, and sum_r P_r(1) = 1, which is m(0) = 1.
    """
    row = np.full((1, n), 1.0 / n, dtype=complex)
    for _ in range(degree):
        p = rng.normal(size=n) + (1j * rng.normal(size=n) if complex_taps else 0.0)
        proj = np.outer(p, p.conj()) / np.vdot(p, p).real
        row = np.vstack([row @ (np.eye(n) - proj), np.zeros(n)]) + np.vstack([np.zeros(n), row @ proj])
    return ww.FilterSpec.from_coefficients(
        {r + n * l: complex(row[l, r]) for l in range(len(row)) for r in range(n)}, scale_n=n
    )


def _cross_check_filters():
    """Seeded partitions at N = 2..5 (real and complex taps, degree 0..3),
    each also with its largest coefficient scaled by 1 + 1e-5..1e-3, and
    the gallery's coefficient filters and quadrature filters."""
    rng = np.random.default_rng(24)
    specs = []
    for n in (2, 3, 4, 5):
        for complex_taps in (False, True):
            for degree in range(4):
                for _ in range(3):
                    spec = _paraunitary_filter(n, degree, rng, complex_taps)
                    coeffs = dict(spec.coeffs)
                    k = max(coeffs, key=lambda j: abs(coeffs[j]))
                    coeffs[k] *= 1.0 + 10.0 ** rng.uniform(-5, -3)
                    specs += [spec, ww.FilterSpec.from_coefficients(coeffs, scale_n=n)]
    specs += [ww.load_gallery(name) for name in ww.GALLERY_NAMES if ww.load_gallery(name).kind == "coefficients"]
    specs += [quadrature_family(t) for t in np.linspace(0.01, 6.27, 20)]
    return specs + [complex_quadrature_filter(seed) for seed in range(5)]


def test_tap_partition_error_bounds_the_sampled_one():
    # sum_j W((x + j)/N) - 1 = sum_m (N w_{Nm} - delta_{m0}) e(mx), so the
    # tap error is at least the sampled one, up to the rounding of the sample
    eps = np.finfo(float).eps
    verdicts = []
    for spec in _cross_check_filters():
        rep = check_partition(spec, grid_level=12)
        sampled = _sampled_partition_error(spec)
        _, w = _weight_fourier(spec)
        assert rep.partition_max_error >= sampled - 100 * eps * spec.scale_n * np.sum(np.abs(w)), spec
        assert rep.verdicts["partition"] == (sampled <= ww.filters.DEFAULT_TOL), spec
        verdicts.append(rep.verdicts["partition"])
    assert 0 < sum(verdicts) < len(verdicts)


def test_partition_of_a_coefficient_filter_reads_no_grid(d4, monkeypatch):
    def no_grid(*args):
        raise AssertionError("weight_array called")

    monkeypatch.setattr(ww.filters, "weight_array", no_grid)
    for spec in (d4, ww.FilterSpec.from_coefficients({0: 1 / 3, 1: 1 / 3, 2: 1 / 3}, scale_n=3)):
        rep = check_partition(spec, grid_level=70)
        assert rep.grid_level == 0 and rep.all_ok
    with pytest.raises(AssertionError, match="weight_array called"):
        check_partition(ww.load_gallery("shannon"), grid_level=2)


def test_partition_of_an_overflowing_weight_is_inf_without_a_warning():
    # |a_k|**2 is finite, but the constant tap 3 * 3.6e307 times N = 3 is not
    big = ww.FilterSpec.from_coefficients({0: 6e153, 1: 6e153, 2: 6e153}, scale_n=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = ww.validate_filter(big)
    assert rep.partition_max_error == math.inf
    assert rep.verdicts == {"partition": False, "lowpass": False}


def test_high_pass_haar(haar):
    hp = ww.high_pass(haar)
    assert dict(hp.coeffs) == {0: pytest.approx(-0.5), 1: pytest.approx(0.5)}


def test_high_pass_zero_mean(d4):
    hp = ww.high_pass(d4)
    assert abs(sum(v for _, v in hp.coeffs)) < 1e-15
    assert len(hp.coeffs) == 4


def test_high_pass_index_remap(stretched):
    hp = ww.high_pass(stretched)
    assert sorted(k for k, _ in hp.coeffs) == [-2, 1]


@given(
    values=st.lists(
        st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False),
        min_size=4,
        max_size=4,
    )
)
@settings(max_examples=50, deadline=None)
def test_high_pass_involution(values):
    spec = ww.FilterSpec.from_coefficients(dict(enumerate(values, start=-1)))
    twice = ww.high_pass(ww.high_pass(spec))
    assert dict(twice.coeffs) == {
        k: pytest.approx(-v, abs=1e-15) for k, v in spec.coeffs
    }


def test_validate_filter_merges(d4, shannon):
    rep = ww.validate_filter(d4)
    assert set(rep.verdicts) == {"partition", "lowpass"}
    assert rep.all_ok and rep.grid_level == 0
    rep = ww.validate_filter(shannon)
    assert set(rep.verdicts) == {"partition"}
    assert rep == check_partition(shannon, 10)


@pytest.mark.parametrize("name", ww.GALLERY_NAMES)
def test_json_round_trip(name):
    spec = ww.load_gallery(name)
    again = ww.FilterSpec.from_json_dict(spec.to_json_dict())
    assert again == spec


def test_json_schema_errors():
    with pytest.raises(ValueError):
        ww.FilterSpec.from_json_dict({"scale_N": 2})
    with pytest.raises(ValueError):
        ww.FilterSpec.from_json_dict(
            {
                "scale_N": 2,
                "coeffs": [{"k": 0, "re": 1.0}],
                "w_table": {"breakpoints": [0.0], "values": [1.0]},
            }
        )


def test_spec_invariants():
    with pytest.raises(ValueError):
        ww.FilterSpec.from_coefficients({0: 1.0}, scale_n=1)
    with pytest.raises(ValueError):
        ww.FilterSpec.from_table([0.0], [1.5])
    with pytest.raises(ValueError):
        ww.FilterSpec.from_table([0.1, 0.5], [1.0, 0.0])
    with pytest.raises(ww.FilterKindError):
        ww.eval_response(ww.load_gallery("shannon"), 0.0)


_COEFF = {"k": 0, "re": 1.0}

#: filter files that FilterSpec refuses, and the message of each
BAD_SPECS = {
    "empty-coeffs": ({"coeffs": []}, "coefficient filter needs a nonempty index set"),
    "duplicate-index": ({"coeffs": [_COEFF, _COEFF]}, "duplicate coefficient index"),
    "mismatched-table": ({"w_table": {"breakpoints": [0.0, 0.5], "values": [1.0]}},
                         "table needs matching nonempty breakpoints/values"),
    "empty-table": ({"w_table": {"breakpoints": [], "values": []}},
                    "table needs matching nonempty breakpoints/values"),
    "non-increasing": ({"w_table": {"breakpoints": [0.0, 0.5, 0.5], "values": [1.0, 0.0, 1.0]}},
                       "breakpoints must be strictly increasing in [0, 1)"),
    "breakpoint-at-1": ({"w_table": {"breakpoints": [0.0, 1.0], "values": [1.0, 0.0]}},
                        "breakpoints must be strictly increasing in [0, 1)"),
    "table-kind-coeffs": ({"kind": "tabulated_w", "coeffs": [_COEFF]},
                          "kind 'tabulated_w' does not match 'coeffs' payload"),
    "coeffs-kind-table": ({"kind": "coefficients", "w_table": {"breakpoints": [0.0], "values": [1.0]}},
                          "kind 'coefficients' does not match 'w_table' payload"),
    # an index or scale is an integer: 2.7 and 0.9 are not read as 2 and 0
    "fractional-scale": ({"scale_N": 2.7, "coeffs": [_COEFF]}, "scale_N must be an integer, got 2.7"),
    "fractional-index": ({"coeffs": [{"k": 0.9, "re": 1.0}]}, "coefficient index must be an integer, got 0.9"),
    "string-index": ({"coeffs": [{"k": "1", "re": 1.0}]}, "coefficient index must be an integer, got '1'"),
    "unknown-coefficient-key": ({"coeffs": [{"k": 1, "re": 0.5, "imag": 3}]},
                                "coefficient entry {'k': 1, 're': 0.5, 'imag': 3}: keys other than 'k', 're', 'im'"),
    # a document is an object whose keys are known: a misspelled key does not take its default
    "not-an-object": ([1, 2], "the filter document is not a JSON object"),
    "unknown-key": ({"scale_n": 3, "coeffs": [_COEFF]},
                    "the filter document: keys other than 'label', 'scale_N', 'kind', 'coeffs', 'w_table'"),
    "unknown-table-key": ({"w_table": {"breakpoints": [0.0], "values": [1.0], "extra": 1}},
                          "w_table: keys other than 'breakpoints', 'values'"),
    "table-not-an-object": ({"w_table": [[0.0], [1.0]]}, "w_table is not a JSON object"),
    "coefficient-not-an-object": ({"coeffs": [0.5]}, "coefficient entry 0.5 is not a JSON object"),
    "coeffs-not-an-array": ({"coeffs": {"k": 0, "re": 1.0}}, "coefficient entry 'k' is not a JSON object"),
    # numbers are JSON numbers, labels strings: no string or boolean is read as one
    "string-re": ({"coeffs": [{"k": 0, "re": "0.5"}]}, "re must be a number, got '0.5'"),
    "boolean-re": ({"coeffs": [{"k": 1, "re": True}]}, "re must be a number, got True"),
    "boolean-im": ({"coeffs": [{"k": 0, "re": 1.0, "im": False}]}, "im must be a number, got False"),
    "string-breakpoint": ({"w_table": {"breakpoints": ["0"], "values": [1.0]}},
                          "breakpoints must be a number, got '0'"),
    "boolean-value": ({"w_table": {"breakpoints": [0.0], "values": [True]}}, "values must be a number, got True"),
    "string-values": ({"w_table": {"breakpoints": [0.0], "values": "1"}}, "values must be a number, got '1'"),
    "boolean-index": ({"coeffs": [{"k": True, "re": 1.0}]}, "coefficient index must be an integer, got True"),
    "boolean-scale": ({"scale_N": True, "coeffs": [_COEFF]}, "scale_N must be an integer, got True"),
    "numeric-label": ({"label": 5, "coeffs": [_COEFF]}, "label must be a string, got 5"),
}


@pytest.mark.parametrize("case", list(BAD_SPECS))
def test_bad_filter_spec_is_refused_by_the_api_and_the_cli(case, tmp_path, capsys):
    doc, message = BAD_SPECS[case]
    with pytest.raises(ValueError, match=re.escape(message)):
        ww.FilterSpec.from_json_dict(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 1
    out, err = capsys.readouterr()
    assert not out
    assert err == f"wavewalk: error: {path}: bad filter spec: {message}\n"


#: calls of this module and the gallery that refuse their input: (call, exception, message)
REFUSED = {
    "unknown-kind": (lambda: ww.FilterSpec(kind="wavelets"), ValueError, "unknown filter kind 'wavelets'"),
    "partition-level-0": (lambda: check_partition(ww.load_gallery("shannon"), 0), ValueError,
                          "grid_level must be >= 1"),
    "high-pass-scale-3": (lambda: ww.high_pass(ww.FilterSpec.from_coefficients({0: 0.5, 1: 0.5}, scale_n=3)),
                          ww.UnsupportedScale, "high-pass mirror is defined for scale 2 only"),
    "unknown-gallery-name": (lambda: ww.load_gallery("nope"), KeyError, "unknown gallery filter 'nope'"),
    "fractional-scale": (lambda: ww.FilterSpec.from_coefficients({0: 0.5, 1: 0.5}, scale_n=2.5), ValueError,
                         "scale must be an integer, got 2.5"),
    "fractional-table-scale": (lambda: ww.FilterSpec.from_table([0.0], [1.0], scale_n=2.5), ValueError,
                               "scale must be an integer, got 2.5"),
    "fractional-index": (lambda: ww.FilterSpec.from_coefficients({0.9: 1.0}), ValueError,
                         "coefficient index must be an integer, got 0.9"),
}


def test_integral_floats_in_a_filter_file_are_integers():
    doc = {"scale_N": 3.0, "coeffs": [{"k": 0.0, "re": 0.5}, {"k": 2.0, "re": 0.5}]}
    spec = ww.FilterSpec.from_json_dict(doc)
    assert spec == ww.FilterSpec.from_coefficients({0: 0.5, 2: 0.5}, scale_n=3)
    assert type(spec.scale_n) is int and all(type(k) is int for k, _ in spec.coeffs)


@pytest.mark.parametrize("case", list(REFUSED))
def test_refused_input(case):
    call, exc, message = REFUSED[case]
    with pytest.raises(exc, match=re.escape(message)):
        call()


def test_gallery_files_parse():
    for name in ww.GALLERY_NAMES:
        doc = json.loads(ww.gallery_path(name).read_text())
        spec = ww.FilterSpec.from_json_dict(doc)
        assert spec.label == name
    s3 = math.sqrt(3.0)
    d4 = ww.load_gallery("d4")
    assert dict(d4.coeffs)[0].real == pytest.approx((1 + s3) / 8, abs=1e-16)
