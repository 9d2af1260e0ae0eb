import json
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wavewalk as ww
from wavewalk.cli import main
from wavewalk.filters import check_lowpass, check_partition, check_quadrature

from conftest import quadrature_family


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


def test_partition_of_the_scale_3_box_reads_exact_branch_points():
    # each branch point (m + j 3**L) / 3**(L+1) is one rounding from the
    # exact point, where (m / 3**L + j) / 3 is three
    box3 = ww.FilterSpec.from_coefficients({0: 1 / 3, 1: 1 / 3, 2: 1 / 3}, scale_n=3)
    level = 9
    cells = 3**level
    pts = (np.arange(cells) + cells * np.arange(3)[:, None]).astype(np.float64) / (3 * cells)
    want = float(np.max(np.abs(ww.weight_array(box3, pts).sum(axis=0) - 1.0)))
    rep = check_partition(box3, grid_level=level)
    assert rep.partition_max_error == want
    assert rep.partition_max_error <= 1e-15 and rep.all_ok


def test_quadrature_haar_d4(haar, d4):
    assert check_quadrature(haar).quadrature_max_error < 1e-15
    assert check_quadrature(d4).quadrature_max_error < 1e-12


def test_quadrature_rejects():
    bad = ww.FilterSpec.from_coefficients({0: 0.6, 1: 0.4})
    rep = check_quadrature(bad)
    assert not rep.verdicts["quadrature"]
    n3 = ww.FilterSpec.from_coefficients({0: 0.5, 1: 0.5}, scale_n=3)
    with pytest.raises(ww.UnsupportedScale):
        check_quadrature(n3)
    with pytest.raises(ww.FilterKindError):
        check_quadrature(ww.load_gallery("shannon"))


def test_lowpass(haar, d4, highpass):
    assert check_lowpass(haar).lowpass_error == 0.0
    assert check_lowpass(d4).lowpass_error < 1e-15
    rep = check_lowpass(highpass)
    assert rep.lowpass_error == pytest.approx(1.0, abs=1e-15)
    assert not rep.verdicts["lowpass"]


@given(theta=st.floats(min_value=0.01, max_value=6.27))
@settings(max_examples=25, deadline=None)
def test_quadrature_family_partition(theta):
    # quadrature implies the weight is a partition of unity
    spec = quadrature_family(theta)
    assert check_quadrature(spec).quadrature_max_error < 1e-12
    assert check_partition(spec, grid_level=8).partition_max_error <= 1e-10


def test_quadrature_family_partition_level12():
    spec = quadrature_family(1.234)
    assert check_partition(spec, grid_level=12).partition_max_error <= 1e-10


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
    assert set(rep.verdicts) == {"partition", "quadrature", "lowpass"}
    assert rep.all_ok
    rep = ww.validate_filter(shannon)
    assert set(rep.verdicts) == {"partition"}


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
    "partition-level-0": (lambda: check_partition(ww.load_gallery("haar"), 0), ValueError,
                          "grid_level must be >= 1"),
    "high-pass-scale-3": (lambda: ww.high_pass(ww.FilterSpec.from_coefficients({0: 0.5, 1: 0.5}, scale_n=3)),
                          ww.UnsupportedScale, "high-pass mirror is defined for scale 2 only"),
    "unknown-gallery-name": (lambda: ww.load_gallery("nope"), KeyError, "unknown gallery filter 'nope'"),
}


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
