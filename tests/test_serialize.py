"""The column CSV writer and the ndarray JSON path against row-wise references."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wavewalk.serialize import csv_text, json_text


def _csv_cell(v) -> str:
    """One cell of the row-wise writer the column writer replaced."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return "null" if math.isnan(v) else repr(v)
    if v is None:
        return "null"
    return str(v)


def _csv_rows(meta, header, columns) -> str:
    """The row-wise writer: one cell at a time from the columns' Python values."""
    lists = [c.tolist() if isinstance(c, np.ndarray) else list(c) for c in columns]
    lines = [f"# {k} = {v}" for k, v in meta.items()]
    lines.append(",".join(header))
    for row in zip(*lists):
        lines.append(",".join(_csv_cell(v) for v in row))
    return "\n".join(lines) + "\n"


SPECIAL = [
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
    1.5e-310, 1e16, -1e16, 1e-5, 0.1, 1.0 / 3.0, 123456789.125, 1e300, -2.5,
]


def _check(columns):
    meta = {"tool": "wavewalk", "config": "a=1 b=2"}
    header = [f"c{i}" for i in range(len(columns))]
    assert csv_text(meta, header, columns) == _csv_rows(meta, header, columns)


def test_csv_columns_of_every_dtype():
    n = len(SPECIAL)
    rng = np.random.default_rng(5)
    floats = np.array(SPECIAL)
    _check([
        floats,
        floats[::-1].tolist(),  # a list of Python floats
        np.arange(n) - 3,
        list(range(n)),
        rng.random(n) < 0.5,  # numpy bools
        [bool(v) for v in rng.random(n) < 0.5],  # Python bools
        [f"name{i}" for i in range(n)],
        np.full(n, 0.25),  # a constant column
        np.full(n, np.nan),
        rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n),
    ])


def test_csv_column_views_and_repeats():
    samples = np.random.default_rng(6).standard_normal(4 * len(SPECIAL)) + 1j
    samples[::3] = -0.0
    samples[1::7] = 0.0
    _check([samples.real, samples.imag, np.repeat(SPECIAL, 4)])


def test_csv_empty_table():
    _check([np.zeros(0), [], np.zeros(0, dtype=bool), np.zeros(0, dtype=np.int64)])
    assert csv_text({}, ["x", "y"], [[], []]) == "x,y\n"


def test_csv_columns_of_unequal_length():
    with pytest.raises(ValueError):
        csv_text({}, ["x", "y"], [np.zeros(3), np.zeros(2)])


@given(st.lists(st.floats(width=64), max_size=40))
def test_csv_float_column_matches_row_writer(values):
    _check([np.array(values, dtype=np.float64), values])


def test_csv_nan_payloads_are_null():
    nans = np.array([0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000001],
                    dtype=np.uint64).view(np.float64)
    assert csv_text({}, ["v"], [nans]) == "v\nnull\nnull\nnull\n"


@pytest.mark.parametrize(
    "arr",
    [
        np.array(SPECIAL[3:]),  # finite: the one-pass route
        np.array(SPECIAL),  # NaN and infinities: element by element
        np.array([1.0, math.inf]),
        np.array([-math.inf, 0.5]),
        np.random.default_rng(7).standard_normal((3, 4)),
        np.array([[1.0, math.nan], [0.0, -0.0]]),
        np.random.default_rng(8).standard_normal(5) + 1j * np.arange(5),
        (np.arange(6) + 0.5j)[::2].real,  # a strided view
        np.zeros(0),
        np.zeros((0, 2)),
        np.arange(4),
        np.arange(3, dtype=np.float32) / 3,
    ],
    ids=["finite", "special", "inf", "-inf", "2d", "2d-nan", "complex", "view", "empty",
         "empty-2d", "int", "float32"],
)
def test_json_array_matches_element_route(arr):
    assert json_text(arr) == json_text(arr.tolist())
    assert json_text({"a": arr, "b": [arr]}) == json_text({"a": arr.tolist(), "b": [arr.tolist()]})


FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 1e-5]


@pytest.mark.parametrize("seq", [list, tuple])
def test_json_float_sequence_matches_element_join(seq):
    xs = seq(FLOATS)
    want = '[null, "inf", "-inf", -0, 4.9406564584124654e-324, 10000000000000000, 1.0000000000000001e-05]'
    assert json_text(xs) == want
    assert json_text(xs) == "[" + ", ".join(json_text(v) for v in xs) + "]"
    assert json_text({"a": xs, "b": [xs, seq()]}) == '{"a": %s, "b": [%s, []]}' % (want, want)


def test_json_mixed_nested_and_bool_lists_keep_their_output():
    mixed = [1.0, 2, True, None, "a", [0.5, False, [-0.0]], np.float64(0.25), (math.nan,),
             np.bool_(True), np.int64(3), 1 + 2j, np.complex64(0.5 - 1j)]
    assert json_text(mixed) == ('[1, 2, true, null, "a", [0.5, false, [-0]], 0.25, [null], true, 3, '
                                '{"re": 1, "im": 2}, {"re": 0.5, "im": -1}]')
    # float subclasses and float32 scalars are formatted as before
    assert json_text([np.float64(math.inf), 0.1, np.float32(0.1)]) == \
        '["inf", 0.10000000000000001, 0.10000000149011612]'
    assert json_text([True, False]) == "[true, false]"


#: calls of this module that refuse their input: (call, exception, message)
REFUSED = {
    "json-object": (lambda: json_text(object()), TypeError, "cannot serialize <class 'object'>"),
}


@pytest.mark.parametrize("case", list(REFUSED))
def test_refused_input(case):
    call, exc, message = REFUSED[case]
    with pytest.raises(exc, match=re.escape(message)):
        call()
