"""Deterministic JSON and CSV emission.

JSON floats are printed with 17 significant digits and dict fields keep
insertion order, so identical inputs yield byte-identical output.  A
float64 ndarray of finite values is formatted in one pass; any other
array goes element by element through its list form.  A Python float is
the first type json_text tests, so each float of a list or tuple takes
one test before _fmt_float instead of the whole type dispatch.

CSV tables are written a column at a time: each column is formatted
once by its dtype and the rows are joined from the formatted columns.
CSV floats use the shortest round-trip representation, and each
distinct float bit pattern in a column is formatted only once.
Metadata rides in leading comment lines.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return "null"
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return "%.17g" % x


def json_text(obj) -> str:
    """Serialize nested dict/list/scalar structures deterministically."""
    # the commonest leaf is tested first; a float subclass such as
    # np.float64 reaches the same _fmt_float below
    if type(obj) is float:
        return _fmt_float(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        return f'"{out}"'
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, complex):
        return json_text({"re": obj.real, "im": obj.imag})
    if isinstance(obj, dict):
        inner = ", ".join(f"{json_text(str(k))}: {json_text(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(json_text(v) for v in obj) + "]"
    if isinstance(obj, np.ndarray):
        if obj.dtype == np.float64 and obj.ndim == 1 and np.isfinite(obj).all():
            return "[" + ", ".join(map("%.17g".__mod__, obj.tolist())) + "]"
        return json_text(obj.tolist())
    if isinstance(obj, np.floating):
        return _fmt_float(float(obj))
    if isinstance(obj, np.integer):
        return str(int(obj))
    if isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, np.complexfloating):
        return json_text(complex(obj))
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _csv_column(column) -> list[str]:
    """The CSV cells of one column, formatted by its dtype."""
    a = np.asarray(column)
    if a.dtype == np.bool_:
        return list(map(("false", "true").__getitem__, a.tolist()))
    if a.dtype.kind != "f":
        return list(map(str, a.tolist()))
    # one repr per distinct bit pattern, so -0.0 and 0.0 stay apart
    bits, where = np.unique(a.astype(np.float64, copy=False).view(np.int64), return_inverse=True)
    cells = ["null" if v != v else repr(v) for v in bits.view(np.float64).tolist()]
    return list(map(cells.__getitem__, where.tolist()))


def csv_text(meta: dict, header: list[str], columns: Sequence) -> str:
    """Comment lines for meta, the header, then one row per column index.

    Each column is a 1-D array or list, all of one length (ValueError
    otherwise): bool cells read true/false, integer and string cells
    their str, and float cells their shortest repr, with NaN written as
    null.
    """
    lines = [f"# {k} = {v}" for k, v in meta.items()]
    lines.append(",".join(header))
    lines += map(",".join, zip(*map(_csv_column, columns), strict=True))
    return "\n".join(lines) + "\n"
