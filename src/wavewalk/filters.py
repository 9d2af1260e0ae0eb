"""Filter specifications and their coefficient-level sanity checks.

A filter is either a finite list of masking coefficients a_k (complex,
arbitrary integer indices, normalized so that sum(a_k) = 1 for a
low-pass filter) or a tabulated piecewise-constant weight W on [0, 1).
The weight of a coefficient filter is W = |m|^2 where
m(x) = sum_k a_k exp(-i 2 pi k x).

Checks offered:
  * partition: sum of W over the N branch points (x + j)/N equals 1, read
    exactly off the Fourier coefficients w_j of W as N w_{Nm} = delta_{m0}
    for a coefficient filter (for N = 2 the quadrature condition
    sum_k conj(a_k) a_{k+2n} = delta_{0,n}/2), and sampled on a grid for a table;
  * low-pass:   sum_k a_k = 1.

FilterSpec instances are immutable; every function here is pure.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import FilterKindError, NonFiniteArgument, UnsupportedScale
from .ifs import _cell_of, _check_scale, grid_cells

KIND_COEFFICIENTS = "coefficients"
KIND_TABULATED = "tabulated_w"

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class FilterSpec:
    """A wavelet filter, by coefficients or by tabulated weight."""

    kind: str
    scale_n: int = 2
    coeffs: tuple[tuple[int, complex], ...] = ()
    breakpoints: tuple[float, ...] = ()
    values: tuple[float, ...] = ()
    label: str = ""

    def __post_init__(self) -> None:
        _check_scale(self.scale_n)
        if self.kind == KIND_COEFFICIENTS:
            if not self.coeffs:
                raise ValueError("coefficient filter needs a nonempty index set")
            ks = [k for k, _ in self.coeffs]
            if len(set(ks)) != len(ks):
                raise ValueError("duplicate coefficient index")
            if not all(cmath.isfinite(v) for _, v in self.coeffs):
                raise NonFiniteArgument("coefficients must be finite")
            for k, v in self.coeffs:
                # |a_k|**2 is a term of the weight's constant tap (_weight_taps)
                size = math.hypot(v.real, v.imag)
                if not math.isfinite(size * size):
                    raise NonFiniteArgument(f"coefficient a_{k} = {v!r}: |a_k|**2 overflows")
        elif self.kind == KIND_TABULATED:
            if len(self.breakpoints) != len(self.values) or not self.values:
                raise ValueError("table needs matching nonempty breakpoints/values")
            if self.breakpoints[0] != 0.0:
                raise ValueError("first breakpoint must be 0")
            bp = self.breakpoints
            if not all(map(math.isfinite, bp)):
                raise NonFiniteArgument("breakpoints must be finite")
            if any(b2 <= b1 for b1, b2 in zip(bp, bp[1:])) or bp[-1] >= 1.0:
                raise ValueError("breakpoints must be strictly increasing in [0, 1)")
            if any(not 0.0 <= v <= 1.0 for v in self.values):
                raise ValueError("table values must lie in [0, 1]")
        else:
            raise ValueError(f"unknown filter kind {self.kind!r}")

    # -- constructors -------------------------------------------------

    @classmethod
    def from_coefficients(cls, coeffs, scale_n: int = 2, label: str = "") -> "FilterSpec":
        """Build from {index: value} or iterable of (index, value) pairs."""
        if isinstance(coeffs, dict):
            pairs = sorted(coeffs.items())
        else:
            pairs = sorted(coeffs)
        pairs = tuple((_integer(k, "coefficient index"), complex(v)) for k, v in pairs)
        return cls(kind=KIND_COEFFICIENTS, scale_n=scale_n, coeffs=pairs, label=label)

    @classmethod
    def from_table(cls, breakpoints, values, scale_n: int = 2, label: str = "") -> "FilterSpec":
        """Piecewise-constant weight on half-open pieces [b_i, b_{i+1})."""
        return cls(
            kind=KIND_TABULATED,
            scale_n=scale_n,
            breakpoints=tuple(float(b) for b in breakpoints),
            values=tuple(float(v) for v in values),
            label=label,
        )

    # -- JSON schema ---------------------------------------------------

    @classmethod
    def from_json_dict(cls, doc: dict) -> "FilterSpec":
        """Read to_json_dict's schema; a key out of place or a value of another JSON type raises ValueError."""
        _object(doc, ("label", "scale_N", "kind", "coeffs", "w_table"), "the filter document")
        label = doc.get("label", "")
        if not isinstance(label, str):
            raise ValueError(f"label must be a string, got {label!r}")
        scale_n = _integer(doc.get("scale_N", 2), "scale_N")
        kind = doc.get("kind")
        has_coeffs = "coeffs" in doc
        if has_coeffs == ("w_table" in doc):
            raise ValueError("exactly one of 'coeffs'/'w_table' must be present")
        if has_coeffs:
            if kind not in (None, KIND_COEFFICIENTS):
                raise ValueError(f"kind {kind!r} does not match 'coeffs' payload")
            entries = [_object(c, ("k", "re", "im"), f"coefficient entry {c!r}") for c in doc["coeffs"]]
            pairs = [(c["k"], complex(*(_number(c.get(key, 0.0), key) for key in ("re", "im")))) for c in entries]
            return cls.from_coefficients(pairs, scale_n=scale_n, label=label)
        if kind not in (None, KIND_TABULATED):
            raise ValueError(f"kind {kind!r} does not match 'w_table' payload")
        table = _object(doc["w_table"], ("breakpoints", "values"), "w_table")
        bp, vals = ([_number(v, key) for v in table[key]] for key in ("breakpoints", "values"))
        return cls.from_table(bp, vals, scale_n=scale_n, label=label)

    def to_json_dict(self) -> dict:
        doc: dict = {"label": self.label, "scale_N": self.scale_n, "kind": self.kind}
        if self.kind == KIND_COEFFICIENTS:
            doc["coeffs"] = [{"k": k, "re": v.real, "im": v.imag} for k, v in self.coeffs]
        else:
            doc["w_table"] = {
                "breakpoints": list(self.breakpoints),
                "values": list(self.values),
            }
        return doc

    # -- convenience views --------------------------------------------

    def coeff_indices(self) -> np.ndarray:
        self._need_coefficients()
        return np.array([k for k, _ in self.coeffs], dtype=np.int64)

    def coeff_values(self) -> np.ndarray:
        self._need_coefficients()
        return np.array([v for _, v in self.coeffs], dtype=np.complex128)

    def _need_coefficients(self) -> None:
        if self.kind != KIND_COEFFICIENTS:
            raise FilterKindError("operation needs a coefficient filter")


def _integer(value, what: str) -> int:
    """value as an int: an integer, or a float equal to one (JSON may write 2 as 2.0), not a bool."""
    try:
        k = None if isinstance(value, bool) else int(value)
    except (TypeError, ValueError, OverflowError):
        k = None
    if k is None or k != value:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return k


def _number(value, what: str) -> float:
    """A JSON number (an int or a float, not a bool or a string) as a float."""
    if type(value) not in (int, float):
        raise ValueError(f"{what} must be a number, got {value!r}")
    return float(value)


def _object(value, keys, what: str) -> dict:
    """value, if it is a JSON object whose keys are among keys."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} is not a JSON object")
    if not set(value) <= set(keys):
        raise ValueError(f"{what}: keys other than {', '.join(map(repr, keys))}")
    return value


def load_filter(path) -> FilterSpec:
    """Read a filter spec from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        return FilterSpec.from_json_dict(json.load(fh))


def save_filter(spec: FilterSpec, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec.to_json_dict(), fh, indent=2)
        fh.write("\n")


# ----------------------------------------------------------------------
# evaluation


def eval_response(spec: FilterSpec, x: float) -> complex:
    """The 1-periodic response sum_k a_k exp(-i 2 pi k x)."""
    spec._need_coefficients()
    return sum(v * cmath.exp(-2j * cmath.pi * k * x) for k, v in spec.coeffs)


def eval_weight(spec: FilterSpec, x: float) -> float:
    """The branch weight W(x): |response|^2, or a table lookup, in [0, 1].

    A NaN or infinite x gives NaN, or NonFiniteArgument for a table.
    """
    if spec.kind == KIND_COEFFICIENTS:
        # the response is 1-periodic: reduce exactly to [-1/2, 1/2] first
        r = math.remainder(x, 1.0) if math.isfinite(x) else math.nan
        return abs(eval_response(spec, r)) ** 2
    if not math.isfinite(x):
        raise NonFiniteArgument(f"tabulated weight read at {x!r}")
    r = x % 1.0
    if r >= 1.0:
        r = 0.0
    i = 0
    for j, b in enumerate(spec.breakpoints):
        if b <= r:
            i = j
        else:
            break
    return spec.values[i]


def response_array(spec: FilterSpec, xs: np.ndarray) -> np.ndarray:
    """Vectorized eval_response, with the argument reduced first.

    The response is 1-periodic: unlike eval_response, which does not,
    the argument is reduced exactly to [-1/2, 1/2] first, as weight_array
    and eval_weight do, so a large |x| adds no rounding to the phase and
    2 pi x cannot overflow.  The two differ in their bits for |x| > 1/2.
    """
    spec._need_coefficients()
    xs = np.asarray(xs, dtype=np.float64)
    z = np.exp(-2j * np.pi * (xs - np.rint(xs)))
    out = np.zeros(z.shape, dtype=np.complex128)
    # Horner over the contiguous index range keeps this to one exp call.
    ks = spec.coeff_indices()
    vs = spec.coeff_values()
    k_lo, k_hi = int(ks.min()), int(ks.max())
    dense = np.zeros(k_hi - k_lo + 1, dtype=np.complex128)
    dense[ks - k_lo] = vs
    for c in dense[::-1]:
        out = out * z + c
    if k_lo != 0:
        out = out * z**k_lo
    return out


@functools.lru_cache(maxsize=64)
def _weight_taps(spec: FilterSpec):
    """Autocorrelation taps of the coefficients: |m|^2 as a trigonometric series.

    |m(x)|^2 = c_0 + 2 sum_{j>0} [Re c_j cos(2 pi j x) + Im c_j sin(2 pi j x)]
    with c_j = sum_k conj(a_k) a_{k+j}.  Returns (c_0, cos_taps, sin_taps)
    with cos_taps[j-1] = 2 Re c_j and sin_taps[j-1] = 2 Im c_j; sin_taps is
    empty when every c_j is real.  Cached per filter, as tuples.
    """
    cmap = dict(spec.coeffs)
    ks = sorted(cmap)
    span = ks[-1] - ks[0]
    c0 = sum(abs(v) ** 2 for v in cmap.values())
    cs = [sum(cmap[k].conjugate() * cmap.get(k + j, 0.0) for k in ks) for j in range(1, span + 1)]
    cos_taps = tuple(2.0 * c.real for c in cs)
    sin_taps = tuple(2.0 * c.imag for c in cs) if any(c.imag for c in cs) else ()
    return c0, cos_taps, sin_taps


@functools.lru_cache(maxsize=64)
def _weight_fourier(spec: FilterSpec):
    """(js, w): W(x) = sum_j w_j exp(2 pi i j x), j = -S..S for the coefficient span S,
    w_{-j} = c_j of _weight_taps (real where every c_j is).  Cached per filter, read-only."""
    c0, cos_taps, sin_taps = _weight_taps(spec)
    span = len(cos_taps)
    half = (np.asarray(cos_taps) - 1j * np.asarray(sin_taps or np.zeros(span))) / 2
    w = np.concatenate([half[::-1].conj(), [c0], half])
    if not sin_taps:
        w = w.real
    js = np.arange(-span, span + 1)
    js.flags.writeable = w.flags.writeable = False
    return js, w


# ----------------------------------------------------------------------
# closing the zero-path products prod_{m>=1} f(y / N**m)

#: a series closure starts once |y| <= r / CLOSURE_SHRINK, where r is the
#: radius of a complex disc on which |f - 1| <= 1/2
CLOSURE_SHRINK = 128

#: the series of log f is cut where the remainder bound first falls below this
CLOSURE_TARGET = 2.0**-60


@dataclass(frozen=True)
class _Closure:
    """The rest prod_{m>=1} f(y / N**m) of a zero-path product, in closed form.

    Wherever lo <= y < hi, rest(y) is that infinite product, with
    relative error at most bound (0: exact; NaN, with a NaN rest: the
    product has no limit).  Every closure holds y = 0.
    """

    lo: float
    hi: float
    rest: Callable[[np.ndarray], np.ndarray]
    bound: float


def _disc_radius(excess) -> float:
    """The largest r with excess(r) <= 1/2, for excess increasing from excess(0) = 0."""
    lo, hi = 0.0, 1.0
    with np.errstate(over="ignore"):
        while excess(hi) <= 0.5:
            if hi > 1e300:
                return math.inf
            lo, hi = hi, 2.0 * hi
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if excess(mid) <= 0.5 else (lo, mid)
    return lo


def _series_closure(amps, rates, excess, n: int, real: bool) -> _Closure:
    """Close prod_{m>=1} f(y / N**m) for f = sum_i amps[i] exp(rates[i] y), f(0) = 1.

    With log f(y) = sum_{k>=1} l_k y^k, the product is
    exp(sum_k l_k y^k / (N**k - 1)).  The f_k = sum_i amps[i] rates[i]**k / k!
    are the Taylor coefficients of f at 0, and the l_k follow from
    k l_k = k f_k - sum_{j<k} j l_j f_{k-j} (f_0 := 1, l_0 := 0).
    excess(r) bounds |f(z) - 1| on the disc |z| <= r; where it is at most
    1/2, |log f| <= log 2 there, so |l_k| <= log 2 / r**k (Cauchy).  With
    rho = r / CLOSURE_SHRINK and |y| <= rho, the terms past the T-th add
    at most eps = log 2 sum_{k>T} q**k / (N**k - 1) <= log 2 q**(T+1) /
    (N**(T+1) - 1) / (1 - q/N) to the log, q = 1 / CLOSURE_SHRINK; T is
    the fewest terms with eps <= CLOSURE_TARGET (7 for N = 2), and the
    relative bound is expm1(eps).
    """
    q = 1.0 / CLOSURE_SHRINK

    def remainder(t):
        return math.log(2.0) * q ** (t + 1) / (n ** (t + 1) - 1) / (1.0 - q / n)

    terms = 1
    while remainder(terms) > CLOSURE_TARGET:
        terms += 1
    amps, rates = np.asarray(amps, dtype=np.complex128), np.asarray(rates, dtype=np.complex128)
    f = [complex(np.sum(amps * rates**k)) / math.factorial(k) for k in range(terms + 1)]
    ell = [0j] * (terms + 1)
    for k in range(1, terms + 1):
        ell[k] = f[k] - sum(j * ell[j] * f[k - j] for j in range(1, k)) / k
    coeffs = [ell[k] / (n**k - 1) for k in range(1, terms + 1)]
    if real:
        coeffs = [c.real for c in coeffs]

    def rest(y):
        s = coeffs[-1]
        for c in coeffs[-2::-1]:
            s = s * y + c
        return np.exp(s * y)

    rho = _disc_radius(excess) / CLOSURE_SHRINK
    return _Closure(-rho, math.nextafter(rho, math.inf), rest, math.expm1(remainder(terms)))


def _is_one(total, terms) -> bool:
    """Whether total, the sum of these terms, is 1 to its rounding level (100 eps sum |terms|)."""
    return abs(total - 1.0) <= 100.0 * np.finfo(float).eps * float(np.sum(np.abs(terms)))


def _limit_closure(f0: complex) -> _Closure:
    """Close prod_{m>=1} f(y / N**m) for f(0) != 1 on the whole line: the factors
    tend to f(0), so the rest is exactly 0 where |f(0)| < 1 and NaN (no limit) otherwise."""
    rest = 0.0 if abs(f0) < 1.0 else math.nan
    return _Closure(-math.inf, math.inf, lambda y: np.full(y.shape, rest), rest)


@functools.lru_cache(maxsize=64)
def _weight_closure(spec: FilterSpec) -> _Closure:
    """How prod_{m>=1} W(y / N**m) closes.

    A table: once 0 <= y < b_1, or b_last - 1 <= y < 0, every later
    factor is the value of that end cell, so the rest is exactly 1 (the
    value is 1) or exactly 0 (it is below 1).  A coefficient filter with
    W(0) = 1 to rounding level: the series closure of W, whose disc
    bound is sum_j |a_j| (cosh 2 pi j r - 1) + |s_j| sinh 2 pi j r for
    the cosine and sine taps a_j, s_j.  Any other coefficient filter:
    the limit closure of W(0).  Cached per filter.
    """
    if spec.kind != KIND_COEFFICIENTS:
        bp, vals = spec.breakpoints, spec.values
        first, last = float(vals[0] == 1.0), float(vals[-1] == 1.0)
        return _Closure(
            bp[-1] - 1.0, bp[1] if len(bp) > 1 else 1.0, lambda y: np.where(y < 0.0, last, first), 0.0
        )
    c0, cos_taps, sin_taps = _weight_taps(spec)
    a = np.asarray(cos_taps)
    s = np.asarray(sin_taps or np.zeros(a.size))
    if not _is_one(c0 + a.sum(), np.concatenate([[c0], a, s])):
        return _limit_closure(c0 + a.sum())
    w = 2.0 * np.pi * np.arange(1, a.size + 1)
    amps = np.concatenate([[c0], (a - 1j * s) / 2, (a + 1j * s) / 2])
    rates = np.concatenate([[0.0], 1j * w, -1j * w])
    return _series_closure(
        amps, rates, lambda r: np.sum(np.abs(a) * (np.cosh(w * r) - 1.0) + np.abs(s) * np.sinh(w * r)),
        spec.scale_n, real=True,
    )


@functools.lru_cache(maxsize=64)
def _response_closure(spec: FilterSpec) -> _Closure:
    """How prod_{m>=1} m(y / N**m) closes: the series closure of the
    response where m(0) = sum_k a_k = 1 to rounding level, with disc bound
    sum_k |a_k| (exp(2 pi |k| r) - 1); the limit closure of m(0)
    otherwise.  Cached per filter.
    """
    ks, vs = spec.coeff_indices(), spec.coeff_values()
    if not _is_one(vs.sum(), vs):
        return _limit_closure(complex(vs.sum()))
    w = 2.0 * np.pi * np.abs(ks)
    return _series_closure(
        vs, -2j * np.pi * ks, lambda r: np.sum(np.abs(vs) * np.expm1(w * r)), spec.scale_n, real=False
    )


def _clenshaw(taps, c2):
    """Clenshaw sums (b_1, b_2) of sum_j taps[j-1] P_j(c) for the
    recurrence P_{j+1} = 2c P_j - P_{j-1} (Chebyshev T or U), c2 = 2c.

    b_2 is None where it is 0 (no tap or one), so that no pass subtracts
    it; nor does the first step, where b_3 = 0.  Subtracting 0.0 leaves
    every float as it is, so the sums keep their bits.  c2 is read only
    for two taps or more.
    """
    b1, b2 = (taps[-1], None) if taps else (0.0, None)
    for t in reversed(taps[:-1]):
        b1, b2 = (c2 * b1 + t if b2 is None else c2 * b1 - b2 + t), b1
    return b1, b2


def _trig_series(taps, xs: np.ndarray) -> np.ndarray:
    """A nonnegative 1-periodic trigonometric series at every x in xs.

    taps = (c_0, cos_taps, sin_taps) in the layout of _weight_taps: the
    series c_0 + sum_j [cos_taps[j-1] cos 2 pi j x + sin_taps[j-1] sin 2 pi j x],
    summed at the argument reduced to [-1/2, 1/2] (exactly, so a large |x|
    adds no rounding to the angle).  The cosine series is summed by
    Clenshaw's recurrence in c = cos 2 pi x: c_0 + sum_j a_j T_j(c) =
    c_0 + c b_1 - b_2.  The sine series, skipped when sin_taps is empty,
    is sin 2 pi x times sum_j s_j U_{j-1}(c), the b_1 of the same
    recurrence.  Round-off can leave values a few ulp below 0, which is
    clamped away.  Each operation is one ufunc call that returns a new
    array, or a numpy scalar for a scalar or 0-d xs: nothing is written
    in place or through out=, which would make one-element calls slower
    and fail on scalars.  No pass subtracts a b_2 that is 0, and 2c is
    formed only where a recurrence reads it.
    """
    c0, cos_taps, sin_taps = taps
    ang = 2.0 * np.pi * (xs - np.rint(xs))
    c = np.cos(ang)
    c2 = 2.0 * c if max(len(cos_taps), len(sin_taps)) > 1 else None
    b1, b2 = _clenshaw(cos_taps, c2)
    out = c * b1 + c0 if b2 is None else c * b1 - b2 + c0
    if sin_taps:
        out += np.sin(ang) * _clenshaw(sin_taps, c2)[0]
    return np.maximum(out, 0.0)


def weight_array(spec: FilterSpec, xs: np.ndarray) -> np.ndarray:
    """Vectorized eval_weight.

    Coefficient filters sum the exact trigonometric series of |m|^2
    (_trig_series over _weight_taps).  Non-finite points behave as in
    eval_weight.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if spec.kind == KIND_COEFFICIENTS:
        return _trig_series(_weight_taps(spec), xs)
    if not np.isfinite(xs).all():
        raise NonFiniteArgument("tabulated weight read at a non-finite point")
    return np.asarray(spec.values, dtype=np.float64)[_cell_of(np.asarray(spec.breakpoints), xs)]


def _grid_flows(spec: FilterSpec, level: int, every: int = 1):
    """Branch weights and cells of the grid transfer operator, N = spec.scale_n.

    For cell m and branch j the branch point is (m + j*N**L) / N**(L+1);
    it carries weight W of that point and lies in cell (m + j*N**L) // N.
    Returns (weights, cells) at the cells m = 0, every, 2*every, ...: shape (N, N**L // every).
    """
    n = spec.scale_n
    with grid_cells(n, level) as cells:
        shifted = np.arange(0, cells, every, dtype=np.int64) + cells * np.arange(n, dtype=np.int64)[:, None]
    weights = weight_array(spec, shifted.astype(np.float64) / (n * cells))
    shifted //= n
    return weights, shifted


# ----------------------------------------------------------------------
# checks


@dataclass(frozen=True)
class ValidationReport:
    """Per-condition errors and verdicts for one filter; grid_level is 0 where no grid was read."""

    grid_level: int
    verdicts: dict = field(default_factory=dict)
    partition_max_error: float | None = None
    lowpass_error: float | None = None

    @property
    def all_ok(self) -> bool:
        return all(self.verdicts.values())

    def to_json_dict(self) -> dict:
        """grid_level, the errors that were checked, and the verdicts."""
        errors = {k: v for k, v in vars(self).items() if k.endswith("_error") and v is not None}
        return {"grid_level": self.grid_level, **errors, "verdicts": dict(self.verdicts)}


def check_partition(spec: FilterSpec, grid_level: int, tol: float = DEFAULT_TOL) -> ValidationReport:
    """How far sum_j W((x+j)/N) is from 1.  A coefficient filter, exactly:
    sum_m |N w_{Nm} - delta_{m0}| over the w_j of _weight_fourier, which bounds the
    deviation at every x, as that is sum_m (N w_{Nm} - delta_{m0}) exp(2 pi i m x);
    no grid is read, the report's grid_level is 0, and a weight that overflows
    reads inf.  A table: the max deviation over the level-L grid (_grid_flows)."""
    if spec.kind == KIND_COEFFICIENTS:
        js, w = _weight_fourier(spec)
        on_grid, grid_level = js % spec.scale_n == 0, 0
        with np.errstate(over="ignore"):
            err = float(np.sum(np.abs(spec.scale_n * w[on_grid] - (js[on_grid] == 0))))
    elif grid_level < 1:
        raise ValueError("grid_level must be >= 1")
    else:
        weights, _ = _grid_flows(spec, grid_level)
        err = float(np.max(np.abs(weights.sum(axis=0) - 1.0)))
    return ValidationReport(grid_level=grid_level, partition_max_error=err, verdicts={"partition": err <= tol})


def check_lowpass(spec: FilterSpec, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Deviation of sum_k a_k from 1.  The verdict also asks for m(0) = 1 to rounding
    level, the test by which _response_closure gives the products a limit that is not 0."""
    vs = spec.coeff_values()
    err = abs(sum(v for _, v in spec.coeffs) - 1.0)
    return ValidationReport(grid_level=0, lowpass_error=err,
                            verdicts={"lowpass": err <= tol and _is_one(vs.sum(), vs)})


def validate_filter(spec: FilterSpec, grid_level: int = 10, tol: float = DEFAULT_TOL) -> ValidationReport:
    """check_partition (which reads grid_level for a table only), merged with
    check_lowpass for a coefficient filter."""
    rep = check_partition(spec, grid_level, tol)
    if spec.kind != KIND_COEFFICIENTS:
        return rep
    lp = check_lowpass(spec, tol)
    return replace(lp, partition_max_error=rep.partition_max_error, verdicts={**rep.verdicts, **lp.verdicts})


def high_pass(spec: FilterSpec) -> FilterSpec:
    """Mirror coefficients b_k = (-1)**(k+1) conj(a_{1-k}), dyadic only.

    Applying the map twice returns the negated original coefficients.
    """
    spec._need_coefficients()
    if spec.scale_n != 2:
        raise UnsupportedScale("high-pass mirror is defined for scale 2 only")
    pairs = []
    for k, v in spec.coeffs:
        kk = 1 - k
        pairs.append((kk, (-1.0) ** (kk + 1) * v.conjugate()))
    label = f"high_pass({spec.label})" if spec.label else "high_pass"
    return FilterSpec.from_coefficients(pairs, scale_n=2, label=label)
