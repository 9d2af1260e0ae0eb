"""N-adic interval dynamics on X = [0, 1).

The expanding map x -> N*x mod 1, its N inverse branches
(x + j)/N, and the digit-word bookkeeping that ties nonnegative
integers (base-N expansion, least significant digit first) and
negative integers (modular complement) to branch compositions and
to N-adic subintervals.  The level-L grids of N**L cells that the
package's grid functions sample are built here too (cell_grid).

Everything here is pure arithmetic and safe for concurrent use.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import DigitOutOfRange, EmptyWord, GridTooLarge, NonFiniteArgument

#: the smallest normal float; a branch quotient below it may be inexact
_TINY = np.finfo(np.float64).tiny


def frac(x: float) -> float:
    """Fractional part in [0, 1); the endpoint 1 is identified with 0.

    Raises NonFiniteArgument for NaN or an infinity, which have none.
    """
    if not math.isfinite(x):
        raise NonFiniteArgument(f"no fractional part of {x!r}")
    r = x % 1.0
    return r if r < 1.0 else 0.0


@contextlib.contextmanager
def grid_cells(n: int, level: int):
    """The cell count N**level of the level-L N-adic grid, for its allocation.

    Raises ValueError for a negative level.  The body allocates the grid's
    arrays and nothing else: numpy's failure to allocate them (MemoryError,
    or ValueError for a size past its limit) becomes GridTooLarge.
    """
    if level < 0:
        raise ValueError(f"grid level must be >= 0, got {level}")
    try:
        yield n**level
    except (MemoryError, ValueError) as exc:
        raise GridTooLarge(f"grid level {level}: {n}**{level} cells cannot be allocated") from exc


def cell_grid(n: int, level: int, offset: float = 0.0) -> np.ndarray:
    """The points (m + offset) / N**level of the N**level level-L cells m."""
    with grid_cells(n, level) as cells:
        pts = np.arange(cells, dtype=np.float64)
    pts += offset
    pts /= cells
    return pts


@dataclass(frozen=True)
class DigitWord:
    """A finite word (i_1, ..., i_n) of base-N digits.

    The first entry is the least significant digit of the integer the
    word encodes, and the first branch applied when the word drives a
    composition of inverse branches.
    """

    digits: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        for d in self.digits:
            if d < 0:
                raise DigitOutOfRange(f"negative digit {d}")

    def __len__(self) -> int:
        return len(self.digits)

    def __iter__(self):
        return iter(self.digits)

    def __bool__(self) -> bool:
        return bool(self.digits)

    def extended(self, j: int) -> "DigitWord":
        """Append one digit."""
        return DigitWord(self.digits + (j,))

    def to_json(self) -> list[int]:
        """JSON form: plain array, least significant digit first."""
        return list(self.digits)


@dataclass(frozen=True)
class PathSystem:
    """The branch system at a fixed integer scale N >= 2."""

    scale_n: int = 2

    def __post_init__(self) -> None:
        if self.scale_n < 2:
            raise ValueError(f"scale must be >= 2, got {self.scale_n}")

    def shift(self, x: float) -> float:
        """The expanding map N*x mod 1."""
        return frac(self.scale_n * frac(x))

    def branch(self, j: int, x: float) -> float:
        """Inverse branch (x + j)/N, the j-th right inverse of the shift.

        branch_array at one point, with its rounding.
        """
        self._check_digit(j)
        return float(self.branch_array(j, np.array([x], dtype=np.float64))[0])

    def branch_array(self, digits, ys) -> np.ndarray:
        """Vectorized branch for states ys in [0, 1) and digits in [0, N).

        digits and ys broadcast against each other, and the result has
        their broadcast shape: digits of shape (N, 1) against states of
        shape (M,) give the N branches of every state as an (N, M) array,
        the digit the slow axis (as measures._grow lays out a level), and
        digits of shape (N,) against states of shape (M, 1) give them as
        (M, N).  The states are taken as float64, and two scalars give a
        0-d array.

        The sum x + j is rounded toward zero: rounded to nearest it can land
        on the edge of the next N-adic cell (on 1.0 for j = N - 1 and x just
        below 1, where the weight would be read at 0).  So a state stays
        below 1 and, for N a power of 2, in every N-adic cell of the exact
        (x + j)/N.  (x + j) - j is exact for j >= 1: it exceeds x exactly
        when the sum was rounded up.  Such a sum is positive, so one ulp
        toward zero is one step down its int64 bit pattern.  The quotient is
        rounded toward zero too: below the smallest normal float it loses
        bits even for N a power of 2.  Such a quotient has digit 0, so its
        sum is x itself, and q * N > x there exactly when it was rounded up.
        """
        ys = np.asarray(ys, dtype=np.float64)
        s = np.asarray(ys + digits)
        bits = s.view(np.int64)
        bits -= s - digits > ys
        s /= self.scale_n
        if s.min(initial=1.0) < _TINY:
            np.nextafter(s, 0.0, out=s, where=(s < _TINY) & (s * self.scale_n > ys))
        return s

    def digits_of(self, k: int) -> DigitWord:
        """Base-N digits of k >= 0, least significant first; empty word for 0."""
        if k < 0:
            raise ValueError(f"digits_of needs k >= 0, got {k}")
        digits = []
        while k:
            k, d = divmod(k, self.scale_n)
            digits.append(d)
        return DigitWord(tuple(digits))

    def word_of_int(self, k: int) -> DigitWord:
        """Digit word addressing the integer k, negative values included.

        For k < 0 the word encodes N**(n+1) + k where n is the least
        integer with N**n >= -k; the result has length n + 1 and its
        last digit is N - 1, i.e. it is the shortest prefix of the
        N-adic expansion of k that pins the value mod N**(n+1).
        """
        if k >= 0:
            return self.digits_of(k)
        n = 0
        while self.scale_n**n < -k:
            n += 1
        return self.digits_of(self.scale_n ** (n + 1) + k)

    def word_to_int(self, word: DigitWord) -> int:
        """Inverse of digits_of: i_1 + i_2*N + ... + i_n*N**(n-1)."""
        k = 0
        for d in reversed(word.digits):
            self._check_digit(d)
            k = k * self.scale_n + d
        return k

    def apply_word(self, word: DigitWord, x: float) -> float:
        """Compose branches along the word: branch(i_n) o ... o branch(i_1).

        Equals (x + word_to_int(word)) / N**len(word).
        """
        y = x
        for d in word:
            y = self.branch(d, y)
        return y

    def word_interval(self, word: DigitWord) -> tuple[float, float]:
        """The N-adic interval [i_1/N + ... + i_n/N**n, same + 1/N**n).

        This is the image of X under branch(i_1) o ... o branch(i_2) o
        branch(i_n) applied in the written order, i.e. the interval the
        cylinder with this prefix corresponds to.
        """
        if not word:
            raise EmptyWord("word_interval needs a nonempty word")
        left = 0.0
        scale = 1.0
        for d in word:
            self._check_digit(d)
            scale /= self.scale_n
            left += d * scale
        return (left, left + scale)

    def _check_digit(self, j: int) -> None:
        if not 0 <= j < self.scale_n:
            raise DigitOutOfRange(f"digit {j} not in [0, {self.scale_n})")
