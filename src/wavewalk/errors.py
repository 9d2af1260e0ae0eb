"""Exception types shared across the package."""

import contextlib


class WavewalkError(Exception):
    """Base class for all package-specific errors."""


class FilterKindError(WavewalkError):
    """Operation requires the other filter representation (coefficients vs. table)."""


class NonFiniteArgument(WavewalkError):
    """A NaN or infinite point where a finite one is needed."""


class UnsupportedScale(WavewalkError):
    """Operation is only defined for dyadic filters (scale 2)."""


class DigitOutOfRange(WavewalkError):
    """A digit fell outside {0, ..., N-1}."""


class EmptyWord(WavewalkError):
    """Operation needs a nonempty digit word."""


class ArityTooLarge(WavewalkError):
    """Tabulated-function arity would exceed the configured tree budget."""


class GridTooLarge(WavewalkError):
    """The N**L cells of a level-L grid cannot be allocated."""


class DepthTooLarge(WavewalkError):
    """Exact transfer-operator power would exceed the configured tree budget."""


class DegenerateStep(WavewalkError):
    """The branch weights vanished or overflowed at some state of a sampled walk."""


@contextlib.contextmanager
def _allocating(what: str, error: type = WavewalkError):
    """Allocate `what` in the body, and nothing else.

    numpy's failure to allocate it (MemoryError, or ValueError for a size
    past its limit) becomes `error`, "<what> cannot be allocated", so that
    a size too large for the machine is a package error, not a traceback.
    """
    try:
        yield
    except (MemoryError, ValueError) as exc:
        raise error(f"{what} cannot be allocated") from exc
