import math

import numpy as np
import pytest

import wavewalk as ww


@pytest.fixture(scope="session")
def system2():
    return ww.PathSystem(2)


@pytest.fixture(scope="session")
def haar():
    return ww.load_gallery("haar")


@pytest.fixture(scope="session")
def d4():
    return ww.load_gallery("d4")


@pytest.fixture(scope="session")
def stretched():
    return ww.load_gallery("stretched_haar")


@pytest.fixture(scope="session")
def shannon():
    return ww.load_gallery("shannon")


@pytest.fixture(scope="session")
def highpass():
    return ww.load_gallery("highpass_haar")


@pytest.fixture(scope="session")
def policy():
    return ww.TruncationPolicy()


def sinc_sq(x: float) -> float:
    """Independent closed form for the Haar atom."""
    if x == 0:
        return 1.0
    return (math.sin(math.pi * x) / (math.pi * x)) ** 2


#: W(0) = 1.44: the factors of its zero-path products tend to 1.44, so
#: those products have no limit
DIVERGENT = ww.FilterSpec.from_coefficients({0: 0.6, 1: 0.6}, label="divergent")


#: on 16 bins, with h = 3/13, 6/13 and 8/13 on cells 6, 10 and 12
TABLE16 = ww.FilterSpec.from_table(
    np.arange(16) / 16, [1, 0, 1, 0.5, 1, 0.25, 0.5, 0, 0, 1, 0, 0.5, 0, 0.75, 0.5, 1]
)

#: partitions whose breakpoints are on no dyadic grid (tenths, sixths);
#: their h is 1, the probability that the walk ends in the bottom cell
TENTHS = ww.FilterSpec.from_table([0.0, 0.1, 0.5, 0.6], [1.0, 0.3, 0.0, 0.7], label="tenths")
SIXTHS = ww.FilterSpec.from_table(np.arange(6) / 6, [1.0, 0.2, 0.9, 0.0, 0.8, 0.1], label="sixths")


def quadrature_family(theta: float) -> ww.FilterSpec:
    """Real orthogonal 4-tap family; theta = pi/3 recovers the d4 taps."""
    c, s = math.cos(theta), math.sin(theta)
    return ww.FilterSpec.from_coefficients(
        {0: (1 - c + s) / 4, 1: (1 + c + s) / 4, 2: (1 + c - s) / 4, 3: (1 - c - s) / 4},
        label=f"qmf(theta={theta:.3f})",
    )


def complex_quadrature_filter(seed):
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


def nextafter_branch(n: int, digits, ys):
    """The branch (y + j)/N rounded toward zero by masked np.nextafter steps.

    The reference rule for PathSystem.branch_array: the sum steps one
    ulp toward 0 where (y + j) - j > y (it was rounded up), the quotient
    where it is subnormal and q * N > y.
    """
    s = ys + digits
    np.nextafter(s, 0.0, out=s, where=s - digits > ys)
    s /= n
    if s.min(initial=1.0) < np.finfo(np.float64).tiny:
        np.nextafter(s, 0.0, out=s, where=(s < np.finfo(np.float64).tiny) & (s * n > ys))
    return s


#: states at the edges of the branch rounding: 0, the least subnormal, a
#: subnormal whose quotient is inexact, a plain state, and the float just below 1
EDGE_STATES = (0.0, 5e-324, 1e-310, 0.3, 1 - 2**-53)
