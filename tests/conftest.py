import math

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


def quadrature_family(theta: float) -> ww.FilterSpec:
    """Real orthogonal 4-tap family; theta = pi/3 recovers the d4 taps."""
    c, s = math.cos(theta), math.sin(theta)
    return ww.FilterSpec.from_coefficients(
        {0: (1 - c + s) / 4, 1: (1 + c + s) / 4, 2: (1 + c - s) / 4, 3: (1 - c - s) / 4},
        label=f"qmf(theta={theta:.3f})",
    )
