from fractions import Fraction

import pytest
from hypothesis import Phase
from hypothesis import strategies as st

from ppsn import Manifold, macaulay, nodes, parse_polynomial, parse_system_text


# Each example of the elimination-heavy property tests runs whole
# eliminations, and shrinking a failure repeats hundreds of them: a broken
# modular path or exact elimination took minutes to report. Those tests skip
# the shrink phase and report the first failing example as drawn.
NO_SHRINK = tuple(phase for phase in Phase if phase is not Phase.shrink)


@pytest.fixture(autouse=True)
def fresh_caches():
    """Start every test with an empty memo of canonical systems and empty
    monomial-selection and proper-certificate caches, so call counts do not
    depend on which tests ran before."""
    nodes._canonical_system.cache_clear()
    nodes._proper_certificate.cache_clear()
    macaulay._selection.cache_clear()


@pytest.fixture
def circle():
    """Unit circle with a completing line that meets it in two points."""
    return Manifold(
        [parse_polynomial("x1^2 + x2^2 - 1", 2)],
        witnesses=(parse_polynomial("x2 - 2", 2),),
    )


@pytest.fixture
def line_manifold():
    """The x1-axis in the plane."""
    return Manifold([parse_polynomial("x2", 2)])


@pytest.fixture
def grid_system():
    """Two factorable cubics meeting in the 3x3 integer grid."""
    return parse_system_text("x1*(x1-1)*(x1-2)\nx2*(x2-1)*(x2-2)\n")


@pytest.fixture
def cube_system():
    """Three factorable quadrics meeting in the unit-cube vertices."""
    return parse_system_text("x1*(x1-1)\nx2*(x2-1)\nx3*(x3-1)\n")


@pytest.fixture
def cube_quadrics():
    """Two of the cube quadrics: a curve of four parallel lines in 3-space."""
    return Manifold(
        [parse_polynomial("x1^2 - x1", 3), parse_polynomial("x2^2 - x2", 3)],
        witnesses=(parse_polynomial("x3^2 - x3", 3),),
    )


def pts(*coords):
    """The points given by their coordinates, as tuples of Fractions."""
    return [tuple(Fraction(c) for c in p) for p in coords]


coords_st = st.fractions(min_value=Fraction(-6), max_value=Fraction(6), max_denominator=7)


def circle_point(t):
    """The rational point of the unit circle at parameter t."""
    d = 1 + t * t
    return ((1 - t * t) / d, 2 * t / d)


def sphere_point(u, v):
    """The rational point of the unit sphere at parameters (u, v)."""
    d = 1 + u * u + v * v
    return (2 * u / d, 2 * v / d, (u * u + v * v - 1) / d)
