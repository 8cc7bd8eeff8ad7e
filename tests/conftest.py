from fractions import Fraction

import pytest

from ppsn import Manifold, macaulay, nodes, parse_polynomial, parse_system_text


@pytest.fixture(autouse=True)
def fresh_caches():
    """Start every test with an empty memo of canonical systems and an empty
    monomial-selection cache, so call counts do not depend on which tests
    ran before."""
    nodes._SYSTEMS.clear()
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


def frac_points(raw):
    return [tuple(Fraction(c) for c in pt) for pt in raw]
