"""The modular paths: rank mod p as a properness certificate and the
interpolant solved mod p, each checked against the exact path it replaces."""

from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ppsn import (
    InternalCheckError,
    InterpolationProblem,
    Manifold,
    NodeSet,
    PPSNCertificate,
    Polynomial,
    canonical_monomials,
    dim_along,
    interpolate,
    monomial_basis,
    parse_polynomial,
    verify_ppsn,
)
from ppsn import linalg
from ppsn.nodes import evaluation_matrix, evaluation_rows

F = Fraction

CIRCLE = Manifold([parse_polynomial("x1^2 + x2^2 - 1", 2)])
SPHERE = Manifold([parse_polynomial("x1^2 + x2^2 + x3^2 - 1", 3)])

coords_st = st.fractions(min_value=F(-6), max_value=F(6), max_denominator=7)


def miller_rabin(n):
    """Deterministic for n < 3.3 * 10^24: the first twelve primes as bases."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for q in bases:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_prime_is_a_62_bit_prime_apart_from_the_oracle():
    assert miller_rabin(linalg.PRIME)
    assert linalg.PRIME.bit_length() == 62
    assert linalg.PRIME != 2**61 - 1
    assert not miller_rabin(linalg.PRIME - 2)  # the test can say no


# -- rational reconstruction -------------------------------------------------------


@settings(max_examples=200)
@given(st.integers(-(2**30), 2**30), st.integers(1, 2**30))
@example(0, 1)
@example(-1, 1)
@example(-(2**30), 2**30 - 1)
def test_rational_reconstruct_round_trip_with_signs(a, b):
    p = linalg.PRIME
    x = F(a, b)
    u = x.numerator * pow(x.denominator, -1, p) % p
    assert linalg.rational_reconstruct(u, p) == x
    assert linalg.rational_reconstruct(-x.numerator * pow(x.denominator, -1, p), p) == -x


def test_rational_reconstruct_matches_search_and_gives_none_past_the_bound():
    p = 211
    bound = isqrt(p // 2)
    small = {}
    for b in range(1, bound + 1):
        for a in range(-bound, bound + 1):
            if gcd(a, b) == 1:
                small[a * pow(b, -1, p) % p] = F(a, b)
    misses = 0
    for u in range(p):
        got = linalg.rational_reconstruct(u, p)
        assert got == small.get(u)
        misses += got is None
    assert misses > 0
    # 1/(bound + 1) lies past the bound and no small fraction shares its residue
    assert linalg.rational_reconstruct(pow(bound + 1, -1, p), p) is None


# -- the kernel against exact elimination ------------------------------------------

small_int_matrices = st.integers(1, 5).flatmap(
    lambda c: st.lists(
        st.lists(st.integers(-9, 9), min_size=c, max_size=c), min_size=1, max_size=5
    )
)


@settings(max_examples=200)
@given(small_int_matrices)
@example([[0, 2, 1], [0, 0, 3], [5, 1, 0]])
@example([[0, 0], [1, 1], [2, 2]])
def test_row_reduce_mod_is_row_reduce_mod_p(m):
    # every minor is below p in size, so zero mod p means zero: same pivots,
    # and the RREF mod p is the exact RREF reduced mod p
    p = linalg.PRIME
    exact = linalg.row_reduce(m)
    mod = linalg.row_reduce_mod(m)
    assert (mod.rank, mod.pivots) == (exact.rank, exact.pivots)
    assert mod.rows == tuple(
        tuple(x.numerator * pow(x.denominator, -1, p) % p for x in row) for row in exact.rows
    )


# -- modular verify and interpolate against the exact path ---------------------------


def exact_path(nodes, manifold, m, values):
    """Reference: the certificate and interpolant from Bareiss elimination
    alone, as computed before the modular path existed."""
    n = manifold.n if manifold is not None else nodes.n
    columns = canonical_monomials(manifold, n, m)
    rows = evaluation_rows(nodes.points, columns)
    if linalg.row_reduce([row for _, row in rows]).rank < len(nodes):
        functional = linalg.left_null_vector(evaluation_matrix(nodes.points, columns))
        cert = PPSNCertificate(m, n, len(nodes), False, kernel_functional=tuple(functional))
        return cert, None
    index = {mu: j for j, mu in enumerate(monomial_basis(n, m))}
    cert = PPSNCertificate(m, n, len(nodes), True, witness_columns=tuple(index[mu] for mu in columns))
    augmented = [row + [scale * v] for (scale, row), v in zip(rows, values)]
    coeffs = [row[-1] for row in linalg.row_reduce(augmented).rows]
    return cert, Polynomial(n, dict(zip(columns, coeffs)))


def circle_point(t):
    d = 1 + t * t
    return ((1 - t * t) / d, 2 * t / d)


def sphere_point(u, v):
    d = 1 + u * u + v * v
    return (2 * u / d, 2 * v / d, (u * u + v * v - 1) / d)


@st.composite
def problems(draw):
    """(nodes, manifold, m, values) in the plane, on the circle or on the
    sphere. Planted sets are improper: m+2 points on a line in the plane,
    2m+2 on a great circle of the sphere (any 2m+1 distinct points of the
    circle are proper, so nothing is planted there). Values come from a
    polynomial with small coefficients, which the modular solve recovers,
    or are arbitrary, which usually sends it to the exact fallback."""
    space = draw(st.sampled_from(["plane", "circle", "sphere"]))
    planted = draw(st.booleans())
    fixed = []
    if space == "plane":
        manifold, n, m = None, 2, draw(st.integers(1, 4))
        pool = st.tuples(coords_st, coords_st)
        if planted:
            a, b = draw(coords_st), draw(coords_st)
            ts = draw(st.lists(coords_st, min_size=m + 2, max_size=m + 2, unique=True))
            fixed = [(t, a * t + b) for t in ts]
        count = (m + 1) * (m + 2) // 2
    elif space == "circle":
        manifold, n, m = CIRCLE, 2, draw(st.integers(0, 6))
        pool = coords_st.map(circle_point)
        count = dim_along(m, manifold.profile)
    else:
        manifold, n, m = SPHERE, 3, draw(st.integers(1, 3))
        pool = st.tuples(coords_st, coords_st).map(lambda uv: sphere_point(*uv))
        if planted:
            ts = draw(st.lists(coords_st, min_size=2 * m + 2, max_size=2 * m + 2, unique=True))
            fixed = [circle_point(t) + (F(0),) for t in ts]
        count = dim_along(m, manifold.profile)
    rest = draw(
        st.lists(pool, min_size=count - len(fixed), max_size=count - len(fixed), unique=True)
        .filter(lambda r: not set(r) & set(fixed))
    )
    points = draw(st.permutations(fixed + rest))
    nodes = NodeSet(points, manifold)
    if draw(st.booleans()):
        support = canonical_monomials(manifold, n, m)
        coeffs = draw(st.lists(st.fractions(-9, 9, max_denominator=9), min_size=len(support), max_size=len(support)))
        planted_poly = Polynomial(n, dict(zip(support, coeffs)))
        values = tuple(planted_poly.evaluate(q) for q in points)
    else:
        values = tuple(draw(st.lists(coords_st, min_size=count, max_size=count)))
    return nodes, manifold, m, values


@settings(max_examples=120, deadline=None)
@given(problems())
def test_modular_and_exact_paths_agree(case):
    nodes, manifold, m, values = case
    cert, poly = exact_path(nodes, manifold, m, values)
    assert verify_ppsn(nodes, manifold, m) == cert
    if cert.proper:
        assert interpolate(InterpolationProblem(manifold, m, nodes, values), cert) == poly


# -- fallbacks ------------------------------------------------------------------------


@pytest.fixture
def exact_calls(monkeypatch):
    """Counts of the exact eliminations run beneath the calls under test."""
    counts = {"row_reduce": 0, "left_null_vector": 0}
    for name in counts:
        original = getattr(linalg, name)

        def spy(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(linalg, name, spy)
    return counts


TRIANGLE = NodeSet([(F(0), F(0)), (F(1), F(0)), (F(0), F(7))])  # determinant 7


def test_small_prime_dividing_the_determinant_falls_back_exactly(monkeypatch, exact_calls):
    values = (F(1), F(2), F(3))
    problem = InterpolationProblem(None, 1, TRIANGLE, values)
    cert, poly = exact_path(TRIANGLE, None, 1, values)
    exact_calls.update(row_reduce=0, left_null_vector=0)
    assert (verify_ppsn(TRIANGLE, None, 1), interpolate(problem)) == (cert, poly)
    assert exact_calls == {"row_reduce": 0, "left_null_vector": 0}  # all mod p

    monkeypatch.setattr(linalg, "PRIME", 7)  # rank 2 mod 7, rank 3 over Q
    assert verify_ppsn(TRIANGLE, None, 1) == cert
    assert exact_calls == {"row_reduce": 1, "left_null_vector": 1}  # one exact elimination
    exact_calls.update(row_reduce=0, left_null_vector=0)
    assert interpolate(problem, cert) == poly
    assert exact_calls["row_reduce"] == 1


def test_value_denominator_divisible_by_the_prime_falls_back(monkeypatch, exact_calls):
    monkeypatch.setattr(linalg, "PRIME", 11)  # the triangle is nonsingular mod 11
    values = (F(1, 11), F(2), F(3))
    cert, poly = exact_path(TRIANGLE, None, 1, values)
    exact_calls.update(row_reduce=0, left_null_vector=0)
    assert interpolate(InterpolationProblem(None, 1, TRIANGLE, values), cert) == poly
    assert exact_calls["row_reduce"] == 1


def test_corrupted_coefficient_is_rejected_by_the_node_check(monkeypatch, exact_calls):
    points = [circle_point(F(t, 3)) for t in range(-4, 5)]
    nodes = NodeSet(points, CIRCLE)
    planted = parse_polynomial("3*x1^2 - x1*x2 + 2*x2 - 5", 2)
    values = tuple(planted.evaluate(q) for q in points)
    problem = InterpolationProblem(CIRCLE, 4, nodes, values)
    cert, poly = exact_path(nodes, CIRCLE, 4, values)
    assert cert.proper

    exact_calls.update(row_reduce=0, left_null_vector=0)
    assert interpolate(problem, cert) == poly
    assert exact_calls["row_reduce"] == 0  # the modular guess was accepted

    original = linalg.rational_reconstruct
    calls = []

    def corrupt(u, p):
        calls.append(u)
        x = original(u, p)
        return x + 1 if len(calls) == 1 else x

    monkeypatch.setattr(linalg, "rational_reconstruct", corrupt)
    assert interpolate(problem, cert) == poly
    assert len(calls) == len(points)
    assert exact_calls["row_reduce"] == 1


def test_forged_certificate_is_not_trusted():
    # collinear nodes are improper at degree 1, but the values of x1 are
    # consistent, so a guess taken from a singular system mod p would fit
    nodes = NodeSet([(F(0), F(0)), (F(1), F(1)), (F(2), F(2))])
    assert not verify_ppsn(nodes, None, 1).proper
    forged = PPSNCertificate(1, 2, 3, True, witness_columns=(0, 1, 2))
    with pytest.raises(InternalCheckError, match="singular"):
        interpolate(InterpolationProblem(None, 1, nodes, (F(0), F(1), F(2))), forged)
