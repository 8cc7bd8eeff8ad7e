import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ppsn import (
    MonomialBasis,
    NodeSet,
    ParseError,
    Polynomial,
    as_fraction,
    as_point,
    monomial_basis,
    monomial_key,
    monomials_of_degree,
    parse_polynomial,
)

# -- strategies -------------------------------------------------------------------

fractions_st = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=9
)


def polynomials(n=2, max_degree=4):
    exponents = st.tuples(*[st.integers(0, max_degree) for _ in range(n)])
    return st.dictionaries(exponents, fractions_st, max_size=6).map(
        lambda terms: Polynomial(n, terms)
    )


def points(n=2):
    return st.tuples(*[fractions_st for _ in range(n)])


# -- monomial order ---------------------------------------------------------------


def test_monomial_order_matches_convention():
    basis = monomial_basis(2, 2)
    assert list(basis) == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


def test_basis_sizes():
    for n in range(1, 5):
        for m in range(6):
            assert len(monomial_basis(n, m)) == math.comb(m + n, n)


def test_monomials_of_degree_sorted():
    mons = monomials_of_degree(3, 4)
    assert mons == sorted(mons, key=monomial_key)
    assert len(mons) == math.comb(4 + 2, 2)
    assert all(sum(a) == 4 for a in mons)


# -- parsing ----------------------------------------------------------------------


def test_parse_and_evaluate():
    p = parse_polynomial("1 + x1 + 2*x2", 2)
    assert p((Fraction(1), Fraction(2))) == 6
    q = parse_polynomial("x1^2 + x2^2 - 1", 2)
    assert q((Fraction(3, 5), Fraction(4, 5))) == 0


def test_parse_rational_coefficients():
    p = parse_polynomial("1/2*x1 - 3/4", 1)
    assert p.coefficient((1,)) == Fraction(1, 2)
    assert p.coefficient((0,)) == Fraction(-3, 4)


def test_parse_implicit_products_and_powers():
    p = parse_polynomial("2*x1^2*x2 + x2^3", 2)
    assert p.coefficient((2, 1)) == 2
    assert p.coefficient((0, 3)) == 1
    assert p.degree == 3


def test_parse_comments_and_whitespace():
    p = parse_polynomial("  x1 + 1  # tail comment", 2)
    assert p == parse_polynomial("x1+1", 2)


def test_parse_rejects_garbage():
    for bad in ("x1 + @", "x0", "x3", "1 +", "x1^", "^2", ""):
        with pytest.raises(ParseError):
            parse_polynomial(bad, 2)


def test_parse_str_round_trip_examples():
    for text in ("1 + x1 + 2*x2", "x1^2 + x2^2 - 1", "-x1 + 1/2"):
        p = parse_polynomial(text, 2)
        assert parse_polynomial(str(p), 2) == p


# -- arithmetic -------------------------------------------------------------------


def test_degree_conventions():
    assert Polynomial.zero(2).degree == -1
    assert Polynomial.constant(2, 5).degree == 0
    assert Polynomial.variable(2, 1).degree == 1
    assert Polynomial.zero(2).in_space(-1)
    assert not Polynomial.constant(2, 1).in_space(-1)


def test_leading_form():
    p = parse_polynomial("x2 - x1^2", 2)
    assert p.leading_form() == parse_polynomial("-x1^2", 2)
    with pytest.raises(Exception):
        Polynomial.zero(2).leading_form()


@settings(max_examples=60)
@given(polynomials(), polynomials(), polynomials())
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p - p == Polynomial.zero(2)


@settings(max_examples=60)
@given(polynomials(), polynomials(), points())
def test_evaluation_is_a_homomorphism(p, q, x):
    assert (p + q)(x) == p(x) + q(x)
    assert (p * q)(x) == p(x) * q(x)


@settings(max_examples=60)
@given(polynomials(), polynomials())
def test_leading_form_multiplicative(p, q):
    if p.is_zero() or q.is_zero():
        return
    assert (p * q).leading_form() == p.leading_form() * q.leading_form()
    assert (p * q).degree == p.degree + q.degree


@settings(max_examples=60)
@given(polynomials())
def test_parse_inverts_str(p):
    assert parse_polynomial(str(p), 2) == p


@settings(max_examples=40)
@given(polynomials())
def test_homogeneous_components_sum(p):
    if p.is_zero():
        return
    total = Polynomial.zero(2)
    for d in range(p.degree + 1):
        total = total + p.homogeneous_component(d)
    assert total == p


def test_monomial_basis_is_ordered_prefix():
    b3 = MonomialBasis(2, 3)
    b2 = MonomialBasis(2, 2)
    assert list(b3)[: len(b2)] == list(b2)


def naive_evaluate(p, x):
    """Reference: term by term in Fraction arithmetic."""
    total = Fraction(0)
    for alpha, c in p.terms.items():
        v = c
        for xi, e in zip(x, alpha):
            v *= xi**e
        total += v
    return total


@settings(max_examples=200)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(polynomials(n), points(n))))
@example((Polynomial.zero(2), (Fraction(1, 3), Fraction(-2))))
@example((Polynomial.constant(2, Fraction(-7, 4)), (Fraction(0), Fraction(5, 6))))
@example((parse_polynomial("1/2*x1^3 - 2/3*x2 + 5/7", 2), (Fraction(0), Fraction(-3, 8))))
@example((parse_polynomial("x1^4*x2 - 1/6*x1", 2), (Fraction(-1, 2), Fraction(0))))
def test_evaluate_matches_fraction_reference(case):
    p, x = case
    value = p.evaluate(x)
    assert value == naive_evaluate(p, x)
    assert type(value) is Fraction


def test_as_point_keeps_a_fraction_tuple():
    pt = (Fraction(1, 2), Fraction(-3))
    assert as_point(pt) is pt
    assert NodeSet([pt]).difference(NodeSet([])).points[0] is pt
    assert as_point([Fraction(1, 2), -3]) == pt
    assert as_point((1, "1/2")) == (Fraction(1), Fraction(1, 2))


def test_as_fraction_names_a_bad_token():
    assert as_fraction(" -3/6 ") == Fraction(-1, 2)
    with pytest.raises(ParseError, match="not a number: 'abc'"):
        as_fraction("abc")
    with pytest.raises(ParseError, match="not a number: '1/0'"):
        as_fraction("1/0")
