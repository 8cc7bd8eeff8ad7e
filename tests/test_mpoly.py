import math
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from conftest import assert_stored_form
from ppsn import (
    InputError,
    Manifold,
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
from ppsn import mpoly
from ppsn.mpoly import MAX_MONOMIALS, require_dense_size
from token_parser import token_parse_polynomial

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


def test_monomials_of_degree_in_many_variables_needs_no_recursion():
    mons = monomials_of_degree(3000, 1)  # past the interpreter's recursion limit
    assert len(mons) == 3000 and mons[0][0] == 1 and mons[-1][-1] == 1
    assert monomials_of_degree(2, -1) == []


def test_dense_size_over_the_budget_is_refused_before_it_is_built():
    require_dense_size(1, MAX_MONOMIALS - 1)  # C(MAX, 1) monomials: at the budget
    with pytest.raises(InputError, match=f"at least {MAX_MONOMIALS + 1} monomials"):
        require_dense_size(1, MAX_MONOMIALS)
    with pytest.raises(InputError, match="budget"):
        monomial_basis(3, 10**12)
    # the count stops past the budget, whatever the sizes
    for n, d in [(10**12, 10**12), (10**12, 2), (2, 10**12), (40, 40)]:
        with pytest.raises(InputError, match="budget"):
            require_dense_size(n, d)



def test_evaluation_refuses_a_degree_above_the_budget_before_its_plan(monkeypatch):
    planned = []
    real = mpoly._evaluation_plan
    monkeypatch.setattr(
        mpoly, "_evaluation_plan", lambda monomials: planned.append(monomials) or real(monomials)
    )
    q = (Fraction(1), Fraction(1))
    at = Polynomial(2, {(MAX_MONOMIALS, 0): Fraction(1), (0, 1): Fraction(-1)})
    assert at.evaluate(q) == 0
    assert len(planned) == 1
    above = parse_polynomial(f"x1^{MAX_MONOMIALS + 1} - x2", 2)
    with pytest.raises(InputError, match=f"degree {MAX_MONOMIALS + 1} is above"):
        above.evaluate(q)
    with pytest.raises(InputError, match="evaluation budget"):
        NodeSet([q], Manifold([above]))
    assert len(planned) == 1

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


@pytest.mark.parametrize(
    "text, message, position",
    [
        ("", "empty expression", 0),
        ("  # only a comment", "empty expression", 18),
        ("+x1", "expression may not start with '+'", 0),
        ("x1 / 2", "expected '+' or '-' between terms", 3),
        ("x1^2^3", "expected '+' or '-' between terms", 4),
        ("x + 1", "variable must be x<k> with a numeric index", 0),
        ("2*x1 - x3", "variable index 3 out of range 1..2", 7),
        ("x0", "variable index 0 out of range 1..2", 0),
        ("1/", "expected a positive integer denominator", 2),
        ("1/ x1", "expected a positive integer denominator", 3),
        ("1/0", "zero denominator", 2),
        ("x1^", "expected an integer exponent", 3),
        ("x1^x2", "expected an integer exponent", 3),
        ("x1 + @", "unexpected character '@'", 5),
        # the whole text is scanned before it is parsed
        ("x3 + @", "unexpected character '@'", 5),
        ("1 +", "expected a coefficient or a variable", 3),
        ("x1 + * x2", "expected a coefficient or a variable", 5),
    ],
)
def test_parse_error_names_its_branch_and_position(text, message, position):
    with pytest.raises(ParseError) as info:
        parse_polynomial(text, 2)
    assert info.value.position == position
    assert str(info.value) == f"{message} (at position {position})"


@pytest.mark.parametrize(
    "text, position", [("x1^²", 3), ("x1²", 2), ("1/²", 2), ("²*x1", 0), ("x1^2 + x2^③", 10)]
)
def test_parse_refuses_digits_that_are_not_decimal(text, position):
    # str.isdigit accepts superscripts and circled digits, which int() refuses
    with pytest.raises(ParseError) as info:
        parse_polynomial(text, 2)
    assert info.value.position == position
    assert str(info.value) == f"unexpected character {text[position]!r} (at position {position})"


# 5,000 digits: past the 4,300 that int() converts by default (CPython 3.11+)
LONG = "7" * 5000
INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_int_digit_limit = pytest.mark.skipif(
    not 0 < INT_DIGIT_LIMIT < len(LONG), reason="int() converts 5,000 digits here"
)


@needs_int_digit_limit
@pytest.mark.parametrize(
    "text, position",
    [(LONG, 0), ("1/" + LONG, 2), ("x1 + x" + LONG, 5), ("x1^" + LONG, 3)],
    ids=["coefficient", "denominator", "index", "exponent"],
)
def test_parse_refuses_a_number_longer_than_int_converts(text, position):
    with pytest.raises(ParseError) as info:
        parse_polynomial(text, 2)
    assert info.value.position == position
    assert str(info.value) == (
        f"5000-digit number, more than the {INT_DIGIT_LIMIT} digits Python converts"
        f" (at position {position})"
    )


def test_parse_reads_any_decimal_digit_and_unicode_space():
    # int() reads every Unicode decimal digit, and str.isspace blanks separate
    text = "\u0663\u00a0x\u0661^\u0662 +\u2003x2"  # Arabic-Indic 3, 1, 2; no-break and em space
    assert parse_polynomial(text, 2) == parse_polynomial("3*x1^2 + x2", 2)


def test_parse_accepts_a_trailing_product_sign_and_juxtaposed_numbers():
    assert parse_polynomial("x1 *", 2) == parse_polynomial("x1", 2)
    assert parse_polynomial("2 3/4 x1", 2) == parse_polynomial("3/2*x1", 2)


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
    b3 = monomial_basis(2, 3)
    b2 = monomial_basis(2, 2)
    assert b3[: len(b2)] == b2


@settings(max_examples=200)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(polynomials(n), points(n))))
@example((Polynomial.zero(2), (Fraction(1, 3), Fraction(-2))))
@example((Polynomial.constant(2, Fraction(-7, 4)), (Fraction(0), Fraction(5, 6))))
@example((parse_polynomial("1/2*x1^3 - 2/3*x2 + 5/7", 2), (Fraction(0), Fraction(-3, 8))))
@example((parse_polynomial("x1^4*x2 - 1/6*x1", 2), (Fraction(-1, 2), Fraction(0))))
def test_evaluate_matches_fraction_reference(case):
    p, x = case
    value = p.evaluate(x)
    assert value == reference.value(p, x)
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


# -- arithmetic results against the validating constructor -----------------------


def assert_validated(result, raw_terms, n):
    """`result` is exactly what the validating constructor makes of raw_terms:
    the same terms, only nonzero Fraction values, the same degree and hash."""
    ref = Polynomial(n, raw_terms)
    assert result.n == n
    assert result.terms == ref.terms
    assert all(type(c) is Fraction and c != 0 for c in result.terms.values())
    assert all(type(a) is tuple and len(a) == n for a in result.terms)
    assert result.degree == ref.degree
    assert hash(result) == hash(ref)
    assert result == ref
    assert_stored_form(result)


@st.composite
def overlapping_pairs(draw):
    """(p, q) in one dimension, q negating some of p's terms, so that sums
    and differences cancel, down to the zero polynomial."""
    n = draw(st.integers(1, 3))
    p = draw(polynomials(n, max_degree=3))
    negate = draw(st.lists(st.booleans(), min_size=len(p.terms), max_size=len(p.terms)))
    terms = dict(draw(polynomials(n, max_degree=3)).terms)
    for (a, c), flip in zip(p.terms.items(), negate):
        if flip:
            terms[a] = -c
    return p, Polynomial(n, terms)


scalars_st = st.one_of(fractions_st, st.integers(-5, 5))


@settings(max_examples=100)
@given(overlapping_pairs(), scalars_st, st.integers(-1, 7))
@example((parse_polynomial("x1 + x2", 2), parse_polynomial("x1 - x2", 2)), 0, 1)
@example((parse_polynomial("x1 - 1/2", 1), parse_polynomial("-x1 + 1/2", 1)), Fraction(0), 0)
def test_arithmetic_matches_the_validating_constructor(pair, c, d):
    p, q = pair
    n = p.n
    keys = set(p.terms) | set(q.terms)
    assert all(type(p.coefficient(a)) is Fraction for a in keys)
    assert_validated(p + q, {a: p.coefficient(a) + q.coefficient(a) for a in keys}, n)
    assert_validated(p - q, {a: p.coefficient(a) - q.coefficient(a) for a in keys}, n)
    assert_validated(q - q, {}, n)
    assert_validated(p + -p, {}, n)
    assert_validated(-p, {a: -v for a, v in p.terms.items()}, n)
    product = {}
    for a1, c1 in p.terms.items():
        for a2, c2 in q.terms.items():
            a = tuple(e1 + e2 for e1, e2 in zip(a1, a2))
            product[a] = product.get(a, 0) + c1 * c2
    assert_validated(p * q, product, n)
    scaled = {a: c * v for a, v in p.terms.items()}
    assert_validated(p.scale(c), scaled, n)
    assert_validated(p * c, scaled, n)
    assert_validated(c * p, scaled, n)
    assert_validated(
        p.homogeneous_component(d), {a: v for a, v in p.terms.items() if sum(a) == d}, n
    )
    if not p.is_zero():
        top = p.degree
        assert_validated(p.leading_form(), {a: v for a, v in p.terms.items() if sum(a) == top}, n)


# -- the stored form: integer numerators over one denominator ---------------------


@settings(max_examples=150)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(polynomials(n), polynomials(n))), fractions_st)
@example((parse_polynomial("1/2*x1 + 1/3", 1), parse_polynomial("1/6*x1", 1)), Fraction(6))
@example((parse_polynomial("2/3*x1^2 - 4/9*x2", 2), Polynomial.zero(2)), Fraction(-9, 2))
def test_every_route_to_a_polynomial_gives_its_form_and_hash(pair, c):
    p, q = pair
    n = p.n
    routes = [
        Polynomial(n, p.terms),
        parse_polynomial(str(p), n),
        (p + q) - q,
        p - q + q,
        -(-p),
        p * Polynomial.constant(n, 1),
        p.scale(c).scale(1 / c) if c else p.scale(1),
        sum((p.homogeneous_component(d) for d in range(p.degree + 1)), Polynomial.zero(n)),
    ]
    if not p.is_zero():
        routes.append(p.leading_form() + (p - p.leading_form()))
    for r in routes:
        assert r == p and hash(r) == hash(p)
        assert_stored_form(r)


@settings(max_examples=300)
@given(st.integers(1, 3).flatmap(polynomials))
@example(parse_polynomial("-1/2*x1^2 - x1*x2 + 1/2", 2))
@example(parse_polynomial("2/4*x1 - 6/3 + 5/10*x2^3", 2))
@example(Polynomial.constant(3, Fraction(-7, 3)))
@example(Polynomial.zero(1))
def test_str_is_the_fraction_per_term_printer(p):
    assert str(p) == reference.polynomial_str(p)


# -- parsing against a term-by-term reference -------------------------------------


@st.composite
def expressions(draw):
    """(n, terms) with terms [(sign, atoms)]: an atom is ("num", num, den) or
    ("var", index, exponent). Few variables and small exponents repeat
    monomials, and negated copies of some terms cancel them."""
    n = draw(st.integers(1, 2))
    atom = st.one_of(
        st.tuples(st.just("num"), st.integers(0, 12), st.integers(1, 6)),
        st.tuples(st.just("var"), st.integers(1, n), st.integers(0, 3)),
    )
    term = st.tuples(st.sampled_from([1, -1]), st.lists(atom, min_size=1, max_size=4))
    terms = draw(st.lists(term, min_size=1, max_size=8))
    copies = draw(st.lists(st.sampled_from(terms), max_size=4))
    terms = draw(st.permutations(terms + [(-sign, atoms) for sign, atoms in copies]))
    return n, terms


def render(terms, separator):
    out = []
    for k, (sign, atoms) in enumerate(terms):
        pieces = []
        for kind, a, b in atoms:
            if kind == "num":
                pieces.append(str(a) if b == 1 else f"{a}/{b}")
            else:
                pieces.append(f"x{a}" if b == 1 else f"x{a}^{b}")
        body = separator.join(pieces)
        if k == 0:
            out.append(("-" if sign < 0 else "") + body)
        else:
            out.append(("- " if sign < 0 else "+ ") + body)
    return " ".join(out)


def reference_parse(terms, n):
    """Each term as its own polynomial, added one at a time."""
    total = Polynomial.zero(n)
    for sign, atoms in terms:
        coeff = Fraction(sign)
        alpha = [0] * n
        for kind, a, b in atoms:
            if kind == "num":
                coeff *= Fraction(a, b)
            else:
                alpha[a - 1] += b
        total = total + Polynomial(n, {tuple(alpha): coeff})
    return total


@settings(max_examples=120)
@given(expressions(), st.sampled_from(["*", " * ", " "]))
@example((2, [(1, [("var", 1, 2)]), (-1, [("num", 3, 1)]), (-1, [("var", 1, 1), ("var", 1, 1)])]), "*")
@example((1, [(1, [("num", 1, 2), ("var", 1, 1)]), (-1, [("var", 1, 1), ("num", 2, 4)])]), " ")
def test_parse_matches_term_by_term_reference(expression, separator):
    n, terms = expression
    parsed = parse_polynomial(render(terms, separator), n)
    ref = reference_parse(terms, n)
    assert_validated(parsed, dict(ref.terms), n)


# -- the scanner against the token-by-token reference ---------------------------

# every lexical and grammar branch: comments, Unicode digits and blanks, runs
# of blanks, a superscript, an x with no index, and a number longer than
# int() converts
SCANNER_FRAGMENTS = [
    "x", "x1", "x2", "x3", "x0", "x12", "0", "1", "2", "7", "03", "\u0663",
    " ", "\n", "\t", "\u00a0", "\u2003", "   ", " \t\n\u2003 ", "#", "# c x9 @",
    "+", "-", "*", "/", "^", "\u00b2", "@",
] + (["7" * (INT_DIGIT_LIMIT + 1)] if INT_DIGIT_LIMIT else [])
# texts longer than the 4,300 digits int() converts: the long-number check
# reads them whole
PAD = " " * 800
# a failing term after a run a token must follow: after the sign, a '/' or a
# '^', each run is read once, never given back one blank at a time
BLANKS = " " * 400_000
LIMIT_DIGITS = "7" * max(INT_DIGIT_LIMIT, 1)


def parse_outcome(parse, text, n):
    """The polynomial's terms in order, or the ParseError's message and position."""
    try:
        p = parse(text, n)
    except ParseError as exc:
        return "error", str(exc), exc.position
    return "parsed", p.n, list(p.terms.items())


@settings(max_examples=400)
@given(st.lists(st.sampled_from(SCANNER_FRAGMENTS), max_size=12).map("".join), st.integers(1, 3))
@example("x3 + @", 2)
@example("2 / # c\n 3 x1 ^ # d\n 2", 1)
@example("1/ x1", 2)
@example("x1^ + 2", 2)
@example("2 * / 3", 2)
@example(PAD.join(["x1", "+", "2", "/", "3", "*", "x2", "^", "2"]), 2)
@example(PAD.join(["2", "/", "x1"]), 2)
@example(PAD.join(["x1", "^", "+", "x2"]), 2)
@example(PAD.join(["-", "+", "x1"]), 2)
@example(PAD.join(["x1", "x2", "3", "@"]), 2)
@example(PAD.join(["x1 x2", "7" + LIMIT_DIGITS]), 2)
@example(PAD.join(["x1 x2", "x" + LIMIT_DIGITS + "7", "@"]), 2)
@example(PAD.join(["x1 x2", "@", "7" + LIMIT_DIGITS]), 2)
@example(PAD.join(["x1 x2", "x", "7" + LIMIT_DIGITS]), 2)
@example(PAD.join([LIMIT_DIGITS, "/", LIMIT_DIGITS, "* x1 ^", "3"]), 2)
@example("- " + BLANKS + "+ x1", 2)
@example("2 /" + BLANKS + "x1", 2)
@example("x1" + BLANKS + "^" + BLANKS + "+", 2)
def test_scanner_matches_the_token_reference(text, n):
    assert parse_outcome(parse_polynomial, text, n) == parse_outcome(token_parse_polynomial, text, n)
