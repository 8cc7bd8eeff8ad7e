"""Sparse multivariate polynomials over exact rationals.

Coefficients are `fractions.Fraction` (always in lowest terms, positive
denominator). A multi-index is a tuple of nonnegative ints of length n.
The fixed monomial order everywhere is graded: ascending total degree,
and within one degree descending lexicographic on the exponent tuple,
so for n=2 the basis starts 1, x1, x2, x1^2, x1*x2, x2^2, ...

A dense space of more than MAX_MONOMIALS monomials is refused with an
InputError before it is built (`require_dense_size`): `monomial_basis`,
`macaulay.select_monomials`, `macaulay.verify_hbase`, the square system of
`nodes.verify_ppsn` and `construct.interpolate` on a manifold, and the
CLI's dimension inference check the count first.

Evaluation has one integer kernel, `evaluation_rows`: a point q = c / B,
B the lcm of its denominators, has as row over the monomials of degree
<= d its rational row times B^d, entry c^alpha * B^(d-|alpha|). A cached
plan per monomial tuple (`_evaluation_plan`) gives each c^alpha as its
parent's value, alpha - e_j for j its first variable, times c_j. A
polynomial's values at a batch of points (`Polynomial._values`, behind
`evaluate` and manifold membership) are its rows over its own terms dotted
with its integer numerators; a polynomial of degree above MAX_MONOMIALS is
refused before its plan is built.

Text is read by one term-level scanner, `parse_polynomial`: a lexical pass
over the whole text, then one pattern per term whose factors are listed
from its span, so every error is the one a token-by-token parser meets
first. `str` prints the terms in the graded order.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re
import sys
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .errors import DimensionMismatchError, InputError, ParseError

MultiIndex = Tuple[int, ...]
Point = Tuple[Fraction, ...]

# The most monomials a dense space may have before anything is built over
# it: a dense square matrix over 2^12 columns has 2^24 cells. The test suite
# and the benchmark stay below 500.
MAX_MONOMIALS = 2**12


def require_dense_size(n: int, d: int) -> None:
    """InputError, before anything is allocated, when the monomials of
    degree <= d in n variables, C(d + n, n) of them, exceed MAX_MONOMIALS.
    The count is built as C(h + i, i) for i = 1..min(d, n), h = max(d, n),
    each term at most the whole, and stops past the budget. Each step
    multiplies by (h + i) / i >= 2, so it stops within 13 steps however
    large d or n is."""
    low, high = sorted((n, d))
    size = 1
    for i in range(1, low + 1):
        size = size * (high + i) // i
        if size > MAX_MONOMIALS:
            raise InputError(
                f"degree <= {d} in {n} variables spans at least {size} monomials, "
                f"more than the budget of {MAX_MONOMIALS}"
            )


def as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"not a number: {value!r}") from exc
    raise InputError(f"cannot interpret {value!r} as an exact rational")


def as_point(coords: Sequence) -> Point:
    """The coordinates as a tuple of Fractions; a tuple that already is one
    is returned as it is, so sets built from other sets share its points."""
    if type(coords) is tuple and all(type(c) is Fraction for c in coords):
        return coords
    return tuple(as_fraction(c) for c in coords)


def monomial_key(alpha: MultiIndex):
    """Sort key realizing the fixed graded order."""
    return (sum(alpha), tuple(-e for e in alpha))


def monomials_of_degree(n: int, d: int) -> List[MultiIndex]:
    """All exponent tuples with |alpha| = d, in the fixed within-degree order.

    A degree-d monomial is a multiset of d variables, and listing the
    sorted multisets in ascending lex order lists the exponent tuples in
    descending lex order, with no recursion over the n variables."""
    if d < 0:
        return []
    out: List[MultiIndex] = []
    for combo in itertools.combinations_with_replacement(range(n), d):
        alpha = [0] * n
        for j in combo:
            alpha[j] += 1
        out.append(tuple(alpha))
    return out


@functools.lru_cache(maxsize=64)
def monomial_basis(n: int, m: int) -> Tuple[MultiIndex, ...]:
    """All n-variate monomials of total degree <= m, in the fixed graded order.

    Cached: every caller shares one immutable basis and its key tuples."""
    if n < 1:
        raise InputError("ambient dimension must be >= 1")
    require_dense_size(n, m)
    return tuple(mu for d in range(m + 1) for mu in monomials_of_degree(n, d))


def _powers(x: int, top: int) -> List[int]:
    """[1, x, x^2, ..., x^top] by repeated multiplication."""
    out = [1]
    for _ in range(top):
        out.append(out[-1] * x)
    return out


def _parent(alpha: MultiIndex) -> Tuple[MultiIndex, int]:
    """(alpha - e_j, j) for j the first variable of the nonconstant alpha."""
    j = next(j for j, e in enumerate(alpha) if e)
    return alpha[:j] + (alpha[j] - 1,) + alpha[j + 1 :], j


@functools.lru_cache(maxsize=256)
def _evaluation_plan(
    monomials: Tuple[MultiIndex, ...]
) -> Tuple[int, Tuple[Tuple[int, int], ...], Tuple[Tuple[int, int], ...]]:
    """(d, steps, picks) for `evaluation_rows`, keyed on the monomials
    alone, never on the points. d is the largest monomial degree. The
    closure of `monomials` under taking parents is listed by degree, the
    constant first; steps[k] = (closure index of the parent, j) for closure
    entry k + 1, and picks[i] = (closure index, d - |alpha|) for
    alpha = monomials[i]."""
    closure = set()
    for alpha in monomials:
        while alpha not in closure:
            closure.add(alpha)
            if not any(alpha):
                break
            alpha = _parent(alpha)[0]
    order = sorted(closure, key=lambda alpha: (sum(alpha), alpha))
    index = {alpha: k for k, alpha in enumerate(order)}
    steps = []
    for alpha in order[1:]:
        parent, j = _parent(alpha)
        steps.append((index[parent], j))
    d = max(map(sum, monomials), default=0)
    picks = tuple((index[alpha], d - sum(alpha)) for alpha in monomials)
    return d, tuple(steps), picks


def evaluation_rows(
    points: Sequence[Point], monomials: Sequence[MultiIndex]
) -> List[Tuple[int, List[int]]]:
    """(scale, row) per point, where row / scale is the point's exact
    evaluation row: with B the lcm of the coordinate denominators, c = B*q
    and d the largest monomial degree, the entry for alpha is
    c^alpha * B^(d-|alpha|) and scale = B^d. c^alpha is its parent's value
    times one coordinate, over the plan's closure (`_evaluation_plan`)."""
    d, steps, picks = _evaluation_plan(tuple(monomials))
    out = []
    for q in points:
        B = math.lcm(*(x.denominator for x in q))
        c = [x.numerator * (B // x.denominator) for x in q]
        b_powers = _powers(B, d)
        values = [1]
        for parent, j in steps:
            values.append(values[parent] * c[j])
        out.append((b_powers[d], [values[k] * b_powers[e] for k, e in picks]))
    return out


class Polynomial:
    """Immutable sparse polynomial. `terms` maps multi-index -> nonzero Fraction.

    Every instance keeps one invariant: each key is a tuple of n nonnegative
    ints and each value a nonzero `Fraction`. `__init__` establishes it for
    any input. Arithmetic on polynomials only adds, multiplies and negates
    Fractions and adds exponent tuples of length n, so its results keep the
    invariant except for coefficients that cancel to zero; they are built by
    `_trusted`, which only drops those and computes the degree. A product,
    and `macaulay.reduce_modulo`, computes on integer numerators over one
    denominator (`_numerators`) and builds each result coefficient once, in
    lowest terms, by `_over`.
    """

    __slots__ = ("n", "terms", "_degree", "_hash", "_leading")

    def __init__(self, n: int, terms: Dict[MultiIndex, Fraction]):
        if n < 1:
            raise InputError("ambient dimension must be >= 1")
        clean: Dict[MultiIndex, Fraction] = {}
        for alpha, c in terms.items():
            c = as_fraction(c)
            if c == 0:
                continue
            if type(alpha) is not tuple or not all(type(e) is int for e in alpha):
                alpha = tuple(int(e) for e in alpha)  # keep int tuples shared
            if len(alpha) != n or any(e < 0 for e in alpha):
                raise InputError(f"bad multi-index {alpha} for dimension {n}")
            clean[alpha] = c
        self._set(n, clean)

    @classmethod
    def _trusted(cls, n: int, terms: Dict[MultiIndex, Fraction]) -> "Polynomial":
        """A polynomial from terms that keep the class invariant except for
        zero coefficients, which are dropped; nothing else is checked."""
        poly = object.__new__(cls)
        poly._set(n, {a: c for a, c in terms.items() if c})
        return poly

    @classmethod
    def _over(cls, n: int, numerators: Dict[MultiIndex, int], D: int) -> "Polynomial":
        """The polynomial with coefficients numerators[alpha] / D, for a
        positive D, zero numerators dropped: one Fraction per term."""
        poly = object.__new__(cls)
        if D == 1:
            poly._set(n, {a: Fraction(v) for a, v in numerators.items() if v})
        else:
            poly._set(n, {a: Fraction(v, D) for a, v in numerators.items() if v})
        return poly

    def _numerators(self) -> Tuple[int, List[Tuple[MultiIndex, int]]]:
        """(D, [(alpha, D * coefficient)]): the coefficients as integer
        numerators over D, the lcm of their denominators."""
        D = math.lcm(*(c.denominator for c in self.terms.values()))
        return D, [(a, c.numerator * (D // c.denominator)) for a, c in self.terms.items()]

    def _set(self, n: int, clean: Dict[MultiIndex, Fraction]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_degree", max(map(sum, clean), default=-1))
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_leading", None)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "Polynomial":
        return cls(n, {})

    @classmethod
    def constant(cls, n: int, c) -> "Polynomial":
        return cls(n, {(0,) * n: as_fraction(c)})

    @classmethod
    def variable(cls, n: int, i: int) -> "Polynomial":
        """The variable x_i, 1-based."""
        if not 1 <= i <= n:
            raise InputError(f"variable index {i} out of range 1..{n}")
        alpha = [0] * n
        alpha[i - 1] = 1
        return cls(n, {tuple(alpha): Fraction(1)})

    @classmethod
    def monomial(cls, alpha: MultiIndex, c=1) -> "Polynomial":
        return cls(len(alpha), {tuple(alpha): as_fraction(c)})

    # -- basic queries -----------------------------------------------------

    @property
    def degree(self) -> int:
        """Total degree; -1 is the zero-polynomial sentinel."""
        return self._degree

    def is_zero(self) -> bool:
        return not self.terms

    def in_space(self, m: int) -> bool:
        """Membership in the space of polynomials of total degree <= m.

        Negative m denotes the zero space.
        """
        return self.is_zero() or self._degree <= m

    def coefficient(self, alpha: MultiIndex) -> Fraction:
        c = self.terms.get(tuple(alpha))
        return Fraction(0) if c is None else c

    def homogeneous_component(self, d: int) -> "Polynomial":
        return Polynomial._trusted(self.n, {a: c for a, c in self.terms.items() if sum(a) == d})

    def leading_form(self) -> "Polynomial":
        """Sum of all terms of top total degree, built once per polynomial,
        so every manifold on this polynomial shares it."""
        if self._leading is None:
            if self.is_zero():
                raise InputError("zero polynomial has no leading form")
            object.__setattr__(self, "_leading", self.homogeneous_component(self._degree))
        return self._leading

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.n != other.n:
            raise DimensionMismatchError(
                f"polynomials in {self.n} and {other.n} variables"
            )

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        terms = dict(self.terms)
        for a, c in other.terms.items():
            t = terms.get(a)
            terms[a] = c if t is None else t + c
        return Polynomial._trusted(self.n, terms)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        terms = dict(self.terms)
        for a, c in other.terms.items():
            t = terms.get(a)
            terms[a] = -c if t is None else t - c
        return Polynomial._trusted(self.n, terms)

    def __neg__(self) -> "Polynomial":
        return Polynomial._trusted(self.n, {a: -c for a, c in self.terms.items()})

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        # integer numerators over D1 * D2, one Fraction per result term
        D1, left = self._numerators()
        D2, right = other._numerators()
        terms: Dict[MultiIndex, int] = {}
        for a1, c1 in left:
            for a2, c2 in right:
                a = tuple(map(operator.add, a1, a2))
                terms[a] = terms.get(a, 0) + c1 * c2
        return Polynomial._over(self.n, terms, D1 * D2)

    def __rmul__(self, other) -> "Polynomial":
        return self.__mul__(other)

    def scale(self, c) -> "Polynomial":
        c = as_fraction(c)
        return Polynomial._trusted(self.n, {a: c * v for a, v in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.n, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    # -- evaluation --------------------------------------------------------

    def evaluate(self, point: Sequence) -> Fraction:
        return self._values([as_point(point)])[0]

    def _values(self, points: Sequence[Point]) -> List[Fraction]:
        """The exact values at the points: each point's integer row over the
        terms' monomials, dotted with the numerators over D, is its value
        times D * scale, and becomes one Fraction. A degree-d plan holds a
        chain of d + 1 monomials up from the constant, so a degree above
        MAX_MONOMIALS is refused before any plan is built."""
        if self._degree > MAX_MONOMIALS:
            raise InputError(
                f"degree {self._degree} is above the evaluation budget of {MAX_MONOMIALS}"
            )
        for q in points:
            if len(q) != self.n:
                raise DimensionMismatchError(
                    f"point of length {len(q)} for a {self.n}-variate polynomial"
                )
        D, numerators = self._numerators()
        coefficients = [c for _, c in numerators]
        return [
            Fraction(sum(map(operator.mul, row, coefficients)), D * scale)
            for scale, row in evaluation_rows(points, [a for a, _ in numerators])
        ]

    def __call__(self, point: Sequence) -> Fraction:
        return self.evaluate(point)

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        terms = self.terms
        if not terms:
            return "0"
        names = [f"x{i}" for i in range(1, self.n + 1)]
        pieces: List[str] = []
        # descending lex order, then a stable sort by degree: the order of
        # `monomial_key`, since the keys are distinct
        for alpha in sorted(sorted(terms, reverse=True), key=sum):
            c = terms[alpha]
            num, den = c.numerator, c.denominator
            mag = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
            factors = "*".join([f"{x}^{e}" if e > 1 else x for x, e in zip(names, alpha) if e])
            if not factors:
                body = mag
            elif mag == "1":
                body = factors
            else:
                body = f"{mag}*{factors}"
            pieces.append(f"- {body}" if num < 0 else f"+ {body}")
        text = " ".join(pieces)
        return text[2:] if text[0] == "+" else "-" + text[2:]

    def __repr__(self) -> str:
        return f"Polynomial({self.n}, {self})"


# -- parsing ---------------------------------------------------------------
#
# Grammar: terms joined by + / -; term = [rational][*]factor*... ;
# factor = x<k>[^e] with 1-based k; rational = int[/posint];
# whitespace ignored; '#' starts a comment running to end of line.
#
# Blanks are what str.isspace accepts and digits what str.isdecimal accepts,
# which is what int() reads, so a superscript such as '²' is an unexpected
# character. The scanner reads the text in C-level passes. Comments become
# blanks of the same length, so every position stays. One lexical pass over
# the whole text (`_lexical_pass`) finds a character no token holds, an x
# with no index or a number longer than int() converts before any grammar
# error, wherever they are. Then one match per term (`_TERM`) and one list
# of its factors (`_FACTOR`). Python 3.10 has no possessive quantifiers, so
# each '\s*' is followed only by what cannot start with a blank: an
# optional group that starts with its operator, or the next factor. A match
# then keeps a run of blanks whole instead of giving it back one blank at a
# time.
_COMMENT = re.compile(r"#[^\n]*")
# the longest prefix with no lexical error: operators, blanks, digits and
# variables with an index
_LEXICAL = re.compile(r"[-+*/^\s\d]*(?:x\d[-+*/^\s\d]*)*")
# [sign] factors, each with the optional '*' and the blanks after it; a
# factor is a number over an optional denominator or a variable with an
# optional exponent. Group 1 spans the factors.
_TERM = re.compile(r"[-+]?\s*((?:(?:\d+\s*(?:/\s*\d+\s*)?|x\d+\s*(?:\^\s*\d+\s*)?)(?:\*\s*)?)+)")
# over a term's factors: ("x", index, exponent) or ("", coefficient,
# denominator), "" for a number that is absent; in a term a '/' follows
# only a coefficient and a '^' only an index. Like `_TERM`, each match
# takes the '*' and the blanks up to the next factor.
_FACTOR = re.compile(r"(x?)(\d+)\s*(?:[/^]\s*(\d+)\s*)?(?:\*\s*)?")


def int_digit_limit() -> int:
    """The most digits int() converts from a string, 0 for no limit
    (`sys.get_int_max_str_digits`, which CPython 3.10 lacks)."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _lexical_pass(text: str) -> str:
    """The text with each comment blanked, once no character outside the
    comments is one no token holds, an x with no index or a digit of a
    number longer than int() converts; otherwise the ParseError of the
    first of these."""
    if "#" in text:
        text = _COMMENT.sub(lambda comment: " " * len(comment[0]), text)
    pos = _LEXICAL.match(text).end()
    digits = int_digit_limit()
    if digits and pos > digits:
        # the prefix's digit runs up to the first one longer than `digits`,
        # each run read whole; then the factor of that run, from its x if
        # it has one (the x ends the match)
        short = re.compile(rf"\D*(?:\d{{1,{digits}}}(?!\d)\D*)*").match(text, 0, pos).end()
        if short < pos:
            long = _FACTOR.search(text, max(short - 1, 0))
            raise ParseError(
                f"{len(long[2])}-digit number, more than the {digits} digits Python converts",
                long.start(),
            )
    if pos < len(text):
        if text[pos] == "x":
            raise ParseError("variable must be x<k> with a numeric index", pos)
        raise ParseError(f"unexpected character {text[pos]!r}", pos)
    return text


def parse_polynomial(text: str, n: int) -> Polynomial:
    """Parse an expression in the fixed grammar into a canonical polynomial."""
    if n < 1:
        raise InputError("ambient dimension must be >= 1")
    text = _lexical_pass(text)
    end = len(text)
    pos = _next_token(text, 0)
    if pos == end:
        raise ParseError("empty expression", pos)
    if text[pos] == "+":
        raise ParseError("expression may not start with '+'", pos)
    terms: Dict[MultiIndex, Fraction] = {}
    while pos < end:
        term = _TERM.match(text, pos)
        if term is None:
            raise ParseError(
                "expected a coefficient or a variable",
                _next_token(text, pos + 1) if text[pos] in "+-" else pos,
            )
        num, den = (-1 if text[pos] == "-" else 1), 1
        alpha = [0] * n
        factors = _FACTOR.findall(text, *term.span(1))
        for x, k, m in factors:
            if x:
                k = int(k)
                if not 0 < k <= n:
                    _factor_error(text, term, n)
                alpha[k - 1] += int(m) if m else 1
            else:
                num *= int(k)
                if m:
                    m = int(m)
                    if not m:
                        _factor_error(text, term, n)
                    den *= m
        coeff = Fraction(num) if den == 1 else Fraction(num, den)
        alpha = tuple(alpha)
        t = terms.get(alpha)
        terms[alpha] = coeff if t is None else t + coeff
        pos = term.end()
        if pos < end and text[pos] not in "+-":
            _follow_error(text, pos, term, factors[-1])
    return Polynomial._trusted(n, terms)


def _next_token(text: str, pos: int) -> int:
    """The position of the first character at or after pos that is not a
    blank, or len(text)."""
    return len(text) - len(text[pos:].lstrip())


def _factor_error(text: str, term: re.Match, n: int) -> None:
    """Raise the ParseError of the first factor of the term with an index
    outside 1..n or a zero denominator."""
    for factor in _FACTOR.finditer(text, *term.span(1)):
        x, k, m = factor.groups()
        if x and not 0 < int(k) <= n:
            raise ParseError(f"variable index {int(k)} out of range 1..{n}", factor.start())
        if not x and m and not int(m):
            raise ParseError("zero denominator", factor.start(3))


def _follow_error(text: str, pos: int, term: re.Match, last: Tuple[str, ...]) -> None:
    """Raise the ParseError for the token at pos, the first after the term,
    which is neither a sign nor a factor: a '/' right after a coefficient
    with no denominator, or a '^' right after a variable with no exponent,
    lacks its number at the token after it; anything else belongs to no
    term."""
    x, _, m = last
    if not m and not text[term.start(1) : pos].rstrip().endswith("*"):
        after = _next_token(text, pos + 1)
        if text[pos] == "/" and not x:
            raise ParseError("expected a positive integer denominator", after)
        if text[pos] == "^" and x:
            raise ParseError("expected an integer exponent", after)
    raise ParseError("expected '+' or '-' between terms", pos)
