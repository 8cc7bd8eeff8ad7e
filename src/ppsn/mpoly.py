"""Sparse multivariate polynomials over exact rationals.

A polynomial stores its coefficients in one form: integer numerators over
one positive denominator D with no factor common to D and all numerators
(`Polynomial`). Its `terms`, `fractions.Fraction`s in lowest terms, are
built on access. A multi-index is a tuple of nonnegative ints of length n.
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
first. A term's coefficient is an int, or one Fraction when the term has a
denominator. `str` prints the terms in the graded order, each numerator
reduced against D by one gcd.
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


def _over_lcm(terms: Dict[MultiIndex, Fraction]) -> Tuple[Dict[MultiIndex, int], int]:
    """(numerators, D): ints and Fractions in lowest terms as integer
    numerators over D, the lcm of their denominators, which shares no
    factor with all of them."""
    D = math.lcm(*(c.denominator for c in terms.values()))
    return {a: c.numerator * (D // c.denominator) for a, c in terms.items()}, D


class Polynomial:
    """Immutable sparse polynomial in one stored form: integer numerators
    over one denominator. The coefficient of X^alpha is
    numerators[alpha] / D, with D >= 1, every numerator a nonzero int and
    gcd(D, all numerators) = 1, so equal polynomials have equal stored
    forms and `==` and `hash` compare those. `terms`, the mapping
    multi-index -> nonzero Fraction in lowest terms, is built on each access
    and not kept.

    Each key is a tuple of n nonnegative ints. `__init__` establishes the
    form for any input. Arithmetic brings its operands to a common
    denominator, adds and multiplies numerators and adds exponent tuples of
    length n; every result is built by `_over`, which drops the numerators
    that cancel to zero and divides out gcd(D, numerators) once.
    """

    __slots__ = ("n", "_den", "_nums", "_degree", "_hash", "_leading")

    def __init__(self, n: int, terms: Dict[MultiIndex, Fraction]):
        if n < 1:
            raise InputError("ambient dimension must be >= 1")
        clean: Dict[MultiIndex, Fraction] = {}
        for alpha, c in terms.items():
            if not isinstance(c, (int, Fraction)):
                c = as_fraction(c)
            if c == 0:
                continue
            if type(alpha) is not tuple or not all(type(e) is int for e in alpha):
                alpha = tuple(int(e) for e in alpha)  # keep int tuples shared
            if len(alpha) != n or any(e < 0 for e in alpha):
                raise InputError(f"bad multi-index {alpha} for dimension {n}")
            clean[alpha] = c
        self._set(n, *_over_lcm(clean))

    @classmethod
    def _trusted(cls, n: int, terms: Dict[MultiIndex, Fraction]) -> "Polynomial":
        """A polynomial from ints and Fractions on keys that keep the class
        invariant, zero values dropped; nothing else is checked."""
        return cls._over(n, *_over_lcm(terms))

    @classmethod
    def _over(cls, n: int, numerators: Dict[MultiIndex, int], D: int) -> "Polynomial":
        """The polynomial with coefficients numerators[alpha] / D, for a
        positive D and keys that keep the class invariant."""
        poly = object.__new__(cls)
        poly._set(n, numerators, D)
        return poly

    def _numerators(self) -> Tuple[int, Dict[MultiIndex, int]]:
        """(D, numerators): the stored form, which the caller must not change."""
        return self._den, self._nums

    def _set(self, n: int, numerators: Dict[MultiIndex, int], D: int):
        """Store numerators / D: zero numerators dropped, then
        gcd(D, numerators) divided out."""
        nums = {a: v for a, v in numerators.items() if v}
        if D != 1:
            g = math.gcd(D, *nums.values())
            if g != 1:
                D //= g
                nums = {a: v // g for a, v in nums.items()}
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_den", D)
        object.__setattr__(self, "_nums", nums)
        object.__setattr__(self, "_degree", max(map(sum, nums), default=-1))
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_leading", None)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @property
    def terms(self) -> Dict[MultiIndex, Fraction]:
        """multi-index -> nonzero Fraction, built from the stored form."""
        D = self._den
        return {a: Fraction(v, D) for a, v in self._nums.items()}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "Polynomial":
        return cls(n, {})

    @classmethod
    def constant(cls, n: int, c) -> "Polynomial":
        return cls(n, {(0,) * n: c})

    @classmethod
    def variable(cls, n: int, i: int) -> "Polynomial":
        """The variable x_i, 1-based."""
        if not 1 <= i <= n:
            raise InputError(f"variable index {i} out of range 1..{n}")
        alpha = [0] * n
        alpha[i - 1] = 1
        return cls(n, {tuple(alpha): 1})

    @classmethod
    def monomial(cls, alpha: MultiIndex, c=1) -> "Polynomial":
        return cls(len(alpha), {tuple(alpha): c})

    # -- basic queries -----------------------------------------------------

    @property
    def degree(self) -> int:
        """Total degree; -1 is the zero-polynomial sentinel."""
        return self._degree

    def is_zero(self) -> bool:
        return not self._nums

    def in_space(self, m: int) -> bool:
        """Membership in the space of polynomials of total degree <= m.

        Negative m denotes the zero space.
        """
        return self.is_zero() or self._degree <= m

    def coefficient(self, alpha: MultiIndex) -> Fraction:
        v = self._nums.get(tuple(alpha))
        return Fraction(0) if v is None else Fraction(v, self._den)

    def homogeneous_component(self, d: int) -> "Polynomial":
        return Polynomial._over(
            self.n, {a: v for a, v in self._nums.items() if sum(a) == d}, self._den
        )

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

    def _plus(self, other: "Polynomial", sign: int) -> "Polynomial":
        """self + sign * other over the lcm of the two denominators."""
        self._check(other)
        D1, D2 = self._den, other._den
        if D1 == D2:
            D, terms = D1, dict(self._nums)
        else:
            D = D1 // math.gcd(D1, D2) * D2
            k = D // D1
            terms = {a: v * k for a, v in self._nums.items()}
            sign *= D // D2
        for a, v in other._nums.items():
            terms[a] = terms.get(a, 0) + sign * v
        return Polynomial._over(self.n, terms, D)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return self._plus(other, 1)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self._plus(other, -1)

    def __neg__(self) -> "Polynomial":
        return Polynomial._over(self.n, {a: -v for a, v in self._nums.items()}, self._den)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        terms: Dict[MultiIndex, int] = {}
        right = other._nums.items()
        for a1, c1 in self._nums.items():
            for a2, c2 in right:
                a = tuple(map(operator.add, a1, a2))
                terms[a] = terms.get(a, 0) + c1 * c2
        return Polynomial._over(self.n, terms, self._den * other._den)

    def __rmul__(self, other) -> "Polynomial":
        return self.__mul__(other)

    def scale(self, c) -> "Polynomial":
        if not isinstance(c, (int, Fraction)):
            c = as_fraction(c)
        num = c.numerator
        return Polynomial._over(
            self.n, {a: num * v for a, v in self._nums.items()}, c.denominator * self._den
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.n == other.n
            and self._den == other._den
            and self._nums == other._nums
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.n, self._den, frozenset(self._nums.items())))
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
        D, nums = self._den, self._nums
        coefficients = list(nums.values())
        return [
            Fraction(sum(map(operator.mul, row, coefficients)), D * scale)
            for scale, row in evaluation_rows(points, list(nums))
        ]

    def __call__(self, point: Sequence) -> Fraction:
        return self.evaluate(point)

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        nums = self._nums
        if not nums:
            return "0"
        D = self._den
        names = [f"x{i}" for i in range(1, self.n + 1)]
        pieces: List[str] = []
        # descending lex order, then a stable sort by degree: the order of
        # `monomial_key`, since the keys are distinct
        for alpha in sorted(sorted(nums, reverse=True), key=sum):
            v = nums[alpha]
            if D == 1:
                mag = str(abs(v))
            else:
                # the term v / D in lowest terms
                g = math.gcd(v, D)
                mag = str(abs(v) // g) if g == D else f"{abs(v) // g}/{D // g}"
            factors = "*".join([f"{x}^{e}" if e > 1 else x for x, e in zip(names, alpha) if e])
            if not factors:
                body = mag
            elif mag == "1":
                body = factors
            else:
                body = f"{mag}*{factors}"
            pieces.append(f"- {body}" if v < 0 else f"+ {body}")
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
# of its factors (`_FACTOR`). No match may give a run of blanks back one
# blank at a time. So a run is followed by what cannot start with a blank,
# an optional group that starts with its operator or the next factor; and
# where a token must follow the run (after the sign, a '/' or a '^'), the
# run is made atomic by `(?=([ \s]*))\N`, since Python 3.10 has no
# possessive quantifiers: the lookahead keeps what it matched and the
# backreference consumes exactly that. A class of blanks lists ' ' before
# `\s`, which holds it: `re` tests the literal first, and a run of spaces
# scans about twice as fast.
_COMMENT = re.compile(r"#[^\n]*")
# the longest prefix with no lexical error: operators, blanks, digits and
# variables with an index
_LEXICAL = re.compile(r"[ \s\d+*/^-]*(?:x\d[ \s\d+*/^-]*)*")
# [sign] factors, each with the optional '*' and the blanks after it; a
# factor is a number over an optional denominator or a variable with an
# optional exponent. The group "factors" spans the factors.
_TERM = re.compile(
    r"[-+]?(?=([ \s]*))\1(?P<factors>(?:(?:\d+[ \s]*(?:/(?=([ \s]*))\3\d+[ \s]*)?"
    r"|x\d+[ \s]*(?:\^(?=([ \s]*))\4\d+[ \s]*)?)(?:\*[ \s]*)?)+)"
)
# over a term's factors: ("x", index, exponent) or ("", coefficient,
# denominator), "" for a number that is absent; in a term a '/' follows
# only a coefficient and a '^' only an index. Like `_TERM`, each match
# takes the '*' and the blanks up to the next factor.
_FACTOR = re.compile(r"(x?)(\d+)[ \s]*(?:[/^][ \s]*(\d+)[ \s]*)?(?:\*[ \s]*)?")


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
        short = re.compile(rf"[ \D]*(?:\d{{1,{digits}}}(?!\d)[ \D]*)*").match(text, 0, pos).end()
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
    # integer coefficients stay ints; a term with a denominator makes one
    # Fraction, and the sum of an int and a Fraction is one
    terms: Dict[MultiIndex, int] = {}
    rational = False
    while pos < end:
        term = _TERM.match(text, pos)
        if term is None:
            raise ParseError(
                "expected a coefficient or a variable",
                _next_token(text, pos + 1) if text[pos] in "+-" else pos,
            )
        num, den = (-1 if text[pos] == "-" else 1), 1
        alpha = [0] * n
        factors = _FACTOR.findall(text, *term.span("factors"))
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
        if den != 1:
            num = Fraction(num, den)
            rational = True
        alpha = tuple(alpha)
        t = terms.get(alpha)
        terms[alpha] = num if t is None else t + num
        pos = term.end()
        if pos < end and text[pos] not in "+-":
            _follow_error(text, pos, term, factors[-1])
    return Polynomial._trusted(n, terms) if rational else Polynomial._over(n, terms, 1)


def _next_token(text: str, pos: int) -> int:
    """The position of the first character at or after pos that is not a
    blank, or len(text)."""
    return len(text) - len(text[pos:].lstrip())


def _factor_error(text: str, term: re.Match, n: int) -> None:
    """Raise the ParseError of the first factor of the term with an index
    outside 1..n or a zero denominator."""
    for factor in _FACTOR.finditer(text, *term.span("factors")):
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
    if not m and not text[term.start("factors") : pos].rstrip().endswith("*"):
        after = _next_token(text, pos + 1)
        if text[pos] == "/" and not x:
            raise ParseError("expected a positive integer denominator", after)
        if text[pos] == "^" and x:
            raise ParseError("expected an integer exponent", after)
    raise ParseError("expected '+' or '-' between terms", pos)
