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
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
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


class Polynomial:
    """Immutable sparse polynomial. `terms` maps multi-index -> nonzero Fraction.

    Every instance keeps one invariant: each key is a tuple of n nonnegative
    ints and each value a nonzero `Fraction`. `__init__` establishes it for
    any input. Arithmetic on polynomials only adds, multiplies and negates
    Fractions and adds exponent tuples of length n, so its results keep the
    invariant except for coefficients that cancel to zero; they are built by
    `_trusted`, which only drops those and computes the degree.
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
        terms: Dict[MultiIndex, Fraction] = {}
        for a1, c1 in self.terms.items():
            for a2, c2 in other.terms.items():
                a = tuple(map(operator.add, a1, a2))
                t = terms.get(a)
                terms[a] = c1 * c2 if t is None else t + c1 * c2
        return Polynomial._trusted(self.n, terms)

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
        pt = as_point(point)
        if len(pt) != self.n:
            raise DimensionMismatchError(
                f"point of length {len(pt)} for a {self.n}-variate polynomial"
            )
        if not self.terms:
            return Fraction(0)
        # over ints: with D the lcm of the coefficient denominators, B that of
        # the coordinates and c = B*pt, sum (D*coef) * c^alpha * B^(deg-|alpha|)
        # and divide by D * B^deg once
        D = math.lcm(*(c.denominator for c in self.terms.values()))
        B = math.lcm(*(x.denominator for x in pt))
        cs = [x.numerator * (B // x.denominator) for x in pt]
        deg = self._degree
        total = 0
        for alpha, coef in self.terms.items():
            v = coef.numerator * (D // coef.denominator) * B ** (deg - sum(alpha))
            for c, e in zip(cs, alpha):
                if e:
                    v *= c**e
            total += v
        return Fraction(total, D * B**deg)

    def __call__(self, point: Sequence) -> Fraction:
        return self.evaluate(point)

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        pieces: List[str] = []
        for alpha in sorted(self.terms, key=monomial_key):
            c = self.terms[alpha]
            factors = [
                f"x{i + 1}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(alpha)
                if e > 0
            ]
            mag = abs(c)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if not pieces:
                pieces.append(body if c > 0 else "-" + body)
            else:
                pieces.append(("+ " if c > 0 else "- ") + body)
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"Polynomial({self.n}, {self})"


# -- parsing ---------------------------------------------------------------
#
# Grammar: terms joined by + / -; term = [rational][*]factor*... ;
# factor = x<k>[^e] with 1-based k; rational = int[/posint];
# whitespace ignored; '#' starts a comment running to end of line.


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens: List[Tuple[str, str, int]] = []
        self._scan()
        self.i = 0

    def _scan(self):
        text, i = self.text, 0
        while i < len(text):
            ch = text[i]
            if ch == "#":
                while i < len(text) and text[i] != "\n":
                    i += 1
                continue
            if ch.isspace():
                i += 1
                continue
            if ch in "+-*/^":
                self.tokens.append((ch, ch, i))
                i += 1
                continue
            if ch.isdigit():
                j = i
                while j < len(text) and text[j].isdigit():
                    j += 1
                self.tokens.append(("int", text[i:j], i))
                i = j
                continue
            if ch == "x":
                j = i + 1
                while j < len(text) and text[j].isdigit():
                    j += 1
                if j == i + 1:
                    raise ParseError("variable must be x<k> with a numeric index", i)
                self.tokens.append(("var", text[i + 1 : j], i))
                i = j
                continue
            raise ParseError(f"unexpected character {ch!r}", i)

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, len(self.text))

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok


def parse_polynomial(text: str, n: int) -> Polynomial:
    """Parse an expression in the fixed grammar into a canonical polynomial."""
    if n < 1:
        raise InputError("ambient dimension must be >= 1")
    tok = _Tokenizer(text)
    terms: Dict[MultiIndex, Fraction] = {}
    first = True
    while True:
        kind, _, pos = tok.peek()
        if kind is None:
            if first:
                raise ParseError("empty expression", pos)
            break
        sign = 1
        if kind in ("+", "-"):
            if first and kind == "+":
                raise ParseError("expression may not start with '+'", pos)
            tok.next()
            if kind == "-":
                sign = -1
        elif not first:
            raise ParseError("expected '+' or '-' between terms", pos)
        alpha, coeff = _parse_term(tok, n)
        t = terms.get(alpha)
        terms[alpha] = sign * coeff if t is None else t + sign * coeff
        first = False
    return Polynomial(n, terms)


def _parse_term(tok: _Tokenizer, n: int) -> Tuple[MultiIndex, Fraction]:
    coeff = Fraction(1)
    factors: Dict[int, int] = {}
    expect_atom = True
    saw_atom = False
    while True:
        kind, value, pos = tok.peek()
        if kind == "int":
            tok.next()
            num = int(value)
            k2, v2, _ = tok.peek()
            if k2 == "/":
                tok.next()
                k3, v3, p3 = tok.next()
                if k3 != "int":
                    raise ParseError("expected a positive integer denominator", p3)
                den = int(v3)
                if den == 0:
                    raise ParseError("zero denominator", p3)
                coeff *= Fraction(num, den)
            else:
                coeff *= num
            saw_atom = True
        elif kind == "var":
            tok.next()
            idx = int(value)
            if not 1 <= idx <= n:
                raise ParseError(f"variable index {idx} out of range 1..{n}", pos)
            exp = 1
            k2, _, _ = tok.peek()
            if k2 == "^":
                tok.next()
                k3, v3, p3 = tok.next()
                if k3 != "int":
                    raise ParseError("expected an integer exponent", p3)
                exp = int(v3)
            factors[idx] = factors.get(idx, 0) + exp
            saw_atom = True
        else:
            if expect_atom and not saw_atom:
                raise ParseError("expected a coefficient or a variable", pos)
            break
        k2, _, _ = tok.peek()
        if k2 == "*":
            tok.next()
            expect_atom = True
        else:
            expect_atom = False
            if k2 not in ("int", "var"):
                break
    alpha = [0] * n
    for idx, exp in factors.items():
        alpha[idx - 1] = exp
    return tuple(alpha), coeff
