"""Test-only reference: the token-by-token polynomial parser that
`ppsn.mpoly.parse_polynomial` replaced with its term-level scanner. The
scanner must give the same `Polynomial`, or the same `ParseError` message
and position, for every text.

One pattern scans the whole text into tokens before any of it is parsed;
the parser then walks the token list one token at a time."""

import re
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from ppsn.errors import InputError, ParseError
from ppsn.mpoly import MultiIndex, Polynomial, int_digit_limit

_TOKEN = re.compile(
    r"\s+|#[^\n]*|(?P<int>\d+)|x(?P<var>\d*)|(?P<op>[-+*/^])|(?P<bad>.)", re.DOTALL
)


def _tokens(text: str) -> List[Tuple[Optional[str], str, int]]:
    """The tokens of the whole text as (kind, text, position), where kind is
    "int", "var" (its text is the index) or the operator character, closed
    by (None, "", len(text)). A number or index longer than int() converts
    is a ParseError at its token."""
    digits = int_digit_limit()
    tokens: List[Tuple[Optional[str], str, int]] = []
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        if kind is None:
            continue
        value, pos = match[kind], match.start()
        if kind == "op":
            kind = value
        elif kind == "var" and not value:
            raise ParseError("variable must be x<k> with a numeric index", pos)
        elif kind == "bad":
            raise ParseError(f"unexpected character {value!r}", pos)
        elif digits and len(value) > digits:
            raise ParseError(
                f"{len(value)}-digit number, more than the {digits} digits Python converts", pos
            )
        tokens.append((kind, value, pos))
    tokens.append((None, "", len(text)))
    return tokens


def token_parse_polynomial(text: str, n: int) -> Polynomial:
    if n < 1:
        raise InputError("ambient dimension must be >= 1")
    tokens = _tokens(text)
    terms: Dict[MultiIndex, Fraction] = {}
    i = 0
    while True:
        kind, _, pos = tokens[i]
        if kind is None:
            if i == 0:
                raise ParseError("empty expression", pos)
            break
        sign = 1
        if kind == "+" or kind == "-":
            if i == 0 and kind == "+":
                raise ParseError("expression may not start with '+'", pos)
            i += 1
            if kind == "-":
                sign = -1
        elif i:  # every term consumes at least one token
            raise ParseError("expected '+' or '-' between terms", pos)
        i, alpha, num, den = _parse_term(tokens, i, n)
        coeff = Fraction(sign * num, den)
        t = terms.get(alpha)
        terms[alpha] = coeff if t is None else t + coeff
    return Polynomial._trusted(n, terms)


def _parse_term(tokens, i: int, n: int) -> Tuple[int, MultiIndex, int, int]:
    """The term at tokens[i]: the index of the token after it, its exponents,
    and its coefficient as an integer numerator and a positive denominator.
    A '*' with no factor after it ends the term."""
    kind, _, pos = tokens[i]
    if kind != "int" and kind != "var":
        raise ParseError("expected a coefficient or a variable", pos)
    num, den = 1, 1
    factors: Dict[int, int] = {}
    while True:
        kind, value, pos = tokens[i]
        if kind == "int":
            num *= int(value)
            i += 1
            if tokens[i][0] == "/":
                kind, value, pos = tokens[i + 1]
                if kind != "int":
                    raise ParseError("expected a positive integer denominator", pos)
                d = int(value)
                if d == 0:
                    raise ParseError("zero denominator", pos)
                den *= d
                i += 2
        elif kind == "var":
            idx = int(value)
            if not 1 <= idx <= n:
                raise ParseError(f"variable index {idx} out of range 1..{n}", pos)
            i += 1
            exp = 1
            if tokens[i][0] == "^":
                kind, value, pos = tokens[i + 1]
                if kind != "int":
                    raise ParseError("expected an integer exponent", pos)
                exp = int(value)
                i += 2
            factors[idx] = factors.get(idx, 0) + exp
        else:
            break
        kind = tokens[i][0]
        if kind == "*":
            i += 1
        elif kind != "int" and kind != "var":
            break
    alpha = [0] * n
    for idx, exp in factors.items():
        alpha[idx - 1] = exp
    return i, tuple(alpha), num, den
