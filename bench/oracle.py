"""Independent correctness oracle for the benchmark.

Nothing here imports `ppsn`. Exact answers use `fractions.Fraction` and
plain dictionaries; rank tests run modulo the Mersenne prime 2^61 - 1.

Full row rank modulo a prime implies full row rank over Q (a nonzero
minor mod p is a nonzero minor over Q), so `full_rank_mod_p` is a sound
test for a "proper" verdict. A deficient rank mod p may be an unlucky
prime, which is why the generators discard such random sets instead of
expecting "improper" from them.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

P = (1 << 61) - 1

Mono = Tuple[int, ...]
Poly = Dict[Mono, Fraction]


# -- monomials -----------------------------------------------------------------


def monos_of_degree(n: int, d: int) -> List[Mono]:
    """Exponent tuples of total degree d, descending lexicographic (the order
    the package documents for its monomial basis within one degree)."""
    if d < 0:
        return []
    out = [
        c for c in itertools.product(range(d + 1), repeat=n) if sum(c) == d
    ]
    out.sort(reverse=True)
    return out


def monos_upto(n: int, m: int) -> List[Mono]:
    """Graded basis: ascending degree, descending lexicographic within one."""
    out: List[Mono] = []
    for d in range(m + 1):
        out.extend(monos_of_degree(n, d))
    return out


# -- exact evaluation and rank mod p ---------------------------------------------


def to_mod_p(x: Fraction) -> int:
    den = x.denominator % P
    if den == 0:
        raise ValueError(f"denominator of {x} vanishes mod p")
    return x.numerator * pow(den, -1, P) % P


def eval_rows_exact(points: Sequence[Sequence[Fraction]], monos: Sequence[Mono]) -> List[List[Fraction]]:
    rows = []
    for q in points:
        row = []
        for alpha in monos:
            v = Fraction(1)
            for x, e in zip(q, alpha):
                if e:
                    v *= x**e
            row.append(v)
        rows.append(row)
    return rows


def eval_rows_mod_p(points: Sequence[Sequence[Fraction]], monos: Sequence[Mono]) -> List[List[int]]:
    rows = []
    for q in points:
        qp = [to_mod_p(x) for x in q]
        row = []
        for alpha in monos:
            v = 1
            for x, e in zip(qp, alpha):
                if e:
                    v = v * pow(x, e, P) % P
            row.append(v)
        rows.append(row)
    return rows


def rank_mod_p(rows: Sequence[Sequence[int]]) -> int:
    work = [list(r) for r in rows]
    nrows = len(work)
    ncols = len(work[0]) if nrows else 0
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, nrows) if work[i][c]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = pow(work[rank][c], -1, P)
        prow = [v * inv % P for v in work[rank]]
        work[rank] = prow
        for i in range(rank + 1, nrows):
            f = work[i][c]
            if f:
                work[i] = [(a - f * b) % P for a, b in zip(work[i], prow)]
        rank += 1
        if rank == nrows:
            break
    return rank


def full_rank_mod_p(points: Sequence[Sequence[Fraction]], n: int, m: int) -> bool:
    """Rows of the full degree-<=m evaluation matrix are independent mod p."""
    if not points:
        return True
    return rank_mod_p(eval_rows_mod_p(points, monos_upto(n, m))) == len(points)


def columns_full_rank_mod_p(
    points: Sequence[Sequence[Fraction]], n: int, m: int, columns: Sequence[int]
) -> bool:
    """The square submatrix on the given basis columns is nonsingular mod p."""
    basis = monos_upto(n, m)
    if len(columns) != len(points) or any(not 0 <= c < len(basis) for c in columns):
        return False
    rows = eval_rows_mod_p(points, [basis[c] for c in columns])
    return rank_mod_p(rows) == len(points)


def annihilates(functional: Sequence[Fraction], points, n: int, m: int) -> bool:
    """y != 0 and y^T A = 0 exactly, for A the full-basis evaluation matrix."""
    if len(functional) != len(points) or all(y == 0 for y in functional):
        return False
    rows = eval_rows_exact(points, monos_upto(n, m))
    for j in range(len(rows[0])):
        if sum(y * row[j] for y, row in zip(functional, rows)) != 0:
            return False
    return True


# -- dimensions -------------------------------------------------------------------


def series_num(ks: Sequence[int], upto: int) -> List[int]:
    """Coefficients of prod (1 - t^k), truncated at t^upto."""
    num = [1] + [0] * upto
    for k in ks:
        num = [num[j] - (num[j - k] if j >= k else 0) for j in range(upto + 1)]
    return num


def dim_table(n: int, ks: Sequence[int], mmax: int) -> List[Tuple[int, int, int]]:
    """(h_j, H_j, d_j) for j = 0..mmax: h_j = [t^j] prod(1-t^k)/(1-t)^n,
    H_j its running sum, d_j = C(j+n-1, n-1) - h_j."""
    num = series_num(ks, mmax)
    out = []
    for j in range(mmax + 1):
        h = sum(num[i] * math.comb(j - i + n - 1, n - 1) for i in range(j + 1))
        H = sum(num[i] * math.comb(j - i + n, n) for i in range(j + 1))
        out.append((h, H, math.comb(j + n - 1, n - 1) - h))
    return out


def dim_along(n: int, ks: Sequence[int], m: int) -> int:
    if m < 0:
        return 0
    return dim_table(n, ks, m)[m][1]


# -- sparse polynomials ----------------------------------------------------------


def p_add(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for k, v in b.items():
        s = out.get(k, Fraction(0)) + v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def p_mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            out[k] = out.get(k, Fraction(0)) + va * vb
    return {k: v for k, v in out.items() if v}


def p_eval(a: Poly, q: Sequence[Fraction]) -> Fraction:
    total = Fraction(0)
    for alpha, c in a.items():
        v = c
        for x, e in zip(q, alpha):
            if e:
                v *= x**e
        total += v
    return total


def p_format(a: Poly) -> str:
    """Text in the package's input grammar (terms joined by + / -)."""
    if not a:
        return "0"
    pieces = []
    for alpha in sorted(a, key=lambda t: (sum(t), t)):
        c = a[alpha]
        factors = [
            f"x{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(alpha) if e
        ]
        body = "*".join([str(abs(c))] + factors) if factors else str(abs(c))
        pieces.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(pieces)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


_TERM = re.compile(r"([+-]?)\s*([^\s+-]+)")


def p_parse(text: str, n: int) -> Poly:
    """Parse the package's printed form: '3/2*x1^2*x3 - x2 + 1'."""
    out: Poly = {}
    for sign, body in _TERM.findall(text):
        coeff = Fraction(1)
        exps = [0] * n
        for factor in body.split("*"):
            if factor.startswith("x"):
                var, _, e = factor[1:].partition("^")
                exps[int(var) - 1] += int(e) if e else 1
            else:
                coeff *= Fraction(factor)
        if sign == "-":
            coeff = -coeff
        out = p_add(out, {tuple(exps): coeff})
    return out


def leading_form(a: Poly) -> Poly:
    top = max(sum(k) for k in a)
    return {k: v for k, v in a.items() if sum(k) == top}


def unselected_by_degree(polys: Sequence[Poly], n: int, upto: int) -> Dict[int, set]:
    """Monomials left unselected at each degree: the complement of the
    leftmost independent columns of the span of X^alpha * leading forms,
    columns in the documented within-degree order. Exact over Q."""
    forms = [leading_form(f) for f in polys]
    out: Dict[int, set] = {}
    for t in range(upto + 1):
        cols = monos_of_degree(n, t)
        index = {mu: j for j, mu in enumerate(cols)}
        rows = []
        for g in forms:
            k = max(sum(a) for a in g)
            for alpha in monos_of_degree(n, t - k):
                row = [Fraction(0)] * len(cols)
                for beta, c in g.items():
                    row[index[tuple(a + b for a, b in zip(alpha, beta))]] = c
                rows.append(row)
        pivots = _pivot_columns(rows, len(cols))
        out[t] = {mu for j, mu in enumerate(cols) if j not in pivots}
    return out


def _pivot_columns(rows: List[List[Fraction]], ncols: int) -> set:
    work = [list(r) for r in rows]
    pivots = set()
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        for i in range(r + 1, len(work)):
            if work[i][c] != 0:
                f = work[i][c] / work[r][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.add(c)
        r += 1
    return pivots
