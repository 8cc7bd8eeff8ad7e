"""Exact linear algebra over the rationals.

Matrices are lists of lists of exact rationals: Fractions or Python ints.
Every elimination uses the same deterministic pivot policy: sweep columns
left to right and take the first remaining row with a nonzero entry, so
pivot columns are the leftmost maximal independent set and results are
reproducible bit for bit.

`row_reduce` is a fraction-free Gauss-Jordan elimination (Bareiss, Math.
Comp. 22, 1968) over Python ints. Each row is first scaled by the lcm of its
denominators. A step with pivot p replaces every other row by
(p*a - f*b) / prev, where prev is the previous pivot; the division is exact
because every entry stays a minor of the scaled matrix. Both operations only
multiply rows by nonzero scalars or add multiples of the pivot row, exactly
as rational elimination does, so every intermediate row is a nonzero multiple
of its rational counterpart. Zero tests therefore agree, which gives the same
pivots and swaps, and the final rows divided by the last pivot are the unique
RREF. Only the result is converted back to Fractions.

`row_reduce_mod` is the same Gauss-Jordan elimination over the integers mod
the fixed prime `PRIME`. Its answers are used only where they need no trust:

* A rank of N mod p for an integer N x N matrix is a certificate of
  nonsingularity over Q. The determinant is an integer, and the elimination
  mod p shows that it is nonzero mod p, so it is nonzero. A rank below N
  proves nothing: p may divide the determinant of a nonsingular matrix.
  Callers then take the exact path.
* A solution mod p is a guess. `rational_reconstruct` turns each residue
  into the unique small fraction congruent to it, if one exists (Wang's
  method, as in Dixon, Numer. Math. 40, 1982). The guess is accepted only
  after an exact check over Q; otherwise the caller solves with
  `row_reduce`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm
from typing import List, Optional, Sequence, Tuple

Row = List[Fraction]

# 2^62 - 57, a prime (deterministic Miller-Rabin). It differs from the
# benchmark oracle's 2^61 - 1, so the two rank checks share no blind spot.
PRIME = 2**62 - 57


@dataclass(frozen=True)
class Echelon:
    """Result of an exact row reduction.

    pivots[i] = (original_row_index, column) for the i-th pivot, in the
    order pivots were found. `rows` is the reduced matrix (RREF); from
    `row_reduce_mod` it holds residues in [0, PRIME).
    """

    rank: int
    pivots: Tuple[Tuple[int, int], ...]
    rows: Tuple[Tuple[Fraction, ...], ...]

    @property
    def pivot_columns(self) -> Tuple[int, ...]:
        return tuple(c for _, c in self.pivots)

    @property
    def pivot_rows(self) -> Tuple[int, ...]:
        return tuple(r for r, _ in self.pivots)


def row_reduce(matrix: Sequence[Sequence[Fraction]]) -> Echelon:
    """Reduced row echelon form with a replayable pivot trail."""
    m: List[List[int]] = []
    for row in matrix:
        scale = lcm(*(v.denominator for v in row))
        m.append([v.numerator * (scale // v.denominator) for v in row])
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    origin = list(range(nrows))
    pivots: List[Tuple[int, int]] = []
    prev = 1
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        origin[r], origin[pr] = origin[pr], origin[r]
        pivot_row = m[r]
        p = pivot_row[c]
        for i in range(nrows):
            if i == r:
                continue
            f = m[i][c]
            if f:
                m[i] = [(p * a - f * b) // prev for a, b in zip(m[i], pivot_row)]
            elif p != prev:
                m[i] = [p * a // prev for a in m[i]]
        prev = p
        pivots.append((origin[r], c))
        r += 1
        if r == nrows:
            break
    return Echelon(
        rank=r,
        pivots=tuple(pivots),
        rows=tuple(tuple(Fraction(a, prev) for a in row) for row in m),
    )


def row_reduce_mod(matrix: Sequence[Sequence[int]]) -> Echelon:
    """`row_reduce` of an integer matrix over the integers mod `PRIME`:
    the same pivot policy, each pivot scaled to 1."""
    p = PRIME
    m = [[v % p for v in row] for row in matrix]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    origin = list(range(nrows))
    pivots: List[Tuple[int, int]] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        origin[r], origin[pr] = origin[pr], origin[r]
        # every row is zero left of c outside earlier pivot columns, where
        # the pivot row is zero: only the tail from c changes
        inv = pow(m[r][c], -1, p)
        tail = [a * inv % p for a in m[r][c:]]
        m[r][c:] = tail
        for i in range(nrows):
            f = m[i][c]
            if f and i != r:
                m[i][c:] = [(a - f * b) % p for a, b in zip(m[i][c:], tail)]
        pivots.append((origin[r], c))
        r += 1
        if r == nrows:
            break
    return Echelon(rank=r, pivots=tuple(pivots), rows=tuple(map(tuple, m)))


def rational_reconstruct(u: int, p: int) -> Optional[Fraction]:
    """The fraction a/b with a = b*u (mod p), |a| <= sqrt(p/2) and
    0 < b <= sqrt(p/2), or None when there is none, for a prime p. It is
    unique when it exists, and the half-extended Euclidean algorithm on
    (p, u) finds it: each remainder r and cofactor t satisfy r = t*u (mod p)
    and gcd(r, t) divides p, so a prime p leaves nothing to cancel."""
    bound = isqrt(p // 2)
    r0, r1 = p, u % p
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if abs(t1) > bound:
        return None
    return Fraction(r1, t1)


def rank(matrix: Sequence[Sequence[Fraction]]) -> int:
    return row_reduce(matrix).rank


def solve(
    matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> Optional[List[Fraction]]:
    """One exact solution of A x = b with free variables set to zero.

    Returns None when the system is inconsistent.
    """
    nrows = len(matrix)
    if nrows == 0:
        return []
    ncols = len(matrix[0])
    aug = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    ech = row_reduce(aug)
    x: List[Fraction] = [Fraction(0)] * ncols
    for _, c in ech.pivots:
        if c == ncols:
            return None  # pivot in the rhs column: inconsistent
    for i, (_, c) in enumerate(ech.pivots):
        x[c] = ech.rows[i][ncols]
    return x


def nullspace(matrix: Sequence[Sequence[Fraction]]) -> List[List[Fraction]]:
    """Basis of the right kernel {x : A x = 0}."""
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    if nrows == 0:
        return [[Fraction(1) if i == j else Fraction(0) for j in range(ncols)] for i in range(ncols)]
    ech = row_reduce(matrix)
    pivot_cols = set(ech.pivot_columns)
    basis: List[List[Fraction]] = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for i, (_, c) in enumerate(ech.pivots):
            v[c] = -ech.rows[i][free]
        basis.append(v)
    return basis


def left_null_vector(
    matrix: Sequence[Sequence[Fraction]],
) -> Optional[List[Fraction]]:
    """A nonzero y with y^T A = 0, or None when rows are independent."""
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    transpose = [[matrix[i][j] for i in range(nrows)] for j in range(ncols)]
    if not transpose:
        return [Fraction(1)] * nrows if nrows else None
    kernel = nullspace(transpose)
    return kernel[0] if kernel else None


class IncrementalRank:
    """Grow a row set one candidate at a time, accepting rank increases.

    Used by the greedy nested-submatrix extractions; deterministic because
    reduction against the stored basis never reorders anything.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self._basis: List[Tuple[int, Row]] = []  # (pivot column, reduced row)

    @property
    def rank(self) -> int:
        return len(self._basis)

    def _reduce(self, row: Sequence[Fraction]) -> Row:
        v = list(row)
        for c, b in self._basis:
            if v[c] != 0:
                f = v[c]
                v = [a - f * bb for a, bb in zip(v, b)]
        return v

    def add(self, row: Sequence[Fraction]) -> bool:
        """Add the row if independent of the current set; report acceptance."""
        v = self._reduce(row)
        c = next((i for i, val in enumerate(v) if val != 0), None)
        if c is None:
            return False
        inv = Fraction(1) / v[c]  # `1 / v[c]` is a float when v[c] is an int
        v = [val * inv for val in v]
        # keep the stored basis in RREF so a single reduction pass is enough
        for idx, (pc, b) in enumerate(self._basis):
            if b[c] != 0:
                f = b[c]
                self._basis[idx] = (pc, [a - f * vv for a, vv in zip(b, v)])
        self._basis.append((c, v))
        return True
