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
RREF. The `Echelon` keeps those integer rows and that one denominator; it
builds Fractions only for the entries a caller reads, and callers read at
most a column or two (`solve` the right-hand side, `nullspace` the free
columns).

`row_reduce_mod` is forward elimination over the integers mod a prime p,
one of the fixed word-size primes `PRIMES`, with `row_reduce`'s pivot
policy, delayed reduction (Dumas, Giorgi & Pernet, ACM TOMS 35(3), 2008)
and rows packed as in Kronecker substitution. Each row is one Python int
with a slot of W = bit_length((nrows+1)*p^2) + 1 bits per column, a row
operation is one big-int multiply-add of the negated pivot row, and a slot
is reduced mod p only when it is read. Slots stay nonnegative and below
p + nrows*(p-1)^2, which is below 2^W, so no borrow or carry ever crosses a
slot (the function gives the argument). The row operations, and so the
pivots and the echelon residues, are those of an entry-by-entry
elimination mod p. The slot width grows with p^2, so a smaller prime still
pays: narrower rows make each multiply-add cheaper. It clears only below
each pivot and returns the pivot rows of a row echelon form, not the RREF,
because no caller needs more. The pivot search reads only the rows below
the pivots found so far, so clearing above them changes neither the pivots
nor the rank. A square system [A | b] with a pivot in every column of A has
one solution, and `back_substitute` reads it off the echelon rows in O(N^2)
word operations, where clearing above every pivot costs O(N^3).

`row_reduce_mod` also records its steps: each pivot's inverse, its
position among the remaining rows and the factor of every row it clears. They factor the matrix as P^T L U, so the
echelon of A^T alone solves A x = b for any b (`solve_transposed`, O(N^2)):
forward substitution with U^T, then the steps applied transposed, in
reverse. One elimination of A^T thus decides whether A is nonsingular mod p
and solves every right-hand side mod p after it. Its answers are used only
where they need no trust:

* A rank of N mod p for an integer N x N matrix is a certificate of
  nonsingularity over Q. The determinant is an integer, and the elimination
  mod p shows that it is nonzero mod p, so it is nonzero. A rank below N
  proves nothing: p may divide the determinant of a nonsingular matrix.
  Callers then try the next prime and, after the last, the exact path.
* A solution mod p is a guess. Solutions mod several primes combine by the
  Chinese remainder theorem (`crt`) into one mod their product M, and
  `rational_reconstruct` turns each residue into the unique small fraction
  congruent to it mod M, if one exists (Wang, Guy & Davenport, SIGSAM Bull.
  16(2), 1982). The guess is accepted only after an exact check over Q, as
  in Dixon (Numer. Math. 40, 1982); otherwise the caller tries the next
  prime and, after the last, solves with `row_reduce`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import mul
from typing import List, Optional, Sequence, Tuple

Row = List[Fraction]

# Primes below 2^30 (deterministic Miller-Rabin), all apart from the
# benchmark oracle's 2^61 - 1, so the rank checks share no blind spot. Mod
# their product, about 2^90, reconstruction recovers numerators and
# denominators up to about 2^44.5.
PRIMES = (2**30 - 35, 2**30 - 41, 2**30 - 83)


@dataclass(frozen=True)
class Echelon:
    """Result of an exact row reduction.

    pivots[i] = (original_row_index, column) for the i-th pivot, in the
    order pivots were found. From `row_reduce` the reduced matrix (RREF) is
    kept as integer rows `ints` over one common `denominator`: entry (i, j)
    is ints[i][j] / denominator. `column(j)` and `rows` build Fractions only
    for the entries they return. From `row_reduce_mod` there is no
    denominator, `ints` holds the `rank` nonzero rows of a row echelon form
    mod p, residues in [0, p) in pivot order, each zero left of its pivot
    and 1 at it, and both return the residues. `steps[i]` is then
    (inverse, k, factors) for the i-th pivot: the inverse of its value mod
    p; its position k among the rows not yet pivots, whose first row takes
    its place before it leaves; and the factor each remaining row, in that
    new order, was cleared with.
    """

    rank: int
    pivots: Tuple[Tuple[int, int], ...]
    ints: Tuple[Tuple[int, ...], ...]
    denominator: Optional[int] = None
    steps: Tuple[Tuple[int, int, Tuple[int, ...]], ...] = ()

    @property
    def pivot_columns(self) -> Tuple[int, ...]:
        return tuple(c for _, c in self.pivots)

    def column(self, j: int) -> List[Fraction]:
        """Column j of the RREF (of the echelon rows from `row_reduce_mod`)."""
        d = self.denominator
        if d is None:
            return [row[j] for row in self.ints]
        return [Fraction(row[j], d) for row in self.ints]

    @property
    def rows(self) -> Tuple[Tuple[Fraction, ...], ...]:
        d = self.denominator
        if d is None:
            return self.ints
        return tuple(tuple(Fraction(a, d) for a in row) for row in self.ints)


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
    return Echelon(rank=r, pivots=tuple(pivots), ints=tuple(map(tuple, m)), denominator=prev)


def _pack(values: Sequence[int], width: int) -> int:
    """One int holding values[j] in bits [j*width, (j+1)*width)."""
    x = 0
    for v in reversed(values):
        x = x << width | v
    return x


def row_reduce_mod(matrix: Sequence[Sequence[int]], p: int) -> Echelon:
    """Forward elimination of an integer matrix over the integers mod the
    prime p, with `row_reduce`'s pivot policy (so the same rank and pivots
    as Gauss-Jordan mod p), each pivot scaled to 1 and nothing cleared
    above it. `ints` holds the pivot rows of the row echelon form and
    `steps` the row operations that made them.

    Each row is one packed int (`_pack`), W = bit_length((nrows+1)*p^2) + 1
    bits per slot, holding the columns from the current one on: column c is
    the lowest slot, and each step drops it. A slot is reduced mod p only
    when it is read: the pivot search, the factor f and the pivot tail. The
    pivot row leaves the packed rows once its tail is unpacked and scaled.
    Eliminating with it adds f times its negation, whose slots are p - b_j
    (0 for 0), to each row below whose column-c slot is f mod p: one big-int
    multiply-add, and slot c becomes a multiple of p. Slots never go
    negative, so nothing borrows. A row starts reduced and takes at most one
    addition of at most (p-1)^2 per pivot, so every slot stays below
    p + nrows*(p-1)^2 < (nrows+1)*p^2 < 2^W and nothing carries into the
    next slot. The rows below the last pivot are never unpacked. W grows
    with p^2, so a smaller prime gives narrower rows and cheaper
    multiply-adds."""
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    width = ((nrows + 1) * p * p).bit_length() + 1
    mask = (1 << width) - 1
    m = [_pack([v % p for v in row], width) for row in matrix]
    origin = list(range(nrows))
    pivots: List[Tuple[int, int]] = []
    ints: List[Tuple[int, ...]] = []
    steps = []
    for c in range(ncols):
        slots = [(x & mask) % p for x in m]
        k = next((i for i, f in enumerate(slots) if f), None)
        if k is None:
            m = [x >> width for x in m]
            continue
        # swap the pivot row with the first remaining row, as Gauss-Jordan
        # does, so later pivot searches see the rows in the same order
        x, o = m[k], origin[k]
        inv = pow(slots[k], -1, p)
        m[k], slots[k], origin[k] = m[0], slots[0], origin[0]
        del m[0], slots[0], origin[0]
        tail = []
        for _ in range(ncols - c):
            tail.append((x & mask) * inv % p)
            x >>= width
        ints.append((0,) * c + tuple(tail))
        pivots.append((o, c))
        steps.append((inv, k, tuple(slots)))
        neg = _pack([p - a if a else 0 for a in tail], width)
        m = [(x + f * neg) >> width if f else x >> width for x, f in zip(m, slots)]
        if not m:
            break
    return Echelon(rank=len(pivots), pivots=tuple(pivots), ints=tuple(ints), steps=tuple(steps))


def back_substitute(rows: Sequence[Sequence[int]], p: int) -> List[int]:
    """The solution mod p of the square system whose first N = len(rows)
    `row_reduce_mod` echelon rows are given, each with its pivot in its own
    column: row i is x_i + sum_{i<j<N} rows[i][j] * x_j = rows[i][N], solved
    from the last row up."""
    n = len(rows)
    x = [0] * n
    for i in range(n - 1, -1, -1):
        row = rows[i]
        x[i] = (row[n] - sum(map(mul, row[i + 1 : n], x[i + 1 :]))) % p
    return x


def solve_transposed(ech: Echelon, b: Sequence[int], p: int) -> List[int]:
    """The x with A x = b mod p, from the `row_reduce_mod` echelon of A^T for
    an N x N matrix A that is nonsingular mod p (rank N, so the i-th pivot
    lies in column i).

    With o_c the original row of the c-th pivot, its value v_c and f_cr the
    factor step c cleared row r with, the steps give
    A^T[o_c] = v_c U_c + sum_{c'<c} f_c'o_c U_c': A^T = P^T L U with L lower
    triangular, L_cc = v_c and L_cc' = f_c'o_c. So A = U^T L^T P, and
    A x = b is U^T z = b, solved by forward substitution (U has 1 on its
    diagonal), then L^T (P x) = z, solved from the last step up: step c
    gives x_{o_c} = (z_c - sum_r f_cr x_r) / v_c over the rows r it cleared,
    which are the pivots of later steps and so already solved. Their order
    is rebuilt on the way up by undoing each step's move of its first row
    into the pivot's place, so the elimination records no row order."""
    z: List[int] = []
    for i, column in enumerate(zip(*ech.ints)):
        # map stops after i entries: U_ci for c < i, times z_c
        z.append((b[i] - sum(map(mul, column, z))) % p)
    x = [0] * len(b)
    cleared: List[int] = []  # original rows below the current pivot, in order
    for (o, c), (inv, k, factors) in zip(reversed(ech.pivots), reversed(ech.steps)):
        x[o] = (z[c] - sum(map(mul, factors, map(x.__getitem__, cleared)))) * inv % p
        # undo the step's reordering: the first row took the pivot's place k
        if k:
            cleared.insert(0, cleared[k - 1])
            cleared[k] = o
        else:
            cleared.insert(0, o)
    return x


def crt(residues: Sequence[int], modulus: int, solution: Sequence[int], p: int) -> List[int]:
    """The residues mod modulus * p that are `residues` mod `modulus` and
    `solution` mod the prime p, which must not divide modulus (Chinese
    remainder theorem): x = r + modulus * k with k = (u - r) / modulus mod p."""
    inv = pow(modulus, -1, p)
    return [r + modulus * ((u - r) * inv % p) for r, u in zip(residues, solution)]


def rational_reconstruct(u: int, M: int) -> Optional[Fraction]:
    """The fraction a/b in lowest terms with a = b*u (mod M),
    |a| <= sqrt(M/2) and 0 < b <= sqrt(M/2), or None when there is none, for
    M a prime or a product of distinct odd primes. Such a fraction is unique
    (2|a|b < M), and the half-extended Euclidean algorithm on (M, u) finds it
    as the first remainder r within the bound over its cofactor t, where
    r = t*u (mod M). gcd(r, t) divides M. For a prime M it is 1; for a
    composite M a common factor means that no fraction in range exists (r/t
    in lowest terms is then not congruent to u), so rejecting it is what
    keeps the result unique. With gcd(r, t) = 1, t is invertible mod M."""
    bound = isqrt(M // 2)
    r0, r1 = M, u % M
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


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
    for (_, c), v in zip(ech.pivots, ech.column(ncols)):
        x[c] = v
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
        for (_, c), a in zip(ech.pivots, ech.column(free)):
            v[c] = -a
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

    Used by the greedy nested-submatrix extractions. Each stored row is 1
    at its pivot and zero at the pivots of the rows stored before it, so one
    reduction pass in insertion order leaves a candidate zero at every
    pivot. That reduced candidate is unique, so every verdict and pivot is
    the one an RREF basis would give.
    """

    def __init__(self):
        self._basis: List[Tuple[int, Row]] = []  # (pivot column, reduced row)

    @property
    def rank(self) -> int:
        return len(self._basis)

    def add(self, row: Sequence[Fraction]) -> bool:
        """Add the row if independent of the current set; report acceptance."""
        v = list(row)
        for c, b in self._basis:
            f = v[c]
            if f:
                v = [a - f * bb for a, bb in zip(v, b)]
        c = next((i for i, val in enumerate(v) if val), None)
        if c is None:
            return False
        inv = Fraction(1) / v[c]  # `1 / v[c]` is a float when v[c] is an int
        self._basis.append((c, [val * inv for val in v]))
        return True
