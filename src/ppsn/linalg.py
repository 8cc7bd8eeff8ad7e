"""Exact linear algebra over the rationals.

Matrices are lists of lists of exact rationals: Fractions or Python ints.
There is one exact elimination, `IntegerEchelon`, and one modular one,
`row_reduce_mod`. Both find the leftmost independent columns (mod p for
`row_reduce_mod`), the pivot columns of the RREF, so results are
reproducible bit for bit.

`IntegerEchelon` is a fraction-free incremental row echelon form over
Python ints. Rows arrive in order, each scaled by the lcm of its
denominators, and a row is reduced only at its leading entry, by the stored
row whose pivot is that column, until its leading column is new (the row is
kept) or nothing is left (it depends on the rows before it). Each row also
carries its integer combination of the input rows, and the content of both
is divided out after each step. The kept rows are then the greedy
independent rows, and their leading columns the pivot columns of the RREF.
`weights` reads off the unique combination of the kept rows that takes
given values on those columns by substitution in pivot order. A rejected
row's combination (`dependency`) is a vector y with y^T A = 0, nonzero on
that row and supported on it and the kept rows before it.

Every exact answer is read off one such echelon:

* `row_reduce(A)` adds A's rows in order: its rank, pivot columns and kept
  rows.
* `solution_set(A, b)` adds A's columns once. The kept ones are the pivot
  columns of A, and the echelon's pivot columns are the greedy independent
  rows I of A. `weights` at I gives the x supported on A's pivot columns
  that meets b on I, the RREF solution with free variables zero, since A
  restricted to I and those columns is square and nonsingular. Every other
  row of A is a combination of the rows in I, so A x = b holds on every row
  exactly when the system is consistent; one integer check over all rows
  decides. A rejected column's dependency, scaled to 1 on that column, is
  supported on it and the pivot columns before it, like the RREF's kernel
  vector for that free column; both are the unique such vector.
* The first row of A that its echelon rejects gives, scaled the same way,
  the first vector of the RREF kernel of A^T: the left dependency that
  `nodes._CanonicalSystem.kernel` falls back to.

`row_reduce_mod` is forward elimination over the integers mod a prime p,
one of the fixed word-size primes `PRIMES`. It sweeps columns left to
right and takes the first remaining row with a nonzero entry as the pivot
(Gauss-Jordan's policy, so the pivot columns are the RREF's), with delayed
reduction (Dumas, Giorgi & Pernet, ACM TOMS 35(3), 2008) and rows packed
as in Kronecker substitution. Each row is one Python int
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
  16(2), 1982). The guess is accepted only after an exact check over Q
  (`satisfies`), as in Dixon (Numer. Math. 40, 1982); otherwise the caller
  tries the next prime and, after the last, takes the exact path.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import mul
from typing import Dict, List, Optional, Sequence, Tuple

Row = List[Fraction]

# Primes below 2^30 (deterministic Miller-Rabin), all apart from the
# benchmark oracle's 2^61 - 1, so the rank checks share no blind spot. Mod
# their product, about 2^90, reconstruction recovers numerators and
# denominators up to about 2^44.5.
PRIMES = (2**30 - 35, 2**30 - 41, 2**30 - 83)


@dataclass(frozen=True)
class Echelon:
    """Result of `row_reduce_mod`, a forward elimination mod p.

    pivots[i] = (original_row_index, column) for the i-th pivot, in the
    order pivots were found. `ints` holds the `rank` nonzero rows of a row
    echelon form mod p, residues in [0, p) in pivot order, each zero left of
    its pivot and 1 at it. `steps[i]` is (inverse, k, factors) for the i-th
    pivot: the inverse of its value mod p; its position k among the rows not
    yet pivots, whose first row takes its place before it leaves; and the
    factor each remaining row, in that new order, was cleared with.
    """

    rank: int
    pivots: Tuple[Tuple[int, int], ...]
    ints: Tuple[Tuple[int, ...], ...]
    steps: tuple = ()

    @property
    def pivot_columns(self) -> Tuple[int, ...]:
        return tuple(c for _, c in self.pivots)


def _pack(values: Sequence[int], width: int) -> int:
    """One int holding values[j] in bits [j*width, (j+1)*width)."""
    x = 0
    for v in reversed(values):
        x = x << width | v
    return x


def row_reduce_mod(matrix: Sequence[Sequence[int]], p: int) -> Echelon:
    """Forward elimination of an integer matrix over the integers mod the
    prime p, with Gauss-Jordan's pivot policy (so the same rank and pivots
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


def satisfies(
    rows: Sequence[Sequence[int]],
    x: Sequence[Fraction],
    scales: Sequence[int],
    values: Sequence[Fraction],
) -> bool:
    """Whether (rows[i] / scales[i]) . x == values[i] holds exactly for
    every i, each row read over its first len(x) entries. With D the lcm of
    the denominators of x, the equation for row i is the integer identity
    sum_j rows[i][j] * (D * x_j) * den(v_i) == scales[i] * D * num(v_i)."""
    D = lcm(*(v.denominator for v in x))
    scaled = [v.numerator * (D // v.denominator) for v in x]
    # map stops after len(x) entries of each row
    return all(
        sum(map(mul, row, scaled)) * v.denominator == s * D * v.numerator
        for row, s, v in zip(rows, scales, values)
    )


class IntegerEchelon:
    """Fraction-free incremental row echelon form over Python ints.

    `add` takes the rows of a matrix A in order. A row is scaled by the lcm
    of its denominators (a row of ints is taken as it is, scale 1), its
    combination of the input rows starts as that scale on itself, and while
    its leading column c is the pivot column of a kept row u, with pivot
    p = u[c], a = v[c] and g = gcd(p, a), the row becomes (p/g) v - (a/g) u,
    and its combination likewise; then the gcd of the row's and the
    combination's entries is divided out of both.
    Entry c cancels and everything left of it stays zero (u is zero left of
    c), so the leading column moves right. A row with no entry left is
    rejected; otherwise it is kept, with its leading column as its pivot.

    Each step adds a multiple of a kept row, so the kept rows always span
    the rows added so far, and a row reduces to zero exactly when it lies
    in the span of the rows before it: the kept rows are the greedy
    independent rows I, and `accepted` their indices. Each kept row equals
    its combination of the input rows as given (the scale is part of the
    coefficient), which involves only rows of I. The kept rows are a basis
    of the row space with distinct leading columns, so their leading columns
    are the leading columns of the nonzero vectors of the row space: the
    pivot columns of the RREF, the leftmost independent columns of A, which
    `columns` lists in ascending order.

    A rejected row's combination sums the input rows to zero. Its
    coefficient on that row is its scale times the multipliers p/g, divided
    by contents that divide it, so it is nonzero. `add` keeps that
    combination as `dependency` until the next rejection replaces it.
    """

    def __init__(self):
        self.columns: List[int] = []  # pivot columns, ascending
        self.accepted: List[int] = []  # indices of the kept input rows
        # the combination of the last rejected row, which it sums to zero
        self.dependency: Optional[Dict[int, int]] = None
        # pivot column -> (kept row, {input row index: integer coefficient})
        self._kept: Dict[int, Tuple[List[int], Dict[int, int]]] = {}
        self._count = 0

    @property
    def rank(self) -> int:
        return len(self.columns)

    @property
    def rows(self) -> Tuple[List[int], ...]:
        """The kept integer rows, in pivot order."""
        return tuple(self._kept[c][0] for c in self.columns)

    def add(self, row: Sequence[Fraction]) -> bool:
        """Add the next input row; report whether it is independent of the
        rows before it (and so kept)."""
        index = self._count
        self._count += 1
        if {int}.issuperset(map(type, row)):
            scale, v = 1, list(row)
        else:
            scale = lcm(*(x.denominator for x in row))
            v = [x.numerator * (scale // x.denominator) for x in row]
        combination = {index: scale}
        c = next((j for j, x in enumerate(v) if x), None)
        while c is not None and c in self._kept:
            u, u_combination = self._kept[c]
            p, a = u[c], v[c]
            g = gcd(p, a)
            p, a = p // g, a // g
            # both rows are zero left of c, and entry c cancels
            tail = [p * x - a * y for x, y in zip(v[c + 1 :], u[c + 1 :])]
            for k in combination:
                combination[k] *= p
            for k, y in u_combination.items():
                combination[k] = combination.get(k, 0) - a * y
            content = gcd(*tail, *combination.values())
            if content != 1:
                tail = [x // content for x in tail]
                combination = {k: y // content for k, y in combination.items()}
            v = [0] * (c + 1) + tail
            c = next((j for j, x in enumerate(tail, c + 1) if x), None)
        if c is None:
            self.dependency = combination
            return False
        insort(self.columns, c)
        self.accepted.append(index)
        self._kept[c] = v, combination
        return True

    def weights(self, values: Sequence[int]) -> Tuple[List[int], int]:
        """The unique lambda supported on the kept rows with
        sum_r lambda_r A_r = values on the pivot columns (values[k] on
        columns[k]), as integer numerators over one positive denominator,
        a numerator for every row added.

        Substitution in pivot order: the kept rows of later pivots are zero
        at columns[k], each being zero left of its pivot, so after steps
        0..k-1 only the kept row of columns[k] still meets that column,
        and the multiple mu of it that clears the residual there is final:
        mu = a / p for the residual entry a and pivot p. When p does not
        divide a, the residual, the lambda so far and the denominator are
        first multiplied by |p| / gcd(p, a). mu times the kept row's
        combination joins lambda, which therefore lies on I.
        Unique: A restricted to I and the pivot columns is square, and
        nonsingular because A_I has full rank and its other columns depend
        on its pivot columns."""
        columns = self.columns
        residual = list(values)
        lam = [0] * self._count
        denominator = 1
        for k, c in enumerate(columns):
            a = residual[k]
            if not a:
                continue
            u, combination = self._kept[c]
            p = u[c]
            if a % p:
                q = abs(p) // gcd(p, a)
                residual = [x * q for x in residual]
                lam = [x * q for x in lam]
                denominator *= q
                a *= q
            mu = a // p
            for j in range(k + 1, len(columns)):
                x = u[columns[j]]
                if x:
                    residual[j] -= mu * x
            for r, y in combination.items():
                lam[r] += mu * y
        return lam, denominator

    def solution(self, values: Sequence[Fraction]) -> List[Fraction]:
        """`weights` for rational values, as Fractions: the values are
        brought to integers over their common denominator D, and each
        numerator goes over D times the weights' denominator."""
        D = lcm(*(v.denominator for v in values))
        lam, denominator = self.weights([v.numerator * (D // v.denominator) for v in values])
        D *= denominator
        return [Fraction(w, D) for w in lam]


def row_reduce(matrix: Sequence[Sequence[Fraction]]) -> IntegerEchelon:
    """The `IntegerEchelon` of a whole matrix, its rows added in order."""
    echelon = IntegerEchelon()
    for row in matrix:
        echelon.add(row)
    return echelon


def solution_set(
    matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> Tuple[Optional[List[Fraction]], List[List[Fraction]]]:
    """(x, kernel) for A x = b from one echelon of A's columns: the solution
    with free variables zero, or None when A x = b is inconsistent, and the
    basis of {x : A x = 0}, one vector per rejected column."""
    ncols = len(matrix[0]) if matrix else 0
    echelon = IntegerEchelon()
    kernel: List[List[Fraction]] = []
    for j, column in enumerate(zip(*matrix)):
        if not echelon.add(column):
            y = echelon.dependency
            kernel.append([Fraction(y.get(i, 0), y[j]) for i in range(ncols)])
    x = echelon.solution([rhs[i] for i in echelon.columns])
    scales = [lcm(*(v.denominator for v in row)) for row in matrix]
    rows = [[v.numerator * (s // v.denominator) for v in row] for row, s in zip(matrix, scales)]
    return (x if satisfies(rows, x, scales, rhs) else None), kernel


# names that bench/tracer.py wraps; nothing in the package calls them
def solve(matrix, rhs):
    return solution_set(matrix, rhs)[0]


def nullspace(matrix):
    return solution_set(matrix, [0] * len(matrix))[1]


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
