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
as in Kronecker substitution. Each row is one Python int with one 64-bit
slot per column, packed and unpacked by `struct` in C, a row operation is
one big-int multiply-add of the negated pivot row, and a slot is reduced
mod p only when it is read. Slots stay nonnegative and below
p + r*(p-1)^2 for a matrix of rank r, and every prime in `PRIMES` has
(MAX_MONOMIALS + 1)*(p-1)^2 + p < 2^64, so for any matrix inside the dense
budget no borrow or carry ever crosses a slot (the function gives the
argument). That bound puts the primes just below 2^26. The row operations,
and so the pivots and the echelon residues, are those of an entry-by-entry
elimination mod p. It clears only below each pivot and returns the pivot
rows of a row echelon form, not the RREF, because no caller needs more.
The pivot search reads only the rows below the pivots found so far, so
clearing above them changes neither the pivots nor the rank.

`row_reduce_mod` also records its steps: each pivot's inverse, its
position among the remaining rows and the factor of every row it clears.
They factor the matrix as P^T L U, so one elimination solves every
right-hand side mod p after it, in O(N^2): `solve_transposed` solves
A x = b from the echelon of A^T, and `solve_columns` solves M z = r over
the first f pivot columns of the eliminated matrix M itself, or reports
that r is not in their span. Their answers are used only where they need
no trust:

* A rank of N mod p for an integer N x N matrix is a certificate of
  nonsingularity over Q. The determinant is an integer, and the elimination
  mod p shows that it is nonzero mod p, so it is nonzero. A rank below N
  proves nothing: p may divide the determinant of a nonsingular matrix.
  Callers then try the next prime and, after the last, the exact path.
* A solution mod p is the first p-adic digit of the rational solution.
  `lift` finds the next digits from the same factorization (Dixon, Numer.
  Math. 40, 1982): solve mod p, subtract the digit's image from the exact
  integer residual and divide it by p, which is exact. At k = 1, 2, 4, ...
  digits, `rational_reconstruct` turns the residues mod p^k into the
  unique small fractions congruent to them, if they exist (Wang, Guy &
  Davenport, SIGSAM Bull. 16(2), 1982), and the guess is accepted only
  after an exact check over Q (`satisfies`). Once p^k passes twice the
  square of a Hadamard bound on the answer's numerators and denominators,
  reconstruction cannot miss, and a lift that has still found nothing
  returns None: the caller then takes the exact path.
"""

from __future__ import annotations

import struct
from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import mul
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

Row = List[Fraction]

# Primes below the 64-bit slot bound of `row_reduce_mod`,
# (MAX_MONOMIALS + 1)*(p-1)^2 + p < 2^64 with MAX_MONOMIALS = 2^12, which
# lies at 2^26 - 8190 (deterministic Miller-Rabin), all apart from the
# benchmark oracle's 2^61 - 1, so the rank checks share no blind spot. The
# first that leaves a matrix nonsingular is lifted; the others are there
# for the rare matrix that it leaves singular.
PRIMES = (2**26 - 8195, 2**26 - 8205, 2**26 - 8211)

_SLOT = 64
_MASK = (1 << _SLOT) - 1


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


def _pack(values: Sequence[int]) -> int:
    """One int holding values[j], each in [0, 2^64), in bits [64j, 64j + 64)."""
    return int.from_bytes(struct.pack(f"<{len(values)}Q", *values), "little")


def _unpack(x: int, count: int) -> Tuple[int, ...]:
    """The first `count` 64-bit slots of x, the inverse of `_pack`."""
    return struct.unpack(f"<{count}Q", x.to_bytes(8 * count, "little"))


def row_reduce_mod(matrix: Sequence[Sequence[int]], p: int) -> Echelon:
    """Forward elimination of an integer matrix over the integers mod the
    prime p, with Gauss-Jordan's pivot policy (so the same rank and pivots
    as Gauss-Jordan mod p), each pivot scaled to 1 and nothing cleared
    above it. `ints` holds the pivot rows of the row echelon form and
    `steps` the row operations that made them.

    Each row is one packed int (`_pack`), one 64-bit slot per column from
    the current one on: column c is the lowest slot, and each step drops
    it. A slot is reduced mod p only when it is read: the pivot search, the
    factor f and the pivot tail. The pivot row leaves the packed rows once
    its tail is unpacked and scaled. Eliminating with it adds f times its
    negation, whose slots are p - b_j (0 for 0), to each row below whose
    column-c slot is f mod p: one big-int multiply-add, and slot c becomes
    a multiple of p. Slots never go negative, so nothing borrows. A row
    starts reduced and takes at most one addition of at most (p-1)^2 per
    pivot, and there are at most r = min(rows, columns) pivots, so every
    slot stays below p + r*(p-1)^2, which must be below 2^64 (ValueError
    otherwise; it holds for every prime in `PRIMES` and every matrix
    inside the dense budget), and nothing carries into the next slot. The
    rows below the last pivot are never unpacked."""
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    if p + min(nrows, ncols) * (p - 1) ** 2 >= 1 << _SLOT:
        raise ValueError(f"a {nrows} x {ncols} matrix mod {p} overflows a 64-bit slot")
    m = [_pack([v % p for v in row]) for row in matrix]
    origin = list(range(nrows))
    pivots: List[Tuple[int, int]] = []
    ints: List[Tuple[int, ...]] = []
    steps = []
    for c in range(ncols):
        slots = [(x & _MASK) % p for x in m]
        k = next((i for i, f in enumerate(slots) if f), None)
        if k is None:
            m = [x >> _SLOT for x in m]
            continue
        # swap the pivot row with the first remaining row, as Gauss-Jordan
        # does, so later pivot searches see the rows in the same order
        x, o = m[k], origin[k]
        inv = pow(slots[k], -1, p)
        m[k], slots[k], origin[k] = m[0], slots[0], origin[0]
        del m[0], slots[0], origin[0]
        tail = [v * inv % p for v in _unpack(x, ncols - c)]
        ints.append((0,) * c + tuple(tail))
        pivots.append((o, c))
        steps.append((inv, k, tuple(slots)))
        neg = _pack([p - a if a else 0 for a in tail])
        m = [(x + f * neg) >> _SLOT if f else x >> _SLOT for x, f in zip(m, slots)]
        if not m:
            break
    return Echelon(rank=len(pivots), pivots=tuple(pivots), ints=tuple(ints), steps=tuple(steps))


def back_substitute(rows: Sequence[Sequence[int]], rhs: Sequence[int], p: int) -> List[int]:
    """The solution mod p of the square system whose first n = len(rhs)
    `row_reduce_mod` echelon rows are given, each with its pivot in its own
    column: row i is x_i + sum_{i<j<n} rows[i][j] * x_j = rhs[i], solved
    from the last row up."""
    n = len(rhs)
    x = [0] * n
    for i in range(n - 1, -1, -1):
        x[i] = (rhs[i] - sum(map(mul, rows[i][i + 1 : n], x[i + 1 :]))) % p
    return x


def solve_columns(ech: Echelon, r: Sequence[int], p: int, f: int) -> Optional[List[int]]:
    """The z with sum_{j<f} z_j M[:, j] = r mod p, for the matrix M that
    `ech` eliminated, whose first f pivots lie in columns 0..f-1; None when
    r is not in the span of those columns mod p.

    The first f steps read only columns 0..f-1, so applied to r as to one
    more column they turn [M_{<f} | r] into its row echelon form: the f
    pivot rows end in the right-hand side of `back_substitute`, and every
    other row is zero left of r, so r lies in the span exactly when those
    rows end in 0."""
    rem = [v % p for v in r]
    rhs = []
    for inv, k, factors in ech.steps[:f]:
        v = rem[k] * inv % p
        rem[k] = rem[0]
        del rem[0]
        rhs.append(v)
        if v:
            rem = [(a - g * v) % p for a, g in zip(rem, factors)]
    if any(rem):
        return None
    return back_substitute(ech.ints, rhs, p)


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


def rational_reconstruct(u: int, M: int) -> Optional[Fraction]:
    """The fraction a/b in lowest terms with a = b*u (mod M), b invertible
    mod M, |a| <= sqrt(M/2) and 0 < b <= sqrt(M/2), or None when there is
    none. `lift` asks for it with M = p^k for a prime p, where b invertible
    means p does not divide b: the fraction is then one whose p-adic
    expansion begins with the k digits of u. Once p^k exceeds twice the
    square of the numerators and denominators of the rational solution
    being lifted, that solution is the fraction returned; before, the
    result may be None or another, smaller fraction, which is why `lift`
    checks every guess.

    Such a fraction is unique (2|a|b < M), and the half-extended Euclidean
    algorithm on (M, u) finds it as the first remainder r within the bound
    over its cofactor t, where r = t*u (mod M) (Wang, Guy & Davenport). The
    cofactors s, t of r = s*M + t*u are coprime, so gcd(r, t) = gcd(M, t).
    For a prime M it is 1; otherwise a common factor, a power of p when
    M = p^k, means that no fraction in range exists (r/t in lowest terms is
    then not congruent to u), so rejecting it is what keeps the result
    unique. With gcd(r, t) = 1, t is invertible mod M."""
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


def hadamard_bits(rows: Iterable[Sequence[int]]) -> int:
    """An upper bound on log2 of prod_i max(1, ||rows[i]||_2), and so, by
    Hadamard's inequality, on |det| of every square submatrix of these
    integer rows: a submatrix's row is no longer than the row it comes
    from, and a norm is at most sqrt(len) times 2 to the row's largest bit
    length."""
    twice = sum(2 * max(map(int.bit_length, row)) + len(row).bit_length() for row in rows)
    return (twice + 1) // 2


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


def lift(
    rows: Sequence[Sequence[int]],
    b: Sequence[int],
    p: int,
    solve: Callable[[Sequence[int]], Optional[List[int]]],
    bound_rows: Iterable[Sequence[int]],
) -> Optional[List[Fraction]]:
    """The rational x with rows[i] . x = b[i] exactly for every i, each row
    read over its first len(x) entries, by p-adic lifting (Dixon, Numer.
    Math. 40, 1982) from one factorization mod p: `solve(r)` is the one y
    with rows . y = r mod p, or None when there is none. None when no x is
    found.

    With r_0 = b, each digit y_k = solve(r_k) makes r_k - rows . y_k zero
    mod p, so r_{k+1} = (r_k - rows . y_k) / p is exact, and
    x_k = sum_{i<k} p^i y_i satisfies rows . x_k = b - p^k r_k: x_k is x mod
    p^k whenever x exists with denominators prime to p. At k = 1, 2, 4, ...
    digits and at the last, each entry of x_k is rebuilt by
    `rational_reconstruct` mod p^k, and the guess is returned only if
    `satisfies` accepts it. With bits the `hadamard_bits` of `bound_rows`,
    which must bound log2 of x's numerators and denominators (it is read
    only if the first guess fails), the last digit is the first k with
    p^k > 2^(2 bits + 1): reconstruction then recovers x if it exists. A
    solve with no answer ends the lift early."""
    r = list(b)
    x: List[int] = []
    limit = None
    pk, k = 1, 0
    while True:
        y = solve(r)
        if y is None:
            return None
        x = [u + pk * v for u, v in zip(x, y)] if x else y
        pk *= p
        k += 1
        if limit is None or pk > limit or not k & (k - 1):
            guess = _reconstruct_all(x, pk)
            if guess is not None and satisfies(rows, guess, [1] * len(rows), b):
                return guess
            if limit is None:
                limit = 1 << (2 * hadamard_bits(bound_rows) + 1)
            if pk > limit:
                return None
        r = [(v - sum(map(mul, row, y))) // p for v, row in zip(r, rows)]


def _reconstruct_all(residues: Sequence[int], M: int) -> Optional[List[Fraction]]:
    """`rational_reconstruct` of every residue mod M, or None at the first
    that has no fraction in range. Equal residues share one Fraction, which
    keeps what a caller stores small.

    Most entries of a solution share most of one denominator, so each
    residue u is first tried against the lcm d of the denominators found so
    far, as IML does (Chen & Storjohann, ISSAC 2005): if d and the centred
    w = d*u mod M are both within sqrt(M/2), w/d in lowest terms is a
    fraction in range congruent to u (d is invertible mod M), so it is the
    unique one that `rational_reconstruct` would find, with no Euclidean
    steps."""
    half = M // 2
    bound = isqrt(half)
    d = 1
    seen: Dict[int, Fraction] = {}
    out = []
    for u in residues:
        v = seen.get(u)
        if v is None:
            w = d * u % M
            if w > half:
                w -= M
            if abs(w) <= bound and d <= bound:
                v = Fraction(w, d)
            else:
                v = rational_reconstruct(u, M)
                if v is None:
                    return None
                d = lcm(d, v.denominator)
            seen[u] = v
        out.append(v)
    return out


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
