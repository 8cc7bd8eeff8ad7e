"""Test-only references, independent of `ppsn.linalg`'s integer echelon:
fraction-free Gauss-Jordan (Bareiss) that rescales every row at every step,
with a solve that eliminates [A | b] afresh; and plain rational
Gauss-Jordan on Fractions, with the RREF kernel basis it gives."""

from fractions import Fraction
from math import lcm


def eager_row_reduce(matrix):
    """(rank, pivots, integer rows, denominator) of the RREF."""
    m = []
    for row in matrix:
        scale = lcm(*(v.denominator for v in row))
        m.append([v.numerator * (scale // v.denominator) for v in row])
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    origin = list(range(nrows))
    pivots = []
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
    return r, tuple(pivots), tuple(map(tuple, m)), prev


def eager_solve(matrix, rhs):
    """One solution of A x = b, free variables zero, read off the RREF of
    [A | b]; None when a pivot lands in the b column."""
    if not matrix:
        return []
    ncols = len(matrix[0])
    _, pivots, ints, d = eager_row_reduce(
        [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    )
    if any(c == ncols for _, c in pivots):
        return None
    x = [Fraction(0)] * ncols
    for (_, c), row in zip(pivots, ints):
        x[c] = Fraction(row[ncols], d)
    return x


def fraction_row_reduce(matrix):
    """(rank, pivots, RREF rows): rational Gauss-Jordan on Fractions with the
    kernels' pivot policy."""
    m = [[Fraction(v) for v in row] for row in matrix]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    origin = list(range(nrows))
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        origin[r], origin[pr] = origin[pr], origin[r]
        inv = 1 / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append((origin[r], c))
        r += 1
        if r == nrows:
            break
    return r, tuple(pivots), tuple(tuple(row) for row in m)


def fraction_nullspace(matrix):
    """The RREF basis of the right kernel: for each free column, 1 there
    and minus that column of the RREF at the pivot columns."""
    ncols = len(matrix[0]) if matrix else 0
    _, pivots, rows = fraction_row_reduce(matrix)
    columns = [c for _, c in pivots]
    basis = []
    for free in range(ncols):
        if free in columns:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for c, row in zip(columns, rows):
            v[c] = -row[free]
        basis.append(v)
    return basis
