from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ppsn.linalg import (
    PRIMES,
    IncrementalRank,
    back_substitute,
    left_null_vector,
    nullspace,
    row_reduce,
    row_reduce_mod,
    solve,
)

F = Fraction

fractions_st = st.fractions(
    min_value=Fraction(-9), max_value=Fraction(9), max_denominator=5
)
wide_fractions_st = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=10**6
)


def matrices(max_rows=5, max_cols=5, entries=fractions_st):
    return st.integers(1, max_cols).flatmap(
        lambda c: st.lists(
            st.lists(entries, min_size=c, max_size=c), min_size=1, max_size=max_rows
        )
    )


def fraction_row_reduce(matrix):
    """Reference: rational Gauss-Jordan with the kernel's pivot policy."""
    m = [list(row) for row in matrix]
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


@st.composite
def rank_deficient_products(draw):
    """(rows x k) coefficients times a (k x cols) basis, k below both sizes."""
    nrows = draw(st.integers(2, 6))
    ncols = draw(st.integers(2, 6))
    k = draw(st.integers(1, min(nrows, ncols) - 1))
    coeffs = draw(st.lists(st.lists(fractions_st, min_size=k, max_size=k), min_size=nrows, max_size=nrows))
    basis = draw(
        st.lists(st.lists(wide_fractions_st, min_size=ncols, max_size=ncols), min_size=k, max_size=k)
    )
    return [
        [sum((a * b[j] for a, b in zip(row, basis)), F(0)) for j in range(ncols)]
        for row in coeffs
    ]


@st.composite
def with_zero_columns(draw):
    m = draw(matrices())
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(m[0])))
        m = [row[:at] + [F(0)] + row[at:] for row in m]
    return m


zero_matrices = st.tuples(st.integers(1, 5), st.integers(1, 5)).map(
    lambda shape: [[F(0)] * shape[1] for _ in range(shape[0])]
)


@settings(max_examples=200)
@given(
    st.one_of(
        matrices(6, 6, wide_fractions_st),
        rank_deficient_products(),
        with_zero_columns(),
        zero_matrices,
    )
)
@example([[F(0), F(2), F(1)], [F(0), F(0), F(3)], [F(5, 7), F(1), F(0)]])  # swap at column 0
@example([[F(0), F(0)], [F(1, 999999), F(1)], [F(2, 999999), F(2)]])  # swap, then rank 1
def test_row_reduce_matches_fraction_reference(m):
    ech = row_reduce(m)
    rank_, pivots, rows = fraction_row_reduce(m)
    assert ech.rank == rank_
    assert ech.pivots == pivots
    assert ech.rows == rows
    assert all(type(v) is Fraction for row in ech.rows for v in row)


def test_rank_examples():
    assert row_reduce([[F(1), F(2)], [F(2), F(4)]]).rank == 1
    assert row_reduce([[F(1), F(0)], [F(0), F(1)]]).rank == 2
    assert row_reduce([[F(0), F(0)]]).rank == 0


def test_row_reduce_pivots_are_leftmost():
    ech = row_reduce([[F(0), F(1), F(1)], [F(1), F(0), F(2)]])
    assert ech.pivot_columns == (0, 1)
    assert ech.rank == 2


def test_solve_consistent_and_inconsistent():
    sol = solve([[F(1), F(1)], [F(1), F(-1)]], [F(3), F(1)])
    assert sol == [F(2), F(1)]
    assert solve([[F(1), F(1)], [F(2), F(2)]], [F(1), F(3)]) is None


@settings(max_examples=60)
@given(matrices())
def test_nullspace_vectors_annihilate(m):
    for v in nullspace(m):
        for row in m:
            assert sum(a * b for a, b in zip(row, v)) == 0
    assert len(nullspace(m)) == len(m[0]) - row_reduce(m).rank


@settings(max_examples=60)
@given(matrices())
def test_left_null_vector_annihilates(m):
    v = left_null_vector(m)
    if v is None:
        # full row rank: the rows are independent
        assert row_reduce(m).rank == len(m)
        return
    assert any(c != 0 for c in v)
    ncols = len(m[0])
    for j in range(ncols):
        assert sum(v[i] * m[i][j] for i in range(len(m))) == 0


@settings(max_examples=60)
@given(matrices())
def test_incremental_rank_agrees_with_batch_rank(m):
    tracker = IncrementalRank()
    accepted = []
    for row in m:
        if tracker.add(row):
            accepted.append(row)
    assert tracker.rank == row_reduce(m).rank
    if accepted:
        assert row_reduce(accepted).rank == len(accepted)


integer_matrices = st.integers(1, 5).flatmap(
    lambda c: st.lists(st.lists(st.integers(-4, 4), min_size=c, max_size=c), min_size=1, max_size=6)
)


@settings(max_examples=100)
@given(integer_matrices)
@example([[2, 1], [4, 2], [1, 3]])
def test_incremental_rank_int_rows_match_fraction_rows(m):
    ints, fracs = IncrementalRank(), IncrementalRank()
    assert [ints.add(row) for row in m] == [fracs.add([F(v) for v in row]) for row in m]
    assert ints._basis == fracs._basis
    assert all(type(v) is Fraction for _, row in ints._basis for v in row)


class RREFIncrementalRank:
    """Reference: `IncrementalRank` with its basis kept in RREF, clearing
    each new pivot column from every stored row."""

    def __init__(self):
        self.basis = []

    def add(self, row):
        v = list(row)
        for c, b in self.basis:
            if v[c] != 0:
                f = v[c]
                v = [a - f * bb for a, bb in zip(v, b)]
        c = next((i for i, val in enumerate(v) if val != 0), None)
        if c is None:
            return False
        inv = F(1) / v[c]
        v = [val * inv for val in v]
        for idx, (pc, b) in enumerate(self.basis):
            if b[c] != 0:
                f = b[c]
                self.basis[idx] = (pc, [a - f * vv for a, vv in zip(b, v)])
        self.basis.append((c, v))
        return True


@st.composite
def candidate_streams(draw):
    """Rows offered one by one: fresh rows, combinations of the rows drawn
    before (the zero row when there are none) and rows whose leading
    entries are zero."""
    ncols = draw(st.integers(1, 6))
    rows = []
    for _ in range(draw(st.integers(1, 9))):
        kind = draw(st.sampled_from(("fresh", "dependent", "zero_lead")))
        if kind == "dependent":
            coeffs = draw(st.lists(fractions_st, min_size=len(rows), max_size=len(rows)))
            row = [sum((a * r[j] for a, r in zip(coeffs, rows)), F(0)) for j in range(ncols)]
        else:
            row = draw(st.lists(fractions_st, min_size=ncols, max_size=ncols))
            if kind == "zero_lead":
                k = draw(st.integers(1, ncols))
                row = [F(0)] * k + row[k:]
        rows.append(row)
    return rows


def _rank(rows, width):
    return row_reduce([r[:width] for r in rows]).rank if rows else 0


@settings(max_examples=150)
@given(candidate_streams())
@example([[F(0), F(1)], [F(1), F(0)], [F(1), F(1)]])
@example([[F(1), F(2), F(3)], [F(0), F(0), F(1)], [F(2), F(4), F(7)], [F(0), F(1), F(0)]])
def test_incremental_rank_matches_greedy_definition_and_rref_basis(rows):
    ncols = len(rows[0])
    tracker, reference = IncrementalRank(), RREFIncrementalRank()
    verdicts = [tracker.add(row) for row in rows]
    assert verdicts == [reference.add(row) for row in rows]
    pivots = [c for c, _ in tracker._basis]
    assert pivots == [c for c, _ in reference.basis]
    # greedy: a row is accepted iff it raises the rank of the rows kept so far,
    # and its pivot is the first column j at which rows[:j+1] gain rank
    kept = []
    for row, accepted in zip(rows, verdicts):
        assert accepted == (_rank(kept + [row], ncols) > len(kept))
        if accepted:
            c = next(j for j in range(ncols) if _rank(kept + [row], j + 1) > _rank(kept, j + 1))
            assert c == pivots[len(kept)]
            kept.append(row)
    assert tracker.rank == len(kept) == row_reduce(rows).rank


@settings(max_examples=60)
@given(matrices())
def test_solve_solution_satisfies_system(m):
    b = [sum(row) for row in m]  # rhs in the column space by construction
    sol = solve(m, b)
    assert sol is not None
    for row, target in zip(m, b):
        assert sum(a * x for a, x in zip(row, sol)) == target


@settings(max_examples=60)
@given(st.one_of(matrices(5, 5, wide_fractions_st), rank_deficient_products(), with_zero_columns()))
def test_echelon_column_is_the_column_of_rows(m):
    ech = row_reduce(m)
    for j in range(len(m[0])):
        assert ech.column(j) == [row[j] for row in ech.rows]
        assert all(type(v) is Fraction for v in ech.column(j))
    ints = [[v.numerator * 3 for v in row] for row in m]
    p = PRIMES[0]
    mod = row_reduce_mod(ints, p)
    # the rank nonzero rows of an echelon form, each 0 left of its pivot and 1 at it
    assert len(mod.ints) == len(mod.rows) == mod.rank
    for row, c in zip(mod.ints, mod.pivot_columns):
        assert row[:c] == (0,) * c and row[c] == 1
    for j in range(len(m[0])):
        assert mod.column(j) == [row[j] for row in mod.rows]
        assert all(type(v) is int and 0 <= v < p for v in mod.column(j))


# -- packed-row elimination mod p against list-based kernels ---------------------


def list_row_reduce_mod(matrix, p):
    """Reference: list-based Gauss-Jordan mod p, with one reduction per
    entry per row operation. Its rank and pivots are those of any
    elimination with the same pivot policy, and the last column of its RREF
    is the solution of a square system."""
    m = [[v % p for v in row] for row in matrix]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    origin = list(range(nrows))
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        origin[r], origin[pr] = origin[pr], origin[r]
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
    return r, tuple(pivots), tuple(map(tuple, m))


def list_forward_reduce_mod(matrix, p):
    """Reference: list-based forward elimination mod p with the same pivot
    policy, clearing only below each pivot row scaled to 1. Returns the
    pivot rows, the row echelon form that `row_reduce_mod` keeps."""
    m = [[v % p for v in row] for row in matrix]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = pow(m[r][c], -1, p)
        m[r][c:] = [a * inv % p for a in m[r][c:]]
        for i in range(r + 1, nrows):
            f = m[i][c]
            if f:
                m[i][c:] = [(a - f * b) % p for a, b in zip(m[i][c:], m[r][c:])]
        r += 1
        if r == nrows:
            break
    return tuple(map(tuple, m[:r]))


def assert_matches_list_kernels(m, p):
    ech = row_reduce_mod(m, p)
    rank, pivots, _ = list_row_reduce_mod(m, p)
    assert (ech.rank, ech.pivots) == (rank, pivots)
    assert ech.ints == list_forward_reduce_mod(m, p)
    return ech


SMALL_PRIMES = (2, 3, 5, 7)


@st.composite
def matrices_mod(draw):
    """(matrix, p): up to 14 x 15 integer matrices of every shape, including
    the augmented N x (N+1) one, with zero and repeated rows, and entries up
    to 2^70 in size or near multiples of p."""
    p = draw(st.sampled_from(PRIMES + SMALL_PRIMES))
    nrows = draw(st.integers(1, 14))
    ncols = draw(st.one_of(st.integers(1, 15), st.just(nrows), st.just(nrows + 1)))
    entries = st.one_of(
        st.integers(-(2**70), 2**70),
        st.integers(-3, 3),
        st.integers(-3, 3).map(lambda k: k * p + (p - 1) * (k % 2)),
    )
    m = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), min_size=1, max_size=nrows))
    for _ in range(draw(st.integers(0, 14 - len(m)))):
        row = draw(st.one_of(st.just([0] * ncols), st.sampled_from(m)))
        m.insert(draw(st.integers(0, len(m))), list(row))
    return m, p


def near_bound_matrix(nrows, ncols):
    """Entry (i, j) is -1 - j left of the diagonal and 1 - i from it on. Every
    pivot is 1 with a tail of ones, and each row below the pivot has -1 in
    its column, so row i takes i additions of (p - 1)^2 in every slot from
    column i - 1 on before it becomes a pivot row: the last row's trailing
    slots end just below p + (nrows - 1)(p - 1)^2."""
    return [[-1 - j if j < i else 1 - i for j in range(ncols)] for i in range(nrows)]


@settings(max_examples=300)
@given(matrices_mod())
@example(([[0] * 5] * 3, PRIMES[0]))
@example(([[2**70, -(2**70), 1]] * 4, PRIMES[2]))
@example(([[1, 2, 3], [2, 4, 6], [0, 0, 1]], 2))
def test_row_reduce_mod_matches_list_kernel(case):
    assert_matches_list_kernels(*case)


@pytest.mark.parametrize("p", PRIMES + SMALL_PRIMES)
@pytest.mark.parametrize("shape", [(14, 14), (14, 15), (9, 15), (14, 3)])
def test_row_reduce_mod_near_the_slot_bound(p, shape):
    ech = assert_matches_list_kernels(near_bound_matrix(*shape), p)
    assert ech.rank == min(shape)  # every pivot is 1 over the integers


@st.composite
def full_rank_systems(draw):
    """(matrix, p): an N x (N+1) integer matrix [A | b] with A nonsingular
    mod p, drawn as A = P L U mod p (row permutation P, unit lower
    triangular L, upper triangular U with a nonzero diagonal), which reaches
    every nonsingular A, with up to 2^40 times p added to entries."""
    p = draw(st.sampled_from(PRIMES + SMALL_PRIMES))
    n = draw(st.integers(1, 12))
    residues = st.integers(0, p - 1)
    lower = [[1 if i == j else draw(residues) if j < i else 0 for j in range(n)] for i in range(n)]
    upper = [
        [draw(st.integers(1, p - 1)) if i == j else draw(residues) if j > i else 0 for j in range(n)]
        for i in range(n)
    ]
    a = [[sum(lower[i][k] * upper[k][j] for k in range(n)) % p for j in range(n)] for i in range(n)]
    a = [row + [draw(residues)] for row in draw(st.permutations(a))]
    lift = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-(2**40), 2**40))
    return [[v + p * draw(lift) for v in row] for row in a], p


@settings(max_examples=200)
@given(full_rank_systems())
@example(([[0, 1, 5], [1, 0, 6]], 2))
def test_back_substitution_is_the_rref_solution_column(case):
    m, p = case
    n = len(m)
    ech = row_reduce_mod(m, p)
    assert ech.pivot_columns == tuple(range(n))
    _, _, rref = list_row_reduce_mod(m, p)
    assert back_substitute(ech.ints, p) == [row[n] for row in rref]
