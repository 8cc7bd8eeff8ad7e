from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import NO_SHRINK
from eager_bareiss import eager_solve, fraction_nullspace, fraction_row_reduce
from ppsn.linalg import (
    PRIMES,
    IncrementalRank,
    IntegerEchelon,
    back_substitute,
    nullspace,
    row_reduce,
    row_reduce_mod,
    satisfies,
    solution_set,
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


@settings(max_examples=200, phases=NO_SHRINK)
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
    assert tuple(ech.columns) == tuple(c for _, c in pivots)
    # the kept integer rows span the row space: their RREF is the matrix's
    assert all(type(v) is int for row in ech.rows for v in row)
    assert fraction_row_reduce(ech.rows)[2] == rows[:rank_]


def test_rank_examples():
    assert row_reduce([[F(1), F(2)], [F(2), F(4)]]).rank == 1
    assert row_reduce([[F(1), F(0)], [F(0), F(1)]]).rank == 2
    assert row_reduce([[F(0), F(0)]]).rank == 0


def test_row_reduce_pivots_are_leftmost():
    ech = row_reduce([[F(0), F(1), F(1)], [F(1), F(0), F(2)]])
    assert ech.columns == [0, 1]
    assert ech.rank == 2


def test_solve_consistent_and_inconsistent():
    a, b = [[F(1), F(1)], [F(1), F(-1)]], [F(3), F(1)]
    assert solution_set(a, b) == ([F(2), F(1)], [])
    assert (solve(a, b), nullspace(a)) == solution_set(a, b)
    a, b = [[F(1), F(1)], [F(2), F(2)]], [F(1), F(3)]
    assert solution_set(a, b) == (None, [[F(-1), F(1)]])
    assert (solve(a, b), nullspace(a)) == solution_set(a, b)


@settings(max_examples=60)
@given(matrices())
def test_nullspace_vectors_annihilate(m):
    x, kernel = solution_set(m, [0] * len(m))
    assert x == [0] * len(m[0])
    for v in kernel:
        for row in m:
            assert sum(a * b for a, b in zip(row, v)) == 0
    assert len(kernel) == len(m[0]) - fraction_row_reduce(m)[0]


@settings(max_examples=60)
@given(matrices())
def test_left_null_vector_annihilates(m):
    # the dependency of the first row the echelon rejects
    echelon = IntegerEchelon()
    f = next((i for i, row in enumerate(m) if not echelon.add(row)), None)
    if f is None:
        # full row rank: the rows are independent
        assert fraction_row_reduce(m)[0] == len(m)
        return
    y = echelon.dependency
    assert y[f] and set(y) <= set(echelon.accepted) | {f}
    for j in range(len(m[0])):
        assert sum(c * m[i][j] for i, c in y.items()) == 0


@settings(max_examples=60)
@given(matrices())
def test_incremental_rank_agrees_with_batch_rank(m):
    tracker = IncrementalRank()
    accepted = []
    for row in m:
        if tracker.add(row):
            accepted.append(row)
    assert tracker.rank == fraction_row_reduce(m)[0]
    if accepted:
        assert fraction_row_reduce(accepted)[0] == len(accepted)


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
    return fraction_row_reduce([r[:width] for r in rows])[0] if rows else 0


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
    assert tracker.rank == len(kept) == fraction_row_reduce(rows)[0]


@settings(max_examples=100, phases=NO_SHRINK)
@given(candidate_streams())
@example([[F(0), F(1)], [F(1), F(0)], [F(1), F(1)]])
@example([[F(1), F(2), F(3)], [F(0), F(0), F(1)], [F(2), F(4), F(7)], [F(0), F(1), F(0)]])
@example([[F(0), F(2)], [F(0), F(4)], [F(3), F(0)]])  # Gauss-Jordan's pivot rows are 2 and 1
def test_integer_echelon_keeps_the_greedy_rows_as_their_combinations(rows):
    ncols = len(rows[0])
    echelon = IntegerEchelon()
    verdicts = [echelon.add(row) for row in rows]
    # the accepted rows are the greedy independent rows
    kept = []
    for row, accepted in zip(rows, verdicts):
        assert accepted == (_rank(kept + [row], ncols) > len(kept))
        if accepted:
            kept.append(row)
    assert echelon.accepted == [r for r, accepted in enumerate(verdicts) if accepted]
    # the pivots are the leftmost independent columns
    assert tuple(echelon.columns) == tuple(c for _, c in fraction_row_reduce(rows)[1])
    assert echelon.rank == len(kept)
    # each kept row is an integer row, zero left of its pivot, and equal to its
    # integer combination of the accepted input rows
    assert sorted(echelon._kept) == echelon.columns
    for c, (row, combination) in echelon._kept.items():
        assert row[c] and not any(row[:c])
        assert set(combination) <= set(echelon.accepted)
        assert all(type(x) is int for x in row + list(combination.values()))
        assert row == [sum(y * rows[r][j] for r, y in combination.items()) for j in range(ncols)]


@settings(max_examples=60)
@given(
    st.integers(1, 5).flatmap(
        lambda ncols: st.lists(
            st.lists(st.integers(-4, 4), min_size=ncols, max_size=ncols), min_size=1, max_size=6
        )
    ),
    st.lists(st.integers(-9, 9), min_size=6, max_size=6),
)
@example([[0, 2], [0, 4], [3, 0]], [5, 7, 0, 0, 0, 0])
def test_integer_echelon_takes_an_int_row_as_its_fraction_copy(rows, values):
    ints, fractions = IntegerEchelon(), IntegerEchelon()
    for row in rows:
        assert ints.add(row) == fractions.add([F(x) for x in row])
        assert ints.dependency == fractions.dependency
    assert (ints.columns, ints.rows) == (fractions.columns, fractions.rows)
    b = values[: ints.rank]
    assert ints.weights(b) == fractions.weights(b)
    # an int row is copied, so the caller's list is never kept
    assert not any(kept is row for kept in ints.rows for row in rows)


@settings(max_examples=100, phases=NO_SHRINK)
@given(candidate_streams(), st.lists(st.integers(-20, 20), min_size=6, max_size=6))
@example([[F(3), F(1)], [F(0), F(2)]], [1, 1, 0, 0, 0, 0])  # pivots divide no entry
@example([[F(0), F(2)], [F(0), F(4)], [F(3), F(0)]], [5, 7, 0, 0, 0, 0])
def test_integer_echelon_weights_are_the_solve_of_the_transposed_selected_block(rows, values):
    echelon = row_reduce(rows)
    b = values[: echelon.rank]
    lam, denominator = echelon.weights(b)
    assert denominator > 0 and len(lam) == len(rows)
    if not echelon.columns:
        assert lam == [0] * len(rows)
        return
    system = [[row[c] for row in rows] for c in echelon.columns]
    assert [F(x, denominator) for x in lam] == eager_solve(system, [F(v) for v in b])


@settings(max_examples=60)
@given(matrices())
def test_solve_solution_satisfies_system(m):
    b = [sum(row) for row in m]  # rhs in the column space by construction
    sol = solution_set(m, b)[0]
    assert sol is not None
    for row, target in zip(m, b):
        assert sum(a * x for a, x in zip(row, sol)) == target


# -- solution sets and the first dependency against Fraction references ----------


@st.composite
def sparse_matrices(draw):
    """Mostly zero entries, so that most rows reduce at few columns;
    sometimes one row the sum of two others."""
    nrows = draw(st.integers(1, 7))
    ncols = draw(st.integers(1, 7))
    entry = st.one_of(st.just(F(0)), st.just(F(0)), st.just(F(0)), fractions_st)
    m = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows))
    if nrows > 2 and draw(st.booleans()):
        m[-1] = [a + b for a, b in zip(m[0], m[1])]
    return m


any_matrices = st.one_of(
    matrices(6, 6, wide_fractions_st),
    sparse_matrices(),
    rank_deficient_products(),
    with_zero_columns(),
    zero_matrices,
)

@st.composite
def systems(draw):
    """(A, b): b = A x for a random x, or a random b, which is mostly
    inconsistent when A is rank deficient."""
    m = draw(any_matrices)
    if draw(st.booleans()):
        x = draw(st.lists(fractions_st, min_size=len(m[0]), max_size=len(m[0])))
        b = [sum((a * v for a, v in zip(row, x)), F(0)) for row in m]
    else:
        b = draw(st.lists(st.one_of(st.just(0), fractions_st), min_size=len(m), max_size=len(m)))
    return m, b


@settings(max_examples=200)
@given(systems())
@example(([[F(2), F(1), F(0)], [F(2), F(1), F(5)], [F(0), F(3), F(1)]], [F(1), F(-2, 3), F(5)]))
@example(([[F(0), F(2), F(1)], [F(0), F(0), F(3)], [F(5, 7), F(1), F(0)]], [F(1), F(2), F(3)]))
@example(([[F(1), F(2)], [F(2), F(4)]], [F(1), F(3)]))  # inconsistent
@example(([[F(0)], [F(0)]], [0, F(1, 2)]))  # inconsistent on a zero column
def test_solve_is_a_fresh_elimination_of_the_augmented_matrix(case):
    m, b = case
    assert solution_set(m, b)[0] == eager_solve(m, b)


@st.composite
def mixed_systems(draw):
    """(A, b) as `systems` draws them, consistent, inconsistent or rank
    deficient, with each integral entry of A and b an int half the time."""
    m, b = draw(systems())

    def mix(v):
        return int(v) if F(v).denominator == 1 and draw(st.booleans()) else v

    return [[mix(v) for v in row] for row in m], [mix(v) for v in b]


@settings(max_examples=200, phases=NO_SHRINK)
@given(mixed_systems())
@example(([], []))  # no rows: the empty solution and the identity basis on no columns
@example(([[F(0), 1], [F(0), F(2)]], [F(1), 2]))  # a zero column, and dependent rows
@example(([[1, F(1, 2)], [2, 1], [0, 3]], [F(1), 2, 0]))  # inconsistent
def test_solve_nullspace_and_first_dependency_match_the_fraction_rref(case):
    m, b = case
    ncols = len(m[0]) if m else 0
    # the solution: the RREF of [A | b], free variables zero, None past a pivot in b
    _, pivots, rref = fraction_row_reduce([list(row) + [v] for row, v in zip(m, b)])
    expected = None
    if all(c < ncols for _, c in pivots):
        expected = [F(0)] * ncols
        for (_, c), row in zip(pivots, rref):
            expected[c] = row[ncols]
    x, kernel = solution_set(m, b)
    assert x == expected
    # the kernel: one RREF kernel vector per free column
    assert kernel == fraction_nullspace(m)
    # the first rejected row's dependency, scaled to 1 on that row, is the
    # first RREF kernel vector of the transpose
    echelon = IntegerEchelon()
    f = next((i for i, row in enumerate(m) if not echelon.add(row)), None)
    left = fraction_nullspace([list(column) for column in zip(*m)])
    if f is None:
        assert left == []
    else:
        y = echelon.dependency
        assert [F(y.get(i, 0), y[f]) for i in range(len(m))] == left[0]


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


@st.composite
def satisfies_cases(draw):
    """(rows, x, scales, values) for `satisfies`: integer rows at least as
    long as x, and values that are the rows' own (row_i / s_i) . x, those
    with one entry moved, or zeros. A "kernel" case sets x's last entry to 1
    and each row's entry there so that the row annihilates x, with unit
    scales and zero values, as `_CanonicalSystem.kernel` calls it."""
    x = draw(st.lists(fractions_st, max_size=4))
    width = len(x) + draw(st.integers(0, 3))
    nrows = draw(st.integers(1, 4))
    entries = st.one_of(st.integers(-9, 9), st.integers(-(10**12), 10**12))
    rows = draw(st.lists(st.lists(entries, min_size=width, max_size=width), min_size=nrows, max_size=nrows))
    kind = draw(st.sampled_from(["own", "moved", "zero", "kernel"] if x else ["own", "moved", "zero"]))
    if kind == "kernel":
        x[-1] = F(1)
        D = lcm(*(v.denominator for v in x))
        for row in rows:
            row[: len(x)] = [a * D for a in row[: len(x)]]
            row[len(x) - 1] = 0
            row[len(x) - 1] = -sum(a * v for a, v in zip(row, x))
        return rows, x, [1] * nrows, [0] * nrows
    scales = draw(st.lists(st.integers(1, 10**4), min_size=nrows, max_size=nrows))
    values = [sum(a * v for a, v in zip(row, x)) / F(s) for row, s in zip(rows, scales)]
    if kind == "zero":
        values = [0] * nrows
    elif kind == "moved":
        i = draw(st.integers(0, nrows - 1))
        values[i] += draw(fractions_st.filter(bool))
    return rows, x, scales, values


@settings(max_examples=300)
@given(satisfies_cases())
@example(([[1, 2, 3]], [F(1, 2)], [2], [F(1, 4)]))  # a row longer than x, scaled
@example(([[1, 2, 3]], [F(1, 2)], [2], [F(1, 2)]))  # the unscaled value is refused
@example(([[3, 5]], [F(-5, 3), F(1)], [1], [0]))  # a kernel vector with its trailing 1
def test_satisfies_is_the_fraction_identity(case):
    rows, x, scales, values = case
    expected = all(
        sum((a * v for a, v in zip(row, x)), F(0)) / s == v
        for row, s, v in zip(rows, scales, values)
    )
    assert satisfies(rows, x, scales, values) == expected
