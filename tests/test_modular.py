"""The modular paths: rank mod p as a properness certificate and the
interpolant solved mod p, each checked against the exact path it replaces."""

import random
import sys
import threading
from fractions import Fraction
from math import gcd, isqrt, prod
from operator import mul

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import reference
from conftest import NO_SHRINK
from ppsn import (
    CountMismatchError,
    ImproperNodeSetError,
    InternalCheckError,
    InterpolationProblem,
    Manifold,
    NodeSet,
    OffManifoldError,
    PPSNCertificate,
    Polynomial,
    canonical_monomials,
    dim_along,
    interpolate,
    monomial_basis,
    parse_polynomial,
    verify_ppsn,
)
from ppsn import construct, linalg
from ppsn.nodes import _canonical_system, evaluation_rows

F = Fraction
PRIMES = linalg.PRIMES

CIRCLE = Manifold([parse_polynomial("x1^2 + x2^2 - 1", 2)])
SPHERE = Manifold([parse_polynomial("x1^2 + x2^2 + x3^2 - 1", 3)])

coords_st = st.fractions(min_value=F(-6), max_value=F(6), max_denominator=7)


def miller_rabin(n):
    """Deterministic for n < 3.3 * 10^24: the first twelve primes as bases."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for q in bases:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


MODULUS = prod(PRIMES)

def test_primes_are_word_size_primes_apart_from_the_oracle():
    for p in linalg.PRIMES:
        assert miller_rabin(p)
        assert p < 2**30
        assert p != 2**61 - 1
    assert len(set(linalg.PRIMES)) == len(linalg.PRIMES)
    # reconstruction mod the product covers what one 62-bit prime covered
    assert MODULUS > 2**62 - 57
    assert not miller_rabin(linalg.PRIMES[0] - 2)  # the test can say no


# -- rational reconstruction -------------------------------------------------------


@settings(max_examples=200)
@given(st.integers(-(2**30), 2**30), st.integers(1, 2**30))
@example(0, 1)
@example(-1, 1)
@example(-(2**30), 2**30 - 1)
def test_rational_reconstruct_round_trip_with_signs(a, b):
    M = MODULUS
    x = F(a, b)
    assume(gcd(x.denominator, M) == 1)
    u = x.numerator * pow(x.denominator, -1, M) % M
    assert linalg.rational_reconstruct(u, M) == x
    assert linalg.rational_reconstruct(-x.numerator * pow(x.denominator, -1, M), M) == -x


def test_rational_reconstruct_matches_search_and_gives_none_past_the_bound():
    p = 211
    bound = isqrt(p // 2)
    small = {}
    for b in range(1, bound + 1):
        for a in range(-bound, bound + 1):
            if gcd(a, b) == 1:
                small[a * pow(b, -1, p) % p] = F(a, b)
    misses = 0
    for u in range(p):
        got = linalg.rational_reconstruct(u, p)
        assert got == small.get(u)
        misses += got is None
    assert misses > 0
    # 1/(bound + 1) lies past the bound and no small fraction shares its residue
    assert linalg.rational_reconstruct(pow(bound + 1, -1, p), p) is None


@pytest.mark.parametrize("M", [105, 1155])
def test_rational_reconstruct_mod_a_composite_rejects_a_common_factor(M):
    bound = isqrt(M // 2)
    small = {}
    for b in range(1, bound + 1):
        for a in range(-bound, bound + 1):
            if gcd(a, b) == 1 and gcd(b, M) == 1:
                small[a * pow(b, -1, M) % M] = F(a, b)
    for u in range(M):
        assert linalg.rational_reconstruct(u, M) == small.get(u)
    # 17 = 3 * (-6)^-1 is not invertible as written: the Euclidean remainder
    # and cofactor (3, -6) share 3, -1/2 is 52 mod 105, and nothing in range is 17
    assert linalg.rational_reconstruct(17, 105) is None


# -- the kernel against exact elimination ------------------------------------------

small_int_matrices = st.integers(1, 5).flatmap(
    lambda c: st.lists(
        st.lists(st.integers(-9, 9), min_size=c, max_size=c), min_size=1, max_size=5
    )
)


@settings(max_examples=200)
@given(small_int_matrices)
@example([[0, 2, 1], [0, 0, 3], [5, 1, 0]])
@example([[0, 0], [1, 1], [2, 2]])
def test_row_reduce_mod_is_row_reduce_mod_p(m):
    # every minor is below p in size (at most (9 * sqrt(5))^5 < 2^22), so
    # zero mod p means zero: the pivots are the exact ones, and the row
    # echelon form mod p is the list kernel's
    rank, pivots, _ = reference.rref(m)
    for p in linalg.PRIMES:
        mod = linalg.row_reduce_mod(m, p)
        assert (mod.rank, mod.pivots) == (rank, pivots)
        assert mod.ints == reference.echelon_mod(m, p)[2]


@st.composite
def nonsingular_systems(draw):
    """(A, b): an N x N integer matrix, nonsingular over Q and so mod every
    word-size prime (|det A| <= (9 * sqrt(6))^6 < 2^27), with A[0][0] = 0 so
    that eliminating A or A^T swaps rows at once; entries are zero half the
    time, which makes later swaps common too."""
    n = draw(st.integers(2, 6))
    entry = st.one_of(st.just(0), st.integers(-9, 9))
    a = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    a[0][0] = 0
    assume(reference.rref(a)[0] == n)
    b = draw(st.lists(st.integers(-(10**12), 10**12), min_size=n, max_size=n))
    return a, b


@settings(max_examples=100)
@given(nonsingular_systems())
@example(([[0, 0, 1], [0, 1, 0], [1, 0, 0]], [1, 2, 3]))  # a swap at every step
@example(([[0, 1, 2], [3, 0, 0], [4, 5, 0]], [-1, 0, 1]))
def test_transposed_solve_is_back_substitution_of_the_augmented_echelon(system):
    a, b = system
    transpose = [list(column) for column in zip(*a)]
    for p in linalg.PRIMES:
        ech = linalg.row_reduce_mod(transpose, p)
        assert ech.rank == len(a) and ech.pivots[0][0] != 0  # a row swap
        augmented = linalg.row_reduce_mod([row + [v] for row, v in zip(a, b)], p)
        x = linalg.solve_transposed(ech, b, p)
        assert x == linalg.back_substitute(augmented.ints, p)
        assert all((sum(map(mul, row, x)) - v) % p == 0 for row, v in zip(a, b))


# -- modular verify and interpolate against the exact path ---------------------------


def exact_path(nodes, manifold, m, values):
    """Reference: the certificate and interpolant from rational Gauss-Jordan
    alone (the first RREF kernel vector of the transpose for an improper
    set), as computed before the modular path existed."""
    n = manifold.n if manifold is not None else nodes.n
    columns = canonical_monomials(manifold, n, m)
    rows = [reference.row(q, columns) for q in nodes.points]
    if reference.rref(rows)[0] < len(nodes):
        functional = reference.kernel(list(zip(*rows)))[0]
        cert = PPSNCertificate(m, n, len(nodes), False, kernel_functional=tuple(functional))
        return cert, None
    index = {mu: j for j, mu in enumerate(monomial_basis(n, m))}
    cert = PPSNCertificate(m, n, len(nodes), True, witness_columns=tuple(index[mu] for mu in columns))
    coeffs = reference.solve(rows, values)
    return cert, Polynomial(n, dict(zip(columns, coeffs)))


def circle_point(t):
    d = 1 + t * t
    return ((1 - t * t) / d, 2 * t / d)


def sphere_point(u, v):
    d = 1 + u * u + v * v
    return (2 * u / d, 2 * v / d, (u * u + v * v - 1) / d)


@st.composite
def problems(draw):
    """(nodes, manifold, m, values) in the plane, on the circle or on the
    sphere. Planted sets are improper: m+2 points on a line in the plane,
    2m+2 on a great circle of the sphere (any 2m+1 distinct points of the
    circle are proper, so nothing is planted there). Values come from a
    polynomial with small coefficients, which the modular solve recovers,
    or are arbitrary, which usually sends it to the exact fallback."""
    space = draw(st.sampled_from(["plane", "circle", "sphere"]))
    planted = draw(st.booleans())
    fixed = []
    if space == "plane":
        manifold, n, m = None, 2, draw(st.integers(1, 4))
        pool = st.tuples(coords_st, coords_st)
        if planted:
            a, b = draw(coords_st), draw(coords_st)
            ts = draw(st.lists(coords_st, min_size=m + 2, max_size=m + 2, unique=True))
            fixed = [(t, a * t + b) for t in ts]
        count = (m + 1) * (m + 2) // 2
    elif space == "circle":
        manifold, n, m = CIRCLE, 2, draw(st.integers(0, 6))
        pool = coords_st.map(circle_point)
        count = dim_along(m, manifold.profile)
    else:
        manifold, n, m = SPHERE, 3, draw(st.integers(1, 3))
        pool = st.tuples(coords_st, coords_st).map(lambda uv: sphere_point(*uv))
        if planted:
            ts = draw(st.lists(coords_st, min_size=2 * m + 2, max_size=2 * m + 2, unique=True))
            fixed = [circle_point(t) + (F(0),) for t in ts]
        count = dim_along(m, manifold.profile)
    rest = draw(
        st.lists(pool, min_size=count - len(fixed), max_size=count - len(fixed), unique=True)
        .filter(lambda r: not set(r) & set(fixed))
    )
    points = draw(st.permutations(fixed + rest))
    nodes = NodeSet(points, manifold)
    if draw(st.booleans()):
        support = canonical_monomials(manifold, n, m)
        coeffs = draw(st.lists(st.fractions(-9, 9, max_denominator=9), min_size=len(support), max_size=len(support)))
        planted_poly = Polynomial(n, dict(zip(support, coeffs)))
        values = tuple(planted_poly.evaluate(q) for q in points)
    else:
        values = tuple(draw(st.lists(coords_st, min_size=count, max_size=count)))
    return nodes, manifold, m, values


@settings(max_examples=120, deadline=None, phases=NO_SHRINK)
@given(problems())
def test_modular_and_exact_paths_agree(case):
    nodes, manifold, m, values = case
    cert, poly = exact_path(nodes, manifold, m, values)
    assert verify_ppsn(nodes, manifold, m) == cert
    if cert.proper:
        assert interpolate(InterpolationProblem(manifold, m, nodes, values), cert) == poly


@st.composite
def deep_collinear_sets(draw):
    """Plane sets at degree m with k > m+2 points on one line, so the
    evaluation matrix loses k-m-1 ranks, and rational points of mixed
    denominators, so the integer rows carry different scales."""
    m = draw(st.integers(2, 4))
    count = (m + 1) * (m + 2) // 2
    k = draw(st.integers(m + 3, min(m + 5, count)))
    a, b = draw(coords_st), draw(coords_st)
    ts = draw(st.lists(coords_st, min_size=k, max_size=k, unique=True))
    fixed = [(t, a * t + b) for t in ts]
    rest = draw(
        st.lists(st.tuples(coords_st, coords_st), min_size=count - k, max_size=count - k, unique=True)
        .filter(lambda r: not set(r) & set(fixed))
    )
    return NodeSet(draw(st.permutations(fixed + rest))), m


@settings(max_examples=40, deadline=None, phases=NO_SHRINK)
@given(deep_collinear_sets())
def test_improper_functional_for_any_corank_is_the_rational_one(case):
    nodes, m = case
    cert = verify_ppsn(nodes, None, m)
    assert not cert.proper
    assert cert == exact_path(nodes, None, m, ())[0]
    assert all(type(y) is Fraction for y in cert.kernel_functional)


# -- fallbacks ------------------------------------------------------------------------


def spy_on(monkeypatch, *names):
    """Counts of the calls to the named `linalg` functions from here on."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(linalg, name)

        def spy(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(linalg, name, spy)
    return counts


@pytest.fixture
def exact_calls(monkeypatch):
    """Counts of the exact eliminations run beneath the calls under test:
    whole-matrix `row_reduce` builds, and every `IntegerEchelon`, which the
    fallback of `verify_ppsn` builds row by row, the exact solve of
    `interpolate` (`linalg.solution_set`) column by column and `row_reduce`
    once."""
    return spy_on(monkeypatch, "row_reduce", "IntegerEchelon")


TRIANGLE = NodeSet([(F(0), F(0)), (F(1), F(0)), (F(0), F(7))])  # determinant 7


def test_small_prime_dividing_the_determinant_falls_back_exactly(monkeypatch, exact_calls):
    values = (F(1), F(2), F(3))
    problem = InterpolationProblem(None, 1, TRIANGLE, values)
    cert, poly = exact_path(TRIANGLE, None, 1, values)
    exact_calls.update(row_reduce=0, IntegerEchelon=0)
    assert (verify_ppsn(TRIANGLE, None, 1), interpolate(problem)) == (cert, poly)
    assert exact_calls == {"row_reduce": 0, "IntegerEchelon": 0}  # all mod p

    monkeypatch.setattr(linalg, "PRIMES", (7,))  # rank 2 mod 7, rank 3 over Q
    assert verify_ppsn(TRIANGLE, None, 1) == cert
    assert exact_calls == {"row_reduce": 0, "IntegerEchelon": 1}  # one exact elimination
    exact_calls.update(row_reduce=0, IntegerEchelon=0)
    assert interpolate(problem, cert) == poly
    assert exact_calls == {"row_reduce": 0, "IntegerEchelon": 1}

    # a later prime takes over from one that divides the determinant
    monkeypatch.setattr(linalg, "PRIMES", (7,) + PRIMES)
    exact_calls.update(row_reduce=0, IntegerEchelon=0)
    assert interpolate(problem, cert) == poly
    assert exact_calls == {"row_reduce": 0, "IntegerEchelon": 0}


def planted_improper(space, m, seed):
    """A plane set with m+2 points on a line, or a sphere set with 2m+2
    points on the great circle x3 = 0, each completed by random points."""
    rng = random.Random(seed)
    if space == "plane":
        manifold, count = None, (m + 1) * (m + 2) // 2
        fixed = [(F(t), F(2 * t - 3, 5)) for t in range(m + 2)]
        point = lambda: (random_rational(rng), random_rational(rng))
    else:
        manifold, count = SPHERE, dim_along(m, SPHERE.profile)
        fixed = [circle_point(F(t, 2)) + (F(0),) for t in range(2 * m + 2)]
        point = lambda: sphere_point(random_rational(rng), random_rational(rng))
    points = list(fixed)
    while len(points) < count:
        q = point()
        if q not in points:
            points.append(q)
    rng.shuffle(points)
    return NodeSet(points, manifold), manifold, m


@pytest.mark.parametrize("space, m", [("plane", 3), ("plane", 5), ("sphere", 2), ("sphere", 3)])
def test_planted_improper_sets_are_certified_mod_p(exact_calls, space, m):
    nodes, manifold, m = planted_improper(space, m, seed=7)
    cert = exact_path(nodes, manifold, m, ())[0]
    assert not cert.proper
    exact_calls.update(row_reduce=0, IntegerEchelon=0)
    assert verify_ppsn(nodes, manifold, m) == cert
    assert exact_calls == {"row_reduce": 0, "IntegerEchelon": 0}


# rows 1, x1, x2 of (0, 0), (7, 0) and (14, 0): row 2 = 2 * row 1 - row 0
# over Q, but row 1 is row 0 mod 7
SPREAD = NodeSet([(F(0), F(0)), (F(7), F(0)), (F(14), F(0))])


def test_prime_making_an_earlier_row_dependent_is_not_trusted(monkeypatch, exact_calls):
    cert = exact_path(SPREAD, None, 1, ())[0]
    assert cert.kernel_functional == (F(1), F(-2), F(1))

    monkeypatch.setattr(linalg, "PRIMES", (7,))  # f = 1 mod 7, f = 2 over Q
    exact_calls.update(row_reduce=0, IntegerEchelon=0)
    assert verify_ppsn(SPREAD, None, 1) == cert
    assert exact_calls == {"row_reduce": 0, "IntegerEchelon": 1}

    # a later prime with a larger f restarts the combination
    monkeypatch.setattr(linalg, "PRIMES", (7,) + PRIMES)
    exact_calls.update(row_reduce=0, IntegerEchelon=0)
    assert verify_ppsn(SPREAD, None, 1) == cert
    assert exact_calls == {"row_reduce": 0, "IntegerEchelon": 0}

    # a later prime with rank N proves a set proper that 7 left singular
    cert = exact_path(TRIANGLE, None, 1, ())[0]
    exact_calls.update(row_reduce=0, IntegerEchelon=0)
    assert verify_ppsn(TRIANGLE, None, 1) == cert
    assert exact_calls == {"row_reduce": 0, "IntegerEchelon": 0}


def diagonal(p):
    """Rows 1, x1, x2 of (0, 0), (p, p) and (1, 1): row 2 = (1 - 1/p) * row 0
    + 1/p * row 1 over Q, so f = 2, but row 1 is row 0 mod p, so f_p = 1."""
    return NodeSet([(F(0), F(0)), (F(p), F(p)), (F(1), F(1))])


def test_prime_with_a_smaller_first_dependent_row_is_skipped(monkeypatch, exact_calls):
    fed = []
    real_crt = linalg.crt
    monkeypatch.setattr(
        linalg, "crt", lambda residues, modulus, x, p: fed.append(p) or real_crt(residues, modulus, x, p)
    )
    p = PRIMES[1]
    cert = exact_path(diagonal(p), None, 1, ())[0]
    assert cert.kernel_functional == (F(1 - p, p), F(-1, p), F(1))
    exact_calls.update(row_reduce=0, IntegerEchelon=0)
    assert verify_ppsn(diagonal(p), None, 1) == cert
    # 1/p needs a modulus above 2 p^2, more than the other two primes give,
    # so the exact kernel decides after all three
    assert fed == [PRIMES[0], PRIMES[2]]
    assert exact_calls == {"row_reduce": 0, "IntegerEchelon": 1}

    # 5 reconstructs nothing, 3 is skipped, and with a prime after it the
    # residues of 5 rebuild the dependency
    monkeypatch.setattr(linalg, "PRIMES", (5, 3) + PRIMES[:1])
    cert = exact_path(diagonal(3), None, 1, ())[0]
    fed.clear()
    exact_calls.update(row_reduce=0, IntegerEchelon=0)
    assert verify_ppsn(diagonal(3), None, 1) == cert
    assert fed == [5, PRIMES[0]]
    assert exact_calls == {"row_reduce": 0, "IntegerEchelon": 0}


@pytest.mark.parametrize("space, m", [("plane", 3), ("sphere", 2)])
def test_failed_reconstruction_falls_back_to_the_exact_kernel(monkeypatch, exact_calls, space, m):
    nodes, manifold, m = planted_improper(space, m, seed=11)
    cert = exact_path(nodes, manifold, m, ())[0]
    monkeypatch.setattr(linalg, "rational_reconstruct", lambda u, M: None)
    exact_calls.update(row_reduce=0, IntegerEchelon=0)
    assert verify_ppsn(nodes, manifold, m) == cert
    assert exact_calls == {"row_reduce": 0, "IntegerEchelon": 1}


@pytest.fixture
def verify_calls(monkeypatch):
    """The `verify_ppsn` calls made by `interpolate`, as (nodes, manifold, m)."""
    calls = []

    def spy(*args):
        calls.append(args)
        return verify_ppsn(*args)

    monkeypatch.setattr(construct, "verify_ppsn", spy)
    return calls


def test_interpolate_without_certificate_eliminates_once(monkeypatch, verify_calls):
    values = (F(1), F(2), F(3))
    problem = InterpolationProblem(None, 1, TRIANGLE, values)
    poly = exact_path(TRIANGLE, None, 1, values)[1]
    counts = spy_on(monkeypatch, "row_reduce", "row_reduce_mod", "IntegerEchelon")
    assert interpolate(problem) == poly
    # verify_ppsn's echelon of A^T mod PRIMES[0] certifies the nodes and
    # gives the solution
    assert counts == {"row_reduce": 0, "row_reduce_mod": 1, "IntegerEchelon": 0}
    assert verify_calls == [(TRIANGLE, None, 1)]

    # the first prime divides the determinant: verify_ppsn decides, and the
    # solve reuses its two echelons
    _canonical_system.cache_clear()
    counts.update(row_reduce_mod=0)
    monkeypatch.setattr(linalg, "PRIMES", (7,) + PRIMES)
    assert interpolate(problem) == poly
    assert verify_calls == [(TRIANGLE, None, 1)] * 2
    assert counts == {"row_reduce": 0, "row_reduce_mod": 2, "IntegerEchelon": 0}

    # the first prime divides a value's denominator: it still certifies the
    # nodes, which needs no value, and the next prime solves
    verify_calls.clear()
    _canonical_system.cache_clear()
    values = (F(1, 11), F(2), F(3))
    poly = exact_path(TRIANGLE, None, 1, values)[1]
    counts.update(row_reduce=0, row_reduce_mod=0)
    monkeypatch.setattr(linalg, "PRIMES", (11,) + PRIMES)
    assert interpolate(InterpolationProblem(None, 1, TRIANGLE, values)) == poly
    assert verify_calls == [(TRIANGLE, None, 1)]
    assert counts == {"row_reduce": 0, "row_reduce_mod": 2, "IntegerEchelon": 0}


# -- one factorization for verify and interpolate ------------------------------------


def triangle(k):
    """Nodes (0, 0), (1, 0), (0, k): proper at degree 1 for k != 0."""
    return NodeSet([(F(0), F(0)), (F(1), F(0)), (F(0), F(k))])


def count_evaluations(monkeypatch):
    """The arguments of each `evaluation_rows` call from here on."""
    calls = []
    original = evaluation_rows

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr("ppsn.nodes.evaluation_rows", spy)
    return calls


def eliminated_primes(monkeypatch):
    """The prime of every `row_reduce_mod` call from here on."""
    primes = []
    original = linalg.row_reduce_mod

    def spy(matrix, p):
        primes.append(p)
        return original(matrix, p)

    monkeypatch.setattr(linalg, "row_reduce_mod", spy)
    return primes


def test_verify_then_interpolate_evaluates_and_eliminates_once(monkeypatch, exact_calls):
    points = [circle_point(F(t, 3)) for t in range(-4, 5)]
    nodes = NodeSet(points, CIRCLE)
    planted = parse_polynomial("3*x1^2 - x1*x2 + 2*x2 - 5", 2)
    values = tuple(planted.evaluate(q) for q in points)
    problem = InterpolationProblem(CIRCLE, 4, nodes, values)
    cert, poly = exact_path(nodes, CIRCLE, 4, values)
    exact_calls.update(row_reduce=0, IntegerEchelon=0)
    evaluations, primes = count_evaluations(monkeypatch), eliminated_primes(monkeypatch)
    assert verify_ppsn(nodes, CIRCLE, 4) == cert
    assert interpolate(problem, cert) == poly
    assert interpolate(problem) == poly
    assert (len(evaluations), primes) == (1, [PRIMES[0]])
    assert exact_calls == {"row_reduce": 0, "IntegerEchelon": 0}


def test_memo_keeps_only_the_last_few_systems(monkeypatch):
    kept = _canonical_system.cache_info().maxsize
    assert kept == 4
    sets = [triangle(k) for k in range(1, kept + 2)]
    primes = eliminated_primes(monkeypatch)
    for node_set in sets:
        assert verify_ppsn(node_set, None, 1).proper
    info = _canonical_system.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, kept + 1, kept)
    # the last set is kept, the first was pushed out by the `kept` after it
    del primes[:]
    verify_ppsn(sets[-1], None, 1)
    assert primes == []
    assert _canonical_system.cache_info().hits == 1
    verify_ppsn(sets[0], None, 1)
    assert primes == [PRIMES[0]]
    # an equal but separately built node set is a new key: it is evaluated again
    verify_ppsn(NodeSet(sets[-1].points), None, 1)
    assert primes == [PRIMES[0]] * 2
    info = _canonical_system.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, kept + 3, kept)


def test_memo_never_reads_another_primes_echelon(monkeypatch, exact_calls):
    cert = exact_path(TRIANGLE, None, 1, ())[0]
    exact_calls.update(row_reduce=0, IntegerEchelon=0)
    primes = eliminated_primes(monkeypatch)
    monkeypatch.setattr(linalg, "PRIMES", (7,))  # rank 2 mod 7: the exact path decides
    assert verify_ppsn(TRIANGLE, None, 1) == cert
    assert (primes, exact_calls["IntegerEchelon"]) == ([7], 1)

    # the same system: the first prime is eliminated for itself, and 7's
    # echelon is still not trusted
    monkeypatch.setattr(linalg, "PRIMES", PRIMES)
    assert verify_ppsn(TRIANGLE, None, 1) == cert
    assert (primes, exact_calls["IntegerEchelon"]) == ([7, PRIMES[0]], 1)
    monkeypatch.setattr(linalg, "PRIMES", (7,) + PRIMES)
    assert verify_ppsn(TRIANGLE, None, 1) == cert
    assert (primes, exact_calls["IntegerEchelon"]) == ([7, PRIMES[0]], 1)


def test_memo_serves_callers_on_several_threads():
    # more threads than systems kept, switching often, each verifying and
    # interpolating its own sets: a torn look-up or eviction would raise,
    # or hand one thread another set's system
    kept = _canonical_system.cache_info().maxsize
    sets = [triangle(k) for k in range(1, 13)]
    expected = [exact_path(s, None, 1, (F(1), F(2), F(k)))[1] for k, s in enumerate(sets)]
    errors = []

    def work(offset):
        try:
            for _ in range(20):
                for k in range(offset, len(sets), 3):
                    assert verify_ppsn(sets[k], None, 1).proper
                    problem = InterpolationProblem(None, 1, sets[k], (F(1), F(2), F(k)))
                    assert interpolate(problem) == expected[k]
                    assert _canonical_system.cache_info().currsize <= kept
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k % 3,)) for k in range(2 * kept)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert _canonical_system.cache_info().currsize <= kept


def test_interpolate_without_certificate_refuses_improper_nodes(verify_calls):
    nodes = NodeSet([(F(0), F(0)), (F(1), F(1)), (F(2), F(2))])
    with pytest.raises(ImproperNodeSetError) as refused:
        interpolate(InterpolationProblem(None, 1, nodes, (F(0), F(1), F(2))))
    assert refused.value.certificate == verify_ppsn(nodes, None, 1)
    assert not refused.value.certificate.proper
    assert len(verify_calls) == 1
    # the checks that make the system square are verify_ppsn's, and come first
    with pytest.raises(CountMismatchError):
        interpolate(InterpolationProblem(None, 2, nodes, (F(0), F(1), F(2))))
    off = NodeSet([(F(1), F(0)), (F(0), F(1)), (F(1), F(1))])
    with pytest.raises(OffManifoldError):
        interpolate(InterpolationProblem(CIRCLE, 1, off, (F(0), F(1), F(2))))
    assert len(verify_calls) == 3


def test_value_denominator_divisible_by_the_prime_falls_back(monkeypatch, exact_calls):
    monkeypatch.setattr(linalg, "PRIMES", (11,))  # the triangle is nonsingular mod 11
    values = (F(1, 11), F(2), F(3))
    problem = InterpolationProblem(None, 1, TRIANGLE, values)
    cert, poly = exact_path(TRIANGLE, None, 1, values)
    exact_calls.update(row_reduce=0, IntegerEchelon=0)
    assert interpolate(problem, cert) == poly
    assert exact_calls == {"row_reduce": 0, "IntegerEchelon": 1}

    monkeypatch.setattr(linalg, "PRIMES", (11,) + PRIMES)
    exact_calls.update(row_reduce=0, IntegerEchelon=0)
    assert interpolate(problem, cert) == poly
    assert exact_calls == {"row_reduce": 0, "IntegerEchelon": 0}


def test_corrupted_coefficient_is_rejected_by_the_node_check(monkeypatch, exact_calls):
    points = [circle_point(F(t, 3)) for t in range(-4, 5)]
    nodes = NodeSet(points, CIRCLE)
    planted = parse_polynomial("3*x1^2 - x1*x2 + 2*x2 - 5", 2)
    values = tuple(planted.evaluate(q) for q in points)
    problem = InterpolationProblem(CIRCLE, 4, nodes, values)
    cert, poly = exact_path(nodes, CIRCLE, 4, values)
    assert cert.proper

    exact_calls.update(row_reduce=0, IntegerEchelon=0)
    assert interpolate(problem, cert) == poly
    assert exact_calls == {"row_reduce": 0, "IntegerEchelon": 0}  # the modular guess was accepted

    original = linalg.rational_reconstruct

    def corrupting(rounds):
        """Add 1 to the first coefficient of each of the first `rounds`
        guesses, one guess per prime."""
        calls = []

        def corrupt(u, M):
            calls.append(u)
            x = original(u, M)
            return x + 1 if len(calls) % len(points) == 1 and len(calls) < rounds * len(points) else x

        monkeypatch.setattr(linalg, "rational_reconstruct", corrupt)
        return calls

    # every prime's guess is corrupted: none is returned, the exact path decides
    calls = corrupting(len(PRIMES))
    exact_calls.update(row_reduce=0, IntegerEchelon=0)
    assert interpolate(problem, cert) == poly
    assert len(calls) == len(PRIMES) * len(points)
    assert exact_calls == {"row_reduce": 0, "IntegerEchelon": 1}

    # only the first guess is corrupted: the second prime's guess is returned
    calls = corrupting(1)
    exact_calls.update(row_reduce=0, IntegerEchelon=0)
    assert interpolate(problem, cert) == poly
    assert len(calls) == 2 * len(points)
    assert exact_calls == {"row_reduce": 0, "IntegerEchelon": 0}


def test_forged_certificate_is_not_trusted():
    # collinear nodes are improper at degree 1, but the values of x1 are
    # consistent, so a guess taken from a singular system mod p would fit
    nodes = NodeSet([(F(0), F(0)), (F(1), F(1)), (F(2), F(2))])
    assert not verify_ppsn(nodes, None, 1).proper
    forged = PPSNCertificate(1, 2, 3, True, witness_columns=(0, 1, 2))
    with pytest.raises(InternalCheckError, match="singular"):
        interpolate(InterpolationProblem(None, 1, nodes, (F(0), F(1), F(2))), forged)


# -- how many primes a solve takes --------------------------------------------------

# a fraction a/b with |a|, b <= BOUNDS[k] is recovered mod the first k primes
BOUNDS = [isqrt(prod(PRIMES[:k]) // 2) for k in range(len(PRIMES) + 1)]


@st.composite
def sized_line_problems(draw):
    """(nodes, values, planted, k): distinct rational points on the line, so
    the square (Vandermonde) system is nonsingular, with no minor divisible by
    a word-size prime. The planted interpolant's largest numerator or
    denominator lies in (BOUNDS[k - 1], BOUNDS[k]], so it needs exactly k
    primes; k = 4 puts it past all three."""
    k = draw(st.integers(1, len(PRIMES) + 1))
    lo = BOUNDS[k - 1]
    hi = BOUNDS[k] if k <= len(PRIMES) else 2**64
    m = draw(st.integers(0, 4))
    ts = draw(st.lists(coords_st, min_size=m + 1, max_size=m + 1, unique=True))
    size = st.integers(1, hi)
    coeffs = [
        F(draw(st.sampled_from([-1, 1])) * draw(size), draw(size)) for _ in range(m + 1)
    ]
    # one coefficient is an integer or a unit fraction of size in (lo, hi]
    big = draw(st.integers(lo + 1, hi))
    coeffs[draw(st.integers(0, m))] = F(big) if draw(st.booleans()) else F(-1, big)
    assume(all(c.denominator % p for c in coeffs for p in PRIMES))
    planted = Polynomial(1, {(j,): c for j, c in enumerate(coeffs)})
    nodes = NodeSet([(t,) for t in ts])
    return nodes, tuple(planted.evaluate(q) for q in nodes), planted, k


@settings(max_examples=80, deadline=None, phases=NO_SHRINK)
@given(sized_line_problems())
def test_solve_takes_exactly_the_primes_the_coefficients_need(case):
    nodes, values, planted, k = case
    m = len(nodes) - 1
    cert, poly = exact_path(nodes, None, m, values)
    assert poly == planted
    with pytest.MonkeyPatch.context() as mp:
        calls = spy_on(mp, "solution_set", "row_reduce_mod")
        assert verify_ppsn(nodes, None, m) == cert
        assert interpolate(InterpolationProblem(None, m, nodes, values), cert) == poly
    # the solve reuses the certificate's elimination mod PRIMES[0], and
    # the exact path runs only past the range of all three primes
    assert calls == {"solution_set": int(k > len(PRIMES)), "row_reduce_mod": min(k, len(PRIMES))}


def random_rational(rng):
    return F(rng.randint(-12, 12), rng.randint(1, 12))


@pytest.mark.parametrize(
    "manifold, m, point",
    [
        (CIRCLE, 10, lambda rng: circle_point(random_rational(rng))),
        (SPHERE, 4, lambda rng: sphere_point(random_rational(rng), random_rational(rng))),
    ],
)
def test_small_planted_interpolants_never_take_the_exact_path(exact_calls, manifold, m, point):
    rng = random.Random(2024)
    support = canonical_monomials(manifold, manifold.n, m)
    exact_calls.update(row_reduce=0, IntegerEchelon=0)  # the monomial selections, now cached
    for _ in range(4):
        points = set()
        while len(points) < len(support):
            points.add(point(rng))
        nodes = NodeSet(sorted(points), manifold)
        planted = Polynomial(manifold.n, {mu: F(rng.randint(-5, 5)) for mu in support})
        values = tuple(planted.evaluate(q) for q in nodes)
        cert = verify_ppsn(nodes, manifold, m)
        assert cert.proper
        assert interpolate(InterpolationProblem(manifold, m, nodes, values), cert) == planted
    assert exact_calls == {"row_reduce": 0, "IntegerEchelon": 0}
