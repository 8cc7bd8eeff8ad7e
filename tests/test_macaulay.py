import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from conftest import NO_SHRINK, assert_stored_form
from ppsn import (
    DecompositionError,
    InputError,
    InsufficientIntersectionError,
    Manifold,
    OffManifoldError,
    Polynomial,
    canonical_monomials,
    hbase_decompose,
    infinity_check,
    linalg,
    macaulay,
    monomial_basis,
    parse_polynomial,
    reduce_modulo,
    select_monomials,
    verify_hbase,
)
from ppsn.dimension import binom_e, dim_along
from ppsn.macaulay import random_polynomial
from ppsn.mpoly import monomials_of_degree

F = Fraction


def test_manifold_basic_properties(circle):
    assert circle.n == 2
    assert circle.s == 1
    assert circle.profile.ks == (2,)
    assert circle.contains((F(1), F(0)))
    assert not circle.contains((F(1), F(1)))
    with pytest.raises(OffManifoldError):
        circle.require_on_manifold([(F(1), F(1))])


# x1 in {0, 1} and x2 = +-1/2, so points drawn from these coordinates often
# lie on one, both or neither of the two polynomials
TWO_POLYNOMIALS = (((2, 0), 1), ((1, 0), -1)), (((0, 2), 4), ((0, 0), -1))
coordinates = st.sampled_from([F(0), F(1), F(1, 2), F(-1, 2), F(3)])


@settings(max_examples=60, phases=NO_SHRINK)
@given(st.lists(st.tuples(coordinates, coordinates), max_size=6))
def test_membership_raises_at_the_first_offending_point(points):
    polys = [Polynomial(2, dict(terms)) for terms in TWO_POLYNOMIALS]
    manifold = Manifold(polys)
    expected = None
    for q in points:  # point-major: the first point off, then its first polynomial
        for i, f in enumerate(polys):
            r = reference.value(f, q)
            if r and expected is None:
                expected = (q, i, r)
    if expected is None:
        manifold.require_on_manifold(points)
    else:
        with pytest.raises(OffManifoldError) as raised:
            manifold.require_on_manifold(points)
        error = raised.value
        assert (error.point, error.poly_index, error.residual) == expected


def test_circle_selection_degree_two(circle):
    sel = select_monomials(circle, 2)
    # elementary-item row for the leading form x1^2 + x2^2 over (x1^2, x1x2, x2^2)
    assert macaulay.elementary_items(circle.leading_forms, 2, 2)[1] == [[F(1), F(0), F(1)]]
    assert tuple(sel.monomials[j] for j in sel.selected) == ((2, 0),)
    assert sel.unselected_monomials() == ((1, 1), (0, 2))


def test_circle_selection_degree_three(circle):
    sel = select_monomials(circle, 3)
    # x1*g and x2*g select x1^3 and x1^2 x2; x1 x2^2 and x2^3 remain
    assert tuple(sel.monomials[j] for j in sel.selected) == ((3, 0), (2, 1))
    assert sel.unselected_monomials() == ((1, 2), (0, 3))


def test_canonical_monomials_counts(circle):
    mons = canonical_monomials(circle, 2, 3)
    assert len(mons) == 7  # 1 + 2 + 2 + 2 along the conic
    assert mons[:3] == [(0, 0), (1, 0), (0, 1)]


def count_calls(monkeypatch, name):
    """The row counts of the matrices passed to linalg.<name>, call by call."""
    calls = []
    real = getattr(linalg, name)

    def spy(*args):
        calls.append(len(args[0]))
        return real(*args)

    monkeypatch.setattr(linalg, name, spy)
    return calls


def test_manifolds_with_equal_leading_forms_share_selections(monkeypatch):
    unit = Manifold([parse_polynomial("x1^2 + x2^2 - 1", 2)])
    wide = Manifold([parse_polynomial("x1^2 + x2^2 - 4", 2)])
    calls = count_calls(monkeypatch, "row_reduce")
    first = [select_monomials(unit, m) for m in range(6)]
    assert calls == [0, 0, 1, 2, 3, 4]  # one echelon per degree; 0 and 1 have no items
    calls.clear()
    assert [select_monomials(wide, m) for m in range(6)] == first
    assert all(select_monomials(wide, m) is sel for m, sel in enumerate(first))
    assert calls == []


def test_manifolds_on_one_polynomial_share_its_leading_form():
    polys = [parse_polynomial("x1^2 - x1 + x2", 3), parse_polynomial("x2^2 - 3*x3", 3)]
    first, second = Manifold(polys), Manifold(polys)
    for i, p in enumerate(polys):
        assert first.leading_forms[i] is p.leading_form() is second.leading_forms[i]
    assert first.curve(1).leading_forms[0] is polys[1].leading_form()
    assert polys[0].leading_form() == parse_polynomial("x1^2", 3)


def test_equal_profiles_with_different_leading_forms_never_share(monkeypatch):
    circle_form = Manifold([parse_polynomial("x1^2 + x2^2", 2)])
    cross = Manifold([parse_polynomial("x1*x2", 2)])
    assert circle_form.profile == cross.profile
    for m in range(2, 6):
        shared = select_monomials(circle_form, m), select_monomials(cross, m)
        macaulay._selection.cache_clear()
        alone = select_monomials(circle_form, m), select_monomials(cross, m)
        assert shared == alone
        items = [macaulay.elementary_items(M.leading_forms, 2, m)[1] for M in (circle_form, cross)]
        assert items[0] != items[1]
    assert select_monomials(circle_form, 2).selected == (0,)  # x1^2
    assert select_monomials(cross, 2).selected == (1,)  # x1*x2


def test_selection_detects_insufficient_intersection():
    # two hypersurfaces sharing the leading form x1^2: ranks collapse
    bad = Manifold(
        [parse_polynomial("x1^2 - 1", 2), parse_polynomial("x1^2 - x2", 2)]
    )
    with pytest.raises(InsufficientIntersectionError):
        select_monomials(bad, 4)


@st.composite
def leading_forms(draw):
    """(s = 1 or 2 homogeneous forms of degree 1..3 in 2 or 3 variables,
    with sparse small rational coefficients, and a degree m <= 7): two forms'
    items are dependent (syzygies) from degree k_1 + k_2 <= 6 on, and forms
    sharing a zero at infinity lose rank."""
    n = draw(st.integers(2, 3))
    coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    forms = []
    for _ in range(draw(st.integers(1, 2))):
        monos = monomials_of_degree(n, draw(st.integers(1, 3)))
        terms = draw(st.dictionaries(st.sampled_from(monos), coefficients, min_size=1, max_size=4))
        terms = {mu: c for mu, c in terms.items() if c} or {monos[-1]: F(2)}
        forms.append(Polynomial(n, terms))
    return forms, draw(st.integers(0, 7))


@settings(max_examples=150, deadline=None, phases=NO_SHRINK)
@given(leading_forms())
@example(([parse_polynomial("x1^2", 3), parse_polynomial("x2^2", 3)], 4))
@example(([parse_polynomial("3*x1^2 + 2*x2^2", 2)], 5))
@example(
    (
        [parse_polynomial("x1^2 + x2^2 + x3^2", 3), parse_polynomial("x1*x2 - x3^2", 3)],
        6,
    )
)
def test_selection_is_the_row_reduce_pivot_columns_of_its_items(case):
    forms, m = case
    manifold = Manifold(forms)
    monos, rows, _ = macaulay.elementary_items(forms, manifold.n, m)
    rank, pivots, _ = reference.rref(rows)
    h = dim_along(m, manifold.profile) - dim_along(m - 1, manifold.profile)
    if rank != binom_e(m, manifold.n - 1) - h:
        with pytest.raises(InsufficientIntersectionError):
            select_monomials(manifold, m)
        return
    sel = select_monomials(manifold, m)
    assert sel.selected == tuple(c for _, c in pivots)
    assert sel.unselected == tuple(j for j in range(len(monos)) if j not in sel.selected)


def test_reduce_circle_square(circle):
    form = reduce_modulo(parse_polynomial("x1^2", 2), circle)
    assert form.remainder == parse_polynomial("1 - x2^2", 2)
    assert form.cofactors[0] == Polynomial.constant(2, 1)
    assert form.reassemble(circle) == parse_polynomial("x1^2", 2)


def test_reduce_is_idempotent_and_supported_on_unselected(circle, cube_quadrics):
    rng = random.Random(3)
    for manifold in (circle, cube_quadrics):
        allowed = set(canonical_monomials(manifold, manifold.n, 8))
        for _ in range(10):
            f = random_polynomial(rng, manifold.n, rng.randint(0, 5))
            form = reduce_modulo(f, manifold)
            assert form.reassemble(manifold) == f
            for alpha in form.remainder.terms:
                assert alpha in allowed
            again = reduce_modulo(form.remainder, manifold)
            assert again.remainder == form.remainder
            assert all(c.is_zero() for c in again.cofactors)


def test_reduce_kills_ideal_members(circle):
    f = circle.polynomials[0] * parse_polynomial("x1 + x2 - 3", 2)
    form = reduce_modulo(f, circle)
    assert form.remainder.is_zero()


def test_infinity_check_true(circle, cube_quadrics):
    assert infinity_check(circle)
    assert infinity_check(cube_quadrics)


def test_infinity_check_false():
    # leading forms x1^2 and x1 share the whole line x1 = 0 at infinity
    bad = Manifold(
        [parse_polynomial("x1^2 - 1", 2)], witnesses=(parse_polynomial("x1 - 1", 2),)
    )
    assert not infinity_check(bad)



def test_infinity_check_refuses_a_witness_degree_past_the_budget(monkeypatch):
    # the degree-10^8 items would take minutes and gigabytes to build
    monkeypatch.setattr(macaulay, "elementary_items", lambda *args: pytest.fail("items built"))
    circle = Manifold(
        [parse_polynomial("x1^2 + x2^2 - 1", 2)],
        witnesses=(parse_polynomial("x1^99999999 - x2", 2),),
    )
    with pytest.raises(InputError, match="more than the budget"):
        infinity_check(circle)

@st.composite
def completed_leading_forms(draw):
    """(polynomials, witnesses, shared): n = 2 or 3 polynomials of degree
    1..3 with sparse small rational leading forms and a constant term, the
    last n - s of them witnesses. With `shared`, every leading form drops
    its x_j^k term, so all of them vanish at e_j, a common projective zero;
    otherwise they may or may not share one."""
    n = draw(st.integers(2, 3))
    shared = draw(st.booleans())
    j = draw(st.integers(0, n - 1))
    coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    polys = []
    for _ in range(n):
        k = draw(st.integers(1, 3))
        monos = monomials_of_degree(n, k)
        if shared:
            monos = [mu for mu in monos if mu[j] != k]
        terms = draw(st.dictionaries(st.sampled_from(monos), coefficients, max_size=4))
        terms = {mu: c for mu, c in terms.items() if c} or {monos[-1]: F(2)}
        terms[(0,) * n] = draw(coefficients)
        polys.append(Polynomial(n, terms))
    s = draw(st.integers(1, n))
    return polys[:s], polys[s:], shared


@settings(max_examples=100, deadline=None, phases=NO_SHRINK)
@given(completed_leading_forms())
@example(([parse_polynomial("x1^2 + x2^2 - 1", 2)], [parse_polynomial("x2 - 2", 2)], False))
@example(([parse_polynomial("x1^2 - 1", 2)], [parse_polynomial("x1 - 1", 2)], True))
@example(
    (
        [parse_polynomial("x1^2 + x2^2 + x3^2 - 3", 3), parse_polynomial("x1*x2 - x3^2 + 1", 3)],
        [parse_polynomial("x3 - 5", 3)],
        False,
    )
)
def test_infinity_check_matches_a_fraction_rank(case):
    polys, witnesses, shared = case
    manifold = Manifold(polys, witnesses=tuple(witnesses))
    forms = [p.leading_form() for p in polys + witnesses]
    n = manifold.n
    target = sum(g.degree for g in forms) - n + 1
    monos, rows, _ = macaulay.elementary_items(forms, n, target)
    rank, _, _ = reference.rref(rows)
    verdict = infinity_check(manifold)
    assert verdict == (rank == len(monos))
    if shared:
        assert not verdict


def test_hbase_decompose_ideal_member(circle):
    g = circle.polynomials[0] * parse_polynomial("x1 + 3*x2 - 2", 2)
    dec = hbase_decompose(g, circle)
    assert dec.reassemble(circle) == g
    assert dec.cofactors[0].degree <= g.degree - 2


def test_hbase_decompose_respects_degree_bounds(cube_quadrics):
    rng = random.Random(11)
    for _ in range(10):
        parts = [random_polynomial(rng, 3, rng.randint(0, 3)) for _ in range(2)]
        g = Polynomial.zero(3)
        for part, f in zip(parts, cube_quadrics.polynomials):
            g = g + part * f
        if g.is_zero():
            continue
        dec = hbase_decompose(g, cube_quadrics)
        assert dec.reassemble(cube_quadrics) == g
        for c, f in zip(dec.cofactors, cube_quadrics.polynomials):
            assert c.is_zero() or c.degree + f.degree <= g.degree


def test_hbase_decompose_rejects_non_members(circle):
    with pytest.raises(DecompositionError):
        hbase_decompose(Polynomial.constant(2, 1), circle)
    with pytest.raises(DecompositionError):
        hbase_decompose(parse_polynomial("x1", 2), circle)


def test_verify_hbase_reports(circle):
    rep = verify_hbase(circle, 4, trials=3, seed=5)
    assert rep.all_passed
    assert rep.passes == ((2, 3), (3, 3), (4, 3))
    assert rep.failures == ()


def test_verify_hbase_is_seed_deterministic(cube_quadrics):
    a = verify_hbase(cube_quadrics, 4, trials=2, seed=9)
    b = verify_hbase(cube_quadrics, 4, trials=2, seed=9)
    assert a == b


def test_verify_hbase_rejects_trials_below_one(circle):
    for trials in (0, -2):
        with pytest.raises(InputError):
            verify_hbase(circle, 4, trials=trials)


def test_verify_hbase_rejects_mmax_below_the_smallest_degree(circle, cube_quadrics):
    for manifold in (circle, cube_quadrics):
        assert manifold.profile.L == 2
        for mmax in (1, 0, -3):
            with pytest.raises(InputError, match="smallest defining degree"):
                verify_hbase(manifold, mmax)
        assert verify_hbase(manifold, 2, trials=1).passes == ((2, 1),)


# -- differential tests against the reference descent and solve ---------------------


ELLIPSE = "x1^2 + 1/3*x2^2 - 7/2"
SADDLE = "1/2*x2^2 - 2/5*x3^2 + 3/4*x1"
NON_MONIC = "3*x1^2 + 2*x2^2 - 5"

DIFF_MANIFOLDS = {
    "circle": Manifold([parse_polynomial("x1^2 + x2^2 - 1", 2)]),
    "sphere": Manifold([parse_polynomial("x1^2 + x2^2 + x3^2 - 1", 3)]),
    # s = 2: the items x2^2 * g_1 and x1^2 * g_2 are dependent from degree 4
    "cube_quadrics": Manifold(
        [parse_polynomial("x1^2 - x1", 3), parse_polynomial("x2^2 - x2", 3)]
    ),
    # the sheared grid x1*(x1-1)*(x1+x2-2) = 0 = x2*(x2-1)*(x2-2)
    "grid": Manifold(
        [
            parse_polynomial("x1^3 + x1^2*x2 - 3*x1^2 - x1*x2 + 2*x1", 2),
            parse_polynomial("x2^3 - 3*x2^2 + 2*x2", 2),
        ]
    ),
    # non-integer rational coefficients: the descent's common denominator
    # grows by the f_i's denominators and by those of the weights
    "ellipse": Manifold([parse_polynomial(ELLIPSE, 2)]),
    "rational_pair": Manifold([parse_polynomial(ELLIPSE, 3), parse_polynomial(SADDLE, 3)]),
    # integer, not monic: the echelon's pivots are 3, so weights are rescaled
    "non_monic": Manifold([parse_polynomial(NON_MONIC, 2)]),
}


@st.composite
def manifold_polynomials(draw):
    """(manifold, polynomial of degree <= 8) on one of DIFF_MANIFOLDS:
    sparse random polynomials, or ideal members sum_i c_i * f_i with
    deg c_i <= degree - k_i."""
    manifold = DIFF_MANIFOLDS[draw(st.sampled_from(sorted(DIFF_MANIFOLDS)))]
    n = manifold.n
    coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=4)

    def sparse(degree):
        monos = st.sampled_from(monomial_basis(n, degree))
        return Polynomial(n, draw(st.dictionaries(monos, coefficients, max_size=6)))

    degree = draw(st.integers(0, 8))
    if not draw(st.booleans()):
        return manifold, sparse(degree)
    member = Polynomial.zero(n)
    for f in manifold.polynomials:
        if f.degree <= degree:
            member = member + sparse(degree - f.degree) * f
    return manifold, member


def _manifold(polys, witnesses, n):
    return Manifold(
        [parse_polynomial(p, n) for p in polys],
        witnesses=tuple(parse_polynomial(w, n) for w in witnesses),
    )


# the fixtures of the benchmark's CLI workload, whose quadric's items are
# dependent (syzygies) from degree 4 on, then two with non-integer rational
# coefficients and one with integer pivots other than 1
SHAPES = {
    "circle": _manifold(["x1^2 + x2^2 - 2"], ["x2 - 2"], 2),
    "sphere": _manifold(["x1^2 + x2^2 + x3^2 + x1 - 3"], ["x2 - 2", "x3 - 3"], 3),
    "quadric": _manifold(
        ["x1^2 + x2^2 + x3^2 - 3", "x1*x2 - x3^2 + 2*x1 + x2 - 1"], ["x3 - 5"], 3
    ),
    "ellipse": _manifold([ELLIPSE], ["x2 - 1/2"], 2),
    "rational_pair": _manifold([ELLIPSE, SADDLE], ["x1 - 1/2"], 3),
    "non_monic": _manifold([NON_MONIC], ["x2 - 2"], 2),
}


@settings(max_examples=60, deadline=None)
@given(manifold_polynomials())
@example((DIFF_MANIFOLDS["circle"], Polynomial.zero(2)))
@example((DIFF_MANIFOLDS["cube_quadrics"], Polynomial.zero(3)))
def test_reduce_modulo_matches_polynomial_reference(case):
    manifold, f = case
    form = reduce_modulo(f, manifold)
    remainder, cofactors = reference.reduce_modulo(f, manifold)
    assert form.remainder.terms == remainder.terms
    assert [c.terms for c in form.cofactors] == [c.terms for c in cofactors]
    assert str(form.remainder) == str(remainder)
    assert [str(c) for c in form.cofactors] == [str(c) for c in cofactors]
    # the numerators over the running denominator leave in the stored form
    assert (form.remainder, *form.cofactors) == (remainder, *cofactors)
    assert hash((form.remainder, *form.cofactors)) == hash((remainder, *cofactors))
    for poly in (form.remainder, *form.cofactors):
        assert_stored_form(poly)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_reduce_modulo_matches_a_fresh_solve_per_degree(shape):
    manifold = SHAPES[shape]
    rng = random.Random(len(shape))
    for degree in range(0, 9):
        for f in (
            random_polynomial(rng, manifold.n, degree),
            random_polynomial(rng, manifold.n, max(degree - 2, 0)) * manifold.polynomials[-1],
        ):
            form = reduce_modulo(f, manifold)
            remainder, cofactors = reference.reduce_modulo(f, manifold)
            assert form.remainder.terms == remainder.terms
            assert [c.terms for c in form.cofactors] == [c.terms for c in cofactors]
            assert str(form.remainder) == str(remainder)
            assert [str(c) for c in form.cofactors] == [str(c) for c in cofactors]


@settings(max_examples=60, deadline=None)
@given(manifold_polynomials())
@example((DIFF_MANIFOLDS["sphere"], Polynomial.zero(3)))
@example((DIFF_MANIFOLDS["grid"], Polynomial.zero(2)))
def test_hbase_decompose_matches_polynomial_reference(case):
    manifold, g = case
    expected = reference.hbase_decompose(g, manifold)
    if expected is None:
        with pytest.raises(DecompositionError):
            hbase_decompose(g, manifold)
        return
    dec = hbase_decompose(g, manifold)
    assert [c.terms for c in dec.cofactors] == [c.terms for c in expected]
    assert [str(c) for c in dec.cofactors] == [str(c) for c in expected]


def seed_verify_hbase(manifold, mmax, trials, seed):
    """Reference: (passes, failures) of the sampled round trips, one fresh
    reference decomposition per trial."""
    rng = random.Random(seed)
    n = manifold.n
    passes, failures = [], []
    for m in range(manifold.profile.L, mmax + 1):
        ok = 0
        for _ in range(trials):
            g = Polynomial.zero(n)
            for i, f in enumerate(manifold.polynomials):
                k = manifold.profile.ks[i]
                if k <= m:
                    g = g + random_polynomial(rng, n, m - k) * f
            if reference.hbase_decompose(g, manifold) is None:
                failures.append(f"degree {m}: no degree-respecting decomposition of {g} exists: "
                                "the polynomial is not an ideal member with the claimed bounds")
            else:
                ok += 1
        passes.append((m, ok))
    return tuple(passes), tuple(failures)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_reduce_modulo_eliminates_nothing_once_selections_are_cached(shape, monkeypatch):
    manifold = SHAPES[shape]
    f = random_polynomial(random.Random(5), manifold.n, 7)
    echelons = count_calls(monkeypatch, "row_reduce")
    solutions = count_calls(monkeypatch, "solution_set")
    cold = reduce_modulo(f, manifold)
    # cold: each degree met is eliminated once, by its selection's echelon
    assert 0 < len(echelons) <= f.degree + 1
    assert solutions == []
    echelons.clear()
    assert reduce_modulo(f, manifold) == cold
    assert echelons == solutions == []


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("trials, seed", [(1, 0), (3, 7), (5, 11)])
def test_verify_hbase_matches_a_fresh_solve_per_trial(shape, trials, seed):
    manifold = SHAPES[shape]
    mmax = 5 if manifold.n == 3 else 6
    report = verify_hbase(manifold, mmax, trials=trials, seed=seed)
    assert (report.passes, report.failures) == seed_verify_hbase(manifold, mmax, trials, seed)


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("trials", [1, 4])
def test_verify_hbase_eliminates_once_per_degree_for_any_trials(shape, trials, monkeypatch):
    manifold = SHAPES[shape]
    echelons = count_calls(monkeypatch, "row_reduce")
    solutions = count_calls(monkeypatch, "solution_set")
    report = verify_hbase(manifold, 5, trials=trials, seed=3)
    assert report.all_passed
    degrees = 5 - manifold.profile.L + 1
    assert len(echelons) == 1 + degrees  # the infinity check, then one per degree
    assert solutions == []


def test_reduce_on_one_profile_follows_each_manifolds_leading_forms():
    # four curves of profile (2,) in the plane: each reduce must use its
    # own leading forms' selections, in any order and with warm caches
    curves = [
        Manifold([parse_polynomial(text, 2)])
        for text in ("x1^2 + x2^2 - 1", "x1*x2 - 1", "x1^2 - x2", "x2^2 + x1*x2 - x1")
    ]
    assert len({c.profile for c in curves}) == 1
    f = parse_polynomial("x1^5*x2 - 3*x1^3*x2^2 + 2*x2^4 - x1*x2 + 7", 2)
    for manifold in curves + curves[::-1]:
        form = reduce_modulo(f, manifold)
        remainder, cofactors = reference.reduce_modulo(f, manifold)
        assert form.remainder == remainder and form.cofactors == cofactors
