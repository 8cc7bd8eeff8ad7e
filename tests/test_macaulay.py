import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from ppsn.macaulay import random_polynomial

F = Fraction


def test_manifold_basic_properties(circle):
    assert circle.n == 2
    assert circle.s == 1
    assert circle.profile.ks == (2,)
    assert circle.contains((F(1), F(0)))
    assert not circle.contains((F(1), F(1)))
    with pytest.raises(OffManifoldError):
        circle.require_on_manifold([(F(1), F(1))])


def test_circle_selection_degree_two(circle):
    sel = select_monomials(circle, 2)
    # elementary-item row for the leading form x1^2 + x2^2 over (x1^2, x1x2, x2^2)
    assert [list(row) for row in sel.matrix] == [[F(1), F(0), F(1)]]
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


def count_row_reduce(monkeypatch):
    calls = []
    real = linalg.row_reduce

    def spy(matrix):
        calls.append(len(matrix))
        return real(matrix)

    monkeypatch.setattr(linalg, "row_reduce", spy)
    return calls


def test_manifolds_with_equal_leading_forms_share_selections(monkeypatch):
    unit = Manifold([parse_polynomial("x1^2 + x2^2 - 1", 2)])
    wide = Manifold([parse_polynomial("x1^2 + x2^2 - 4", 2)])
    calls = count_row_reduce(monkeypatch)
    first = [select_monomials(unit, m) for m in range(6)]
    assert len(calls) == 4  # degrees 0 and 1 have no elementary items
    calls.clear()
    assert [select_monomials(wide, m) for m in range(6)] == first
    assert all(select_monomials(wide, m) is sel for m, sel in enumerate(first))
    assert calls == []


def test_equal_profiles_with_different_leading_forms_never_share(monkeypatch):
    circle_form = Manifold([parse_polynomial("x1^2 + x2^2", 2)])
    cross = Manifold([parse_polynomial("x1*x2", 2)])
    assert circle_form.profile == cross.profile
    for m in range(2, 6):
        shared = select_monomials(circle_form, m), select_monomials(cross, m)
        macaulay._selection.cache_clear()
        alone = select_monomials(circle_form, m), select_monomials(cross, m)
        assert shared == alone
        assert shared[0].matrix != shared[1].matrix
    assert select_monomials(circle_form, 2).selected == (0,)  # x1^2
    assert select_monomials(cross, 2).selected == (1,)  # x1*x2


def test_selection_detects_insufficient_intersection():
    # two hypersurfaces sharing the leading form x1^2: ranks collapse
    bad = Manifold(
        [parse_polynomial("x1^2 - 1", 2), parse_polynomial("x1^2 - x2", 2)]
    )
    with pytest.raises(InsufficientIntersectionError):
        select_monomials(bad, 4)


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


# -- differential tests against the Polynomial-based descent and solve ---------------


def reference_reduce_modulo(f, manifold):
    """Reference: the canonical-form descent built from Polynomial
    temporaries (a homogeneous component per degree, a polynomial per item),
    as computed before the one-dict descent."""
    s = manifold.s
    zero = Polynomial.zero(manifold.n)
    if f.is_zero():
        return zero, (zero,) * s
    work = f
    remainder = zero
    cofactors = [zero] * s
    for t in range(f.degree, -1, -1):
        hom = work.homogeneous_component(t)
        if hom.is_zero():
            continue
        sel = select_monomials(manifold, t)
        if not sel.labeled_items:
            remainder = remainder + hom
            work = work - hom
            continue
        v = [hom.coefficient(mu) for mu in sel.monomials]
        system = [
            [sel.matrix[r][c] for r in range(len(sel.matrix))] for c in sel.selected
        ]
        lam = linalg.solve(system, [v[c] for c in sel.selected])
        combo = [Fraction(0)] * len(sel.monomials)
        for r, weight in enumerate(lam):
            for j, entry in enumerate(sel.matrix[r]):
                combo[j] += weight * entry
        u = Polynomial(
            manifold.n,
            {mu: v[j] - combo[j] for j, mu in enumerate(sel.monomials)},
        )
        remainder = remainder + u
        subtract = u
        for r, (alpha, i) in enumerate(sel.labeled_items):
            if lam[r] == 0:
                continue
            mono = Polynomial.monomial(alpha, lam[r])
            cofactors[i] = cofactors[i] + mono
            subtract = subtract + mono * manifold.polynomials[i]
        work = work - subtract
    assert work.is_zero()
    return remainder, tuple(cofactors)


def reference_hbase_decompose(g, manifold):
    """Reference: the H-base system assembled column by column from
    X^beta * f_i products and transposed, as computed before the row-major
    build. None when no decomposition exists."""
    n = manifold.n
    m = g.degree
    basis = monomial_basis(n, m)
    row_of = {mu: j for j, mu in enumerate(basis)}
    columns = []
    labels = []
    for i, f in enumerate(manifold.polynomials):
        k = manifold.profile.ks[i]
        if k > m:
            continue
        for beta in monomial_basis(n, m - k):
            prod = Polynomial.monomial(beta) * f
            colv = [Fraction(0)] * len(basis)
            for mu, c in prod.terms.items():
                colv[row_of[mu]] = c
            columns.append(colv)
            labels.append((i, beta))
    matrix = [[columns[c][r] for c in range(len(columns))] for r in range(len(basis))]
    sol = linalg.solve(matrix, [g.coefficient(mu) for mu in basis])
    if sol is None:
        return None
    cof_terms = [dict() for _ in manifold.polynomials]
    for (i, beta), c in zip(labels, sol):
        if c != 0:
            cof_terms[i][beta] = c
    return tuple(Polynomial(n, t) for t in cof_terms)


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
}


@st.composite
def manifold_polynomials(draw):
    """(manifold name, polynomial of degree <= 8): sparse random polynomials,
    or ideal members sum_i c_i * f_i with deg c_i <= degree - k_i."""
    name = draw(st.sampled_from(sorted(DIFF_MANIFOLDS)))
    manifold = DIFF_MANIFOLDS[name]
    n = manifold.n
    coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=4)

    def sparse(degree):
        monos = st.sampled_from(monomial_basis(n, degree))
        return Polynomial(n, draw(st.dictionaries(monos, coefficients, max_size=6)))

    degree = draw(st.integers(0, 8))
    if not draw(st.booleans()):
        return name, sparse(degree)
    member = Polynomial.zero(n)
    for f in manifold.polynomials:
        if f.degree <= degree:
            member = member + sparse(degree - f.degree) * f
    return name, member


@settings(max_examples=60, deadline=None)
@given(manifold_polynomials())
@example(("circle", Polynomial.zero(2)))
@example(("cube_quadrics", Polynomial.zero(3)))
def test_reduce_modulo_matches_polynomial_reference(case):
    name, f = case
    manifold = DIFF_MANIFOLDS[name]
    form = reduce_modulo(f, manifold)
    remainder, cofactors = reference_reduce_modulo(f, manifold)
    assert form.remainder.terms == remainder.terms
    assert [c.terms for c in form.cofactors] == [c.terms for c in cofactors]
    assert str(form.remainder) == str(remainder)
    assert [str(c) for c in form.cofactors] == [str(c) for c in cofactors]


@settings(max_examples=60, deadline=None)
@given(manifold_polynomials())
@example(("sphere", Polynomial.zero(3)))
@example(("grid", Polynomial.zero(2)))
def test_hbase_decompose_matches_polynomial_reference(case):
    name, g = case
    manifold = DIFF_MANIFOLDS[name]
    expected = reference_hbase_decompose(g, manifold)
    if expected is None:
        with pytest.raises(DecompositionError):
            hbase_decompose(g, manifold)
        return
    dec = hbase_decompose(g, manifold)
    assert [c.terms for c in dec.cofactors] == [c.terms for c in expected]
    assert [str(c) for c in dec.cofactors] == [str(c) for c in expected]
