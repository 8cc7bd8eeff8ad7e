import random
from fractions import Fraction

import pytest

from ppsn import (
    DecompositionError,
    InsufficientIntersectionError,
    Manifold,
    OffManifoldError,
    Polynomial,
    canonical_monomials,
    hbase_decompose,
    infinity_check,
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
    assert sel.selected_monomials() == ((2, 0),)
    assert sel.unselected_monomials() == ((1, 1), (0, 2))


def test_circle_selection_degree_three(circle):
    sel = select_monomials(circle, 3)
    # x1*g and x2*g select x1^3 and x1^2 x2; x1 x2^2 and x2^3 remain
    assert sel.selected_monomials() == ((3, 0), (2, 1))
    assert sel.unselected_monomials() == ((1, 2), (0, 3))


def test_canonical_monomials_counts(circle):
    mons = canonical_monomials(circle, 2, 3)
    assert len(mons) == 7  # 1 + 2 + 2 + 2 along the conic
    assert mons[:3] == [(0, 0), (1, 0), (0, 1)]


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
