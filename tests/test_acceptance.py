"""Acceptance gate: end-to-end exact-arithmetic checks of every core claim.

Each test covers one criterion and prints a single [PASS]/[FAIL] line; all
comparisons are exact equality over the rationals.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

import reference
from conftest import pts
from ppsn import (
    CBPartition,
    DegreeProfile,
    ImproperNodeSetError,
    Manifold,
    NodeSet,
    Polynomial,
    backward_diff_e,
    binom_e,
    canonical_monomials,
    cb_check,
    cb_extend_curve,
    cb_reduce,
    curve_dimension_closed_form,
    dim_along,
    evaluation_matrix,
    extract_nested_ppsn,
    gen_conic_nodes,
    hbase_decompose,
    hilbert_table,
    intersect_factorable,
    monomial_basis,
    parabola_manifold,
    parse_polynomial,
    parse_system_text,
    reduce_modulo,
    verify_hbase,
    verify_ppsn,
)
from ppsn.construct import SuperpositionStep, superpose_nodes
from ppsn.macaulay import random_polynomial

F = Fraction


def report(label):
    print(f"[PASS] {label}")


def all_profiles():
    for n in range(1, 5):
        for s in range(1, n + 1):
            for ks in itertools.product(range(1, 5), repeat=s):
                yield DegreeProfile(n, ks)


def test_criterion_01_dimension_cross_check():
    for profile in all_profiles():
        table = hilbert_table(profile, 12)
        for m in range(13):
            assert table.H[m] == backward_diff_e(m, profile.n, profile.ks), (
                profile,
                m,
            )
    report("criterion 1: generating function equals backward difference (n<=4, m<=12)")


def test_criterion_02_complete_intersection_saturation():
    for profile in all_profiles():
        if profile.s != profile.n:
            continue
        product = math.prod(profile.ks)
        start = max(profile.M, 0)
        for m in range(start, 13):
            assert dim_along(m, profile) == product, (profile, m)
    report("criterion 2: dimension saturates at the point count for s = n")


def test_criterion_03_curve_closed_form():
    for profile in all_profiles():
        if profile.s != profile.n - 1:
            continue
        start = max(profile.M, 0)
        for m in range(start, 13):
            assert curve_dimension_closed_form(m, profile) == dim_along(m, profile)
    report("criterion 3: curve dimension closed form matches the series (s = n-1)")


def test_criterion_04_line_nodes_and_line_superposition():
    line = Manifold([parse_polynomial("x2", 2)])
    for m in range(11):
        nodes = NodeSet(pts(*[(i, 0) for i in range(m + 1)]), line)
        assert verify_ppsn(nodes, line, m).proper
    # iterated straight-line superposition: triangular lattice of lines x1+x2=j
    ambient = NodeSet(pts((0, 0)))
    assert verify_ppsn(ambient, None, 0).proper
    for m in range(1, 7):
        line_m = Manifold([parse_polynomial(f"x1 + x2 - {m}", 2)])
        on_line = NodeSet(pts(*[(i, m - i) for i in range(m + 1)]), line_m)
        ambient, cert = superpose_nodes(
            SuperpositionStep(
                sub_manifold=line_m, sub_nodes=on_line, super_nodes=ambient, m=m
            )
        )
        assert cert.proper
        assert len(ambient) == math.comb(m + 2, 2)
    report("criterion 4: line node sets for m<=10 and the iterated line superposition")


def test_criterion_05_parabola_nodes_and_conic_superposition():
    pm = parabola_manifold()
    for m in range(7):
        nodes = NodeSet(gen_conic_nodes(m).points, pm)
        assert verify_ppsn(nodes, pm, m).proper
    # 6-point ambient set: 5 points on the conic plus 1 point off it
    six, cert6 = superpose_nodes(
        SuperpositionStep(
            sub_manifold=pm,
            sub_nodes=NodeSet(gen_conic_nodes(2).points, pm),
            super_nodes=NodeSet(pts((0, 1))),
            m=2,
        )
    )
    assert cert6.proper and len(six) == 6
    # 15-point ambient set: 9 on the conic plus a 6-point degree-2 set below it
    below = NodeSet(pts(*[(i, j - 5) for i in range(3) for j in range(3 - i)]))
    assert verify_ppsn(below, None, 2).proper
    fifteen, cert15 = superpose_nodes(
        SuperpositionStep(
            sub_manifold=pm,
            sub_nodes=NodeSet(gen_conic_nodes(4).points, pm),
            super_nodes=below,
            m=4,
        )
    )
    assert cert15.proper and len(fifteen) == 15
    report("criterion 5: parabola node sets for m<=6 and the conic superposition")


def test_criterion_06_cube_chain():
    system = parse_system_text("x1*(x1-1)\nx2*(x2-1)\nx3*(x3-1)\n")
    full = intersect_factorable(system).nodes
    s0 = full.manifold
    assert len(full) == 8

    # step 1: drop one vertex, seven points proper at degree 2 on the vertices
    vertex = (F(0), F(0), F(0))
    seven, cert7 = cb_reduce(CBPartition(full=full, removed=NodeSet([vertex])), s0, 2)
    assert cert7.proper and len(seven) == 7
    assert dim_along(2, DegreeProfile(3, (2, 2, 2))) == 7

    # step 2: swap the vertex for a fresh curve point, eight on the curve
    one_prime = NodeSet(pts((0, 2, 0)))
    eight, cert8 = cb_extend_curve(
        full, one_prime, NodeSet([vertex]), s0, t=2, m=0
    )
    assert cert8.proper and len(eight) == 8
    assert dim_along(2, DegreeProfile(3, (2, 2))) == 8

    f1, f2, f3 = s0.polynomials

    # step 3: superpose onto one quadric with a point off the splitting quadric
    curve_reordered = Manifold([f3, f1])
    nine, cert9 = superpose_nodes(
        SuperpositionStep(
            sub_manifold=curve_reordered,
            sub_nodes=NodeSet(eight.points, curve_reordered),
            super_nodes=NodeSet(pts((2, 0, 0))),
            m=2,
        )
    )
    assert cert9.proper and len(nine) == 9
    assert dim_along(2, DegreeProfile(3, (2,))) == 9

    # step 4: superpose into ambient space with a point off the last quadric
    surface = Manifold([f3])
    ten, cert10 = superpose_nodes(
        SuperpositionStep(
            sub_manifold=surface,
            sub_nodes=NodeSet(nine.points, surface),
            super_nodes=NodeSet(pts((0, 0, 2))),
            m=2,
        )
    )
    assert cert10.proper and len(ten) == 10
    assert binom_e(2, 3) == 10
    report("criterion 6: cube chain 7 -> 8 -> 9 -> 10, each level certified at degree 2")


GRID_TEXT = "x1*(x1-1)*(x1-2)\nx2*(x2-1)*(x2-2)\n"


def collinear(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) == (b[1] - a[1]) * (c[0] - a[0])


def test_criterion_07_grid_cayley_bacharach():
    full = intersect_factorable(parse_system_text(GRID_TEXT)).nodes
    manifold = full.manifold
    assert len(full) == 9 and manifold.profile.M == 4

    # (a) every 8-subset is proper at degree 3
    for point in full.points:
        partition = CBPartition(full=full, removed=NodeSet([point]))
        remaining, cert = cb_reduce(partition, manifold, 3)
        assert cert.proper and len(remaining) == 8

    # (b) every cubic through 8 points vanishes at the 9th
    basis3 = list(monomial_basis(2, 3))
    for point in full.points:
        partition = CBPartition(full=full, removed=NodeSet([point]))
        matrix = evaluation_matrix(partition.remaining.points, basis3)
        kernel = reference.kernel(matrix)
        assert kernel
        for vec in kernel:
            cubic = Polynomial(2, dict(zip(basis3, vec)))
            verdict = cb_check(cubic, partition, manifold, 3)
            assert verdict.vanishes_on_removed
            assert cubic(point) == 0

    # (c) all 84 triples at degree 2: collinear refused, the rest proper
    for triple in itertools.combinations(full.points, 3):
        partition = CBPartition(full=full, removed=NodeSet(triple))
        if collinear(*triple):
            with pytest.raises(ImproperNodeSetError):
                cb_reduce(partition, manifold, 2)
        else:
            remaining, cert = cb_reduce(partition, manifold, 2)
            assert cert.proper and len(remaining) == 6
    report("criterion 7: grid Cayley-Bacharach - 8-subsets, kernel cubics, 84 triples")


def test_criterion_08_hbase_round_trip():
    circle = Manifold(
        [parse_polynomial("x1^2 + x2^2 - 1", 2)],
        witnesses=(parse_polynomial("x2 - 2", 2),),
    )
    quadrics = Manifold(
        [parse_polynomial("x1^2 - x1", 3), parse_polynomial("x2^2 - x2", 3)],
        witnesses=(parse_polynomial("x3^2 - x3", 3),),
    )
    for manifold in (circle, quadrics):
        rep = verify_hbase(manifold, 5, trials=20, seed=2024)
        assert rep.all_passed, rep.failures
        # spot-check degree bounds on a direct decomposition
        rng = random.Random(7)
        for _ in range(5):
            g = Polynomial.zero(manifold.n)
            for f in manifold.polynomials:
                g = g + random_polynomial(rng, manifold.n, 3) * f
            if g.is_zero():
                continue
            dec = hbase_decompose(g, manifold)
            assert dec.reassemble(manifold) == g
            for c, f in zip(dec.cofactors, manifold.polynomials):
                assert c.is_zero() or c.degree + f.degree <= g.degree
    report("criterion 8: H-base decompositions re-expand exactly with degree bounds")


def test_criterion_09_reduction_soundness_and_idempotence():
    circle = Manifold([parse_polynomial("x1^2 + x2^2 - 1", 2)])
    quadrics = Manifold(
        [parse_polynomial("x1^2 - x1", 3), parse_polynomial("x2^2 - x2", 3)]
    )
    grid = intersect_factorable(parse_system_text(GRID_TEXT)).nodes.manifold
    for manifold in (circle, quadrics, grid):
        rng = random.Random(42)
        allowed = set(canonical_monomials(manifold, manifold.n, 12))
        for _ in range(50):
            f = random_polynomial(rng, manifold.n, rng.randint(0, 6))
            form = reduce_modulo(f, manifold)
            assert form.reassemble(manifold) == f
            assert all(alpha in allowed for alpha in form.remainder.terms)
            again = reduce_modulo(form.remainder, manifold)
            assert again.remainder == form.remainder
    report("criterion 9: reduction is exact, canonical-supported, and idempotent")


def test_criterion_10_nested_extraction():
    for text in (GRID_TEXT, "x1*(x1-1)\nx2*(x2-1)\nx3*(x3-1)\n"):
        full = intersect_factorable(parse_system_text(text)).nodes
        manifold = full.manifold
        previous = None
        for m in range(manifold.profile.M):
            sub = extract_nested_ppsn(full, manifold, m)
            assert len(sub) == dim_along(m, manifold.profile)
            assert verify_ppsn(sub, manifold, m).proper
            if previous is not None:
                assert set(previous.points) <= set(sub.points)
            previous = sub
    report("criterion 10: extraction yields nested, certified sets of exact sizes")
