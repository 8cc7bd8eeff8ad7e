import itertools
from fractions import Fraction
from math import prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference
from conftest import NO_SHRINK
from nested_descent import descent_levels
from ppsn import (
    CBPartition,
    HypothesisError,
    ImproperNodeSetError,
    InputError,
    InsufficientIntersectionError,
    InterpolationProblem,
    Manifold,
    NodeSet,
    OffManifoldError,
    ParseError,
    binom_e,
    build_curve_chain,
    cb_check,
    cb_extend_curve,
    cb_reduce,
    dim_along,
    extract_nested_ppsn,
    gen_conic_nodes,
    gen_line_nodes,
    interpolate,
    intersect_factorable,
    parabola_manifold,
    parse_polynomial,
    parse_system_text,
    select_monomials,
    verify_ppsn,
)
from ppsn import construct
from ppsn.construct import (
    SuperpositionStep,
    _curve_lines,
    _fresh_curve_ppsn,
    superpose_interpolate,
    superpose_nodes,
)
from ppsn.mpoly import Polynomial, monomial_basis
from ppsn.nodes import FactorableSystem, levels_upto, nested_level

F = Fraction


def pts(*coords):
    return [tuple(F(c) for c in p) for p in coords]


# -- interpolation ----------------------------------------------------------------


def test_interpolate_linear_fixture():
    nodes = NodeSet(pts((0, 0), (1, 0), (0, 1)))
    problem = InterpolationProblem(
        manifold=None, m=1, nodes=nodes, values=(F(1), F(2), F(3))
    )
    p = interpolate(problem)
    assert p == parse_polynomial("1 + x1 + 2*x2", 2)


def test_ambient_interpolants_share_monomial_keys():
    first = interpolate(InterpolationProblem(None, 1, NodeSet(pts((0, 0), (1, 0), (0, 1))), (1, 2, 3)))
    second = interpolate(InterpolationProblem(None, 1, NodeSet(pts((0, 0), (2, 0), (0, 3))), (4, 5, 6)))
    assert len(first.terms) == len(second.terms) == 3
    assert all(a is b for a, b in zip(first.terms, second.terms))


def test_interpolate_reproduces_values_on_manifold(circle):
    nodes = NodeSet(
        pts((1, 0), (-1, 0), (0, 1), (0, -1), (F(3, 5), F(4, 5))), circle
    )
    values = tuple(F(i) for i in (2, 3, 5, 7, 11))
    p = interpolate(InterpolationProblem(manifold=circle, m=2, nodes=nodes, values=values))
    assert p.in_space(2)
    for pt, v in zip(nodes, values):
        assert p(pt) == v


def test_interpolate_count_mismatch():
    nodes = NodeSet(pts((0, 0), (1, 0)))
    with pytest.raises(Exception):
        InterpolationProblem(manifold=None, m=1, nodes=nodes, values=(F(0),))


# -- node generators --------------------------------------------------------------


def test_gen_line_nodes_default_params():
    nodes = gen_line_nodes((F(0), F(0)), (F(1), F(0)), 3)
    assert nodes.points == tuple(pts((0, 0), (1, 0), (2, 0), (3, 0)))


def test_gen_line_nodes_rejects_a_bad_coordinate():
    with pytest.raises(ParseError, match="'a'"):
        gen_line_nodes(["a", 0], [1, 0], 1)


def test_gen_conic_nodes_counts_and_membership():
    pm = parabola_manifold()
    for m in range(5):
        nodes = gen_conic_nodes(m)
        assert len(nodes) == 2 * m + 1
        assert all(pm.contains(pt) for pt in nodes)


def test_gen_conic_rejects_repeated_params():
    with pytest.raises(InputError):
        gen_conic_nodes(1, params=[F(0), F(0), F(1)])


# -- superposition ----------------------------------------------------------------


def test_line_superposition_builds_triangle(line_manifold):
    on_line = NodeSet(pts((0, 0), (1, 0)), line_manifold)
    off_line = NodeSet(pts((0, 1)))
    union, cert = superpose_nodes(
        SuperpositionStep(
            sub_manifold=line_manifold, sub_nodes=on_line, super_nodes=off_line, m=1
        )
    )
    assert cert.proper
    assert len(union) == 3
    assert verify_ppsn(union, None, 1).proper


def test_superposition_rejects_nodes_on_splitting_poly(line_manifold):
    on_line = NodeSet(pts((0, 0), (1, 0)), line_manifold)
    bad_super = NodeSet(pts((2, 0)))  # lies on the splitting line x2 = 0
    with pytest.raises(HypothesisError):
        superpose_nodes(
            SuperpositionStep(
                sub_manifold=line_manifold,
                sub_nodes=on_line,
                super_nodes=bad_super,
                m=1,
            )
        )


def test_superpose_interpolate_round_trip(line_manifold):
    on_line = NodeSet(pts((0, 0), (1, 0), (2, 0)), line_manifold)
    off_line = NodeSet(pts((0, 1), (1, 1), (0, 2)))
    step = SuperpositionStep(
        sub_manifold=line_manifold, sub_nodes=on_line, super_nodes=off_line, m=2
    )
    union, cert = superpose_nodes(step)
    assert cert.proper
    values = tuple(F(i * i + 1) for i in range(len(union)))
    p = superpose_interpolate(step, values)
    assert p.in_space(2)
    for pt, v in zip(union, values):
        assert p(pt) == v


def test_superpose_interpolate_certifies_each_set_once(line_manifold, monkeypatch):
    on_line = NodeSet(pts((0, 0), (1, 0), (2, 0)), line_manifold)
    off_line = NodeSet(pts((0, 1), (1, 1), (0, 2)))
    step = SuperpositionStep(
        sub_manifold=line_manifold, sub_nodes=on_line, super_nodes=off_line, m=2
    )
    calls = []

    def spy(*args):
        calls.append(args)
        return verify_ppsn(*args)

    monkeypatch.setattr(construct, "verify_ppsn", spy)
    superpose_interpolate(step, [F(i) for i in range(6)])
    # superpose_nodes certifies the sub, super and union sets; each
    # interpolate solves on its set with the certificate made there
    assert [(len(nodes), m) for nodes, _, m in calls] == [(3, 2), (3, 1), (6, 2)]


def test_superpose_does_not_check_a_super_set_tagged_with_the_same_polynomials(monkeypatch):
    circle, line = parse_polynomial("x1^2 + x2^2 - 1", 2), parse_polynomial("x2", 2)
    step = SuperpositionStep(
        sub_manifold=Manifold([circle, line]),
        sub_nodes=NodeSet(pts((1, 0), (-1, 0)), Manifold([circle, line])),
        super_nodes=NodeSet(pts((0, 1)), Manifold([circle])),
        m=1,
    )
    checked = []
    check = Manifold.require_on_manifold
    monkeypatch.setattr(
        Manifold,
        "require_on_manifold",
        lambda self, points: checked.append(len(points)) or check(self, points),
    )
    union, cert = superpose_nodes(step)
    # neither tagged set is evaluated again; the untagged union is, once
    assert cert.proper and len(union) == 3
    assert checked == [3]


def test_conic_superposition(circle):
    pm = parabola_manifold()
    on_conic = NodeSet(gen_conic_nodes(2).points, pm)
    off_conic = NodeSet(pts((0, 1)))
    union, cert = superpose_nodes(
        SuperpositionStep(sub_manifold=pm, sub_nodes=on_conic, super_nodes=off_conic, m=2)
    )
    assert cert.proper
    assert len(union) == 6


# -- Cayley-Bacharach -------------------------------------------------------------


def grid_nodes(grid_system):
    return intersect_factorable(grid_system).nodes


def test_cb_reduce_grid_single_point(grid_system):
    full = grid_nodes(grid_system)
    manifold = full.manifold
    partition = CBPartition(full=full, removed=NodeSet([full.points[0]]))
    remaining, cert = cb_reduce(partition, manifold, 3)
    assert cert.proper
    assert len(remaining) == 8


def test_cb_reduce_refuses_collinear_triple(grid_system):
    full = grid_nodes(grid_system)
    manifold = full.manifold
    collinear = NodeSet(pts((0, 0), (1, 0), (2, 0)))
    with pytest.raises(ImproperNodeSetError):
        cb_reduce(CBPartition(full=full, removed=collinear), manifold, 2)


def test_superpose_refuses_an_improper_sub_set():
    # three points of the line pair x1^2 - x1 = 0, all on its line x1 = 0:
    # the degree-1 polynomial x1 vanishes on them
    lines = Manifold([parse_polynomial("x1^2 - x1", 2)])
    step = SuperpositionStep(
        sub_manifold=lines,
        sub_nodes=NodeSet(pts((0, 0), (0, 1), (0, 2)), lines),
        super_nodes=NodeSet([]),
        m=1,
    )
    with pytest.raises(ImproperNodeSetError, match="^sub-manifold node set is improper$") as info:
        superpose_nodes(step)
    assert not info.value.certificate.proper


def test_cb_extend_curve_refuses_an_improper_curve_set(cube_system):
    full = intersect_factorable(cube_system).nodes
    # four points of the curve x1^2 - x1 = x3^2 - x3 = 0 on the plane x2 = 2
    a_t = NodeSet(pts((0, 2, 0), (1, 2, 0), (0, 2, 1), (1, 2, 1)))
    with pytest.raises(ImproperNodeSetError, match="^curve node set is not a degree-1 PPSN$") as info:
        cb_extend_curve(full, a_t, NodeSet([]), full.manifold, t=2, m=-1)
    assert not info.value.certificate.proper


def test_cb_reduce_accepts_non_collinear_triple(grid_system):
    full = grid_nodes(grid_system)
    manifold = full.manifold
    triple = NodeSet(pts((0, 0), (1, 1), (2, 0)))
    remaining, cert = cb_reduce(CBPartition(full=full, removed=triple), manifold, 2)
    assert cert.proper
    assert len(remaining) == 6


def test_cb_reduce_rejects_outside_point(grid_system):
    full = grid_nodes(grid_system)
    with pytest.raises(InputError):
        CBPartition(full=full, removed=NodeSet(pts((5, 5))))


def test_cb_check_vanishing_branch(grid_system):
    full = grid_nodes(grid_system)
    manifold = full.manifold
    partition = CBPartition(full=full, removed=NodeSet([full.points[0]]))
    f = manifold.polynomials[0]  # vanishes on the whole grid
    verdict = cb_check(f, partition, manifold, 3)
    assert verdict.vanishes_on_removed
    assert verdict.consistent


def test_cb_check_exception_branch(grid_system):
    full = grid_nodes(grid_system)
    manifold = full.manifold
    row = NodeSet(pts((0, 0), (1, 0), (2, 0)))
    partition = CBPartition(full=full, removed=row)
    # vanishes on the remaining two rows but nowhere on the removed row
    f = parse_polynomial("x2^2 - 3*x2 + 2", 2)
    verdict = cb_check(f, partition, manifold, 2)
    assert not verdict.vanishes_on_removed
    assert verdict.exception_hypersurface is not None
    assert verdict.consistent
    # the exceptional hypersurface passes through every removed point
    for pt in row:
        assert verdict.exception_hypersurface(pt) == 0


def test_cb_check_ppsn_hypothesis_forces_vanishing(grid_system):
    full = grid_nodes(grid_system)
    manifold = full.manifold
    triple = NodeSet(pts((0, 0), (1, 1), (2, 0)))
    remaining = full.difference(triple)
    values = tuple(F(0) for _ in range(len(remaining)))
    f = interpolate(
        InterpolationProblem(
            manifold=manifold,
            m=2,
            nodes=NodeSet(remaining.points, manifold),
            values=values,
        )
    )
    verdict = cb_check(f, CBPartition(full=full, removed=triple), manifold, 2,
                       require_ppsn_removed=True)
    assert verdict.vanishes_on_removed


# the four procedures whose hypothesis is the full intersection, each called
# on the 3x3 grid with one removed point, m = 3 or below
FULL_INTERSECTION_CALLS = {
    "extract_nested_ppsn": lambda full, mf: extract_nested_ppsn(full, mf, 2),
    "cb_reduce": lambda full, mf: cb_reduce(CBPartition(full, NodeSet(full.points[:1])), mf, 3),
    "cb_check": lambda full, mf: cb_check(
        mf.polynomials[0], CBPartition(full, NodeSet(full.points[:1])), mf, 3
    ),
    "cb_extend_curve": lambda full, mf: cb_extend_curve(
        full, NodeSet(pts((0, 5))), NodeSet(full.points[:1]), mf, t=2, m=0
    ),
}


@pytest.mark.parametrize("name", FULL_INTERSECTION_CALLS)
def test_full_intersection_preamble_checks_membership_once(grid_system, name, monkeypatch):
    call = FULL_INTERSECTION_CALLS[name]
    full = grid_nodes(grid_system)
    manifold = full.manifold
    # x1*(x1-1)*(x1-2) still vanishes at (2, 5/2), so only the membership
    # check can tell this set from the grid
    off = NodeSet([(F(2), F(5, 2)) if p == (F(2), F(2)) else p for p in full.points])
    with pytest.raises(OffManifoldError):
        call(off, manifold)
    checked = []
    check = Manifold.require_on_manifold
    monkeypatch.setattr(
        Manifold,
        "require_on_manifold",
        lambda self, points: checked.append((self, tuple(points))) or check(self, points),
    )
    call(full, manifold)
    assert (manifold, full.points) not in checked  # the tag already proves it


# procedures that tag subsets of a set already checked on the same manifold:
# (call on the 3x3 grid system, the point counts of the membership checks
# left). Those left in a chain are its anchor on the curve (x0 and eight
# grid points), the fresh curve set, checked once at the top degree
# mmax - k_t (its lower levels are tagged subsets of it), and, per degree
# above k_t = 3, the union, which `superpose_nodes` checks on its larger
# manifold
TAGGED_SUBSETS = {
    "extract_nested_ppsn": (
        lambda system, full, removed: extract_nested_ppsn(full, full.manifold, 2),
        [],
    ),
    "cb_reduce": (
        lambda system, full, removed: cb_reduce(CBPartition(full, removed), full.manifold, 3),
        [],
    ),
    # mmax below k_t = 3: every level is a subset of the anchor
    "build_curve_chain": (
        lambda system, full, removed: build_curve_chain(system, 2, 2, (F(0), F(5))),
        [9],
    ),
    # mmax above k_t: the anchor, the fresh curve set of the top degree 2,
    # then per level the superposed union. The sub sets are tagged with the
    # intersection, whose polynomials include the sub-manifold's, and the
    # fresh sets with the curve, whose polynomials are the larger manifold's
    "build_curve_chain_upward": (
        lambda system, full, removed: build_curve_chain(system, 2, 5, (F(0), F(5))),
        [9, 6, 12, 15],
    ),
}


@pytest.mark.parametrize("name", TAGGED_SUBSETS)
def test_subsets_of_a_checked_set_are_not_checked_again(grid_system, name, monkeypatch):
    call, expected = TAGGED_SUBSETS[name]
    full = grid_nodes(grid_system)
    removed = NodeSet(full.points[:1], full.manifold)
    checked = []
    check = Manifold.require_on_manifold
    monkeypatch.setattr(
        Manifold,
        "require_on_manifold",
        lambda self, points: checked.append(len(points)) or check(self, points),
    )
    call(grid_system, full, removed)
    assert checked == expected


def test_cb_extend_curve_cube(cube_system):
    full = intersect_factorable(cube_system).nodes
    manifold = full.manifold
    one_prime = NodeSet(pts((0, 2, 0)))
    b = NodeSet([next(p for p in full.points if p == (F(0), F(0), F(0)))])
    union, cert = cb_extend_curve(full, one_prime, b, manifold, t=2, m=0)
    assert cert.proper
    assert len(union) == 8
    assert cert.degree == 2


def test_cb_extend_curve_negative_degree_keeps_all(cube_system):
    full = intersect_factorable(cube_system).nodes
    manifold = full.manifold
    # m = -1: B empty, degree-1 curve set (four points, one per line)
    a_t = NodeSet(pts((0, 2, 0), (1, 3, 0), (0, 5, 1), (1, 9, 1)))
    union, cert = cb_extend_curve(full, a_t, NodeSet([]), manifold, t=2, m=-1)
    assert cert.proper
    assert len(union) == 12  # degree-3 dimension along the curve of two quadrics


def test_cb_extend_rejects_point_on_omitted_hypersurface(cube_system):
    full = intersect_factorable(cube_system).nodes
    manifold = full.manifold
    on_omitted = NodeSet(pts((0, 0, 2)))  # x2 = 0 lies on the omitted quadric
    b = NodeSet(pts((0, 0, 0)))
    with pytest.raises(Exception):
        cb_extend_curve(full, on_omitted, b, manifold, t=2, m=0)


# -- curve chains -----------------------------------------------------------------


def test_build_curve_chain_cube(cube_system):
    chain = build_curve_chain(cube_system, 3, 4, (F(0), F(0), F(2)))
    degrees = [e.degree for e in chain.entries]
    assert degrees == [0, 1, 2, 3, 4]
    profile = chain.curve.profile
    previous = None
    for e in chain.entries:
        assert e.certificate.proper
        assert len(e.nodes) == dim_along(e.degree, profile)
        if previous is not None and e.degree <= 2:
            # levels built by downward extraction are nested
            assert set(previous.points) <= set(e.nodes.points)
        previous = e.nodes
    assert chain.at(0).nodes.points == (tuple(pts((0, 0, 2))[0]),)


@pytest.mark.parametrize(
    "text, t, mmax, x0",
    [
        ("x1*(x1-1)\nx2*(x2-1)\nx3*(x3-1)\n", 3, 4, (0, 0, 2)),
        ("x1*(x1-1)*(x1-2)*(x1-3)\nx2*(x2-1)*(x2-2)*(x2-3)\n", 2, 5, (0, 7)),
    ],
)
def test_curve_chain_levels_restrict_to_extractions(text, t, mmax, x0):
    # each level of the intersection from the anchor up, read off the
    # chain's one elimination, is the extraction of that degree
    system = parse_system_text(text)
    full = intersect_factorable(system).nodes
    chain = build_curve_chain(system, t, mmax, tuple(F(c) for c in x0))
    on_points = set(full.points)
    k_t = system.degrees[t - 1]
    for d in range(k_t, mmax + 1):
        kept = tuple(p for p in chain.at(d).nodes.points if p in on_points)
        assert kept == extract_nested_ppsn(full, full.manifold, d).points
    # below k_t each level is the one the old descent from the anchor kept
    anchor = chain.at(k_t).nodes.points
    for d, kept in descent_levels(anchor, chain.curve, k_t).items():
        assert chain.at(d).nodes.points == tuple(anchor[r] for r in kept)


@pytest.mark.parametrize(
    "text, t",
    [
        ("x1*(x1-1)\n(x2-x1)*(x2+2*x3)\nx3*(2*x1-x3+1/2)\n", 1),
        ("x1*(x1-1)\n(x2-x1)*(x2+2*x3)\nx3*(2*x1-x3+1/2)\n", 2),
        ("x1*(x1-1)\n(x2-x1)*(x2+2*x3)\nx3*(2*x1-x3+1/2)\n", 3),
        ("(x1+x2)*(3*x1-1)\nx2*(x1-x2+2)\n", 1),
    ],
)
def test_curve_lines_match_nullspace_and_solve(text, t):
    system = parse_system_text(text)
    selections = list(system.selections(omit=t))
    lines = _curve_lines(system, t)
    assert len(lines) == len(selections)
    for (_, rows), (base, direction) in zip(selections, lines):
        a = [row[:-1] for row in rows]
        assert [list(direction)] == reference.kernel(a)
        assert list(base) == reference.solve(a, [row[-1] for row in rows])


def test_curve_lines_reject_parallel_forms():
    system = parse_system_text("x1*(x1-1)\n(x1-2)*x2\nx3*(x3-1)\n")
    with pytest.raises(InsufficientIntersectionError, match="not a line"):
        _curve_lines(system, 3)


def test_fresh_curve_stream_that_runs_out_is_refused(monkeypatch):
    # on one line of the 4x4 grid's curve x1 (x1-1)(x1-2)(x1-3) = 0 every
    # degree-1 set is collinear: rank 2 of the 3 needed at degree 5 - k_t
    system = parse_system_text("x1*(x1-1)*(x1-2)*(x1-3)\nx2*(x2-1)*(x2-2)*(x2-3)\n")
    one_line = _curve_lines(system, 2)[:1]
    monkeypatch.setattr(construct, "_curve_lines", lambda system, t: one_line)
    with pytest.raises(InsufficientIntersectionError, match="rank 2 < 3 at degree 1"):
        build_curve_chain(system, 2, 5, (F(0), F(7)))


def test_build_curve_chain_line_pair_matches_line_counts():
    # two crossing line pairs; the chain along one line gives m+1 points
    from ppsn import parse_system_text

    system = parse_system_text("x1*(x1-1)\nx2*(x2-1)\n")
    chain = build_curve_chain(system, 2, 3, (F(0), F(5)))
    for e in chain.entries:
        assert len(e.nodes) == dim_along(e.degree, chain.curve.profile)
        assert e.certificate.proper


def test_curve_chain_shares_the_intersection_its_caller_holds(grid_system):
    report = intersect_factorable(grid_system)
    assert intersect_factorable(grid_system) is report
    chain = build_curve_chain(grid_system, 2, 3, (F(0), F(5)))
    held = {id(p) for p in report.nodes.points}
    on_points = [p for e in chain.entries for p in e.nodes.points if p in report.nodes]
    assert on_points and all(id(p) in held for p in on_points)


def test_build_curve_chain_validates_seed(cube_system):
    with pytest.raises(InputError):
        build_curve_chain(cube_system, 3, 2, (F(0), F(0), F(0)))  # intersection point
    with pytest.raises(InputError):
        build_curve_chain(cube_system, 3, 2, (F(1), F(2), F(3)))  # off the curve


# -- properties on sheared factorable systems ---------------------------------------
#
# Hypersurface i is the product over k of x_i + sum_{j != i} s_ij x_j - a_ik,
# with shears s_ij in {-1/4, 0, 1/4} and distinct integer offsets a_ik. All
# its forms share the linear part row i of S, which is diagonally dominant,
# so every selection solves S x = a for one offset per hypersurface, and
# distinct offsets give distinct points. Membership is checked on the forms
# and properness by a rational row reduction, never by the package's own
# evaluator: on a manifold's points the canonical columns span the full
# basis, so N points are proper at degree m when their rows over it have
# rank N.

SHEARS = (F(-1, 4), F(0), F(1, 4))


@st.composite
def sheared_systems(draw, sizes=((2, 1, 3), (3, 1, 2))):
    """(shears, offsets): for one (n, lowest k, highest k) of `sizes`, n
    hypersurfaces of k_i forms each, by default n = 2 with k_i <= 3 or
    n = 3 with k_i <= 2."""
    n, low, high = draw(st.sampled_from(sizes))
    ks = [draw(st.integers(low, high)) for _ in range(n)]
    shears = [
        [F(1) if j == i else draw(st.sampled_from(SHEARS)) for j in range(n)] for i in range(n)
    ]
    offsets = [
        draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k, unique=True)) for k in ks
    ]
    return shears, offsets


def sheared_intersection(shears, offsets):
    n = len(shears)
    unit = [tuple(int(j == i) for j in range(n)) for i in range(n)]

    def form(i, a):
        return Polynomial(n, {**dict(zip(unit, shears[i])), (0,) * n: -a})

    system = FactorableSystem([[form(i, a) for a in offs] for i, offs in enumerate(offsets)])
    report = intersect_factorable(system)
    assume(report.sufficient)
    return system, report.nodes


def on_hypersurface(shears, offsets, i, q):
    value = sum(s * x for s, x in zip(shears[i], q))
    return value in offsets[i]


def properly_posed(points, n, m):
    basis = monomial_basis(n, m)
    return reference.rref([reference.row(q, basis) for q in points])[0] == len(points)


@settings(max_examples=20, phases=NO_SHRINK, deadline=None)
@given(sheared_systems())
def test_sheared_intersection_has_every_product_point(case):
    shears, offsets = case
    system, full = sheared_intersection(shears, offsets)
    assert len(set(full.points)) == len(full) == prod(map(len, offsets))
    for q in full:
        assert all(on_hypersurface(shears, offsets, i, q) for i in range(system.n))


@settings(max_examples=20, phases=NO_SHRINK, deadline=None)
@given(sheared_systems())
def test_sheared_extraction_levels_nest_with_their_dimensions(case):
    system, full = sheared_intersection(*case)
    manifold = full.manifold
    above = set(full.points)
    for m in reversed(range(manifold.profile.M + 1)):
        level = extract_nested_ppsn(full, manifold, m).points
        assert len(level) == dim_along(m, manifold.profile)
        assert set(level) <= above
        assert properly_posed(level, system.n, m)
        above = set(level)


@settings(max_examples=20, phases=NO_SHRINK, deadline=None)
@given(sheared_systems(), st.data())
def test_sheared_cb_reduce_leaves_a_proper_remainder(case, data):
    system, full = sheared_intersection(*case)
    manifold = full.manifold
    M = manifold.profile.M
    assume(M >= 1)
    m = data.draw(st.integers(0, M - 1))
    removed = extract_nested_ppsn(full, manifold, M - m - 1)
    remaining, cert = cb_reduce(CBPartition(full, removed), manifold, m)
    assert cert.proper
    assert set(remaining.points) == set(full.points) - set(removed.points)
    assert len(remaining) == dim_along(m, manifold.profile)
    assert properly_posed(remaining.points, system.n, m)


def curve_seed(system, full, shears, offsets, t):
    """The first point of the curve lines' stream off the intersection and
    off hypersurface t: a chain's x0."""
    return next(
        q
        for r in itertools.count()
        for base, direction in _curve_lines(system, t)
        for q in [tuple(b + r * d for b, d in zip(base, direction))]
        if q not in full and not on_hypersurface(shears, offsets, t - 1, q)
    )


def assert_levels_match_nested_level(points, manifold, top):
    """`levels_upto` gives `nested_level` at every degree up to top, or the
    error of the first degree where that raises."""
    expected, error = [], None
    for d in range(top + 1):
        try:
            expected.append(nested_level(points, manifold, d))
        except InsufficientIntersectionError as exc:
            error = str(exc)
            break
    if error is None:
        assert levels_upto(points, manifold, top) == expected
    else:
        with pytest.raises(InsufficientIntersectionError) as info:
            levels_upto(points, manifold, top)
        assert str(info.value) == error


@settings(max_examples=20, phases=NO_SHRINK, deadline=None)
@given(sheared_systems(), st.data())
def test_sheared_levels_from_one_elimination_match_nested_level(case, data):
    # on the full intersection, on a chain anchor (x0 first) along its curve,
    # and on a subset of the intersection too small to span degree M
    shears, offsets = case
    system, full = sheared_intersection(shears, offsets)
    manifold = full.manifold
    M = manifold.profile.M
    t = data.draw(st.integers(1, system.n))
    k_t = len(offsets[t - 1])
    anchor = (curve_seed(system, full, shears, offsets, t),) + extract_nested_ppsn(
        full, manifold, k_t
    ).points
    short = data.draw(st.permutations(full.points))[: data.draw(st.integers(0, len(full) - 1))]
    assert_levels_match_nested_level(full.points, manifold, M + 1)
    assert_levels_match_nested_level(anchor, manifold.curve(t), k_t)
    assert_levels_match_nested_level(short, manifold, M)


@settings(max_examples=20, phases=NO_SHRINK, deadline=None)
@given(sheared_systems(), st.data())
def test_sheared_chain_levels_lie_on_the_curve_and_are_proper(case, data):
    shears, offsets = case
    system, full = sheared_intersection(shears, offsets)
    n = system.n
    t = data.draw(st.integers(1, n))
    k_t = len(offsets[t - 1])
    mmax = data.draw(st.integers(0, k_t + 2))
    x0 = curve_seed(system, full, shears, offsets, t)
    chain = build_curve_chain(system, t, mmax, x0)
    assert [e.degree for e in chain.entries] == list(range(mmax + 1))
    for e in chain.entries:
        assert e.certificate.proper
        if e.degree < k_t:
            # certified by the elimination that chose the level, with no
            # verify_ppsn: the same certificate that verify_ppsn gives
            assert e.certificate == verify_ppsn(NodeSet(e.nodes.points), chain.curve, e.degree)
        assert len(e.nodes) == dim_along(e.degree, chain.curve.profile)
        for q in e.nodes:
            assert all(on_hypersurface(shears, offsets, i, q) for i in range(n) if i != t - 1)
        assert properly_posed(e.nodes.points, n, e.degree)


# L >= 2, which the unchecked range of m needs, and k_i of 3 or 4 for
# n = 2, so that M - m - 1 reaches 1 or 2 there
@pytest.mark.parametrize("removal", ["proper", "random", "planted"])
@settings(max_examples=15, phases=NO_SHRINK, deadline=None)
@given(case=sheared_systems(sizes=((2, 3, 4), (3, 2, 2))), data=st.data())
def test_sheared_cb_check_is_consistent_and_its_exception_holds(removal, case, data):
    shears, offsets = case
    system, full = sheared_intersection(shears, offsets)
    manifold = full.manifold
    n, M, L = system.n, manifold.profile.M, manifold.profile.L
    require = removal == "proper"
    planted = removal == "planted"
    assume(not planted or L >= 3)
    # m = M - comp - 1 runs over 0..M - 1 with the check, and over
    # M - L + 1..M - 1 without it
    comp = data.draw(st.integers(int(planted), M - 1 if require else L - 2))
    m = M - comp - 1
    count = binom_e(comp, n)
    if require:
        removed = extract_nested_ppsn(full, manifold, comp)
    elif planted:
        # points on comp forms of one hypersurface lie on their product, of
        # degree comp: an exception hypersurface exists
        i = data.draw(st.integers(0, n - 1))
        forms = data.draw(st.permutations(offsets[i]))[:comp]
        on_forms = [q for q in full if sum(s * x for s, x in zip(shears[i], q)) in forms]
        removed = NodeSet(data.draw(st.permutations(on_forms))[:count])
    else:
        removed = NodeSet(data.draw(st.permutations(full.points))[:count])
    # f: a combination with nonzero weights of the Fraction kernel of the
    # remaining rows over the degree <= m basis, so it vanishes on them
    basis = monomial_basis(n, m)
    remaining = [q for q in full if q not in removed]
    kernel = reference.kernel([reference.row(q, basis) for q in remaining])
    nonzero = st.sampled_from((-2, -1, 1, 2))
    weights = data.draw(st.lists(nonzero, min_size=len(kernel), max_size=len(kernel)))
    f = Polynomial(
        n, {alpha: sum(w * v[j] for w, v in zip(weights, kernel)) for j, alpha in enumerate(basis)}
    )
    verdict = cb_check(f, CBPartition(full, removed), manifold, m, require_ppsn_removed=require)
    vanishes = all(reference.value(f, q) == 0 for q in removed)
    assert verdict.vanishes_on_removed == vanishes
    assert verdict.consistent
    if require:
        assert vanishes  # the removed set is proper at M - m - 1
    exception = verdict.exception_hypersurface
    if vanishes:
        assert exception is None
    else:
        assert not exception.is_zero() and exception.degree <= comp
        assert all(reference.value(exception, q) == 0 for q in removed)


@settings(max_examples=20, phases=NO_SHRINK, deadline=None)
@given(sheared_systems(), st.data())
def test_sheared_superposed_union_is_proper(case, data):
    shears, offsets = case
    system, full = sheared_intersection(shears, offsets)
    manifold = full.manifold
    n, k = system.n, len(offsets[-1])
    curve = manifold.curve(n)
    m = data.draw(st.integers(k - 1, manifold.profile.M + 2))  # the first has no super set
    sub = extract_nested_ppsn(full, manifold, m)
    sup = _fresh_curve_ppsn(system, n, curve, m - k, full) if m >= k else NodeSet([])
    union, cert = superpose_nodes(SuperpositionStep(manifold, sub, sup, m))
    assert cert.proper
    assert union.points == sub.points + sup.points
    assert len(union) == dim_along(m, curve.profile)
    for q in union:
        assert all(on_hypersurface(shears, offsets, i, q) for i in range(n - 1))
    assert properly_posed(union.points, n, m)


@settings(max_examples=20, phases=NO_SHRINK, deadline=None)
@given(sheared_systems())
def test_sheared_selections_are_closed_under_multiplication(case):
    system, full = sheared_intersection(*case)
    manifold = full.manifold
    n = system.n
    below = set()
    for d in range(manifold.profile.M + 3):
        selection = select_monomials(manifold, d)
        selected = {selection.monomials[j] for j in selection.selected}
        for mu in below:
            for j in range(n):
                assert mu[:j] + (mu[j] + 1,) + mu[j + 1 :] in selected
        below = selected
