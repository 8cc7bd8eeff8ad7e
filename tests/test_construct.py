from fractions import Fraction

import pytest

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
    verify_ppsn,
)
from ppsn import construct, linalg
from ppsn.construct import (
    SuperpositionStep,
    _curve_lines,
    superpose_interpolate,
    superpose_nodes,
)

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
    # one descent of the intersection serves every level from the anchor up
    system = parse_system_text(text)
    full = intersect_factorable(system).nodes
    chain = build_curve_chain(system, t, mmax, tuple(F(c) for c in x0))
    on_points = set(full.points)
    k_t = system.degrees[t - 1]
    for d in range(k_t, mmax + 1):
        kept = tuple(p for p in chain.at(d).nodes.points if p in on_points)
        assert kept == extract_nested_ppsn(full, full.manifold, d).points


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
        assert direction == tuple(linalg.nullspace(a)[0])
        assert base == tuple(linalg.solve(a, [row[-1] for row in rows]))


def test_curve_lines_reject_parallel_forms():
    system = parse_system_text("x1*(x1-1)\n(x1-2)*x2\nx3*(x3-1)\n")
    with pytest.raises(InsufficientIntersectionError, match="not a line"):
        _curve_lines(system, 3)


def test_build_curve_chain_line_pair_matches_line_counts():
    # two crossing line pairs; the chain along one line gives m+1 points
    from ppsn import parse_system_text

    system = parse_system_text("x1*(x1-1)\nx2*(x2-1)\n")
    chain = build_curve_chain(system, 2, 3, (F(0), F(5)))
    for e in chain.entries:
        assert len(e.nodes) == dim_along(e.degree, chain.curve.profile)
        assert e.certificate.proper


def test_build_curve_chain_validates_seed(cube_system):
    with pytest.raises(InputError):
        build_curve_chain(cube_system, 3, 2, (F(0), F(0), F(0)))  # intersection point
    with pytest.raises(InputError):
        build_curve_chain(cube_system, 3, 2, (F(1), F(2), F(3)))  # off the curve
