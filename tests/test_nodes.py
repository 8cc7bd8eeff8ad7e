from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import reference
from conftest import NO_SHRINK, circle_point, coords_st, pts, sphere_point
from nested_descent import descent_levels
from ppsn import (
    CountMismatchError,
    FactorableSystem,
    InsufficientIntersectionError,
    InterpolationProblem,
    Polynomial,
    InputError,
    Manifold,
    NodeSet,
    OffManifoldError,
    ParseError,
    binom_e,
    dim_along,
    evaluation_matrix,
    extract_nested_ppsn,
    format_nodes,
    interpolate,
    intersect_factorable,
    monomial_basis,
    parse_nodes_text,
    parse_polynomial,
    parse_system_text,
    verify_ppsn,
)
from ppsn.mpoly import _evaluation_plan
from ppsn.nodes import _proper_certificate, evaluation_rows, nested_level

F = Fraction


def test_node_set_rejects_duplicates_and_off_manifold(circle):
    with pytest.raises(InputError):
        NodeSet(pts((0, 0), (0, 0)))
    with pytest.raises(OffManifoldError):
        NodeSet(pts((0, 0)), circle)


def test_node_set_operations():
    a = NodeSet(pts((0, 0), (1, 0)))
    b = NodeSet(pts((0, 1)))
    assert len(a.union(b)) == 3
    assert a.difference(NodeSet(pts((1, 0)))).points == (pts((0, 0))[0],)
    assert a.is_disjoint(b)
    assert (F(1), F(0)) in a


def test_full_basis_matrix_shape_and_values():
    basis = monomial_basis(2, 1)
    v = evaluation_matrix(pts((0, 0), (1, 0), (0, 1)), basis)
    assert v == [[1, 0, 0], [1, 1, 0], [1, 0, 1]]


def test_evaluation_matrix_single_monomial():
    m = evaluation_matrix(pts((2, 3)), [(1, 1)])
    assert m == [[6]]


def test_verify_ambient_triangle_proper():
    nodes = NodeSet(pts((0, 0), (1, 0), (0, 1)))
    cert = verify_ppsn(nodes, None, 1)
    assert cert.proper
    assert cert.expected_count == 3
    assert cert.verdict == "proper"


def test_verify_ambient_collinear_improper_with_kernel():
    nodes = NodeSet(pts((0, 0), (1, 1), (2, 2)))
    cert = verify_ppsn(nodes, None, 1)
    assert not cert.proper
    # the kernel functional annihilates every degree-1 monomial column
    matrix = evaluation_matrix(nodes.points, list(monomial_basis(2, 1)))
    for j in range(3):
        assert sum(cert.kernel_functional[i] * matrix[i][j] for i in range(3)) == 0


def test_verify_count_mismatch():
    nodes = NodeSet(pts((0, 0), (1, 0)))
    with pytest.raises(CountMismatchError):
        verify_ppsn(nodes, None, 1)


def test_verify_along_line(line_manifold):
    for m in range(6):
        nodes = NodeSet(pts(*[(i, 0) for i in range(m + 1)]), line_manifold)
        assert verify_ppsn(nodes, line_manifold, m).proper


def test_verify_refuses_insufficient_leading_forms():
    # the leading forms x1*x2 and x1*x3 share the plane x1 = 0, so the
    # canonical-monomial count of the profile does not hold at degree 3
    manifold = Manifold([parse_polynomial("x1*x2 - x3", 3), parse_polynomial("x1*x3 - 1", 3)])
    points = [(F(a), F(1, a * a), F(1, a)) for a in range(1, 13)]
    with pytest.raises(InsufficientIntersectionError):
        verify_ppsn(NodeSet(points, manifold), manifold, 3)


def test_verify_checks_nodes_not_checked_on_the_same_manifold(circle, line_manifold, monkeypatch):
    on_circle = pts((1, 0), (0, 1))
    for nodes in (NodeSet(on_circle), NodeSet(on_circle, circle)):
        with pytest.raises(OffManifoldError):
            verify_ppsn(nodes, line_manifold, 1)
        with pytest.raises(AttributeError):
            nodes.manifold = line_manifold  # the tag cannot be forged
    checked = []
    monkeypatch.setattr(Manifold, "require_on_manifold", lambda self, points: checked.append(self))
    verify_ppsn(NodeSet(on_circle, line_manifold), line_manifold, 1)
    assert checked == [line_manifold]  # by the constructor only
    verify_ppsn(NodeSet(on_circle), line_manifold, 1)
    assert checked == [line_manifold] * 2


def test_verify_trivial_negative_degree():
    cert = verify_ppsn(NodeSet([]), None, -1)
    assert cert.proper
    assert cert.expected_count == 0


def test_parse_nodes_round_trip():
    text = "# corner points\n0,0\n1/2, -3\n"
    nodes = parse_nodes_text(text)
    assert nodes.points == (tuple([F(0), F(0)]), tuple([F(1, 2), F(-3)]))
    assert parse_nodes_text(format_nodes(nodes)).points == nodes.points


def test_parse_nodes_errors():
    with pytest.raises(InputError):
        parse_nodes_text("0,0\n1\n")  # inconsistent arity
    with pytest.raises(InputError):
        parse_nodes_text("a,b\n")


def test_parse_nodes_names_line_and_token():
    with pytest.raises(ParseError, match="bad point on line 2: not a number: '1/0'"):
        parse_nodes_text("0,0\n1/0,1\n")


def test_parse_system_grid(grid_system):
    assert grid_system.n == 2
    assert grid_system.degrees == (3, 3)
    assert all(f.degree == 3 for f in grid_system.polynomials)


def test_parse_system_numbers_file_lines():
    with pytest.raises(ParseError, match="line 3: factor 'x2\\^2' is not affine-linear"):
        parse_system_text("# grid\nx1*(x1-1)\nx2*(x2^2)\n")


def test_parse_system_names_the_line_of_a_bad_token():
    with pytest.raises(ParseError, match=r"^line 3: factor 'x2 \+ @': unexpected character '@'"):
        parse_system_text("x1*(x1-1)\n# c\nx2*(x2 + @)\n")
    with pytest.raises(ParseError, match=r"^line 2: unbalanced '\('"):
        parse_system_text("x1*(x1-1)\n(x2*(x2-1)\n")


def test_parse_system_rejects_nonlinear_factor():
    with pytest.raises(InputError):
        parse_system_text("x1^2\nx2\n")
    with pytest.raises(InputError):
        parse_system_text("x1*(x1^2-1)\nx2\n")


def test_factorable_system_requires_square_shape():
    f = parse_polynomial("x1", 2)
    with pytest.raises(InputError):
        FactorableSystem([[f]])  # one hypersurface in dimension two


def test_intersect_grid(grid_system):
    report = intersect_factorable(grid_system)
    assert report.sufficient
    assert len(report.nodes) == 9
    expected = {(F(i), F(j)) for i in range(3) for j in range(3)}
    assert set(report.nodes.points) == expected


def test_intersect_cube(cube_system):
    report = intersect_factorable(cube_system)
    assert report.sufficient
    assert len(report.nodes) == 8


def test_intersect_parallel_forms_fail():
    report = intersect_factorable(parse_system_text("x1*(x1-1)\n(x1-2)*(x1-3)\n"))
    assert not report.sufficient
    assert report.failures


def test_intersect_rational_points_and_singular_selection():
    text = "(2*x1 - 1)*(x1 + x2)\n(3*x2 - 1)*(x1 - x2 + 1/3)\n"
    report = intersect_factorable(parse_system_text(text))
    assert report.sufficient
    assert report.nodes.points == (
        (F(1, 2), F(1, 3)),
        (F(1, 2), F(5, 6)),
        (F(-1, 3), F(1, 3)),
        (F(-1, 6), F(1, 6)),
    )
    report = intersect_factorable(parse_system_text("x1*(x1 + x2)\n(2*x1 + 2*x2 - 1)*(x2 - 1)\n"))
    assert report.failures == (
        "selection (2, 1) is singular: point at infinity or a positive-dimensional component",
    )


def test_intersect_numbers_coincident_points_by_selection():
    # (1, 2) and (2, 2) both solve to the origin; the singular (2, 1) sits between
    report = intersect_factorable(parse_system_text("x1*(x1 + x2)\n(2*x1 + 2*x2 - 1)*x2\n"))
    assert report.failures == (
        "selection (2, 1) is singular: point at infinity or a positive-dimensional component",
        "coincident intersection points (selections (1, 2) and (2, 2))",
    )


def test_selections_yield_affine_rows():
    # each form a . x + c as [D a | -D c], D its denominator: x1 - x2 + 1/3
    # gives the integer row of 3*x1 - 3*x2 + 1
    system = parse_system_text("(2*x1 - 1)*x2\n(x1 - x2 + 1/3)\n")
    selections = list(system.selections())
    assert selections == [
        ((1, 1), [[2, 0, 1], [3, -3, -1]]),
        ((2, 1), [[0, 1, 0], [3, -3, -1]]),
    ]
    assert all(type(v) is int for _, rows in selections for row in rows for v in row)
    assert list(system.selections(omit=1)) == [((1,), [[3, -3, -1]])]


def test_intersect_coincident_points_fail():
    # both lines of the second hypersurface pass through the same x2 value
    report = intersect_factorable(parse_system_text("x1*(x1-1)\nx2*(2*x2)\n"))
    assert not report.sufficient


def test_extract_nested_grid(grid_system):
    report = intersect_factorable(grid_system)
    manifold = report.nodes.manifold
    previous = None
    for m in range(4):
        sub = extract_nested_ppsn(report.nodes, manifold, m)
        assert len(sub) == dim_along(m, manifold.profile)
        assert verify_ppsn(sub, manifold, m).proper
        if previous is not None:
            assert set(previous.points) <= set(sub.points)
        previous = sub


def test_extract_full_degree_returns_everything(grid_system):
    report = intersect_factorable(grid_system)
    manifold = report.nodes.manifold
    out = extract_nested_ppsn(report.nodes, manifold, manifold.profile.M)
    assert set(out.points) == set(report.nodes.points)


def test_nested_level_reads_a_stream_no_further_than_its_last_kept_point(grid_system):
    full = intersect_factorable(grid_system).nodes
    read = []

    def stream():
        for q in full.points:
            read.append(q)
            yield q

    # degree 1 on the 3x3 grid: (0, 2) lies on the line through (0, 0) and
    # (0, 1), and (1, 0) completes the three columns 1, x1, x2
    points = stream()
    level = nested_level(points, full.manifold, 1)
    assert level == pts((0, 0), (0, 1), (1, 0))
    assert read == pts((0, 0), (0, 1), (0, 2), (1, 0))
    assert next(points) == full.points[4]


@st.composite
def sheared_factorable_systems(draw):
    """A factorable system with one affine-linear form per factor: the
    diagonal coefficient n dominates shears of size at most 1, so every
    selection system is nonsingular, and each hypersurface has distinct
    integer offsets."""
    n = draw(st.integers(2, 3))
    shears = st.sampled_from([F(-1), F(-1, 2), F(0), F(1, 2), F(1)])
    factors = []
    for i in range(n):
        k = draw(st.integers(1, 4 if n == 2 else 2))
        forms = []
        for c in draw(st.lists(st.integers(-4, 6), min_size=k, max_size=k, unique=True)):
            terms = {(0,) * n: F(-c)}
            for j in range(n):
                unit = tuple(int(j == v) for v in range(n))
                terms[unit] = F(n) if j == i else draw(shears)
            forms.append(Polynomial(n, terms))
        factors.append(forms)
    return FactorableSystem(factors)


@settings(max_examples=100, deadline=None, phases=NO_SHRINK)
@given(sheared_factorable_systems())
def test_each_extraction_is_the_level_of_the_nested_descent(system):
    report = intersect_factorable(system)
    assume(report.sufficient)
    full = report.nodes
    manifold = full.manifold
    levels = descent_levels(full.points, manifold, manifold.profile.M)
    for m, kept in levels.items():
        assert extract_nested_ppsn(full, manifold, m).points == tuple(full.points[r] for r in kept)


def test_intersection_shares_one_fraction_per_coordinate_value():
    report = intersect_factorable(
        parse_system_text("x1*(x1-1)*(x1-2)*(x1-3)\nx2*(x2-1)*(x2-2)*(x2-3)\n")
    )
    coords = [c for p in report.nodes.points for c in p]
    assert len(coords) == 32
    assert len({id(c) for c in coords}) == len(set(coords)) == 4


def test_curve_manifold_carries_witness(cube_system):
    curve = cube_system.manifold().curve(2)
    assert curve.s == 2
    assert curve.witnesses == (cube_system.polynomials[1],)


def test_manifold_curve_range(cube_system):
    manifold = cube_system.manifold()
    assert manifold.curve(3).polynomials == cube_system.polynomials[:2]
    for t in (0, 4):
        with pytest.raises(InputError, match="out of range 1..3"):
            manifold.curve(t)


def test_ambient_expected_count_is_binomial():
    nodes = NodeSet(pts(*[(i, j) for i in range(3) for j in range(3 - i)]))
    cert = verify_ppsn(nodes, None, 2)
    assert cert.proper
    assert cert.expected_count == binom_e(2, 2) == 6


# -- integer evaluation rows against Fraction arithmetic -----------------------

@settings(max_examples=100)
@given(
    st.integers(1, 3).flatmap(
        lambda n: st.tuples(
            st.lists(st.tuples(*[coords_st] * n), max_size=5),
            st.lists(st.tuples(*[st.integers(0, 4)] * n), max_size=8),
        )
    )
)
@example(([(F(0), F(3, 2)), (F(0), F(0)), (F(-2, 3), F(0))], [(0, 0), (1, 0), (0, 2), (2, 1)]))  # zero coordinates
@example(([(F(1, 2), F(-3)), (F(5), F(2, 7))], [(1, 1), (0, 0), (1, 1)]))  # a repeated monomial
@example(([(F(2, 3), F(5)), (F(-1, 6), F(0))], [(0, 0)]))  # the constant monomial alone
@example(([(F(1), F(2)), (F(1, 3), F(0))], []))  # no monomials
@example(([(F(2, 3), F(-5, 2)), (F(0), F(7))], [(3, 0), (0, 2)]))  # not closed under parents
@example(([(F(-1, 2), F(3)), (F(4, 5), F(1, 6))], [(2, 1)]))  # one monomial, no constant
@example(([(F(1, 2), F(2, 3), F(-3, 4))], [(0, 0, 2), (1, 2, 0), (0, 1, 1)]))
def test_evaluation_rows_match_fraction_products(case):
    points, monomials = case
    rows = evaluation_rows(points, monomials)
    naive = [reference.row(q, monomials) for q in points]
    assert [[F(v, scale) for v in row] for scale, row in rows] == naive
    assert all(type(v) is int for _, row in rows for v in row)
    assert evaluation_matrix(points, monomials) == naive


def test_evaluation_plan_cache_is_bounded():
    assert _evaluation_plan.cache_info().maxsize is not None


def test_huge_degree_on_a_manifold_is_refused_before_the_dimension_table(circle, monkeypatch):
    tables = []
    monkeypatch.setattr("ppsn.dimension.hilbert_table", lambda profile, mmax: tables.append(mmax))
    nodes = NodeSet(pts((1, 0), (0, 1), (-1, 0)), circle)
    with pytest.raises(InputError, match="more than the budget"):
        verify_ppsn(nodes, circle, 10**9)
    with pytest.raises(InputError, match="more than the budget"):
        interpolate(InterpolationProblem(circle, 10**9, nodes, (1, 2, 3)))
    assert tables == []


def test_proper_certificates_share_one_witness_tuple(circle):
    # a caller that keeps many certificates keeps one proper certificate
    # and witness tuple per (manifold, degree) and no instance dict
    first = verify_ppsn(NodeSet(pts((1, 0), (0, 1), (-1, 0)), circle), circle, 1)
    second = verify_ppsn(NodeSet(pts((1, 0), (0, 1), (0, -1)), circle), circle, 1)
    ambient = [verify_ppsn(NodeSet(pts((0, 0), (1, 0), (0, k))), None, 1) for k in (1, 2)]
    assert first.proper and second.proper and all(c.proper for c in ambient)
    assert first is second and first.witness_columns is second.witness_columns
    assert ambient[0] is ambient[1] and ambient[0].witness_columns == (0, 1, 2)
    assert not hasattr(first, "__dict__")
    assert _proper_certificate.cache_info().maxsize is not None


def test_equal_manifolds_built_apart_share_one_witness_tuple():
    # the tuple is keyed on the leading forms, the profile and m, not on
    # the identity of the Manifold, as construct builds a fresh one per step
    def circle():
        return Manifold([parse_polynomial("x1^2 + x2^2 - 1", 2)])

    a, b = circle(), circle()
    assert a is not b
    ca = verify_ppsn(NodeSet(pts((1, 0), (0, 1), (-1, 0)), a), a, 1)
    cb = verify_ppsn(NodeSet(pts((1, 0), (0, 1), (0, -1)), b), b, 1)
    assert ca.proper and cb.proper
    assert ca.witness_columns is cb.witness_columns
    assert a.leading_forms is not b.leading_forms
    assert _proper_certificate(a.leading_forms, a.profile, 2, 3) is _proper_certificate(
        b.leading_forms, b.profile, 2, 3
    )
    # other leading forms on the same profile get their own tuple
    shifted = Manifold([parse_polynomial("x1*x2 - 1", 2)])
    assert _proper_certificate(
        shifted.leading_forms, shifted.profile, 2, 3
    ).witness_columns != _proper_certificate(a.leading_forms, a.profile, 2, 3).witness_columns


# -- canonical certificates against the full-basis matrix ------------------------

CIRCLE = Manifold([parse_polynomial("x1^2 + x2^2 - 1", 2)])
SPHERE = Manifold([parse_polynomial("x1^2 + x2^2 + x3^2 - 1", 3)])
QUADRIC_CURVE = Manifold([parse_polynomial("x1^2 - x1", 3), parse_polynomial("x2^2 - x2", 3)])
GRID = parse_system_text("x1*(x1-1)*(x1-2)\nx2*(x2-1)*(x2-2)\n").manifold()
GRID_POINTS = [(F(i), F(j)) for i in range(3) for j in range(3)]


@st.composite
def manifold_node_sets(draw):
    """(nodes, manifold, m) on the circle, the sphere, the four lines
    x1, x2 in {0, 1} in 3-space or the 3x3 grid. A planted set contains
    points that satisfy a degree-m relation on the manifold, so it is
    improper; the others are random and may be either."""
    space = draw(st.sampled_from(["circle", "sphere", "quadric curve", "grid"]))
    planted = draw(st.booleans())
    fixed = []
    if space == "circle":
        # 2m+1 distinct points of a conic are always proper: nothing to plant
        manifold, m = CIRCLE, draw(st.integers(0, 4))
        pool = coords_st.map(circle_point)
    elif space == "sphere":
        manifold, m = SPHERE, draw(st.integers(1, 3))
        pool = st.tuples(coords_st, coords_st).map(lambda uv: sphere_point(*uv))
        if planted:  # 2m+2 points on the great circle x3 = 0
            ts = draw(st.lists(coords_st, min_size=2 * m + 2, max_size=2 * m + 2, unique=True))
            fixed = [circle_point(t) + (F(0),) for t in ts]
    elif space == "quadric curve":
        manifold, m = QUADRIC_CURVE, draw(st.integers(0, 3))
        pool = st.tuples(st.integers(0, 1), st.integers(0, 1), coords_st)
        if planted and m >= 1:  # m+2 points on one line
            ts = draw(st.lists(coords_st, min_size=m + 2, max_size=m + 2, unique=True))
            fixed = [(0, 1, t) for t in ts]
    else:
        manifold, m = GRID, draw(st.integers(0, 3))
        if planted and m in (1, 2):  # the 3m points on x1 (x1 - 1) ... (x1 - m + 1) = 0
            fixed = GRID_POINTS[: 3 * m]
        pool = st.sampled_from([p for p in GRID_POINTS if p not in fixed])
    fixed = [tuple(F(c) for c in p) for p in fixed]
    count = dim_along(m, manifold.profile) - len(fixed)
    rest = draw(
        st.lists(pool, min_size=count, max_size=count, unique=True).filter(
            lambda r: not set(r) & set(fixed)
        )
    )
    points = draw(st.permutations(fixed + [tuple(F(c) for c in p) for p in rest]))
    return NodeSet(points, manifold), manifold, m


@settings(max_examples=60, deadline=None)
@given(manifold_node_sets())
def test_canonical_certificate_matches_full_basis_matrix(case):
    nodes, manifold, m = case
    basis = list(monomial_basis(manifold.n, m))
    full = [reference.row(q, basis) for q in nodes.points]
    cert = verify_ppsn(nodes, manifold, m)
    assert cert.proper == (reference.rref(full)[0] == len(nodes))
    if cert.proper:
        block = [[row[j] for j in cert.witness_columns] for row in full]
        assert reference.rref(block)[0] == len(nodes) == len(cert.witness_columns)
    else:
        assert list(cert.kernel_functional) == reference.kernel(list(zip(*full)))[0]
