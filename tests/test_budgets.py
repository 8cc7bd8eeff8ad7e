"""Deterministic cost budgets: exact counts of the work fixed fixtures do.

Wall-clock time on a shared machine varies too much to show a small gain,
and a count does not. A change that lowers an entry updates the table; a
change that raises one says why in CHANGES.md.
"""

from fractions import Fraction

import pytest

from conftest import sphere_point
from ppsn import (
    CBPartition,
    InterpolationProblem,
    Manifold,
    NodeSet,
    build_curve_chain,
    canonical_monomials,
    cli,
    cb_extend_curve,
    cb_reduce,
    construct,
    extract_nested_ppsn,
    interpolate,
    intersect_factorable,
    linalg,
    nodes,
    parse_polynomial,
    parse_system_text,
    verify_ppsn,
)
from ppsn.construct import SuperpositionStep, superpose_nodes

F = Fraction

GRID3 = "x1*(x1-1)*(x1-2)\nx2*(x2-1)*(x2-2)\n"
GRID4 = "x1*(x1-1)*(x1-2)*(x1-3)\nx2*(x2-1)*(x2-2)*(x2-3)\n"
GRID4x3 = "x1*(x1-1)*(x1-2)*(x1-3)\nx2*(x2-1)*(x2-2)\n"


def grid(text):
    """The system and its intersection, each call a fresh parse."""
    system = parse_system_text(text)
    return system, intersect_factorable(system).nodes


def chain_4x4(mmax):
    """`ppsn chain` on the 4x4 grid, --t 2 --x0 0,7 --mmax `mmax`."""
    return lambda: build_curve_chain(parse_system_text(GRID4), 2, mmax, (F(0), F(7)))


def cb_extend_4x4():
    """The 4x4 grid (M = 6, L = 4) less the degree-1 set (0,0), (1,0),
    (0,1), with the curve point (0,7) of x1 (x1-1)(x1-2)(x1-3) = 0 glued on:
    14 points at degree 4 along that curve."""
    full = grid(GRID4)[1]
    b = NodeSet([(F(0), F(0)), (F(1), F(0)), (F(0), F(1))])
    cb_extend_curve(full, NodeSet([(F(0), F(7))]), b, full.manifold, 2, 1)


def construct_cb_task():
    """One "cb" task of the benchmark's `construct` workload, on the 4x3 grid
    (M = 5): the extractions at every m < M, a Cayley-Bacharach reduction at
    m = 3 of three points off a line, and a superposition at m = 3 of the
    degree-3 extraction with one point of the curve x1 (x1-1)(x1-2)(x1-3) = 0
    off the grid."""
    full = intersect_factorable(parse_system_text(GRID4x3)).nodes
    manifold = full.manifold
    for m in range(manifold.profile.M):
        extract_nested_ppsn(full, manifold, m)
    removed = NodeSet([(F(0), F(0)), (F(1), F(1)), (F(2), F(0))])
    cb_reduce(CBPartition(full=full, removed=removed), manifold, 3)
    sub = NodeSet(extract_nested_ppsn(full, manifold, 3).points, manifold)
    superpose_nodes(SuperpositionStep(manifold, sub, NodeSet([(F(1), F(5))]), 3))


# fixture -> the (node count, degree) of each verify_ppsn call, in order
VERIFY_PPSN_CALLS = {
    # every level is certified by the elimination that chose it or by the
    # superposition theorem
    "chain-4x4-t2-mmax20": (chain_4x4(20), []),
    # the removed set, then the superposition's sub and super sets; the
    # remainder is certified by the Cayley-Bacharach theorem and the union
    # by the superposition theorem
    "construct-cb-4x3": (construct_cb_task, [(3, 1), (9, 3), (1, 0)]),
    # B and the curve set; the union by the two theorems in turn
    "cb_extend_curve-4x4": (cb_extend_4x4, [(3, 1), (1, 0)]),
}


@pytest.mark.parametrize("fixture", VERIFY_PPSN_CALLS)
def test_verify_ppsn_calls(fixture, monkeypatch):
    call, expected = VERIFY_PPSN_CALLS[fixture]
    calls = []
    verify = nodes.verify_ppsn

    def spy(node_set, manifold, m):
        calls.append((len(node_set), m))
        return verify(node_set, manifold, m)

    for module in (nodes, construct):
        monkeypatch.setattr(module, "verify_ppsn", spy)
    call()
    assert calls == expected


def on_grid3(call):
    """`call(system, intersection)` on a fresh parse of the 3x3 grid."""
    return lambda: call(*grid(GRID3))


# fixture -> the point counts of the Manifold.require_on_manifold calls, in
# order. A set proved on its manifold by an exact solve (the intersection's
# points, a curve line's points) or as a subset of a checked set (a level,
# a removed set, a remainder) is tagged, not evaluated: only the points a
# caller supplies untagged are
MEMBERSHIP_CHECKS = {
    "intersect-4x4": (lambda: grid(GRID4), []),
    "extract_nested_ppsn": (
        on_grid3(lambda system, full: extract_nested_ppsn(full, full.manifold, 2)),
        [],
    ),
    # one untagged intersection point removed
    "cb_reduce": (
        on_grid3(
            lambda system, full: cb_reduce(
                CBPartition(full, NodeSet(full.points[:1])), full.manifold, 3
            )
        ),
        [],
    ),
    # mmax below k_t = 3: every level is a subset of the anchor
    "build_curve_chain": (
        on_grid3(lambda system, full: build_curve_chain(system, 2, 2, (F(0), F(5)))),
        [],
    ),
    # mmax above k_t: the levels of the fresh curve set of the top degree 2
    "build_curve_chain_upward": (
        on_grid3(lambda system, full: build_curve_chain(system, 2, 5, (F(0), F(5)))),
        [],
    ),
    "chain-4x4-t2-mmax12": (chain_4x4(12), []),
    # the curve point (0,7), which the caller supplies
    "cb_extend_curve-4x4": (cb_extend_4x4, [1]),
}


@pytest.mark.parametrize("fixture", MEMBERSHIP_CHECKS)
def test_membership_checks(fixture, monkeypatch):
    call, expected = MEMBERSHIP_CHECKS[fixture]
    checked = []
    check = Manifold.require_on_manifold
    monkeypatch.setattr(
        Manifold,
        "require_on_manifold",
        lambda self, points: checked.append(len(points)) or check(self, points),
    )
    call()
    assert checked == expected


def planted_improper_plane():
    """Six points on the line x2 = (2 x1 - 3) / 5 among fifteen in the plane:
    improper at degree 4, which m + 2 = 6 collinear points make it. The
    dependency of the sixth on the five before it has 31-bit numerators."""
    ts = (F(1, 7), F(2, 3), F(5, 11), F(-3, 13), F(7, 2), F(9, 5))
    line = [(t, (2 * t - 3) / 5) for t in ts]
    rest = [(F(k, 3), F(k * k - 7, 4)) for k in range(9)]
    node_set = NodeSet(line + rest)
    return lambda: verify_ppsn(node_set, None, 4)


def generic_sphere_25():
    """Interpolation of the values 1/(k+2), which no small polynomial takes,
    on 25 rational points of the unit sphere, proper at degree 4."""
    sphere = Manifold([parse_polynomial("x1^2 + x2^2 + x3^2 - 1", 3)])
    points = [sphere_point(F(k, 3), F(k * k % 11 - 5, 4)) for k in range(1, 26)]
    problem = InterpolationProblem(sphere, 4, NodeSet(points, sphere), tuple(F(1, k + 2) for k in range(25)))
    canonical_monomials(sphere, 3, 4)  # the selections, so only the canonical system counts
    return lambda: interpolate(problem)


# fixture -> (linalg.row_reduce_mod calls, exact linalg.IntegerEchelon
# builds). The improper set's dependency and the generic interpolant are
# lifted from the one elimination mod PRIMES[0]
ELIMINATIONS = {
    "planted-improper-plane-m4": (planted_improper_plane, (1, 0)),
    "generic-sphere-25": (generic_sphere_25, (1, 0)),
}


@pytest.mark.parametrize("fixture", ELIMINATIONS)
def test_eliminations(fixture, monkeypatch):
    build, expected = ELIMINATIONS[fixture]
    call = build()
    counts = {"row_reduce_mod": 0, "IntegerEchelon": 0}
    for name in counts:
        original = getattr(linalg, name)

        def spy(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(linalg, name, spy)
    call()
    assert (counts["row_reduce_mod"], counts["IntegerEchelon"]) == expected


def ninety_nine_terms():
    """99 integer terms of degree <= 8 in three variables, the size of the
    benchmark's sphere reductions (the CI cold-start table's p3_99.txt)."""
    monomials = [
        (a, b, d - a - b) for d in range(9) for a in range(d, -1, -1) for b in range(d - a, -1, -1)
    ]
    terms = []
    for k, alpha in enumerate(monomials):
        if k % 5 < 3:
            factors = "".join(f"*x{i}^{e}" for i, e in enumerate(alpha, 1) if e)
            terms.append(f"{'-' if k % 2 else '+'} {k % 3 + 1}{factors}")
    return " ".join(terms)[2:] + "\n"


# fixture -> (files, argv with {file} fields, Fraction.__new__ calls): integer
# inputs are parsed, reduced, decomposed and printed on integer numerators
FRACTIONS_MADE = {
    "reduce-sphere-99-terms": (
        {"sphere": "x1^2 + x2^2 + x3^2 - 1\n", "poly": ninety_nine_terms()},
        ["reduce", "--manifold", "{sphere}", "--poly-file", "{poly}", "--json"],
        0,
    ),
    "hbase-quadric-mmax4": (
        {
            "quadric": "x1^2 + x2^2 + x3^2 - 1\nx1*x2 - x3^2 + 2*x1 - 1\n",
            "witness": "x3 - 5\n",
        },
        ["hbase", "--manifold", "{quadric}", "--witnesses", "{witness}", "--mmax", "4", "--json"],
        0,
    ),
}


@pytest.mark.parametrize("fixture", FRACTIONS_MADE)
def test_fractions_made(fixture, tmp_path, monkeypatch, capsys):
    texts, argv, expected = FRACTIONS_MADE[fixture]
    files = {}
    for name, text in texts.items():
        files[name] = tmp_path / f"{name}.txt"
        files[name].write_text(text)
    argv = [arg.format(**files) for arg in argv]
    made = []
    new = Fraction.__new__

    def spy(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", spy)
    assert F(1, 3) and len(made) == 1  # the spy sees every Fraction built
    made.clear()
    code = cli.main(argv)
    monkeypatch.undo()
    assert code == 0 and capsys.readouterr().out
    assert len(made) == expected
