"""Deterministic cost budgets: exact counts of the work fixed fixtures do.

Wall-clock time on a shared machine varies too much to show a small gain,
and a count does not. A change that lowers an entry updates the table; a
change that raises one says why in CHANGES.md.
"""

from fractions import Fraction

import pytest

from ppsn import (
    CBPartition,
    NodeSet,
    build_curve_chain,
    cb_reduce,
    construct,
    extract_nested_ppsn,
    intersect_factorable,
    nodes,
    parse_system_text,
)
from ppsn.construct import SuperpositionStep, superpose_nodes

F = Fraction

GRID4 = "x1*(x1-1)*(x1-2)*(x1-3)\nx2*(x2-1)*(x2-2)*(x2-3)\n"
GRID4x3 = "x1*(x1-1)*(x1-2)*(x1-3)\nx2*(x2-1)*(x2-2)\n"


def chain_4x4_mmax_20():
    """`ppsn chain` on the 4x4 grid, --t 2 --x0 0,7 --mmax 20."""
    build_curve_chain(parse_system_text(GRID4), 2, 20, (F(0), F(7)))


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
    "chain-4x4-t2-mmax20": (chain_4x4_mmax_20, []),
    # the removed set, then the superposition's sub and super sets; the
    # remainder is certified by the Cayley-Bacharach theorem and the union
    # by the superposition theorem
    "construct-cb-4x3": (construct_cb_task, [(3, 1), (9, 3), (1, 0)]),
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
