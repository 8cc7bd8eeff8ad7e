"""Test-only reference: the greedy nested descent that `ppsn.nodes` ran
before each level was taken from all N rows. Level d is chosen from the
rows kept at level d + 1, starting from all rows at the top degree."""

from ppsn import dim_along, evaluation_matrix, linalg
from ppsn.macaulay import canonical_monomials


def descent_levels(points, manifold, top):
    """{d: kept row indices} for each degree d from top - 1 down to 0;
    `points` must be properly posed at degree `top` along `manifold`."""
    columns = canonical_monomials(manifold, manifold.n, top)
    assert len(columns) == len(points)
    matrix = evaluation_matrix(points, columns)
    selected = list(range(len(points)))
    levels = {}
    for d in range(top - 1, -1, -1):
        target = dim_along(d, manifold.profile)
        tracker = linalg.IncrementalRank()
        keep = []
        for r in selected:
            if tracker.add(matrix[r][:target]):
                keep.append(r)
            if tracker.rank == target:
                break
        assert tracker.rank == target, f"rank {tracker.rank} < {target} at degree {d}"
        selected = levels[d] = keep
    return levels
