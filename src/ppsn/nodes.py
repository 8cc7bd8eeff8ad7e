"""Node sets, exact evaluation matrices, properly-posed certificates,
factorable-system intersection, and nested extraction from complete
intersections.

Membership has one rule, `NodeSet.require_on`: a set is evaluated unless
its tag's polynomials include all of the manifold's, since a point that
zeroes some polynomials zeroes any subset of them. A set proved on a
manifold by an exact solve (the intersection's points) or as a subset of a
checked set is tagged there by `NodeSet._subset`, without evaluation, so
only points a caller supplies are evaluated. Nested extraction and
the Cayley-Bacharach procedures share one preamble,
`_require_full_intersection`, which also proves the intersection finite
and reduced.

The degree-d level of a node set (`nested_level`) is the greedy choice, in
order, of rows of its evaluation matrix over the first t_d = dim_along(d)
canonical columns. A row that depends on the rows before it over the first
t_{d+1} columns still depends on them over the first t_d, so each level
lies inside the next, and each is found in one pass over the points:
`extract_nested_ppsn` runs that pass, and so does the lazy stream of a
curve chain's fresh points. `levels_upto` reads every level up to a degree
off one exact elimination of the transpose, whose pivot columns are the
greedy rows; a curve chain takes all its levels from it, and a level
chosen there is proper by that elimination's rank.

Well-posedness along a manifold follows the solvability definition. On the
manifold's points the canonical (unselected) monomials of degrees <= m span
the degree-<=m polynomials, so N points are properly posed at degree m
exactly when their N x N evaluation matrix over the canonical monomials,
the system `construct.interpolate` solves, is nonsingular (in the ambient
case these monomials are the full basis). Certificates carry either the
canonical support's indices in the full basis or an explicit nonzero row
functional annihilating every row.

Evaluation rows are exact integer rows with one scale per point
(`mpoly.evaluation_rows`). Scaling a row by a nonzero constant changes
neither the rank nor the solutions of the system, so rank certificates and
interpolants come straight from the integer rows; `evaluation_matrix`
divides them back out for callers that need the rational entries.

The canonical square system A x = b of a node set answers both questions
asked of it, in one class, `_CanonicalSystem`: is A singular
(`kernel`, for `verify_ppsn`), and what is A^-1 b (`solve`, for
`construct.interpolate`)? It keeps the row scales, the exact integer rows
and, per prime, the `linalg.row_reduce_mod` echelon of the transpose with
its recorded steps, so a verify followed by an interpolate on one node set
evaluates and eliminates once. A `functools.lru_cache` of the last four
systems (`_canonical_system`, keyed on the `NodeSet`, which hashes by
identity, and on the columns) holds them between the two calls. Nothing is
stored on a certificate or a `NodeSet`, so what a caller keeps holds no
factorization, and an evicted system is simply built again.

Both answers come from one factorization, the echelon of the transpose of
the integer rows mod the word-size prime `linalg.PRIMES[0]`; the transpose
has the matrix's rank. A rank of N means the N x N integer determinant is
nonzero mod p, hence nonzero: the set is proper, with no trust in the
prime. A smaller rank is either a genuinely improper set or a prime
dividing the determinant. The first non-pivot column f of that echelon is
the first node row that depends mod p on the rows before it, and
`linalg.lift` rebuilds its combination over Q from the same echelon, p-adic
digit by digit, accepting it only if sum_{i<=f} y_i * row_i = 0 holds
exactly over the integers. Rows 0..f-1 are independent mod p, hence over
Q, and row f depends on them, so y is their unique combination: the
`dependency` of row f, scaled to 1 there, that an exact
`linalg.IntegerEchelon` of the rows finds, entry for entry. A lift that
finds nothing shows that row f is independent over Q; a later prime is
tried, skipped if its first dependent row comes no later, and after the
last prime that exact elimination decides, its vector, rescaled by the
row scales, the improper certificate; no rejected row means the set is
proper after all. `solve` lifts the solution through the same echelon
(`linalg.solve_transposed`) and falls back to `linalg.solution_set`.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from . import linalg
from .dimension import DegreeProfile, binom_e, dim_along
from .errors import (
    CountMismatchError,
    DimensionMismatchError,
    InputError,
    InsufficientIntersectionError,
    InternalCheckError,
    ParseError,
)
from .macaulay import Manifold, _selection, canonical_monomials
from .mpoly import (
    MultiIndex,
    Point,
    Polynomial,
    as_fraction,
    as_point,
    evaluation_rows,
    parse_polynomial,
    require_dense_size,
)


class NodeSet:
    """Ordered set of pairwise distinct rational points, optionally tagged
    with the manifold they are claimed to lie on (checked exactly, unless a
    checked set's `_subset`). It is immutable, so the tag stays a proof that
    every point zeroes the tag's polynomials (see `require_on`)."""

    __slots__ = ("n", "points", "manifold")
    n: int
    points: Tuple[Point, ...]
    manifold: Optional[Manifold]

    def __init__(self, points: Iterable[Sequence], manifold: Optional[Manifold] = None):
        pts = [as_point(p) for p in points]
        if not pts:
            n = manifold.n if manifold is not None else 0
        else:
            n = len(pts[0])
            for p in pts:
                if len(p) != n:
                    raise DimensionMismatchError("points of mixed dimension")
        seen = set()
        for p in pts:
            if p in seen:
                raise InputError(f"duplicate point {tuple(str(c) for c in p)}")
            seen.add(p)
        if manifold is not None:
            if pts and manifold.n != n:
                raise DimensionMismatchError("node/manifold dimension mismatch")
            manifold.require_on_manifold(pts)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "points", tuple(pts))
        object.__setattr__(self, "manifold", manifold)

    @classmethod
    def _subset(cls, points: Sequence[Point], manifold: Manifold) -> "NodeSet":
        """Points already known to lie on `manifold` (each checked there,
        drawn from sets checked on it or on a manifold with more
        polynomials, or proved on it by an exact solve), pairwise distinct,
        tagged without another check."""
        subset = object.__new__(cls)
        object.__setattr__(subset, "n", manifold.n)
        object.__setattr__(subset, "points", tuple(points))
        object.__setattr__(subset, "manifold", manifold)
        return subset

    def __setattr__(self, name, value):
        raise AttributeError("NodeSet is immutable")

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, point) -> bool:
        return as_point(point) in set(self.points)

    def require_on(self, manifold: Manifold) -> None:
        """OffManifoldError unless every point lies on `manifold`. A set whose
        tag has every one of `manifold`'s polynomials is not evaluated: a
        point that zeroes the tag's polynomials zeroes any subset of them."""
        tag = self.manifold
        if tag is None or not set(manifold.polynomials) <= set(tag.polynomials):
            manifold.require_on_manifold(self.points)

    def union(self, other: "NodeSet") -> "NodeSet":
        return NodeSet(self.points + other.points)

    def difference(self, other: "NodeSet") -> "NodeSet":
        drop = set(other.points)
        return NodeSet([p for p in self.points if p not in drop])

    def is_disjoint(self, other: "NodeSet") -> bool:
        return not (set(self.points) & set(other.points))

    def __repr__(self):
        return f"NodeSet({len(self.points)} points in dim {self.n})"


def evaluation_matrix(
    points: Sequence[Point], monomials: Sequence[MultiIndex]
) -> List[List[Fraction]]:
    return [
        [Fraction(v, scale) for v in row]
        for scale, row in evaluation_rows(points, monomials)
    ]


@dataclass(frozen=True, slots=True)
class PPSNCertificate:
    """Exact-rank certificate of (im)proper posedness at a stated degree:
    proper means the canonical N x N evaluation matrix is nonsingular, and
    `witness_columns` are the canonical monomials' full-basis indices.

    A proper verdict is proved by a rank of N modulo one of `linalg.PRIMES`
    (a nonzero determinant mod p is a nonzero integer) or by an exact
    elimination that finds no left kernel. An improper verdict carries the
    exact kernel functional: the combination lifted p-adically from one
    prime's elimination and checked exactly over the integers, or else the
    exact elimination's. The two are equal entry for entry. The fields are
    the same whichever path decided, and nothing else is kept: no instance
    dict, and one shared proper certificate per (leading forms, degree)."""

    degree: int
    n: int
    expected_count: int
    proper: bool
    witness_columns: Tuple[int, ...] = ()
    kernel_functional: Tuple[Fraction, ...] = ()

    @property
    def verdict(self) -> str:
        return "proper" if self.proper else "improper"


def verify_ppsn(
    nodes: NodeSet, manifold: Optional[Manifold], m: int
) -> PPSNCertificate:
    """Certify well-posedness of `nodes` at degree m along `manifold`
    (ambient space when manifold is None) by eliminating the square
    evaluation matrix over the canonical monomials: mod p first, exactly
    only when neither the rank mod p nor a lift from it settles the
    verdict. The checks first make the system square: N nodes, N the
    dimension along `manifold`, all on it."""
    if manifold is not None:
        n = manifold.n
        require_dense_size(n, m)  # before dim_along's table of m + 1 rows
        expected = dim_along(m, manifold.profile)
    else:
        if len(nodes) == 0 and m >= 0:
            raise InputError("ambient verification needs at least one node")
        n = nodes.n
        expected = binom_e(m, n)
    if len(nodes) != expected:
        if m < 0:
            raise CountMismatchError(
                f"degree m = {m} is negative: the node set must be empty, got {len(nodes)} nodes"
            )
        raise CountMismatchError(
            f"degree-{m} well-posedness needs exactly {expected} nodes, got {len(nodes)}"
        )
    if expected:
        if manifold is not None:
            nodes.require_on(manifold)
        if nodes.n != n:
            raise DimensionMismatchError("node/basis dimension mismatch")
    if expected == 0:  # m < 0: the zero space
        return PPSNCertificate(degree=m, n=n, expected_count=0, proper=True)
    system = _canonical_system(nodes, tuple(canonical_monomials(manifold, n, m)))
    kernel = system.kernel()
    if kernel is not None:
        # The canonical columns span the full-basis ones on manifold points,
        # so the left kernels agree. Row i is s_i times the rational row, so
        # a kernel vector w of the integer rows gives s_i * w_i on the
        # rational ones. The first dependent row f is w's last nonzero entry,
        # with w_f = 1, so dividing by s_f gives the first row's dependency
        # in the rational matrix, scaled to 1 on that row, entry for entry
        f = max(i for i, w in enumerate(kernel) if w)
        scales = system.scales
        return PPSNCertificate(
            degree=m,
            n=n,
            expected_count=expected,
            proper=False,
            kernel_functional=tuple(
                Fraction(w.numerator * s, w.denominator * scales[f]) for w, s in zip(kernel, scales)
            ),
        )
    forms, profile = (manifold.leading_forms, manifold.profile) if manifold else (None, None)
    return _proper_certificate(forms, profile, n, m)


# Keyed on the leading forms and the profile, which fix the selections, not
# on the Manifold: construct builds a fresh one per step. The selections are
# read from `_selection` directly; `canonical_monomials` has just looked up
# the same degrees through `select_monomials`, so these are never misses.
@functools.lru_cache(maxsize=64)
def _proper_certificate(
    leading_forms: Optional[Tuple[Polynomial, ...]], profile: Optional[DegreeProfile], n: int, m: int
) -> PPSNCertificate:
    """The proper certificate at degree m: one instance, shared by every set
    certified proper on equal leading forms (the ambient space when
    leading_forms is None) at degree m. Its witness columns are the
    full-basis indices of the canonical monomials of degrees <= m, one per
    node."""
    if leading_forms is None:
        columns = tuple(range(binom_e(m, n)))
    else:
        # the degree-t monomials start at index binom_e(t - 1, n) of the basis
        columns = tuple(
            binom_e(t - 1, n) + j
            for t in range(m + 1)
            for j in _selection(leading_forms, profile, t).unselected
        )
    return PPSNCertificate(
        degree=m, n=n, expected_count=len(columns), proper=True, witness_columns=columns
    )


class _CanonicalSystem:
    """The canonical square system A x = b of one node tuple, and both
    questions asked of it: is A singular (`kernel`), and what is A^-1 b
    (`solve`)? It keeps each node's row scale and exact integer row
    (`evaluation_rows`), their transpose, and the `linalg.row_reduce_mod`
    echelon of that transpose, with its steps, for each prime asked for so
    far. The first prime leaves A nonsingular unless it divides the
    determinant, so one factorization answers both questions: a rank of N
    proves A nonsingular, and `linalg.lift` builds either answer over Q
    from it, digit by digit mod p. A lifted answer is returned only after
    `linalg.satisfies` checks it over the integers; an exact
    `linalg.IntegerEchelon` is the last resort."""

    __slots__ = ("points", "scales", "rows", "transpose", "_echelons")

    def __init__(self, points: Tuple[Point, ...], columns: Sequence[MultiIndex]):
        self.points = points
        self.scales, self.rows = zip(*evaluation_rows(points, columns))
        self.transpose = tuple(zip(*self.rows))
        self._echelons: Dict[int, linalg.Echelon] = {}

    def echelon(self, p: int) -> linalg.Echelon:
        ech = self._echelons.get(p)
        if ech is None:
            ech = self._echelons[p] = linalg.row_reduce_mod(self.transpose, p)
        return ech

    def kernel(self) -> Optional[List[Fraction]]:
        """None when the rows are independent, otherwise the combination y
        with y_f = 1 of the first row f that depends on the rows before it,
        zero after f: lifted from one prime's echelon when it can be.

        The first non-pivot column f_p of a prime's echelon of the
        transpose is the first row dependent mod p, and a rank of N proves
        the rows independent. Rows 0..f_p-1 are independent mod p, hence
        over Q, so f_p <= f. The z with sum_{i<f_p} z_i row_i = -row_{f_p}
        solves a system whose columns are those rows, which the echelon's
        first f_p steps solve mod p (`linalg.solve_columns`); `linalg.lift`
        lifts it, with the Hadamard bound of rows 0..f_p (Cramer's rule on
        a nonsingular f_p x f_p minor), and returns it only if it holds
        exactly, so y = (z, 1) is row f's `dependency`, scaled to 1 there,
        entry for entry. A lift that finds nothing shows that f > f_p: had
        row f_p depended on the rows before it, its combination would have
        denominators prime to p (a minor of those rows is nonzero mod p)
        and be found within the bound. A later prime whose f_p is no larger
        is skipped. After the last prime an exact `linalg.IntegerEchelon`
        of the rows decides: the `dependency` of the first row it rejects,
        scaled to 1 on that row, or None."""
        N = len(self.rows)
        lower = 0  # f is at least this
        for p in linalg.PRIMES:
            ech = self.echelon(p)
            if ech.rank == N:
                return None  # the determinant is nonzero mod p
            f = next((i for i, c in enumerate(ech.pivot_columns) if c != i), ech.rank)
            if f < lower:
                continue
            z = linalg.lift(
                self.transpose,
                [-v for v in self.rows[f]],
                p,
                lambda r: linalg.solve_columns(ech, r, p, f),
                self.rows[: f + 1],
            )
            if z is not None:
                return z + [Fraction(1)] + [Fraction(0)] * (N - f - 1)
            lower = f + 1
        echelon = linalg.IntegerEchelon()
        for f, row in enumerate(self.rows):
            if not echelon.add(row):
                y = echelon.dependency
                return [Fraction(y.get(i, 0), y[f]) for i in range(N)]
        return None

    def solve(self, values: Sequence[Fraction]) -> List[Fraction]:
        """The unique x with (row_i / scale_i) . x = values_i for every node
        i, for a system that `verify_ppsn` certified proper.

        With D the common denominator of the scale_i * values_i, A x' = b
        has integer b_i = scale_i * values_i * D, and x = x' / D. The first
        prime that leaves A nonsingular lifts x' through its echelon of A^T
        (`linalg.solve_transposed`), with the Hadamard bound of [A | b]
        (Cramer's rule), and returns it only if it holds exactly: A is
        nonsingular over Q, so that x' is the unique solution. A prime
        that divides D needs no skipping: b is an integer vector. If no
        prime leaves A nonsingular, or the lift finds nothing, the one
        exact path runs: the `linalg.solution_set` of A x' = b, whose
        kernel is empty for a nonsingular A, and whose solution is None
        when A x' = b fails."""
        N = len(self.rows)
        # D is 1 when the values are a polynomial's with integer
        # coefficients; the denominator of scale_i * values_i divides D, so
        # b_i is an integer
        D = lcm(*(v.denominator // gcd(s, v.denominator) for s, v in zip(self.scales, values)))
        b = [s * v.numerator * D // v.denominator for s, v in zip(self.scales, values)]
        x = None
        for p in linalg.PRIMES:
            ech = self.echelon(p)
            if ech.rank == N:
                x = linalg.lift(
                    self.rows,
                    b,
                    p,
                    lambda r: linalg.solve_transposed(ech, r, p),
                    ((*row, v) for row, v in zip(self.rows, b)),
                )
                break
        if x is None:
            x, kernel = linalg.solution_set(self.rows, b)
            if kernel:
                raise InternalCheckError(
                    "canonical evaluation matrix is singular for a certified node set"
                )
            if x is None:
                raise InternalCheckError("interpolant misses a node value")
        return x if D == 1 else [v / D for v in x]


# The last few canonical systems. A `NodeSet` hashes by identity, so an
# equal but separately built set is evaluated again, and a kept entry keeps
# its set alive, so no other set can take that identity meanwhile. It is
# small on purpose: a caller that verifies and then interpolates on one set
# finds its system here, and nothing a caller keeps holds a factorization.
@functools.lru_cache(maxsize=4)
def _canonical_system(nodes: NodeSet, columns: Tuple[MultiIndex, ...]) -> _CanonicalSystem:
    """The square system of `nodes` over `columns`, built once for the last
    few (node set, columns) pairs asked for: `verify_ppsn` and then
    `construct.interpolate` on one set evaluate and eliminate once."""
    return _CanonicalSystem(nodes.points, columns)


# -- factorable-system intersection -----------------------------------------


class FactorableSystem:
    """n hypersurfaces, each given as a product of affine-linear forms."""

    def __init__(self, factors: Sequence[Sequence[Polynomial]]):
        self.factors: Tuple[Tuple[Polynomial, ...], ...] = tuple(
            tuple(fs) for fs in factors
        )
        if not self.factors:
            raise InputError("empty system")
        if not all(self.factors):
            raise InputError("hypersurface with no linear forms")
        n = self.factors[0][0].n
        self.n = n
        if len(self.factors) != n:
            raise InputError(
                f"a factorable system in dimension {n} needs exactly {n} hypersurfaces, "
                f"got {len(self.factors)}"
            )
        polys = []
        for fs in self.factors:
            prod = Polynomial.constant(n, 1)
            for form in fs:
                if form.n != n:
                    raise DimensionMismatchError("linear form dimension mismatch")
                if form.degree != 1:
                    raise InputError(f"factor {form} is not affine-linear")
                prod = prod * form
            polys.append(prod)
        self.polynomials: Tuple[Polynomial, ...] = tuple(polys)
        self._intersection: Optional[IntersectionReport] = None

    @property
    def degrees(self) -> Tuple[int, ...]:
        return tuple(len(fs) for fs in self.factors)

    def manifold(self) -> Manifold:
        """The 0-dimensional manifold cut out by all n product polynomials."""
        return Manifold(self.polynomials)

    def selections(
        self, omit: Optional[int] = None
    ) -> Iterator[Tuple[Tuple[int, ...], List[List[int]]]]:
        """Every choice of one linear form per hypersurface, skipping
        hypersurface `omit` (1-based) when given, as (choice, rows): choice
        holds the 1-based index of each chosen form, and the form
        a . x + c contributes the integer row [D a | -D c], D the form's
        denominator, which has the same solutions."""
        n = self.n
        kept = [fs for i, fs in enumerate(self.factors, 1) if i != omit]
        for combo in itertools.product(*[range(len(fs)) for fs in kept]):
            rows = []
            for fs, j in zip(kept, combo):
                row = [0] * (n + 1)
                for alpha, c in fs[j]._numerators()[1].items():
                    if sum(alpha):
                        row[alpha.index(1)] = c
                    else:
                        row[n] = -c
                rows.append(row)
            yield tuple(j + 1 for j in combo), rows


@dataclass(frozen=True)
class IntersectionReport:
    sufficient: bool
    nodes: Optional[NodeSet]
    failures: Tuple[str, ...]


def intersect_factorable(system: FactorableSystem) -> IntersectionReport:
    """Solve every choice of one linear form per hypersurface exactly.

    Sufficient intersection means every n x n selection system is uniquely
    solvable and all product-count points are pairwise distinct. The report
    is computed once per system and kept on it, so a caller and
    `construct.build_curve_chain` on one system share its points.
    """
    if system._intersection is not None:
        return system._intersection
    n = system.n
    failures: List[str] = []
    coincident: List[str] = []  # reported after every singular selection
    points: Dict[Point, Tuple[int, ...]] = {}
    # equal coordinates share one Fraction, which keeps the nodes small
    shared: Dict[Fraction, Fraction] = {}
    for choice, rows in system.selections():
        # A is n x n, so it is singular exactly when its kernel is not
        # empty; otherwise the solution is A^-1 b
        x, kernel = linalg.solution_set([row[:n] for row in rows], [row[n] for row in rows])
        if kernel:
            failures.append(
                f"selection {choice} is singular: "
                "point at infinity or a positive-dimensional component"
            )
            continue
        p = tuple(shared.setdefault(c, c) for c in x)
        if p in points:
            coincident.append(
                f"coincident intersection points (selections {points[p]} and {choice})"
            )
        else:
            points[p] = choice
    failures += coincident
    # on the manifold: solution_set checked A x = b exactly, so each point
    # zeroes one factor of every product
    nodes = None if failures else NodeSet._subset(tuple(points), system.manifold())
    system._intersection = IntersectionReport(not failures, nodes, tuple(failures))
    return system._intersection


# -- nested extraction -------------------------------------------------------


def nested_level(points: Iterable[Point], manifold: Manifold, d: int) -> List[Point]:
    """The degree-d level of `points`: the points whose rows over the
    canonical monomials of degrees <= d one greedy pass, in order, keeps
    until they span those t_d = dim_along(d) columns. A point's row is
    evaluated only when the point is offered, so `points` may be a lazy
    stream, read no further than the last point kept. Levels nest (see the
    module docstring)."""
    target = dim_along(d, manifold.profile)
    columns = tuple(canonical_monomials(manifold, manifold.n, d))
    tracker = linalg.IncrementalRank()
    kept: List[Point] = []
    for q in points:
        if tracker.add(evaluation_matrix([q], columns)[0]):
            kept.append(q)
            if tracker.rank == target:
                return kept
    raise InsufficientIntersectionError(
        f"rank {tracker.rank} < {target} at degree {d}: "
        "input was not a genuine sufficient intersection"
    )


def levels_upto(points: Sequence[Point], manifold: Manifold, top: int) -> List[List[Point]]:
    """[`nested_level(points, manifold, d)` for d in 0..top], read off one
    exact elimination: the points are evaluated once over the canonical
    columns of degree <= top, and those columns, in order, are the rows of
    A^T added to one `linalg.IntegerEchelon`. Level d is the points at its
    pivot columns once the first t_d = dim_along(d) rows are in.

    1. Greedy keeps a row of A_d (a point) exactly when it is independent
       of the rows before it, so `nested_level`'s points are the leftmost
       independent columns of A_d^T, which are `IntegerEchelon.columns`
       once the t_d rows of A_d^T are in.
    2. The canonical columns of degree <= d are the first t_d of those of
       degree <= top, so A_d^T is the first t_d rows of A^T.
    3. The one `evaluation_rows` batch gives each point one scale over all
       columns, which scales a column of A^T and leaves its pivots where
       they are. (Batches of different degrees would scale a point
       differently in different rows, which moves them.)

    A degree whose t_d rows have rank below t_d raises `nested_level`'s
    InsufficientIntersectionError, with the same message."""
    profile = manifold.profile
    columns = canonical_monomials(manifold, manifold.n, top)
    rows = [row for _, row in evaluation_rows(points, columns)]
    transpose = list(zip(*rows))
    echelon = linalg.IntegerEchelon()
    levels: List[List[Point]] = []
    added = 0
    for d in range(top + 1):
        t_d = dim_along(d, profile)
        for row in transpose[added:t_d]:
            echelon.add(row)
        added = t_d
        if echelon.rank < t_d:
            raise InsufficientIntersectionError(
                f"rank {echelon.rank} < {t_d} at degree {d}: "
                "input was not a genuine sufficient intersection"
            )
        levels.append([points[i] for i in echelon.columns])
    return levels


def _require_full_intersection(points: NodeSet, manifold: Manifold, what: str) -> None:
    """The hypothesis of nested extraction and of the Cayley-Bacharach
    procedures: `points` is the full N = k_1...k_n point intersection of
    the 0-dimensional `manifold`, and that intersection is finite and
    reduced. A manifold whose rank check below fails is refused with
    InsufficientIntersectionError, and one whose degree M + 1 is past the
    dense-size budget with InputError.

    Two checks prove it: N distinct points on the manifold, and the rank of
    the degree-(M+1) selection, M = sum(k_i) - n. Complete-intersection
    dimensions stop growing at M, so `_selection` expects the degree-(M+1)
    items to span every monomial of that degree; for n forms in n variables
    that is Macaulay's criterion for the leading forms to share no zero
    but the origin (a shared zero z != 0 would zero every item, yet not
    every x_j^(M+1)). So f_1..f_n have no zero at infinity, and by Bezout
    exactly N zeros counted with multiplicity: the N distinct points are
    all of them, each simple. What the constructions read from this:
    - the leading forms are a regular sequence, so every selection rank
      check passes and the f_i are an H-base (the paper's theorem): the
      points impose dim_along(m) conditions in degree m, all N from M on,
      so the whole set is properly posed at every m >= M;
    - the Cayley-Bacharach theorem holds for the points (`cb_reduce`).
    The selection is cached per leading forms, so the check runs once."""
    if manifold.s != manifold.n:
        raise InputError(f"{what} needs a 0-dimensional manifold (s = n)")
    profile = manifold.profile
    N = profile.N
    if len(points) != N:
        raise CountMismatchError(
            f"expected the full {N}-point intersection, got {len(points)} points"
        )
    points.require_on(manifold)
    _selection(manifold.leading_forms, profile, profile.M + 1)


def extract_nested_ppsn(points: NodeSet, manifold: Manifold, m: int) -> NodeSet:
    """Extract a degree-m properly posed subset of a full complete
    intersection, nested across degrees: `nested_level` of all N points,
    which the preamble proves proper from the saturation degree M on, so
    they are returned whole for m >= M. A row dependent on the rows before
    it over the columns of degree <= m + 1 stays dependent over those of
    degree <= m, so the level of degree m lies inside the level of degree
    m + 1."""
    _require_full_intersection(points, manifold, "nested extraction")
    if m < 0:
        raise InputError("extraction degree must be >= 0")
    if m >= manifold.profile.M:
        return points
    return NodeSet._subset(nested_level(points.points, manifold, m), manifold)


# -- text formats -------------------------------------------------------------


def content_lines(text: str) -> Iterator[Tuple[int, str]]:
    """(file line number, content) for every line that is not blank once
    its '#' comment is dropped."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_nodes_text(text: str) -> NodeSet:
    """One point per line, comma-separated rationals; '#' comments."""
    points: List[Point] = []
    for lineno, line in content_lines(text):
        try:
            coords = tuple(as_fraction(c.strip()) for c in line.split(","))
        except ParseError as exc:
            raise ParseError(f"bad point on line {lineno}: {exc}") from exc
        points.append(coords)
    return NodeSet(points)


def format_nodes(nodes: NodeSet) -> str:
    return "\n".join(",".join(str(c) for c in p) for p in nodes.points)


def split_top_level_factors(line: str) -> List[str]:
    """Split a '*'-joined product on separators outside parentheses."""
    parts: List[str] = []
    depth = 0
    current: List[str] = []
    for ch in line:
        if ch == "(":
            depth += 1
            if depth == 1:
                continue
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced ')'")
            if depth == 0:
                continue
        elif ch == "*" and depth == 0:
            parts.append("".join(current))
            current = []
            continue
        current.append(ch)
    if depth != 0:
        raise ParseError("unbalanced '('")
    parts.append("".join(current))
    return [p.strip() for p in parts if p.strip()]


def parse_system_text(text: str) -> FactorableSystem:
    """One hypersurface per line: '*'-joined linear forms; any form with
    more than one term must be parenthesized."""
    lines = list(content_lines(text))
    if not lines:
        raise ParseError("empty system file")
    n = len(lines)
    factors = []
    for lineno, line in lines:
        forms = []
        try:
            pieces = split_top_level_factors(line)
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
        for piece in pieces:
            try:
                form = parse_polynomial(piece, n)
            except ParseError as exc:
                raise ParseError(f"line {lineno}: factor {piece!r}: {exc}") from exc
            if form.degree != 1:
                raise ParseError(
                    f"line {lineno}: factor {piece!r} is not affine-linear"
                )
            forms.append(form)
        factors.append(forms)
    return FactorableSystem(factors)
