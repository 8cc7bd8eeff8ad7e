"""Node sets, exact evaluation matrices, properly-posed certificates,
factorable-system intersection, and nested extraction from complete
intersections.

Membership has one rule, `NodeSet.require_on`, which evaluates only sets
not tagged with the manifold in hand. Nested extraction and the
Cayley-Bacharach procedures share one preamble, `_require_full_intersection`.

Well-posedness along a manifold follows the solvability definition. On the
manifold's points the canonical (unselected) monomials of degrees <= m span
the degree-<=m polynomials, so N points are properly posed at degree m
exactly when their N x N evaluation matrix over the canonical monomials,
the system `construct.interpolate` solves, is nonsingular (in the ambient
case these monomials are the full basis). Certificates carry either the
canonical support's indices in the full basis or an explicit nonzero row
functional annihilating every row.

Evaluation rows are built over Python ints (`evaluation_rows`): a point q
with common denominator B is written q = c / B, and its row over monomials
of degree <= d is B^d times the rational row, entry c^alpha * B^(d-|alpha|).
Scaling a row by a nonzero constant changes neither the pivots nor the RREF
of `linalg.row_reduce`, so rank certificates and interpolants come straight
from the integer rows; `evaluation_matrix` divides them back out for callers
that need the rational entries. A cached plan per monomial tuple
(`_evaluation_plan`) gives each c^alpha as its parent's value times one
coordinate: the parent of alpha is alpha - e_j, j its first variable. The
plan runs over the monomials closed under taking parents, which canonical
sets already are (the selected monomials form a monomial ideal), and the
closure keeps any other input correct.

`verify_ppsn` and `construct.interpolate` share one factorization. A
small memo (`_canonical_system`, the last `_SYSTEMS_KEPT` systems, keyed on
the identity of the node tuple and on the columns) keeps each system's row
scales, exact integer rows and, per prime, the `linalg.row_reduce_mod`
echelon of the transpose with its recorded steps. The interpolant's
solve mod p reads that echelon (`linalg.solve_transposed`), so a verify
followed by an interpolate on one node set evaluates and eliminates once.
Nothing is stored on a certificate or a `NodeSet`, so what a caller keeps
holds no factorization, and an evicted system is simply built again.

`verify_ppsn` eliminates the transpose of the integer rows mod the
word-size prime `linalg.PRIMES[0]`; the transpose has the matrix's rank. A
rank of N means the N x N integer determinant is nonzero mod p, hence
nonzero: the set is proper, with no trust in the prime. A smaller rank is
either a genuinely improper set or a prime dividing the determinant. The
first non-pivot column f of that echelon is the first node row that
depends mod p on the rows before it, and back-substitution over the first
f echelon rows gives the combination y mod p with y_f = 1. The primes
combine by the Chinese remainder theorem (a prime with a larger f restarts
the combination, one with a smaller f is skipped, and one with rank N
proves the set proper), y is rebuilt by `linalg.rational_reconstruct`, and
it is accepted only if sum_{i<=f} y_i * row_i = 0 holds exactly over the
integers. Rows 0..f-1 are independent mod p, hence over Q, and row f depends
on them, so y is their unique combination: the vector that the exact
`linalg.left_null_vector` returns, entry for entry. Anything else falls back
to that exact elimination, whose kernel vector, rescaled by the row scales,
is the improper certificate; no kernel vector means the set is proper after
all.
"""

from __future__ import annotations

import functools
import itertools
import threading
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from . import linalg
from .dimension import binom_e, dim_along
from .errors import (
    CountMismatchError,
    DimensionMismatchError,
    InputError,
    InsufficientIntersectionError,
    ParseError,
)
from .macaulay import Manifold, canonical_monomials, select_monomials
from .mpoly import (
    MultiIndex,
    Point,
    Polynomial,
    as_fraction,
    as_point,
    parse_polynomial,
    require_dense_size,
)


class NodeSet:
    """Ordered set of pairwise distinct rational points, optionally tagged
    with the manifold they are claimed to lie on (checked exactly). It is
    immutable, so the tag stays a proof: `require_on` skips the membership
    check for a set tagged with the very manifold it is asked about."""

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

    def __setattr__(self, name, value):
        raise AttributeError("NodeSet is immutable")

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, point) -> bool:
        return as_point(point) in set(self.points)

    def require_on(self, manifold: Manifold) -> None:
        """OffManifoldError unless every point lies on `manifold`."""
        if self.manifold is not manifold:
            manifold.require_on_manifold(self.points)

    def union(self, other: "NodeSet", manifold: Optional[Manifold] = None) -> "NodeSet":
        return NodeSet(self.points + other.points, manifold)

    def difference(self, other: "NodeSet") -> "NodeSet":
        drop = set(other.points)
        return NodeSet([p for p in self.points if p not in drop])

    def is_disjoint(self, other: "NodeSet") -> bool:
        return not (set(self.points) & set(other.points))

    def __repr__(self):
        return f"NodeSet({len(self.points)} points in dim {self.n})"


def _powers(x: int, top: int) -> List[int]:
    """[1, x, x^2, ..., x^top] by repeated multiplication."""
    out = [1]
    for _ in range(top):
        out.append(out[-1] * x)
    return out


def _parent(alpha: MultiIndex) -> Tuple[MultiIndex, int]:
    """(alpha - e_j, j) for j the first variable of the nonconstant alpha."""
    j = next(j for j, e in enumerate(alpha) if e)
    return alpha[:j] + (alpha[j] - 1,) + alpha[j + 1 :], j


@functools.lru_cache(maxsize=256)
def _evaluation_plan(
    monomials: Tuple[MultiIndex, ...]
) -> Tuple[int, Tuple[Tuple[int, int], ...], Tuple[Tuple[int, int], ...]]:
    """(d, steps, picks) for `evaluation_rows`, keyed on the monomials
    alone, never on the points. d is the largest monomial degree. The
    closure of `monomials` under taking parents is listed by degree, the
    constant first; steps[k] = (closure index of the parent, j) for closure
    entry k + 1, and picks[i] = (closure index, d - |alpha|) for
    alpha = monomials[i]."""
    closure = set()
    for alpha in monomials:
        while alpha not in closure:
            closure.add(alpha)
            if not any(alpha):
                break
            alpha = _parent(alpha)[0]
    order = sorted(closure, key=lambda alpha: (sum(alpha), alpha))
    index = {alpha: k for k, alpha in enumerate(order)}
    steps = []
    for alpha in order[1:]:
        parent, j = _parent(alpha)
        steps.append((index[parent], j))
    d = max(map(sum, monomials), default=0)
    picks = tuple((index[alpha], d - sum(alpha)) for alpha in monomials)
    return d, tuple(steps), picks


def evaluation_rows(
    points: Sequence[Point], monomials: Sequence[MultiIndex]
) -> List[Tuple[int, List[int]]]:
    """(scale, row) per point, where row / scale is the point's exact
    evaluation row: with B the lcm of the coordinate denominators, c = B*q
    and d the largest monomial degree, the entry for alpha is
    c^alpha * B^(d-|alpha|) and scale = B^d. c^alpha is its parent's value
    times one coordinate, over the plan's closure (`_evaluation_plan`)."""
    d, steps, picks = _evaluation_plan(tuple(monomials))
    out = []
    for q in points:
        B = lcm(*(x.denominator for x in q))
        c = [x.numerator * (B // x.denominator) for x in q]
        b_powers = _powers(B, d)
        values = [1]
        for parent, j in steps:
            values.append(values[parent] * c[j])
        out.append((b_powers[d], [values[k] * b_powers[e] for k, e in picks]))
    return out


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
    exact kernel functional: the combination rebuilt from the primes and
    checked exactly over the integers, or else the exact elimination's. The
    two are equal entry for entry. The fields are the same whichever path
    decided, and nothing else is kept: no instance dict, and one shared
    `witness_columns` tuple per (manifold, degree)."""

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
    only when the primes leave the verdict open. The checks first make the
    system square: N nodes, N the dimension along `manifold`, all on it."""
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
    columns = canonical_monomials(manifold, n, m)
    system = _canonical_system(nodes, columns)
    kernel = _left_kernel(system)
    if kernel is not None:
        # The canonical columns span the full-basis ones on manifold points,
        # so the left kernels agree. Row i is s_i times the rational row, so
        # a kernel vector w of the integer rows gives s_i * w_i on the
        # rational ones. The first dependent row f is w's last nonzero entry,
        # with w_f = 1, so dividing by s_f gives the vector that
        # `left_null_vector` returns for the rational matrix, entry for entry
        f = max(i for i, w in enumerate(kernel) if w)
        scales = system.scales
        return PPSNCertificate(
            degree=m,
            n=n,
            expected_count=expected,
            proper=False,
            kernel_functional=tuple(w * s / scales[f] for w, s in zip(kernel, scales)),
        )
    return PPSNCertificate(
        degree=m,
        n=n,
        expected_count=expected,
        proper=True,
        witness_columns=_witness_columns(manifold, n, m),
    )


@functools.lru_cache(maxsize=16)
def _witness_columns(manifold: Optional[Manifold], n: int, m: int) -> Tuple[int, ...]:
    """The full-basis indices of the canonical monomials of degrees <= m:
    one tuple, shared by every proper certificate at (manifold, m)."""
    if manifold is None:
        return tuple(range(binom_e(m, n)))  # the columns are the full basis
    # the degree-t monomials start at index binom_e(t - 1, n) of the basis
    return tuple(
        binom_e(t - 1, n) + j
        for t in range(m + 1)
        for j in select_monomials(manifold, t).unselected
    )


class _CanonicalSystem:
    """The canonical square system of one node tuple: each node's row scale
    and exact integer row (`evaluation_rows`), their transpose, and the
    `linalg.row_reduce_mod` echelon of that transpose, with its steps, for
    each prime asked for so far."""

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


# The last few canonical systems, keyed on the identity of the node tuple
# and on the columns. An entry keeps its node tuple alive, so no other tuple
# can take that identity while the entry is kept. It is small on purpose: a
# caller that verifies and then interpolates on one set finds its system
# here, and nothing a caller keeps holds on to a factorization. The lock
# makes look-up, eviction and insertion one step for callers on several
# threads.
_SYSTEMS: Dict[Tuple[int, Tuple[MultiIndex, ...]], _CanonicalSystem] = {}
_SYSTEMS_KEPT = 4
_SYSTEMS_LOCK = threading.Lock()


def _canonical_system(nodes: NodeSet, columns: Sequence[MultiIndex]) -> _CanonicalSystem:
    """The square system of `nodes` over `columns`, built once for the last
    `_SYSTEMS_KEPT` node tuples asked for: `verify_ppsn` and then
    `construct.interpolate` on one set evaluate and eliminate once."""
    columns = tuple(columns)
    key = (id(nodes.points), columns)
    with _SYSTEMS_LOCK:
        system = _SYSTEMS.get(key)
        if system is None:
            if len(_SYSTEMS) >= _SYSTEMS_KEPT:
                del _SYSTEMS[next(iter(_SYSTEMS))]  # the oldest
            system = _SYSTEMS[key] = _CanonicalSystem(nodes.points, columns)
    return system


def _left_kernel(system: _CanonicalSystem) -> Optional[List[Fraction]]:
    """`linalg.left_null_vector(system.rows)`, found mod `linalg.PRIMES`
    when it can be: None when the rows are independent, otherwise the
    combination y with y_f = 1 of the first row f that depends on the rows
    before it, zero after f.

    Each prime's echelon of the transpose comes from the system, so a later
    solve mod that prime eliminates nothing again. Its first non-pivot
    column is the first row f_p dependent mod p, and a rank of N proves the
    rows independent. A row dependent over Q stays dependent mod p, so f_p
    is at most f over Q: a larger f_p restarts the combination and a
    smaller one is skipped. The first f_p echelon rows read
    x_i + sum_{i<j<f_p} e_ij x_j = e_if_p, solved by `back_substitute`, and
    y = (-x, 1). The rebuilt y is returned only if sum_{i<=f} y_i * row_i = 0
    over the integers; otherwise, after the last prime, the exact
    `left_null_vector` decides."""
    rows, transpose = system.rows, system.transpose
    N = len(rows)
    residues: List[int] = []
    modulus, f = 1, -1
    for p in linalg.PRIMES:
        ech = system.echelon(p)
        if ech.rank == N:
            return None  # the determinant is nonzero mod p
        g = next((i for i, c in enumerate(ech.pivot_columns) if c != i), ech.rank)
        if g < f:
            continue
        if g > f:
            residues, modulus, f = [0] * g, 1, g
        x = linalg.back_substitute(ech.ints[:f], p)
        residues = linalg.crt(residues, modulus, [-u for u in x], p)
        modulus *= p
        y = [linalg.rational_reconstruct(u, modulus) for u in residues]
        if any(v is None for v in y):
            continue
        y.append(Fraction(1))
        D = lcm(*(v.denominator for v in y))
        scaled = [v.numerator * (D // v.denominator) for v in y]
        # map stops after f + 1 entries: column j of rows 0..f times D*y
        if not any(sum(map(mul, column, scaled)) for column in transpose):
            return y + [Fraction(0)] * (N - f - 1)
    return linalg.left_null_vector(rows)


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

    @property
    def degrees(self) -> Tuple[int, ...]:
        return tuple(len(fs) for fs in self.factors)

    def manifold(self) -> Manifold:
        """The 0-dimensional manifold cut out by all n product polynomials."""
        return Manifold(self.polynomials)

    def selections(
        self, omit: Optional[int] = None
    ) -> Iterator[Tuple[Tuple[int, ...], List[List[Fraction]]]]:
        """Every choice of one linear form per hypersurface, skipping
        hypersurface `omit` (1-based) when given, as (choice, rows): choice
        holds the 1-based index of each chosen form, and the form
        a . x + c contributes the row [a | -c]."""
        n = self.n
        kept = [fs for i, fs in enumerate(self.factors, 1) if i != omit]
        for combo in itertools.product(*[range(len(fs)) for fs in kept]):
            rows = []
            for fs, j in zip(kept, combo):
                row = [Fraction(0)] * (n + 1)
                for alpha, c in fs[j].terms.items():
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
    solvable and all product-count points are pairwise distinct.
    """
    n = system.n
    failures: List[str] = []
    coincident: List[str] = []  # reported after every singular selection
    points: Dict[Point, Tuple[int, ...]] = {}
    for choice, rows in system.selections():
        # one elimination of [A | b]: A is n x n, so it is singular exactly
        # when fewer than n pivots fall in its columns; otherwise row i of the
        # RREF is e_i | x_i
        ech = linalg.row_reduce(rows)
        if sum(c < n for c in ech.pivot_columns) < n:
            failures.append(
                f"selection {choice} is singular: "
                "point at infinity or a positive-dimensional component"
            )
            continue
        p = tuple(ech.column(n))
        if p in points:
            coincident.append(
                f"coincident intersection points (selections {points[p]} and {choice})"
            )
        else:
            points[p] = choice
    failures += coincident
    if failures:
        return IntersectionReport(sufficient=False, nodes=None, failures=tuple(failures))
    return IntersectionReport(
        sufficient=True,
        nodes=NodeSet(list(points), system.manifold()),
        failures=(),
    )


# -- nested extraction -------------------------------------------------------


def nested_levels(
    points: Sequence[Point], manifold: Manifold, top: int, bottom: int
) -> Iterator[Tuple[int, List[int]]]:
    """The greedy nested descent: (d, kept row indices) for each degree d
    from top-1 down to bottom.

    `points` must be properly posed at degree `top` along `manifold`. Each
    step greedily keeps, among the rows kept one degree higher, rows spanning
    the leading columns of the evaluation matrix over the unselected-monomial
    sequence. Determinism makes every level a subset of the one above it.
    """
    if bottom >= top:
        return
    columns = canonical_monomials(manifold, manifold.n, top)
    if len(columns) != len(points):
        raise InsufficientIntersectionError(
            f"unselected-monomial count {len(columns)} differs from N={len(points)}"
        )
    matrix = evaluation_matrix(points, columns)
    selected = list(range(len(points)))
    for d in range(top - 1, bottom - 1, -1):
        target = dim_along(d, manifold.profile)
        tracker = linalg.IncrementalRank()
        keep: List[int] = []
        for r in selected:
            if tracker.add(matrix[r][:target]):
                keep.append(r)
            if tracker.rank == target:
                break
        if tracker.rank != target:
            raise InsufficientIntersectionError(
                f"rank {tracker.rank} < {target} at degree {d}: "
                "input was not a genuine sufficient intersection"
            )
        selected = keep
        yield d, selected


def _require_full_intersection(points: NodeSet, manifold: Manifold, what: str) -> None:
    """The hypothesis of nested extraction and of the Cayley-Bacharach
    procedures: `points` is the full N = k_1...k_n point intersection of
    the 0-dimensional `manifold`."""
    if manifold.s != manifold.n:
        raise InputError(f"{what} needs a 0-dimensional manifold (s = n)")
    N = manifold.profile.N
    if len(points) != N:
        raise CountMismatchError(
            f"expected the full {N}-point intersection, got {len(points)} points"
        )
    points.require_on(manifold)


def extract_nested_ppsn(points: NodeSet, manifold: Manifold, m: int) -> NodeSet:
    """Extract a degree-m properly posed subset of a full complete
    intersection, nested across degrees: the last level of the descent from
    the saturation degree M, where all points are proper."""
    _require_full_intersection(points, manifold, "nested extraction")
    if m < 0:
        raise InputError("extraction degree must be >= 0")
    M = manifold.profile.M
    if m >= M:
        return points
    for _, selected in nested_levels(points.points, manifold, M, m):
        pass
    return NodeSet([points.points[r] for r in selected], manifold)


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
