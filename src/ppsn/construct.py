"""Constructive procedures: exact interpolation, the superposition process,
curve chains, Cayley-Bacharach reduction/extension, and the classical
line/conic node generators.

Every construction returns its result together with an exact-rank
certificate, and refusals are exceptions, so a returned node set is always
certified. A set the caller supplies is certified by `verify_ppsn`, through
one step, `_certified`, which refuses an improper one. A set the
construction builds is certified by the theorem that builds it, with no
second elimination: a superposed union by the superposition theorem
(`_superpose`), a Cayley-Bacharach remainder by the Cayley-Bacharach
theorem (`cb_reduce`), a curve extension by the two in turn
(`cb_extend_curve`), and a level chosen by an exact elimination by that
elimination's rank. Each proof is in its function's docstring. Membership
follows the same rule: a set proved on a manifold by an exact solve (the
points of a curve's lines) or as a subset of a checked set (a removed
set, a level, a remainder) is tagged without evaluation.

A curve chain reads every level of the intersection, of its anchor and of
its one fresh curve set (drawn at the top degree by `nodes.nested_level`
from a lazy stream) off `nodes.levels_upto`, one exact elimination per
set; the anchor ({x0} superposed onto a level of the points) and the
levels above it are superposed unions, so a chain runs no `verify_ppsn`.
`cb_reduce`, `cb_check` and `cb_extend_curve` open with
`nodes._require_full_intersection`, which proves their input the full,
finite and reduced point intersection of a 0-dimensional manifold.
`interpolate` checks its hypotheses, certifies the nodes with
`verify_ppsn` and asks the canonical square system that `verify_ppsn` has
just built, kept by the memo in `nodes`, for its solution
(`_CanonicalSystem.solve`), so the nodes are evaluated and eliminated once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from . import linalg
from .dimension import binom_e, dim_along
from .errors import (
    CountMismatchError,
    HypothesisError,
    ImproperNodeSetError,
    InputError,
    InsufficientIntersectionError,
    InternalCheckError,
)
from .macaulay import Manifold, canonical_monomials
from .mpoly import Point, Polynomial, as_fraction, as_point, monomial_basis, require_dense_size
from .nodes import (
    FactorableSystem,
    NodeSet,
    PPSNCertificate,
    _canonical_system,
    _proper_certificate,
    _require_full_intersection,
    evaluation_rows,
    intersect_factorable,
    levels_upto,
    nested_level,
    verify_ppsn,
)


def _certified(nodes: NodeSet, manifold: Optional[Manifold], m: int, message: str) -> PPSNCertificate:
    """`verify_ppsn`'s certificate of a properly posed set; otherwise
    ImproperNodeSetError carrying the improper certificate and `message`."""
    cert = verify_ppsn(nodes, manifold, m)
    if not cert.proper:
        raise ImproperNodeSetError(cert, message)
    return cert


# -- interpolation ------------------------------------------------------------


@dataclass(frozen=True)
class InterpolationProblem:
    """Nodes, aligned values, a degree, and an optional manifold (None for
    the ambient space)."""

    manifold: Optional[Manifold]
    m: int
    nodes: NodeSet
    values: Tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "values", tuple(as_fraction(v) for v in self.values)
        )
        if len(self.values) != len(self.nodes):
            raise CountMismatchError(
                f"{len(self.nodes)} nodes but {len(self.values)} values"
            )


def interpolate(
    problem: InterpolationProblem,
    certificate: Optional[PPSNCertificate] = None,
) -> Polynomial:
    """The canonical interpolant: its support is restricted to the
    unselected monomials of degrees <= m, which makes it the unique
    representative in the canonical remainder space.

    The coefficients come from `_canonical_system(...).solve`: lifted
    p-adically from the one elimination mod the first word-size prime in
    `linalg.PRIMES` that leaves the system nonsingular, returned only when
    they solve every node equation exactly, and solved exactly otherwise.
    After `verify_ppsn` on the same node set the evaluation rows and the
    elimination are not made again. Without a certificate, `interpolate`
    runs `verify_ppsn` itself, and the solve reads the echelon it made."""
    manifold, m, nodes = problem.manifold, problem.m, problem.nodes
    if manifold is not None:
        n = manifold.n
    elif len(nodes):
        n = nodes.n
    else:
        raise InputError("cannot infer the ambient dimension from an empty problem")
    if m < 0:
        if len(nodes):
            raise CountMismatchError("negative degree admits only the empty node set")
        return Polynomial.zero(n)
    if certificate is None:
        certificate = verify_ppsn(nodes, manifold, m)
    if not certificate.proper:
        raise ImproperNodeSetError(certificate)
    columns = tuple(canonical_monomials(manifold, n, m))
    if len(columns) != len(nodes):
        raise InternalCheckError("canonical support size differs from node count")
    coeffs = _canonical_system(nodes, columns).solve(problem.values)
    return Polynomial._trusted(n, dict(zip(columns, coeffs)))


# -- superposition -------------------------------------------------------------


@dataclass(frozen=True)
class SuperpositionStep:
    """One application of the superposition process.

    `sub_manifold` is cut out by f_1..f_s; its last polynomial f_s is the
    splitting polynomial. `sub_nodes` is a degree-m node set on it;
    `super_nodes` is a degree-(m - deg f_s) node set on the larger manifold
    cut out by f_1..f_{s-1} (the ambient space when s = 1), off f_s = 0.
    """

    sub_manifold: Manifold
    sub_nodes: NodeSet
    super_nodes: NodeSet
    m: int

    @property
    def splitting_poly(self) -> Polynomial:
        return self.sub_manifold.polynomials[-1]

    @property
    def super_manifold(self) -> Optional[Manifold]:
        if self.sub_manifold.s == 1:
            return None
        return Manifold(self.sub_manifold.polynomials[:-1])


def superpose_nodes(step: SuperpositionStep) -> Tuple[NodeSet, PPSNCertificate]:
    """Union of a PPSN on the sub-manifold and a lower-degree PPSN on the
    larger manifold, certified at degree m on the larger manifold by the
    superposition theorem (`_superpose`) and tagged with it."""
    return _superpose(step)[:2]


def _superpose(
    step: SuperpositionStep,
    sub_cert: Optional[PPSNCertificate] = None,
    super_cert: Optional[PPSNCertificate] = None,
) -> Tuple[NodeSet, PPSNCertificate, PPSNCertificate, Optional[PPSNCertificate]]:
    """`superpose_nodes`, also returning the sub and super sets' certificates
    (None for the super set when m < deg f_s), so `superpose_interpolate`
    does not certify them again. A caller that holds a proper certificate
    of either set, and so knows that set lies on its manifold, passes it,
    and that set is not certified again.

    The union is certified by the superposition theorem, with no
    elimination and no membership check. Let A, the sub set, be proper at
    degree m on S' = S n {f_s = 0}, and B, the super set, proper at degree
    m - k on S, with k = deg f_s and f_s(b) != 0 at every b in B. Then:
    - A u B has dim_along(m, S) points: |A| + |B| = dim_along(m, S') +
      dim_along(m - k, S), which is f_s's backward-difference step;
    - A u B lies on S, and A and B are disjoint, since f_s vanishes on A
      and nowhere on B;
    - any values v on A u B are met in degree m: A's canonical system
      gives g of degree <= m with g = v on A, B's gives alpha of degree
      <= m - k with alpha = (v - g) / f_s on B, and g + alpha * f_s, of
      degree <= m, is v on both (the two stages of `superpose_interpolate`);
    - on S's points the canonical monomials of degrees <= m span every
      polynomial of degree <= m (`reduce_modulo`'s degree-respecting
      descent), and there are dim_along(m, S) of them once S's selection
      rank checks pass up to degree m, which `_proper_certificate` runs.
    So the square canonical matrix of A u B on S has full rank: A u B is
    proper at degree m on S, and its certificate is S's proper one."""
    f_s = step.splitting_poly
    k_s = f_s.degree
    m = step.m
    if sub_cert is None:
        sub_cert = _certified(step.sub_nodes, step.sub_manifold, m, "sub-manifold node set is improper")
    super_manifold = step.super_manifold
    if m - k_s < 0:
        if len(step.super_nodes):
            raise CountMismatchError(
                "degree m - k is negative: the larger-manifold node set must be empty"
            )
    elif super_cert is None:
        super_cert = _certified(
            step.super_nodes, super_manifold, m - k_s, "larger-manifold node set is improper"
        )
    for q in step.super_nodes:
        if f_s.evaluate(q) == 0:
            raise HypothesisError(
                f"splitting polynomial vanishes at {tuple(str(c) for c in q)}"
            )
    if super_manifold is None:
        union = step.sub_nodes.union(step.super_nodes)
        cert = _proper_certificate(None, None, step.sub_manifold.n, m)
    else:
        union = NodeSet._subset(step.sub_nodes.points + step.super_nodes.points, super_manifold)
        cert = _proper_certificate(
            super_manifold.leading_forms, super_manifold.profile, super_manifold.n, m
        )
    return union, cert, sub_cert, super_cert


def superpose_interpolate(
    step: SuperpositionStep, values: Sequence
) -> Polynomial:
    """Two-stage interpolation: solve on the sub-manifold, divide the
    residues by the splitting polynomial, solve the quotient problem on the
    larger manifold, and recombine."""
    union, _, sub_cert, super_cert = _superpose(step)
    vals = tuple(as_fraction(v) for v in values)
    if len(vals) != len(union):
        raise CountMismatchError(f"{len(union)} nodes but {len(vals)} values")
    n_sub = len(step.sub_nodes)
    g_m = interpolate(
        InterpolationProblem(
            manifold=step.sub_manifold,
            m=step.m,
            nodes=step.sub_nodes,
            values=vals[:n_sub],
        ),
        sub_cert,
    )
    f_s = step.splitting_poly
    k_s = f_s.degree
    if step.m - k_s < 0 or len(step.super_nodes) == 0:
        alpha = Polynomial.zero(g_m.n)
    else:
        quotient_values = [
            (v - g_m.evaluate(q)) / f_s.evaluate(q)
            for q, v in zip(step.super_nodes, vals[n_sub:])
        ]
        alpha = interpolate(
            InterpolationProblem(
                manifold=step.super_manifold,
                m=step.m - k_s,
                nodes=step.super_nodes,
                values=tuple(quotient_values),
            ),
            super_cert,
        )
    result = g_m + alpha * f_s
    for q, v in zip(union, vals):
        if result.evaluate(q) != v:
            raise InternalCheckError("superposed interpolant misses a node value")
    return result


# -- classical node generators --------------------------------------------------


def gen_line_nodes(
    base: Sequence,
    direction: Sequence,
    m: int,
    params: Optional[Sequence] = None,
) -> NodeSet:
    """m+1 points base + t * direction at distinct rational parameters."""
    base_pt = as_point(base)
    dir_vec = as_point(direction)
    if all(d == 0 for d in dir_vec):
        raise InputError("direction must be nonzero")
    if params is None:
        params = range(m + 1)
    ts = [as_fraction(t) for t in params]
    if len(set(ts)) != len(ts):
        raise InputError("repeated parameters")
    if len(ts) != m + 1:
        raise CountMismatchError(f"need {m + 1} parameters, got {len(ts)}")
    return NodeSet([tuple(b + t * d for b, d in zip(base_pt, dir_vec)) for t in ts])


def gen_conic_nodes(m: int, params: Optional[Sequence] = None) -> NodeSet:
    """2m+1 points (t, t^2) on the parabola x2 = x1^2 at distinct parameters.

    Default parameters are 0, 1, -1, 2, -2, ...
    """
    count = 2 * m + 1
    if params is None:
        params = [0]
        step = 1
        while len(params) < count:
            params.extend([step, -step])
            step += 1
        params = params[:count]
    ts = [as_fraction(t) for t in params]
    if len(set(ts)) != len(ts):
        raise InputError("repeated parameters")
    if len(ts) != count:
        raise CountMismatchError(f"need {count} parameters, got {len(ts)}")
    return NodeSet([(t, t * t) for t in ts])


def parabola_manifold() -> Manifold:
    """The fixture conic x2 - x1^2 = 0 with a completing witness line."""
    n = 2
    f = Polynomial(n, {(0, 1): Fraction(1), (2, 0): Fraction(-1)})
    # leading forms (-x1^2, x2) vanish jointly only at the origin
    witness = Polynomial(n, {(0, 1): Fraction(1), (0, 0): Fraction(-1)})
    return Manifold([f], witnesses=(witness,))


# -- Cayley-Bacharach ------------------------------------------------------------


@dataclass(frozen=True)
class CBPartition:
    """A complete intersection split into a removed subset and the rest."""

    full: NodeSet
    removed: NodeSet

    def __post_init__(self):
        full_set = set(self.full.points)
        for q in self.removed:
            if q not in full_set:
                raise InputError(
                    f"removed point {tuple(str(c) for c in q)} is not in the intersection"
                )

    @property
    def remaining(self) -> NodeSet:
        return self.full.difference(self.removed)


def cb_reduce(
    partition: CBPartition, manifold: Manifold, m: int
) -> Tuple[NodeSet, PPSNCertificate]:
    """Remove a complementary-degree PPSN from a complete intersection and
    certify what is left at degree m, -1 <= m <= M - 1, by the
    Cayley-Bacharach theorem rather than an elimination.

    CB7 of Eisenbud, Green & Harris (Bull. AMS 33, 1996): if a finite,
    reduced complete intersection G of hypersurfaces of degrees k_i is the
    disjoint union of G' and G'', then for m >= 0
    h_G(m) - h_G'(m) = |G''| - h_G''(M - m - 1), M = sum(k_i) - n, where
    h_X(d) is the number of conditions X imposes on polynomials of degree
    <= d (the degree-d forms of the projective closure, since no point of
    G lies at infinity). The preamble proves `partition.full` such a G, and
    that h_G(m) = dim_along(m). The removed set G'' is certified proper at
    M - m - 1, so h_G''(M - m - 1) = |G''|, and the remainder G' imposes
    h_G'(m) = dim_along(m) conditions, one per point (the count is checked):
    it is proper at degree m on the manifold, and its certificate is the
    manifold's proper one. At m = -1 a G'' proper at M has dim_along(M) = N
    points: it is all of G, and the empty remainder is proper at degree -1.

    G'' lies on the manifold without an evaluation: `CBPartition` proved it
    a subset of G, which the preamble checked there."""
    _require_full_intersection(partition.full, manifold, "Cayley-Bacharach reduction")
    profile = manifold.profile
    M = profile.M
    if not -1 <= m <= M - 1:
        raise InputError(f"degree m={m} out of range -1..{M - 1}")
    comp_degree = M - m - 1
    message = f"removed set is not a degree-{comp_degree} PPSN; reduction refused"
    _certified(NodeSet._subset(partition.removed.points, manifold), manifold, comp_degree, message)
    remaining = NodeSet._subset(partition.remaining.points, manifold)
    expected = dim_along(m, profile)
    if len(remaining) != expected:
        raise InternalCheckError(
            f"remaining count {len(remaining)} differs from dimension {expected}"
        )
    return remaining, _proper_certificate(manifold.leading_forms, profile, manifold.n, m)


@dataclass(frozen=True)
class CBVerdict:
    """Outcome of the vanish-or-degenerate trichotomy check."""

    vanishes_on_removed: bool
    exception_hypersurface: Optional[Polynomial]
    consistent: bool


def cb_check(
    f: Polynomial,
    partition: CBPartition,
    manifold: Manifold,
    m: int,
    require_ppsn_removed: bool = False,
) -> CBVerdict:
    """Check the Cayley-Bacharach trichotomy on an instance.

    `f` has degree <= m and vanishes on the large remaining set. Either it
    also vanishes on the removed points, or those points lie on a
    hypersurface of degree M-m-1. With `require_ppsn_removed` the removed
    set is first verified properly posed at the complementary degree, under
    which hypothesis vanishing is forced.
    """
    _require_full_intersection(partition.full, manifold, "Cayley-Bacharach check")
    profile = manifold.profile
    M, L = profile.M, profile.L
    if require_ppsn_removed:
        if not 0 <= m <= M - 1:
            raise InputError(f"degree m={m} out of range 0..{M - 1}")
    else:
        if not M - L + 1 <= m <= M - 1:
            raise InputError(f"degree m={m} out of range {M - L + 1}..{M - 1}")
    if not f.in_space(m):
        raise InputError(f"polynomial degree {f.degree} exceeds m={m}")
    comp_degree = M - m - 1
    expected_removed = binom_e(comp_degree, manifold.n)
    if len(partition.removed) != expected_removed and not require_ppsn_removed:
        raise CountMismatchError(
            f"removed set must have {expected_removed} points, got {len(partition.removed)}"
        )
    if require_ppsn_removed:
        # on the manifold: a subset of the full set, which the preamble checked
        removed = NodeSet._subset(partition.removed.points, manifold)
        _certified(removed, manifold, comp_degree, "removed set is not properly posed")
    for q in partition.remaining:
        v = f.evaluate(q)
        if v != 0:
            raise InputError(
                f"polynomial does not vanish on the remaining set at "
                f"{tuple(str(c) for c in q)}: value {v}"
            )
    vanishes = all(f.evaluate(q) == 0 for q in partition.removed)
    exception = None
    if not vanishes and comp_degree >= 0:
        # scaling the rows leaves the right kernel unchanged
        basis = monomial_basis(manifold.n, comp_degree)
        rows = evaluation_rows(partition.removed.points, basis)
        kernel = linalg.solution_set([row for _, row in rows], [0] * len(rows))[1]
        if kernel:
            exception = Polynomial(manifold.n, dict(zip(basis, kernel[0])))
    consistent = vanishes or exception is not None
    return CBVerdict(
        vanishes_on_removed=vanishes,
        exception_hypersurface=exception,
        consistent=consistent,
    )


def cb_extend_curve(
    full: NodeSet,
    a_t: NodeSet,
    b: NodeSet,
    manifold: Manifold,
    t: int,
    m: int,
) -> Tuple[NodeSet, PPSNCertificate]:
    """Glue a curve node set A_t onto the full intersection G less a
    degree-m PPSN B, and certify the union A_t u (G - B), A_t first, at
    degree M' = M - m - 1 along the curve C omitting hypersurface t
    (1-based): a Cayley-Bacharach reduction, then one superposition step,
    with no elimination of the union.

    - The remainder G - B is proper at M' on G. For m >= 0, `cb_reduce`
      removes B at M' and certifies it at m on G. No elementary item has
      degree below L, so for m <= L - 1 the canonical monomials of degree
      <= m are the whole basis, and that is B being ambient proper. For
      m < 0, B is empty and G is proper at every M' >= M (the preamble).
    - A_t is proper at M' - k_t on C (`_certified`) and disjoint from G,
      so f_t vanishes nowhere on it: a point of C where f_t vanishes lies
      on every hypersurface, and G holds all such points (the preamble).
    - So `_superpose`, on G's polynomials ordered as C's and then f_t,
      certifies the union proper at M' on C from the two certificates, by
      the superposition theorem. Properness is the points imposing
      dim_along(M') conditions, whatever the order of the polynomials."""
    _require_full_intersection(full, manifold, "curve extension")
    full = NodeSet._subset(full.points, manifold)  # checked there by the preamble
    profile = manifold.profile
    curve = manifold.curve(t)
    out_degree = profile.M - m - 1
    if m > profile.L - 1:
        raise InputError(f"degree m={m} exceeds L-1={profile.L - 1}")
    remaining = full
    if m >= 0:
        remaining = cb_reduce(CBPartition(full, b), manifold, out_degree)[0]
    elif len(b):
        raise InputError("negative m requires an empty B")
    if not a_t.is_disjoint(full):
        raise HypothesisError("curve node set must be disjoint from the intersection")
    a_degree = out_degree - profile.ks[t - 1]
    if a_degree < 0 and len(a_t):
        raise CountMismatchError(f"degree {a_degree} is negative: the curve node set must be empty")
    a_cert = _certified(a_t, curve, a_degree, f"curve node set is not a degree-{a_degree} PPSN")
    reordered = Manifold(curve.polynomials + (manifold.polynomials[t - 1],))
    rem_cert = _proper_certificate(manifold.leading_forms, profile, manifold.n, out_degree)
    cert = _superpose(SuperpositionStep(reordered, remaining, a_t, out_degree), rem_cert, a_cert)[1]
    return NodeSet._subset(a_t.points + remaining.points, curve), cert


# -- curve chains ----------------------------------------------------------------


@dataclass(frozen=True)
class ChainEntry:
    degree: int
    nodes: NodeSet
    certificate: PPSNCertificate


@dataclass(frozen=True)
class CurveChain:
    curve: Manifold
    entries: Tuple[ChainEntry, ...]

    def at(self, degree: int) -> ChainEntry:
        for e in self.entries:
            if e.degree == degree:
                return e
        raise KeyError(degree)


def _curve_lines(
    system: FactorableSystem, t: int
) -> List[Tuple[Point, Point]]:
    """Rational parametrizations (base, direction) of every line making up
    the curve that omits hypersurface t."""
    n = system.n
    lines: List[Tuple[Point, Point]] = []
    for _, rows in system.selections(omit=t):
        # [A | b] is (n-1) x (n+1): when A has rank n-1 its one kernel vector
        # is the direction, and the solution with the free coordinate at
        # zero, which always exists, the base point
        base, kernel = linalg.solution_set([row[:n] for row in rows], [row[n] for row in rows])
        if len(kernel) != 1:
            raise InsufficientIntersectionError(
                "a curve component is not a line: parallel or dependent forms"
            )
        lines.append((tuple(base), tuple(kernel[0])))
    return lines


def _fresh_curve_ppsn(
    system: FactorableSystem,
    t: int,
    curve: Manifold,
    degree: int,
    avoid: NodeSet,
) -> NodeSet:
    """A properly posed degree-`degree` node set on the curve: the
    `nested_level` of a stream of rational points on the curve's lines,
    round r offering base + r * direction on each, for 8 * t_degree + 16
    rounds. The stream skips `avoid`, the full intersection, and so the
    omitted hypersurface f_t: a curve point where f_t vanishes zeroes all n
    products, so it zeroes one linear form of each hypersurface and is an
    intersection point (`superpose_nodes` would refuse it all the same)."""
    lines = _curve_lines(system, t)
    rounds = 8 * dim_along(degree, curve.profile) + 16

    def candidates() -> Iterator[Point]:
        seen = set(avoid.points)
        for round_no in range(rounds):
            for base, direction in lines:
                pt = tuple(b + round_no * d for b, d in zip(base, direction))
                if pt not in seen:
                    seen.add(pt)
                    yield pt

    # on the curve: base + r * direction zeroes one form of each kept product
    return NodeSet._subset(nested_level(candidates(), curve, degree), curve)


def build_curve_chain(
    system: FactorableSystem, t: int, mmax: int, x0: Sequence
) -> CurveChain:
    """PPSNs of every degree 0..mmax along the curve omitting hypersurface t.

    The supplied point x0 (on the curve, off the omitted hypersurface)
    replaces any limiting argument: downward extraction handles degrees
    below the omitted degree, superposition with fresh curve points handles
    degrees above it. Each of the three sets (the intersection, the anchor
    and the fresh curve set of the top degree) gives all its levels by one
    `levels_upto`.
    """
    if mmax < 0:
        raise InputError("chain degree mmax must be >= 0")
    report = intersect_factorable(system)
    if not report.sufficient:
        raise InsufficientIntersectionError(
            "system is not a sufficient intersection: " + "; ".join(report.failures)
        )
    full = report.nodes
    s0 = full.manifold
    curve = s0.curve(t)
    f_t = system.polynomials[t - 1]
    k_t = system.degrees[t - 1]
    x0_pt = as_point(x0)
    if not curve.contains(x0_pt):
        raise InputError("x0 does not lie on the curve")
    if f_t.evaluate(x0_pt) == 0:
        raise InputError("x0 lies on the omitted hypersurface")
    if x0_pt in full:
        raise InputError("x0 coincides with an intersection point")
    # the top level is certified at degree mmax (the anchor at k_t >= mmax):
    # refuse an over-budget mmax before any lower level is built
    require_dense_size(system.n, mmax)

    # the intersection's levels, all N points from the saturation degree M
    # on: the anchor's k_t and every superposed sub set, from one elimination
    _require_full_intersection(full, s0, "nested extraction")
    M = s0.profile.M
    on_points = levels_upto(full.points, s0, min(max(k_t, mmax), M - 1))
    n = system.n
    reordered = Manifold(curve.polynomials + (f_t,))

    def point_level(d: int) -> NodeSet:
        return NodeSet._subset(on_points[d], s0) if d < M else full

    def superposed(d: int, fresh: NodeSet) -> Tuple[NodeSet, PPSNCertificate]:
        """The degree-d level of the points and `fresh`, a degree-(d - k_t)
        set on the curve off f_t, certified at degree d along the curve by
        `_superpose` from the proper certificates both sets already have.
        The level has rank t_d over exactly t_d canonical columns of s0 in
        `levels_upto`, so its square system is nonsingular over Q (from M
        on it is all N points, proper by the preamble). Properness is the
        points imposing t_d conditions in degree d, which does not depend on
        the order of the polynomials, so it holds on `reordered` too. A
        fresh set was chosen the same way along the curve (`nested_level`
        or `levels_upto`), and {x0} at degree 0 is one point and the
        constant."""
        return _superpose(
            SuperpositionStep(reordered, point_level(d), fresh, d),
            _proper_certificate(s0.leading_forms, s0.profile, n, d),
            _proper_certificate(curve.leading_forms, curve.profile, n, d - k_t),
        )[:2]

    # anchor level: x0, at degree 0 on the curve, superposed onto the
    # degree-k_t level of the points; x0 goes first so the degree-0 level
    # lands exactly on it. It lies on the curve (checked above)
    x0_set = NodeSet._subset((x0_pt,), curve)
    anchor_nodes = NodeSet._subset(x0_set.points + point_level(k_t).points, curve)
    entries: Dict[int, ChainEntry] = {}
    if k_t <= mmax:
        entries[k_t] = ChainEntry(k_t, anchor_nodes, superposed(k_t, x0_set)[1])

    # downward: the anchor's levels over the curve's canonical columns. Each
    # has rank t_d over exactly t_d canonical columns, so its square system
    # is nonsingular over Q: the proper certificate, with nothing to verify
    below = levels_upto(anchor_nodes.points, curve, min(k_t - 1, mmax))
    for d, level in enumerate(below):
        cert_d = _proper_certificate(curve.leading_forms, curve.profile, n, d)
        entries[d] = ChainEntry(d, NodeSet._subset(level, curve), cert_d)

    # upward: superpose the point levels with fresh curve points, the levels
    # of one fresh set drawn at the top degree mmax - k_t
    if mmax > k_t:
        fresh_top = _fresh_curve_ppsn(system, t, curve, mmax - k_t, avoid=full)
        fresh_below = levels_upto(fresh_top.points, curve, mmax - k_t - 1)
    for d in range(k_t + 1, mmax + 1):
        fresh = fresh_top if d == mmax else NodeSet._subset(fresh_below[d - k_t], curve)
        entries[d] = ChainEntry(d, *superposed(d, fresh))

    ordered = tuple(entries[d] for d in sorted(entries))
    return CurveChain(curve=curve, entries=ordered)
