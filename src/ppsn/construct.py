"""Constructive procedures: exact interpolation, the superposition process,
curve chains, Cayley-Bacharach reduction/extension, and the classical
line/conic node generators.

Every construction returns its result together with an exact-rank
certificate; hypothesis checks are exact and refusals are exceptions, so a
returned node set is always certified. `cb_reduce`, `cb_check` and
`cb_extend_curve` open with `nodes._require_full_intersection`, the check
that their input is the full point intersection of a 0-dimensional
manifold. An interpolant solved mod the word-size primes `linalg.PRIMES` is
returned only after an exact integer check of every node equation, and the
exact elimination is the fallback. The solve mod each prime reads the
echelon of A^T that `verify_ppsn` made for the same node set, kept by the
memo in `nodes`, instead of evaluating and eliminating [A | b] again.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Dict, List, Optional, Sequence, Tuple

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
from .mpoly import Point, Polynomial, as_fraction, as_point, monomial_basis
from .nodes import (
    FactorableSystem,
    NodeSet,
    PPSNCertificate,
    _CanonicalSystem,
    _canonical_system,
    _require_full_intersection,
    evaluation_matrix,
    evaluation_rows,
    intersect_factorable,
    nested_levels,
    verify_ppsn,
)


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

    The coefficients are guessed mod the word-size primes `linalg.PRIMES`,
    combined by the Chinese remainder theorem and rebuilt by rational
    reconstruction. A guess is returned only when it solves every node
    equation exactly; when no prime gives one, the exact elimination of
    [A | b] runs. Each prime's solve reads the echelon of A^T kept by
    `nodes._canonical_system`, so after `verify_ppsn` on the same node set
    the evaluation rows and the first elimination are not made again.
    Without a certificate, `interpolate` runs `verify_ppsn` itself, and the
    solve reads the echelons it made."""
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
    columns = canonical_monomials(manifold, n, m)
    if len(columns) != len(nodes):
        raise InternalCheckError("canonical support size differs from node count")
    system = _canonical_system(nodes, columns)
    coeffs = _solve_mod_p(system, problem.values)
    if coeffs is None:
        # Row i of [A | b] is scaled by scale_i, which leaves the solution
        # unchanged.
        augmented = [
            row + [scale * v] for scale, row, v in zip(system.scales, system.rows, problem.values)
        ]
        ech = linalg.row_reduce(augmented)
        if sum(c < len(columns) for c in ech.pivot_columns) != len(nodes):
            raise InternalCheckError(
                "canonical evaluation matrix is singular for a certified node set"
            )
        coeffs = ech.column(len(columns))
        if not _solves(system, problem.values, coeffs):
            raise InternalCheckError("interpolant misses a node value")
    return Polynomial._trusted(n, dict(zip(columns, coeffs)))


def _solve_mod_p(
    system: _CanonicalSystem, values: Sequence[Fraction]
) -> Optional[List[Fraction]]:
    """The solution of the square system A x = b, row i of A the integer row
    of node i and b_i its scale times its value, from its solutions mod
    `linalg.PRIMES` in turn, or None when no prime gives it. A prime that
    divides a value's denominator or leaves A singular is skipped. Each
    other prime solves through the system's echelon of A^T
    (`linalg.solve_transposed`), the one `verify_ppsn` may already have
    made, joins the residues so far by the Chinese remainder theorem, every
    coefficient is rebuilt mod the running product, and the first guess
    that passes `_solves` is returned: a nonsingular A mod p is nonsingular
    over Q, so that guess is the unique solution."""
    N = len(system.rows)
    residues = [0] * N
    modulus = 1
    for p in linalg.PRIMES:
        if any(v.denominator % p == 0 for v in values):
            continue
        ech = system.echelon(p)
        if ech.rank < N:
            continue
        b = [
            scale * v.numerator * pow(v.denominator, -1, p) % p
            for scale, v in zip(system.scales, values)
        ]
        residues = linalg.crt(residues, modulus, linalg.solve_transposed(ech, b, p), p)
        modulus *= p
        coeffs = [linalg.rational_reconstruct(u, modulus) for u in residues]
        if all(x is not None for x in coeffs) and _solves(system, values, coeffs):
            # equal coefficients share one Fraction, which keeps the
            # interpolant small; equal fractions have equal residues
            shared: Dict[int, Fraction] = {}
            return [shared.setdefault(u, x) for u, x in zip(residues, coeffs)]
    return None


def _solves(
    system: _CanonicalSystem, values: Sequence[Fraction], coeffs: Sequence[Fraction]
) -> bool:
    """Whether the coefficients x satisfy every node equation
    (row_i / scale_i) . x = v_i exactly. With D the lcm of the denominators
    of x, the equation for node i is the integer identity
    sum_j row_ij * (D * x_j) * den(v_i) == scale_i * D * num(v_i)."""
    D = lcm(*(x.denominator for x in coeffs))
    scaled = [x.numerator * (D // x.denominator) for x in coeffs]
    return all(
        sum(map(mul, row, scaled)) * v.denominator == scale * D * v.numerator
        for scale, row, v in zip(system.scales, system.rows, values)
    )


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
    larger manifold, certified at degree m on the larger manifold."""
    return _superpose(step)[:2]


def _superpose(
    step: SuperpositionStep,
) -> Tuple[NodeSet, PPSNCertificate, PPSNCertificate, Optional[PPSNCertificate]]:
    """`superpose_nodes`, also returning the sub and super sets' certificates
    (None for the super set when m < deg f_s), so `superpose_interpolate`
    does not certify them again."""
    f_s = step.splitting_poly
    k_s = f_s.degree
    m = step.m
    sub_cert, super_cert = verify_ppsn(step.sub_nodes, step.sub_manifold, m), None
    if not sub_cert.proper:
        raise ImproperNodeSetError(sub_cert, "sub-manifold node set is improper")
    super_manifold = step.super_manifold
    if m - k_s < 0:
        if len(step.super_nodes):
            raise CountMismatchError(
                "degree m - k is negative: the larger-manifold node set must be empty"
            )
    else:
        super_cert = verify_ppsn(step.super_nodes, super_manifold, m - k_s)
        if not super_cert.proper:
            raise ImproperNodeSetError(super_cert, "larger-manifold node set is improper")
    for q in step.super_nodes:
        if f_s.evaluate(q) == 0:
            raise HypothesisError(
                f"splitting polynomial vanishes at {tuple(str(c) for c in q)}"
            )
    if not step.sub_nodes.is_disjoint(step.super_nodes):
        raise HypothesisError("node sets are not disjoint")
    union = step.sub_nodes.union(step.super_nodes, super_manifold)
    cert = verify_ppsn(union, super_manifold, m)
    if not cert.proper:
        raise ImproperNodeSetError(
            cert,
            "superposed set is improper: the configuration is not a sufficient intersection",
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
    certify what is left at degree m."""
    _require_full_intersection(partition.full, manifold, "Cayley-Bacharach reduction")
    profile = manifold.profile
    M = profile.M
    if not 0 <= m <= M - 1:
        raise InputError(f"degree m={m} out of range 0..{M - 1}")
    comp_degree = M - m - 1
    removed_cert = verify_ppsn(partition.removed, manifold, comp_degree)
    if not removed_cert.proper:
        raise ImproperNodeSetError(
            removed_cert,
            f"removed set is not a degree-{comp_degree} PPSN; reduction refused",
        )
    remaining = NodeSet(partition.remaining.points, manifold)
    expected = dim_along(m, profile)
    if len(remaining) != expected:
        raise InternalCheckError(
            f"remaining count {len(remaining)} differs from dimension {expected}"
        )
    cert = verify_ppsn(remaining, manifold, m)
    if not cert.proper:
        raise ImproperNodeSetError(
            cert, "remaining points are improper: input was not a complete intersection"
        )
    return remaining, cert


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
        cert = verify_ppsn(partition.removed, manifold, comp_degree)
        if not cert.proper:
            raise ImproperNodeSetError(cert, "removed set is not properly posed")
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
        kernel = linalg.nullspace([row for _, row in rows])
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
    """Glue a curve node set onto a (possibly reduced) complete intersection
    and certify the union along the curve omitting hypersurface t (1-based)."""
    _require_full_intersection(full, manifold, "curve extension")
    profile = manifold.profile
    M, L = profile.M, profile.L
    curve = manifold.curve(t)
    k_t = profile.ks[t - 1]
    if m >= 0:
        if m > L - 1:
            raise InputError(f"degree m={m} exceeds L-1={L - 1}")
        full_set = set(full.points)
        for q in b:
            if q not in full_set:
                raise InputError("B must be a subset of the intersection points")
        b_cert = verify_ppsn(b, None, m)
        if not b_cert.proper:
            raise ImproperNodeSetError(b_cert, "B is not an ambient PPSN")
    elif len(b):
        raise InputError("negative m requires an empty B")
    if not a_t.is_disjoint(full):
        raise HypothesisError("curve node set must be disjoint from the intersection")
    a_degree = M - m - k_t - 1
    a_cert = verify_ppsn(a_t, curve, a_degree)
    if not a_cert.proper:
        raise ImproperNodeSetError(
            a_cert, f"curve node set is not a degree-{a_degree} PPSN"
        )
    out_degree = M - m - 1
    remaining = full.difference(b) if len(b) else full
    union = NodeSet(a_t.points + remaining.points, curve)
    cert = verify_ppsn(union, curve, out_degree)
    if not cert.proper:
        raise ImproperNodeSetError(cert, "extended curve set is improper")
    return union, cert


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
        # one elimination of the (n-1) x (n+1) matrix [A | b]: when A has
        # rank n-1 its one free column gives the direction and the last
        # column the base point with the free coordinate at zero
        ech = linalg.row_reduce(rows)
        free = [c for c in range(n) if c not in ech.pivot_columns]
        if len(free) != 1:
            raise InsufficientIntersectionError(
                "a curve component is not a line: parallel or dependent forms"
            )
        base = [Fraction(0)] * n
        direction = [Fraction(0)] * n
        direction[free[0]] = Fraction(1)
        for c, b, d in zip(ech.pivot_columns, ech.column(n), ech.column(free[0])):
            base[c] = b
            direction[c] = -d
        lines.append((tuple(base), tuple(direction)))
    return lines


def _fresh_curve_ppsn(
    system: FactorableSystem,
    t: int,
    curve: Manifold,
    degree: int,
    avoid: NodeSet,
) -> NodeSet:
    """A properly posed degree-`degree` node set on the curve, off the
    omitted hypersurface and away from `avoid`, built greedily from a
    deterministic stream of rational points on the curve's lines."""
    f_t = system.polynomials[t - 1]
    target = dim_along(degree, curve.profile)
    columns = canonical_monomials(curve, curve.n, degree)[:target]
    tracker = linalg.IncrementalRank()
    chosen: List[Point] = []
    avoid_set = set(avoid.points)
    lines = _curve_lines(system, t)
    max_rounds = 8 * target + 16
    for round_no in range(max_rounds):
        if tracker.rank == target:
            break
        for base, direction in lines:
            pt = tuple(b + round_no * d for b, d in zip(base, direction))
            if pt in avoid_set or pt in chosen:
                continue
            if f_t.evaluate(pt) == 0:
                continue
            row = evaluation_matrix([pt], columns)[0]
            if tracker.add(row):
                chosen.append(pt)
            if tracker.rank == target:
                break
    if tracker.rank != target:
        raise InsufficientIntersectionError(
            f"could not assemble a degree-{degree} node set on the curve"
        )
    return NodeSet(chosen, curve)


def build_curve_chain(
    system: FactorableSystem, t: int, mmax: int, x0: Sequence
) -> CurveChain:
    """PPSNs of every degree 0..mmax along the curve omitting hypersurface t.

    The supplied point x0 (on the curve, off the omitted hypersurface)
    replaces any limiting argument: downward extraction handles degrees
    below the omitted degree, superposition with fresh curve points handles
    degrees above it.
    """
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

    # one descent of the intersection gives the extracted levels of degrees
    # k_t..M-1; at and above M a level is the whole intersection
    levels = {
        d: tuple(full.points[r] for r in kept)
        for d, kept in nested_levels(full.points, s0, s0.profile.M, k_t)
    }

    # anchor level: the extracted degree-k_t set on the points, plus x0;
    # x0 goes first so the degree-0 extraction lands exactly on it
    anchor_nodes = NodeSet((x0_pt,) + levels.get(k_t, full.points), curve)
    entries: Dict[int, ChainEntry] = {}
    cert = verify_ppsn(anchor_nodes, curve, k_t)
    if not cert.proper:
        raise ImproperNodeSetError(cert, "anchor level is improper")
    if k_t <= mmax:
        entries[k_t] = ChainEntry(k_t, anchor_nodes, cert)

    # downward: the same nested descent over the curve's canonical columns
    for d, kept in nested_levels(anchor_nodes.points, curve, k_t, 0):
        if d <= mmax:
            nodes_d = NodeSet([anchor_nodes.points[r] for r in kept], curve)
            cert_d = verify_ppsn(nodes_d, curve, d)
            if not cert_d.proper:
                raise ImproperNodeSetError(cert_d, f"degree-{d} chain level improper")
            entries[d] = ChainEntry(d, nodes_d, cert_d)

    # upward: superpose extracted point-set levels with fresh curve points
    reordered = Manifold(curve.polynomials + (f_t,))
    for d in range(k_t + 1, mmax + 1):
        sub = NodeSet(levels.get(d, full.points), reordered)
        fresh = _fresh_curve_ppsn(system, t, curve, d - k_t, avoid=full)
        union, cert_d = superpose_nodes(
            SuperpositionStep(
                sub_manifold=reordered,
                sub_nodes=sub,
                super_nodes=fresh,
                m=d,
            )
        )
        union = NodeSet(union.points, curve)
        entries[d] = ChainEntry(d, union, cert_d)

    ordered = tuple(entries[d] for d in sorted(entries) if d <= mmax)
    return CurveChain(curve=curve, entries=ordered)
