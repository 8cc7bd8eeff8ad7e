"""Homogeneous elementary-item matrices, monomial selection, canonical
reduction modulo a manifold, and H-base decomposition.

The central object is the degree-m matrix whose rows are the coefficient
vectors of the elementary items X^alpha * g_i (|alpha| + k_i = m) over the
degree-m monomials, where g_i is the leading form of the i-th defining
polynomial. Its pivot columns are the selected monomials; the complement
spans the canonical remainder space on the manifold. One fraction-free
integer echelon of that matrix (`linalg.row_reduce`) finds them, and the
selection keeps it.

`reduce_modulo` descends degree by degree in one mutable table of integer
numerators over one denominator: at each degree the item weights, which are
the cofactor coefficients, solve (G_S)^T lambda = work_S over the selected
columns S, read off the selection's echelon by substitution in pivot order
(no elimination per call), and subtracting each weighted X^alpha * f_i term
by term leaves only unselected monomials of that degree, which join the
remainder. G_S has independent columns, so (G_S)^T has full row rank and
the system is always consistent. One builder, `elementary_items`, writes
every item matrix from the terms of its polynomials: the degree-m items for
monomial selection and the infinity check, and, over the monomial basis,
the H-base items X^beta * (F_i f_i), F_i f_i the integer numerators of f_i.
`hbase_decompose` and `verify_hbase` eliminate those items once per degree
in one integer echelon, untransposed, read each member's weights off it by
substitution and accept them by one exact integer check (`_HBaseSystems`).
Membership (`Manifold.require_on_manifold`) evaluates each defining
polynomial at all the points in one integer batch.
"""

from __future__ import annotations

import functools
import math
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import linalg
from .dimension import DegreeProfile, binom_e, dim_along
from .errors import (
    DecompositionError,
    DimensionMismatchError,
    InputError,
    InsufficientIntersectionError,
    InternalCheckError,
    OffManifoldError,
)
from .mpoly import (
    MultiIndex,
    Point,
    Polynomial,
    monomial_basis,
    monomials_of_degree,
    require_dense_size,
)


class Manifold:
    """An algebraic manifold cut out by defining polynomials f_1..f_s.

    Optional `witnesses` are extra hypersurfaces f_{s+1}..f_n completing the
    configuration to a sufficient intersection; they are required only by
    checks that need the 0-dimensional completion (infinity_check and the
    H-base verifier) and are never searched for automatically.
    """

    def __init__(
        self,
        polynomials: Sequence[Polynomial],
        witnesses: Sequence[Polynomial] = (),
    ):
        polys = tuple(polynomials)
        if not polys:
            raise InputError("a manifold needs at least one defining polynomial")
        n = polys[0].n
        for p in polys:
            if p.n != n:
                raise DimensionMismatchError("defining polynomials mix dimensions")
            if p.is_zero() or p.degree < 1:
                raise InputError("defining polynomials must have degree >= 1")
        self.polynomials = polys
        self.n = n
        self.profile = DegreeProfile(n, tuple(p.degree for p in polys))
        self.leading_forms = tuple(p.leading_form() for p in polys)
        self.witnesses = tuple(witnesses)
        for w in self.witnesses:
            if w.n != n:
                raise DimensionMismatchError("witness dimension mismatch")
            if w.is_zero() or w.degree < 1:
                raise InputError("witnesses must have degree >= 1")
        if len(polys) + len(self.witnesses) > n:
            raise InputError("more than n hypersurfaces supplied")

    @property
    def s(self) -> int:
        return len(self.polynomials)

    def contains(self, point: Point) -> bool:
        return all(p.evaluate(point) == 0 for p in self.polynomials)

    def require_on_manifold(self, points: Sequence[Point]):
        """OffManifoldError at the first point off the manifold, with the
        first polynomial that does not vanish there and its value."""
        residuals = [p._values(points) for p in self.polynomials]
        for q, row in zip(points, zip(*residuals)):
            for i, r in enumerate(row):
                if r:
                    raise OffManifoldError(q, i, r)

    def curve(self, t: int) -> "Manifold":
        """The manifold cut out by every defining polynomial but the t-th
        (1-based), with the omitted polynomial kept as a completing witness."""
        if not 1 <= t <= self.s:
            raise InputError(f"hypersurface index {t} out of range 1..{self.s}")
        polys = [p for i, p in enumerate(self.polynomials, 1) if i != t]
        return Manifold(polys, witnesses=(self.polynomials[t - 1],) + self.witnesses)

    def __repr__(self):
        return f"Manifold({', '.join(str(p) for p in self.polynomials)})"


@dataclass(frozen=True)
class MonomialSelection:
    """Partition of the degree-m monomials into selected and unselected
    columns, with the integer echelon of the elementary items that chose
    them (`reduce_modulo` reads its cofactor weights off it;
    `elementary_items` rebuilds the items). The echelon is left out of
    equality and repr, so selections of different leading forms that label
    and select alike compare equal."""

    m: int
    monomials: Tuple[MultiIndex, ...]
    labeled_items: Tuple[Tuple[MultiIndex, int], ...]
    selected: Tuple[int, ...]
    unselected: Tuple[int, ...]
    echelon: linalg.IntegerEchelon = field(compare=False, repr=False)

    def unselected_monomials(self) -> Tuple[MultiIndex, ...]:
        return tuple(self.monomials[j] for j in self.unselected)


def elementary_items(
    forms: Sequence[Polynomial],
    n: int,
    m: int,
    monomials: Callable[[int, int], Sequence[MultiIndex]] = monomials_of_degree,
) -> Tuple[Tuple[MultiIndex, ...], List[List[Fraction]], List[Tuple[MultiIndex, int]]]:
    """The elementary items X^alpha * g_i, alpha in monomials(n, m - deg g_i):
    the monomials(n, m) their rows run over, each item's coefficient row
    over them (its zeros are int 0 and its integral coefficients ints, so
    an integral form gives int rows, which `linalg.IntegerEchelon` takes as
    they are), and each item's label (alpha, i). The degree-m
    monomials (`monomials_of_degree`) and homogeneous forms give the
    degree-m items; the monomials of degree <= m (`monomial_basis`) and the
    integer numerators of the defining polynomials give the H-base items."""
    monos = tuple(monomials(n, m))
    col = {mu: j for j, mu in enumerate(monos)}
    rows: List[List[Fraction]] = []
    labels: List[Tuple[MultiIndex, int]] = []
    for i, g in enumerate(forms):
        terms = [(beta, c.numerator if c.denominator == 1 else c) for beta, c in g.terms.items()]
        for alpha in monomials(n, m - g.degree):
            row: List[Fraction] = [0] * len(monos)
            for beta, c in terms:
                row[col[tuple(map(operator.add, alpha, beta))]] = c
            rows.append(row)
            labels.append((alpha, i))
    return monos, rows, labels


def select_monomials(manifold: Manifold, m: int) -> MonomialSelection:
    """Leftmost-greedy pivot-column selection in the elementary-item matrix.

    One `linalg.row_reduce` of the items, in order, gives the selected
    columns, the leftmost independent ones, and keeps the greedy independent
    items I with the integer combinations that `reduce_modulo` substitutes
    against, so a selection is eliminated once and a reduction eliminates
    nothing. The selection depends only on the leading forms, the degree
    profile and m, so manifolds with equal leading forms share one
    (`_selection`)."""
    if m < 0:
        raise InputError("degree must be >= 0")
    return _selection(manifold.leading_forms, manifold.profile, m)


# The cache sits on this helper, not on `select_monomials`: the benchmark's
# tracer wraps `select_monomials` through its module globals, which a
# `functools.lru_cache` object does not have.
@functools.lru_cache(maxsize=256)
def _selection(
    leading_forms: Tuple[Polynomial, ...], profile: DegreeProfile, m: int
) -> MonomialSelection:
    n = profile.n
    require_dense_size(n, m)
    monos, rows, labels = elementary_items(leading_forms, n, m)
    # the degree-m monomials less h_m, the degree-m part of the Hilbert function
    expected = binom_e(m, n - 1) - (dim_along(m, profile) - dim_along(m - 1, profile))
    echelon = linalg.row_reduce(rows)
    if echelon.rank != expected:
        raise InsufficientIntersectionError(
            f"elementary items of degree {m} have rank {echelon.rank}, expected {expected}: "
            "the leading forms do not meet only at the origin"
        )
    selected = tuple(echelon.columns)
    selected_set = set(selected)
    unselected = tuple(j for j in range(len(monos)) if j not in selected_set)
    return MonomialSelection(
        m=m,
        monomials=monos,
        labeled_items=tuple(labels),
        selected=selected,
        unselected=unselected,
        echelon=echelon,
    )


def canonical_monomials(
    manifold: Optional[Manifold], n: int, upto: int
) -> Sequence[MultiIndex]:
    """Unselected monomials of degrees 0..upto, in the fixed graded order.

    With no manifold this is the full monomial basis, the shared tuple
    `monomial_basis` returns: every monomial is unselected in the ambient
    case.
    """
    if manifold is None:
        return monomial_basis(n, upto)
    out: List[MultiIndex] = []
    for t in range(0, upto + 1):
        out.extend(select_monomials(manifold, t).unselected_monomials())
    return out


def infinity_check(manifold: Manifold) -> bool:
    """True iff the leading forms (completed by witnesses) share no
    projective zero, certified by a full-rank elementary-item matrix one
    degree past the saturation degree."""
    gs = list(manifold.leading_forms) + [w.leading_form() for w in manifold.witnesses]
    n = manifold.n
    if len(gs) != n:
        raise InputError(
            f"infinity check needs n={n} leading forms; got {len(gs)} "
            "(supply witnesses to complete the intersection)"
        )
    target = sum(g.degree for g in gs) - n + 1
    require_dense_size(n, target)  # before the items: a witness may have any degree
    monos, rows, _ = elementary_items(gs, n, target)
    return linalg.row_reduce(rows).rank == len(monos)


def _expand(total: Polynomial, cofactors: Sequence[Polynomial], manifold: Manifold) -> Polynomial:
    """total + sum_j cofactors[j] * f_j."""
    for c, f in zip(cofactors, manifold.polynomials):
        total = total + c * f
    return total


@dataclass(frozen=True)
class ReducedForm:
    """Exact identity original = remainder + sum_j cofactors[j] * f_j,
    with the remainder supported on unselected monomials only."""

    remainder: Polynomial
    cofactors: Tuple[Polynomial, ...]

    def reassemble(self, manifold: Manifold) -> Polynomial:
        return _expand(self.remainder, self.cofactors, manifold)


def reduce_modulo(f: Polynomial, manifold: Manifold) -> ReducedForm:
    """Canonical-form reduction by degreewise descent in one coefficient table.

    `work` holds f's coefficients as integer numerators over one
    denominator D, bucketed by degree. At each degree t, from deg f down,
    whose part in `work` is nonzero, the item weights lambda solve
    sum_r lambda_r G_t[r, S] = part[S] / D over the selected columns S.
    They are read off the selection's `linalg.IntegerEchelon` by
    substitution on the part's selected numerators (`weights`), as integer
    numerators over one denominator: no elimination runs here.
    That lambda is the solution `linalg.solution_set` gives for the
    transposed selected block (G_t[:, S])^T, with free variables zero: it is
    zero at every unknown off the pivot columns of (G_t[:, S])^T, its leftmost
    independent columns, which are the greedy independent rows of
    G_t[:, S]. Every column of G_t depends on those in S, so a set of rows
    of G_t[:, S] is independent exactly when it is in G_t, and those rows
    are the echelon's kept items I. The system has exactly one solution
    supported on I (`weights`), so the two agree.
    Each nonzero lambda on item (alpha, i) is the coefficient of X^alpha in
    cofactor i, and lambda * X^alpha * f_i is subtracted from `work` term by
    term: its leading form clears the selected monomials of degree t, its
    lower terms fall to lower degrees. To keep the subtraction integral,
    `work` and D are first multiplied by L * F, with L the lcm of the
    denominators of D * lambda in lowest terms and F that of the
    denominators of the f_i used; each term lambda * c of
    lambda * X^alpha * f_i is then the integer (L * D * lambda) * (F * c)
    over the new D. What is left of degree t lies on unselected monomials
    and moves to the remainder. Each coefficient becomes a Fraction once, as
    it leaves `work`.
    """
    if f.n != manifold.n:
        raise DimensionMismatchError("polynomial/manifold dimension mismatch")
    n = manifold.n
    D, numerators = f._numerators()
    work: Dict[int, Dict[MultiIndex, int]] = {}
    for mu, v in numerators:
        work.setdefault(sum(mu), {})[mu] = v
    # each f_i as (F_i, k_i, [(beta, |beta|, F_i * c)])
    polys = []
    for p, k in zip(manifold.polynomials, manifold.profile.ks):
        F, terms = p._numerators()
        polys.append((F, k, [(beta, sum(beta), c) for beta, c in terms]))
    remainder: Dict[MultiIndex, Fraction] = {}
    cofactors: List[Dict[MultiIndex, Fraction]] = [{} for _ in manifold.polynomials]
    while work:
        t = max(work)
        part = work[t]
        if not any(part.values()):
            del work[t]
            continue
        sel = select_monomials(manifold, t)
        if sel.labeled_items:
            rhs = [part.get(sel.monomials[c], 0) for c in sel.selected]
            lam, den = sel.echelon.weights(rhs)
            # the weights on the numerators are lam / den, over L in lowest terms
            g = math.gcd(den, *lam)
            L = den // g
            items = [(w // g, alpha, i) for w, (alpha, i) in zip(lam, sel.labeled_items) if w]
            F = math.lcm(*(polys[i][0] for _, _, i in items))
            scale = L * F
            if scale != 1:
                for bucket in work.values():
                    for mu in bucket:
                        bucket[mu] *= scale
            for w, alpha, i in items:
                cofactors[i][alpha] = Fraction(w, L * D)
                Fi, k, terms = polys[i]
                factor = w * (F // Fi)
                low = t - k  # |alpha|
                for beta, e, c in terms:
                    mu = tuple(map(operator.add, alpha, beta))
                    bucket = work.get(low + e)
                    if bucket is None:
                        bucket = work[low + e] = {}
                    bucket[mu] = bucket.get(mu, 0) - factor * c
            D *= scale
        del work[t]
        if any(part.get(sel.monomials[j]) for j in sel.selected):
            raise InternalCheckError("remainder touches a selected monomial")
        for mu, v in part.items():
            if v:
                remainder[mu] = Fraction(v, D)
    return ReducedForm(
        Polynomial._trusted(n, remainder),
        tuple(Polynomial._trusted(n, c) for c in cofactors),
    )


@dataclass(frozen=True)
class Decomposition:
    """g = sum_i cofactors[i] * f_i with deg cofactors[i] <= deg g - k_i."""

    cofactors: Tuple[Polynomial, ...]

    def reassemble(self, manifold: Manifold) -> Polynomial:
        return _expand(Polynomial.zero(manifold.n), self.cofactors, manifold)


class _HBaseSystems:
    """The H-base systems of one manifold, one integer echelon per degree.

    The degree-d system asks for weights lambda_r of the items r = (beta, i),
    X^beta * (F_i f_i) with |beta| <= d - k_i (so each cofactor keeps its
    degree bound), with sum lambda_r item_r = G for a member g = G / D. The
    `linalg.row_reduce` echelon of the items keeps the greedy independent ones,
    the pivot columns of the transposed system, so `weights` at its pivot
    monomials is the solution with free variables zero. It solves the
    system iff sum lambda_r item_r = den * G on every monomial."""

    def __init__(self, manifold: Manifold):
        self.n = manifold.n
        # each f_i as (F_i, [(beta, F_i * c)], k_i)
        self.polys = [(*p._numerators(), p.degree) for p in manifold.polynomials]
        self._items = [Polynomial._over(self.n, dict(terms), 1) for _, terms, _ in self.polys]
        self._echelons: Dict[int, tuple] = {}

    def weights(self, G: Dict[MultiIndex, int], D: int) -> Tuple[list, List[int], int]:
        """(labels, lambda, den): the item weights lambda / den, one per
        label, that decompose g = G / D at its own degree, which cancellation
        may have lowered; DecompositionError when there are none."""
        d = max((sum(mu) for mu, v in G.items() if v), default=-1)
        if d not in self._echelons:
            basis, rows, labels = elementary_items(self._items, self.n, d, monomial_basis)
            echelon = linalg.row_reduce(rows)
            self._echelons[d] = labels, echelon, [basis[c] for c in echelon.columns]
        labels, echelon, pivots = self._echelons[d]
        lam, den = echelon.weights([G.get(mu, 0) for mu in pivots])
        residual = {mu: -den * v for mu, v in G.items()}
        for w, (beta, i) in zip(lam, labels):
            if w:
                for alpha, c in self.polys[i][1]:
                    mu = tuple(map(operator.add, beta, alpha))
                    residual[mu] = residual.get(mu, 0) + w * c
        if any(residual.values()):
            g = Polynomial._over(self.n, G, D)
            raise DecompositionError(
                f"no degree-respecting decomposition of {g} exists: "
                "the polynomial is not an ideal member with the claimed bounds"
            )
        return labels, lam, den


def hbase_decompose(g: Polynomial, manifold: Manifold) -> Decomposition:
    """Degree-respecting ideal-membership decomposition by one exact solve
    (`_HBaseSystems`): item (beta, i) has weight lambda / den for g's
    numerators over D, so X^beta has coefficient lambda * F_i / (den * D) in
    cofactor i. A missing solution means g is no ideal member with these
    degree bounds."""
    if g.n != manifold.n:
        raise DimensionMismatchError("polynomial/manifold dimension mismatch")
    D, numerators = g._numerators()
    systems = _HBaseSystems(manifold)
    labels, lam, den = systems.weights(dict(numerators), D)
    cofactors: List[Dict[MultiIndex, int]] = [{} for _ in manifold.polynomials]
    for w, (beta, i) in zip(lam, labels):
        cofactors[i][beta] = w * systems.polys[i][0]
    return Decomposition(tuple(Polynomial._over(g.n, c, den * D) for c in cofactors))


def _random_terms(rng: random.Random, n: int, degree: int) -> List[Tuple[MultiIndex, int]]:
    """One draw of rng.randint(-3, 3) per monomial of degree <= degree, in
    basis order; the nonzero ones with their monomials."""
    return [(mu, c) for mu in monomial_basis(n, degree) if (c := rng.randint(-3, 3))]


def random_polynomial(rng: random.Random, n: int, degree: int) -> Polynomial:
    """Small random polynomial of total degree <= degree, integer coefficients."""
    return Polynomial._over(n, dict(_random_terms(rng, n, degree)), 1)


@dataclass(frozen=True)
class HBaseReport:
    """Per-degree pass counts for the sampled H-base round trips."""

    manifold: Manifold
    mmax: int
    seed: int
    trials_per_degree: int
    passes: Tuple[Tuple[int, int], ...]  # (degree, passed count)
    failures: Tuple[str, ...]

    @property
    def all_passed(self) -> bool:
        return not self.failures


def verify_hbase(
    manifold: Manifold, mmax: int, trials: int = 5, seed: int = 0
) -> HBaseReport:
    """Sample ideal members per degree and confirm degree-respecting
    decompositions exist; any failure is a counterexample to sufficiency."""
    if trials < 1:
        raise InputError(f"trials must be >= 1, got {trials}")
    if mmax < manifold.profile.L:
        # no ideal member of degree <= mmax is sampled: nothing would be checked
        raise InputError(
            f"mmax must be >= {manifold.profile.L}, the smallest defining degree, got {mmax}"
        )
    require_dense_size(manifold.n, mmax)  # before the first degree's work
    if not infinity_check(manifold):
        raise InsufficientIntersectionError(
            "leading forms share a projective zero; H-base verification refused"
        )
    rng = random.Random(seed)
    n = manifold.n
    systems = _HBaseSystems(manifold)
    F = math.lcm(*(Fi for Fi, _, _ in systems.polys))
    passes: List[Tuple[int, int]] = []
    failures: List[str] = []
    for m in range(manifold.profile.L, mmax + 1):
        ok = 0
        for _ in range(trials):
            # g = sum_i r_i f_i, r_i drawn as `random_polynomial` draws it (none
            # when k_i > m), as numerators over F: sum_i (F / F_i) r_i (F_i f_i)
            G: Dict[MultiIndex, int] = {}
            for Fi, terms, k in systems.polys:
                for beta, r in _random_terms(rng, n, m - k):
                    r *= F // Fi
                    for alpha, c in terms:
                        mu = tuple(map(operator.add, beta, alpha))
                        G[mu] = G.get(mu, 0) + r * c
            try:
                systems.weights(G, F)
                ok += 1
            except DecompositionError as exc:
                failures.append(f"degree {m}: {exc}")
        passes.append((m, ok))
    return HBaseReport(
        manifold=manifold,
        mmax=mmax,
        seed=seed,
        trials_per_degree=trials,
        passes=tuple(passes),
        failures=tuple(failures),
    )
