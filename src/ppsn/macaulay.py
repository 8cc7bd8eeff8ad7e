"""Homogeneous elementary-item matrices, monomial selection, canonical
reduction modulo a manifold, and H-base decomposition.

The central object is the degree-m matrix whose rows are the coefficient
vectors of the elementary items X^alpha * g_i (|alpha| + k_i = m) over the
degree-m monomials, where g_i is the leading form of the i-th defining
polynomial. Its pivot columns are the selected monomials; the complement
spans the canonical remainder space on the manifold. One fraction-free
integer echelon of that matrix (`linalg.IntegerEchelon`) finds them, and the
selection keeps it.

`reduce_modulo` descends degree by degree in one mutable table of integer
numerators over one denominator: at each degree the item weights, which are
the cofactor coefficients, solve (G_S)^T lambda = work_S over the selected
columns S, read off the selection's echelon by substitution in pivot order
(no elimination per call), and subtracting each weighted X^alpha * f_i term
by term leaves only unselected monomials of that degree, which join the
remainder. G_S has independent columns, so (G_S)^T has full row rank and
the system is always consistent. One builder,
`elementary_items`, writes every item matrix from the terms of its
polynomials: the degree-m items for monomial selection and the infinity
check, and, over the monomial basis, the items X^beta * f_i whose transpose
is the H-base system (`_hbase_system`) that `hbase_decompose` and
`verify_hbase` share; `verify_hbase` eliminates each degree's system once
and replays every sampled member against it (`linalg.replay`). Both build
their result polynomials once, at the end.
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
        for q in points:
            for i, p in enumerate(self.polynomials):
                r = p.evaluate(q)
                if r != 0:
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
    them (`reduce_modulo` reads its cofactor weights off it). The echelon
    is left out of equality and repr: it is determined by the other fields."""

    m: int
    monomials: Tuple[MultiIndex, ...]
    matrix: Tuple[Tuple[Fraction, ...], ...]
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
    over them (its zeros are int 0, which `linalg.row_reduce` reads faster
    than a Fraction), and each item's label (alpha, i). The degree-m
    monomials (`monomials_of_degree`) and homogeneous forms give the
    degree-m items; the monomials of degree <= m (`monomial_basis`) and the
    defining polynomials give the columns of the H-base system."""
    monos = tuple(monomials(n, m))
    col = {mu: j for j, mu in enumerate(monos)}
    rows: List[List[Fraction]] = []
    labels: List[Tuple[MultiIndex, int]] = []
    for i, g in enumerate(forms):
        for alpha in monomials(n, m - g.degree):
            row: List[Fraction] = [0] * len(monos)
            for beta, c in g.terms.items():
                row[col[tuple(map(operator.add, alpha, beta))]] = c
            rows.append(row)
            labels.append((alpha, i))
    return monos, rows, labels


def select_monomials(manifold: Manifold, m: int) -> MonomialSelection:
    """Leftmost-greedy pivot-column selection in the elementary-item matrix.

    One `linalg.IntegerEchelon` of the items, in order, gives the selected
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
    echelon = linalg.IntegerEchelon(rows)
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
        matrix=tuple(tuple(r) for r in rows),
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
    That lambda is the one `linalg.solve` gives for the transposed selected
    block (G_t[:, S])^T, with free variables zero. `solve` sets to zero
    every unknown off the pivot columns of (G_t[:, S])^T, its leftmost
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


def _hbase_system(
    manifold: Manifold, m: int
) -> Tuple[Tuple[MultiIndex, ...], List[Tuple[MultiIndex, int]], List[List[Fraction]]]:
    """The degree-m H-base system: the monomials of degree <= m (its rows),
    the label (beta, i) of each unknown, and the matrix whose column
    (beta, i) holds the coefficients of X^beta * f_i for every beta of
    degree <= m - k_i: the transpose of the elementary items over the
    monomial basis. With no item, every row is empty."""
    basis, items, labels = elementary_items(manifold.polynomials, manifold.n, m, monomial_basis)
    return basis, labels, [list(column) for column in zip(*items)] or [[] for _ in basis]


def _decomposition(
    g: Polynomial,
    manifold: Manifold,
    labels: Sequence[Tuple[MultiIndex, int]],
    sol: Optional[Sequence[Fraction]],
) -> Decomposition:
    """The decomposition of g read off a solution of its degree-deg(g)
    H-base system, checked by re-expansion and the degree bounds."""
    if sol is None:
        raise DecompositionError(
            f"no degree-respecting decomposition of {g} exists: "
            "the polynomial is not an ideal member with the claimed bounds"
        )
    cof_terms: List[Dict[MultiIndex, Fraction]] = [{} for _ in manifold.polynomials]
    for (beta, i), c in zip(labels, sol):
        cof_terms[i][beta] = c
    cofactors = tuple(Polynomial._trusted(manifold.n, t) for t in cof_terms)
    dec = Decomposition(cofactors)
    if dec.reassemble(manifold) != g:
        raise InternalCheckError("decomposition failed to re-expand exactly")
    for c, k in zip(cofactors, manifold.profile.ks):
        if not c.in_space(g.degree - k):
            raise InternalCheckError("cofactor degree bound violated")
    return dec


def hbase_decompose(g: Polynomial, manifold: Manifold) -> Decomposition:
    """Degree-respecting ideal-membership decomposition by one exact solve.

    Unknowns are the coefficients of each cofactor over the monomials of
    degree <= deg(g) - k_i (`_hbase_system`). A missing solution means g
    is no ideal member with these degree bounds.
    """
    if g.n != manifold.n:
        raise DimensionMismatchError("polynomial/manifold dimension mismatch")
    basis, labels, matrix = _hbase_system(manifold, g.degree)
    sol = linalg.solve(matrix, [g.coefficient(mu) for mu in basis])
    return _decomposition(g, manifold, labels, sol)


def random_polynomial(rng: random.Random, n: int, degree: int) -> Polynomial:
    """Small random polynomial of total degree <= degree, integer coefficients."""
    terms: Dict[MultiIndex, Fraction] = {}
    for mu in monomial_basis(n, degree):
        c = rng.randint(-3, 3)
        if c:
            terms[mu] = Fraction(c)
    return Polynomial(n, terms)


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
    passes: List[Tuple[int, int]] = []
    failures: List[str] = []
    systems: Dict[int, tuple] = {}  # degree -> (basis, labels, echelon), eliminated once
    for m in range(manifold.profile.L, mmax + 1):
        ok = 0
        for _ in range(trials):
            g = Polynomial.zero(n)
            for i, f in enumerate(manifold.polynomials):
                k = manifold.profile.ks[i]
                if k > m:
                    continue
                g = g + random_polynomial(rng, n, m - k) * f
            d = g.degree  # g is decomposed at its own degree, which cancellation may lower
            if d not in systems:
                basis, labels, matrix = _hbase_system(manifold, d)
                systems[d] = basis, labels, linalg.row_reduce(matrix)
            basis, labels, ech = systems[d]
            rhs = [g.coefficient(mu) for mu in basis]
            try:
                _decomposition(g, manifold, labels, linalg.replay(ech, rhs))
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
