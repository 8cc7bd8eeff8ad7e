"""Homogeneous elementary-item matrices, monomial selection, canonical
reduction modulo a manifold, and H-base decomposition.

The central object is the degree-m matrix whose rows are the coefficient
vectors of the elementary items X^alpha * g_i (|alpha| + k_i = m) over the
degree-m monomials, where g_i is the leading form of the i-th defining
polynomial. Its pivot columns are the selected monomials; the complement
spans the canonical remainder space on the manifold.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from .dimension import DegreeProfile, binom_e, hilbert_table
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
        self._selections: Dict[int, MonomialSelection] = {}
        self._table_cache = None

    @property
    def s(self) -> int:
        return len(self.polynomials)

    def hilbert(self, m: int):
        if self._table_cache is None or self._table_cache.mmax < m:
            self._table_cache = hilbert_table(self.profile, max(m, self.profile.M + 1, 0))
        return self._table_cache

    def h_of(self, m: int) -> int:
        if m < 0:
            return 0
        return self.hilbert(m).h[m]

    def residuals(self, point: Point) -> List[Fraction]:
        return [p.evaluate(point) for p in self.polynomials]

    def contains(self, point: Point) -> bool:
        return all(r == 0 for r in self.residuals(point))

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
    """Partition of the degree-m monomials into selected and unselected columns."""

    m: int
    monomials: Tuple[MultiIndex, ...]
    matrix: Tuple[Tuple[Fraction, ...], ...]
    labeled_items: Tuple[Tuple[MultiIndex, int], ...]
    selected: Tuple[int, ...]
    unselected: Tuple[int, ...]

    def unselected_monomials(self) -> Tuple[MultiIndex, ...]:
        return tuple(self.monomials[j] for j in self.unselected)

    def selected_monomials(self) -> Tuple[MultiIndex, ...]:
        return tuple(self.monomials[j] for j in self.selected)


def elementary_items(
    forms: Sequence[Polynomial], n: int, m: int
) -> Tuple[Tuple[MultiIndex, ...], List[List[Fraction]], List[Tuple[MultiIndex, int]]]:
    """The degree-m elementary items X^alpha * g_i of homogeneous forms g_i:
    the degree-m monomials, each item's coefficient row over them, and each
    item's label (alpha, i)."""
    monos = tuple(monomials_of_degree(n, m))
    col = {mu: j for j, mu in enumerate(monos)}
    rows: List[List[Fraction]] = []
    labels: List[Tuple[MultiIndex, int]] = []
    for i, g in enumerate(forms):
        for alpha in monomials_of_degree(n, m - g.degree):
            row = [Fraction(0)] * len(monos)
            for beta, c in g.terms.items():
                row[col[tuple(a + b for a, b in zip(alpha, beta))]] = c
            rows.append(row)
            labels.append((alpha, i))
    return monos, rows, labels


def select_monomials(manifold: Manifold, m: int) -> MonomialSelection:
    """Leftmost-greedy pivot-column selection in the elementary-item matrix."""
    if m < 0:
        raise InputError("degree must be >= 0")
    cached = manifold._selections.get(m)
    if cached is not None:
        return cached

    n = manifold.n
    monos, rows, labels = elementary_items(manifold.leading_forms, n, m)
    expected = binom_e(m, n - 1) - manifold.h_of(m)
    if rows:
        ech = linalg.row_reduce(rows)
        rank = ech.rank
        selected = ech.pivot_columns
    else:
        rank = 0
        selected = ()
    if rank != expected:
        raise InsufficientIntersectionError(
            f"elementary items of degree {m} have rank {rank}, expected {expected}: "
            "the leading forms do not meet only at the origin"
        )
    selected_set = set(selected)
    unselected = tuple(j for j in range(len(monos)) if j not in selected_set)
    sel = MonomialSelection(
        m=m,
        monomials=monos,
        matrix=tuple(tuple(r) for r in rows),
        labeled_items=tuple(labels),
        selected=tuple(selected),
        unselected=unselected,
    )
    manifold._selections[m] = sel
    return sel


def canonical_monomials(
    manifold: Optional[Manifold], n: int, upto: int
) -> List[MultiIndex]:
    """Unselected monomials of degrees 0..upto, in the fixed graded order.

    With no manifold this is the full monomial basis: every monomial is
    unselected in the ambient case.
    """
    if manifold is None:
        return list(monomial_basis(n, upto)) if upto >= 0 else []
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
    return linalg.rank(rows) == len(monos)


@dataclass(frozen=True)
class ReducedForm:
    """Exact identity original = remainder + sum_j cofactors[j] * f_j,
    with the remainder supported on unselected monomials only."""

    remainder: Polynomial
    cofactors: Tuple[Polynomial, ...]

    def reassemble(self, manifold: Manifold) -> Polynomial:
        total = self.remainder
        for c, f in zip(self.cofactors, manifold.polynomials):
            total = total + c * f
        return total


def reduce_modulo(f: Polynomial, manifold: Manifold) -> ReducedForm:
    """Canonical-form reduction by degreewise descent.

    At each degree t the top homogeneous part splits into an unselected part
    (kept in the remainder) plus a combination of elementary items; each
    leading form is then traded for its full polynomial, pushing the
    difference down to degree t-1.
    """
    if f.n != manifold.n:
        raise DimensionMismatchError("polynomial/manifold dimension mismatch")
    s = manifold.s
    zero = Polynomial.zero(manifold.n)
    if f.is_zero():
        return ReducedForm(zero, (zero,) * s)

    work = f
    remainder = zero
    cofactors = [zero] * s
    for t in range(f.degree, -1, -1):
        hom = work.homogeneous_component(t)
        if hom.is_zero():
            continue
        sel = select_monomials(manifold, t)
        if not sel.labeled_items:
            remainder = remainder + hom
            work = work - hom
            continue
        v = [hom.coefficient(mu) for mu in sel.monomials]
        # lambda solves (G_t[:, selected])^T lambda = v[selected]; always
        # consistent because the selected columns are the pivot columns
        system = [
            [sel.matrix[r][c] for r in range(len(sel.matrix))] for c in sel.selected
        ]
        rhs = [v[c] for c in sel.selected]
        lam = linalg.solve(system, rhs)
        if lam is None:
            raise InternalCheckError("selected-column system unexpectedly inconsistent")
        combo = [Fraction(0)] * len(sel.monomials)
        for r, weight in enumerate(lam):
            if weight == 0:
                continue
            for j, entry in enumerate(sel.matrix[r]):
                if entry != 0:
                    combo[j] += weight * entry
        u = Polynomial(
            manifold.n,
            {mu: v[j] - combo[j] for j, mu in enumerate(sel.monomials)},
        )
        for j in sel.selected:
            if u.coefficient(sel.monomials[j]) != 0:
                raise InternalCheckError("remainder touches a selected monomial")
        remainder = remainder + u
        subtract = u
        for r, (alpha, i) in enumerate(sel.labeled_items):
            if lam[r] == 0:
                continue
            mono = Polynomial.monomial(alpha, lam[r])
            cofactors[i] = cofactors[i] + mono
            subtract = subtract + mono * manifold.polynomials[i]
        work = work - subtract
        if not work.homogeneous_component(t).is_zero():
            raise InternalCheckError("degree-t part survived its own reduction step")
    if not work.is_zero():
        raise InternalCheckError("descent left a nonzero residue")
    return ReducedForm(remainder, tuple(cofactors))


@dataclass(frozen=True)
class Decomposition:
    """g = sum_i cofactors[i] * f_i with deg cofactors[i] <= deg g - k_i."""

    cofactors: Tuple[Polynomial, ...]

    def reassemble(self, manifold: Manifold) -> Polynomial:
        total = Polynomial.zero(manifold.n)
        for c, f in zip(self.cofactors, manifold.polynomials):
            total = total + c * f
        return total


def hbase_decompose(
    g: Polynomial,
    manifold: Manifold,
    nodes: Optional[Sequence[Point]] = None,
) -> Decomposition:
    """Degree-respecting ideal-membership decomposition by one exact solve.

    Unknowns are the coefficients of each cofactor over the monomials of
    degree <= deg(g) - k_i. A missing solution contradicts proper posedness
    of the node set backing the membership claim and is raised as such.
    """
    if g.n != manifold.n:
        raise DimensionMismatchError("polynomial/manifold dimension mismatch")
    n = manifold.n
    s = manifold.s
    zero = Polynomial.zero(n)
    if g.is_zero():
        return Decomposition((zero,) * s)
    if nodes is not None:
        for q in nodes:
            val = g.evaluate(q)
            if val != 0:
                raise InputError(
                    f"polynomial does not vanish at node {tuple(str(c) for c in q)}: value {val}"
                )
    m = g.degree
    basis = monomial_basis(n, m)
    row_of = {mu: j for j, mu in enumerate(basis.monomials)}
    columns: List[List[Fraction]] = []
    labels: List[Tuple[int, MultiIndex]] = []
    for i, f in enumerate(manifold.polynomials):
        k = manifold.profile.ks[i]
        if k > m:
            continue
        for beta in monomial_basis(n, m - k):
            prod = Polynomial.monomial(beta) * f
            colv = [Fraction(0)] * len(basis)
            for mu, c in prod.terms.items():
                colv[row_of[mu]] = c
            columns.append(colv)
            labels.append((i, beta))
    matrix = [[columns[c][r] for c in range(len(columns))] for r in range(len(basis))]
    rhs = [g.coefficient(mu) for mu in basis.monomials]
    sol = linalg.solve(matrix, rhs)
    if sol is None:
        raise DecompositionError(
            f"no degree-respecting decomposition of {g} exists: "
            "the polynomial is not an ideal member with the claimed bounds"
        )
    cof_terms: List[Dict[MultiIndex, Fraction]] = [dict() for _ in range(s)]
    for (i, beta), c in zip(labels, sol):
        if c != 0:
            cof_terms[i][beta] = c
    cofactors = tuple(Polynomial(n, t) for t in cof_terms)
    dec = Decomposition(cofactors)
    if dec.reassemble(manifold) != g:
        raise InternalCheckError("decomposition failed to re-expand exactly")
    for c, k in zip(cofactors, manifold.profile.ks):
        if not c.in_space(m - k):
            raise InternalCheckError("cofactor degree bound violated")
    return dec


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
    if not infinity_check(manifold):
        raise InsufficientIntersectionError(
            "leading forms share a projective zero; H-base verification refused"
        )
    rng = random.Random(seed)
    n = manifold.n
    passes: List[Tuple[int, int]] = []
    failures: List[str] = []
    for m in range(manifold.profile.L, mmax + 1):
        ok = 0
        for _ in range(trials):
            g = Polynomial.zero(n)
            for i, f in enumerate(manifold.polynomials):
                k = manifold.profile.ks[i]
                if k > m:
                    continue
                g = g + random_polynomial(rng, n, m - k) * f
            if g.is_zero():
                ok += 1  # zero member decomposes trivially
                continue
            try:
                hbase_decompose(g, manifold)
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
