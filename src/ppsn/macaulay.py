"""Homogeneous elementary-item matrices, monomial selection, canonical
reduction modulo a manifold, and H-base decomposition.

The central object is the degree-m matrix whose rows are the coefficient
vectors of the elementary items X^alpha * g_i (|alpha| + k_i = m) over the
degree-m monomials, where g_i is the leading form of the i-th defining
polynomial. Its pivot columns are the selected monomials; the complement
spans the canonical remainder space on the manifold.

`reduce_modulo` descends degree by degree in one mutable coefficient dict:
at each degree one solve against the selected columns gives the item
weights, which are the cofactor coefficients, and subtracting each weighted
X^alpha * f_i term by term leaves only unselected monomials of that degree,
which join the remainder. `hbase_decompose` writes each unknown's column
X^beta * f_i straight from f_i's terms into one row-major system. Both build
their result polynomials once, at the end.
"""

from __future__ import annotations

import functools
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

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
    """Partition of the degree-m monomials into selected and unselected columns."""

    m: int
    monomials: Tuple[MultiIndex, ...]
    matrix: Tuple[Tuple[Fraction, ...], ...]
    labeled_items: Tuple[Tuple[MultiIndex, int], ...]
    selected: Tuple[int, ...]
    unselected: Tuple[int, ...]

    def unselected_monomials(self) -> Tuple[MultiIndex, ...]:
        return tuple(self.monomials[j] for j in self.unselected)


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
    """Leftmost-greedy pivot-column selection in the elementary-item matrix.

    The selection depends only on the leading forms, the degree profile and
    m, so manifolds with equal leading forms share one (`_selection`)."""
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
    return MonomialSelection(
        m=m,
        monomials=monos,
        matrix=tuple(tuple(r) for r in rows),
        labeled_items=tuple(labels),
        selected=tuple(selected),
        unselected=unselected,
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
    """Canonical-form reduction by degreewise descent in one coefficient dict.

    `work` starts as f's terms. At each degree t, from deg f down, whose
    part in `work` is nonzero, lambda solves the transposed selected block
    of the elementary items against that part's selected coefficients. Each
    nonzero lambda on item (alpha, i) is the coefficient of X^alpha in
    cofactor i, and lambda * X^alpha * f_i is subtracted from `work` term by
    term: its leading form clears the selected monomials of degree t, its
    lower terms fall to lower degrees. What is left of degree t lies on
    unselected monomials and moves to the remainder. Each Polynomial is
    built once, at the end.
    """
    if f.n != manifold.n:
        raise DimensionMismatchError("polynomial/manifold dimension mismatch")
    n = manifold.n
    work: Dict[MultiIndex, Fraction] = dict(f.terms)
    remainder: Dict[MultiIndex, Fraction] = {}
    cofactors: List[Dict[MultiIndex, Fraction]] = [{} for _ in manifold.polynomials]
    for t in range(f.degree, -1, -1):
        if not any(c for mu, c in work.items() if sum(mu) == t):
            continue
        sel = select_monomials(manifold, t)
        if sel.labeled_items:
            # lambda solves (G_t[:, selected])^T lambda = work[selected];
            # always consistent because the selected columns are the pivot columns
            system = [[row[c] for row in sel.matrix] for c in sel.selected]
            rhs = [work.get(sel.monomials[c], 0) for c in sel.selected]
            lam = linalg.solve(system, rhs)
            if lam is None:
                raise InternalCheckError("selected-column system unexpectedly inconsistent")
            for weight, (alpha, i) in zip(lam, sel.labeled_items):
                if not weight:
                    continue
                cofactors[i][alpha] = weight
                for beta, c in manifold.polynomials[i].terms.items():
                    mu = tuple(map(operator.add, alpha, beta))
                    work[mu] = work.get(mu, 0) - weight * c
        if any(work.get(sel.monomials[j]) for j in sel.selected):
            raise InternalCheckError("remainder touches a selected monomial")
        for mu in [mu for mu in work if sum(mu) == t]:
            remainder[mu] = work.pop(mu)
    if any(work.values()):
        raise InternalCheckError("descent left a nonzero residue")
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


def hbase_decompose(g: Polynomial, manifold: Manifold) -> Decomposition:
    """Degree-respecting ideal-membership decomposition by one exact solve.

    Unknowns are the coefficients of each cofactor over the monomials of
    degree <= deg(g) - k_i; the column of unknown (i, beta) holds the
    coefficients of X^beta * f_i, written from f_i's terms. A missing
    solution means g is no ideal member with these degree bounds.
    """
    if g.n != manifold.n:
        raise DimensionMismatchError("polynomial/manifold dimension mismatch")
    n = manifold.n
    m = g.degree
    basis = monomial_basis(n, m)
    row_of = {mu: r for r, mu in enumerate(basis)}
    labels = [
        (i, beta)
        for i, k in enumerate(manifold.profile.ks)
        if k <= m
        for beta in monomial_basis(n, m - k)
    ]
    matrix: List[List[Fraction]] = [[0] * len(labels) for _ in basis]
    for col, (i, beta) in enumerate(labels):
        for alpha, c in manifold.polynomials[i].terms.items():
            matrix[row_of[tuple(map(operator.add, beta, alpha))]][col] = c
    rhs = [g.coefficient(mu) for mu in basis]
    sol = linalg.solve(matrix, rhs)
    if sol is None:
        raise DecompositionError(
            f"no degree-respecting decomposition of {g} exists: "
            "the polynomial is not an ideal member with the claimed bounds"
        )
    cof_terms: List[Dict[MultiIndex, Fraction]] = [{} for _ in manifold.polynomials]
    for (i, beta), c in zip(labels, sol):
        cof_terms[i][beta] = c
    cofactors = tuple(Polynomial._trusted(n, t) for t in cof_terms)
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
    for m in range(manifold.profile.L, mmax + 1):
        ok = 0
        for _ in range(trials):
            g = Polynomial.zero(n)
            for i, f in enumerate(manifold.polynomials):
                k = manifold.profile.ks[i]
                if k > m:
                    continue
                g = g + random_polynomial(rng, n, m - k) * f
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
