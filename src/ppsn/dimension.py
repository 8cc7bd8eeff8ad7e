"""Combinatorial dimension formulas for polynomial spaces along manifolds.

Two independent routes compute the dimension of the degree-<=m polynomial
space restricted to a complete-intersection-type manifold with degree
vector (k_1..k_s) in n-space:

  * generating-function route: the coefficient of t^j in
    (1 - t^{k_1}) ... (1 - t^{k_s}) * (1 - t)^{-n}, accumulated
    (`hilbert_table`, O(mmax^2) products for degrees 0..mmax);
  * nested backward differences of the binomials C(m+n, n)
    (`backward_diff_table`, O(s*mmax) for degrees 0..mmax).

Each route yields a whole table of degrees 0..mmax in one pass. They agree
on every valid profile; `dim_along` checks the identity for every
(m, profile) it returns and fails loudly on mismatch, and `ppsn dim` checks
it on every row of its table.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import accumulate
from operator import mul, sub
from typing import List, Sequence, Tuple

from .errors import InputError, InternalCheckError


def binom_e(m: int, n: int) -> int:
    """C(m+n, n), with the convention that it vanishes for m < 0."""
    if m < 0:
        return 0
    return math.comb(m + n, n)


def backward_diff_table(mmax: int, n: int, ks: Sequence[int]) -> List[int]:
    """Nested backward differences of C(m+n, n) with steps k_1..k_s, for
    every m = 0..mmax, as one O(s*mmax) table: v[m] = C(m+n, n), then
    v[m] -= v[m-k] per step. Independent of the series route, which
    convolves the product of the (1 - t^k) with C(j+n-1, n-1) and then
    accumulates."""
    v = [binom_e(m, n) for m in range(mmax + 1)]
    for k in ks:
        # every v[m - k] read is the value before this step
        v[k:] = list(map(sub, v[k:], v))
    return v


def backward_diff_e(m: int, n: int, ks: Sequence[int]) -> int:
    """The nested backward difference at m alone: the last entry of
    `backward_diff_table(m, n, ks)`, and 0 for m < 0."""
    if m < 0:
        return 0
    return backward_diff_table(m, n, ks)[m]


@dataclass(frozen=True)
class DegreeProfile:
    """Ambient dimension n plus the degree vector of the defining hypersurfaces."""

    n: int
    ks: Tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "ks", tuple(int(k) for k in self.ks))
        if self.n < 1:
            raise InputError("ambient dimension must be >= 1")
        if not 1 <= len(self.ks) <= self.n:
            raise InputError(
                f"number of hypersurfaces must be between 1 and n={self.n}"
            )
        if any(k < 1 for k in self.ks):
            raise InputError("all hypersurface degrees must be >= 1")

    @property
    def s(self) -> int:
        return len(self.ks)

    @property
    def M(self) -> int:
        """Sum of the degrees minus n; may be negative."""
        return sum(self.ks) - self.n

    @property
    def L(self) -> int:
        return min(self.ks)

    @property
    def N(self) -> int:
        """Product of the degrees; defined only for the 0-dimensional case s = n."""
        if self.s != self.n:
            raise InputError("point count N is defined only when s = n")
        return math.prod(self.ks)


@dataclass(frozen=True)
class HilbertTable:
    """h, cumulative H and Macaulay d sequences for one profile, degrees 0..mmax."""

    profile: DegreeProfile
    mmax: int
    h: Tuple[int, ...]
    H: Tuple[int, ...]
    d: Tuple[int, ...]


def series_numerator(ks: Sequence[int], mmax: int) -> List[int]:
    """Coefficients of the product (1 - t^{k_1}) ... (1 - t^{k_s}), truncated."""
    coeffs = [0] * (mmax + 1)
    coeffs[0] = 1
    for k in ks:
        nxt = list(coeffs)
        for j in range(k, mmax + 1):
            nxt[j] -= coeffs[j - k]
        coeffs = nxt
    return coeffs


def hilbert_table(profile: DegreeProfile, mmax: int) -> HilbertTable:
    """Exact truncated series expansion of the profile's generating function:
    the series numerator convolved with the t^i coefficients C(i+n-1, n-1)
    of (1 - t)^{-n}, each binomial taken once per table, in O(mmax^2)
    products."""
    if mmax < 0:
        raise InputError("mmax must be >= 0")
    num = series_numerator(profile.ks, mmax)
    b = [binom_e(i, profile.n - 1) for i in range(mmax + 1)]
    h = [sum(map(mul, num, b[j::-1])) for j in range(mmax + 1)]
    return HilbertTable(
        profile=profile, mmax=mmax, h=tuple(h), H=tuple(accumulate(h)), d=tuple(map(sub, b, h))
    )


def dim_along(m: int, profile: DegreeProfile) -> int:
    """Dimension of the degree-<=m polynomial space along the manifold.

    Cross-checks the generating-function value against the backward
    difference once for each (m, profile), whose value is then cached;
    disagreement is an implementation bug. Negative m denotes the zero
    space and has dimension 0.
    """
    if m < 0:
        return 0
    return _checked_dim(m, profile)


@functools.lru_cache(maxsize=1024)
def _checked_dim(m: int, profile: DegreeProfile) -> int:
    value = hilbert_table(profile, m).H[m]
    check = backward_diff_e(m, profile.n, profile.ks)
    if value != check:
        raise InternalCheckError(
            f"dimension cross-check failed for {profile}, m={m}: "
            f"series gives {value}, backward difference gives {check}"
        )
    return value


def curve_dimension_closed_form(m: int, profile: DegreeProfile) -> int:
    """Closed form for s = n-1 and m >= M: (1/2) k_1...k_{n-1} (2m + n + 1 - sum k_i)."""
    if profile.s != profile.n - 1:
        raise InputError("closed form applies only to s = n-1")
    if m < profile.M:
        raise InputError(f"closed form requires m >= {profile.M}")
    twice = math.prod(profile.ks) * (2 * m + profile.n + 1 - sum(profile.ks))
    if twice % 2:
        raise InternalCheckError("curve dimension closed form is not an integer")
    return twice // 2
