import itertools
import math
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ppsn import (
    DegreeProfile,
    InputError,
    InternalCheckError,
    backward_diff_e,
    binom_e,
    curve_dimension_closed_form,
    dim_along,
    hilbert_table,
)
from ppsn import dimension


def test_binom_e_values():
    assert binom_e(-1, 3) == 0
    assert binom_e(0, 3) == 1
    assert binom_e(2, 3) == 10
    assert binom_e(3, 2) == 10


def test_line_in_plane_dimensions():
    # points on a line: dimension m+1 at every degree
    profile = DegreeProfile(2, (1,))
    table = hilbert_table(profile, 4)
    assert table.h == (1, 1, 1, 1, 1)
    assert table.H == (1, 2, 3, 4, 5)
    for m in range(11):
        assert dim_along(m, profile) == m + 1


def test_conic_in_plane_dimensions():
    profile = DegreeProfile(2, (2,))
    for m in range(1, 8):
        assert dim_along(m, profile) == 2 * m + 1
    assert dim_along(2, profile) == 5


def test_cube_quadric_profiles():
    three = DegreeProfile(3, (2, 2, 2))
    assert hilbert_table(three, 4).h == (1, 3, 3, 1, 0)
    assert dim_along(2, three) == 7
    assert dim_along(3, three) == 8
    two = DegreeProfile(3, (2, 2))
    assert dim_along(2, two) == 8


def test_grid_profile():
    profile = DegreeProfile(2, (3, 3))
    assert profile.N == 9
    assert profile.M == 4
    assert [dim_along(m, profile) for m in range(6)] == [1, 3, 6, 8, 9, 9]


def test_macaulay_d_column():
    table = hilbert_table(DegreeProfile(3, (2, 2, 2)), 4)
    assert table.d == (0, 0, 3, 9, 15)


def test_profile_validation():
    with pytest.raises(InputError):
        DegreeProfile(0, (1,))
    with pytest.raises(InputError):
        DegreeProfile(2, ())
    with pytest.raises(InputError):
        DegreeProfile(2, (1, 1, 1))
    with pytest.raises(InputError):
        DegreeProfile(2, (0,))
    with pytest.raises(InputError):
        DegreeProfile(3, (2, 2)).N  # noqa: B018


def test_negative_degree_is_zero_space():
    assert dim_along(-1, DegreeProfile(2, (2,))) == 0
    assert dim_along(-3, DegreeProfile(3, (2, 2))) == 0


def test_curve_closed_form_matches_series():
    for n in (2, 3, 4):
        for ks in [(2,) * (n - 1), (3,) * (n - 1), tuple(range(1, n))]:
            if len(ks) != n - 1 or not ks:
                continue
            profile = DegreeProfile(n, ks)
            for m in range(max(profile.M, 0), profile.M + 6):
                assert curve_dimension_closed_form(m, profile) == dim_along(m, profile)


def test_curve_closed_form_guards():
    with pytest.raises(InputError):
        curve_dimension_closed_form(5, DegreeProfile(3, (2, 2, 2)))
    profile = DegreeProfile(3, (3, 3))
    with pytest.raises(InputError):
        curve_dimension_closed_form(profile.M - 1, profile)


@settings(max_examples=80)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.integers(1, 4), min_size=1, max_size=n),
        )
    ),
    st.integers(0, 12),
)
def test_series_equals_backward_difference(profile_args, m):
    n, ks = profile_args
    profile = DegreeProfile(n, tuple(ks))
    assert dim_along(m, profile) == backward_diff_e(m, n, tuple(ks))


@settings(max_examples=50)
@given(st.integers(1, 4), st.integers(0, 10))
def test_full_ambient_profile_of_linear_forms(n, m):
    # n independent hyperplanes: a single point, dimension 1 from degree 0 on
    profile = DegreeProfile(n, (1,) * n)
    assert dim_along(m, profile) == 1


def test_saturation_at_total_degree():
    for ks in [(2, 3), (4, 4)]:
        profile = DegreeProfile(2, ks)
        for m in range(profile.M, profile.M + 5):
            assert dim_along(m, profile) == math.prod(ks)


def recursive_backward_diff(m, n, ks):
    """Reference: the nested difference by its definition, 2^s terms."""
    if not ks:
        return binom_e(m, n)
    head = ks[:-1]
    return recursive_backward_diff(m, n, head) - recursive_backward_diff(m - ks[-1], n, head)


@settings(max_examples=100)
@given(
    st.integers(1, 6),
    st.lists(st.integers(1, 5), max_size=6),
    st.integers(-3, 15),
)
def test_backward_difference_table_matches_recursion(n, ks, m):
    assert backward_diff_e(m, n, tuple(ks)) == recursive_backward_diff(m, n, tuple(ks))
    if m >= 0:
        want = [recursive_backward_diff(j, n, tuple(ks)) for j in range(m + 1)]
        assert dimension.backward_diff_table(m, n, tuple(ks)) == want


@settings(max_examples=80)
@given(
    st.one_of(st.integers(1, 6), st.just(10**9)).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.integers(1, 5), min_size=1, max_size=min(n, 6)),
        )
    ),
    st.integers(0, 14),
)
@example((1, [3]), 0)
@example((1, [1]), 9)
@example((4, [2, 1, 3, 2]), 11)  # s = n
@example((10**9, [2, 3]), 6)  # binomials of a billion-dimensional space
def test_hilbert_table_is_the_per_term_convolution(profile_args, m):
    n, ks = profile_args
    num = dimension.series_numerator(ks, m)
    h = [sum(num[i] * binom_e(j - i, n - 1) for i in range(j + 1)) for j in range(m + 1)]
    table = hilbert_table(DegreeProfile(n, tuple(ks)), m)
    assert table.h == tuple(h)
    assert table.H == tuple(itertools.accumulate(h))
    assert table.d == tuple(binom_e(j, n - 1) - h[j] for j in range(m + 1))


def test_backward_difference_is_polynomial_in_s():
    # the recursion doubles with each hypersurface: 0.6 s at n = s = 20
    start = time.perf_counter()
    value = backward_diff_e(20, 20, (1,) * 20)
    assert time.perf_counter() - start < 0.1
    assert value == 1  # 20 hyperplanes in 20-space meet in one point



def test_dim_along_cross_checks_each_key_once(monkeypatch):
    profile = DegreeProfile(3, (2, 2))
    original = dimension.backward_diff_e
    calls = []

    def spy(m, n, ks):
        calls.append(m)
        return original(m, n, ks)

    dimension._checked_dim.cache_clear()
    monkeypatch.setattr(dimension, "backward_diff_e", lambda m, n, ks: original(m, n, ks) + 1)
    with pytest.raises(InternalCheckError, match="cross-check"):
        dim_along(4, profile)
    # a failed check caches nothing, and a passing one runs once per (m, profile)
    monkeypatch.setattr(dimension, "backward_diff_e", spy)
    assert {dim_along(4, DegreeProfile(3, (2, 2))) for _ in range(3)} == {original(4, 3, (2, 2))}
    assert calls == [4]
