"""Property-based tests (hypothesis) for the skyline substrates."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DominancePolicy
from repro.geometry.transform import to_query_space
from repro.index.scan import ScanIndex
from repro.prefs.oracle import oracle_dynamic_skyline
from repro.skyline.algorithms import (
    PREFILTER_MIN_ROWS,
    _pivot_survivors,
    _sort_scan_2d,
    skyline_indices,
)
from repro.skyline.dominance import dominates
from repro.skyline.dynamic import dynamic_skyline_indices
from repro.skyline.reverse import reverse_skyline_bbrs, reverse_skyline_naive
from repro.skyline.window import window_is_empty


def point_matrices(min_rows=1, max_rows=30, dim=2, grid=8):
    """Matrices with deliberate coordinate collisions, snapped to a dyadic
    grid so mirror arithmetic (2*o - p) is exact in floating point."""

    def build(draw_values):
        arr = np.array(draw_values, dtype=np.float64).reshape(-1, dim)
        return np.round(arr * grid) / grid

    return st.integers(min_rows, max_rows).flatmap(
        lambda n: st.lists(
            st.floats(0, 1, allow_nan=False, width=32),
            min_size=n * dim,
            max_size=n * dim,
        ).map(build)
    )


@st.composite
def large_point_matrices(draw, dim=2):
    """65-600 rows on a dyadic grid, on both sides of the 2-D prefilter's
    row gate.  Coarse grids force ties and duplicates; a constant column
    and extra copies of the three pivot rows (argmin of each column and
    of the coordinate sum) are drawn as flags."""
    n = draw(st.integers(65, 600))
    grid = draw(st.sampled_from([2, 4, 16, 1024]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    arr = rng.integers(0, grid + 1, size=(n, dim)) / grid
    constant = draw(st.sampled_from([None, *range(dim)]))
    if constant is not None:
        arr[:, constant] = rng.integers(0, grid + 1) / grid
    copies = draw(st.integers(0, 3))
    for pivot in (arr[:, 0].argmin(), arr[:, 1].argmin(), arr.sum(1).argmin()):
        arr[rng.integers(0, n, size=copies)] = arr[pivot]
    return arr


def points(dim=2, grid=8):
    return st.lists(
        st.floats(0, 1, allow_nan=False, width=32), min_size=dim, max_size=dim
    ).map(lambda v: np.round(np.array(v) * grid) / grid)


@settings(max_examples=120, deadline=None)
@given(point_matrices())
def test_skyline_members_not_dominated(pts):
    sky = skyline_indices(pts)
    sky_pts = pts[sky]
    for i, p in enumerate(sky_pts):
        for j, other in enumerate(sky_pts):
            if i != j:
                assert not dominates(other, p)


@settings(max_examples=120, deadline=None)
@given(point_matrices())
def test_excluded_points_dominated_by_some_member(pts):
    sky = set(skyline_indices(pts).tolist())
    sky_pts = pts[sorted(sky)]
    for i in range(len(pts)):
        if i in sky:
            continue
        assert any(dominates(s, pts[i]) for s in sky_pts)


@settings(max_examples=80, deadline=None)
@given(point_matrices())
def test_skyline_idempotent(pts):
    first = pts[skyline_indices(pts)]
    second = first[skyline_indices(first)]
    assert np.array_equal(
        np.unique(first, axis=0), np.unique(second, axis=0)
    )


@settings(max_examples=80, deadline=None)
@given(point_matrices(), points())
def test_dynamic_skyline_invariant_under_reflection(pts, origin):
    mirrored = 2 * origin - pts
    assert np.array_equal(
        dynamic_skyline_indices(pts, origin),
        dynamic_skyline_indices(mirrored, origin),
    )


@settings(max_examples=60, deadline=None)
@given(point_matrices(min_rows=2), points())
def test_reverse_skyline_definition(pts, q):
    """c in RSL(q) iff its window over P is empty — per customer."""
    idx = ScanIndex(pts)
    members = set(
        reverse_skyline_naive(idx, pts, q, self_exclude=True).tolist()
    )
    for j in range(len(pts)):
        empty = window_is_empty(idx, pts[j], q, exclude=(j,))
        assert (j in members) == empty


@settings(max_examples=60, deadline=None)
@given(point_matrices(min_rows=2), points())
def test_bbrs_equals_naive(pts, q):
    idx = ScanIndex(pts)
    for policy in (DominancePolicy.WEAK, DominancePolicy.STRICT):
        assert np.array_equal(
            reverse_skyline_naive(idx, pts, q, policy, self_exclude=True),
            reverse_skyline_bbrs(idx, pts, q, policy, self_exclude=True),
        )


@settings(max_examples=60, deadline=None)
@given(point_matrices(min_rows=2, dim=3), points(dim=3))
def test_bbrs_equals_naive_3d(pts, q):
    idx = ScanIndex(pts)
    assert np.array_equal(
        reverse_skyline_naive(idx, pts, q, self_exclude=True),
        reverse_skyline_bbrs(idx, pts, q, self_exclude=True),
    )


ORIGIN_2D = np.zeros(2)


@settings(max_examples=40, deadline=None)
@given(large_point_matrices())
def test_large_skyline_equals_oracle(pts):
    """``pts >= 0``, so the dynamic skyline at the origin is the skyline."""
    assert np.array_equal(
        skyline_indices(pts), oracle_dynamic_skyline(pts, ORIGIN_2D)
    )


@settings(max_examples=40, deadline=None)
@given(large_point_matrices())
def test_pivot_filter_keeps_every_skyline_row(pts):
    """The filter is exact below the row gate too: it drops only
    dominated rows, and the survivors' skyline is the full skyline."""
    survivors = _pivot_survivors(pts)
    sky = _sort_scan_2d(pts)
    assert np.all(np.isin(sky, survivors))
    assert np.array_equal(survivors[_sort_scan_2d(pts[survivors])], sky)
    if pts.shape[0] >= PREFILTER_MIN_ROWS:
        assert np.array_equal(skyline_indices(pts), sky)


@settings(max_examples=30, deadline=None)
@given(large_point_matrices(), points(grid=16), st.integers(0, 2**32 - 1))
def test_large_dynamic_skyline_equals_oracle(pts, origin, seed):
    """Excluded rows include a pivot of the transformed data, and every
    row once."""
    rng = np.random.default_rng(seed)
    n = pts.shape[0]
    exclude = rng.choice(n, size=int(rng.integers(1, 4)), replace=False)
    pivot = int(np.abs(pts - origin).sum(axis=1).argmin())
    for ex in ((), [*exclude.tolist(), pivot], list(range(n))):
        assert np.array_equal(
            dynamic_skyline_indices(pts, origin, ex),
            oracle_dynamic_skyline(pts, origin, exclude=ex),
        )


@settings(max_examples=20, deadline=None)
@given(
    large_point_matrices(dim=3),
    points(dim=3, grid=16),
    st.sampled_from([(1.0, 2.0, 0.0), (0.0, 0.5, 1.0), (3.0, 0.0, 1.0)]),
)
def test_large_partial_support_skyline_equals_oracle(pts, origin, weights):
    """Two support columns of three: the 2-D path runs on the slice."""
    w = np.asarray(weights)
    assert np.array_equal(
        skyline_indices(pts, w),
        oracle_dynamic_skyline(pts, np.zeros(3), weights=w),
    )
    for ex in ((), (0, pts.shape[0] - 1)):
        assert np.array_equal(
            dynamic_skyline_indices(pts, origin, ex, weights=w),
            oracle_dynamic_skyline(pts, origin, weights=w, exclude=ex),
        )


def _copying_dynamic_skyline(pts, origin, exclude, weights=None):
    """The reference ``exclude`` path: copy every kept row out, then take
    the skyline of the copy."""
    exclude_arr = np.asarray(list(exclude), dtype=np.int64)
    positions = np.delete(np.arange(pts.shape[0]), exclude_arr)
    local = skyline_indices(to_query_space(pts[positions], origin), weights)
    return positions[local]


@st.composite
def excluded_rows(draw, min_rows=1, max_rows=30):
    """``(points, origin, exclude, weights)`` over 2-D and 3-D dyadic
    data with duplicate rows; ``exclude`` may repeat rows or cover all
    of them, and the weights include unit, scaled and partial-support
    vectors (one dropped dimension)."""
    dim = draw(st.sampled_from([2, 3]))
    pts = draw(point_matrices(min_rows, max_rows, dim=dim))
    pts = np.vstack([pts, pts[: draw(st.integers(0, pts.shape[0]))]])
    origin = draw(points(dim=dim))
    n = pts.shape[0]
    if draw(st.booleans()):
        exclude = list(range(n))
    else:
        exclude = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n))
    weights = draw(
        st.sampled_from([None, np.ones(dim), np.arange(1.0, dim + 1)])
        | st.integers(0, dim - 1).map(
            lambda d: np.where(np.arange(dim) == d, 0.0, 1.0)
        )
    )
    return pts, origin, exclude, weights


@settings(max_examples=150, deadline=None)
@given(excluded_rows())
def test_exclude_without_copy_equals_copying_reference(case):
    pts, origin, exclude, weights = case
    assert np.array_equal(
        dynamic_skyline_indices(pts, origin, exclude, weights),
        _copying_dynamic_skyline(pts, origin, exclude, weights),
    )

