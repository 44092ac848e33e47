"""Property tests pinning the batch kernels to the per-customer oracle.

The blocked kernels of :mod:`repro.kernels.membership` must agree
bit-for-bit with the per-customer index path for every policy, with and
without monochromatic self-exclusion, and for any ``block_size`` —
smaller than, equal to, or larger than the number of customers — since
tiling is purely an execution detail.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DominancePolicy
from repro.core._verify import verify_membership
from repro.index.scan import ScanIndex
from repro.kernels.membership import (
    batch_lambda_counts,
    batch_verify_membership,
    batch_window_membership,
)
from repro.skyline.global_skyline import global_skyline_candidates
from repro.skyline.reverse import reverse_skyline_bbrs, reverse_skyline_naive
from repro.skyline.window import window_is_empty, window_query_indices


def matrices(min_rows=1, max_rows=30):
    return st.integers(min_rows, max_rows).flatmap(
        lambda n: st.lists(
            st.floats(0, 1, allow_nan=False, width=32),
            min_size=n * 2,
            max_size=n * 2,
        ).map(lambda v: np.round(np.array(v).reshape(-1, 2) * 16) / 16)
    )


def unit_points():
    return st.lists(
        st.floats(0, 1, allow_nan=False, width=32), min_size=2, max_size=2
    ).map(lambda v: np.round(np.array(v) * 16) / 16)


policies = st.sampled_from(list(DominancePolicy))
booleans = st.booleans()
block_sizes = st.integers(1, 70)


@settings(max_examples=120, deadline=None)
@given(matrices(), unit_points(), policies, booleans, block_sizes)
def test_membership_kernel_matches_window_oracle(
    pts, q, policy, self_exclude, block_size
):
    """The kernel equals window_is_empty per customer — any tile width."""
    idx = ScanIndex(pts)
    m = pts.shape[0]
    mask = batch_window_membership(
        pts,
        pts,
        q,
        policy,
        self_positions=(
            np.arange(m, dtype=np.int64) if self_exclude else None
        ),
        block_size=block_size,
    )
    expected = np.array(
        [
            window_is_empty(
                idx, pts[j], q, policy, exclude=(j,) if self_exclude else ()
            )
            for j in range(m)
        ],
        dtype=bool,
    )
    assert np.array_equal(mask, expected), (pts, q, policy, self_exclude)


@settings(max_examples=80, deadline=None)
@given(matrices(), unit_points(), policies, booleans, block_sizes)
def test_reverse_skyline_kernel_paths_match_oracle(
    pts, q, policy, self_exclude, block_size
):
    """naive == bbrs == kernel over every customer == kernel over the
    BBRS survivors, for every configuration."""
    idx = ScanIndex(pts)
    m = pts.shape[0]
    oracle = reverse_skyline_naive(idx, pts, q, policy, self_exclude=self_exclude)
    bbrs = reverse_skyline_bbrs(idx, pts, q, policy, self_exclude=self_exclude)
    naive_k = np.flatnonzero(
        batch_window_membership(
            pts,
            pts,
            q,
            policy,
            self_positions=(
                np.arange(m, dtype=np.int64) if self_exclude else None
            ),
            block_size=block_size,
        )
    )
    cand = np.asarray(
        global_skyline_candidates(pts, pts, q, self_exclude=self_exclude),
        dtype=np.int64,
    )
    bbrs_k = cand[
        batch_window_membership(
            pts,
            pts[cand],
            q,
            policy,
            self_positions=cand if self_exclude else None,
            block_size=block_size,
        )
    ]
    assert np.array_equal(oracle, bbrs)
    assert np.array_equal(oracle, naive_k)
    assert np.array_equal(oracle, bbrs_k)


@settings(max_examples=80, deadline=None)
@given(matrices(), unit_points(), policies, booleans, block_sizes)
def test_lambda_count_kernel_matches_window_oracle(
    pts, q, policy, self_exclude, block_size
):
    """Λ-counts equal the per-customer window result sizes."""
    idx = ScanIndex(pts)
    m = pts.shape[0]
    counts = batch_lambda_counts(
        pts,
        pts,
        q,
        policy,
        self_positions=(
            np.arange(m, dtype=np.int64) if self_exclude else None
        ),
        block_size=block_size,
    )
    for j in range(m):
        lam = window_query_indices(
            idx, pts[j], q, policy, exclude=(j,) if self_exclude else ()
        )
        assert counts[j] == lam.size, (pts, q, policy, self_exclude, j)


@settings(max_examples=80, deadline=None)
@given(matrices(), unit_points(), policies, booleans, block_sizes)
def test_verify_kernel_matches_tolerant_oracle(
    pts, q, policy, self_exclude, block_size
):
    """The tolerance-aware kernel equals verify_membership per customer."""
    idx = ScanIndex(pts)
    m = pts.shape[0]
    mask = batch_verify_membership(
        pts,
        pts,
        q,
        policy,
        self_positions=(
            np.arange(m, dtype=np.int64) if self_exclude else None
        ),
        block_size=block_size,
    )
    for j in range(m):
        assert mask[j] == verify_membership(
            idx, pts[j], q, policy, (j,) if self_exclude else ()
        ), (pts, q, policy, self_exclude, j)


@st.composite
def row_query_cases(draw):
    """Products, per-row (center, query) pairs, self positions and
    preference weights in d = 2..3 on a 1/16 grid.  Half the centers are
    product/query midpoints (1/32 grid), the boundary an MWP candidate
    sits on; weights of 0 drop dimensions (partial support)."""
    dim = draw(st.integers(2, 3))
    n = draw(st.integers(1, 20))
    rows = draw(st.integers(1, 25))
    grid = st.integers(0, 16)
    prods = np.array(draw(st.lists(grid, min_size=n * dim, max_size=n * dim)))
    prods = prods.reshape(n, dim) / 16
    cells = draw(st.lists(grid, min_size=2 * rows * dim, max_size=2 * rows * dim))
    centers, queries = np.array(cells).reshape(2, rows, dim) / 16
    mids = draw(st.lists(st.integers(0, n - 1), min_size=rows, max_size=rows))
    halve = np.arange(rows) % 2 == 0
    centers[halve] = (prods[mids][halve] + queries[halve]) / 2
    selfs = np.array(
        draw(st.lists(st.integers(-1, n - 1), min_size=rows, max_size=rows)),
        dtype=np.int64,
    )
    weights = draw(
        st.none()
        | st.lists(st.integers(0, 2), min_size=dim, max_size=dim)
        .filter(any)
        .map(lambda w: np.array(w, dtype=np.float64))
    )
    return prods, centers, queries, selfs, weights


@settings(max_examples=120, deadline=None)
@given(row_query_cases(), policies, block_sizes, st.sampled_from(["scan", "rtree"]))
def test_verify_kernel_per_row_queries_match_scalar(case, policy, block_size, backend):
    """With an ``(m, d)`` query matrix, row ``j`` of the tolerance-aware
    kernel equals ``verify_membership(centers[j], queries[j])`` with
    ``self_positions[j]`` excluded and the preference support as
    ``dims`` — on the index backends the scalar path queries."""
    from repro.index import make_index
    from repro.prefs.model import support_dims

    prods, centers, queries, selfs, weights = case
    idx = make_index(backend, prods)
    mask = batch_verify_membership(
        prods,
        centers,
        queries,
        policy,
        self_positions=selfs,
        block_size=block_size,
        dims=support_dims(weights, prods.shape[1]),
    )
    for j in range(centers.shape[0]):
        exclude = (int(selfs[j]),) if selfs[j] >= 0 else ()
        assert mask[j] == verify_membership(
            idx, centers[j], queries[j], policy, exclude, weights=weights
        ), (j, policy, weights)
