"""``batch_lambda_sets`` against the per-row window query, and the WEAK
window-edge agreement of every exact kernel.

The oracle is :func:`repro.skyline.window.window_query_indices` on both
index backends.  Grid cases put many products exactly on window faces;
edge cases use arbitrary (non-dyadic) floats and place products on the
rounded window box ``c ± r`` and its ulp neighbours, where ``|p - c|``
can round to ``r`` while ``p`` lies outside the box.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DominancePolicy
from repro.index.rtree import RTree
from repro.index.scan import ScanIndex
from repro.kernels.membership import (
    KernelCounters,
    batch_lambda_counts,
    batch_lambda_sets,
    batch_window_membership,
)
from repro.kernels.pruned import (
    batch_lambda_counts_pruned,
    batch_window_membership_pruned,
)
from repro.skyline.window import window_query_indices

BACKENDS = {"scan": ScanIndex, "rtree": RTree}
POLICIES = list(DominancePolicy)
coords = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)


def grid(draw, rows: int, dim: int) -> np.ndarray:
    cells = draw(st.lists(st.integers(0, 8), min_size=rows * dim, max_size=rows * dim))
    return np.array(cells, dtype=np.float64).reshape(rows, dim) / 8


def support(draw, dim: int):
    """``None`` (full support) or a partial column subset."""
    return draw(
        st.none()
        | st.lists(st.integers(0, dim - 1), min_size=1, max_size=dim - 1, unique=True)
        .map(lambda d: np.array(sorted(d), dtype=np.int64))
    )


def weights_of(dims, dim: int):
    if dims is None:
        return None
    w = np.zeros(dim)
    w[dims] = 1.0
    return w


@st.composite
def grid_cases(draw):
    dim = draw(st.integers(2, 3))
    n = draw(st.integers(0, 24))
    m = draw(st.integers(0, 6))
    products = grid(draw, n, dim)
    centers = grid(draw, m, dim)
    queries = grid(draw, m, dim)
    self_positions = np.array(
        [draw(st.integers(-1, n - 1)) for _ in range(m)], dtype=np.int64
    )
    return products, centers, queries, self_positions, support(draw, dim)


def _edge_products(draw, c: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Products on the faces of the rounded box ``c ± |c - q|`` and one or
    two ulps either side, each inside the window in the other columns."""
    r = np.abs(c - q)
    rows = []
    for k in range(c.size):
        for edge in (c[k] - r[k], c[k] + r[k]):
            for steps in (-2, -1, 0, 1, 2):
                p = c.copy()
                value = edge
                for _ in range(abs(steps)):
                    value = np.nextafter(value, np.inf if steps > 0 else -np.inf)
                p[k] = value
                if draw(st.booleans()):
                    # Off-centre in the other columns, still inside them.
                    others = [j for j in range(c.size) if j != k]
                    p[others] = c[others] + r[others] * draw(
                        st.sampled_from([-0.5, 0.25, 0.75])
                    )
                rows.append(p)
    return np.array(rows)


@st.composite
def edge_cases(draw):
    """Non-dyadic center/query rows with products at their window edges."""
    dim = draw(st.integers(2, 3))
    m = draw(st.integers(1, 3))
    centers = np.array(draw(st.lists(coords, min_size=m * dim, max_size=m * dim)))
    centers = centers.reshape(m, dim)
    queries = np.array(draw(st.lists(coords, min_size=m * dim, max_size=m * dim)))
    queries = queries.reshape(m, dim)
    products = np.vstack(
        [_edge_products(draw, c, q) for c, q in zip(centers, queries)]
    )
    n = products.shape[0]
    self_positions = np.array(
        [draw(st.integers(-1, n - 1)) for _ in range(m)], dtype=np.int64
    )
    return products, centers, queries, self_positions, support(draw, dim)


def _check_against_window(case, policy, backend):
    products, centers, queries, self_positions, dims = case
    index = BACKENDS[backend](products.reshape(-1, centers.shape[1]))
    counters = KernelCounters()
    offsets, positions = batch_lambda_sets(
        products, centers, queries, policy, self_positions, dims, counters
    )
    assert offsets.shape == (centers.shape[0] + 1,)
    assert offsets[-1] == positions.size
    w = weights_of(dims, centers.shape[1])
    for j, (c, q) in enumerate(zip(centers, queries)):
        exclude = () if self_positions[j] < 0 else (int(self_positions[j]),)
        expected = window_query_indices(index, c, q, policy, exclude, weights=w)
        got = positions[offsets[j] : offsets[j + 1]]
        assert got.dtype == np.int64
        assert got.tolist() == expected.tolist(), (j, c, q)
    if centers.shape[0] and products.shape[0]:
        assert counters.customers_evaluated.value == centers.shape[0]


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
class TestBatchLambdaSets:
    @settings(max_examples=80, deadline=None)
    @given(case=grid_cases())
    def test_grid_rows_equal_window_query(self, case, policy, backend):
        _check_against_window(case, policy, backend)

    @settings(max_examples=80, deadline=None)
    @given(case=edge_cases())
    def test_edge_rows_equal_window_query(self, case, policy, backend):
        _check_against_window(case, policy, backend)


class TestBatchLambdaSetsShapes:
    def test_no_products(self):
        offsets, positions = batch_lambda_sets(
            np.empty((0, 2)), np.ones((3, 2)), np.zeros(2)
        )
        assert offsets.tolist() == [0, 0, 0, 0]
        assert positions.size == 0

    def test_no_rows(self):
        offsets, positions = batch_lambda_sets(
            np.ones((4, 2)), np.empty((0, 2)), np.empty((0, 2))
        )
        assert offsets.tolist() == [0]
        assert positions.size == 0

    def test_one_query_shared_by_every_row(self):
        products = np.array([[1.0, 1.0], [2.0, 2.0], [9.0, 9.0]])
        centers = np.array([[0.0, 0.0], [3.0, 3.0], [8.0, 8.0]])
        offsets, positions = batch_lambda_sets(
            products, centers, np.array([5.0, 5.0]), DominancePolicy.STRICT
        )
        rows = [positions[a:b].tolist() for a, b in zip(offsets[:-1], offsets[1:])]
        assert rows == [[0, 1], [1], [2]]

    def test_many_chunks_keep_rows_ascending(self):
        rng = np.random.default_rng(0)
        products = rng.uniform(0, 1, (30_000, 2))
        centers = rng.uniform(0, 1, (600, 2))
        queries = rng.uniform(0, 1, (600, 2))
        counters = KernelCounters()
        offsets, positions = batch_lambda_sets(
            products, centers, queries, counters=counters
        )
        assert counters.product_chunks.value > counters.tiles.value
        index = ScanIndex(products)
        for j in range(0, 600, 37):
            expected = window_query_indices(index, centers[j], queries[j])
            assert positions[offsets[j] : offsets[j + 1]].tolist() == expected.tolist()


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@settings(max_examples=150, deadline=None)
@given(case=edge_cases())
def test_weak_kernels_agree_with_window_at_ulp_edges(case, backend):
    """Under WEAK, ``|p - c| <= r`` alone keeps products the closed
    window box drops; the exact kernels and their pruned twins apply
    both tests, like the window query."""
    products, centers, _queries, self_positions, dims = case
    query = _queries[0]
    index = BACKENDS[backend](products)
    w = weights_of(dims, centers.shape[1])
    expected = [
        window_query_indices(
            index, c, query, DominancePolicy.WEAK,
            () if sp < 0 else (int(sp),), weights=w,
        ).size
        for c, sp in zip(centers, self_positions)
    ]
    weak = DominancePolicy.WEAK
    for counts in (batch_lambda_counts, batch_lambda_counts_pruned):
        got = counts(products, centers, query, weak, self_positions, dims=dims)
        assert got.tolist() == expected, counts.__name__
    members = [count == 0 for count in expected]
    for membership in (batch_window_membership, batch_window_membership_pruned):
        got = membership(products, centers, query, weak, self_positions, dims=dims)
        assert got.tolist() == members, membership.__name__
