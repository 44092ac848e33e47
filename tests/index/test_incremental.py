"""Incremental mutation surface of every index backend.

The contract (SpatialIndex docstring): after any insert/remove/update,
the index answers range and kNN queries exactly as a freshly built index
over the same matrix — whether the backend absorbed the operation in
place (``stats.incremental_*``) or fell back to a counted rebuild
(``stats.rebuilds``).
"""

import numpy as np
import pytest

from repro.geometry.box import Box
from repro.index.rtree import RTree
from repro.index.scan import ScanIndex

BACKENDS = {
    "scan": ScanIndex,
    "rtree": RTree,
}


@pytest.fixture(params=sorted(BACKENDS))
def backend(request):
    return request.param


def _points(n: int = 40, d: int = 2, seed: int = 5) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.round(rng.uniform(0.0, 1.0, size=(n, d)) * 16) / 16


def _assert_counted(index, op: str) -> None:
    """One mutation must be accounted under exactly one regime: absorbed
    in place or rebuilt."""
    snap = index.stats.snapshot()
    incremental = (
        snap["incremental_inserts"]
        + snap["incremental_removes"]
        + snap["incremental_updates"]
    )
    if op in index.incremental_ops:
        assert incremental == 1 and snap["rebuilds"] == 0
    else:
        assert incremental == 0 and snap["rebuilds"] == 1


def _assert_matches_fresh(index, backend: str) -> None:
    """Mutated index ≡ fresh index over the same matrix, on both query
    surfaces, over a deterministic probe battery."""
    fresh = BACKENDS[backend](index.points)
    rng = np.random.default_rng(9)
    for _ in range(6):
        lo = rng.uniform(-0.1, 0.7, size=index.dim)
        hi = lo + rng.uniform(0.05, 0.6, size=index.dim)
        box = Box(lo, hi)
        got = np.sort(index.range_indices(box))
        want = np.sort(fresh.range_indices(box))
        assert np.array_equal(got, want), (backend, "range", lo, hi)
        q = rng.uniform(0.0, 1.0, size=index.dim)
        k = int(rng.integers(1, min(8, index.size) + 1))
        assert np.array_equal(
            index.knn_indices(q, k), fresh.knn_indices(q, k)
        ), (backend, "knn", q, k)


class TestInsert:
    def test_positions_and_matrix(self, backend):
        index = BACKENDS[backend](_points())
        rows = np.array([[0.05, 0.95], [0.5, 0.5]])
        positions = index.insert(rows)
        assert positions.tolist() == [40, 41]
        assert np.array_equal(index.points[40:], rows)
        _assert_matches_fresh(index, backend)

    def test_single_point_accepted(self, backend):
        index = BACKENDS[backend](_points())
        assert index.insert(np.array([0.2, 0.3])).tolist() == [40]
        _assert_matches_fresh(index, backend)

    def test_counted(self, backend):
        index = BACKENDS[backend](_points())
        index.insert([[0.3, 0.3]])
        _assert_counted(index, "insert")


class TestRemove:
    def test_mapping_and_compaction(self, backend):
        pts = _points()
        index = BACKENDS[backend](pts)
        mapping = index.remove([0, 7, 39])
        assert mapping.tolist()[0] == -1
        assert mapping[7] == -1 and mapping[39] == -1
        keep = np.flatnonzero(mapping >= 0)
        assert np.array_equal(index.points, pts[keep])
        _assert_matches_fresh(index, backend)

    def test_counted(self, backend):
        index = BACKENDS[backend](_points())
        index.remove([3])
        _assert_counted(index, "remove")

    def test_out_of_range(self, backend):
        index = BACKENDS[backend](_points())
        with pytest.raises(ValueError, match="out of range"):
            index.remove([40])


class TestUpdate:
    def test_rows_replaced_in_place(self, backend):
        pts = _points()
        index = BACKENDS[backend](pts)
        rows = np.array([[0.01, 0.99], [0.99, 0.01]])
        index.update([5, 2], rows)
        assert np.array_equal(index.points[2], rows[1])
        assert np.array_equal(index.points[5], rows[0])
        assert index.size == pts.shape[0]
        _assert_matches_fresh(index, backend)

    def test_counted(self, backend):
        index = BACKENDS[backend](_points())
        index.update([0], [[0.4, 0.4]])
        _assert_counted(index, "update")

    def test_duplicate_positions_rejected(self, backend):
        index = BACKENDS[backend](_points())
        with pytest.raises(ValueError, match="distinct"):
            index.update([1, 1], [[0.1, 0.1], [0.2, 0.2]])


class TestMutationSequences:
    def test_random_interleaving_matches_fresh(self, backend):
        """A churn of mixed mutations never drifts from a cold build."""
        rng = np.random.default_rng(13)
        index = BACKENDS[backend](_points(30))
        shadow = index.points.copy()
        for step in range(15):
            kind = ("insert", "remove", "update")[step % 3]
            if kind == "insert":
                rows = rng.uniform(0.0, 1.0, size=(int(rng.integers(1, 3)), 2))
                index.insert(rows)
                shadow = np.vstack([shadow, rows])
            elif kind == "remove":
                pos = int(rng.integers(0, shadow.shape[0]))
                index.remove([pos])
                shadow = np.delete(shadow, pos, axis=0)
            else:
                pos = int(rng.integers(0, shadow.shape[0]))
                row = rng.uniform(0.0, 1.0, size=(1, 2))
                index.update([pos], row)
                shadow = shadow.copy()
                shadow[pos] = row[0]
            assert np.array_equal(index.points, shadow), (backend, step, kind)
        _assert_matches_fresh(index, backend)

    def test_out_of_bounds_inserts_stay_queryable(self, backend):
        """Points outside the original extent (grid overflow path)."""
        index = BACKENDS[backend](_points())
        index.insert(np.array([[2.5, -1.0], [3.0, 3.0]]))
        box = Box(np.array([2.0, -2.0]), np.array([4.0, 4.0]))
        assert np.array_equal(np.sort(index.range_indices(box)), [40, 41])
        _assert_matches_fresh(index, backend)

    def test_advertised_ops_are_accurate(self, backend):
        """incremental_ops must agree with the counters."""
        for op in ("insert", "remove", "update"):
            index = BACKENDS[backend](_points())
            if op == "insert":
                index.insert([[0.5, 0.5]])
            elif op == "remove":
                index.remove([0])
            else:
                index.update([0], [[0.5, 0.5]])
            _assert_counted(index, op)

