"""Every index backend after a store mutation.

The engine's only index write is ``index.rebuild(store.matrix)`` after a
product mutation commits.  These cases drive a :class:`ProductStore`
through inserts, deletes and updates and check that the rebuilt index
adopts the committed matrix without a copy, counts exactly one rebuild,
and answers range and kNN queries exactly as a freshly built index over
the same matrix.
"""

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.geometry.box import Box
from repro.index.rtree import RTree
from repro.index.scan import ScanIndex
from repro.store.base import ProductStore

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


def _indexed_store(backend: str, points: np.ndarray):
    store = ProductStore(points)
    return store, BACKENDS[backend](store.matrix)


def _rebuild(index, store) -> None:
    """The engine's post-commit step, checked: the committed matrix is
    adopted as is and counted once."""
    before = index.stats.rebuilds
    index.rebuild(store.matrix)
    assert index.points is store.matrix
    assert index.stats.rebuilds == before + 1


def _assert_rejected_before_index(index, store, mutate) -> None:
    """The store validates every mutation input, so a bad one never
    reaches the index: no commit, no rebuild."""
    points, epoch = index.points, store.epoch
    with pytest.raises(InvalidParameterError):
        mutate()
    assert store.epoch == epoch
    assert index.points is points is store.matrix
    assert index.stats.rebuilds == 0


def _assert_matches_fresh(index, backend: str) -> None:
    """Rebuilt index ≡ fresh index over the same matrix, on both query
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
        store, index = _indexed_store(backend, _points())
        rows = np.array([[0.05, 0.95], [0.5, 0.5]])
        mutation = store.insert(rows)
        _rebuild(index, store)
        assert mutation.positions.tolist() == [40, 41]
        assert np.array_equal(index.points[mutation.positions], rows)
        _assert_matches_fresh(index, backend)

    def test_single_point_accepted(self, backend):
        store, index = _indexed_store(backend, _points())
        store.insert(np.array([0.2, 0.3]))
        _rebuild(index, store)
        assert index.knn_indices([0.2, 0.3], 1).tolist() == [40]
        _assert_matches_fresh(index, backend)

    def test_counted(self, backend):
        store, index = _indexed_store(backend, _points())
        assert index.stats.rebuilds == 0
        store.insert([[0.3, 0.3]])
        _rebuild(index, store)


class TestRemove:
    def test_mapping_and_compaction(self, backend):
        """Survivors keep their order and the index answers at the
        store's new positions."""
        pts = _points()
        store, index = _indexed_store(backend, pts)
        mutation = store.delete([0, 7, 39])
        _rebuild(index, store)
        keep = np.flatnonzero(mutation.mapping >= 0)
        assert np.array_equal(index.points, pts[keep])
        for old in keep:
            hits = index.range_indices(Box(pts[old], pts[old]))
            assert mutation.mapping[old] in hits.tolist()
        _assert_matches_fresh(index, backend)

    def test_counted(self, backend):
        store, index = _indexed_store(backend, _points())
        store.delete([3])
        _rebuild(index, store)

    def test_out_of_range(self, backend):
        store, index = _indexed_store(backend, _points())
        _assert_rejected_before_index(index, store, lambda: store.delete([40]))


class TestUpdate:
    def test_rows_replaced_in_place(self, backend):
        pts = _points()
        store, index = _indexed_store(backend, pts)
        rows = np.array([[0.01, 0.99], [0.99, 0.01]])
        store.update([5, 2], rows)
        _rebuild(index, store)
        assert np.array_equal(index.points[2], rows[1])
        assert np.array_equal(index.points[5], rows[0])
        assert index.size == pts.shape[0]
        _assert_matches_fresh(index, backend)

    def test_counted(self, backend):
        store, index = _indexed_store(backend, _points())
        store.update([0], [[0.4, 0.4]])
        _rebuild(index, store)

    def test_duplicate_positions_rejected(self, backend):
        store, index = _indexed_store(backend, _points())
        _assert_rejected_before_index(
            index,
            store,
            lambda: store.update([1, 1], [[0.1, 0.1], [0.2, 0.2]]),
        )


class TestMutationSequences:
    def test_random_interleaving_matches_fresh(self, backend):
        """A churn of mixed mutations never drifts from a cold build."""
        rng = np.random.default_rng(13)
        store, index = _indexed_store(backend, _points(30))
        for step in range(15):
            kind = ("insert", "delete", "update")[step % 3]
            if kind == "insert":
                rows = rng.uniform(0.0, 1.0, size=(int(rng.integers(1, 3)), 2))
                store.insert(rows)
            elif kind == "delete":
                store.delete([int(rng.integers(0, store.size))])
            else:
                pos = int(rng.integers(0, store.size))
                store.update([pos], rng.uniform(0.0, 1.0, size=(1, 2)))
            _rebuild(index, store)
        assert index.stats.rebuilds == 15
        _assert_matches_fresh(index, backend)

    def test_out_of_bounds_inserts_stay_queryable(self, backend):
        """Points outside the original extent."""
        store, index = _indexed_store(backend, _points())
        store.insert(np.array([[2.5, -1.0], [3.0, 3.0]]))
        _rebuild(index, store)
        box = Box(np.array([2.0, -2.0]), np.array([4.0, 4.0]))
        assert np.array_equal(np.sort(index.range_indices(box)), [40, 41])
        _assert_matches_fresh(index, backend)
