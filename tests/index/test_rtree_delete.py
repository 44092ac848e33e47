"""Rebuilding the R-tree over fewer rows.

A store delete compacts the matrix (surviving rows shift down) and the
engine hands the survivors to ``RTree.rebuild``, which repacks the tree;
afterwards the tree must be sound and answer exactly as a scan over the
surviving points.  These cases cover smaller, empty and
duplicate-coordinate matrices; a bad delete is rejected by the store
before the tree is touched.
"""

import numpy as np
import pytest

from repro.config import RTreeConfig
from repro.exceptions import InvalidParameterError
from repro.geometry.box import Box
from repro.index.rtree import RTree
from repro.index.scan import ScanIndex
from repro.store.base import ProductStore


def make_tree(n=200, seed=0, max_entries=5):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0, 100, size=(n, 2))
    return pts, RTree(pts, config=RTreeConfig(max_entries=max_entries))


class TestDelete:
    def test_deleted_point_not_returned(self):
        pts, tree = make_tree()
        target = 17
        box = Box(pts[target] - 0.1, pts[target] + 0.1)
        assert target in tree.range_indices(box).tolist()
        tree.rebuild(np.delete(pts, target, axis=0))
        hits = tree.points[tree.range_indices(box)]
        assert not (hits == pts[target]).all(axis=1).any()

    def test_integrity_after_each_deletion(self):
        pts, tree = make_tree(n=80, max_entries=4)
        rng = np.random.default_rng(1)
        for _ in range(40):
            tree.rebuild(
                np.delete(tree.points, int(rng.integers(tree.size)), axis=0)
            )
            tree.check_integrity()
        assert tree.size == 40
        assert tree.stats.rebuilds == 40

    def test_delete_everything(self):
        pts, tree = make_tree(n=60, max_entries=4)
        tree.rebuild(np.empty((0, 2)))
        tree.check_integrity()
        assert tree.size == 0 and tree.height == 1
        assert tree.range_indices(Box([0, 0], [100, 100])).size == 0
        assert tree.knn_indices([50.0, 50.0], 3).size == 0

    def test_queries_match_filtered_scan(self):
        pts, tree = make_tree(n=150, max_entries=6)
        rng = np.random.default_rng(2)
        removed = rng.permutation(150)[:70]
        survivors = np.delete(pts, removed, axis=0)
        tree.rebuild(survivors)
        scan = ScanIndex(survivors)
        for _ in range(30):
            lo = rng.uniform(0, 80, size=2)
            box = Box(lo, lo + rng.uniform(5, 30, size=2))
            assert np.array_equal(
                tree.range_indices(box), scan.range_indices(box)
            )

    def test_knn_skips_deleted(self):
        pts, tree = make_tree(n=50)
        assert int(tree.knn_indices(pts[0], 1)[0]) == 0
        tree.rebuild(pts[1:])
        nearest = int(tree.knn_indices(pts[0], 1)[0])
        assert not np.array_equal(tree.points[nearest], pts[0])

    def test_double_delete_rejected(self):
        """The store rejects a second delete of the last row before the
        tree sees it."""
        pts, _ = make_tree(n=20)
        store = ProductStore(pts)
        tree = RTree(store.matrix, config=RTreeConfig(max_entries=5))
        store.delete([19])
        tree.rebuild(store.matrix)
        with pytest.raises(InvalidParameterError):
            store.delete([19])
        assert tree.points is store.matrix and tree.stats.rebuilds == 1
        tree.check_integrity()

    def test_out_of_range_rejected(self):
        pts, _ = make_tree(n=20)
        store = ProductStore(pts)
        tree = RTree(store.matrix, config=RTreeConfig(max_entries=5))
        with pytest.raises(InvalidParameterError):
            store.delete([99])
        assert tree.points is store.matrix and tree.stats.rebuilds == 0

    def test_delete_from_insert_built_tree(self):
        """A tree grown row by row, then shrunk, is sound and holds
        exactly the survivors."""
        pts, _ = make_tree(n=100)
        tree = RTree(pts[:10], config=RTreeConfig(max_entries=4))
        for n in range(11, 101):
            tree.rebuild(pts[:n])
        survivors = np.delete(pts, np.arange(0, 100, 3), axis=0)
        tree.rebuild(survivors)
        tree.check_integrity()
        assert np.array_equal(tree.points, survivors)

    def test_delete_then_duplicate_coordinates(self):
        pts = np.tile([[5.0, 5.0]], (30, 1))
        tree = RTree(pts, config=RTreeConfig(max_entries=4))
        tree.rebuild(pts[:29])
        tree.check_integrity()
        hits = tree.range_indices(Box([5, 5], [5, 5]))
        assert hits.tolist() == list(range(29))

    def test_root_collapse(self):
        """Rebuilding over a few survivors must shrink the tree height."""
        pts, tree = make_tree(n=300, max_entries=4)
        initial_height = tree.height
        tree.rebuild(pts[290:])
        tree.check_integrity()
        assert tree.height < initial_height
        # Ten survivors at fanout 4: one root directly over the leaves.
        root, leaves = tree.levels
        assert root.count.tolist() == [leaves.count.size]
        assert leaves.count.sum() == 10
        hits = tree.range_indices(Box([0, 0], [100, 100]))
        assert np.array_equal(tree.points[hits], pts[290:])
