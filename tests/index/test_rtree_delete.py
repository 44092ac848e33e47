"""Deleting rows from the R-tree.

``RTree.remove`` compacts positions (surviving rows shift down) and
repacks the tree over the survivors, so after any deletion the tree must
answer exactly as a scan over the surviving points.
"""

import numpy as np
import pytest

from repro.config import RTreeConfig
from repro.geometry.box import Box
from repro.index.rtree import RTree
from repro.index.scan import ScanIndex


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
        tree.remove([target])
        hits = tree.points[tree.range_indices(box)]
        assert not (hits == pts[target]).all(axis=1).any()

    def test_integrity_after_each_deletion(self):
        pts, tree = make_tree(n=80, max_entries=4)
        rng = np.random.default_rng(1)
        for _ in range(40):
            tree.remove([int(rng.integers(tree.size))])
            tree.check_integrity()
        assert tree.size == 40

    def test_delete_everything(self):
        pts, tree = make_tree(n=60, max_entries=4)
        mapping = tree.remove(range(60))
        assert (mapping == -1).all()
        tree.check_integrity()
        assert tree.size == 0 and tree.height == 1
        assert tree.range_indices(Box([0, 0], [100, 100])).size == 0

    def test_queries_match_filtered_scan(self):
        pts, tree = make_tree(n=150, max_entries=6)
        rng = np.random.default_rng(2)
        removed = rng.permutation(150)[:70]
        tree.remove(removed)
        scan = ScanIndex(np.delete(pts, removed, axis=0))
        for _ in range(30):
            lo = rng.uniform(0, 80, size=2)
            box = Box(lo, lo + rng.uniform(5, 30, size=2))
            assert np.array_equal(
                tree.range_indices(box), scan.range_indices(box)
            )

    def test_knn_skips_deleted(self):
        pts, tree = make_tree(n=50)
        assert int(tree.knn_indices(pts[0], 1)[0]) == 0
        tree.remove([0])
        nearest = int(tree.knn_indices(pts[0], 1)[0])
        assert not np.array_equal(tree.points[nearest], pts[0])

    def test_double_delete_rejected(self):
        _pts, tree = make_tree(n=20)
        tree.remove([19])
        with pytest.raises(ValueError):
            tree.remove([19])

    def test_out_of_range_rejected(self):
        _pts, tree = make_tree(n=20)
        with pytest.raises(ValueError):
            tree.remove([99])

    def test_delete_from_insert_built_tree(self):
        pts, _ = make_tree(n=100)
        tree = RTree(pts[:10], config=RTreeConfig(max_entries=4))
        for row in pts[10:]:
            tree.insert(row)
        tree.remove(range(0, 100, 3))
        tree.check_integrity()
        assert np.array_equal(
            tree.points, np.delete(pts, np.arange(0, 100, 3), axis=0)
        )

    def test_delete_then_duplicate_coordinates(self):
        pts = np.tile([[5.0, 5.0]], (30, 1))
        tree = RTree(pts, config=RTreeConfig(max_entries=4))
        tree.remove([10])
        tree.check_integrity()
        hits = tree.range_indices(Box([5, 5], [5, 5]))
        assert hits.tolist() == list(range(29))

    def test_root_collapse(self):
        """Deleting most points must shrink the tree height."""
        pts, tree = make_tree(n=300, max_entries=4)
        initial_height = tree.height
        tree.remove(range(290))
        tree.check_integrity()
        assert tree.height < initial_height
        hits = tree.range_indices(Box([0, 0], [100, 100]))
        assert np.array_equal(tree.points[hits], pts[290:])
