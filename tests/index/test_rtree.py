"""Tests for the STR-packed R-tree: one bulk load or growth by rebuilds,
queries vs the scan oracle, structural integrity."""

import numpy as np
import pytest

from repro.config import RTreeConfig
from repro.exceptions import IndexCorruptionError
from repro.geometry.box import Box
from repro.index.bulkload import str_bulk_load
from repro.index.rtree import RTree
from repro.index.scan import ScanIndex


def random_points(seed, n, dim=2):
    rng = np.random.default_rng(seed)
    return rng.uniform(0, 100, size=(n, dim))


def build(pts, config=None, bulk=True):
    """One STR build over ``pts``, or (``bulk=False``) a tree grown from
    empty one row at a time, each step a rebuild over the longer prefix
    (as after an engine insert)."""
    if bulk:
        return RTree(pts, config=config)
    tree = RTree(pts[:0], config=config)
    for n in range(1, pts.shape[0] + 1):
        tree.rebuild(pts[:n])
    return tree


class TestConstruction:
    @pytest.mark.parametrize("bulk", [True, False])
    def test_integrity_small(self, bulk):
        tree = build(random_points(0, 50), bulk=bulk)
        tree.check_integrity()

    @pytest.mark.parametrize("bulk", [True, False])
    def test_integrity_forces_splits(self, bulk):
        config = RTreeConfig(max_entries=4)
        tree = build(random_points(1, 200), config=config, bulk=bulk)
        tree.check_integrity()
        assert tree.height >= 3

    def test_empty_tree(self):
        tree = RTree(np.empty((0, 2)))
        tree.check_integrity()
        assert tree.range_indices(Box([0, 0], [1, 1])).size == 0
        assert tree.knn_indices([0, 0], 3).size == 0

    def test_single_point(self):
        tree = RTree(np.array([[1.0, 2.0]]))
        tree.check_integrity()
        assert tree.range_indices(Box([0, 0], [3, 3])).tolist() == [0]

    def test_duplicate_points(self):
        pts = np.tile([[1.0, 1.0]], (30, 1))
        tree = build(pts, config=RTreeConfig(max_entries=5), bulk=False)
        tree.check_integrity()
        hits = tree.range_indices(Box([1, 1], [1, 1]))
        assert hits.size == 30

    def test_3d(self):
        tree = RTree(random_points(2, 300, dim=3), config=RTreeConfig(max_entries=8))
        tree.check_integrity()

    def test_node_count_positive(self):
        tree = RTree(random_points(3, 100))
        assert tree.node_count() >= 1

    def test_single_build_path(self):
        with pytest.raises(TypeError):
            RTree(random_points(3, 10), bulk=False)
        for method in ("delete", "insert", "remove", "update"):
            assert not hasattr(RTree, method)


class TestQueriesMatchOracle:
    @pytest.mark.parametrize("bulk", [True, False])
    @pytest.mark.parametrize("n", [1, 17, 200])
    def test_range_matches_scan(self, bulk, n):
        pts = random_points(4, n)
        tree = build(pts, config=RTreeConfig(max_entries=6), bulk=bulk)
        scan = ScanIndex(pts)
        rng = np.random.default_rng(5)
        for _ in range(40):
            lo = rng.uniform(0, 80, size=2)
            hi = lo + rng.uniform(0, 40, size=2)
            box = Box(lo, hi)
            assert np.array_equal(
                tree.range_indices(box), scan.range_indices(box)
            )

    @pytest.mark.parametrize("bulk", [True, False])
    def test_knn_matches_scan(self, bulk):
        pts = random_points(6, 150)
        tree = build(pts, config=RTreeConfig(max_entries=6), bulk=bulk)
        scan = ScanIndex(pts)
        rng = np.random.default_rng(7)
        for _ in range(25):
            p = rng.uniform(0, 100, size=2)
            k = int(rng.integers(1, 10))
            t_hits = tree.knn_indices(p, k)
            s_hits = scan.knn_indices(p, k)
            t_d = np.linalg.norm(pts[t_hits] - p, axis=1)
            s_d = np.linalg.norm(pts[s_hits] - p, axis=1)
            # Same distances (indices may differ only on exact ties).
            assert np.allclose(np.sort(t_d), np.sort(s_d))

    def test_range_with_ties_on_boundary(self):
        pts = np.array([[1.0, 1.0], [1.0, 2.0], [2.0, 1.0], [0.999, 1.0]])
        tree = RTree(pts)
        hits = tree.range_indices(Box([1, 1], [2, 2]))
        assert hits.tolist() == [0, 1, 2]


class TestStats:
    def test_node_accesses_counted(self):
        tree = RTree(random_points(8, 500), config=RTreeConfig(max_entries=8))
        tree.reset_stats()
        tree.range_indices(Box([0, 0], [100, 100]))
        assert tree.stats.node_accesses > 1
        assert tree.stats.queries == 1

    def test_small_window_touches_fewer_nodes(self):
        tree = RTree(random_points(9, 2000), config=RTreeConfig(max_entries=16))
        tree.reset_stats()
        tree.range_indices(Box([0, 0], [100, 100]))
        full = tree.stats.node_accesses
        tree.reset_stats()
        tree.range_indices(Box([10, 10], [12, 12]))
        small = tree.stats.node_accesses
        assert small < full


class TestIntegrityFailures:
    """Each invariant ``check_integrity`` guards, broken on purpose in an
    otherwise sound packed layout (height 4 at 200 points, fanout 5)."""

    @pytest.fixture
    def tree(self):
        tree = RTree(random_points(11, 200), config=RTreeConfig(max_entries=5))
        tree.check_integrity()
        assert tree.height == 4
        return tree

    def test_duplicated_entry(self, tree):
        tree.order[1] = tree.order[0]  # Same leaf: only coverage breaks.
        with pytest.raises(IndexCorruptionError, match="exactly once"):
            tree.check_integrity()

    def test_missing_entry(self, tree):
        leaves = tree.levels[-1]  # Drop leaf 0's last entry, keep slices.
        slot = leaves.start[0] + leaves.count[0] - 1
        leaves.count[0] -= 1
        leaves.start[leaves.start > slot] -= 1
        tree.order = np.delete(tree.order, slot)
        with pytest.raises(IndexCorruptionError, match="exactly once"):
            tree.check_integrity()

    def test_child_mbr_escapes_parent(self, tree):
        tree.levels[0].hi[0] -= 1.0
        with pytest.raises(IndexCorruptionError, match="escapes parent"):
            tree.check_integrity()

    def test_overfull_node(self, tree):
        tree.levels, tree.order = str_bulk_load(
            tree.points, RTreeConfig(max_entries=8)
        )
        with pytest.raises(IndexCorruptionError, match="exceeds max"):
            tree.check_integrity()

    def test_empty_non_root_node(self, tree):
        tree.levels[-1].count[3] = 0
        with pytest.raises(IndexCorruptionError, match="empty non-root"):
            tree.check_integrity()

    def test_leaf_point_outside_leaf_mbr(self, tree):
        leaves = tree.levels[-1]
        leaves.hi[0] = leaves.lo[0]
        with pytest.raises(IndexCorruptionError, match="outside leaf MBR"):
            tree.check_integrity()


class TestConfigValidation:
    def test_bad_max_entries(self):
        with pytest.raises(ValueError):
            RTreeConfig(max_entries=2)

    def test_bad_min_fill(self):
        # STR packs nodes to capacity; there is no fill factor to set.
        with pytest.raises(TypeError):
            RTreeConfig(min_fill=0.4)

    def test_bad_reinsert(self):
        # No insertion path, so no forced-reinsert fraction.
        with pytest.raises(TypeError):
            RTreeConfig(reinsert_fraction=0.3)
