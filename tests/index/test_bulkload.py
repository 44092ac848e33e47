"""Tests for STR bulk loading."""

import numpy as np
import pytest

from repro.config import RTreeConfig
from repro.geometry.box import Box
from repro.index.bulkload import str_bulk_load
from repro.index.rtree import RTree
from repro.index.scan import ScanIndex


class TestStrBulkLoad:
    def test_empty(self):
        root = str_bulk_load(np.empty((0, 2)), RTreeConfig())
        assert root.count == 0
        assert root.is_leaf

    def test_all_points_covered_once(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 1, size=(1000, 2))
        tree = RTree(pts, config=RTreeConfig(max_entries=10))
        tree.check_integrity()  # Verifies exactly-once coverage.

    def test_leaves_respect_capacity(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(0, 1, size=(333, 2))
        config = RTreeConfig(max_entries=7)
        root = str_bulk_load(pts, config)
        stack = [root]
        while stack:
            node = stack.pop()
            assert node.count <= config.max_entries
            if not node.is_leaf:
                stack.extend(node.children)

    def test_levels_uniform(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(0, 1, size=(500, 2))
        root = str_bulk_load(pts, RTreeConfig(max_entries=5))
        leaf_levels = set()
        stack = [(root, root.level)]
        while stack:
            node, level = stack.pop()
            assert node.level == level
            if node.is_leaf:
                leaf_levels.add(level)
            else:
                stack.extend((c, level - 1) for c in node.children)
        assert leaf_levels == {0}

    @pytest.mark.parametrize("n", [1, 5, 38, 39, 77, 1444])
    def test_sizes_around_capacity_boundaries(self, n):
        rng = np.random.default_rng(n)
        pts = rng.uniform(0, 1, size=(n, 2))
        tree = RTree(pts)
        tree.check_integrity()

    def test_query_equivalence_3d(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(0, 1, size=(800, 3))
        tree = RTree(pts, config=RTreeConfig(max_entries=12))
        scan = ScanIndex(pts)
        for _ in range(20):
            lo = rng.uniform(0, 0.7, size=3)
            box = Box(lo, lo + 0.3)
            assert np.array_equal(
                tree.range_indices(box), scan.range_indices(box)
            )

    def test_str_tiles_spatially(self):
        # Points on a line: each leaf should cover a contiguous segment
        # (low MBR overlap is the whole point of STR).
        xs = np.arange(100.0)
        pts = np.column_stack([xs, np.zeros(100)])
        root = str_bulk_load(pts, RTreeConfig(max_entries=10))
        leaves = []
        stack = [root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                leaves.append(node)
            else:
                stack.extend(node.children)
        spans = sorted((leaf.lo[0], leaf.hi[0]) for leaf in leaves)
        for (_, hi_prev), (lo_next, _) in zip(spans[:-1], spans[1:]):
            assert lo_next > hi_prev  # Disjoint segments.
