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
        levels, order = str_bulk_load(np.empty((0, 2)), RTreeConfig())
        (root,) = levels  # The root is the one (leaf) level.
        assert root.count.tolist() == [0]
        assert order.size == 0

    def test_all_points_covered_once(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 1, size=(1000, 2))
        tree = RTree(pts, config=RTreeConfig(max_entries=10))
        tree.check_integrity()  # Verifies exactly-once coverage.

    def test_leaves_respect_capacity(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(0, 1, size=(333, 2))
        config = RTreeConfig(max_entries=7)
        levels, _order = str_bulk_load(pts, config)
        for level in levels:
            assert (level.count <= config.max_entries).all()

    def test_levels_uniform(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(0, 1, size=(500, 2))
        levels, order = str_bulk_load(pts, RTreeConfig(max_entries=5))
        # Each level's child slices tile the rows of the level below (every
        # node has exactly one parent one level up), and the leaves, all
        # on the last level, tile the entries.
        assert levels[0].count.size == 1
        sizes = [level.count.size for level in levels[1:]] + [order.size]
        for level, size in zip(levels, sizes):
            slots = sorted(
                i for s, c in zip(level.start, level.count)
                for i in range(s, s + c)
            )
            assert slots == list(range(size))
        assert order.size == 500

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
        levels, _order = str_bulk_load(pts, RTreeConfig(max_entries=10))
        leaves = levels[-1]
        spans = sorted(zip(leaves.lo[:, 0], leaves.hi[:, 0]))
        for (_, hi_prev), (lo_next, _) in zip(spans[:-1], spans[1:]):
            assert lo_next > hi_prev  # Disjoint segments.
