"""Ablation: R-tree vs brute-force scan as the window-query backend.

The R-tree wins on selective windows (the reverse-skyline membership
test) by touching a few nodes; the vectorised scan wins on tiny datasets.
Node-access counts are recorded alongside wall time.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry.transform import window_box
from repro.index.rtree import RTree
from repro.index.scan import ScanIndex

N = 20_000


@pytest.fixture(scope="module")
def points():
    rng = np.random.default_rng(13)
    return rng.uniform(0, 1, size=(N, 2))


@pytest.fixture(scope="module")
def windows(points):
    rng = np.random.default_rng(14)
    centers = points[rng.integers(0, N, size=50)]
    queries = centers + rng.normal(0, 0.01, size=centers.shape)
    return [window_box(c, q) for c, q in zip(centers, queries)]


@pytest.fixture(scope="module")
def rtree(points):
    return RTree(points)


@pytest.fixture(scope="module")
def scan(points):
    return ScanIndex(points)


def test_ablation_window_queries_rtree(benchmark, rtree, windows):
    rtree.reset_stats()
    benchmark(lambda: [rtree.range_indices(box) for box in windows])
    benchmark.extra_info["node_accesses_per_query"] = (
        rtree.stats.node_accesses / max(1, rtree.stats.queries)
    )


def test_ablation_window_queries_scan(benchmark, scan, windows):
    benchmark(lambda: [scan.range_indices(box) for box in windows])
    benchmark.extra_info["points_scanned_per_query"] = N


def test_ablation_rtree_touches_fraction_of_nodes(rtree, windows):
    """Selective windows must touch a small fraction of the tree."""
    total_nodes = rtree.node_count()
    rtree.reset_stats()
    for box in windows:
        rtree.range_indices(box)
    per_query = rtree.stats.node_accesses / len(windows)
    assert per_query < 0.2 * total_nodes


def test_ablation_build_rtree_bulk(benchmark, points):
    benchmark.pedantic(lambda: RTree(points), rounds=3, iterations=1)

