"""Golden R-tree counts: results and access counters pinned exactly.

The paper's tables report R-tree node accesses, so a change to the tree's
layout or traversal must keep every counter, not just the answers.  Each
case builds a tree over seeded points and runs a fixed set of window
queries, kNN probes (with ties) and BBS skylines; the pinned values in
``rtree_golden.json`` are result hashes plus exact ``queries``,
``node_accesses`` and ``point_comparisons``, and the tree's ``height``
and ``node_count()``.

Regenerate the fixture (only when a change is *meant* to move the
counts) with ``PYTHONPATH=src python tests/index/test_rtree_golden.py``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from repro.config import RTreeConfig
from repro.geometry.box import Box
from repro.index.rtree import RTree
from repro.skyline.bbs import bbs_dynamic_skyline, bbs_skyline

FIXTURE = Path(__file__).with_name("rtree_golden.json")

SIZES = (0, 1, 38, 39, 1444, 2000, 10000)
DIMS = (2, 3)
FANOUTS = (5, 38)
KINDS = ("uniform", "dups")


def case_ids() -> list[str]:
    return [
        f"{kind}-n{n}-d{d}-m{m}"
        for kind, n, d, m in itertools.product(KINDS, SIZES, DIMS, FANOUTS)
    ]


def make_points(kind: str, n: int, d: int) -> np.ndarray:
    rng = np.random.default_rng(1000 * n + d)
    if kind == "uniform":
        return rng.uniform(0, 100, size=(n, d))
    # Five values per axis: many exact duplicates and tied distances.
    return rng.integers(0, 5, size=(n, d)).astype(np.float64) * 25.0


def boxes(d: int) -> list[Box]:
    rng = np.random.default_rng(d)
    out = [
        Box(np.zeros(d), np.full(d, 100.0)),  # Everything.
        Box(np.full(d, 50.0), np.full(d, 50.0)),  # A point box.
        Box(np.full(d, 25.0), np.full(d, 25.0)),  # On duplicate values.
        Box(np.full(d, 200.0), np.full(d, 300.0)),  # Misses the data.
    ]
    for width in (2.0, 10.0, 30.0, 60.0):
        for _ in range(3):
            lo = rng.uniform(0, 100 - width, size=d)
            out.append(Box(lo, lo + width))
    return out


def probes(d: int) -> list[tuple[np.ndarray, int]]:
    rng = np.random.default_rng(10 + d)
    out = [(np.full(d, 25.0), k) for k in (1, 7, 40)]  # Ties on dups.
    out.append((np.full(d, 50.0), 3))
    out.append((np.full(d, -10.0), 5))  # Outside the data.
    for _ in range(3):
        out.append((rng.uniform(0, 100, size=d), 10))
    return out


def digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a, dtype=np.int64)
        h.update(str(a.size).encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def counters(tree: RTree) -> list[int]:
    s = tree.stats
    return [s.queries, s.node_accesses, s.point_comparisons]


def measure(kind: str, n: int, d: int, m: int) -> dict:
    pts = make_points(kind, n, d)
    tree = RTree(pts, config=RTreeConfig(max_entries=m))
    out: dict = {"height": tree.height, "node_count": tree.node_count()}

    tree.reset_stats()
    out["range"] = [digest(tree.range_indices(b) for b in boxes(d))]
    out["range"] += counters(tree)

    tree.reset_stats()
    out["knn"] = [digest(tree.knn_indices(p, k) for p, k in probes(d))]
    out["knn"] += counters(tree)

    exclude = list(range(0, n, 3))
    weights = np.ones(d)
    weights[-1] = 0.0
    tree.reset_stats()
    out["bbs"] = [digest([
        bbs_skyline(tree),
        bbs_skyline(tree, exclude=exclude),
        bbs_skyline(tree, weights=weights),
    ])]
    out["bbs"] += counters(tree)

    tree.reset_stats()
    out["bbs_dynamic"] = [digest(
        bbs_dynamic_skyline(tree, origin, exclude=exclude)
        for origin in (np.full(d, 50.0), np.full(d, 25.0), np.full(d, 90.0))
    )]
    out["bbs_dynamic"] += counters(tree)
    return out


def measure_case(case: str) -> dict:
    kind, n, d, m = case.split("-")
    return measure(kind, int(n[1:]), int(d[1:]), int(m[1:]))


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(case_ids())


@pytest.mark.parametrize("case", case_ids())
def test_golden_counts(golden, case):
    assert measure_case(case) == golden[case]


if __name__ == "__main__":
    FIXTURE.write_text(
        json.dumps({c: measure_case(c) for c in case_ids()}, indent=1) + "\n"
    )
