"""An STR-packed R-tree over points.

The paper indexes every dataset with an R-tree with 1536-byte pages and
never inserts into it.  This tree is built one way only: Sort-Tile-
Recursive packing (:func:`repro.index.bulkload.str_bulk_load`) with the
paper's page fanout.  Every :meth:`~repro.index.base.SpatialIndex.rebuild`
repacks the whole tree over the store's post-mutation matrix, so a
mutated tree is the tree a fresh build over the same points gives.  The
tree is per-level arrays, not node objects: a window query filters a
frontier of node rows one level at a time in NumPy; kNN and BBS put
``(level, row)`` pairs on their heaps.

Only points are indexed (the paper stores tuples); leaf entries are row
positions into the point matrix, so the tree composes with the rest of the
library through :class:`repro.index.base.SpatialIndex`.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Sequence

import numpy as np

from repro.config import RTreeConfig
from repro.exceptions import IndexCorruptionError
from repro.geometry.box import Box
from repro.geometry.point import as_point
from repro.index.base import SpatialIndex
from repro.index.bulkload import str_bulk_load

__all__ = ["RTree"]


def _expand(start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Concatenate the ranges ``start[i] : start[i] + count[i]``."""
    if count.size == 1:  # The common single hit: a plain range.
        return np.arange(start[0], start[0] + count[0])
    ends = count.cumsum()
    if ends.size == 0:
        return ends
    return (start - ends + count).repeat(count) + np.arange(ends[-1])


class RTree(SpatialIndex):
    """STR-packed R-tree point index.

    The tree is the packed layout :func:`~repro.index.bulkload.str_bulk_load`
    returns: :attr:`levels`, root first, of per-node MBR and child-slice
    arrays, and :attr:`order`, the point positions of the leaf entries.

    Parameters
    ----------
    points:
        ``(n, d)`` matrix to index.
    config:
        Fanout; the default mirrors the paper's 1536-byte pages.
    """

    def __init__(
        self, points: np.ndarray, config: RTreeConfig | None = None
    ) -> None:
        super().__init__(points)
        self.config = config or RTreeConfig()
        self._rebuild_structure()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def height(self) -> int:
        return len(self.levels)

    def node_count(self) -> int:
        return sum(level.count.size for level in self.levels)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def range_indices(self, box: Box) -> np.ndarray:
        if box.dim != self.dim:
            raise ValueError(f"box dim {box.dim} != index dim {self.dim}")
        self.stats.queries += 1
        lo, hi = box.lo, box.hi
        # One level at a time: test every frontier MBR at once, then
        # expand the hits' child slices into the next frontier.
        rows = np.zeros(1, dtype=np.int64)  # The root: row 0 of level 0.
        accesses = 0
        for level in self.levels:
            accesses += rows.size
            hit = rows[
                ((level.lo[rows] <= hi) & (level.hi[rows] >= lo)).all(axis=1)
            ]
            rows = _expand(level.start[hit], level.count[hit])
        self.stats.node_accesses += accesses
        entries = self.order[rows]
        self.stats.point_comparisons += entries.size
        block = self._points[entries]
        entries = entries[((block >= lo) & (block <= hi)).all(axis=1)]
        entries.sort()
        return entries

    def knn_indices(self, point: Sequence[float], k: int) -> np.ndarray:
        p = as_point(point, dim=self.dim)
        if k <= 0 or self.size == 0:
            return np.empty(0, dtype=np.int64)
        self.stats.queries += 1
        k = min(k, self.size)
        counter = itertools.count(1)
        # Heap of (sq_dist, tiebreak, kind, payload); kind 0 = node with
        # payload (level, row), 1 = point with payload its position.  The
        # root pops first whatever its key.
        heap: list[tuple[float, int, int, object]] = [(0.0, 0, 0, (0, 0))]
        result: list[int] = []
        while heap and len(result) < k:
            dist, _tie, kind, payload = heapq.heappop(heap)
            if kind == 1:
                result.append(payload)  # type: ignore[arg-type]
                continue
            depth, row = payload  # type: ignore[misc]
            level = self.levels[depth]
            self.stats.node_accesses += 1
            first = int(level.start[row])
            children = range(first, first + int(level.count[row]))
            if depth == self.height - 1:
                entries = self.order[first:children.stop]
                self.stats.point_comparisons += entries.size
                for pos, delta in zip(entries.tolist(), self._points[entries] - p):
                    heapq.heappush(
                        heap, (float(np.dot(delta, delta)), pos, 1, pos)
                    )
                continue
            below = self.levels[depth + 1]
            for child in children:  # Keyed by squared MINDIST to p.
                delta = np.maximum(
                    0.0, np.maximum(below.lo[child] - p, p - below.hi[child])
                )
                heapq.heappush(heap, (
                    float(np.dot(delta, delta)), next(counter), 0, (depth + 1, child)
                ))
        return np.array(result, dtype=np.int64)

    # ------------------------------------------------------------------
    # Rebuild (SpatialIndex contract)
    # ------------------------------------------------------------------
    # Every rebuild repacks the tree over the new matrix, so a rebuilt
    # tree is the same tree as ``RTree(points, config)``.
    def _rebuild_structure(self) -> None:
        self.levels, self.order = str_bulk_load(self._points, self.config)

    # ------------------------------------------------------------------
    # Integrity
    # ------------------------------------------------------------------
    def check_integrity(self) -> None:
        """Validate structural invariants; raises IndexCorruptionError.

        Checks: one root; no node above ``max_entries`` and no empty node
        below the root; each level's child slices partition the level
        below; child MBRs (leaf points) inside their parent (leaf) MBR;
        every point indexed exactly once.
        """
        if self.levels[0].count.size != 1:
            raise IndexCorruptionError("root level must hold one node")
        for depth, level in enumerate(self.levels):
            count = level.count
            if count.max() > self.config.max_entries:
                raise IndexCorruptionError(
                    f"node fanout {count.max()} exceeds max "
                    f"{self.config.max_entries}"
                )
            if (count < 1).any() and not (depth == 0 and self.size == 0):
                raise IndexCorruptionError("empty non-root node")
            leaf = depth == self.height - 1
            below = None if leaf else self.levels[depth + 1]
            slots = _expand(level.start, count)
            rows = np.arange(self.order.size if leaf else below.count.size)
            if not np.array_equal(np.sort(slots), rows):
                raise IndexCorruptionError(
                    f"level {depth} slices do not partition the level below"
                )
            if leaf:
                child_lo = child_hi = self._points[self.order[slots]]
            else:
                child_lo, child_hi = below.lo[slots], below.hi[slots]
            outside = (
                (child_lo < np.repeat(level.lo, count, axis=0))
                | (child_hi > np.repeat(level.hi, count, axis=0))
            ).any(axis=1)
            if outside.any():
                raise IndexCorruptionError(
                    f"point {self.order[slots][outside.argmax()]} outside "
                    "leaf MBR" if leaf else "child MBR escapes parent MBR"
                )
        if not np.array_equal(np.sort(self.order), np.arange(self.size)):
            raise IndexCorruptionError(
                f"leaf entries do not cover each of the {self.size} points "
                "exactly once"
            )
