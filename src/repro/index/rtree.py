"""An STR-packed R-tree over points.

The paper indexes every dataset with an R-tree with 1536-byte pages and
never inserts into it.  This tree is built one way only: Sort-Tile-
Recursive packing (:func:`repro.index.bulkload.str_bulk_load`) with the
paper's page fanout.  Every :meth:`~repro.index.base.SpatialIndex.rebuild`
repacks the whole tree over the store's post-mutation matrix, so a
mutated tree is node for node the tree a fresh build over the same
points gives.

Only points are indexed (the paper stores tuples); leaf entries are row
positions into the point matrix, so the tree composes with the rest of the
library through :class:`repro.index.base.SpatialIndex`.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Iterator, Sequence

import numpy as np

from repro.config import RTreeConfig
from repro.exceptions import IndexCorruptionError
from repro.geometry.box import Box
from repro.geometry.point import as_point
from repro.index.base import SpatialIndex

__all__ = ["RTree", "RTreeNode"]


class RTreeNode:
    """A single R-tree node.

    Leaf nodes hold point positions in :attr:`entries`; internal nodes hold
    child nodes in :attr:`children`.  The MBR is a pair of numpy arrays set
    by :meth:`recompute_mbr` when the tree is packed.
    """

    __slots__ = ("level", "entries", "children", "lo", "hi")

    def __init__(self, level: int, dim: int) -> None:
        self.level = level  # 0 for leaves.
        self.entries: list[int] = []
        self.children: list[RTreeNode] = []
        self.lo = np.full(dim, np.inf)
        self.hi = np.full(dim, -np.inf)

    @property
    def is_leaf(self) -> bool:
        return self.level == 0

    @property
    def count(self) -> int:
        return len(self.entries) if self.is_leaf else len(self.children)

    def recompute_mbr(self, points: np.ndarray) -> None:
        if self.is_leaf:
            block = points[self.entries]
            self.lo = block.min(axis=0)
            self.hi = block.max(axis=0)
        else:
            self.lo = np.min(np.vstack([c.lo for c in self.children]), axis=0)
            self.hi = np.max(np.vstack([c.hi for c in self.children]), axis=0)

    def intersects_box(self, box: Box) -> bool:
        return bool(np.all(self.lo <= box.hi) and np.all(box.lo <= self.hi))

    def min_sq_dist(self, point: np.ndarray) -> float:
        """Squared MINDIST from a point to the node MBR (best-first kNN)."""
        delta = np.maximum(0.0, np.maximum(self.lo - point, point - self.hi))
        return float(np.dot(delta, delta))


class RTree(SpatialIndex):
    """STR-packed R-tree point index.

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
    def root(self) -> RTreeNode:
        return self._root

    @property
    def height(self) -> int:
        return self._root.level + 1

    def node_count(self) -> int:
        return sum(1 for _ in self._iter_nodes())

    def _iter_nodes(self) -> Iterator[RTreeNode]:
        stack = [self._root]
        while stack:
            node = stack.pop()
            yield node
            if not node.is_leaf:
                stack.extend(node.children)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def range_indices(self, box: Box) -> np.ndarray:
        if box.dim != self.dim:
            raise ValueError(f"box dim {box.dim} != index dim {self.dim}")
        self.stats.queries += 1
        out: list[int] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            self.stats.node_accesses += 1
            if not node.intersects_box(box):
                continue
            if node.is_leaf:
                if node.entries:
                    block = self._points[node.entries]
                    self.stats.point_comparisons += len(node.entries)
                    inside = np.all((block >= box.lo) & (block <= box.hi), axis=1)
                    out.extend(np.asarray(node.entries)[inside].tolist())
            else:
                stack.extend(node.children)
        return np.array(sorted(out), dtype=np.int64)

    def knn_indices(self, point: Sequence[float], k: int) -> np.ndarray:
        p = as_point(point, dim=self.dim)
        if k <= 0 or self.size == 0:
            return np.empty(0, dtype=np.int64)
        self.stats.queries += 1
        k = min(k, self.size)
        counter = itertools.count()
        # Heap of (sq_dist, tiebreak, kind, payload); kind 0 = node, 1 = point.
        heap: list[tuple[float, int, int, object]] = [
            (self._root.min_sq_dist(p), next(counter), 0, self._root)
        ]
        result: list[int] = []
        while heap and len(result) < k:
            dist, _tie, kind, payload = heapq.heappop(heap)
            if kind == 1:
                result.append(payload)  # type: ignore[arg-type]
                continue
            node: RTreeNode = payload  # type: ignore[assignment]
            self.stats.node_accesses += 1
            if node.is_leaf:
                for pos in node.entries:
                    delta = self._points[pos] - p
                    self.stats.point_comparisons += 1
                    heapq.heappush(
                        heap, (float(np.dot(delta, delta)), pos, 1, pos)
                    )
            else:
                for child in node.children:
                    heapq.heappush(
                        heap, (child.min_sq_dist(p), next(counter), 0, child)
                    )
        return np.array(result, dtype=np.int64)

    # ------------------------------------------------------------------
    # Rebuild (SpatialIndex contract)
    # ------------------------------------------------------------------
    # Every rebuild repacks the tree over the new matrix, so a rebuilt
    # tree is the same tree as ``RTree(points, config)``.
    def _rebuild_structure(self) -> None:
        from repro.index.bulkload import str_bulk_load  # imports RTreeNode

        self._root = str_bulk_load(self._points, self.config)

    # ------------------------------------------------------------------
    # Integrity
    # ------------------------------------------------------------------
    def check_integrity(self) -> None:
        """Validate structural invariants; raises IndexCorruptionError.

        Checks: every point indexed exactly once; leaf levels uniform; child
        MBRs contained in parents; no node above ``max_entries`` and no
        empty node below the root.
        """
        seen: list[int] = []
        self._check_node(self._root, is_root=True, seen=seen)
        if sorted(seen) != list(range(self.size)):
            raise IndexCorruptionError(
                f"index covers {len(seen)} entries, expected {self.size}"
            )

    def _check_node(self, node: RTreeNode, is_root: bool, seen: list[int]) -> None:
        if node.count == 0 and not (is_root and self.size == 0):
            raise IndexCorruptionError("empty non-root node")
        if node.count > self.config.max_entries:
            raise IndexCorruptionError(
                f"node fanout {node.count} exceeds max {self.config.max_entries}"
            )
        if node.is_leaf:
            for pos in node.entries:
                point = self._points[pos]
                if np.any(point < node.lo) or np.any(point > node.hi):
                    raise IndexCorruptionError(f"point {pos} outside leaf MBR")
                seen.append(pos)
        else:
            for child in node.children:
                if child.level != node.level - 1:
                    raise IndexCorruptionError("inconsistent node levels")
                if np.any(child.lo < node.lo) or np.any(child.hi > node.hi):
                    raise IndexCorruptionError("child MBR escapes parent MBR")
                self._check_node(child, is_root=False, seen=seen)
