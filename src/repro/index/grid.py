"""A uniform grid index.

A third :class:`SpatialIndex` backend: the data bounding box is cut into
``cells_per_dim`` slabs per dimension and each cell holds the positions
of its points.  Window queries touch only overlapping cells; kNN expands
rings of cells around the target until the answer is provably complete.

Grids shine on the uniformly distributed synthetic workloads and give
the benchmark suite a second non-trivial access method to compare the
R-tree against.

The grid is fully incremental (see :attr:`GridIndex.incremental_ops`):
inserts land in their cell bucket, removals remap every bucket through
the compaction mapping, and updates move one position between buckets.
The cell geometry is frozen at build time, so points inserted *outside*
the original bounding box go to a small linear **overflow** set that both
query paths scan exactly — correctness never depends on the mutated data
staying inside the original universe.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Sequence

import numpy as np

from repro.geometry.box import Box
from repro.geometry.point import as_point
from repro.index.base import SpatialIndex

__all__ = ["GridIndex"]


class GridIndex(SpatialIndex):
    """Uniform grid over the data's bounding box.

    Parameters
    ----------
    points:
        ``(n, d)`` matrix to index.
    cells_per_dim:
        Grid resolution; ``None`` picks ``ceil(n ** (1/d))`` capped at 64,
        which targets O(1) points per cell on uniform data.
    """

    incremental_ops = frozenset({"insert", "remove", "update"})

    def __init__(self, points: np.ndarray, cells_per_dim: int | None = None) -> None:
        super().__init__(points)
        if cells_per_dim is not None and cells_per_dim < 1:
            raise ValueError("cells_per_dim must be positive")
        self._requested_cells = cells_per_dim
        self._build_structure()

    def _build_structure(self) -> None:
        """(Re)derive the cell geometry and buckets from ``_points``."""
        self._overflow = np.empty(0, dtype=np.int64)
        if self.size == 0:
            self._has_grid = False
            self._cells_per_dim = 1
            self._lo = np.zeros(max(self.dim, 1))
            self._width = np.ones(max(self.dim, 1))
            self._cells: dict[tuple[int, ...], np.ndarray] = {}
            return
        self._has_grid = True
        cells_per_dim = self._requested_cells
        if cells_per_dim is None:
            cells_per_dim = int(min(64, max(1, round(self.size ** (1.0 / self.dim)))))
        self._cells_per_dim = cells_per_dim
        self._lo = self._points.min(axis=0)
        hi = self._points.max(axis=0)
        span = np.where(hi > self._lo, hi - self._lo, 1.0)
        self._width = span / cells_per_dim

        coords = self._cell_coords(self._points)
        order = np.lexsort(coords.T[::-1])
        sorted_coords = coords[order]
        boundaries = np.flatnonzero(
            np.any(np.diff(sorted_coords, axis=0) != 0, axis=1)
        )
        starts = np.concatenate([[0], boundaries + 1])
        ends = np.concatenate([boundaries + 1, [self.size]])
        self._cells = {
            tuple(sorted_coords[start]): np.sort(order[start:end])
            for start, end in zip(starts, ends)
        }

    def _rebuild_structure(self) -> None:
        self._build_structure()

    # ------------------------------------------------------------------
    # Cell arithmetic
    # ------------------------------------------------------------------
    def _cell_coords(self, points: np.ndarray) -> np.ndarray:
        rel = (points - self._lo) / self._width
        return np.clip(
            np.floor(rel).astype(np.int64), 0, self._cells_per_dim - 1
        )

    def _cell_box(self, coords: Sequence[int]) -> Box:
        lo = self._lo + np.asarray(coords) * self._width
        return Box(lo, lo + self._width)

    def _covers(self, point: np.ndarray) -> bool:
        """True when ``point`` lies inside the frozen grid box (where the
        clipped cell arithmetic is exact)."""
        grid_hi = self._lo + self._width * self._cells_per_dim
        return bool(np.all(point >= self._lo) and np.all(point <= grid_hi))

    @property
    def cell_count(self) -> int:
        return len(self._cells)

    @property
    def overflow_count(self) -> int:
        """Points living outside the frozen grid box (linear-scanned)."""
        return int(self._overflow.size)

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    def _bucket_add(self, position: int, point: np.ndarray) -> None:
        if not self._covers(point):
            self._overflow = np.sort(np.append(self._overflow, position))
            return
        coords = tuple(self._cell_coords(point.reshape(1, -1))[0])
        bucket = self._cells.get(coords)
        if bucket is None:
            self._cells[coords] = np.array([position], dtype=np.int64)
        else:
            self._cells[coords] = np.sort(np.append(bucket, position))

    def _bucket_drop(self, position: int, point: np.ndarray) -> None:
        if not self._covers(point):
            self._overflow = self._overflow[self._overflow != position]
            return
        coords = tuple(self._cell_coords(point.reshape(1, -1))[0])
        bucket = self._cells.get(coords)
        if bucket is None:
            return
        bucket = bucket[bucket != position]
        if bucket.size:
            self._cells[coords] = bucket
        else:
            del self._cells[coords]

    def _apply_insert(self, start: int, points: np.ndarray) -> None:
        if not self._has_grid:
            # First rows of an empty-built grid: derive real geometry.
            self._rebuild()
            return
        for offset in range(points.shape[0]):
            self._bucket_add(start + offset, points[offset])

    def _apply_remove(
        self, dropped: np.ndarray, mapping: np.ndarray, old_points: np.ndarray
    ) -> None:
        new_cells: dict[tuple[int, ...], np.ndarray] = {}
        for coords, bucket in self._cells.items():
            remapped = mapping[bucket]
            remapped = remapped[remapped >= 0]
            if remapped.size:
                new_cells[coords] = remapped
        self._cells = new_cells
        overflow = mapping[self._overflow]
        self._overflow = overflow[overflow >= 0]

    def _apply_update(
        self,
        positions: np.ndarray,
        old_points: np.ndarray,
        new_points: np.ndarray,
    ) -> None:
        for pos, old, new in zip(positions, old_points, new_points):
            self._bucket_drop(int(pos), old)
            self._bucket_add(int(pos), new)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def range_indices(self, box: Box) -> np.ndarray:
        if box.dim != self.dim:
            raise ValueError(f"box dim {box.dim} != index dim {self.dim}")
        self.stats.queries += 1
        if self.size == 0:
            return np.empty(0, dtype=np.int64)
        lo_cell = self._cell_coords(box.lo.reshape(1, -1))[0]
        hi_cell = self._cell_coords(box.hi.reshape(1, -1))[0]
        hits: list[np.ndarray] = []
        for coords in itertools.product(
            *(range(int(a), int(b) + 1) for a, b in zip(lo_cell, hi_cell))
        ):
            bucket = self._cells.get(coords)
            if bucket is None:
                continue
            self.stats.node_accesses += 1
            block = self._points[bucket]
            self.stats.point_comparisons += bucket.size
            inside = np.all((block >= box.lo) & (block <= box.hi), axis=1)
            if inside.any():
                hits.append(bucket[inside])
        if self._overflow.size:
            # Out-of-grid points: one exact linear pass, like a tiny scan.
            self.stats.node_accesses += 1
            block = self._points[self._overflow]
            self.stats.point_comparisons += self._overflow.size
            inside = np.all((block >= box.lo) & (block <= box.hi), axis=1)
            if inside.any():
                hits.append(self._overflow[inside])
        if not hits:
            return np.empty(0, dtype=np.int64)
        return np.sort(np.concatenate(hits))

    def knn_indices(self, point: Sequence[float], k: int) -> np.ndarray:
        p = as_point(point, dim=self.dim)
        if k <= 0 or self.size == 0:
            return np.empty(0, dtype=np.int64)
        self.stats.queries += 1
        k = min(k, self.size)
        # Best-first over cells by MINDIST, then over points.
        counter = itertools.count()
        heap: list[tuple[float, int, int, object]] = []
        for coords, bucket in self._cells.items():
            box = self._cell_box(coords)
            delta = np.maximum(
                0.0, np.maximum(box.lo - p, p - box.hi)
            )
            heapq.heappush(
                heap,
                (float(np.dot(delta, delta)), next(counter), 0, (coords, bucket)),
            )
        if self._overflow.size:
            # Overflow points enter as exact candidates up front — their
            # coordinates lie outside the cell geometry, so MINDIST
            # pruning must never stand between them and the answer.
            self.stats.node_accesses += 1
            block = self._points[self._overflow]
            self.stats.point_comparisons += self._overflow.size
            dists = np.sum((block - p) ** 2, axis=1)
            for pos, dist in zip(self._overflow, dists):
                heapq.heappush(heap, (float(dist), int(pos), 1, int(pos)))
        result: list[int] = []
        while heap and len(result) < k:
            _dist, _tie, kind, payload = heapq.heappop(heap)
            if kind == 1:
                result.append(payload)  # type: ignore[arg-type]
                continue
            _coords, bucket = payload  # type: ignore[misc]
            self.stats.node_accesses += 1
            block = self._points[bucket]
            self.stats.point_comparisons += bucket.size
            dists = np.sum((block - p) ** 2, axis=1)
            for pos, dist in zip(bucket, dists):
                heapq.heappush(heap, (float(dist), int(pos), 1, int(pos)))
        return np.array(result, dtype=np.int64)
