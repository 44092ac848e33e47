"""Brute-force vectorised index.

This is the correctness oracle for the R-tree and, thanks to numpy, also a
very competitive backend for the bulk parameter sweeps of the experiment
harness (a single boolean reduction per query versus Python-level tree
traversal).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.geometry.box import Box
from repro.geometry.point import as_point
from repro.index.base import SpatialIndex

__all__ = ["ScanIndex"]


class ScanIndex(SpatialIndex):
    """Linear-scan implementation of :class:`SpatialIndex`.

    The point matrix *is* the structure, so a rebuild only adopts the
    new matrix.
    """

    def _rebuild_structure(self) -> None:
        pass

    def range_indices(self, box: Box) -> np.ndarray:
        if box.dim != self.dim:
            raise ValueError(f"box dim {box.dim} != index dim {self.dim}")
        self.stats.queries += 1
        self.stats.node_accesses += 1  # One "node": the whole array.
        self.stats.point_comparisons += self.size
        if self.size == 0:
            return np.empty(0, dtype=np.int64)
        inside = np.all(
            (self._points >= box.lo) & (self._points <= box.hi), axis=1
        )
        return np.flatnonzero(inside)

    def knn_indices(self, point: Sequence[float], k: int) -> np.ndarray:
        p = as_point(point, dim=self.dim)
        if k <= 0:
            return np.empty(0, dtype=np.int64)
        self.stats.queries += 1
        self.stats.node_accesses += 1
        self.stats.point_comparisons += self.size
        if self.size == 0:
            return np.empty(0, dtype=np.int64)
        dists = np.sqrt(np.sum((self._points - p) ** 2, axis=1))
        k = min(k, self.size)
        # Stable ordering: distance first, then position, for determinism.
        order = np.lexsort((np.arange(self.size), dists))
        return order[:k].astype(np.int64)
