"""The :class:`SpatialIndex` interface.

Every skyline / reverse-skyline / why-not routine in this library is written
against this small abstract surface, so the brute-force oracle and the
R-tree are interchangeable in both tests and experiments.
"""

from __future__ import annotations

import abc
from typing import Sequence

import numpy as np

from repro.geometry.box import Box
from repro.index.stats import IndexStats

__all__ = ["SpatialIndex"]


def _as_matrix(points: np.ndarray) -> np.ndarray:
    matrix = np.ascontiguousarray(points, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError(f"points must be (n, d), got shape {matrix.shape}")
    return matrix


class SpatialIndex(abc.ABC):
    """Spatial access to an ``(n, d)`` point set.

    Indexes return *positions* (row indices into :attr:`points`), which the
    callers map to dataset ids; this keeps numpy vectorisation cheap.

    The query surface is read-only.  The one write is :meth:`rebuild`:
    after a product mutation the engine hands the store's committed
    matrix to it, and the index re-derives its structure from that
    matrix, so a mutated index answers exactly as a freshly built one.
    """

    def __init__(self, points: np.ndarray) -> None:
        self._points = _as_matrix(points)
        self.stats = IndexStats()

    # ------------------------------------------------------------------
    # Common accessors
    # ------------------------------------------------------------------
    @property
    def points(self) -> np.ndarray:
        """The indexed ``(n, d)`` point matrix (do not mutate)."""
        return self._points

    @property
    def size(self) -> int:
        return self._points.shape[0]

    @property
    def dim(self) -> int:
        return self._points.shape[1]

    def get_point(self, position: int) -> np.ndarray:
        return self._points[position]

    # ------------------------------------------------------------------
    # Abstract query surface
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def range_indices(self, box: Box) -> np.ndarray:
        """Positions of all points inside the *closed* box.

        Open-interior filtering (the STRICT window test) is applied by the
        caller on the returned coordinates; the closed result is a superset
        of the open one, so no index-side semantics knob is needed.
        """

    @abc.abstractmethod
    def knn_indices(self, point: Sequence[float], k: int) -> np.ndarray:
        """Positions of the ``k`` nearest points by L2 distance, nearest
        first.  Ties are broken by position for determinism."""

    # ------------------------------------------------------------------
    # Rebuild
    # ------------------------------------------------------------------
    def rebuild(self, points: np.ndarray) -> None:
        """Re-index ``points`` and count one ``stats.rebuilds``.

        A C-contiguous float64 matrix (the store's frozen one) is adopted
        without a copy, so ``index.points is store.matrix`` afterwards.
        """
        self._points = _as_matrix(points)
        self.stats.rebuilds += 1
        self._rebuild_structure()

    @abc.abstractmethod
    def _rebuild_structure(self) -> None:
        """Derive the backend's structure from ``self._points``."""

    # ------------------------------------------------------------------
    # Convenience built on the abstract surface
    # ------------------------------------------------------------------
    def count_in_range(self, box: Box) -> int:
        return int(self.range_indices(box).size)

    def range_points(self, box: Box) -> np.ndarray:
        return self._points[self.range_indices(box)]

    def reset_stats(self) -> None:
        self.stats.reset()
