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


class SpatialIndex(abc.ABC):
    """Spatial access to an ``(n, d)`` point set.

    Indexes return *positions* (row indices into :attr:`points`), which the
    callers map to dataset ids; this keeps numpy vectorisation cheap.

    The query surface is read-only, but every backend also supports the
    mutation trio :meth:`insert` / :meth:`remove` / :meth:`update`.  The
    base class maintains :attr:`points` and delegates structure upkeep to
    the ``_apply_*`` hooks, whose default is a counted full rebuild
    (``stats.rebuilds``); backends that can absorb an operation in place
    override the hook and advertise it in :attr:`incremental_ops`
    (``stats.incremental_*`` counts those).  Either way the post-mutation
    index answers queries exactly as a freshly built one over the same
    matrix.

    :meth:`remove` compacts positions — surviving rows shift down — and
    returns the same old-to-new mapping contract as
    :class:`repro.store.VersionedStore.delete` (``-1`` for removed rows).
    """

    #: Operation names ("insert"/"remove"/"update") this backend absorbs
    #: without a rebuild.  Purely descriptive; the authoritative account
    #: is the stats counters.
    incremental_ops: frozenset[str] = frozenset()

    def __init__(self, points: np.ndarray) -> None:
        self._points = np.ascontiguousarray(points, dtype=np.float64)
        if self._points.ndim != 2:
            raise ValueError(f"points must be (n, d), got shape {self._points.shape}")
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
    # Mutation surface
    # ------------------------------------------------------------------
    def insert(self, points: np.ndarray) -> np.ndarray:
        """Append rows to the index; returns their new positions.

        Accepts one point or an ``(k, d)`` block.  Counted under
        ``stats.incremental_inserts`` when the backend absorbed it in
        place, ``stats.rebuilds`` otherwise.
        """
        pts = np.ascontiguousarray(points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts.reshape(1, -1)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise ValueError(
                f"insert expects (k, {self.dim}) points, got shape {pts.shape}"
            )
        if pts.shape[0] == 0:
            return np.empty(0, dtype=np.int64)
        start = self.size
        before = self.stats.rebuilds
        self._points = np.ascontiguousarray(np.vstack([self._points, pts]))
        self._apply_insert(start, pts)
        if self.stats.rebuilds == before:
            self.stats.incremental_inserts += 1
        return np.arange(start, start + pts.shape[0], dtype=np.int64)

    def remove(self, positions: Sequence[int]) -> np.ndarray:
        """Remove rows and compact; returns the old-to-new mapping
        (``-1`` for removed rows), matching the store delete contract."""
        drop = np.unique(np.asarray(list(positions), dtype=np.int64))
        if drop.size and (drop[0] < 0 or drop[-1] >= self.size):
            bad = int(drop[0] if drop[0] < 0 else drop[-1])
            raise ValueError(f"remove position {bad} out of range")
        if drop.size == 0:
            return np.arange(self.size, dtype=np.int64)
        old_points = self._points
        mask = np.ones(self.size, dtype=bool)
        mask[drop] = False
        keep = np.flatnonzero(mask)
        mapping = np.full(old_points.shape[0], -1, dtype=np.int64)
        mapping[keep] = np.arange(keep.size, dtype=np.int64)
        before = self.stats.rebuilds
        self._points = np.ascontiguousarray(old_points[keep])
        self._apply_remove(drop, mapping, old_points)
        if self.stats.rebuilds == before:
            self.stats.incremental_removes += 1
        return mapping

    def update(self, positions: Sequence[int], points: np.ndarray) -> None:
        """Replace the coordinates of existing rows (positions stable)."""
        target = np.asarray(list(positions), dtype=np.int64)
        if np.unique(target).size != target.size:
            raise ValueError("update positions must be distinct")
        if target.size and (target.min() < 0 or target.max() >= self.size):
            bad = int(target.min() if target.min() < 0 else target.max())
            raise ValueError(f"update position {bad} out of range")
        pts = np.ascontiguousarray(points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts.reshape(1, -1)
        if pts.shape != (target.size, self.dim):
            raise ValueError(
                f"update expects ({target.size}, {self.dim}) points, "
                f"got shape {pts.shape}"
            )
        if target.size == 0:
            return
        order = np.argsort(target)
        target = target[order]
        pts = pts[order]
        old_rows = self._points[target].copy()
        matrix = self._points.copy()
        matrix[target] = pts
        before = self.stats.rebuilds
        self._points = np.ascontiguousarray(matrix)
        self._apply_update(target, old_rows, pts)
        if self.stats.rebuilds == before:
            self.stats.incremental_updates += 1

    # Structure-upkeep hooks: the base behaviour is a counted rebuild.
    # ``self._points`` is already the post-mutation matrix when a hook
    # runs; ``old_points`` / ``mapping`` describe the previous state.
    def _apply_insert(self, start: int, points: np.ndarray) -> None:
        self._rebuild()

    def _apply_remove(
        self, dropped: np.ndarray, mapping: np.ndarray, old_points: np.ndarray
    ) -> None:
        self._rebuild()

    def _apply_update(
        self,
        positions: np.ndarray,
        old_points: np.ndarray,
        new_points: np.ndarray,
    ) -> None:
        self._rebuild()

    def _rebuild(self) -> None:
        self.stats.rebuilds += 1
        self._rebuild_structure()

    def _rebuild_structure(self) -> None:
        raise NotImplementedError(
            f"{type(self).__name__} does not implement rebuild-backed "
            "mutation"
        )

    # ------------------------------------------------------------------
    # Convenience built on the abstract surface
    # ------------------------------------------------------------------
    def count_in_range(self, box: Box) -> int:
        return int(self.range_indices(box).size)

    def range_points(self, box: Box) -> np.ndarray:
        return self._points[self.range_indices(box)]

    def reset_stats(self) -> None:
        self.stats.reset()
