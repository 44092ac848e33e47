"""Row-to-shard assignment.

A *partition* is a list of exactly ``shards`` disjoint ``int64``
position arrays covering ``range(n)`` (some possibly empty when
``shards > n``).  Rows are cut in Sort-Tile-Recursive order — the same
tiling :func:`repro.index.bulkload.str_bulk_load` packs R-tree leaves
with — into contiguous runs, so each shard covers a compact area and
the membership kernel's early-exit stays as effective as on the full
matrix.  The merged kernel results do not depend on the assignment
(membership is per-row, the region fold is order-invariant); it only
moves per-shard work balance.
"""

from __future__ import annotations

import math

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.index.bulkload import _tile_positions

__all__ = ["partition_matrix", "shard_assignment"]


def partition_matrix(points: np.ndarray, shards: int) -> list[np.ndarray]:
    """Partition the rows of ``points`` into ``shards`` position arrays."""
    if shards < 1:
        raise InvalidParameterError("shards must be a positive integer")
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise InvalidParameterError(
            f"points must be an (n, d) matrix, got shape {pts.shape}"
        )
    n = pts.shape[0]
    order = np.arange(n, dtype=np.int64)
    if shards > 1 and n > 0:
        capacity = max(1, math.ceil(n / shards))
        tiles = _tile_positions(pts, order, capacity)
        if tiles:
            order = np.concatenate(tiles)
    return [
        np.ascontiguousarray(part, dtype=np.int64)
        for part in np.array_split(order, shards)
    ]


def shard_assignment(parts: list[np.ndarray], count: int) -> np.ndarray:
    """Inverse of a partition: the ``(count,)`` row → shard-id map."""
    assignment = np.full(count, -1, dtype=np.int64)
    for shard_id, part in enumerate(parts):
        assignment[part] = shard_id
    if np.any(assignment < 0):
        raise InvalidParameterError(
            "partition does not cover every row of the matrix"
        )
    return assignment
