"""Sort-Tile-Recursive (STR) packing: the R-tree's only build path.

STR (Leutenegger et al.) packs points into full leaves with one sort pass
per dimension and then packs the leaves level by level.  :class:`RTree`
calls it at construction and again after every mutation.  The tree is
per-level arrays, root first: row ``r`` of a :class:`Level` is a node with
MBR ``lo[r]``/``hi[r]`` and children ``start[r] : start[r] + count[r]``,
rows of the level below (or, for a leaf, of ``order``: point positions),
laid out by their parent's STR groups, so they come in STR order.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from repro.config import RTreeConfig

__all__ = ["Level", "str_bulk_load"]


class Level(NamedTuple):
    """One tree level: ``k`` nodes as ``(k, d)`` MBRs and ``(k,)`` slices."""

    lo: np.ndarray
    hi: np.ndarray
    start: np.ndarray
    count: np.ndarray


def _tile_positions(points: np.ndarray, positions: np.ndarray, capacity: int) -> list[np.ndarray]:
    """Recursively tile ``positions`` into groups of at most ``capacity``
    points, sorting by one dimension per recursion level (STR)."""
    dim = points.shape[1]

    def recurse(pos: np.ndarray, axis: int) -> list[np.ndarray]:
        n = pos.size
        if n <= capacity:
            return [pos]
        leaves_needed = math.ceil(n / capacity)
        if axis >= dim - 1:
            order = pos[np.argsort(points[pos, axis], kind="stable")]
            return [
                order[i * capacity:(i + 1) * capacity]
                for i in range(leaves_needed)
            ]
        # Number of vertical slabs: S = ceil(sqrt-ish of leaf count across
        # the remaining dimensions).
        slabs = math.ceil(leaves_needed ** (1.0 / (dim - axis)))
        slab_size = math.ceil(n / slabs)
        order = pos[np.argsort(points[pos, axis], kind="stable")]
        groups: list[np.ndarray] = []
        for i in range(slabs):
            chunk = order[i * slab_size:(i + 1) * slab_size]
            if chunk.size:
                groups.extend(recurse(chunk, axis + 1))
        return groups

    return recurse(positions, 0)


def _pack(lo: np.ndarray, hi: np.ndarray, groups: list[np.ndarray]):
    """One parent per group of rows of ``lo``/``hi``: the row permutation
    that makes each group contiguous, and the parents' level."""
    perm = np.concatenate(groups)
    count = np.array([g.size for g in groups], dtype=np.int64)
    start = np.cumsum(count) - count
    return perm, Level(
        np.minimum.reduceat(lo[perm], start, axis=0),
        np.maximum.reduceat(hi[perm], start, axis=0), start, count,
    )


def str_bulk_load(
    points: np.ndarray, config: RTreeConfig
) -> tuple[list[Level], np.ndarray]:
    """STR-pack ``points``: the levels (root first) and the leaf ``order``."""
    n, dim = points.shape
    if n == 0:  # One empty root leaf whose MBR meets no box.
        inf, zero = np.full((1, dim), np.inf), np.zeros(1, dtype=np.int64)
        return [Level(inf, -inf, zero, zero.copy())], zero[:0]
    order, level = _pack(points, points, _tile_positions(
        points, np.arange(n, dtype=np.int64), config.max_entries
    ))
    levels = []
    while level.count.size > 1:
        centers = (level.lo + level.hi) / 2.0
        perm, parent = _pack(level.lo, level.hi, _tile_positions(
            centers, np.arange(len(centers), dtype=np.int64),
            config.max_entries,
        ))
        levels.append(Level(*(a[perm] for a in level)))
        level = parent
    return [level, *reversed(levels)], order
