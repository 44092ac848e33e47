"""Sort-Tile-Recursive (STR) packing: the R-tree's only build path.

STR (Leutenegger et al.) packs points into full leaves with one sort pass
per dimension and then packs the leaves level by level.  :class:`RTree`
calls it at construction and again after every mutation.  The resulting
tree satisfies every invariant checked by ``RTree.check_integrity``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.config import RTreeConfig
from repro.index.rtree import RTreeNode

__all__ = ["str_bulk_load"]


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


def str_bulk_load(points: np.ndarray, config: RTreeConfig) -> RTreeNode:
    """Build and return the root node of an STR-packed tree over ``points``."""
    n, dim = points.shape
    if n == 0:
        return RTreeNode(0, dim)
    capacity = config.max_entries
    all_positions = np.arange(n, dtype=np.int64)

    groups = _tile_positions(points, all_positions, capacity)
    leaves: list[RTreeNode] = []
    for group in groups:
        leaf = RTreeNode(0, dim)
        leaf.entries = [int(i) for i in group]
        leaf.recompute_mbr(points)
        leaves.append(leaf)

    level = 0
    nodes = leaves
    while len(nodes) > 1:
        level += 1
        centers = np.vstack([(node.lo + node.hi) / 2.0 for node in nodes])
        parent_groups = _tile_positions(
            centers, np.arange(len(nodes), dtype=np.int64), capacity
        )
        parents: list[RTreeNode] = []
        for group in parent_groups:
            parent = RTreeNode(level, dim)
            parent.children = [nodes[int(i)] for i in group]
            parent.recompute_mbr(points)
            parents.append(parent)
        nodes = parents
    return nodes[0]
