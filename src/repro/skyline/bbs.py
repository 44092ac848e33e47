"""Branch-and-Bound Skyline (BBS) on the R-tree (Papadias et al. [7]).

BBS pops index entries from a priority queue ordered by L1 mindist (in the
relevant space) and keeps a point iff it is not dominated by an already
accepted skyline point; nodes whose minimum corner is dominated are pruned
wholesale.  It is I/O-optimal on the R-tree and is the algorithm the paper
cites for dynamic-skyline computation.

``bbs_dynamic_skyline`` runs the same search in the query-centred space: a
node's transformed minimum corner is the per-dimension distance from the
origin to the node MBR (0 when the MBR straddles the origin in that
dimension), which lower-bounds every point in the subtree.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Sequence

import numpy as np

from repro.config import DominancePolicy
from repro.geometry.point import as_point
from repro.geometry.transform import to_query_space
from repro.index.rtree import RTree
from repro.prefs.model import support_dims
from repro.skyline.dominance import is_dominated_by_any

__all__ = ["bbs_skyline", "bbs_dynamic_skyline"]


def _min_corner(
    lo: np.ndarray, hi: np.ndarray, origin: np.ndarray | None
) -> np.ndarray:
    """Component-wise lower bound of an MBR in the search space."""
    if origin is None:
        return lo
    below = np.maximum(origin - hi, 0.0)
    above = np.maximum(lo - origin, 0.0)
    return np.maximum(below, above)


def _bbs(
    tree: RTree,
    origin: np.ndarray | None,
    exclude: frozenset[int],
    dims: "np.ndarray | None" = None,
) -> np.ndarray:
    counter = itertools.count(1)
    # Heap of (key, tiebreak, kind, payload); kind 0 = node with payload
    # (level, row), 1 = point with payload its position.  The root pops
    # first whatever its key.
    heap: list[tuple[float, int, int, object]] = [(0.0, 0, 0, (0, 0))]
    width = tree.dim if dims is None else int(dims.size)

    def search_value(full: np.ndarray) -> np.ndarray:
        # Projection to the preference support: dominance, the priority
        # key and node pruning all run in the support subspace (the
        # min-corner bound holds per dimension, hence per subset).
        return full if dims is None else full[dims]

    skyline_positions: list[int] = []
    skyline_coords = np.empty((0, width))

    while heap:
        _key, _tie, kind, payload = heapq.heappop(heap)
        if kind == 1:
            pos = payload  # type: ignore[assignment]
            coords = tree.points[pos]
            value = search_value(
                coords if origin is None else to_query_space(coords, origin)
            )
            if is_dominated_by_any(skyline_coords, value, DominancePolicy.WEAK):
                continue
            skyline_positions.append(pos)
            skyline_coords = np.vstack([skyline_coords, value])
            continue
        depth, row = payload  # type: ignore[misc]
        level = tree.levels[depth]
        tree.stats.node_accesses += 1
        corner = search_value(_min_corner(level.lo[row], level.hi[row], origin))
        if is_dominated_by_any(skyline_coords, corner, DominancePolicy.WEAK):
            continue
        first = int(level.start[row])
        children = range(first, first + int(level.count[row]))
        if depth == tree.height - 1:
            for pos in tree.order[first:children.stop].tolist():
                if pos in exclude:
                    continue
                coords = tree.points[pos]
                value = search_value(
                    coords
                    if origin is None
                    else to_query_space(coords, origin)
                )
                tree.stats.point_comparisons += 1
                heapq.heappush(
                    heap, (float(value.sum()), next(counter), 1, pos)
                )
            continue
        below = tree.levels[depth + 1]
        for child in children:
            child_corner = search_value(
                _min_corner(below.lo[child], below.hi[child], origin)
            )
            heapq.heappush(heap, (
                float(child_corner.sum()), next(counter), 0, (depth + 1, child)
            ))
    return np.array(sorted(skyline_positions), dtype=np.int64)


def _support(weights, dim: int) -> "np.ndarray | None":
    return support_dims(
        None if weights is None else np.asarray(weights, dtype=np.float64),
        dim,
    )


def bbs_skyline(
    tree: RTree,
    exclude: Sequence[int] = (),
    weights: "np.ndarray | None" = None,
) -> np.ndarray:
    """Positions of the (static) skyline of the indexed points."""
    if tree.size == 0:
        return np.empty(0, dtype=np.int64)
    return _bbs(
        tree, None, frozenset(int(i) for i in exclude),
        _support(weights, tree.dim),
    )


def bbs_dynamic_skyline(
    tree: RTree,
    origin: Sequence[float],
    exclude: Sequence[int] = (),
    weights: "np.ndarray | None" = None,
) -> np.ndarray:
    """Positions of ``DSL(origin)`` computed with BBS on the R-tree.

    Node pruning is correct because the transformed minimum corner is
    dominated only if every point of the subtree is: each subtree point's
    transformed coordinates are ``>=`` the corner component-wise, and weak
    dominance is preserved under such inflation (and under projection to
    the preference support).
    """
    if tree.size == 0:
        return np.empty(0, dtype=np.int64)
    o = as_point(origin, dim=tree.dim)
    return _bbs(
        tree, o, frozenset(int(i) for i in exclude),
        _support(weights, tree.dim),
    )
