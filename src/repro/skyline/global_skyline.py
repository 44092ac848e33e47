"""Global-skyline candidate pruning for BBRS (Dellis & Seeger).

A customer ``c`` can only be excluded from ``RSL(q)`` by a product inside
its window — and a product ``p`` lying in the *same orthant* of ``q`` as
``c`` whose transformed coordinates ``|q - p|`` are strictly smaller than
``|q - c|`` in every dimension (and non-zero) is inside the open window of
``(c, q)`` regardless of where exactly ``c`` sits.  Customers with such a
blocker can therefore be pruned without running their window query; the
survivors — the per-orthant "global skyline" — are verified individually.

The strict/non-zero form of the test makes the pruning conservative under
both dominance policies, so BBRS output always equals the naive oracle.

In a 2-D support subspace the test is a staircase lookup: with an
orthant's minimal blockers sorted by x and a running minimum of y, a
customer is pruned iff the last blocker of x below its own has y below
its own, one ``searchsorted`` per orthant in O((n + m) log k).  Other
dimensionalities broadcast every customer against every minimal
blocker, O(m·k).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.geometry.point import as_point, as_points
from repro.geometry.transform import orthants_of, to_query_space
from repro.prefs.model import support_dims
from repro.skyline.algorithms import skyline_indices

__all__ = ["global_skyline_candidates"]


def global_skyline_candidates(
    products: np.ndarray,
    customers: np.ndarray,
    query: Sequence[float],
    self_exclude: bool = False,
    weights: "np.ndarray | None" = None,
) -> np.ndarray:
    """Positions (into ``customers``) that survive the BBRS pruning.

    Parameters
    ----------
    products, customers:
        ``(n, d)`` matrices; in the monochromatic setting pass the same
        array twice and set ``self_exclude``.
    query:
        The reverse-skyline query point ``q``.
    self_exclude:
        When true, a product at the same position index as the customer is
        not allowed to prune it (the customer is not its own competitor).
    weights:
        Optional preference weights; the whole pruning argument runs in
        the support subspace (projection semantics), where it is exactly
        as conservative as the full-dimensional original.
    """
    q = as_point(query)
    prods = as_points(products, dim=q.size)
    custs = as_points(customers, dim=q.size)
    dims = support_dims(
        None if weights is None else np.asarray(weights, dtype=np.float64),
        q.size,
    )
    if dims is not None:
        q = q[dims]
        prods = prods[:, dims]
        custs = custs[:, dims]
    n_cust = custs.shape[0]
    if n_cust == 0:
        return np.empty(0, dtype=np.int64)
    if prods.shape[0] == 0:
        return np.arange(n_cust, dtype=np.int64)

    prod_orth = orthants_of(prods, q)
    cust_orth = orthants_of(custs, q)
    t_prods = to_query_space(prods, q)
    t_custs = to_query_space(custs, q)

    # Only products strictly off every axis hyperplane of q can prune
    # under the strict window test.  Column by column: NumPy runs a
    # short-axis ``all`` several times slower.
    interior = t_prods[:, 0] > 0
    for j in range(1, t_prods.shape[1]):
        interior &= t_prods[:, j] > 0

    survivors: list[np.ndarray] = []
    for orthant in np.flatnonzero(np.bincount(cust_orth)):
        cust_pos = np.flatnonzero(cust_orth == orthant)
        prod_pos = np.flatnonzero((prod_orth == orthant) & interior)
        if prod_pos.size == 0:
            survivors.append(cust_pos)
            continue
        blockers = t_prods[prod_pos]
        # Reduce the blockers to their weak-dominance minima first: a point
        # strictly dominated by any blocker is strictly dominated by some
        # minimal blocker too (m <= b < c implies m < c component-wise).
        minimal = blockers[skyline_indices(blockers)]
        # In the monochromatic setting a customer can never be pruned by
        # itself: its own transformed coordinates tie in every dimension and
        # the test below is strict, so ``self_exclude`` needs no extra
        # filtering here (it documents intended usage at call sites).
        dominated = (_staircase_dominated if minimal.shape[1] == 2
                     else _broadcast_dominated)
        survivors.append(cust_pos[~dominated(minimal, t_custs[cust_pos])])
    return np.sort(np.concatenate(survivors))


def _staircase_dominated(
    blockers: np.ndarray, points: np.ndarray
) -> np.ndarray:
    """Mask of the 2-D ``points`` that some row of ``blockers`` strictly
    dominates, in O((k + m) log k) for any blocker set: the least y among
    the blockers of x strictly below a point's must be below its y."""
    order = np.argsort(blockers[:, 0])
    xs = blockers[order, 0]
    min_ys = np.minimum.accumulate(blockers[order, 1])
    below = np.searchsorted(xs, points[:, 0], side="left")
    return (below > 0) & (min_ys[below - 1] < points[:, 1])


def _broadcast_dominated(
    blockers: np.ndarray, points: np.ndarray
) -> np.ndarray:
    """:func:`_staircase_dominated` for any dimensionality, one O(m·k)
    broadcast per chunk of points; the staircase's test oracle."""
    out = np.empty(points.shape[0], dtype=bool)
    chunk = 2048
    for start in range(0, points.shape[0], chunk):
        block = points[start:start + chunk]
        out[start:start + chunk] = np.any(
            np.all(blockers[None, :, :] < block[:, None, :], axis=2), axis=1
        )
    return out
