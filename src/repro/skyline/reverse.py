"""Reverse skyline queries (Definition 3).

``reverse_skyline_naive`` runs one window query per customer — the direct
realisation of the definition and the correctness oracle.

``reverse_skyline_bbrs`` follows Dellis & Seeger's BBRS scheme the paper
uses [9]: first prune customers that provably cannot be members via the
per-orthant global skyline, then verify only the survivors with window
queries.  Outputs are identical by construction (property-tested).

The blocked NumPy form of the same membership test is
:func:`repro.kernels.membership.batch_window_membership`; the engine picks
between it and these index loops through the planner
(:func:`repro.plan.operators.row_mask`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.config import DominancePolicy
from repro.geometry.point import as_point, as_points
from repro.index.base import SpatialIndex
from repro.skyline.global_skyline import global_skyline_candidates
from repro.skyline.window import window_is_empty

__all__ = [
    "is_reverse_skyline_member",
    "reverse_skyline_naive",
    "reverse_skyline_bbrs",
]


def is_reverse_skyline_member(
    product_index: SpatialIndex,
    customer: Sequence[float],
    query: Sequence[float],
    policy: DominancePolicy = DominancePolicy.WEAK,
    exclude: Sequence[int] = (),
    weights: "np.ndarray | None" = None,
) -> bool:
    """True when ``customer`` belongs to ``RSL(query)``: its window over the
    product set is empty (the Dellis-Seeger membership test)."""
    return window_is_empty(
        product_index, customer, query, policy, exclude, weights
    )


def _check_self_exclude(custs: np.ndarray, index: SpatialIndex) -> None:
    if custs.shape[0] != index.size:
        raise ValueError(
            "self_exclude requires customers to be the indexed product matrix"
        )


def reverse_skyline_naive(
    product_index: SpatialIndex,
    customers: np.ndarray,
    query: Sequence[float],
    policy: DominancePolicy = DominancePolicy.WEAK,
    self_exclude: bool = False,
    weights: "np.ndarray | None" = None,
) -> np.ndarray:
    """Positions (into ``customers``) of ``RSL(query)`` by direct testing.

    With ``self_exclude`` the customer at position ``j`` is removed from its
    own window result — the monochromatic convention where ``customers`` is
    the same matrix as the indexed products, in the same row order.
    """
    q = as_point(query, dim=product_index.dim)
    custs = as_points(customers, dim=product_index.dim)
    if self_exclude:
        _check_self_exclude(custs, product_index)
    members = [
        j
        for j in range(custs.shape[0])
        if window_is_empty(
            product_index,
            custs[j],
            q,
            policy,
            exclude=(j,) if self_exclude else (),
            weights=weights,
        )
    ]
    return np.asarray(members, dtype=np.int64)


def reverse_skyline_bbrs(
    product_index: SpatialIndex,
    customers: np.ndarray,
    query: Sequence[float],
    policy: DominancePolicy = DominancePolicy.WEAK,
    self_exclude: bool = False,
    weights: "np.ndarray | None" = None,
) -> np.ndarray:
    """Positions of ``RSL(query)`` via global-skyline pruning + verification.

    The pruning is conservative under both dominance policies (see
    :mod:`repro.skyline.global_skyline`), so the output always matches
    :func:`reverse_skyline_naive`; only far fewer window queries run.
    """
    q = as_point(query, dim=product_index.dim)
    custs = as_points(customers, dim=product_index.dim)
    if self_exclude:
        _check_self_exclude(custs, product_index)
    candidates = global_skyline_candidates(
        product_index.points, custs, q, self_exclude=self_exclude,
        weights=weights,
    )
    members = [
        int(j)
        for j in candidates
        if window_is_empty(
            product_index,
            custs[j],
            q,
            policy,
            exclude=(int(j),) if self_exclude else (),
            weights=weights,
        )
    ]
    return np.asarray(members, dtype=np.int64)
