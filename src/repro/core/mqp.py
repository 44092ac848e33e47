"""Algorithm 2 — Modify the Query Point (MQP).

Move the query product ``q`` toward the why-not customer ``c_t`` until it
enters the customer's dynamic skyline:

1. ``Λ ← window_query(c_t, q)``;
2. ``F ← Λ ∩ DSL(c_t)``: members not dynamically dominated w.r.t. ``c_t``
   by another member (computable without the full ``DSL(c_t)``, steps 3-5);
3. the refined query must reach the dynamic-skyline staircase of ``c_t``:
   its distance vector ``|c_t - q*|`` has to drop to a frontier's distance
   in at least one dimension.  The sorted merge of the frontier distance
   vectors (Eqns. 5-6) yields the non-dominated candidate locations.

Unlike Algorithm 1, the candidates here align the query with frontier
*coordinates* (mirrored to the query's side of the customer when a
frontier lies on the opposite side).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.config import WhyNotConfig
from repro.core._staircase import modification
from repro.core.answer import ModificationResult
from repro.core.cost import MinMaxNormalizer, cost_weight_vector
from repro.geometry.point import as_point
from repro.index.base import SpatialIndex

__all__ = ["modify_query_point"]


def modify_query_point(
    index: SpatialIndex,
    why_not: Sequence[float],
    query: Sequence[float],
    config: WhyNotConfig | None = None,
    weights: Sequence[float] | None = None,
    normalizer: MinMaxNormalizer | None = None,
    exclude: Sequence[int] = (),
    pref_weights: "np.ndarray | None" = None,
) -> ModificationResult:
    """Full MQP: refined query locations with costs and verification.

    Costs reported here are the plain movement ``alpha . |q - q*|`` of
    Eqn. (9); the lost-customer penalty of Section VI.A is a property of a
    whole experiment (it needs ``RSL(q)`` and ``SR(q)``) and lives in
    :meth:`repro.core.engine.WhyNotEngine.mqp_total_cost`.

    ``weights`` are the Eqn.-9 cost weights; ``pref_weights`` the
    preference weights shaping dominance (:mod:`repro.prefs`).  The
    refined query keeps its original coordinate in every dimension they
    drop.
    """
    config = config or WhyNotConfig()
    pw = None if pref_weights is None else np.asarray(pref_weights, dtype=np.float64)
    return modification(
        index, "MQP", as_point(why_not, dim=index.dim),
        as_point(query, dim=index.dim), config,
        cost_weight_vector(weights, index.dim), normalizer, exclude, pw,
    )
