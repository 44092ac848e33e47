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
from repro.core._staircase import staircase_distance_candidates
from repro.core._verify import Pending, flagged_candidates, verify_pending
from repro.core.answer import Candidate, ModificationResult
from repro.core.cost import MinMaxNormalizer, cost_weight_vector, movement_costs
from repro.geometry.point import as_point
from repro.index.base import SpatialIndex
from repro.prefs.model import support_dims
from repro.skyline.algorithms import skyline_indices
from repro.skyline.window import lambda_set

__all__ = ["modify_query_point", "mqp_candidate_points", "mqp_stage"]


def mqp_candidate_points(
    index: SpatialIndex,
    c_t: np.ndarray,
    q: np.ndarray,
    config: WhyNotConfig,
    exclude: Sequence[int] = (),
    pref_weights: "np.ndarray | None" = None,
    lam: "np.ndarray | None" = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Raw Algorithm-2 computation over validated float64 points.

    Returns ``(candidates, lambda_positions, frontier_positions)``; the
    candidate matrix is empty when ``c_t`` is already a member.  ``lam``
    is ``Λ(c_t, q)`` when the caller already holds it.

    ``pref_weights`` are the preference weights of :mod:`repro.prefs`;
    the refined query keeps its original coordinate in every dropped
    dimension.
    """
    dims = support_dims(pref_weights, index.dim)
    if lam is None:
        lam = lambda_set(
            index, c_t, q, config.policy, exclude, weights=pref_weights
        )
    if lam.size == 0:
        return np.empty((0, index.dim)), lam, lam

    # F = Λ ∩ DSL(c_t): minimal distance vectors from c_t within Λ.
    lam_points = index.points[lam]
    from_ct = np.abs(lam_points - c_t)
    frontier_local = skyline_indices(from_ct, weights=pref_weights)
    frontier = lam[frontier_local]

    thresholds = from_ct[frontier_local]
    if config.margin > 0.0:
        thresholds = thresholds * (1.0 - config.margin)
    cap = np.abs(q - c_t)
    vectors = staircase_distance_candidates(
        thresholds, cap, config.sort_dim, dims=dims
    )

    # q* sits on q's side of c_t at distance w; where q ties c_t the
    # coordinate collapses onto both.
    direction = np.sign(q - c_t)
    candidates = c_t + direction * vectors
    return candidates, lam, frontier


def mqp_stage(
    index: SpatialIndex,
    c_t: np.ndarray,
    q: np.ndarray,
    config: WhyNotConfig,
    weights: np.ndarray,
    normalizer: MinMaxNormalizer | None,
    exclude: Sequence[int] = (),
    pref_weights: "np.ndarray | None" = None,
    lam: "np.ndarray | None" = None,
) -> Pending:
    """Algorithm 2 up to verification: the refined queries with their
    Eqn.-9 movement costs, and one verification row per candidate
    (``q*`` must enter ``DSL(c_t)``: the window of ``(c_t, q*)`` must be
    empty).  Inputs are validated float64 arrays."""
    points, lam, frontier = mqp_candidate_points(
        index, c_t, q, config, exclude, pref_weights, lam
    )
    result = ModificationResult(
        method="MQP",
        why_not=c_t,
        query=q,
        lambda_positions=lam,
        frontier_positions=frontier,
    )
    if lam.size == 0:
        result.candidates.append(Candidate(q, cost=0.0, verified=True))
        return Pending.done(result, index.dim)
    costs = movement_costs(q, points, weights, normalizer)

    def finish(flags: "np.ndarray | None") -> ModificationResult:
        result.candidates.extend(flagged_candidates(points, costs, flags))
        result.candidates.sort(key=lambda c: c.cost)
        return result

    return Pending.rows(c_t, points, exclude, finish)


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
    preference weights shaping dominance (:mod:`repro.prefs`).
    """
    config = config or WhyNotConfig()
    c_t = as_point(why_not, dim=index.dim)
    q = as_point(query, dim=index.dim)
    pw = None if pref_weights is None else np.asarray(pref_weights, dtype=np.float64)
    stage = mqp_stage(
        index, c_t, q, config, cost_weight_vector(weights, index.dim),
        normalizer, exclude, pw,
    )
    (result,) = verify_pending(index, [stage], config.policy, config.verify, pw)
    return result
