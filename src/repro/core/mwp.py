"""Algorithm 1 — Modify the Why-Not Point (MWP).

Move the why-not customer ``c_t`` toward the query ``q`` just far enough
that ``q`` enters the dynamic skyline of the moved point ``c_t*``:

1. ``Λ ← window_query(c_t, q)`` — the products blocking membership;
2. keep the frontier ``F``: members of ``Λ`` not dynamically dominated
   w.r.t. ``q`` by another member (the products closest to ``q``);
3. for each frontier the midpoint between it and ``q`` (Eqn. 1) bounds the
   needed movement; the sorted merge of the midpoints (Eqns. 2-3) yields
   the pairwise non-dominated candidate locations.

The construction is carried out in distance space (see
:mod:`repro.core._staircase`), which generalises the paper's lower-left
figures to arbitrary relative positions of ``c_t`` and ``q``.
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

__all__ = ["modify_why_not_point", "mwp_candidate_points", "mwp_stage"]


def mwp_candidate_points(
    index: SpatialIndex,
    c_t: np.ndarray,
    q: np.ndarray,
    config: WhyNotConfig,
    exclude: Sequence[int] = (),
    pref_weights: "np.ndarray | None" = None,
    lam: "np.ndarray | None" = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Raw Algorithm-1 computation over validated float64 points.

    Returns ``(candidates, lambda_positions, frontier_positions)`` where
    ``candidates`` is a ``(k, d)`` matrix of proposed ``c_t*`` locations
    (empty when the point is already a member).  ``lam`` is
    ``Λ(c_t, q)`` when the caller already holds it.

    ``pref_weights`` are the *preference* weights (:mod:`repro.prefs`) —
    distinct from the Eqn.-11 cost weights: they shape which products
    block membership and where the staircase lies, while the candidates
    never move in dropped dimensions (movement there buys nothing).
    """
    dims = support_dims(pref_weights, index.dim)
    if lam is None:
        lam = lambda_set(
            index, c_t, q, config.policy, exclude, weights=pref_weights
        )
    if lam.size == 0:
        return np.empty((0, index.dim)), lam, lam

    # Frontier F: members of Λ whose distance vector from q is minimal —
    # non-dominated w.r.t. the dynamic dominance ≻_q (step 3-5 of Alg. 1).
    lam_points = index.points[lam]
    from_q = np.abs(lam_points - q)
    frontier_local = skyline_indices(from_q, weights=pref_weights)
    frontier = lam[frontier_local]

    # Midpoint thresholds (Eqn. 1 in distance space): c_t* may approach q
    # no closer than half the frontier's distance, per dimension.
    midpoints = from_q[frontier_local] / 2.0
    if config.margin > 0.0:
        midpoints = midpoints * (1.0 - config.margin)
    cap = np.abs(q - c_t)
    vectors = staircase_distance_candidates(
        midpoints, cap, config.sort_dim, dims=dims
    )

    # Back to coordinates: c_t* sits on c_t's side of q at distance v.
    direction = np.sign(c_t - q)
    candidates = q + direction * vectors
    return candidates, lam, frontier


def mwp_stage(
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
    """Algorithm 1 up to verification: the candidates with their Eqn.-11
    costs, and one verification row per candidate (``c_t*`` must be in
    ``RSL(q)``).  Inputs are validated float64 arrays; ``weights`` is the
    resolved cost weight vector."""
    points, lam, frontier = mwp_candidate_points(
        index, c_t, q, config, exclude, pref_weights, lam
    )
    result = ModificationResult(
        method="MWP",
        why_not=c_t,
        query=q,
        lambda_positions=lam,
        frontier_positions=frontier,
    )
    if lam.size == 0:
        result.candidates.append(Candidate(c_t, cost=0.0, verified=True))
        return Pending.done(result, index.dim)
    costs = movement_costs(c_t, points, weights, normalizer)

    def finish(flags: "np.ndarray | None") -> ModificationResult:
        result.candidates.extend(flagged_candidates(points, costs, flags))
        result.candidates.sort(key=lambda c: c.cost)
        return result

    return Pending.rows(points, q, exclude, finish)


def modify_why_not_point(
    index: SpatialIndex,
    why_not: Sequence[float],
    query: Sequence[float],
    config: WhyNotConfig | None = None,
    weights: Sequence[float] | None = None,
    normalizer: MinMaxNormalizer | None = None,
    exclude: Sequence[int] = (),
    pref_weights: "np.ndarray | None" = None,
) -> ModificationResult:
    """Full MWP: candidates with movement costs and verification flags.

    Parameters
    ----------
    index:
        Spatial index over the product set ``P``.
    why_not, query:
        The customer ``c_t`` and query product ``q``.
    config:
        Policy / sort dimension / margin / verification settings.
    weights:
        The beta weight vector of Eqn. (11); equal weights by default.
        The engine composes these with the preference weights
        (``PreferenceModel.cost_weights``) before calling here.
    normalizer:
        Min-max normaliser for cost reporting; raw weighted L1 when absent.
    exclude:
        Product positions excluded from window queries (monochromatic
        self-exclusion); at most one.
    pref_weights:
        Preference weights shaping the dominance tests
        (:mod:`repro.prefs`); ``None`` is the unweighted paper setting.
    """
    config = config or WhyNotConfig()
    c_t = as_point(why_not, dim=index.dim)
    q = as_point(query, dim=index.dim)
    pw = None if pref_weights is None else np.asarray(pref_weights, dtype=np.float64)
    stage = mwp_stage(
        index, c_t, q, config, cost_weight_vector(weights, index.dim),
        normalizer, exclude, pw,
    )
    (result,) = verify_pending(index, [stage], config.policy, config.verify, pw)
    return result
