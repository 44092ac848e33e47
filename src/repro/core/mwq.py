"""Algorithm 4 — Modify Query and Why-not Point (MWQ).

The combined method honouring the safe region:

* **Case C1** (Table I): the why-not point's anti-dominance region
  overlaps ``SR(q)``.  Moving ``q`` to the overlap admits ``c_t`` while
  keeping every existing customer; movement inside the safe region costs
  nothing (Eqn. 10), so the answer cost is zero.  The candidate locations
  are the nearest points of the overlap rectangles to ``q``.

* **Case C2**: no overlap.  ``q`` moves as far toward ``c_t`` as the safe
  region permits — to one of its non-dominated corner points (transformed
  w.r.t. ``c_t``) — and the remaining gap is closed by moving ``c_t`` via
  Algorithm 1 against each such corner.  Answers are ranked by the
  Eqn.-11 score of the why-not movement.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.config import WhyNotConfig
from repro.core._staircase import staircase_job, staircase_stages
from repro.core._verify import Pending, combine, flagged_candidates, verify_pending
from repro.core.answer import Candidate, MWQCase, MWQResult
from repro.core.cost import MinMaxNormalizer, cost_weight_vector
from repro.core.safe_region import SafeRegion, anti_dominance_region
from repro.geometry.box import Box
from repro.geometry.point import as_point
from repro.geometry.region import BoxRegion
from repro.index.base import SpatialIndex
from repro.prefs.model import support_dims
from repro.skyline.algorithms import skyline_indices
from repro.skyline.window import lambda_set

__all__ = [
    "disjoint_stage",
    "modify_query_and_why_not_point",
    "mwq_case",
]


def modify_query_and_why_not_point(
    index: SpatialIndex,
    why_not: Sequence[float],
    query: Sequence[float],
    safe_region: SafeRegion,
    bounds: Box,
    config: WhyNotConfig | None = None,
    weights: Sequence[float] | None = None,
    normalizer: MinMaxNormalizer | None = None,
    exclude: Sequence[int] = (),
    ddr_why_not: BoxRegion | None = None,
    pref_weights: "np.ndarray | None" = None,
) -> MWQResult:
    """Run Algorithm 4.

    Parameters
    ----------
    index:
        Spatial index over the product set ``P``.
    why_not, query:
        The customer ``c_t`` and the original query ``q``.
    safe_region:
        ``SR(q)`` from Algorithm 3 (exact) or the approximate store
        (Section VI.B); the algorithm is oblivious to which.
    bounds:
        The data universe (for the anti-dominance region of ``c_t``).
    weights:
        Beta weight vector of Eqn. (11).
    ddr_why_not:
        Pre-computed anti-dominance region of ``c_t`` (recomputed when
        absent).  Must have been built under the same ``pref_weights``.
    exclude:
        Product positions excluded from windows / skylines (monochromatic
        self-exclusion of ``c_t``); at most one.
    pref_weights:
        Preference weights (:mod:`repro.prefs`) shaping every dominance
        test; the ``safe_region`` must have been built under the same
        weights (the engine guarantees that).
    """
    config = config or WhyNotConfig()
    c_t = as_point(why_not, dim=index.dim)
    q = as_point(query, dim=index.dim)
    pw = None if pref_weights is None else np.asarray(pref_weights, dtype=np.float64)
    lam = lambda_set(index, c_t, q, config.policy, exclude, weights=pw)
    if lam.size == 0:
        return MWQResult(
            case=MWQCase.ALREADY_MEMBER,
            why_not=c_t,
            query=q,
            query_candidates=[Candidate(q, cost=0.0, verified=True)],
        )
    stage = mwq_case(
        index, c_t, q, safe_region, bounds, config, exclude, ddr_why_not, pw
    )
    if not isinstance(stage, Pending):
        beta = cost_weight_vector(weights, index.dim)
        jobs = [
            staircase_job(index, "MWP", c_t, corner, config, beta, exclude, pw)
            for corner in stage
        ]
        dims = support_dims(pw, index.dim)
        stage = disjoint_stage(
            c_t, q, stage,
            staircase_stages(jobs, config.sort_dim, dims, normalizer),
        )
    (result,) = verify_pending(index, [stage], config.policy, config.verify, pw)
    return result


def mwq_case(
    index: SpatialIndex,
    c_t: np.ndarray,
    q: np.ndarray,
    safe_region: SafeRegion,
    bounds: Box,
    config: WhyNotConfig,
    exclude: Sequence[int] = (),
    ddr_why_not: BoxRegion | None = None,
    pref_weights: "np.ndarray | None" = None,
) -> "Pending | np.ndarray":
    """Table I's case split for a non-member ``c_t``: the case-C1 stage
    (overlap points awaiting verification) when ``c_t``'s anti-dominance
    region overlaps ``SR(q)``, else the ``(k, d)`` case-C2 corners ``q``
    may move to (each closed by Algorithm 1 in :func:`disjoint_stage`)."""
    if ddr_why_not is None:
        ddr_why_not = anti_dominance_region(
            index, c_t, bounds, sort_dim=config.sort_dim, exclude=exclude,
            weights=pref_weights,
        )
    overlap = safe_region.region.intersect(ddr_why_not)
    if not overlap.is_empty():
        return _case_overlap(c_t, q, overlap, exclude)
    # Case C2: move q to the safe-region corners nearest c_t (steps 7-20).
    corners = safe_region.region.corner_points()
    # The original query always belongs to its safe region; adding it to
    # the candidate set guarantees MWQ never answers worse than MWP even
    # when no box corner improves on q (e.g. a degenerate region).
    corners = (
        np.vstack([corners, q]) if corners.shape[0] else q.reshape(1, -1)
    )
    # Keep only corners non-dominated in the space transformed to c_t:
    # those are the extremal moves of q toward the why-not point.
    transformed = np.abs(corners - c_t)
    return corners[skyline_indices(transformed, weights=pref_weights)]


def _case_overlap(
    c_t: np.ndarray,
    q: np.ndarray,
    overlap: BoxRegion,
    exclude: Sequence[int],
) -> Pending:
    """Case C1: pick the nearest point of each overlap rectangle to ``q``
    (steps 1-6 of Algorithm 4); cost is zero by Eqn. (10).  Each point
    must admit ``c_t`` as a refined query."""
    seen: set[bytes] = set()
    points: list[np.ndarray] = []
    for box in overlap:
        point = box.nearest_point_to(q)
        key = point.tobytes()
        if key not in seen:
            seen.add(key)
            points.append(point)
    matrix = np.array(points)

    def finish(flags: "np.ndarray | None") -> MWQResult:
        candidates = flagged_candidates(matrix, [0.0] * len(points), flags)
        candidates.sort(key=lambda cand: float(np.sum(np.abs(cand.point - q))))
        return MWQResult(
            case=MWQCase.OVERLAP,
            why_not=c_t,
            query=q,
            query_candidates=candidates,
        )

    return Pending.rows(c_t, matrix, exclude, finish)


def disjoint_stage(
    c_t: np.ndarray,
    q: np.ndarray,
    corners: np.ndarray,
    mwps: Sequence[Pending],
) -> Pending:
    """Case C2: pair each corner with its Algorithm-1 stage ``mwps[i]``
    (``c_t`` moved against the corner) and rank the pairs by the Eqn.-11
    cost of the why-not movement."""

    def finish(results: list) -> MWQResult:
        pairs: list[tuple[Candidate, Candidate]] = []
        for corner, mwp in zip(corners, results):
            query_candidate = Candidate(corner, cost=0.0, verified=None)
            for candidate in mwp.candidates:
                pairs.append((query_candidate, candidate))
        pairs.sort(key=lambda p: (np.isnan(p[1].cost), p[1].cost))
        return MWQResult(
            case=MWQCase.DISJOINT,
            why_not=c_t,
            query=q,
            pairs=pairs,
        )

    return combine(list(mwps), finish)
