"""The sorted-merge ("staircase") candidate construction shared by
Algorithms 1 and 2.

Both algorithms reduce to the same scheme once movement is expressed in
per-dimension *distance space*:

* MWP (Algorithm 1): the moved point ``c_t*`` must satisfy, for every
  frontier product ``e``, ``∃ dim d: |c_t* - q|_d <= |q - e|_d / 2`` —
  i.e. the distance vector ``v = |c_t* - q|`` must stay below the midpoint
  vector ``V_e = |q - e| / 2`` in at least one dimension.  Minimising the
  movement ``|c_t - c_t*|`` means maximising ``v`` component-wise.

* MQP (Algorithm 2): the moved query ``q*`` must satisfy, for every
  frontier ``f`` of ``Λ ∩ DSL(c_t)``, ``∃ d: |c_t - q*|_d <= |c_t - f|_d``
  — the distance vector ``w = |c_t - q*|`` must stay below ``T_f =
  |c_t - f|`` somewhere.  Minimising ``|q - q*|`` again means maximising
  ``w`` component-wise (``w`` is capped by ``|c_t - q|``).

Because the frontier vectors form an antichain, the maximal feasible
vectors in 2-D are exactly: the per-dimension maxima of adjacent pairs in
the sort order (the paper's Eqns. 2/5 read in distance space), plus the
two clipped end entries (Eqns. 3/6).  For ``d > 2`` the same construction
yields valid but possibly non-exhaustive candidates; the always-feasible
component-wise *minimum* over all frontiers is appended as a fallback so a
verified answer always exists.

:func:`segmented_staircase` solves any number of such problems (groups)
in one pass of array operations; :func:`staircase_distance_candidates`
is its one-group call.  On top of it, a :class:`StaircaseJob` is one
Algorithm-1 or Algorithm-2 stage up to its staircase, and
:func:`staircase_stages` finishes any number of jobs — one question's or
a whole batch's — with one segmented staircase and one cost pass;
:func:`modification` runs one job end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.config import WhyNotConfig
from repro.core._verify import Pending, flagged_candidates, verify_pending
from repro.core.answer import Candidate, ModificationResult
from repro.core.cost import MinMaxNormalizer, movement_costs
from repro.index.base import SpatialIndex
from repro.prefs.model import support_dims
from repro.skyline.algorithms import skyline_indices
from repro.skyline.window import lambda_set

__all__ = [
    "StaircaseJob",
    "modification",
    "segmented_staircase",
    "staircase_distance_candidates",
    "staircase_job",
    "staircase_stages",
]


def segmented_staircase(
    vectors: np.ndarray,
    offsets: np.ndarray,
    caps: np.ndarray,
    sort_dim: int,
    dims: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Maximal feasible distance vectors of many staircase problems.

    Parameters
    ----------
    vectors:
        ``(M, d)`` threshold vectors of every group stacked (``V`` for
        MWP, ``T`` for MQP); group ``g`` holds rows
        ``offsets[g]:offsets[g + 1]``, at least one, assumed pairwise
        non-dominated (an antichain).
    offsets:
        ``(G + 1,)`` group row offsets.
    caps:
        ``(G, d)`` component-wise upper bound of each group's vectors
        (``|q - c_t|``: neither point may move past the other).
    sort_dim:
        The paper's arbitrary sort dimension *i*.
    dims:
        Optional preference-support column positions (:mod:`repro.prefs`).
        The covering problem is solved in the support subspace; in the
        dropped dimensions every candidate keeps the cap value — the
        point does not move there (movement off the support buys nothing
        and costs distance).  ``sort_dim`` is remapped to its support
        position, or to the first support dimension when it was dropped.

    Returns
    -------
    ``(candidates, out_offsets)``: group ``g``'s candidate distance
    vectors are ``candidates[out_offsets[g]:out_offsets[g + 1]]``,
    deduplicated and in ascending row order (as ``np.unique(axis=0)``).
    Each row ``v`` satisfies: for every frontier row ``V_l`` of its group
    there is a dimension ``d`` with ``v[d] <= V_l[d]`` (exactly for 2-D;
    for higher dimensions the appended fallback row guarantees at least
    one feasible candidate).
    """
    caps = np.asarray(caps, dtype=np.float64)
    offsets = np.asarray(offsets, dtype=np.int64)
    vec = np.asarray(vectors, dtype=np.float64)
    cap, sd = caps, sort_dim
    if dims is not None:
        sel = np.asarray(dims, dtype=np.int64)
        where = np.flatnonzero(sel == sort_dim)
        vec, cap, sd = vec[:, sel], caps[:, sel], int(where[0]) if where.size else 0
    groups, dim = cap.shape
    if not 0 <= sd < dim:
        raise ValueError(f"sort_dim {sd} out of range for dim {dim}")
    group = np.repeat(np.arange(groups), np.diff(offsets))
    capped = np.minimum(vec, cap[group])

    # Per group, sort by the threshold in the sort dimension, descending:
    # the first entry is the frontier most permissive along dim i (the
    # paper's coordinate-ascending order in its canonical orientation).
    ordered = capped[np.lexsort((-capped[:, sd], group))]
    starts, ends = offsets[:-1], offsets[1:] - 1

    # First entry, clipped along the sort dimension (Eqn. 3 first / Eqn. 6
    # z_1): the sort-dim distance is released to the cap (the point keeps
    # its original coordinate there) and coverage of *all* frontiers comes
    # from the remaining dimensions of the first entry, which carries the
    # smallest thresholds there.
    first = ordered[starts]
    first[:, sd] = cap[:, sd]

    # Adjacent pair merges (Eqns. 2/5): component-wise maximum in distance
    # space; the pair's two members are covered at their tie dimensions and
    # the sort order covers everyone else in 2-D.
    same = group[1:] == group[:-1]
    pairs = np.maximum(ordered[:-1], ordered[1:])[same]

    # Last entry, clipped along every non-sort dimension (Eqn. 3 last /
    # Eqn. 6 z_|M|): coverage of all frontiers comes from the sort
    # dimension, where the last entry carries the smallest threshold.
    last = cap.copy()
    last[:, sd] = ordered[ends, sd]

    everyone = np.arange(groups)
    parts, owners = [first, pairs, last], [everyone, group[1:][same], everyone]
    if dim > 2:
        # Unconditionally feasible fallback: below every frontier in every
        # dimension.
        parts.append(np.minimum.reduceat(capped, starts, axis=0))
        owners.append(everyone)
    owner = np.concatenate(owners)
    out = np.minimum(np.concatenate(parts), cap[owner])
    if dims is not None:
        full = caps[owner]
        full[:, sel] = out
        out = full

    # Per-group dedupe in np.unique(axis=0) order: group, then columns
    # left to right.
    order = np.lexsort((*out.T[::-1], owner))
    out, owner = out[order], owner[order]
    keep = np.ones(owner.size, dtype=bool)
    keep[1:] = (owner[1:] != owner[:-1]) | (out[1:] != out[:-1]).any(axis=1)
    out_offsets = np.zeros(groups + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner[keep], minlength=groups), out=out_offsets[1:])
    return out[keep], out_offsets


def staircase_distance_candidates(
    frontier_vectors: np.ndarray,
    cap: np.ndarray,
    sort_dim: int,
    dims: np.ndarray | None = None,
) -> np.ndarray:
    """Maximal feasible distance vectors for one staircase covering
    problem: :func:`segmented_staircase` with a single group.

    ``frontier_vectors`` is the ``(m, d)`` antichain of thresholds and
    ``cap`` the ``(d,)`` bound; returns the ``(k, d)`` deduplicated
    candidate matrix."""
    vectors = np.asarray(frontier_vectors, dtype=np.float64)
    out, _ = segmented_staircase(
        vectors, [0, vectors.shape[0]], np.asarray(cap)[None], sort_dim, dims
    )
    return out


@dataclass
class StaircaseJob:
    """One Algorithm-1 (``"MWP"``) or Algorithm-2 (``"MQP"``) stage up to
    its staircase: ``Λ(c_t, q)``, its frontier and the frontier's
    threshold vectors (``None`` when ``Λ`` is empty).  MWP moves the
    customer ``c_t`` toward the base point ``q``; MQP moves ``q`` toward
    ``c_t``."""

    method: str
    c_t: np.ndarray
    q: np.ndarray
    lam: np.ndarray
    weights: np.ndarray
    exclude: Sequence[int]
    frontier: "np.ndarray | None" = None
    thresholds: "np.ndarray | None" = None

    @property
    def moves_customer(self) -> bool:
        return self.method == "MWP"


def staircase_job(
    index: SpatialIndex,
    method: str,
    c_t: np.ndarray,
    q: np.ndarray,
    config: WhyNotConfig,
    weights: np.ndarray,
    exclude: Sequence[int] = (),
    pref_weights: "np.ndarray | None" = None,
    lam: "np.ndarray | None" = None,
) -> StaircaseJob:
    """Steps 1-5 of Algorithm 1 (``method="MWP"``) or 2 (``"MQP"``).

    ``lam`` is ``Λ(c_t, q)`` when the caller already holds it.  The
    frontier is the skyline of ``Λ`` in the space centred at the point
    that stays (``q`` for MWP, ``c_t`` for MQP); MWP's thresholds are the
    midpoints (Eqn. 1), MQP's the frontier distances.  ``weights`` are
    the Eqn.-9/11 cost weights, ``pref_weights`` the preference weights
    shaping dominance (:mod:`repro.prefs`).
    """
    if lam is None:
        lam = lambda_set(index, c_t, q, config.policy, exclude, weights=pref_weights)
    job = StaircaseJob(method, c_t, q, lam, weights, exclude, frontier=lam)
    if lam.size == 0:
        return job
    dist = np.abs(index.points[lam] - (q if job.moves_customer else c_t))
    local = skyline_indices(dist, weights=pref_weights)
    job.frontier = lam[local]
    job.thresholds = dist[local] / 2.0 if job.moves_customer else dist[local]
    if config.margin > 0.0:
        job.thresholds = job.thresholds * (1.0 - config.margin)
    return job


def staircase_stages(
    jobs: Sequence[StaircaseJob],
    sort_dim: int,
    dims: np.ndarray | None,
    normalizer: MinMaxNormalizer | None,
) -> list[Pending]:
    """One :class:`Pending` per job, in order: every job's candidates
    from one :func:`segmented_staircase`, their Eqn.-9/11 costs from one
    :func:`movement_costs` pass.

    MWP candidates sit on ``c_t``'s side of ``q`` and verify as moved
    customers of ``q``; MQP candidates sit on ``q``'s side of ``c_t`` and
    verify as refined queries of ``c_t``.  A job with an empty ``Λ`` has
    nothing to verify: its one candidate is the unmoved point at zero
    cost.
    """
    live = [job for job in jobs if job.thresholds is not None]
    # (base, moving) per job: candidates sit on the moving point's side
    # of the base point, and their cost is measured from the moving one.
    ends = [
        (job.q, job.c_t) if job.moves_customer else (job.c_t, job.q)
        for job in live
    ]
    if live:
        vectors, offsets = segmented_staircase(
            np.concatenate([job.thresholds for job in live]),
            np.cumsum([0] + [job.thresholds.shape[0] for job in live]),
            np.array([np.abs(job.q - job.c_t) for job in live]),
            sort_dim,
            dims,
        )
        sizes = np.diff(offsets)

        def per_row(values: list) -> np.ndarray:
            return np.repeat(np.array(values), sizes, axis=0)

        points = per_row([b for b, _ in ends]) + per_row(
            [np.sign(m - b) for b, m in ends]
        ) * vectors
        costs = movement_costs(
            per_row([m for _, m in ends]),
            points,
            per_row([job.weights for job in live]),
            normalizer,
        )
    pendings, k = [], 0
    for job in jobs:
        result = ModificationResult(
            method=job.method,
            why_not=job.c_t,
            query=job.q,
            lambda_positions=job.lam,
            frontier_positions=job.frontier,
        )
        if job.thresholds is None:
            moving = job.c_t if job.moves_customer else job.q
            result.candidates.append(Candidate(moving, cost=0.0, verified=True))
            pendings.append(Pending.done(result, job.c_t.size))
            continue
        lo, hi = offsets[k], offsets[k + 1]
        rows, cs = points[lo:hi], costs[lo:hi]
        k += 1

        def finish(flags, result=result, rows=rows, cs=cs):
            result.candidates.extend(flagged_candidates(rows, cs, flags))
            result.candidates.sort(key=lambda c: c.cost)
            return result

        pendings.append(
            Pending.rows(rows, job.q, job.exclude, finish)
            if job.moves_customer
            else Pending.rows(job.c_t, rows, job.exclude, finish)
        )
    return pendings


def modification(
    index: SpatialIndex,
    method: str,
    c_t: np.ndarray,
    q: np.ndarray,
    config: WhyNotConfig,
    weights: np.ndarray,
    normalizer: MinMaxNormalizer | None,
    exclude: Sequence[int] = (),
    pref_weights: "np.ndarray | None" = None,
) -> ModificationResult:
    """Algorithm 1 or 2 end to end for one question: its job, its
    one-group staircase and the verification of its candidates."""
    job = staircase_job(
        index, method, c_t, q, config, weights, exclude, pref_weights
    )
    dims = support_dims(pref_weights, index.dim)
    stages = staircase_stages([job], config.sort_dim, dims, normalizer)
    (result,) = verify_pending(
        index, stages, config.policy, config.verify, pref_weights
    )
    return result
