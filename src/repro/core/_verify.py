"""Tolerance-aware verification of modification answers.

Algorithms 1, 2 and 4 place their answers exactly on window boundaries,
where the strict window test is one floating-point rounding away from
flipping.  Verification therefore re-implements the window membership test
with a small relative tolerance: a product only disqualifies the answer
when it is *clearly* inside the forbidden zone.  The tolerance affects the
returned flags only — never the algorithms' outputs.

The algorithms' candidate stages do not verify one candidate at a time:
each returns a :class:`Pending` holding its ``(center, query)`` rows, and
:func:`verify_pending` resolves any number of them — one question's
candidates or a whole batch's — with one
:func:`repro.kernels.membership.batch_verify_membership` pass.
:func:`verify_membership` is the scalar per-candidate reference the
kernel is property-tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.config import DominancePolicy
from repro.core.answer import Candidate
from repro.exceptions import InvalidParameterError
from repro.geometry.box import Box
from repro.geometry.point import as_point
from repro.index.base import SpatialIndex
from repro.kernels.membership import KernelCounters, batch_verify_membership
from repro.prefs.model import support_dims

__all__ = [
    "Pending",
    "VERIFY_RTOL",
    "combine",
    "flagged_candidates",
    "verify_membership",
    "verify_pending",
]

VERIFY_RTOL = 1e-12


@dataclass(frozen=True)
class Pending:
    """A candidate stage's result, waiting for its verification flags.

    Row ``i`` asks whether ``centers[i]`` is in ``RSL(queries[i])`` with
    product ``self_positions[i]`` (``-1``: none) left out of the window;
    ``finish`` turns the rows' flags — ``None`` when verification is off
    — into the algorithm's result.
    """

    centers: np.ndarray
    queries: np.ndarray
    self_positions: np.ndarray
    finish: Callable[["np.ndarray | None"], Any]

    @classmethod
    def rows(
        cls,
        centers: np.ndarray,
        queries: np.ndarray,
        exclude: Sequence[int],
        finish: Callable[["np.ndarray | None"], Any],
    ) -> "Pending":
        """Rows pairing ``centers`` with ``queries``; either may be one
        point shared by every row.  ``exclude`` is the stage's
        self-exclusion: at most the why-not customer's own product."""
        centers, queries = np.broadcast_arrays(centers, queries)
        excluded = tuple(exclude)
        if len(excluded) > 1:
            raise InvalidParameterError(
                "candidate verification excludes at most one product, "
                f"got {len(excluded)}"
            )
        position = int(excluded[0]) if excluded else -1
        return cls(
            centers,
            queries,
            np.full(centers.shape[0], position, dtype=np.int64),
            finish,
        )

    @classmethod
    def done(cls, result: Any, dim: int) -> "Pending":
        """A stage with nothing to verify."""
        empty = np.empty((0, dim))
        return cls.rows(empty, empty, (), lambda flags: result)


def combine(pendings: Sequence[Pending], finish: Callable[[list], Any]) -> Pending:
    """One stage holding every row of ``pendings``; its ``finish`` hands
    each stage its own flags and passes their results, in order, to
    ``finish``."""
    sizes = [p.centers.shape[0] for p in pendings]
    cuts = np.cumsum(sizes)[:-1]

    def finish_all(flags: "np.ndarray | None") -> Any:
        parts = [None] * len(pendings) if flags is None else np.split(flags, cuts)
        return finish([p.finish(f) for p, f in zip(pendings, parts)])

    return Pending(
        np.concatenate([p.centers for p in pendings]),
        np.concatenate([p.queries for p in pendings]),
        np.concatenate([p.self_positions for p in pendings]),
        finish_all,
    )


def verify_pending(
    index: SpatialIndex,
    pendings: Sequence[Pending],
    policy: DominancePolicy,
    verify: bool = True,
    weights: "np.ndarray | None" = None,
    counters: KernelCounters | None = None,
) -> list:
    """Finish every stage in ``pendings``, in order, after verifying all
    their rows in one kernel pass.

    Each row's flag equals ``verify_membership(index, center, query,
    policy, exclude, weights=weights)``.  ``verify=False`` skips the
    pass and finishes every stage with ``None`` flags.  ``weights`` are
    the preference weights; their support restricts the test exactly as
    in :func:`verify_membership`.
    """
    if not pendings:
        return []
    batch = combine(pendings, list)
    if not verify:
        return batch.finish(None)
    if batch.centers.shape[0] == 0:
        return batch.finish(np.zeros(0, dtype=bool))
    flags = batch_verify_membership(
        index.points,
        batch.centers,
        batch.queries,
        policy,
        self_positions=batch.self_positions,
        counters=counters,
        dims=support_dims(weights, index.dim),
    )
    return batch.finish(flags)


def flagged_candidates(
    points: np.ndarray, costs: Sequence[float], flags: "np.ndarray | None"
) -> list[Candidate]:
    """One :class:`Candidate` per row of ``points``; ``flags`` ``None``
    leaves them unverified."""
    if flags is None:
        return [Candidate(p, cost=c, verified=None) for p, c in zip(points, costs)]
    return [
        Candidate(p, cost=c, verified=f)
        for p, c, f in zip(points, costs, flags.tolist())
    ]


def verify_membership(
    index: SpatialIndex,
    center: Sequence[float],
    query: Sequence[float],
    policy: DominancePolicy = DominancePolicy.STRICT,
    exclude: Sequence[int] = (),
    rtol: float = VERIFY_RTOL,
    weights: "np.ndarray | None" = None,
) -> bool:
    """True when ``center`` is in ``RSL(query)`` up to rounding tolerance.

    Under ``STRICT`` a product must be closer than the query by more than
    the slack in *every* dimension to count as a blocker; under ``WEAK`` it
    must be within slack of the closed window everywhere and clearly closer
    somewhere.  The slack scales with the coordinate magnitude — the size
    of floating-point rounding in the distance arithmetic — so it forgives
    1-ulp boundary flips without swallowing deliberate margins.

    ``weights`` restricts the test to the preference support
    (:mod:`repro.prefs`); dropped dimensions make the window box
    unbounded, so the partial-support path scans the support columns
    directly instead of querying the index.
    """
    c = as_point(center, dim=index.dim)
    q = as_point(query, dim=index.dim)
    dims = support_dims(
        None if weights is None else np.asarray(weights, dtype=np.float64),
        index.dim,
    )
    if dims is not None:
        cs, qs = c[dims], q[dims]
        radii = np.abs(cs - qs)
        scale = max(1.0, float(np.max(np.abs(cs))), float(np.max(np.abs(qs))))
        slack = rtol * scale
        dists = np.abs(index.points[:, dims] - cs)
        if policy is DominancePolicy.STRICT:
            blocking = np.all(dists < radii - slack, axis=1)
        else:
            blocking = np.all(dists <= radii + slack, axis=1) & np.any(
                dists < radii - slack, axis=1
            )
        excluded = np.asarray(tuple(exclude), dtype=np.int64)
        if excluded.size:
            blocking[excluded] = False
        return not bool(blocking.any())
    radii = np.abs(c - q)
    scale = max(1.0, float(np.max(np.abs(c))), float(np.max(np.abs(q))))
    slack = rtol * scale
    hits = index.range_indices(Box(c - radii - slack, c + radii + slack))
    excluded = np.asarray(tuple(exclude), dtype=np.int64)
    if excluded.size:
        hits = hits[~np.isin(hits, excluded)]
    if hits.size == 0:
        return True
    dists = np.abs(index.points[hits] - c)
    if policy is DominancePolicy.STRICT:
        blocking = np.all(dists < radii - slack, axis=1)
    else:
        blocking = np.all(dists <= radii + slack, axis=1) & np.any(
            dists < radii - slack, axis=1
        )
    return not bool(blocking.any())
