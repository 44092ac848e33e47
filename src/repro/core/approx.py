"""Approximate safe regions from pre-computed sampled dynamic skylines
(Section VI.B.1).

Computing ``DSL(c)`` per reverse-skyline point dominates MWQ's runtime
(Fig. 15), so the paper pre-computes, offline and per customer, an
*approximated* DSL: the skyline points sorted along one dimension, keeping
every ``(|DSL|/k)``-th element plus always the first and the last.  The
anti-dominance region rebuilt from the sample uses one box per sampled
point — *without* the pairwise staircase merge — plus the two boundary
slabs, and therefore under-approximates the true region (the shaded miss
of Fig. 16).  An under-approximation keeps Lemma 2 intact: a safe region
built from it never loses a customer; it can only make MWQ's answer more
conservative (Tables V-VI).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.config import WhyNotConfig
from repro.exceptions import InvalidParameterError
from repro.geometry.box import Box
from repro.geometry.point import as_point
from repro.geometry.region import BoxRegion
from repro.geometry.transform import to_query_space
from repro.index.base import SpatialIndex
from repro.prefs.model import support_dims
from repro.skyline.dynamic import dynamic_skyline_indices

from repro.core.safe_region import SafeRegion, _reach

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.dsl_cache import DSLCache

__all__ = [
    "ApproximateDSLStore",
    "approximate_anti_dominance_region",
    "sample_dsl_thresholds",
]


def sample_dsl_thresholds(
    thresholds: np.ndarray, k: int, sort_dim: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sample ``thresholds`` (the full DSL distance matrix) as the paper
    prescribes and return ``(sampled, per_dim_minima)``.

    Every ``ceil(m/k)``-th point of the sort order is kept, and the first
    and last points are always included so the boundary slabs stay exact.
    ``per_dim_minima`` are the exact column minima of the *full* matrix;
    in 2-D they coincide with the stored first/last points and they keep
    the slab construction safe in higher dimensions.
    """
    if k <= 0:
        raise InvalidParameterError("approximation parameter k must be positive")
    m = thresholds.shape[0]
    if m == 0:
        return thresholds, np.empty(0)
    order = np.argsort(thresholds[:, sort_dim], kind="stable")
    step = max(1, m // k)
    picks = set(range(0, m, step))
    picks.add(0)
    picks.add(m - 1)
    sampled = thresholds[order[sorted(picks)]]
    return sampled, thresholds.min(axis=0)


def approximate_anti_dominance_region(
    origin: np.ndarray,
    sampled_thresholds: np.ndarray,
    per_dim_minima: np.ndarray,
    bounds: Box,
    dims: np.ndarray | None = None,
) -> BoxRegion:
    """Anti-dominance region from a sampled DSL: one box per sampled
    point (no staircase merge) plus one slab per dimension at the exact
    column minimum.  Every box provably lies inside the true region.

    With ``dims`` (a preference support from :mod:`repro.prefs`) the
    per-point boxes span the full data extent on the dropped dimensions
    — dominance places no constraint there — and the boundary slabs are
    emitted only for support dimensions: a slab below the minimum of a
    dropped dimension's thresholds buys nothing and would overclaim.
    """
    dim = origin.size
    if sampled_thresholds.shape[0] == 0:
        return BoxRegion([Box(bounds.lo.copy(), bounds.hi.copy())], dim=dim)
    reach = _reach(origin, bounds)
    entries: list[np.ndarray] = []
    if dims is None:
        entries.extend(sampled_thresholds)
        for d in range(dim):
            slab = reach.copy()
            slab[d] = per_dim_minima[d]
            entries.append(slab)
    else:
        sel = np.asarray(dims, dtype=np.int64)
        for row in sampled_thresholds:
            extent = reach.copy()
            extent[sel] = row[sel]
            entries.append(extent)
        for d in sel:
            slab = reach.copy()
            slab[d] = per_dim_minima[d]
            entries.append(slab)
    boxes: list[Box] = []
    for extent in entries:
        box = Box.from_center(origin, extent).clip_to(bounds)
        if box is not None:
            boxes.append(box)
    return BoxRegion(boxes, dim=dim).simplify()


@dataclass
class _StoredDSL:
    sampled: np.ndarray
    minima: np.ndarray


class ApproximateDSLStore:
    """Per-customer cache of sampled dynamic skylines.

    The paper computes these offline for every customer; this store is
    lazy by default (entries materialise on first use) with
    :meth:`precompute` available to model the offline pass.
    """

    def __init__(
        self,
        index: SpatialIndex,
        customers: np.ndarray,
        k: int = 10,
        config: WhyNotConfig | None = None,
        self_exclude: bool = False,
        dsl_cache: "DSLCache | None" = None,
        weights: np.ndarray | None = None,
    ) -> None:
        if k <= 0:
            raise InvalidParameterError("approximation parameter k must be positive")
        self.index = index
        self.customers = np.asarray(customers, dtype=np.float64)
        self.k = k
        self.config = config or WhyNotConfig()
        self.self_exclude = self_exclude
        # Preference weights (repro.prefs): full-support weights leave the
        # dynamic skylines — and everything sampled from them — identical
        # to the unweighted store; partial support projects dominance onto
        # the support dimensions and must bypass the (full-dimensional)
        # shared DSL cache.
        self.weights = (
            None if weights is None else np.asarray(weights, dtype=np.float64)
        )
        self._dims = support_dims(self.weights, index.dim)
        if self._dims is not None:
            dsl_cache = None
        # Optional engine-level DSL cache: the full threshold matrix each
        # sample is drawn from is then computed at most once per customer
        # across the exact and approximate pipelines.
        self.dsl_cache = dsl_cache
        self._cache: dict[int, _StoredDSL] = {}

    def __len__(self) -> int:
        return len(self._cache)

    def precompute(self, positions: Sequence[int] | None = None) -> None:
        """Materialise entries for ``positions`` (all customers when None).

        This is the paper's offline pass; each entry is stored once it is
        complete, so concurrent readers never observe a half-written one.
        """
        targets = [
            int(position)
            for position in (
                range(self.customers.shape[0]) if positions is None else positions
            )
            if int(position) not in self._cache
        ]
        for position in targets:
            self._cache[position] = self._compute(position)

    def _compute(self, position: int) -> _StoredDSL:
        """Build the sampled DSL of customer ``position`` (no store I/O;
        the shared DSL cache, when present, supplies the full matrix)."""
        if self.dsl_cache is not None:
            thresholds = self.dsl_cache.thresholds(position)
        else:
            customer = self.customers[position]
            exclude = (position,) if self.self_exclude else ()
            dsl = dynamic_skyline_indices(
                self.index.points, customer, exclude, weights=self.weights
            )
            thresholds = (
                to_query_space(self.index.points[dsl], customer)
                if dsl.size
                else np.empty((0, self.index.dim))
            )
        sampled, minima = sample_dsl_thresholds(
            thresholds, self.k, self.config.sort_dim
        )
        return _StoredDSL(sampled=sampled, minima=minima)

    def entry(self, position: int) -> _StoredDSL:
        """The sampled DSL of customer ``position`` (computed on demand)."""
        cached = self._cache.get(position)
        if cached is not None:
            return cached
        stored = self._compute(position)
        self._cache[position] = stored
        return stored

    def region(self, position: int, bounds: Box) -> BoxRegion:
        """Approximate anti-dominance region of customer ``position``."""
        stored = self.entry(position)
        return approximate_anti_dominance_region(
            self.customers[position],
            stored.sampled,
            stored.minima,
            bounds,
            dims=self._dims,
        )

    def safe_region(
        self,
        query: Sequence[float],
        rsl_positions: np.ndarray,
        bounds: Box,
    ) -> SafeRegion:
        """Approximate ``SR(query)`` from the stored samples.

        Mirrors Algorithm 3 with the sampled regions; the result is a
        subset of the exact safe region and always contains the query.
        """
        q = as_point(query, dim=self.index.dim)
        region = BoxRegion(
            [Box(bounds.lo.copy(), bounds.hi.copy())], dim=self.index.dim
        )
        for position in np.asarray(rsl_positions, dtype=np.int64):
            region = region.intersect(self.region(int(position), bounds))
            if region.is_empty():
                break
        if not region.contains_point(q):
            region = region.union(BoxRegion([Box(q, q)], dim=self.index.dim))
        return SafeRegion(
            query=q,
            region=region,
            rsl_positions=np.asarray(rsl_positions, dtype=np.int64),
            approximate=True,
        )
