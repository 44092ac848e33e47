"""Engine-level cache of per-customer dynamic-skyline structures.

Profiling the MWQ pipeline (Fig. 15 of the paper) shows the dominant cost
is recomputing, for every ``compute_safe_region`` / ``modify_both`` call,
each member's dynamic skyline ``DSL(c)`` and its staircase decomposition —
structures that depend only on the customer and the product set, never on
the query.  Influence-set systems make the same observation (Arvanitis &
Deligiannakis; Islam et al.) and cache them per customer.

:class:`DSLCache` stores two layers, both keyed by customer position:

* the **threshold matrix** ``|c - s|`` over ``DSL(c)`` (bounds-independent);
* the simplified **staircase region** built from it (keyed additionally by
  the clipping bounds, which differ only for queries outside the data
  universe).

Entries are reused across ``safe_region``, ``modify_both``,
``answer_why_not_batch``, the approximate-DSL store and the leave-one-out
relaxation analysis.  The cache is *read-through*: results are identical
with or without it.  It must be invalidated (or simply not shared) when
the product set changes: every engine mutation flushes it, and
``WhyNotEngine.without_products`` builds the reduced engine with a fresh
cache.  Customer rows are read through a store, so a flushed cache
always recomputes from the live customer matrix.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.config import WhyNotConfig
from repro.core.safe_region import staircase_arrays
from repro.obs.stats import CounterBackedStats
from repro.geometry.box import Box
from repro.geometry.region import BoxRegion
from repro.geometry.transform import to_query_space
from repro.index.base import SpatialIndex
from repro.skyline.dynamic import dynamic_skyline_indices
from repro.store.base import CustomerStore, VersionedStore

__all__ = ["DSLCache", "DSLCacheStats"]


class DSLCacheStats(CounterBackedStats):
    """Hit/miss counters of one :class:`DSLCache`.

    Every counter is lifetime-monotonic, like every other obs counter:
    :meth:`DSLCache.invalidate` drops entries but never resets a count,
    and ``invalidations`` counts the flushes.
    """

    _INT_FIELDS = (
        "threshold_hits",
        "threshold_misses",
        "region_hits",
        "region_misses",
        "invalidations",
    )

    @property
    def hits(self) -> int:
        return self.threshold_hits + self.region_hits

    @property
    def misses(self) -> int:
        return self.threshold_misses + self.region_misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when untouched)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def hit_miss(self) -> tuple[int, int]:
        """``(hits, misses)`` read straight off the counters — one call
        instead of four property round-trips, for the safe-region hot
        path that snapshots the ledger around every construction."""
        c = self._counters
        return (
            c["threshold_hits"].value + c["region_hits"].value,
            c["threshold_misses"].value + c["region_misses"].value,
        )


class DSLCache:
    """Per-customer dynamic-skyline threshold and staircase-region cache.

    Parameters
    ----------
    index:
        Spatial index over the products ``P`` (the cache is only valid
        for this exact product set).
    customers:
        The customer store whose live matrix the positions refer to
        (the engine passes its own, so a flushed cache recomputes from
        the post-mutation rows), or a fixed ``(m, d)`` matrix.
    config:
        Supplies ``sort_dim`` (staircase sort dimension).
    self_exclude:
        Monochromatic convention: customer ``j`` is excluded from its own
        dynamic-skyline computation.  Must match the engine's convention —
        entries are keyed by position only.
    """

    def __init__(
        self,
        index: SpatialIndex,
        customers: VersionedStore | np.ndarray,
        config: WhyNotConfig | None = None,
        self_exclude: bool = False,
    ) -> None:
        self.index = index
        self._customer_store = (
            customers
            if isinstance(customers, VersionedStore)
            else CustomerStore(customers)
        )
        self.config = config or WhyNotConfig()
        self.self_exclude = self_exclude
        self.stats = DSLCacheStats()
        self._thresholds: dict[int, np.ndarray] = {}
        self._regions: dict[tuple[int, bytes, bytes], BoxRegion] = {}
        # Direct counter references for the per-lookup increments: a
        # bound ``Counter.inc`` is measurably cheaper than the property
        # round-trip, and the lookups sit on the safe-region hot path.
        # ``reset()`` mutates the counters in place, so the references
        # stay valid for the cache's lifetime.
        counters = self.stats.counters()
        self._threshold_hit_counter = counters["threshold_hits"]
        self._threshold_miss_counter = counters["threshold_misses"]
        self._region_hit_counter = counters["region_hits"]
        self._region_miss_counter = counters["region_misses"]

    def __len__(self) -> int:
        return len(self._thresholds)

    def entry_count(self) -> int:
        """Total cached entries across both layers (thresholds + regions)."""
        return len(self._thresholds) + len(self._regions)

    @property
    def customers(self) -> np.ndarray:
        """The live ``(m, d)`` customer matrix."""
        return self._customer_store.matrix

    def __repr__(self) -> str:
        return (
            f"DSLCache({len(self._thresholds)} thresholds, "
            f"{len(self._regions)} regions, hit_rate={self.stats.hit_rate:.2f})"
        )

    # ------------------------------------------------------------------
    # Lookups (read-through)
    # ------------------------------------------------------------------
    def thresholds(self, position: int) -> np.ndarray:
        """The ``(|DSL(c)|, d)`` distance matrix of customer ``position``."""
        position = int(position)
        cached = self._thresholds.get(position)
        if cached is not None:
            self._threshold_hit_counter.inc()
            return cached
        self._threshold_miss_counter.inc()
        computed = self._compute_thresholds(position)
        self._thresholds[position] = computed
        return computed

    def region(self, position: int, bounds: Box) -> BoxRegion:
        """The simplified staircase anti-dominance region of ``position``
        clipped to ``bounds`` (the Fig. 10 decomposition in 2-D, the
        conservative variant for higher dimensions)."""
        position = int(position)
        key = (position, bounds.lo.tobytes(), bounds.hi.tobytes())
        cached = self._regions.get(key)
        if cached is not None:
            self._region_hit_counter.inc()
            return cached
        self._region_miss_counter.inc()
        lo, hi = staircase_arrays(
            self.customers[position],
            self.thresholds(position),
            bounds,
            self.config.sort_dim,
        )
        region = BoxRegion.from_arrays(lo, hi, dim=self.index.dim).simplify()
        self._regions[key] = region
        return region

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def precompute(self, positions: Sequence[int] | None = None) -> None:
        """Materialise threshold entries for ``positions`` (all customers
        when None) — the offline pass.  Each entry is stored once it is
        complete, so concurrent readers never observe a half-written
        one."""
        targets = [
            int(position)
            for position in (
                range(self.customers.shape[0]) if positions is None else positions
            )
            if int(position) not in self._thresholds
        ]
        for position in targets:
            self._thresholds[position] = self._compute_thresholds(position)
        self.stats.threshold_misses += len(targets)

    def invalidate(self) -> None:
        """Drop every cached entry.

        Required whenever the product set changes (every customer's DSL
        may shift): every engine mutation calls it.  The hit/miss
        counters keep counting across it; ``stats.invalidations``
        increments.
        """
        self._thresholds.clear()
        self._regions.clear()
        self.stats.invalidations += 1

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _compute_thresholds(self, position: int) -> np.ndarray:
        customer = self.customers[position]
        exclude = (position,) if self.self_exclude else ()
        dsl = dynamic_skyline_indices(self.index.points, customer, exclude)
        return (
            to_query_space(self.index.points[dsl], customer)
            if dsl.size
            else np.empty((0, self.index.dim))
        )
