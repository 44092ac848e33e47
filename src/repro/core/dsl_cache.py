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
the product set changes — ``WhyNotEngine.without_products`` builds the
reduced engine with a fresh cache for exactly this reason.
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
from repro.kernels.parallel import parallel_map_chunks
from repro.skyline.dynamic import dynamic_skyline_indices

__all__ = ["DSLCache", "DSLCacheStats"]


class DSLCacheStats(CounterBackedStats):
    """Hit/miss counters of one :class:`DSLCache`.

    Reset contract: hit/miss counters describe the *current generation*
    of cached content — a full :meth:`DSLCache.invalidate` rolls them
    back to zero (the old numbers describe entries that no longer
    exist), while ``invalidations`` is lifetime-monotonic and counts
    every invalidation call, full or partial.  Partial invalidations do
    not roll the counters: the surviving entries' history stays valid.
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

    def roll(self) -> dict:
        """Snapshot, then zero the hit/miss counters (generation change).

        ``invalidations`` is deliberately preserved — it counts lifetime
        events, not current-generation content.
        """
        snap = self.snapshot()
        for name in (
            "threshold_hits",
            "threshold_misses",
            "region_hits",
            "region_misses",
        ):
            self._counters[name].value = 0
        return snap


class DSLCache:
    """Per-customer dynamic-skyline threshold and staircase-region cache.

    Parameters
    ----------
    index:
        Spatial index over the products ``P`` (the cache is only valid
        for this exact product set).
    customers:
        ``(m, d)`` customer matrix the positions refer to.
    config:
        Supplies ``sort_dim`` (staircase sort dimension) and the default
        ``n_jobs`` of :meth:`precompute`.
    self_exclude:
        Monochromatic convention: customer ``j`` is excluded from its own
        dynamic-skyline computation.  Must match the engine's convention —
        entries are keyed by position only.
    """

    def __init__(
        self,
        index: SpatialIndex,
        customers: np.ndarray,
        config: WhyNotConfig | None = None,
        self_exclude: bool = False,
    ) -> None:
        self.index = index
        self.customers = np.asarray(customers, dtype=np.float64)
        self.config = config or WhyNotConfig()
        self.self_exclude = self_exclude
        self.stats = DSLCacheStats()
        self._thresholds: dict[int, np.ndarray] = {}
        self._regions: dict[tuple[int, bytes, bytes], BoxRegion] = {}
        # Direct counter references for the per-lookup increments: a
        # bound ``Counter.inc`` is measurably cheaper than the property
        # round-trip, and the lookups sit on the safe-region hot path.
        # ``roll()``/``reset()`` mutate the counters in place, so the
        # references stay valid for the cache's lifetime.
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

    def cached_positions(self) -> list[int]:
        """Positions with a cached threshold matrix (no stats traffic).

        The scoped-invalidation pass iterates exactly these: uncached
        customers have nothing to evict, and every region entry's
        position also has a threshold entry by the read-through layering.
        """
        return list(self._thresholds)

    def cached_thresholds(self, position: int) -> np.ndarray | None:
        """The cached threshold matrix, or ``None`` — never computes and
        never counts a hit/miss (for invalidation-side inspection only)."""
        return self._thresholds.get(int(position))

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
    def precompute(
        self,
        positions: Sequence[int] | None = None,
        n_jobs: int | None = None,
    ) -> None:
        """Materialise threshold entries for ``positions`` (all customers
        when None) — the offline pass, embarrassingly parallel over
        customers.  Workers compute side-effect free and the dict is
        populated afterwards, so concurrent readers never observe a
        half-written entry."""
        targets = [
            int(position)
            for position in (
                range(self.customers.shape[0]) if positions is None else positions
            )
            if int(position) not in self._thresholds
        ]
        if n_jobs is None:
            n_jobs = self.config.n_jobs
        computed = parallel_map_chunks(
            self._compute_thresholds, targets, n_jobs=n_jobs
        )
        for position, thresholds in zip(targets, computed):
            self._thresholds[position] = thresholds
        self.stats.threshold_misses += len(targets)

    def invalidate(self, positions: Sequence[int] | None = None) -> None:
        """Drop cached entries — all of them, or those of ``positions``.

        Required whenever the product set changes (every customer's DSL
        may shift); engines built by ``without_products`` get a fresh
        cache instead of sharing the parent's.

        Stats contract: a *full* invalidation starts a new content
        generation, so the hit/miss counters roll back to zero
        (``DSLCacheStats.roll``) — they would otherwise accumulate
        across unrelated product sets and misreport hit rates.  Partial
        invalidations keep the counters: surviving entries' history is
        still meaningful.  ``stats.invalidations`` always increments.
        """
        if positions is None:
            self._thresholds.clear()
            self._regions.clear()
            self.stats.roll()
        else:
            self._evict_entries(positions)
        self.stats.invalidations += 1

    def evict(self, positions: Sequence[int]) -> int:
        """Scoped eviction: drop the entries of ``positions`` and return
        how many entries (threshold matrices + regions) were removed.

        Behaviour equals partial :meth:`invalidate` — surviving entries
        keep their hit/miss history — but the count feeds the engine's
        ``cache.evicted_scoped`` accounting.
        """
        evicted = self._evict_entries(positions)
        self.stats.invalidations += 1
        return evicted

    def remap(self, mapping: np.ndarray) -> int:
        """Renumber entries after a compacting delete; returns how many
        entries were dropped because their customer row was deleted.

        ``mapping`` is the old-to-new position array of the store delete
        contract.  Values are untouched: a surviving customer's threshold
        matrix and staircase regions do not depend on its row number.
        """
        mapping = np.asarray(mapping, dtype=np.int64)
        dropped = 0
        thresholds: dict[int, np.ndarray] = {}
        for position, matrix in self._thresholds.items():
            new_position = int(mapping[position]) if position < mapping.size else -1
            if new_position >= 0:
                thresholds[new_position] = matrix
            else:
                dropped += 1
        regions: dict[tuple[int, bytes, bytes], BoxRegion] = {}
        for (position, lo, hi), region in self._regions.items():
            new_position = int(mapping[position]) if position < mapping.size else -1
            if new_position >= 0:
                regions[(new_position, lo, hi)] = region
            else:
                dropped += 1
        self._thresholds = thresholds
        self._regions = regions
        return dropped

    def rebind(self, customers: np.ndarray) -> None:
        """Point the cache at a new customer matrix (post-mutation).

        The caller is responsible for having evicted/remapped entries
        whose customers moved; rebinding itself validates nothing.
        """
        self.customers = np.asarray(customers, dtype=np.float64)

    def _evict_entries(self, positions: Sequence[int]) -> int:
        drop = {int(p) for p in positions}
        evicted = 0
        for position in drop:
            if self._thresholds.pop(position, None) is not None:
                evicted += 1
        for key in [k for k in self._regions if k[0] in drop]:
            del self._regions[key]
            evicted += 1
        return evicted

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
