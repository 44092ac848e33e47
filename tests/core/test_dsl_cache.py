"""Tests for the engine-level DSL cache (thresholds + staircase regions).

The cache is read-through: every answer must be identical with and
without it.  These tests pin the hit/miss accounting, the invalidation
contract, the parallel precompute, and the reuse across the engine's
pipelines (safe region, MWQ, approximate store, relaxation analysis).
"""

import numpy as np
import pytest

from repro.config import WhyNotConfig
from repro.core.dsl_cache import DSLCache, DSLCacheStats
from repro.core.mwq import modify_query_and_why_not_point
from repro.core.relaxation import leave_one_out_regions
from repro.core.safe_region import compute_safe_region
from repro import WhyNotEngine
from repro.geometry.box import Box
from repro.geometry.transform import to_query_space
from repro.index.scan import ScanIndex
from repro.skyline.dynamic import dynamic_skyline_indices

UNIT = Box([0.0, 0.0], [1.0, 1.0])


@pytest.fixture
def dataset():
    rng = np.random.default_rng(5)
    return rng.uniform(0.05, 0.95, size=(40, 2))


@pytest.fixture
def cache(dataset):
    return DSLCache(
        ScanIndex(dataset), dataset, config=WhyNotConfig(), self_exclude=True
    )


class TestReadThrough:
    def test_thresholds_match_direct_computation(self, dataset, cache):
        for position in (0, 7, 23):
            direct_dsl = dynamic_skyline_indices(
                dataset, dataset[position], (position,)
            )
            direct = to_query_space(dataset[direct_dsl], dataset[position])
            assert cache.thresholds(position).tolist() == direct.tolist()

    def test_region_matches_uncached_construction(self, dataset, cache):
        from repro.core.safe_region import anti_dominance_region

        for position in (3, 11):
            uncached = anti_dominance_region(
                ScanIndex(dataset),
                dataset[position],
                UNIT,
                exclude=(position,),
            )
            cached = cache.region(position, UNIT)
            assert cached.lo.tolist() == uncached.lo.tolist()
            assert cached.hi.tolist() == uncached.hi.tolist()

    def test_safe_region_identical_with_and_without_cache(self, dataset, cache):
        idx = ScanIndex(dataset)
        q = np.array([0.4, 0.6])
        rsl = np.array([2, 9, 17, 30], dtype=np.int64)
        plain = compute_safe_region(idx, dataset, q, rsl, UNIT, self_exclude=True)
        cached = compute_safe_region(
            idx, dataset, q, rsl, UNIT, self_exclude=True, dsl_cache=cache
        )
        assert cached.region.lo.tolist() == plain.region.lo.tolist()
        assert cached.region.hi.tolist() == plain.region.hi.tolist()
        assert cached.area() == plain.area()


class TestAccounting:
    def test_threshold_hit_miss_sequence(self, cache):
        assert (cache.stats.hits, cache.stats.misses) == (0, 0)
        cache.thresholds(4)
        assert (cache.stats.threshold_hits, cache.stats.threshold_misses) == (0, 1)
        cache.thresholds(4)
        assert (cache.stats.threshold_hits, cache.stats.threshold_misses) == (1, 1)
        assert len(cache) == 1

    def test_region_lookup_layers(self, cache):
        cache.region(6, UNIT)
        # First region call misses both layers (region + its thresholds).
        assert cache.stats.region_misses == 1
        assert cache.stats.threshold_misses == 1
        first = cache.region(6, UNIT)
        # Second call is served whole from the region layer.
        assert cache.stats.region_hits == 1
        assert cache.stats.threshold_hits == 0
        assert cache.region(6, UNIT) is first

    def test_region_keyed_by_bounds(self, cache):
        wide = Box([-1.0, -1.0], [2.0, 2.0])
        a = cache.region(2, UNIT)
        b = cache.region(2, wide)
        assert a is not b
        assert cache.stats.region_misses == 2
        # The threshold layer is shared across bounds.
        assert cache.stats.threshold_misses == 1
        assert cache.stats.threshold_hits == 1

    def test_hit_rate(self):
        stats = DSLCacheStats()
        assert stats.hit_rate == 0.0
        stats.threshold_hits = 3
        stats.region_misses = 1
        assert stats.hit_rate == pytest.approx(0.75)


class TestLifecycle:
    def test_precompute_fills_all(self, dataset, cache):
        cache.precompute()
        assert len(cache) == dataset.shape[0]
        assert cache.stats.threshold_misses == dataset.shape[0]
        before_hits, before_misses = cache.stats.hits, cache.stats.misses
        for position in range(dataset.shape[0]):
            cache.thresholds(position)
        assert cache.stats.hits - before_hits == dataset.shape[0]
        assert cache.stats.misses == before_misses

    def test_precompute_subset_and_idempotence(self, cache):
        cache.precompute([1, 2, 3])
        assert len(cache) == 3
        misses = cache.stats.threshold_misses
        cache.precompute([2, 3, 4])
        assert len(cache) == 4
        assert cache.stats.threshold_misses == misses + 1

    def test_invalidate_keeps_stats_monotonic(self, cache):
        cache.region(0, UNIT)
        cache.region(1, UNIT)
        cache.region(1, UNIT)
        assert (cache.stats.hits, cache.stats.misses) == (1, 4)
        cache.invalidate()
        assert len(cache) == 0
        assert cache.entry_count() == 0
        # Invalidation drops entries, never counts.
        assert (cache.stats.hits, cache.stats.misses) == (1, 4)
        assert cache.stats.invalidations == 1

    def test_invalidate_drops_every_position(self, cache):
        cache.region(0, UNIT)
        cache.region(1, UNIT)
        cache.invalidate()
        assert len(cache) == 0
        # No position survives the flush: both layers are recomputed
        # for each one, and nothing is served from before it.
        cache.region(1, UNIT)
        cache.region(0, UNIT)
        assert cache.stats.region_hits == 0
        assert cache.stats.region_misses == 4
        assert cache.stats.threshold_misses == 4
        cache.region(0, UNIT)
        assert cache.stats.region_hits == 1


class TestEngineIntegration:
    @pytest.fixture
    def engine(self, dataset):
        return WhyNotEngine(dataset, backend="scan")

    def test_engine_owns_cache_by_default(self, engine):
        assert engine.dsl_cache is not None
        assert engine.dsl_cache.self_exclude == engine.monochromatic

    def test_config_can_disable_cache(self, dataset):
        """A partial-support default drops dimensions the unweighted
        cache entries cover, so such an engine keeps no cache."""
        engine = WhyNotEngine(
            dataset,
            backend="scan",
            config=WhyNotConfig(prefs_weights=(0.0, 1.0)),
        )
        assert engine.dsl_cache is None
        q = np.array([0.5, 0.5])
        assert engine.safe_region(q).contains(q)

    def test_disabled_cache_same_answers(self, dataset):
        """The engine's cached fold equals the uncached reference."""
        q = np.array([0.45, 0.55])
        engine = WhyNotEngine(dataset, backend="scan")
        a = engine.safe_region(q)
        b = compute_safe_region(
            ScanIndex(dataset),
            dataset,
            q,
            engine.reverse_skyline(q),
            engine.bounds,
            self_exclude=True,
            dsl_cache=None,
        )
        assert engine.dsl_cache.entry_count() > 0
        assert a.region.lo.tolist() == b.region.lo.tolist()
        assert a.region.hi.tolist() == b.region.hi.tolist()
        assert a.area() == b.area()

    def test_safe_region_populates_stats(self, engine):
        q = np.array([0.5, 0.5])
        engine.safe_region(q)
        stats = engine.last_safe_region_stats
        assert stats is not None
        assert stats.members == engine.reverse_skyline(q).size
        assert stats.cache_misses > 0
        assert stats.cache_hits == 0
        assert stats.build_seconds > 0.0

    def test_repeat_members_hit_cache(self, engine):
        """Nearby queries share RSL members; the second construction is
        served from the cache."""
        engine.safe_region(np.array([0.5, 0.5]))
        engine.safe_region(np.array([0.5000001, 0.5]))
        stats = engine.last_safe_region_stats
        assert stats.cache_hit_rate > 0.9

    def test_relaxation_reuses_cached_members(self, engine):
        q = np.array([0.5, 0.5])
        engine.safe_region(q)  # warms every member region
        before_hits, before_misses = (
            engine.dsl_cache.stats.hits,
            engine.dsl_cache.stats.misses,
        )
        regions = leave_one_out_regions(engine, q)
        members = len(regions)
        if members >= 2:
            # Each of the n leave-one-out rebuilds reads n-1 member
            # regions, all already cached: a pure-hit phase.
            assert engine.dsl_cache.stats.hits - before_hits == members * (
                members - 1
            )
            assert engine.dsl_cache.stats.misses == before_misses

    def test_modify_both_matches_uncached(self, dataset):
        """Algorithm 4 over the cached safe region and DDR equals it over
        the uncached safe region with a recomputed DDR."""
        engine = WhyNotEngine(dataset, backend="scan")
        q = np.array([0.48, 0.52])
        a = engine.modify_both(0, q)
        index = ScanIndex(dataset)
        uncached = compute_safe_region(
            index,
            dataset,
            q,
            engine.reverse_skyline(q),
            engine.bounds,
            self_exclude=True,
            dsl_cache=None,
        )
        b = modify_query_and_why_not_point(
            index,
            dataset[0],
            q,
            safe_region=uncached,
            bounds=engine.bounds,
            weights=engine.beta,
            normalizer=engine.normalizer,
            exclude=(0,),
        )
        assert a.case == b.case
        assert np.allclose(a.query, b.query)
        if not np.isnan(a.cost) or not np.isnan(b.cost):
            assert a.cost == pytest.approx(b.cost)

    def test_approx_store_shares_threshold_layer(self, engine):
        engine.safe_region(np.array([0.5, 0.5]))  # warm thresholds
        before_hits = engine.dsl_cache.stats.hits
        store = engine.approx_store(k=3)
        for position in engine.reverse_skyline(np.array([0.5, 0.5])).tolist():
            store.entry(int(position))
        assert engine.dsl_cache.stats.hits > before_hits

    def test_invalidate_caches_clears_everything(self, engine):
        q = np.array([0.5, 0.5])
        engine.safe_region(q)
        assert len(engine.dsl_cache) > 0
        engine.invalidate_caches()
        assert len(engine.dsl_cache) == 0
        assert engine.last_safe_region_stats is None
        # Entries go; the hit/miss counters keep their lifetime counts.
        assert engine.dsl_cache.stats.misses > 0
        assert engine.dsl_cache.stats.invalidations == 1
        assert engine.safe_region(q).contains(q)

    def test_without_products_gets_fresh_cache(self, engine):
        engine.safe_region(np.array([0.5, 0.5]))
        reduced, _ = engine.without_products([0])
        assert reduced.dsl_cache is not None
        assert reduced.dsl_cache is not engine.dsl_cache
        assert len(reduced.dsl_cache) == 0
        # Parent cache untouched by the reduced engine's existence.
        assert len(engine.dsl_cache) > 0
