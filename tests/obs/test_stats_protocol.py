"""The shared stats protocol: every stats class is a counter-backed view
with uniform ``snapshot()``/``reset()``/``counters()``, and the DSL-cache
hit/miss counters stay lifetime-monotonic through engine-level
invalidation."""

import numpy as np
import pytest

from repro.core.dsl_cache import DSLCache, DSLCacheStats
from repro.core.engine import WhyNotEngine
from repro.core.safe_region import SafeRegionStats
from repro.index.scan import ScanIndex
from repro.index.stats import IndexStats
from repro.obs.metrics import Counter, MetricsRegistry
from repro.obs.stats import CounterBackedStats

ALL_STATS_CLASSES = [IndexStats, DSLCacheStats, SafeRegionStats]


@pytest.mark.parametrize("cls", ALL_STATS_CLASSES)
class TestUniformProtocol:
    def test_is_counter_backed(self, cls):
        assert issubclass(cls, CounterBackedStats)

    def test_snapshot_covers_every_field_and_reset_zeroes(self, cls):
        stats = cls()
        fields = cls._INT_FIELDS + cls._FLOAT_FIELDS + cls._BOOL_FIELDS
        snap = stats.snapshot()
        assert set(snap) == set(fields)
        for name in cls._INT_FIELDS:
            setattr(stats, name, 3)
        for name in cls._FLOAT_FIELDS:
            setattr(stats, name, 1.5)
        for name in cls._BOOL_FIELDS:
            setattr(stats, name, True)
        assert stats.snapshot() != snap
        stats.reset()
        assert stats.snapshot() == snap

    def test_snapshot_value_types(self, cls):
        stats = cls()
        snap = stats.snapshot()
        for name in cls._INT_FIELDS:
            assert type(snap[name]) is int
        for name in cls._FLOAT_FIELDS:
            assert type(snap[name]) is float
        for name in cls._BOOL_FIELDS:
            assert type(snap[name]) is bool

    def test_keyword_construction_and_equality(self, cls):
        field = cls._INT_FIELDS[0]
        a = cls(**{field: 4})
        b = cls(**{field: 4})
        c = cls(**{field: 5})
        assert getattr(a, field) == 4
        assert a == b
        assert a != c

    def test_unknown_field_raises(self, cls):
        with pytest.raises(TypeError, match="unexpected fields"):
            cls(no_such_field=1)

    def test_counters_share_live_objects(self, cls):
        stats = cls()
        field = cls._INT_FIELDS[0]
        counters = stats.counters()
        assert isinstance(counters[field], Counter)
        counters[field].inc(7)
        assert getattr(stats, field) == 7

    def test_registry_attach_sees_mutations(self, cls):
        stats = cls()
        field = cls._INT_FIELDS[0]
        reg = MetricsRegistry()
        for name, counter in stats.counters().items():
            reg.attach(f"pfx.{name}", counter)
        setattr(stats, field, 9)
        assert reg.snapshot()[f"pfx.{field}"] == 9


class TestDSLCacheRollContract:
    """The counters never roll back: invalidation drops entries, not
    counts."""

    def _cache(self, n=40):
        rng = np.random.default_rng(3)
        pts = rng.uniform(0, 1, size=(n, 2))
        return DSLCache(ScanIndex(pts), pts, self_exclude=True)

    def test_invalidate_keeps_hit_miss_counts(self):
        cache = self._cache()
        cache.thresholds(0)
        cache.thresholds(0)
        cache.thresholds(1)
        assert cache.stats.hit_miss() == (1, 2)
        cache.invalidate()
        assert len(cache) == 0
        assert cache.stats.hit_miss() == (1, 2)
        assert cache.stats.invalidations == 1
        # The dropped entry is recomputed and counted on top.
        cache.thresholds(0)
        assert cache.stats.hit_miss() == (1, 3)

    def test_repeated_invalidate_preserves_counters(self):
        cache = self._cache()
        cache.thresholds(0)
        cache.thresholds(1)
        cache.invalidate()
        cache.invalidate()
        assert cache.stats.threshold_misses == 2
        assert cache.stats.invalidations == 2
        # No entry survives a flush, so position 1 misses again.
        cache.thresholds(1)
        assert cache.stats.threshold_hits == 0
        assert cache.stats.threshold_misses == 3

    def test_hit_miss_matches_properties(self):
        stats = DSLCacheStats(
            threshold_hits=2, region_hits=3, threshold_misses=5, region_misses=7
        )
        assert stats.hit_miss() == (stats.hits, stats.misses)
        assert stats.hit_rate == pytest.approx(5 / 17)

    def test_counter_refs_survive_reset(self):
        cache = self._cache()
        cache.thresholds(0)
        cache.invalidate()
        cache.stats.reset()  # zeroes the counters in place
        cache.thresholds(0)
        cache.thresholds(0)
        # The cache's internal counter refs must still feed the stats view.
        assert cache.stats.threshold_misses == 1
        assert cache.stats.threshold_hits == 1


class TestEngineInvalidation:
    def _engine(self, n=40, trace=False):
        from repro.config import WhyNotConfig

        rng = np.random.default_rng(5)
        pts = rng.uniform(0, 1, size=(n, 2))
        return WhyNotEngine(pts, config=WhyNotConfig(trace=trace))

    def test_invalidate_caches_keeps_dsl_stats_monotonic(self):
        engine = self._engine()
        q = np.array([0.5, 0.5])
        engine.safe_region(q)
        hits, misses = engine.dsl_cache.stats.hit_miss()
        assert misses > 0
        engine.invalidate_caches()
        assert engine.dsl_cache.stats.hit_miss() == (hits, misses)
        assert engine.dsl_cache.stats.invalidations == 1
        engine.safe_region(q)
        assert engine.dsl_cache.stats.misses > misses

    def test_without_products_gets_fresh_stats(self):
        engine = self._engine()
        q = np.array([0.5, 0.5])
        engine.safe_region(q)
        reduced, _mapping = engine.without_products([0])
        assert reduced.dsl_cache.stats.hit_miss() == (0, 0)
        assert reduced.dsl_cache.stats.invalidations == 0

    def test_traced_engine_exports_monotonic_counters(self):
        engine = self._engine(trace=True)
        q = np.array([0.5, 0.5])
        names = [f"dsl_cache.{name}" for name in DSLCacheStats._INT_FIELDS]
        engine.safe_region(q)
        before = engine.obs.metrics.snapshot()
        assert before["dsl_cache.threshold_misses"] > 0
        # Every mutation flushes the cache; no exported count goes back.
        for _ in range(3):
            engine.update_products([0], [engine.products[0] * 0.5])
            engine.safe_region(q)
            after = engine.obs.metrics.snapshot()
            assert all(after[name] >= before[name] for name in names)
            before = after
        assert after["dsl_cache.invalidations"] == 3
