"""Plan-cache behaviour: the counter balance invariant, reuse across
query points of the same shape, and eviction on store mutation."""

import numpy as np
import pytest

from repro.config import WhyNotConfig
from repro.core.batch import answer_why_not_batch
from repro.core.engine import WhyNotEngine
from repro.plan.cache import PlanCache, config_fingerprint


@pytest.fixture
def engine():
    points = np.random.default_rng(7).random((50, 2))
    return WhyNotEngine(points)


def assert_balanced(cache):
    assert cache.considered.value == cache.hits.value + cache.misses.value


class TestCounterInvariant:
    def test_balanced_after_mixed_workload(self, engine):
        rng = np.random.default_rng(8)
        for _ in range(6):
            q = rng.random(2)
            engine.reverse_skyline(q)
            engine.safe_region(q)
            engine.modify_both(3, q)
        assert_balanced(engine.plan_cache)
        assert engine.plan_cache.hits.value > 0
        assert engine.plan_cache.misses.value > 0

    def test_standalone_cache_counts(self):
        cache = PlanCache()
        assert cache.get(("k",)) is None
        cache.put(("k",), object())
        assert cache.get(("k",)) is not None
        assert cache.considered.value == 2
        assert cache.hits.value == 1
        assert cache.misses.value == 1
        assert_balanced(cache)


class TestPlanReuse:
    def test_same_shape_different_query_hits(self, engine):
        engine.reverse_skyline(np.array([0.2, 0.8]))
        misses = engine.plan_cache.misses.value
        engine.reverse_skyline(np.array([0.9, 0.1]))
        assert engine.plan_cache.misses.value == misses
        assert engine.plan_cache.hits.value >= 1

    def test_membership_counts_share_one_plan(self, engine):
        q = np.array([0.5, 0.5])
        engine.membership_mask([1, 2, 3], q)
        misses = engine.plan_cache.misses.value
        plan = engine.last_plan
        # The batch cardinality is not part of the plan shape: every
        # count, across orders of magnitude, reuses the same plan.
        for count in (1, 2, 7, 40, 50):
            engine.membership_mask(list(range(count)), q)
            assert engine.last_plan is plan
        assert engine.plan_cache.misses.value == misses
        answer_why_not_batch(engine, [1], q)
        batch_misses = engine.plan_cache.misses.value
        answer_why_not_batch(engine, list(range(20)), q)
        assert engine.plan_cache.misses.value == batch_misses


class TestEviction:
    def test_mutation_clears_plan_cache(self, engine):
        q = np.array([0.4, 0.6])
        engine.reverse_skyline(q)
        engine.safe_region(q)
        assert len(engine.plan_cache) > 0
        engine.insert_products(np.array([[0.3, 0.3]]))
        assert len(engine.plan_cache) == 0
        assert engine.plan_cache.evicted.value > 0
        assert_balanced(engine.plan_cache)

    def test_post_mutation_plans_are_fresh_misses(self, engine):
        q = np.array([0.4, 0.6])
        engine.reverse_skyline(q)
        engine.update_products([0], np.array([[0.1, 0.9]]))
        misses = engine.plan_cache.misses.value
        engine.reverse_skyline(q)
        assert engine.plan_cache.misses.value == misses + 1

    def test_customer_mutation_also_evicts(self):
        rng = np.random.default_rng(9)
        engine = WhyNotEngine(rng.random((30, 2)), customers=rng.random((20, 2)))
        engine.reverse_skyline(np.array([0.5, 0.5]))
        assert len(engine.plan_cache) > 0
        engine.insert_customers(np.array([[0.2, 0.2]]))
        assert len(engine.plan_cache) == 0


class TestConfigFingerprint:
    def test_differs_per_config(self):
        a = config_fingerprint(WhyNotConfig())
        b = config_fingerprint(WhyNotConfig(planner="kernel"))
        c = config_fingerprint(WhyNotConfig(planner="index"))
        assert a != b and a != c and b != c

    def test_stable_for_equal_configs(self):
        assert config_fingerprint(WhyNotConfig()) == config_fingerprint(
            WhyNotConfig()
        )

    def test_hashable(self):
        hash(config_fingerprint(WhyNotConfig()))
