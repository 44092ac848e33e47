"""Engine mutation surface: versioned stores, the index rebuild and the
cache flush every mutation takes."""

import numpy as np
import pytest

from repro import Box, WhyNotConfig, WhyNotEngine
from repro.config import DominancePolicy
from repro.exceptions import EmptyDatasetError, InvalidParameterError

# Explicit bounds shared with the fresh comparison engines: bounds are
# the domain, not the data extent, so equivalence checks must pin them
# (a mutation can move the inferred extent).
BOUNDS = Box(np.zeros(2), np.ones(2))


def _mono(n: int = 24, seed: int = 21, **cfg) -> WhyNotEngine:
    rng = np.random.default_rng(seed)
    pts = np.round(rng.uniform(0.0, 1.0, size=(n, 2)) * 16) / 16
    return WhyNotEngine(
        pts, backend="scan", config=WhyNotConfig(**cfg), bounds=BOUNDS
    )


def _bi(n: int = 20, m: int = 16, seed: int = 22, **cfg) -> WhyNotEngine:
    rng = np.random.default_rng(seed)
    prods = np.round(rng.uniform(0.0, 1.0, size=(n, 2)) * 16) / 16
    custs = np.round(rng.uniform(0.0, 1.0, size=(m, 2)) * 16) / 16
    return WhyNotEngine(
        prods,
        customers=custs,
        backend="scan",
        config=WhyNotConfig(**cfg),
        bounds=BOUNDS,
    )


Q = np.array([0.5, 0.5])
# A partial-support default (dimension 0 dropped): such an engine keeps
# no DSL cache and flushes every cache on mutation.
PARTIAL = (0.0, 1.0)


def _warm(engine, queries=(Q, np.array([0.25, 0.75]))):
    for q in queries:
        engine.reverse_skyline(q)
        engine.safe_region(q)
        engine.safe_region(q, approximate=True, k=5)
    return queries


def _assert_fresh_equivalent(engine, queries=(Q, np.array([0.25, 0.75]))):
    """Every query surface of the mutated engine matches a cold engine
    built over the same (current) matrices."""
    if engine.monochromatic:
        fresh = WhyNotEngine(
            engine.products, backend="scan", config=engine.config, bounds=BOUNDS
        )
    else:
        fresh = WhyNotEngine(
            engine.products,
            customers=engine.customers,
            backend="scan",
            config=engine.config,
            bounds=BOUNDS,
        )
    assert np.array_equal(engine.index.points, engine.products)
    for q in queries:
        assert np.array_equal(engine.reverse_skyline(q), fresh.reverse_skyline(q))
        a, b = engine.safe_region(q).region, fresh.safe_region(q).region
        assert np.array_equal(a.lo, b.lo) and np.array_equal(a.hi, b.hi)
        a = engine.safe_region(q, approximate=True, k=5).region
        b = fresh.safe_region(q, approximate=True, k=5).region
        assert np.array_equal(a.lo, b.lo) and np.array_equal(a.hi, b.hi)
        everyone = list(range(engine.customers.shape[0]))
        assert np.array_equal(
            engine.membership_mask(everyone, q), fresh.membership_mask(everyone, q)
        )


class TestProductMutators:
    def test_insert_returns_positions(self):
        engine = _mono()
        positions = engine.insert_products([[0.1, 0.9], [0.9, 0.1]])
        assert positions.tolist() == [24, 25]
        assert engine.products.shape[0] == 26
        assert engine.dataset_epoch == 1

    def test_delete_returns_mapping(self):
        engine = _mono()
        mapping = engine.delete_products([0, 5])
        assert mapping.shape == (24,)
        assert mapping[0] == -1 and mapping[5] == -1
        assert engine.products.shape[0] == 22

    def test_update_returns_positions(self):
        engine = _mono()
        positions = engine.update_products([7, 3], [[0.2, 0.2], [0.8, 0.8]])
        assert positions.tolist() == [3, 7]
        assert np.array_equal(engine.products[3], [0.8, 0.8])

    def test_delete_everything_rejected(self):
        engine = _mono(n=4)
        with pytest.raises(EmptyDatasetError):
            engine.delete_products([0, 1, 2, 3])

    def test_out_of_range_rejected(self):
        engine = _mono()
        with pytest.raises(InvalidParameterError):
            engine.delete_products([24])

    def test_mono_shares_one_store(self):
        engine = _mono()
        assert engine.product_store is engine.customer_store
        engine.insert_products([[0.5, 0.5]])
        assert engine.customers is engine.products

    def test_mono_customer_mutators_rejected(self):
        engine = _mono()
        with pytest.raises(InvalidParameterError, match="monochromatic"):
            engine.insert_customers([[0.5, 0.5]])
        with pytest.raises(InvalidParameterError, match="monochromatic"):
            engine.delete_customers([0])
        with pytest.raises(InvalidParameterError, match="monochromatic"):
            engine.update_customers([0], [[0.5, 0.5]])


class TestCustomerMutators:
    def test_bichromatic_customer_churn(self):
        engine = _bi()
        _warm(engine)
        engine.insert_customers([[0.45, 0.55]])
        engine.delete_customers([2])
        engine.update_customers([0], [[0.6, 0.4]])
        assert engine.dataset_epoch == 3
        _assert_fresh_equivalent(engine)

    def test_epoch_sums_both_stores(self):
        engine = _bi()
        engine.insert_products([[0.5, 0.5]])
        engine.insert_customers([[0.5, 0.5]])
        assert engine.product_store.epoch == 1
        assert engine.customer_store.epoch == 1
        assert engine.dataset_epoch == 2


class TestCacheCoherence:
    @pytest.mark.parametrize("kind", ["insert", "delete", "update"])
    def test_mono_single_mutation(self, kind):
        engine = _mono()
        _warm(engine)
        if kind == "insert":
            engine.insert_products([[0.52, 0.48]])
        elif kind == "delete":
            engine.delete_products([int(engine.reverse_skyline(Q)[0])])
        else:
            engine.update_products([4], [[0.51, 0.49]])
        _assert_fresh_equivalent(engine)

    @pytest.mark.parametrize("kind", ["insert", "delete", "update"])
    def test_bichromatic_product_mutation(self, kind):
        engine = _bi()
        _warm(engine)
        if kind == "insert":
            engine.insert_products([[0.52, 0.48]])
        elif kind == "delete":
            engine.delete_products([1, 8])
        else:
            engine.update_products([0, 9], [[0.1, 0.1], [0.9, 0.9]])
        _assert_fresh_equivalent(engine)

    def test_strict_policy_churn(self):
        engine = _mono(policy=DominancePolicy.STRICT)
        _warm(engine)
        engine.insert_products([[0.5, 0.5]])
        engine.delete_products([3])
        _assert_fresh_equivalent(engine)

    def test_member_update_after_warm_safe_region(self):
        """Moving a member of a warm ``SR(q)`` must rebuild its dynamic
        skyline from the moved row, not from the pre-mutation customer
        matrix; every mutation's flush is counted."""
        engine = _mono()
        moves = ([0.5625, 0.4375], [0.4375, 0.5], [0.5, 0.5625])
        for epoch, point in enumerate(moves, start=1):
            members = engine.safe_region(Q).rsl_positions
            assert members.size
            evicted = engine._evicted_full.value
            engine.update_products([int(members[0])], [point])
            assert engine._evicted_full.value > evicted
            assert engine._mutations.value == epoch
            assert engine._epoch_gauge.value == engine.dataset_epoch == epoch
            fresh = WhyNotEngine(
                engine.products, backend="scan", bounds=BOUNDS
            )
            assert np.array_equal(
                engine.reverse_skyline(Q), fresh.reverse_skyline(Q)
            )
            a, b = engine.safe_region(Q).region, fresh.safe_region(Q).region
            assert np.array_equal(a.lo, b.lo) and np.array_equal(a.hi, b.hi)

    def test_full_path_counts_evictions(self):
        engine = _mono(prefs_weights=PARTIAL)
        _warm(engine)
        before = engine._evicted_full.value
        engine.insert_products([[0.4, 0.6]])
        assert engine._evicted_full.value > before


@pytest.mark.parametrize("backend", ["rtree", "scan"])
def test_single_post_mutation_path(backend):
    """``apply_mutation`` is the only post-commit code: per committed
    mutation it drops every cached plan (counted in
    ``plan.cache_evicted``) and, for product mutations only, rebuilds the
    index once over the store's own matrix.  No-ops touch nothing."""
    rng = np.random.default_rng(23)
    engine = WhyNotEngine(
        np.round(rng.uniform(0.0, 1.0, size=(20, 2)) * 16) / 16,
        customers=np.round(rng.uniform(0.0, 1.0, size=(16, 2)) * 16) / 16,
        backend=backend,
        bounds=BOUNDS,
    )
    assert engine.index.points is engine.products
    program = [
        (True, lambda: engine.insert_products([[0.3, 0.7], [0.6, 0.2]])),
        (True, lambda: engine.update_products([4], [[0.45, 0.55]])),
        (True, lambda: engine.delete_products([0, 5])),
        (False, lambda: engine.insert_customers([[0.4, 0.4]])),
        (False, lambda: engine.update_customers([2], [[0.6, 0.6]])),
        (False, lambda: engine.delete_customers([1])),
        (None, lambda: engine.insert_products(np.empty((0, 2)))),
        (None, lambda: engine.delete_products([])),
        (None, lambda: engine.update_customers([], np.empty((0, 2)))),
    ]
    for product, mutate in program:
        engine.reverse_skyline(Q)
        engine.safe_region(Q)
        plans = len(engine.plan_cache)
        assert plans > 0
        rebuilds = engine.index.stats.rebuilds
        evicted = engine.plan_cache.evicted.value
        epoch = engine.dataset_epoch
        mutate()
        if product is None:
            assert engine.dataset_epoch == epoch
            assert len(engine.plan_cache) == plans
            assert engine.plan_cache.evicted.value == evicted
            assert engine.index.stats.rebuilds == rebuilds
            continue
        assert engine.dataset_epoch == epoch + 1
        assert len(engine.plan_cache) == 0
        assert engine.plan_cache.evicted.value == evicted + plans
        assert engine.index.stats.rebuilds == rebuilds + int(product)
        assert engine.index.points is engine.products
    fresh = WhyNotEngine(
        engine.products, customers=engine.customers, backend=backend,
        bounds=BOUNDS,
    )
    assert np.array_equal(engine.reverse_skyline(Q), fresh.reverse_skyline(Q))


class TestApproxStoreEpochKeying:
    def test_store_not_reused_across_epochs_when_full_invalidation(self):
        engine = _mono(prefs_weights=PARTIAL)
        store0 = engine.approx_store(5)
        engine.safe_region(Q, approximate=True, k=5)
        engine.insert_products([[0.45, 0.55]])
        store1 = engine.approx_store(5)
        assert store1 is not store0
        assert (5, engine.dataset_epoch) in engine._approx_stores


class TestWithoutProducts:
    def test_contract_unchanged(self):
        engine = _mono()
        reduced, mapping = engine.without_products([0, 3])
        assert reduced.products.shape[0] == 22
        assert mapping[0] == -1 and mapping[3] == -1
        assert np.array_equal(
            reduced.products, engine.products[np.flatnonzero(mapping >= 0)]
        )
        # The original engine is untouched (epoch 0, full matrix).
        assert engine.dataset_epoch == 0
        assert engine.products.shape[0] == 24

    def test_errors_preserved(self):
        engine = _mono(n=3)
        with pytest.raises(InvalidParameterError, match="out of range"):
            engine.without_products([3])
        with pytest.raises(EmptyDatasetError):
            engine.without_products([0, 1, 2])


class TestSnapshotsAcrossMutation:
    def test_store_snapshot_stable_under_engine_churn(self):
        engine = _mono()
        snap = engine.product_store.snapshot()
        frozen = snap.matrix.copy()
        engine.insert_products([[0.2, 0.2]])
        engine.delete_products([0])
        assert np.array_equal(snap.matrix, frozen)
        assert snap.epoch == 0
