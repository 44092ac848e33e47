"""The epoch-versioned tile summaries: recomputed from the store after
every commit, and the planner's memoized selectivity probe."""

import numpy as np
import pytest

from repro.prune.classify import tile_bounds
from repro.prune.summaries import PruneSummaries, TileSummary
from repro.store.base import CustomerStore, ProductStore


def fresh(store, tile_size):
    """Oracle: full tile_bounds of the store's current matrix."""
    return tile_bounds(store.matrix, tile_size)


def assert_matches_oracle(summary: TileSummary):
    lo, hi = summary.bounds
    exp_lo, exp_hi = fresh(summary.store, summary.tile_size)
    np.testing.assert_array_equal(lo, exp_lo)
    np.testing.assert_array_equal(hi, exp_hi)
    assert summary.epoch == summary.store.epoch


class TestTileSummary:
    def test_initial_bounds(self):
        store = ProductStore(np.random.default_rng(0).random((23, 2)))
        summary = TileSummary(store, 8)
        assert summary.tiles == 3
        assert_matches_oracle(summary)

    def test_rejects_bad_tile_size(self):
        store = ProductStore(np.ones((3, 2)))
        with pytest.raises(ValueError):
            TileSummary(store, 0)

    def test_delete_from_the_front_rebuilds_everything_after(self):
        store = ProductStore(np.random.default_rng(10).random((64, 2)))
        summary = TileSummary(store, 8)
        store.delete([0])
        assert_matches_oracle(summary)

    def test_mutation_program_stays_coherent(self):
        rng = np.random.default_rng(11)
        store = ProductStore(rng.random((40, 3)))
        summary = TileSummary(store, 7)
        for _ in range(30):
            op = rng.integers(3)
            n = store.size
            if op == 0 or n < 4:
                store.insert(rng.random((int(rng.integers(1, 5)), 3)))
            elif op == 1:
                count = int(rng.integers(1, min(4, n)))
                store.delete(rng.choice(n, count, replace=False))
            else:
                count = int(rng.integers(1, min(4, n)))
                positions = rng.choice(n, count, replace=False)
                store.update(positions, rng.random((count, 3)))
            assert_matches_oracle(summary)

    def test_commit_racing_a_read_never_leaves_stale_bounds(self):
        """Planning reads the bounds outside the engine's read gate, so
        a commit can land while a read recomputes them.  That read may
        return the old bounds, but the next read must describe the
        committed matrix."""

        class CommitAfterMatrixRead(ProductStore):
            racing = None

            @property
            def matrix(self):
                matrix, commit = self._matrix, self.racing
                self.racing = None
                if commit is not None:
                    commit()
                return matrix

        rng = np.random.default_rng(12)
        store = CommitAfterMatrixRead(rng.random((64, 2)))
        summary = TileSummary(store, 8)
        store.racing = lambda: store.update([5], [[2.0, 2.0]])
        store.update([60], [[-1.0, -1.0]])
        summary.bounds  # recomputes; the update of row 5 lands meanwhile
        assert store.epoch == 2
        assert_matches_oracle(summary)

    def test_delete_to_empty(self):
        store = ProductStore(np.ones((3, 2)))
        summary = TileSummary(store, 2)
        store.delete([0, 1])  # ProductStore must keep >= 1 row? try 2 of 3
        assert_matches_oracle(summary)


class TestPruneSummaries:
    def test_monochromatic_shares_one_summary(self):
        store = ProductStore(np.random.default_rng(0).random((20, 2)))
        bundle = PruneSummaries(store, store, tile_size=8)
        assert bundle.customers is bundle.products

    def test_bichromatic_keeps_two_summaries(self):
        products = ProductStore(np.random.default_rng(1).random((20, 2)))
        customers = CustomerStore(np.random.default_rng(2).random((15, 2)))
        bundle = PruneSummaries(products, customers, tile_size=8)
        assert bundle.customers is not bundle.products
        assert bundle.customers.tiles == 2
        assert bundle.products.tiles == 3

    def test_predict_fractions_sum_to_one(self):
        products = ProductStore(np.random.default_rng(3).random((30, 2)))
        customers = CustomerStore(np.random.default_rng(4).random((30, 2)))
        bundle = PruneSummaries(products, customers, tile_size=8)
        result = bundle.predict(np.array([0.5, 0.5]))
        assert result["pairs"] == 16
        assert result["skip"] + result["blocked"] + result["refine"] == (
            pytest.approx(1.0)
        )

    def test_predict_memoized_until_epoch_changes(self):
        products = ProductStore(np.random.default_rng(5).random((30, 2)))
        bundle = PruneSummaries(products, products, tile_size=8)
        q = np.array([0.5, 0.5])
        first = bundle.predict(q)
        assert bundle.predict(q) is first  # cache hit, same dict object
        products.insert(np.array([[0.9, 0.9]]))
        assert bundle.predict(q) is not first  # epoch moved: recompute

    def test_sparse_geometry_predicts_low_refine_rate(self):
        rng = np.random.default_rng(6)
        products = ProductStore(rng.uniform(0.9, 1.0, size=(64, 2)))
        customers = CustomerStore(rng.uniform(0.45, 0.55, size=(64, 2)))
        bundle = PruneSummaries(products, customers, tile_size=8)
        rate = bundle.predicted_refine_rate(np.array([0.5, 0.5]))
        assert rate == 0.0
        # The centroid probe sits between the clusters — conservative,
        # but still bounded by 1.
        assert 0.0 <= bundle.centroid_refine_rate() <= 1.0

    def test_dense_geometry_predicts_full_refine_rate(self):
        rng = np.random.default_rng(7)
        points = rng.uniform(0.0, 1.0, size=(64, 2))
        store = ProductStore(points)
        bundle = PruneSummaries(store, store, tile_size=8)
        assert bundle.centroid_refine_rate() == pytest.approx(1.0)

    def test_empty_pairs_defaults_to_refine(self):
        store = ProductStore(np.ones((2, 2)))
        bundle = PruneSummaries(store, store, tile_size=8)
        store.delete([0, 1])
        result = bundle.predict(np.array([0.5, 0.5]))
        assert result == {
            "pairs": 0,
            "skip": 0.0,
            "blocked": 0.0,
            "refine": 1.0,
        }
