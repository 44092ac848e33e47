"""Bit-identity and accounting of the filter-refinement kernels."""

import numpy as np
import pytest

from repro.config import DominancePolicy
from repro.exceptions import InvalidParameterError
from repro.kernels.membership import (
    batch_lambda_counts,
    batch_verify_membership,
    batch_window_membership,
)
from repro.kernels.pruned import (
    _blocked_chunk_safe,
    batch_lambda_counts_pruned,
    batch_verify_membership_pruned,
    batch_window_membership_pruned,
)
from repro.prune.classify import tile_bounds
from repro.prune.counters import PruneCounters


def clustered(rng, n):
    """Sparse geometry: customers around 0.5, products in far clusters."""
    half = n // 2
    products = np.vstack(
        [
            rng.uniform(0.0, 0.1, size=(half, 2)),
            rng.uniform(0.9, 1.0, size=(n - half, 2)),
        ]
    )
    customers = rng.uniform(0.45, 0.55, size=(n, 2))
    return products, customers


class TestBitIdentity:
    @pytest.mark.parametrize(
        "policy", [DominancePolicy.WEAK, DominancePolicy.STRICT]
    )
    @pytest.mark.parametrize("tile_size", [3, 7, 64])
    def test_membership_matches_plain(self, policy, tile_size):
        rng = np.random.default_rng(0)
        products = rng.random((53, 2))
        customers = rng.random((41, 2))
        q = np.array([0.5, 0.5])
        plain = batch_window_membership(products, customers, q, policy)
        pruned = batch_window_membership_pruned(
            products, customers, q, policy, tile_size=tile_size
        )
        np.testing.assert_array_equal(plain, pruned)

    @pytest.mark.parametrize("tile_size", [3, 16])
    def test_lambda_matches_plain(self, tile_size):
        rng = np.random.default_rng(1)
        products = rng.random((37, 3))
        customers = rng.random((29, 3))
        q = rng.random(3)
        plain = batch_lambda_counts(products, customers, q)
        pruned = batch_lambda_counts_pruned(
            products, customers, q, tile_size=tile_size
        )
        np.testing.assert_array_equal(plain, pruned)

    def test_verify_matches_plain_with_tolerance(self):
        rng = np.random.default_rng(2)
        points = rng.random((40, 2))
        q = np.array([0.5, 0.5])
        sp = np.arange(40)
        plain = batch_verify_membership(points, points, q, self_positions=sp)
        pruned = batch_verify_membership_pruned(
            points, points, q, self_positions=sp, tile_size=8
        )
        np.testing.assert_array_equal(plain, pruned)

    def test_monochromatic_self_exclusion(self):
        rng = np.random.default_rng(3)
        points = rng.random((31, 2))
        q = np.array([0.4, 0.6])
        sp = np.arange(31)
        plain = batch_window_membership(points, points, q, self_positions=sp)
        pruned = batch_window_membership_pruned(
            points, points, q, self_positions=sp, tile_size=5
        )
        np.testing.assert_array_equal(plain, pruned)

    def test_one_row_chunk_self_exclusion_downgrade(self):
        # A single customer whose only would-be blocker is its own
        # product, sitting alone in a 1-row chunk: the all-blocked label
        # must be voided and the customer stays a member.
        products = np.array([[0.5, 0.5]])
        customers = np.array([[0.5, 0.5]])
        q = np.array([0.0, 0.0])
        sp = np.array([0])
        pruned = batch_window_membership_pruned(
            products, customers, q, self_positions=sp, tile_size=1
        )
        plain = batch_window_membership(
            products, customers, q, self_positions=sp
        )
        np.testing.assert_array_equal(plain, pruned)
        assert pruned[0]

    def test_precomputed_product_bounds(self):
        rng = np.random.default_rng(4)
        products, customers = clustered(rng, 48)
        q = np.array([0.5, 0.5])
        bounds = tile_bounds(products, 8)
        with_bounds = batch_window_membership_pruned(
            products, customers, q, tile_size=8, product_bounds=bounds
        )
        inline = batch_window_membership_pruned(
            products, customers, q, tile_size=8
        )
        np.testing.assert_array_equal(with_bounds, inline)

    def test_empty_inputs(self):
        q = np.array([0.5, 0.5])
        none = np.empty((0, 2))
        prods = np.random.default_rng(6).random((5, 2))
        assert batch_window_membership_pruned(prods, none, q).shape == (0,)
        out = batch_window_membership_pruned(none, prods, q)
        assert out.all() and out.shape == (5,)
        assert batch_lambda_counts_pruned(none, prods, q).sum() == 0


class TestAccounting:
    def test_counters_balance_on_sparse_geometry(self):
        rng = np.random.default_rng(7)
        products, customers = clustered(rng, 64)
        q = np.array([0.5, 0.5])
        pc = PruneCounters()
        batch_window_membership_pruned(
            products, customers, q, tile_size=8, prune_counters=pc
        )
        assert pc.balanced()
        snap = pc.snapshot()
        assert snap["pairs_total"] == 8 * 8
        assert snap["pairs_skipped"] > 0
        assert snap["tiles_skipped"] > 0

    def test_all_blocked_tile_charges_every_pair(self):
        # Customers far from q, products hugging the customers: every
        # chunk blocks every customer → one blocked chunk resolves the
        # tile and all pairs are charged as blocked.
        rng = np.random.default_rng(8)
        customers = rng.uniform(0.9, 1.0, size=(16, 2))
        products = rng.uniform(0.88, 1.0, size=(16, 2))
        q = np.array([0.0, 0.0])
        pc = PruneCounters()
        out = batch_window_membership_pruned(
            products, customers, q, tile_size=8, prune_counters=pc
        )
        assert not out.any()
        assert pc.balanced()
        snap = pc.snapshot()
        assert snap["tiles_all_blocked"] == 2
        assert snap["pairs_blocked"] == snap["pairs_total"] == 4

    def test_lambda_counts_blocked_pairs_as_refined(self):
        rng = np.random.default_rng(9)
        customers = rng.uniform(0.9, 1.0, size=(8, 2))
        products = rng.uniform(0.88, 1.0, size=(8, 2))
        q = np.array([0.0, 0.0])
        pc = PruneCounters()
        counts = batch_lambda_counts_pruned(
            products, customers, q, tile_size=8, prune_counters=pc
        )
        assert (counts == 8).all()
        snap = pc.snapshot()
        assert pc.balanced()
        assert snap["pairs_blocked"] == 0
        assert snap["pairs_refined"] == snap["pairs_total"]

    def test_counters_balance_random(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            n = int(rng.integers(1, 40))
            m = int(rng.integers(1, 40))
            products = rng.random((n, 2)) * rng.choice([0.2, 1.0, 5.0])
            customers = rng.random((m, 2)) * rng.choice([0.2, 1.0])
            q = rng.random(2)
            pc = PruneCounters()
            batch_window_membership_pruned(
                products,
                customers,
                q,
                tile_size=int(rng.integers(1, 16)),
                prune_counters=pc,
            )
            assert pc.balanced(), pc.snapshot()


class TestValidation:
    def test_bad_product_bounds_shape_raises(self):
        rng = np.random.default_rng(11)
        products = rng.random((20, 2))
        customers = rng.random((10, 2))
        bad = tile_bounds(products, 4)  # wrong width for tile_size=8
        with pytest.raises(InvalidParameterError):
            batch_window_membership_pruned(
                products,
                customers,
                np.array([0.5, 0.5]),
                tile_size=8,
                product_bounds=bad,
            )

    def test_bad_tile_size_raises(self):
        rng = np.random.default_rng(12)
        with pytest.raises(InvalidParameterError):
            batch_window_membership_pruned(
                rng.random((4, 2)),
                rng.random((4, 2)),
                np.array([0.5, 0.5]),
                tile_size=0,
            )
        with pytest.raises(InvalidParameterError):
            batch_lambda_counts_pruned(
                rng.random((4, 2)),
                rng.random((4, 2)),
                np.array([0.5, 0.5]),
                tile_size=-3,
            )

    def test_blocked_chunk_safe_rules(self):
        sp = np.array([5, 9])
        # >= 2 rows: always safe.
        assert _blocked_chunk_safe(0, 4, 20, sp)
        # 1-row tail chunk not containing any excluded product: safe.
        assert _blocked_chunk_safe(2, 4, 9, np.array([3]))
        # 1-row tail chunk that IS someone's own product: unsafe.
        assert not _blocked_chunk_safe(2, 4, 9, np.array([8]))
        # No exclusions at all: safe.
        assert _blocked_chunk_safe(2, 4, 9, None)
