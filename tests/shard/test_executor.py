"""ShardExecutor: merge correctness against the single-process kernels.

The serial backend is the deterministic oracle — it runs the very same
task functions in-process — so most coverage runs there; one small
process-backend case per call shape proves the pool + shared-memory
path produces the same bits.
"""

import numpy as np
import pytest

from repro.config import DominancePolicy, WhyNotConfig
from repro.core.safe_region import compute_safe_region
from repro.exceptions import InvalidParameterError
from repro.geometry.box import Box
from repro.index.scan import ScanIndex
from repro.kernels.membership import batch_window_membership
from repro.shard import ShardExecutor
from repro.skyline.reverse import reverse_skyline_naive

POLICY = DominancePolicy.STRICT


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(11)
    return rng.random((90, 2)), rng.random((70, 2)), np.array([0.45, 0.55])


def canon(lo, hi):
    order = np.lexsort(np.hstack([lo, hi]).T[::-1])
    return lo[order], hi[order]


class TestKernelMerges:
    @pytest.mark.parametrize("shards", [1, 2, 3, 7])
    def test_serial_masks_and_counts(self, data, shards):
        products, customers, q = data
        ref_mask = batch_window_membership(products, customers, q, POLICY)
        with ShardExecutor(
            products,
            customers,
            shards=shards,
            backend="serial",
        ) as ex:
            rows = np.arange(customers.shape[0])
            assert np.array_equal(
                ex.membership_rows(rows, q, POLICY), ref_mask
            )
            assert np.array_equal(
                ex.membership_points(customers, q, POLICY), ref_mask
            )

    def test_process_backend_matches_serial(self, data):
        products, customers, q = data
        rows = np.arange(customers.shape[0])
        with ShardExecutor(
            products, customers, shards=2, backend="serial"
        ) as serial, ShardExecutor(
            products, customers, shards=2, backend="process"
        ) as proc:
            assert np.array_equal(
                proc.membership_rows(rows, q, POLICY),
                serial.membership_rows(rows, q, POLICY),
            )
            assert np.array_equal(
                proc.membership_points(customers, q, POLICY),
                serial.membership_points(customers, q, POLICY),
            )

    def test_monochromatic_self_exclusion(self, data):
        products, _, q = data
        sp = np.arange(products.shape[0], dtype=np.int64)
        ref = batch_window_membership(
            products, products, q, POLICY, self_positions=sp
        )
        with ShardExecutor(products, shards=3, backend="serial") as ex:
            assert np.array_equal(
                ex.membership_rows(sp, q, POLICY, self_positions=sp), ref
            )

    def test_row_subset_scatter(self, data):
        products, customers, q = data
        rows = np.array([5, 60, 2, 33, 41], dtype=np.int64)
        ref = batch_window_membership(products, customers[rows], q, POLICY)
        with ShardExecutor(products, customers, shards=3, backend="serial") as ex:
            assert np.array_equal(ex.membership_rows(rows, q, POLICY), ref)

    def test_empty_inputs(self, data):
        products, customers, q = data
        with ShardExecutor(products, customers, shards=2, backend="serial") as ex:
            empty = np.empty(0, dtype=np.int64)
            assert ex.membership_rows(empty, q, POLICY).shape == (0,)
            assert ex.membership_points(
                np.empty((0, 2)), q, POLICY
            ).shape == (0,)

    def test_counters(self, data):
        products, customers, q = data
        with ShardExecutor(products, customers, shards=4, backend="serial") as ex:
            ex.membership_points(customers, q, POLICY)
            snap = ex.stats.snapshot()
        assert snap["fanouts"] == 1
        assert snap["dispatched"] == 4
        assert snap["merged"] == 1
        assert snap["pool_starts"] == 0  # serial: no pool, no shm


class TestSafeRegionFold:
    @pytest.mark.parametrize("shards", [1, 2, 3, 7])
    def test_fold_matches_sequential(self, data, shards):
        products, customers, q = data
        index = ScanIndex(products)
        config = WhyNotConfig()
        bounds = Box(np.zeros(2), np.ones(2))
        rsl = reverse_skyline_naive(index, customers, q, config.policy)
        ref = compute_safe_region(index, customers, q, rsl, bounds, config)
        ref_lo, ref_hi = canon(ref.region.lo, ref.region.hi)
        with ShardExecutor(
            products, customers, shards=shards, backend="serial"
        ) as ex:
            lo, hi, info = ex.safe_region_fold(
                rsl,
                bounds.lo,
                bounds.hi,
                config.sort_dim,
                self_exclude=False,
            )
        got_lo, got_hi = canon(lo, hi)
        assert np.array_equal(got_lo, ref_lo)
        assert np.array_equal(got_hi, ref_hi)
        assert info["members"] == rsl.size

    def test_fold_with_no_members_is_universe(self, data):
        products, customers, _ = data
        with ShardExecutor(products, customers, shards=2, backend="serial") as ex:
            lo, hi, info = ex.safe_region_fold(
                np.empty(0, dtype=np.int64),
                np.zeros(2),
                np.ones(2),
                0,
                self_exclude=False,
            )
        assert lo.shape == (1, 2)
        assert np.array_equal(lo[0], np.zeros(2))
        assert np.array_equal(hi[0], np.ones(2))


class TestValidationAndLifecycle:
    def test_rejects_bad_arguments(self, data):
        products, customers, _ = data
        with pytest.raises(InvalidParameterError):
            ShardExecutor(products, customers, shards=0)
        with pytest.raises(InvalidParameterError):
            ShardExecutor(products, customers, shards=2, backend="thread")

    def test_close_is_idempotent(self, data):
        products, customers, q = data
        ex = ShardExecutor(products, customers, shards=2, backend="process")
        ex.membership_points(customers[:5], q, POLICY)
        ex.close()
        ex.close()
        with pytest.raises(InvalidParameterError):
            ex._ensure_pool()
