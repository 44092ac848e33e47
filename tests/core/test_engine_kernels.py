"""Engine-level equivalence of the batch-kernel and per-customer paths.

Every path wired through :mod:`repro.kernels` must produce results
indistinguishable from the per-customer oracle (``planner="index"``) —
membership masks, lost-customer sets, MQP scores, safe regions and
precomputed DSL stores alike.
"""

import numpy as np
import pytest

from repro import WhyNotEngine
from repro.config import WhyNotConfig
from repro.core.approx import ApproximateDSLStore
from repro.data.synthetic import generate_uniform
from repro.index.scan import ScanIndex


@pytest.fixture(scope="module")
def dataset():
    return generate_uniform(300, seed=11)


def engine_pair(dataset):
    """The same engine pinned to the kernel and the index arm."""
    on = WhyNotEngine(
        dataset.points,
        backend="scan",
        bounds=dataset.bounds,
        config=WhyNotConfig(planner="kernel", kernel_block_size=64),
    )
    off = WhyNotEngine(
        dataset.points,
        backend="scan",
        bounds=dataset.bounds,
        config=WhyNotConfig(planner="index"),
    )
    return on, off


def queries(dataset, count=5):
    rng = np.random.default_rng(3)
    picks = rng.integers(0, dataset.points.shape[0], size=count)
    return np.clip(
        dataset.points[picks] * 1.02, dataset.bounds.lo, dataset.bounds.hi
    )


class TestEngineEquivalence:
    def test_reverse_skyline_matches(self, dataset):
        on, off = engine_pair(dataset)
        for q in queries(dataset):
            assert np.array_equal(on.reverse_skyline(q), off.reverse_skyline(q))

    def test_membership_mask_matches_is_member(self, dataset):
        on, off = engine_pair(dataset)
        rng = np.random.default_rng(5)
        for q in queries(dataset, count=3):
            whys = [int(rng.integers(0, 300)) for _ in range(8)]
            whys += [dataset.points[int(rng.integers(0, 300))] * 0.99]
            mask_on = on.membership_mask(whys, q)
            mask_off = off.membership_mask(whys, q)
            singles = np.array([on.is_member(w, q) for w in whys], dtype=bool)
            assert np.array_equal(mask_on, mask_off)
            assert np.array_equal(mask_on, singles)

    def test_lost_customers_matches(self, dataset):
        on, off = engine_pair(dataset)
        qs = queries(dataset)
        for q, q_star in zip(qs, np.roll(qs, 1, axis=0)):
            assert np.array_equal(
                on.lost_customers(q, q_star), off.lost_customers(q, q_star)
            )

    def test_mqp_total_cost_matches(self, dataset):
        on, off = engine_pair(dataset)
        qs = queries(dataset, count=3)
        for q, q_star in zip(qs, np.roll(qs, 1, axis=0)):
            assert on.mqp_total_cost(q, q_star) == pytest.approx(
                off.mqp_total_cost(q, q_star), abs=0.0
            )


class TestPrecompute:
    def test_store_precompute_matches_lazy(self, dataset):
        idx = ScanIndex(dataset.points)
        lazy = ApproximateDSLStore(idx, dataset.points, k=5, self_exclude=True)
        eager = ApproximateDSLStore(idx, dataset.points, k=5, self_exclude=True)
        positions = list(range(0, 60))
        eager.precompute(positions)
        assert len(eager) == len(positions)
        for position in positions:
            a = lazy.entry(position)
            b = eager.entry(position)
            assert np.array_equal(a.sampled, b.sampled)
            assert np.array_equal(a.minima, b.minima)

    def test_precompute_skips_cached_entries(self, dataset):
        idx = ScanIndex(dataset.points)
        store = ApproximateDSLStore(idx, dataset.points, k=4, self_exclude=True)
        first = store.entry(0)
        store.precompute(range(5))
        assert store.entry(0) is first
        assert len(store) == 5
