"""The cost model's filter-refinement (pruned) terms."""

import pytest

from repro.plan.cost import CostModel, DatasetStats


def make_stats(**kwargs):
    defaults = dict(
        n=1_000,
        m=1_000,
        d=2,
        backend="scan",
        epoch=0,
    )
    defaults.update(kwargs)
    return DatasetStats(**defaults)


class TestPrunedCostTerms:
    def test_classify_term_scales_with_pair_count(self):
        model = CostModel()
        small = make_stats(n=1_000, m=1_000)
        large = make_stats(n=100_000, m=100_000)
        assert model.prune_classify_seconds(
            1_000, small
        ) < model.prune_classify_seconds(100_000, large)

    def test_full_refine_rate_never_beats_plain_kernel(self):
        # refine_rate=1.0 means classification buys nothing: the pruned
        # estimate must be strictly worse so auto declines.
        model = CostModel()
        for rows in (10, 1_000, 100_000):
            stats = make_stats(
                n=50_000, m=50_000, prune_refine_rate=1.0
            )
            assert model.pruned_kernel_seconds(
                rows, stats
            ) > model.kernel_seconds(rows, stats)

    def test_low_refine_rate_wins_at_scale(self):
        model = CostModel()
        stats = make_stats(
            n=50_000, m=50_000, prune_refine_rate=0.02
        )
        rows = 10_000
        assert model.pruned_kernel_seconds(
            rows, stats
        ) < model.kernel_seconds(rows, stats)

    def test_refine_rate_clamped(self):
        model = CostModel()
        stats = make_stats(prune_refine_rate=7.5)
        capped = make_stats(prune_refine_rate=1.0)
        assert model.pruned_kernel_seconds(
            1_000, stats
        ) == pytest.approx(model.pruned_kernel_seconds(1_000, capped))
