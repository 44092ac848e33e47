"""Planner integration of the filter-refinement (pruned) operators.

The ``planner="pruned"`` pin dispatches to the pruned arms; auto mode treats
pruning as one more candidate whose kernel term is scaled by the tile-summary
selectivity probe, so it declines when the predicted refine rate says
classification cannot pay for itself.
"""

import numpy as np
import pytest

from repro.config import WhyNotConfig
from repro.core.engine import WhyNotEngine
from repro.plan.cache import config_fingerprint
from repro.plan.cost import CostModel, DatasetStats
from repro.plan.logical import (
    BatchWhyNotQuery,
    MembershipMaskQuery,
    RSLQuery,
)
from repro.plan.operators import candidate_operators
from repro.plan.planner import Planner

PRUNED_NAMES = {"rsl-pruned-kernel", "membership-pruned"}

LOGICALS = (RSLQuery(), MembershipMaskQuery(count=8), BatchWhyNotQuery(count=8))


def make_stats(n=10_000, m=10_000, refine_rate=1.0, **kwargs):
    return DatasetStats(
        n=n,
        m=m,
        d=2,
        backend="scan",
        epoch=0,
        prune_tile_size=512,
        prune_refine_rate=refine_rate,
        **kwargs,
    )


class TestFixedMode:
    """Pinned arms (the planner choice fixed by ``config.planner``)."""

    def test_always_picks_pruned_operators(self):
        planner = Planner(WhyNotConfig(planner="pruned"))
        stats = make_stats()
        expected = {
            "reverse_skyline": "rsl-pruned-kernel",
            "membership": "membership-pruned",
            "batch": "batch-prefilter",
        }
        for logical in LOGICALS:
            assert planner.choose(logical, stats).name == (
                expected[logical.surface]
            )
        batch = planner.plan(BatchWhyNotQuery(count=8), stats)
        assert batch.children[1].operator.name == "membership-pruned"

    def test_prune_off_keeps_historical_dispatch(self):
        planner = Planner(WhyNotConfig(planner="kernel"))
        stats = make_stats()
        for logical in LOGICALS:
            assert planner.choose(logical, stats).name not in PRUNED_NAMES

    def test_auto_prune_config_keeps_fixed_dispatch_unpruned(self):
        # Summaries predicting a large win make pruning auto's choice,
        # but a kernel pin still keeps the unpruned operators.
        planner = Planner(WhyNotConfig(planner="kernel"))
        stats = make_stats(n=50_000, m=50_000, refine_rate=0.02)
        logical = MembershipMaskQuery(count=512)
        auto = Planner(WhyNotConfig(planner="auto"))
        assert auto.choose(logical, stats).name == "membership-pruned"
        assert planner.choose(logical, stats).name == "membership-kernel"


class TestAutoMode:
    def test_declines_pruning_at_full_refine_rate(self):
        planner = Planner(WhyNotConfig(planner="auto"))
        stats = make_stats(refine_rate=1.0)
        for logical in LOGICALS:
            assert planner.choose(logical, stats).name not in PRUNED_NAMES

    def test_prunes_at_low_refine_rate(self):
        planner = Planner(WhyNotConfig(planner="auto"))
        stats = make_stats(n=50_000, m=50_000, refine_rate=0.02)
        chosen = planner.choose(MembershipMaskQuery(count=512), stats)
        assert chosen.name == "membership-pruned"

    @pytest.mark.parametrize("refine_rate", [0.0, 0.05, 0.5, 1.0])
    def test_auto_never_loses_to_best_fixed_arm(self, refine_rate):
        planner = Planner(WhyNotConfig(planner="auto"))
        stats = make_stats(refine_rate=refine_rate)
        model = CostModel()
        for logical in LOGICALS:
            chosen = planner.choose(logical, stats)
            best = min(
                op.estimate(logical, stats, model).seconds
                for op in planner.candidates(logical, stats)
            )
            got = chosen.estimate(logical, stats, model).seconds
            assert got <= best * 1.05

    def test_pruned_estimate_scales_with_refine_rate(self):
        model = CostModel()
        logical = MembershipMaskQuery(count=512)
        (op,) = [
            op for op in candidate_operators(logical) if op.variant == "pruned"
        ]
        cheap = op.estimate(logical, make_stats(refine_rate=0.01), model)
        dear = op.estimate(logical, make_stats(refine_rate=1.0), model)
        assert cheap.seconds < dear.seconds


class TestPlanCacheKeys:
    def test_fingerprint_differs_across_prune_values(self):
        fps = {
            config_fingerprint(WhyNotConfig(planner=mode))
            for mode in ("kernel", "auto", "pruned")
        }
        assert len(fps) == 3

    def test_fingerprint_differs_across_tile_sizes(self):
        assert config_fingerprint(
            WhyNotConfig(prune_tile_size=128)
        ) != config_fingerprint(WhyNotConfig(prune_tile_size=256))


class TestEngineWiring:
    def test_explain_plan_reports_pruned_operator(self):
        points = np.random.default_rng(0).random((60, 2))
        engine = WhyNotEngine(
            points,
            backend="scan",
            config=WhyNotConfig(planner="pruned"),
        )
        report = engine.explain_plan("reverse_skyline", np.array([0.5, 0.5]))
        assert report.root.operator.name == "rsl-pruned-kernel"

    def test_default_config_builds_summaries(self):
        points = np.random.default_rng(2).random((30, 2))
        for pin in ("auto", "index", "kernel", "pruned"):
            engine = WhyNotEngine(
                points, backend="scan", config=WhyNotConfig(planner=pin)
            )
            assert engine.prune_summaries is not None
            assert engine.prune_summaries.tile_size == engine.prune_tile_size

    def test_dataset_stats_sample_the_selectivity_probe(self):
        rng = np.random.default_rng(3)
        products = np.vstack(
            [
                rng.uniform(0.0, 0.05, size=(32, 2)),
                rng.uniform(0.95, 1.0, size=(32, 2)),
            ]
        )
        customers = rng.uniform(0.45, 0.55, size=(64, 2))
        engine = WhyNotEngine(
            products,
            customers,
            backend="scan",
            config=WhyNotConfig(prune_tile_size=8),
        )
        stats = DatasetStats.of(engine)
        assert stats.prune_tile_size == 8
        assert stats.prune_refine_rate < 0.5
