"""Planner integration of the filter-refinement (pruned) operators.

The ``planner="pruned"`` pin dispatches to the pruned arms; auto mode
resolves to that pin only when the tile-summary refine rate is at most
``PRUNE_BELOW``, so it declines wherever classification cannot pay for
itself.
"""

import numpy as np
import pytest

from repro.config import WhyNotConfig
from repro.core.engine import WhyNotEngine
from repro.plan.cache import config_fingerprint
from repro.plan.logical import (
    BatchWhyNotQuery,
    MembershipMaskQuery,
    RSLQuery,
)
from repro.plan.planner import Planner

PRUNED_NAMES = {"rsl-pruned-kernel", "membership-pruned"}

LOGICALS = (RSLQuery(), MembershipMaskQuery(), BatchWhyNotQuery())


def rate(value: float):
    return lambda: value


class TestFixedMode:
    """Pinned arms (the planner choice fixed by ``config.planner``)."""

    def test_always_picks_pruned_operators(self):
        planner = Planner(WhyNotConfig(planner="pruned"))
        expected = {
            "reverse_skyline": "rsl-pruned-kernel",
            "membership": "membership-pruned",
            "batch": "batch-prefilter",
        }
        for logical in LOGICALS:
            assert planner.choose(logical, rate(1.0)).name == (
                expected[logical.surface]
            )
        batch = planner.plan(BatchWhyNotQuery(), rate(1.0))
        assert batch.children[1].operator.name == "membership-pruned"

    def test_prune_off_keeps_historical_dispatch(self):
        planner = Planner(WhyNotConfig(planner="kernel"))
        for logical in LOGICALS:
            assert planner.choose(logical, rate(0.0)).name not in PRUNED_NAMES

    def test_auto_prune_config_keeps_fixed_dispatch_unpruned(self):
        # Summaries predicting a large win make pruning auto's choice,
        # but a kernel pin still keeps the unpruned operators.
        planner = Planner(WhyNotConfig(planner="kernel"))
        logical = MembershipMaskQuery()
        auto = Planner(WhyNotConfig(planner="auto"))
        assert auto.choose(logical, rate(0.02)).name == "membership-pruned"
        assert planner.choose(logical, rate(0.02)).name == "membership-kernel"


class TestAutoMode:
    def test_declines_pruning_at_full_refine_rate(self):
        planner = Planner(WhyNotConfig(planner="auto"))
        for logical in LOGICALS:
            assert planner.choose(logical, rate(1.0)).name not in PRUNED_NAMES

    def test_prunes_at_low_refine_rate(self):
        planner = Planner(WhyNotConfig(planner="auto"))
        chosen = planner.choose(MembershipMaskQuery(), rate(0.02))
        assert chosen.name == "membership-pruned"

    #: The faster pin at each refine rate, as measured by the refine-rate
    #: sweep of EXPERIMENTS.md ("Planner rule"): the pruned mask won
    #: 2.7-16x at rates of 0.05-0.5, and the kernel won at 1.0.
    BEST_PIN = {0.0: "pruned", 0.05: "pruned", 0.5: "pruned", 1.0: "kernel"}

    @pytest.mark.parametrize("refine_rate", [0.0, 0.05, 0.5, 1.0])
    def test_auto_never_loses_to_best_fixed_arm(self, refine_rate):
        planner = Planner(WhyNotConfig(planner="auto"))
        best = Planner(WhyNotConfig(planner=self.BEST_PIN[refine_rate]))
        for logical in LOGICALS:
            chosen = planner.choose(logical, rate(refine_rate))
            assert chosen is best.choose(logical, rate(refine_rate))


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

    def test_selectivity_probe_steers_auto(self):
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
        assert engine.prune_summaries.tile_size == 8
        assert engine.prune_summaries.centroid_refine_rate() < 0.5
        engine.reverse_skyline(np.array([0.5, 0.5]))
        assert engine.last_plan.operator.name == "rsl-pruned-kernel"
