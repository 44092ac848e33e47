"""Planner operator selection: each pin forces its arm, auto mode
picks the cheapest estimate, and an unknown surface is rejected."""

import numpy as np
import pytest

from repro.config import WhyNotConfig
from repro.core.engine import WhyNotEngine
from repro.core.safe_region import compute_safe_region
from repro.plan.cost import CostModel, DatasetStats
from repro.plan.logical import (
    BatchWhyNotQuery,
    MembershipMaskQuery,
    RetainedMaskQuery,
    RSLQuery,
    SafeRegionQuery,
)
from repro.plan.planner import Planner


def make_stats(n=1_000, m=1_000, dsl_warm=0):
    return DatasetStats(
        n=n, m=m, d=2, backend="scan", epoch=0, dsl_warm=dsl_warm
    )


SURFACES = (
    RSLQuery(),
    MembershipMaskQuery(count=5),
    RetainedMaskQuery(),
    SafeRegionQuery(),
    BatchWhyNotQuery(count=5),
)

#: pin -> operator per surface: RSL, membership, retained, exact safe
#: region, batch.
PIN_TABLE = {
    "index": (
        "rsl-index-verify",
        "membership-index-loop",
        "retained-index-loop",
        "sr-cached-fold",
        "batch-sequential",
    ),
    "kernel": (
        "rsl-kernel-verify",
        "membership-kernel",
        "retained-kernel",
        "sr-cached-fold",
        "batch-prefilter",
    ),
    "pruned": (
        "rsl-pruned-kernel",
        "membership-pruned",
        "retained-kernel",
        "sr-cached-fold",
        "batch-prefilter",
    ),
}


@pytest.mark.parametrize("pin", list(PIN_TABLE))
def test_pin_table(pin):
    """Every pin forces exactly its arm on every surface, planned and
    executed: the batch prefilter's membership child follows the pin
    too."""
    planner = Planner(WhyNotConfig(planner=pin))
    stats = make_stats()
    chosen = tuple(planner.choose(q, stats).name for q in SURFACES)
    assert chosen == PIN_TABLE[pin]
    batch = planner.plan(BatchWhyNotQuery(count=5), stats)
    assert [c.operator.name for c in batch.children] == list(
        PIN_TABLE[pin][3:4] + (PIN_TABLE[pin][1:2] if pin != "index" else ())
    )
    points = np.random.default_rng(7).random((40, 2))
    engine = WhyNotEngine(points, config=WhyNotConfig(planner=pin))
    q = np.array([0.5, 0.5])
    engine.safe_region(q)
    assert engine.last_plan.operator.name == PIN_TABLE[pin][3]
    engine.membership_mask([0, 1, 2], q)
    assert engine.last_plan.operator.name == PIN_TABLE[pin][1]


class TestFixedMode:
    """Pinned arms: the planner choice is fixed by ``config.planner``."""

    def test_kernel_config_picks_kernel_operators(self):
        planner = Planner(WhyNotConfig(planner="kernel"))
        stats = make_stats()
        assert planner.choose(RSLQuery(), stats).name == "rsl-kernel-verify"
        assert (
            planner.choose(MembershipMaskQuery(count=5), stats).name
            == "membership-kernel"
        )
        assert planner.choose(RetainedMaskQuery(), stats).name == "retained-kernel"
        assert (
            planner.choose(BatchWhyNotQuery(count=5), stats).name
            == "batch-prefilter"
        )

    def test_no_kernel_config_picks_index_operators(self):
        planner = Planner(WhyNotConfig(planner="index"))
        stats = make_stats()
        assert planner.choose(RSLQuery(), stats).name == "rsl-index-verify"
        assert (
            planner.choose(MembershipMaskQuery(count=5), stats).name
            == "membership-index-loop"
        )
        assert (
            planner.choose(RetainedMaskQuery(), stats).name
            == "retained-index-loop"
        )
        assert (
            planner.choose(BatchWhyNotQuery(count=5), stats).name
            == "batch-sequential"
        )

    def test_dsl_cache_config_selects_safe_region_fold(self):
        """One local fold either way: it reads the DSL cache whenever the
        engine keeps one (full-support defaults) and equals the uncached
        fold."""
        stats = make_stats()
        for weights in (None, (0.0, 1.0)):
            config = WhyNotConfig(planner="index", prefs_weights=weights)
            planner = Planner(config)
            chosen = planner.choose(SafeRegionQuery(), stats)
            assert chosen.name == "sr-cached-fold"
        points = np.random.default_rng(8).random((30, 2))
        cached = WhyNotEngine(points)
        assert cached.dsl_cache is not None
        q = np.array([0.5, 0.5])
        uncached = compute_safe_region(
            cached.index,
            points,
            q,
            cached.reverse_skyline(q),
            cached._geometry_bounds(q),
            self_exclude=True,
            dsl_cache=None,
        )
        assert cached.safe_region(q).area() == uncached.area()

    def test_approximate_safe_region_has_one_operator(self):
        for pin in ("index", "kernel", "pruned"):
            planner = Planner(WhyNotConfig(planner=pin))
            chosen = planner.choose(
                SafeRegionQuery(approximate=True, k=10), make_stats()
            )
            assert chosen.name == "sr-approx-store"


class TestAutoMode:
    def test_picks_minimum_estimated_cost(self):
        planner = Planner(WhyNotConfig(planner="auto"))
        stats = make_stats()
        logical = MembershipMaskQuery(count=8)
        model = CostModel()
        chosen = planner.choose(logical, stats)
        best = min(
            planner.candidates(logical, stats),
            key=lambda op: op.estimate(logical, stats, model).seconds,
        )
        assert chosen.name == best.name

    def test_auto_is_deterministic(self):
        planner = Planner(WhyNotConfig(planner="auto"))
        stats = make_stats()
        names = {planner.choose(RSLQuery(), stats).name for _ in range(10)}
        assert len(names) == 1


class TestCapabilityGating:
    def test_unknown_surface_rejected(self):
        class Bogus(RSLQuery):
            surface = "bogus"

        planner = Planner(WhyNotConfig())
        with pytest.raises(ValueError):
            planner.candidates(Bogus(), make_stats())


class TestPlanTrees:
    def test_safe_region_plan_nests_rsl_child(self):
        planner = Planner(WhyNotConfig())
        node = planner.plan(SafeRegionQuery(), make_stats())
        assert node.logical.surface == "safe_region"
        assert [c.logical.surface for c in node.children] == ["reverse_skyline"]
        assert node.estimate.seconds >= 0

    def test_batch_prefilter_plan_has_two_children(self):
        planner = Planner(WhyNotConfig(planner="kernel"))
        node = planner.plan(BatchWhyNotQuery(count=7), make_stats())
        assert node.operator.name == "batch-prefilter"
        surfaces = [c.logical.surface for c in node.children]
        assert surfaces == ["safe_region", "membership"]

    def test_batch_sequential_plan_drops_prefilter_child(self):
        planner = Planner(WhyNotConfig(planner="index"))
        node = planner.plan(BatchWhyNotQuery(count=7), make_stats())
        assert node.operator.name == "batch-sequential"
        surfaces = [c.logical.surface for c in node.children]
        assert surfaces == ["safe_region"]


class TestEngineWiring:
    def test_engine_planner_mode_from_config(self):
        points = np.random.default_rng(0).random((40, 2))
        auto = WhyNotEngine(points)
        pinned = WhyNotEngine(points, config=WhyNotConfig(planner="pruned"))
        assert auto.planner.config.planner == "auto"
        assert pinned.planner.config.planner == "pruned"

    def test_last_plan_tracks_surface_calls(self):
        points = np.random.default_rng(1).random((40, 2))
        engine = WhyNotEngine(points)
        q = np.array([0.5, 0.5])
        engine.reverse_skyline(q)
        assert engine.last_plan.logical.surface == "reverse_skyline"
        engine.safe_region(q)
        assert engine.last_plan.logical.surface == "safe_region"

    def test_dataset_stats_snapshot(self):
        points = np.random.default_rng(2).random((30, 2))
        engine = WhyNotEngine(points, backend="scan")
        stats = engine.dataset_stats()
        assert stats.n == 30 and stats.m == 30 and stats.d == 2
        assert stats.backend == "scan"
        assert stats.epoch == engine.dataset_epoch
