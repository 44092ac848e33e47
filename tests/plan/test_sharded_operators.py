"""Planner integration of the sharded physical operators.

The kernel and pruned pins dispatch to the sharded arms whenever the
user opted in (``shards > 1``); auto mode treats fan-out as one more
candidate and must never lose meaningfully to the best pinned arm — on
tiny inputs or a single CPU it declines to fan out.
"""

import numpy as np
import pytest

from repro.config import WhyNotConfig
from repro.core.engine import WhyNotEngine
from repro.plan.cost import CostModel, DatasetStats
from repro.plan.logical import (
    BatchWhyNotQuery,
    MembershipMaskQuery,
    RetainedMaskQuery,
    RSLQuery,
    SafeRegionQuery,
)
from repro.plan.planner import Planner

SHARDED_NAMES = {
    "rsl-sharded-kernel",
    "membership-sharded",
    "retained-sharded",
    "sr-sharded-fold",
}

LOGICALS = (
    RSLQuery(),
    MembershipMaskQuery(count=8),
    RetainedMaskQuery(),
    SafeRegionQuery(),
    BatchWhyNotQuery(count=8),
)


def make_stats(n=1_000, m=1_000, cpus=1, shards=1, shard_backend="process"):
    return DatasetStats(
        n=n,
        m=m,
        d=2,
        backend="scan",
        epoch=0,
        cpus=cpus,
        shards=shards,
        shard_backend=shard_backend,
    )


class TestFixedMode:
    """Pinned arms (the planner choice fixed by ``config.planner``)."""

    def test_shards_opt_in_picks_sharded_operators(self):
        planner = Planner(WhyNotConfig(planner="kernel", shards=4))
        stats = make_stats(shards=4)
        expected = {
            "reverse_skyline": "rsl-sharded-kernel",
            "membership": "membership-sharded",
            "retained_mask": "retained-sharded",
            "safe_region": "sr-sharded-fold",
            "batch": "batch-prefilter",
        }
        for logical in LOGICALS:
            chosen = planner.choose(logical, stats)
            assert chosen.name == expected[logical.surface]

    def test_single_shard_keeps_historical_dispatch(self):
        planner = Planner(WhyNotConfig(planner="kernel", shards=1))
        stats = make_stats(shards=1)
        for logical in LOGICALS:
            assert planner.choose(logical, stats).name not in SHARDED_NAMES

    def test_box_budget_safe_region_falls_back(self):
        planner = Planner(
            WhyNotConfig(planner="kernel", shards=4, sr_box_budget=32)
        )
        chosen = planner.choose(SafeRegionQuery(), make_stats(shards=4))
        assert chosen.name == "sr-cached-fold"


class TestAutoMode:
    def test_declines_fanout_on_one_cpu(self):
        planner = Planner(WhyNotConfig(planner="auto", shards=4))
        stats = make_stats(n=2_000, m=2_000, cpus=1, shards=4)
        for logical in LOGICALS:
            assert planner.choose(logical, stats).name not in SHARDED_NAMES

    def test_declines_fanout_on_tiny_inputs(self):
        planner = Planner(WhyNotConfig(planner="auto", shards=4))
        stats = make_stats(n=50, m=50, cpus=8, shards=4)
        for logical in (RSLQuery(), MembershipMaskQuery(count=4)):
            assert planner.choose(logical, stats).name not in SHARDED_NAMES

    def test_fans_out_on_large_inputs_with_many_cpus(self):
        planner = Planner(WhyNotConfig(planner="auto", shards=8))
        stats = make_stats(n=2_000_000, m=2_000_000, cpus=8, shards=8)
        chosen = planner.choose(RSLQuery(), stats)
        assert chosen.name == "rsl-sharded-kernel"

    @pytest.mark.parametrize(
        "stats",
        [
            make_stats(n=100, m=100, cpus=1, shards=2),
            make_stats(n=10_000, m=10_000, cpus=4, shards=4),
            make_stats(n=1_000_000, m=1_000_000, cpus=8, shards=8),
        ],
        ids=["tiny-1cpu", "mid-4cpu", "large-8cpu"],
    )
    def test_auto_never_loses_to_best_fixed_arm(self, stats):
        """The acceptance criterion: auto's estimated cost is within 5%
        of the best candidate under the same cost model."""
        planner = Planner(WhyNotConfig(planner="auto", shards=stats.shards))
        model = CostModel()
        for logical in LOGICALS:
            chosen = planner.choose(logical, stats)
            best = min(
                op.estimate(logical, stats, model).seconds
                for op in planner.candidates(logical, stats)
            )
            got = chosen.estimate(logical, stats, model).seconds
            assert got <= best * 1.05


class TestCostModel:
    def test_serial_backend_has_no_parallel_speedup(self):
        # Large enough that the kernel work dwarfs dispatch overhead —
        # there the serial backend (1 worker) must cost more than the
        # process pool (8 workers).
        model = CostModel()
        proc = make_stats(
            n=100_000, cpus=8, shards=8, shard_backend="process"
        )
        serial = make_stats(
            n=100_000, cpus=8, shards=8, shard_backend="serial"
        )
        assert model.shard_workers(proc) == 8
        assert model.shard_workers(serial) == 1
        assert model.sharded_kernel_seconds(
            100_000, serial
        ) > model.sharded_kernel_seconds(100_000, proc)

    def test_workers_capped_by_cpus(self):
        model = CostModel()
        assert model.shard_workers(make_stats(cpus=2, shards=8)) == 2

    def test_fanout_cost_grows_with_shards(self):
        model = CostModel()
        few = make_stats(cpus=8, shards=2)
        many = make_stats(cpus=8, shards=16)
        assert model.fanout_seconds(many) > model.fanout_seconds(few)


class TestEngineWiring:
    def test_prepare_batch_shows_sharded_tree(self):
        points = np.random.default_rng(3).random((60, 2))
        engine = WhyNotEngine(
            points,
            config=WhyNotConfig(
                planner="kernel", shards=2, shard_backend="serial"
            ),
        )
        prepared = engine.prepare(
            "batch", [np.array([0.2, 0.3]), np.array([0.6, 0.7])],
            np.array([0.5, 0.5]),
        )
        assert prepared.node.operator.name == "batch-prefilter"
        child_ops = {c.operator.name for c in prepared.node.children}
        assert "sr-sharded-fold" in child_ops
        assert "membership-sharded" in child_ops

    def test_explain_plan_reports_sharded_operator(self):
        points = np.random.default_rng(4).random((50, 2))
        engine = WhyNotEngine(
            points,
            config=WhyNotConfig(
                planner="kernel", shards=3, shard_backend="serial"
            ),
        )
        report = engine.explain_plan("reverse_skyline", np.array([0.5, 0.5]))
        assert report.root.operator.name == "rsl-sharded-kernel"

    def test_auto_on_small_input_leaves_shard_counters_zero(self):
        points = np.random.default_rng(5).random((50, 2))
        engine = WhyNotEngine(
            points, config=WhyNotConfig(planner="auto", shards=2)
        )
        engine.reverse_skyline(np.array([0.5, 0.5]))
        engine.safe_region(np.array([0.5, 0.5]))
        snap = engine.shard_stats.snapshot()
        assert snap["fanouts"] == 0
        assert snap["dispatched"] == 0

    def test_mutation_rebuilds_executor_for_new_epoch(self):
        points = np.random.default_rng(6).random((40, 2))
        engine = WhyNotEngine(
            points,
            config=WhyNotConfig(
                planner="kernel", shards=2, shard_backend="serial"
            ),
        )
        q = np.array([0.5, 0.5])
        engine.reverse_skyline(q)
        assert set(engine._shard_executors) == {engine.dataset_epoch}
        engine.insert_products(np.array([[0.25, 0.75]]))
        # The commit hook closes the stale executor eagerly.
        assert engine._shard_executors == {}
        # The next sharded dispatch rebuilds one for the new epoch
        # (membership is never answered from a cross-epoch cache).
        engine.membership_mask(list(range(5)), q)
        assert set(engine._shard_executors) == {engine.dataset_epoch}


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"shards": 0},
            {"shards": -2},
            {"shard_backend": "thread"},
            {"shard_backend": "fork"},
            {"planner": "sharded"},
        ],
    )
    def test_rejects_bad_shard_settings(self, kwargs):
        with pytest.raises(ValueError):
            WhyNotConfig(**kwargs)

    def test_accepts_valid_shard_settings(self):
        config = WhyNotConfig(
            shards=4,
            shard_backend="serial",
        )
        assert config.shards == 4
