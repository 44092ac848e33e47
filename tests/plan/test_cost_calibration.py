"""Measured calibration of the cost model's dispatch constants."""

import pytest

import repro.plan.cost as cost
from repro.plan.cost import CostModel, DatasetStats, measured_shard_dispatch_s


def make_stats(**kwargs):
    defaults = dict(
        n=1_000,
        m=1_000,
        d=2,
        backend="scan",
        epoch=0,
        cpus=1,
    )
    defaults.update(kwargs)
    return DatasetStats(**defaults)


class TestMeasuredShardDispatch:
    def test_probe_returns_positive_seconds(self):
        value = measured_shard_dispatch_s()
        assert value >= 1e-5
        assert value < 10.0  # sanity: dispatch is not tens of seconds

    def test_memoized_per_process(self, monkeypatch):
        first = measured_shard_dispatch_s()
        # Poison the pool machinery: a second call must not touch it.
        import concurrent.futures

        monkeypatch.setattr(
            concurrent.futures,
            "ProcessPoolExecutor",
            None,
        )
        assert measured_shard_dispatch_s() == first

    def test_refresh_resamples(self, monkeypatch):
        measured_shard_dispatch_s()
        monkeypatch.setattr(cost, "_MEASURED_SHARD_DISPATCH", 123.0)
        assert measured_shard_dispatch_s() == 123.0
        assert measured_shard_dispatch_s(refresh=True) != 123.0

    def test_failure_falls_back_to_calibrated_constant(self, monkeypatch):
        monkeypatch.setattr(cost, "_MEASURED_SHARD_DISPATCH", None)
        import multiprocessing

        def boom(*args, **kwargs):
            raise RuntimeError("no multiprocessing here")

        monkeypatch.setattr(multiprocessing, "get_context", boom)
        assert measured_shard_dispatch_s() == CostModel.SHARD_DISPATCH_S
        monkeypatch.setattr(cost, "_MEASURED_SHARD_DISPATCH", None)

    def test_process_backend_uses_measured_probe(self, monkeypatch):
        monkeypatch.setattr(cost, "_MEASURED_SHARD_DISPATCH", 0.123)
        model = CostModel()
        proc = make_stats(shards=2, shard_backend="process")
        serial = make_stats(shards=2, shard_backend="serial")
        assert model.shard_task_seconds(proc) == 0.123
        assert model.shard_task_seconds(serial) == (
            model.SERIAL_SHARD_DISPATCH_S
        )


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
