"""Worker telemetry: per-task counter snapshots, the executor-side
merge, and survival across teardown and epoch-keyed rebuilds."""

import numpy as np
import pytest

from repro.config import WhyNotConfig
from repro.core.engine import WhyNotEngine
from repro.geometry.box import Box
from repro.kernels.membership import KernelCounters
from repro.obs import Observability
from repro.prune.counters import PruneCounters
from repro.shard import _worker
from repro.shard.executor import ShardExecutor
from repro.shard.stats import ShardStats

BOUNDS = Box(np.zeros(2), np.ones(2))


def _points(n: int, seed: int = 9) -> np.ndarray:
    return np.random.default_rng(seed).random((n, 2))


def _payload(rows: np.ndarray, query: np.ndarray, **extra) -> dict:
    payload = {
        "policy": "strict",
        "block_size": 64,
        "prune": False,
        "prune_tile_size": 64,
        "rows": rows,
        "query": query,
        "self_positions": None,
        "rtol": 0.0,
    }
    payload.update(extra)
    return payload


class TestTaskContract:
    def test_bare_result_without_telemetry_flag(self):
        points = _points(30)
        result = _worker.run_task(
            "membership_rows",
            _payload(np.arange(10), points[0]),
            (points, points),
        )
        assert isinstance(result, np.ndarray)

    def test_telemetry_flag_returns_result_and_snapshots(self):
        points = _points(30)
        result, snapshots = _worker.run_task(
            "membership_rows",
            _payload(np.arange(10), points[0], telemetry=True),
            (points, points),
        )
        assert isinstance(result, np.ndarray)
        assert set(snapshots) == {"kernels"}
        assert snapshots["kernels"]["customers_evaluated"] == 10

    def test_pruned_task_also_ships_prune_snapshot(self):
        points = _points(40)
        result, snapshots = _worker.run_task(
            "membership_rows",
            _payload(
                np.arange(20), points[0], telemetry=True, prune=True
            ),
            (points, points),
        )
        assert isinstance(result, np.ndarray)
        assert set(snapshots) == {"kernels", "prune"}
        prune = snapshots["prune"]
        assert prune["pairs_total"] == (
            prune["pairs_skipped"]
            + prune["pairs_blocked"]
            + prune["pairs_refined"]
        )

    def test_telemetry_never_changes_results(self):
        points = _points(50)
        rows = np.arange(25)
        bare = _worker.run_task(
            "membership_rows", _payload(rows, points[1]), (points, points)
        )
        wrapped, _ = _worker.run_task(
            "membership_rows",
            _payload(rows, points[1], telemetry=True),
            (points, points),
        )
        assert np.array_equal(bare, wrapped)

    def test_safe_region_chunk_ships_empty_snapshots(self):
        points = _points(20).astype(np.float64)
        payload = {
            "rows": np.arange(3),
            "bounds_lo": np.zeros(2),
            "bounds_hi": np.ones(2),
            "sort_dim": 0,
            "self_exclude": True,
            "telemetry": True,
        }
        result, snapshots = _worker.run_task(
            "safe_region_chunk", payload, (points, points)
        )
        assert snapshots == {}
        assert "lo" in result


class TestExecutorMerge:
    def test_merges_into_totals_bundles_and_registry(self):
        points = _points(80)
        obs = Observability(enabled=True)
        kc, pc = KernelCounters(), PruneCounters()
        stats = ShardStats()
        with ShardExecutor(
            points,
            shards=3,
            backend="serial",
            prune=True,
            obs=obs,
            stats=stats,
            kernel_counters=kc,
            prune_counters=pc,
        ) as ex:
            ex.membership_rows(np.arange(60), points[0], "strict")
        totals = ex.worker_totals["kernels"]
        assert totals["customers_evaluated"] == 60
        assert kc.snapshot()["customers_evaluated"] == 60
        assert (
            obs.metrics.get(
                "shard.worker.kernels.customers_evaluated"
            ).value
            == 60
        )
        assert stats.worker_merges == 3
        assert pc.balanced()

    def test_telemetry_auto_resolution(self):
        points = _points(10)
        assert ShardExecutor(points, shards=2).telemetry is False
        assert (
            ShardExecutor(
                points, shards=2, kernel_counters=KernelCounters()
            ).telemetry
            is True
        )
        assert (
            ShardExecutor(
                points, shards=2, obs=Observability(enabled=True)
            ).telemetry
            is True
        )
        assert (
            ShardExecutor(
                points, shards=2, obs=Observability(enabled=False)
            ).telemetry
            is False
        )
        assert (
            ShardExecutor(points, shards=2, telemetry=False).telemetry
            is False
        )

    def test_merge_without_obs_or_bundles_still_accumulates_totals(self):
        points = _points(40)
        with ShardExecutor(
            points, shards=2, backend="serial", telemetry=True
        ) as ex:
            ex.membership_rows(np.arange(30), points[0], "strict")
        assert ex.worker_totals["kernels"]["customers_evaluated"] == 30


class TestEngineLifecycle:
    def _engine(self, points: np.ndarray, backend: str) -> WhyNotEngine:
        return WhyNotEngine(
            points,
            backend="scan",
            config=WhyNotConfig(
                trace=True,
                planner="kernel",
                shards=2,
                shard_backend=backend,
            ),
            bounds=BOUNDS,
        )

    def test_kernel_totals_accurate_when_fanned_out(self):
        points = _points(120)
        engine = self._engine(points, "serial")
        q = np.array([0.5, 0.5])
        engine.membership_mask(list(range(100)), q)
        # Before worker telemetry these stayed at zero under fan-out.
        merged = engine.obs.metrics.get("kernels.customers_evaluated").value
        assert merged == 100
        engine.close_shard_executors()

    def test_merged_counters_survive_executor_teardown(self):
        points = _points(100)
        engine = self._engine(points, "serial")
        q = np.array([0.5, 0.5])
        engine.membership_mask(list(range(80)), q)
        before = engine.obs.metrics.get(
            "shard.worker.kernels.customers_evaluated"
        ).value
        assert before > 0
        engine.close_shard_executors()
        after = engine.obs.metrics.get(
            "shard.worker.kernels.customers_evaluated"
        ).value
        assert after == before

    def test_epoch_rebuild_keeps_counting_without_double_merge(self):
        points = _points(90)
        engine = self._engine(points, "serial")
        q = np.array([0.5, 0.5])
        engine.membership_mask(list(range(50)), q)
        merges_before = engine.shard_stats.worker_merges
        evaluated_before = engine.obs.metrics.get(
            "shard.worker.kernels.customers_evaluated"
        ).value
        engine.insert_products(np.array([[0.2, 0.8]]))  # epoch bump
        engine.membership_mask(list(range(50)), q)
        assert engine.shard_stats.worker_merges > merges_before
        evaluated_after = engine.obs.metrics.get(
            "shard.worker.kernels.customers_evaluated"
        ).value
        # Exactly one more request's worth of rows; nothing replayed.
        assert evaluated_after == evaluated_before + 50

    def test_process_pool_accounting_once_per_generation(self):
        points = _points(60)
        engine = self._engine(points, "process")
        q = np.array([0.5, 0.5])
        engine.membership_mask(list(range(40)), q)
        engine.membership_mask(list(range(40)), q)
        assert engine.shard_stats.pool_starts == 1
        assert engine.shard_stats.bytes_shared == points.nbytes
        assert (
            engine.obs.metrics.get(
                "shard.worker.kernels.customers_evaluated"
            ).value
            == 80
        )
        engine.close_shard_executors()

    def test_journal_records_worker_deltas(self):
        points = _points(100)
        engine = WhyNotEngine(
            points,
            backend="scan",
            config=WhyNotConfig(
                trace=True,
                journal=True,
                planner="kernel",
                shards=2,
                shard_backend="serial",
            ),
            bounds=BOUNDS,
        )
        engine.membership_mask(list(range(70)), np.array([0.5, 0.5]))
        (entry,) = engine.journal.records()
        assert (
            entry.counters["shard.worker.kernels.customers_evaluated"] == 70
        )
        assert entry.counters["kernels.customers_evaluated"] == 70
