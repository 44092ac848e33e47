"""Property tests: worker telemetry is a balance sheet, not a sample.

The tentpole invariant of cross-process telemetry — the counter totals a
sharded engine merges from its workers equal the totals the serial
single-process engine would have recorded for the same workload, because
the serial shard backend runs the identical task code the process pool
runs.  Hypothesis drives the serial backend (pool startup per example
would dominate); one deterministic process-backend case seals the
invariant across a real pool.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Box, WhyNotConfig, WhyNotEngine
from repro.kernels.membership import KernelCounters
from repro.obs import Observability
from repro.shard.executor import ShardExecutor

BOUNDS = Box(np.zeros(2), np.ones(2))


def dyadic(values) -> np.ndarray:
    return np.round(np.asarray(values, dtype=np.float64) * 8) / 8


def point_lists(min_rows: int, max_rows: int):
    return st.integers(min_rows, max_rows).flatmap(
        lambda n: st.lists(
            st.floats(0, 1, allow_nan=False, width=32),
            min_size=n * 2,
            max_size=n * 2,
        ).map(lambda v: dyadic(v).reshape(-1, 2))
    )


def _sharded_engine(points, shards: int, backend: str = "serial"):
    return WhyNotEngine(
        points,
        backend="scan",
        config=WhyNotConfig(
            trace=True,
            planner="kernel",
            shards=shards,
            shard_backend=backend,
        ),
        bounds=BOUNDS,
    )


def _serial_engine(points):
    return WhyNotEngine(
        points,
        backend="scan",
        config=WhyNotConfig(trace=True, planner="kernel"),
        bounds=BOUNDS,
    )


def _workload(engine, points):
    q = dyadic(points[0] + 0.125)
    everyone = list(range(points.shape[0]))
    engine.membership_mask(everyone, q)
    engine.reverse_skyline(q)


def _kernel_totals(engine) -> dict[str, int]:
    return {
        field: counter.value
        for field, counter in engine._kernel_counters.counters().items()
        if counter.value
    }


@given(points=point_lists(4, 24), shards=st.sampled_from([1, 2, 3, 7]))
@settings(max_examples=15, deadline=None)
def test_sharded_row_totals_match_single_process(points, shards):
    """Row-granular counters are partition invariants: the rows entering
    a sweep don't change when the sweep is split across shards.  Block
    granular counters (tiles, product chunks) may only fragment upward —
    each shard blocks its slice independently."""
    serial = _serial_engine(points)
    sharded = _sharded_engine(points, shards)
    _workload(serial, points)
    _workload(sharded, points)
    serial_totals = _kernel_totals(serial)
    sharded_totals = _kernel_totals(sharded)
    assert serial_totals["customers_evaluated"] == (
        sharded_totals["customers_evaluated"]
    )
    assert sharded_totals.get("tiles", 0) >= serial_totals.get("tiles", 0)
    assert sharded_totals.get("product_chunks", 0) >= serial_totals.get(
        "product_chunks", 0
    )


@given(points=point_lists(4, 24), shards=st.sampled_from([2, 3, 7]))
@settings(max_examples=15, deadline=None)
def test_bundle_registry_and_totals_agree(points, shards):
    """Three views of the same merge — the parent counter bundle, the
    registry's ``shard.worker.*`` mirrors, and the executor's raw
    ``worker_totals`` ledger — never diverge."""
    engine = _sharded_engine(points, shards)
    _workload(engine, points)
    (executor,) = engine._shard_executors.values()
    worker_kernels = executor.worker_totals["kernels"]
    assert worker_kernels  # telemetry actually flowed
    for field, value in worker_kernels.items():
        assert (
            engine.obs.metrics.get(f"shard.worker.kernels.{field}").value
            == value
        )
        assert getattr(engine._kernel_counters, field).value == value


@given(points=point_lists(6, 30), shards=st.sampled_from([2, 3, 5]))
@settings(max_examples=15, deadline=None)
def test_customers_evaluated_is_additive_over_shards(points, shards):
    """Row-sharded membership touches every requested row exactly once
    across all shards — no row is dropped or double-counted."""
    obs = Observability(enabled=True)
    kc = KernelCounters()
    rows = np.arange(points.shape[0])
    with ShardExecutor(
        points,
        shards=shards,
        backend="serial",
        obs=obs,
        kernel_counters=kc,
    ) as executor:
        executor.membership_rows(rows, points[0], "strict")
    assert executor.worker_totals["kernels"]["customers_evaluated"] == len(
        rows
    )
    assert kc.snapshot()["customers_evaluated"] == len(rows)


def test_process_backend_telemetry_identical_end_to_end():
    """One deterministic seal: counters merged back over the real
    process pool equal the serial backend's, field for field."""
    rng = np.random.default_rng(31)
    points = dyadic(rng.random((40, 2)))
    serial = _sharded_engine(points, 2, backend="serial")
    pooled = _sharded_engine(points, 2, backend="process")
    _workload(serial, points)
    _workload(pooled, points)
    (serial_ex,) = serial._shard_executors.values()
    (pooled_ex,) = pooled._shard_executors.values()
    assert serial_ex.worker_totals == pooled_ex.worker_totals
    assert _kernel_totals(serial) == _kernel_totals(pooled)
    assert serial_ex.worker_totals["kernels"]
    pooled.close_shard_executors()
