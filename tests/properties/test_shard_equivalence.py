"""Property tests: sharded execution changes runtimes, never answers.

The acceptance contract of the shard layer — every surface answered
through the sharded operators (the ``planner="kernel"`` pin with
``shards > 1`` forces them) is bit-identical to the single-process
engine, across shard counts, planner pins and all three index
backends.  The serial shard backend runs the identical worker code the
process pool runs, so it stands in for the pool under Hypothesis (pool
startup per example would dominate); one deterministic process-backend
case seals the equivalence end-to-end.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Box, WhyNotConfig, WhyNotEngine
from repro.experiments.audit import canonical_boxes

BOUNDS = Box(np.zeros(2), np.ones(2))
BACKENDS = ["scan", "grid", "rtree"]
QUERIES = [np.array([0.5, 0.5]), np.array([0.25, 0.625])]


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


def _sharded_config(shards: int, pin: str = "kernel", **overrides):
    return WhyNotConfig(
        planner=pin,
        shards=shards,
        shard_backend="serial",
        **overrides,
    )


def _assert_engines_agree(base: WhyNotEngine, sharded: WhyNotEngine):
    for q in QUERIES:
        assert np.array_equal(
            base.reverse_skyline(q), sharded.reverse_skyline(q)
        )
        everyone = list(range(base.customers.shape[0]))
        assert np.array_equal(
            base.membership_mask(everyone, q),
            sharded.membership_mask(everyone, q),
        )
        sr_base = base.safe_region(q)
        sr_sharded = sharded.safe_region(q)
        base_lo, base_hi = canonical_boxes(sr_base)
        shard_lo, shard_hi = canonical_boxes(sr_sharded)
        assert np.array_equal(base_lo, shard_lo)
        assert np.array_equal(base_hi, shard_hi)
        assert sr_base.area() == sr_sharded.area()
        # The tolerance-aware retained mask (lost_customers drives it).
        q_star = dyadic(q + 0.125)
        assert np.array_equal(
            base.lost_customers(q, q_star),
            sharded.lost_customers(q, q_star),
        )


@pytest.mark.parametrize("backend", BACKENDS)
@given(
    points=point_lists(4, 24),
    shards=st.sampled_from([1, 2, 3, 7]),
    pin=st.sampled_from(["index", "kernel", "pruned"]),
)
@settings(max_examples=15, deadline=None)
def test_sharded_monochromatic_identical(backend, points, shards, pin):
    base = WhyNotEngine(
        points,
        backend=backend,
        config=WhyNotConfig(planner="kernel"),
        bounds=BOUNDS,
    )
    sharded = WhyNotEngine(
        points,
        backend=backend,
        config=_sharded_config(shards, pin),
        bounds=BOUNDS,
    )
    _assert_engines_agree(base, sharded)


@given(
    products=point_lists(4, 20),
    customers=point_lists(3, 16),
    shards=st.sampled_from([2, 3, 7]),
)
@settings(max_examples=15, deadline=None)
def test_sharded_bichromatic_identical(products, customers, shards):
    base = WhyNotEngine(
        products,
        customers,
        backend="rtree",
        config=WhyNotConfig(planner="kernel"),
        bounds=BOUNDS,
    )
    sharded = WhyNotEngine(
        products,
        customers,
        backend="rtree",
        config=_sharded_config(shards),
        bounds=BOUNDS,
    )
    _assert_engines_agree(base, sharded)


@given(points=point_lists(4, 16), shards=st.sampled_from([2, 3]))
@settings(max_examples=10, deadline=None)
def test_sharded_survives_mutations(points, shards):
    """After a mutation the executor is rebuilt for the new epoch and
    the equivalence still holds."""
    base = WhyNotEngine(
        points,
        backend="grid",
        config=WhyNotConfig(planner="kernel"),
        bounds=BOUNDS,
    )
    sharded = WhyNotEngine(
        points,
        backend="grid",
        config=_sharded_config(shards),
        bounds=BOUNDS,
    )
    q = QUERIES[0]
    assert np.array_equal(base.reverse_skyline(q), sharded.reverse_skyline(q))
    row = dyadic(np.array([0.375, 0.875])).reshape(1, 2)
    base.insert_products(row)
    sharded.insert_products(row)
    _assert_engines_agree(base, sharded)


def test_process_backend_identical_end_to_end():
    """One deterministic seal: the real process pool over shared memory
    answers every surface with the same bits as the single-core path."""
    rng = np.random.default_rng(23)
    points = dyadic(rng.random((40, 2)))
    base = WhyNotEngine(
        points,
        backend="rtree",
        config=WhyNotConfig(planner="kernel"),
        bounds=BOUNDS,
    )
    sharded = WhyNotEngine(
        points,
        backend="rtree",
        config=WhyNotConfig(
            planner="kernel", shards=2, shard_backend="process"
        ),
        bounds=BOUNDS,
    )
    _assert_engines_agree(base, sharded)

