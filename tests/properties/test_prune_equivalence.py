"""Property tests: filter-refinement pruning changes work, never answers.

The acceptance contract of the prune layer — every surface answered
through the pruned operators (the ``planner="pruned"`` pin forces them)
is bit-identical to the unpruned ``planner="kernel"`` engine, across
tile sizes, both index backends and random mutation programs driving
the incremental tile-summary maintenance.
The counter balance invariant (pairs skipped + blocked + refined ==
total) must hold on every traced run.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Box, WhyNotConfig, WhyNotEngine

BOUNDS = Box(np.zeros(2), np.ones(2))
BACKENDS = ["scan", "rtree"]
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


def _pruned_config(**overrides) -> WhyNotConfig:
    return WhyNotConfig(planner="pruned", **overrides)


def _assert_engines_agree(base: WhyNotEngine, pruned: WhyNotEngine):
    for q in QUERIES:
        assert np.array_equal(
            base.reverse_skyline(q), pruned.reverse_skyline(q)
        )
        everyone = list(range(base.customers.shape[0]))
        assert np.array_equal(
            base.membership_mask(everyone, q),
            pruned.membership_mask(everyone, q),
        )
        for w in everyone[:3]:
            assert np.array_equal(
                base.explain(w, q).culprit_positions,
                pruned.explain(w, q).culprit_positions,
            )
    counters = pruned._prune_counters
    if counters is not None:
        assert counters.balanced(), counters.snapshot()


@pytest.mark.parametrize("backend", BACKENDS)
@given(
    points=point_lists(4, 24),
    tile_size=st.sampled_from([1, 3, 8, 512]),
)
@settings(max_examples=15, deadline=None)
def test_pruned_monochromatic_identical(backend, points, tile_size):
    base = WhyNotEngine(
        points,
        backend=backend,
        config=WhyNotConfig(planner="kernel"),
        bounds=BOUNDS,
    )
    pruned = WhyNotEngine(
        points,
        backend=backend,
        config=_pruned_config(prune_tile_size=tile_size, trace=True),
        bounds=BOUNDS,
    )
    _assert_engines_agree(base, pruned)


@given(
    products=point_lists(4, 20),
    customers=point_lists(3, 16),
    tile_size=st.sampled_from([2, 8]),
)
@settings(max_examples=15, deadline=None)
def test_pruned_bichromatic_identical(products, customers, tile_size):
    base = WhyNotEngine(
        products,
        customers,
        backend="rtree",
        config=WhyNotConfig(planner="kernel"),
        bounds=BOUNDS,
    )
    pruned = WhyNotEngine(
        products,
        customers,
        backend="rtree",
        config=_pruned_config(prune_tile_size=tile_size, trace=True),
        bounds=BOUNDS,
    )
    _assert_engines_agree(base, pruned)


@given(
    points=point_lists(6, 16),
    program=st.lists(
        st.tuples(
            st.sampled_from(["insert", "delete", "update"]),
            st.integers(0, 2 ** 16),
        ),
        min_size=1,
        max_size=4,
    ),
)
@settings(max_examples=10, deadline=None)
def test_pruned_survives_mutation_programs(points, program):
    """Random insert/delete/update programs applied to both engines:
    the incrementally maintained tile summaries keep the pruned arm
    bit-identical after every step."""
    base = WhyNotEngine(
        points,
        backend="scan",
        config=WhyNotConfig(planner="kernel"),
        bounds=BOUNDS,
    )
    pruned = WhyNotEngine(
        points,
        backend="scan",
        config=_pruned_config(prune_tile_size=4, trace=True),
        bounds=BOUNDS,
    )
    q = QUERIES[0]
    assert np.array_equal(base.reverse_skyline(q), pruned.reverse_skyline(q))
    for kind, raw in program:
        n = base.products.shape[0]
        rng = np.random.default_rng(raw)
        if kind == "insert" or n <= 4:
            rows = dyadic(rng.random((int(rng.integers(1, 4)), 2)))
            base.insert_products(rows)
            pruned.insert_products(rows)
        elif kind == "delete":
            victims = sorted(
                int(i) for i in rng.choice(n, min(2, n - 3), replace=False)
            )
            base.delete_products(victims)
            pruned.delete_products(victims)
        else:
            count = min(3, n)
            positions = sorted(
                int(i) for i in rng.choice(n, count, replace=False)
            )
            rows = dyadic(rng.random((count, 2)))
            base.update_products(positions, rows)
            pruned.update_products(positions, rows)
        _assert_engines_agree(base, pruned)


@given(points=point_lists(4, 20))
@settings(max_examples=10, deadline=None)
def test_auto_planner_identical_to_unpruned(points):
    """planner="auto" may pick either arm; whichever it picks, the
    answers match the unpruned kernel-pinned engine."""
    base = WhyNotEngine(
        points,
        backend="scan",
        config=WhyNotConfig(planner="kernel"),
        bounds=BOUNDS,
    )
    auto = WhyNotEngine(
        points,
        backend="scan",
        config=WhyNotConfig(planner="auto"),
        bounds=BOUNDS,
    )
    _assert_engines_agree(base, auto)


def test_counter_balance_is_engine_observable():
    """The prune.* counters land in the obs registry and balance."""
    rng = np.random.default_rng(31)
    points = dyadic(rng.random((60, 2)))
    engine = WhyNotEngine(
        points,
        backend="scan",
        config=_pruned_config(prune_tile_size=8, trace=True),
        bounds=BOUNDS,
    )
    everyone = list(range(60))
    engine.membership_mask(everyone, QUERIES[0])
    snap = engine.obs.metrics.snapshot()
    total = snap["prune.pairs_total"]
    assert total > 0
    assert (
        snap["prune.pairs_skipped"]
        + snap["prune.pairs_blocked"]
        + snap["prune.pairs_refined"]
        == total
    )
    assert engine._prune_counters.balanced()
