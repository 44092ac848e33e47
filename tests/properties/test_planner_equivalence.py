"""Property tests: planner mode changes runtimes, never answers.

``planner="auto"`` (cost-based operator selection) and every pinned arm
(``planner="index"`` / ``"kernel"`` / ``"pruned"``) must produce
bit-identical results on EVERY why-not surface, on every index backend,
under random datasets and random mutation programs.  This is the
acceptance contract of the planner/executor decomposition: operator
choice is invisible.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Box, WhyNotConfig, WhyNotEngine
from repro.core.safe_region import compute_safe_region

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


def mutation_ops():
    return st.tuples(
        st.sampled_from(["insert", "delete", "update"]),
        st.floats(0, 1, exclude_max=True, allow_nan=False),
        st.lists(
            st.floats(0, 1, allow_nan=False, width=32), min_size=2, max_size=2
        ).map(dyadic),
    )


def _apply(engine: WhyNotEngine, op) -> None:
    kind, fraction, row = op
    n = engine.products.shape[0]
    if kind == "insert":
        engine.insert_products(row.reshape(1, 2))
    elif kind == "delete" and n > 2:
        engine.delete_products([int(fraction * n)])
    elif kind == "update":
        engine.update_products([int(fraction * n)], row.reshape(1, 2))


def _mod_equal(a, b) -> bool:
    if len(a.candidates) != len(b.candidates):
        return False
    return all(
        np.array_equal(x.point, y.point) and x.cost == y.cost
        for x, y in zip(a.candidates, b.candidates)
    )


def _assert_all_surfaces_equal(auto: WhyNotEngine, fixed: WhyNotEngine):
    for q in QUERIES:
        # Reverse skyline + membership.
        assert np.array_equal(auto.reverse_skyline(q), fixed.reverse_skyline(q))
        everyone = list(range(auto.customers.shape[0]))
        assert np.array_equal(
            auto.membership_mask(everyone, q), fixed.membership_mask(everyone, q)
        )
        target = min(1, len(everyone) - 1)
        # Aspect 1: the Λ set.
        assert np.array_equal(
            auto.explain(target, q).culprit_positions,
            fixed.explain(target, q).culprit_positions,
        )
        # Algorithms 1 and 2.
        assert _mod_equal(
            auto.modify_why_not_point(target, q),
            fixed.modify_why_not_point(target, q),
        )
        assert _mod_equal(
            auto.modify_query_point(target, q),
            fixed.modify_query_point(target, q),
        )
        # Algorithm 3, exact and approximate.
        a, b = auto.safe_region(q).region, fixed.safe_region(q).region
        assert np.array_equal(a.lo, b.lo) and np.array_equal(a.hi, b.hi)
        a = auto.safe_region(q, approximate=True, k=4).region
        b = fixed.safe_region(q, approximate=True, k=4).region
        assert np.array_equal(a.lo, b.lo) and np.array_equal(a.hi, b.hi)
        # Algorithm 4 (MWQ).
        mwq_a = auto.modify_both(target, q)
        mwq_b = fixed.modify_both(target, q)
        assert mwq_a.case == mwq_b.case
        assert mwq_a.cost == mwq_b.cost
        # Lost customers of a refined query.
        q_star = dyadic(q * 0.75 + 0.125)
        assert np.array_equal(
            auto.lost_customers(q, q_star), fixed.lost_customers(q, q_star)
        )
    # Batch answering (same query, several questions).
    q = QUERIES[0]
    probes = list(range(min(3, auto.customers.shape[0])))
    from repro.core.batch import answer_why_not_batch

    for ans_a, ans_b in zip(
        answer_why_not_batch(auto, probes, q),
        answer_why_not_batch(fixed, probes, q),
    ):
        assert ans_a.already_member == ans_b.already_member
        assert ans_a.mwq.case == ans_b.mwq.case
        assert ans_a.mwq.cost == ans_b.mwq.cost
        assert np.array_equal(
            ans_a.explanation.culprit_positions,
            ans_b.explanation.culprit_positions,
        )


PINS = st.sampled_from(["index", "kernel", "pruned"])


def _pair(points, backend, pin, **config_kwargs):
    return (
        WhyNotEngine(
            points,
            backend=backend,
            bounds=BOUNDS,
            config=WhyNotConfig(planner="auto", **config_kwargs),
        ),
        WhyNotEngine(
            points,
            backend=backend,
            bounds=BOUNDS,
            config=WhyNotConfig(planner=pin, **config_kwargs),
        ),
    )


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=10, deadline=None)
@given(points=point_lists(5, 10), pin=PINS)
def test_auto_and_fixed_agree_on_every_surface(backend, points, pin):
    auto, fixed = _pair(points, backend, pin)
    _assert_all_surfaces_equal(auto, fixed)


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=8, deadline=None)
@given(
    points=point_lists(6, 10),
    ops=st.lists(mutation_ops(), min_size=1, max_size=3),
    pin=PINS,
)
def test_agreement_survives_mutation_programs(backend, points, ops, pin):
    auto, fixed = _pair(points, backend, pin)
    for engine in (auto, fixed):
        for q in QUERIES:  # warm caches so eviction paths are exercised
            engine.reverse_skyline(q)
            engine.safe_region(q)
        for op in ops:
            _apply(engine, op)
    assert auto.dataset_epoch == fixed.dataset_epoch
    _assert_all_surfaces_equal(auto, fixed)


@settings(max_examples=8, deadline=None)
@given(points=point_lists(5, 10))
def test_agreement_without_kernels_or_dsl_cache(points):
    """The index-pinned oracle arm agrees with whatever auto picks, and
    both engines' cached safe regions equal the uncached fold."""
    auto, fixed = _pair(points, "scan", "index")
    _assert_all_surfaces_equal(auto, fixed)
    for q in QUERIES:
        uncached = compute_safe_region(
            fixed.index,
            points,
            q,
            fixed.reverse_skyline(q),
            fixed._geometry_bounds(q),
            self_exclude=True,
            dsl_cache=None,
        )
        for engine in (auto, fixed):
            region = engine.safe_region(q).region
            assert np.array_equal(region.lo, uncached.region.lo)
            assert np.array_equal(region.hi, uncached.region.hi)
