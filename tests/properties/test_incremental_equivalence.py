"""Property tests: a mutated engine is bit-identical to a fresh one.

The mutation contract is absolute — after ANY sequence of store
mutations, every query surface (reverse skyline, membership, exact and
approximate safe regions) must equal a cold engine built over the final
matrices, on every index backend.  Hypothesis drives random mutation
programs over tie-rich dyadic data, with every cache warmed first, to
hunt for state that survives the flush.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Box, WhyNotEngine

# Bounds are the domain, not the data extent: pin them so the fresh
# comparison engine cannot infer a different box after mutations.
BOUNDS = Box(np.zeros(2), np.ones(2))

BACKENDS = ["scan", "rtree"]


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
    """One abstract mutation: (kind, row-fraction, replacement point).

    The fraction picks a position scaled by the live row count at apply
    time, so ops stay valid however the preceding ops resized the store.
    """
    return st.tuples(
        st.sampled_from(["insert", "delete", "update"]),
        st.floats(0, 1, exclude_max=True, allow_nan=False),
        st.lists(
            st.floats(0, 1, allow_nan=False, width=32), min_size=2, max_size=2
        ).map(dyadic),
    )


def _apply_product(engine: WhyNotEngine, op) -> None:
    kind, fraction, row = op
    n = engine.products.shape[0]
    if kind == "insert":
        engine.insert_products(row.reshape(1, 2))
    elif kind == "delete" and n > 2:
        engine.delete_products([int(fraction * n)])
    elif kind == "update":
        engine.update_products([int(fraction * n)], row.reshape(1, 2))


def _apply_customer(engine: WhyNotEngine, op) -> None:
    kind, fraction, row = op
    m = engine.customers.shape[0]
    if kind == "insert":
        engine.insert_customers(row.reshape(1, 2))
    elif kind == "delete" and m > 2:
        engine.delete_customers([int(fraction * m)])
    elif kind == "update":
        engine.update_customers([int(fraction * m)], row.reshape(1, 2))


def _assert_surfaces_equal(engine: WhyNotEngine, fresh: WhyNotEngine, queries):
    assert np.array_equal(engine.index.points, engine.products)
    for q in queries:
        assert np.array_equal(
            engine.reverse_skyline(q), fresh.reverse_skyline(q)
        ), q
        everyone = list(range(engine.customers.shape[0]))
        if everyone:
            assert np.array_equal(
                engine.membership_mask(everyone, q),
                fresh.membership_mask(everyone, q),
            ), q
        a, b = engine.safe_region(q).region, fresh.safe_region(q).region
        assert np.array_equal(a.lo, b.lo) and np.array_equal(a.hi, b.hi), q
        a = engine.safe_region(q, approximate=True, k=4).region
        b = fresh.safe_region(q, approximate=True, k=4).region
        assert np.array_equal(a.lo, b.lo) and np.array_equal(a.hi, b.hi), q


QUERIES = [np.array([0.5, 0.5]), np.array([0.25, 0.625])]


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=25, deadline=None)
@given(
    points=point_lists(6, 12),
    ops=st.lists(mutation_ops(), min_size=1, max_size=4),
)
def test_monochromatic_mutations_match_fresh_engine(backend, points, ops):
    engine = WhyNotEngine(points, backend=backend, bounds=BOUNDS)
    for q in QUERIES:  # warm every cache layer before mutating
        engine.reverse_skyline(q)
        engine.safe_region(q)
        engine.safe_region(q, approximate=True, k=4)
    for op in ops:
        _apply_product(engine, op)
    fresh = WhyNotEngine(engine.products, backend=backend, bounds=BOUNDS)
    _assert_surfaces_equal(engine, fresh, QUERIES)


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=15, deadline=None)
@given(
    products=point_lists(5, 9),
    customers=point_lists(4, 8),
    ops=st.lists(
        st.tuples(st.booleans(), mutation_ops()), min_size=1, max_size=4
    ),
)
def test_bichromatic_mutations_match_fresh_engine(
    backend, products, customers, ops
):
    engine = WhyNotEngine(
        products, customers=customers, backend=backend, bounds=BOUNDS
    )
    for q in QUERIES:
        engine.reverse_skyline(q)
        engine.safe_region(q)
        engine.safe_region(q, approximate=True, k=4)
    for product_side, op in ops:
        if product_side:
            _apply_product(engine, op)
        else:
            _apply_customer(engine, op)
    fresh = WhyNotEngine(
        engine.products,
        customers=engine.customers,
        backend=backend,
        bounds=BOUNDS,
    )
    _assert_surfaces_equal(engine, fresh, QUERIES)
