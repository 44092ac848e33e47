"""Weighted dominance end-to-end against the brute-force oracle.

The preference-model contract (repro.prefs):

* every query surface under arbitrary non-negative weights matches the
  nested-loop weighted oracle exactly — across index backends and
  mutation programs;
* unit weights (``None`` or explicit ones) are bit-identical to the
  historical unweighted paths;
* the weighted safe region equals the pure-Python weighted oracle
  construction and never loses a weighted reverse-skyline member.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import WhyNotConfig
from repro.core.engine import WhyNotEngine
from repro.core.safe_region import compute_safe_region_oracle
from repro.index.scan import ScanIndex
from repro.prefs.oracle import (
    oracle_lambda_positions,
    oracle_membership,
    oracle_reverse_skyline,
)

BACKENDS = ("scan", "rtree")


def grids(rows, cols=2):
    """Quantised matrices: ties exercise the WEAK/STRICT boundary."""
    return st.lists(
        st.floats(0, 1, allow_nan=False, width=32),
        min_size=rows[0] * cols,
        max_size=rows[1] * cols,
    ).map(
        lambda v: np.round(
            np.array(v[: len(v) - len(v) % cols]).reshape(-1, cols) * 8
        )
        / 8
    )


def weight_vectors(dim=2):
    """None (unit fast path), explicit ones, skewed, and partial support."""
    return st.sampled_from(
        [
            None,
            [1.0] * dim,
            [4.0] + [0.25] * (dim - 1),
            [1.0] + [0.0] * (dim - 1),
            [0.0] * (dim - 1) + [2.0],
        ]
    )


def mutation_programs():
    """Short sequences of store mutations applied before querying."""
    step = st.sampled_from(
        ["insert_product", "delete_product", "insert_customer", "update_product"]
    )
    return st.lists(step, min_size=0, max_size=3)


def _apply_program(engine, program, rng):
    for op in program:
        if op == "insert_product":
            engine.insert_products(np.round(rng.random((1, 2)) * 8) / 8)
        elif op == "delete_product" and engine.products.shape[0] > 3:
            engine.delete_products([int(rng.integers(engine.products.shape[0]))])
        elif op == "insert_customer":
            engine.insert_customers(np.round(rng.random((1, 2)) * 8) / 8)
        elif op == "update_product":
            pos = int(rng.integers(engine.products.shape[0]))
            engine.update_products([pos], np.round(rng.random((1, 2)) * 8) / 8)


@settings(max_examples=40, deadline=None)
@given(
    grids((4, 12)),
    grids((3, 8)),
    st.integers(0, 63),
    weight_vectors(),
    st.sampled_from(BACKENDS),
    mutation_programs(),
    st.integers(0, 2**16),
)
def test_weighted_surfaces_match_oracle(
    prods, custs, qseed, weights, backend, program, seed
):
    if prods.shape[0] < 3 or custs.shape[0] < 2:
        return
    q = np.array([(qseed % 8) / 8.0, (qseed // 8) / 8.0])
    cfg = WhyNotConfig()
    engine = WhyNotEngine(prods, custs, backend=backend, config=cfg)
    _apply_program(engine, program, np.random.default_rng(seed))
    P, C = engine.products, engine.customers
    w = None if weights is None else np.asarray(weights, dtype=np.float64)

    rsl = np.sort(np.asarray(engine.reverse_skyline(q, weights=weights)))
    expected = oracle_reverse_skyline(P, C, q, weights=w, policy=cfg.policy)
    assert np.array_equal(rsl, np.sort(expected)), (rsl, expected)

    mask = engine.membership_mask(list(range(C.shape[0])), q, weights=weights)
    for i in range(C.shape[0]):
        assert mask[i] == oracle_membership(
            P, C[i], q, weights=w, policy=cfg.policy
        )

    exp = engine.explain(0, q, weights=weights)
    lam = oracle_lambda_positions(P, C[0], q, weights=w, policy=cfg.policy)
    assert np.array_equal(np.sort(exp.culprit_positions), np.sort(lam))


@settings(max_examples=30, deadline=None)
@given(grids((4, 10)), grids((3, 6)), st.integers(0, 63), st.sampled_from(BACKENDS))
def test_unit_weights_bit_identical(prods, custs, qseed, backend):
    if prods.shape[0] < 3 or custs.shape[0] < 2:
        return
    q = np.array([(qseed % 8) / 8.0, (qseed // 8) / 8.0])
    plain = WhyNotEngine(prods, custs, backend=backend)
    unit = WhyNotEngine(prods, custs, backend=backend)

    r0 = plain.reverse_skyline(q)
    r1 = unit.reverse_skyline(q, weights=[1.0, 1.0])
    assert np.array_equal(r0, r1)

    s0 = plain.safe_region(q)
    s1 = unit.safe_region(q, weights=[1.0, 1.0])
    lo0, hi0 = s0.region.lo, s0.region.hi
    lo1, hi1 = s1.region.lo, s1.region.hi
    assert np.array_equal(lo0, lo1) and np.array_equal(hi0, hi1)

    m0 = plain.modify_both(0, q)
    m1 = unit.modify_both(0, q, weights=[1.0, 1.0])
    assert m0.case == m1.case and m0.cost == m1.cost


@settings(max_examples=30, deadline=None)
@given(
    grids((4, 10)),
    grids((3, 6)),
    st.integers(0, 63),
    weight_vectors(),
)
def test_weighted_safe_region_matches_oracle_and_lemma2(
    prods, custs, qseed, weights
):
    if prods.shape[0] < 3 or custs.shape[0] < 2:
        return
    q = np.array([(qseed % 8) / 8.0, (qseed // 8) / 8.0])
    cfg = WhyNotConfig()
    engine = WhyNotEngine(prods, custs, backend="scan", config=cfg)
    w = None if weights is None else np.asarray(weights, dtype=np.float64)

    sr = engine.safe_region(q, weights=weights)
    members = oracle_reverse_skyline(
        engine.products, engine.customers, q, weights=w, policy=cfg.policy
    )
    oracle_sr = compute_safe_region_oracle(
        ScanIndex(engine.products),
        engine.customers,
        q,
        members,
        engine._geometry_bounds(q),
        config=cfg,
        weights=w,
    )
    assert np.isclose(sr.area(), oracle_sr.area()), (sr.area(), oracle_sr.area())

    # Lemma 2 under weights: corners of the region keep every member.
    for lo, hi in list(zip(sr.region.lo, sr.region.hi))[:4]:
        for corner in (lo, hi):
            kept = oracle_reverse_skyline(
                engine.products,
                engine.customers,
                corner,
                weights=w,
                policy=cfg.policy,
            )
            assert set(members.tolist()) <= set(kept.tolist()), (
                corner,
                members,
                kept,
            )
