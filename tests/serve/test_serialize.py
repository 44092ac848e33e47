"""Deterministic serialisation of engine answers."""

from __future__ import annotations

import json

import numpy as np

from repro import WhyNotEngine
from repro.core.batch import answer_why_not
from repro.serve.serialize import (
    canonical_json,
    serialize_answer,
    serialize_candidate,
    serialize_explanation,
    serialize_safe_region,
)


def _engine() -> WhyNotEngine:
    rng = np.random.default_rng(3)
    return WhyNotEngine(rng.random((40, 2)), customers=rng.random((25, 2)))


def test_answer_serialisation_is_deterministic_and_json_safe():
    engine = _engine()
    q = np.array([0.4, 0.5])
    answer = answer_why_not(engine, 2, q)
    first = canonical_json(serialize_answer(answer))
    second = canonical_json(serialize_answer(answer_why_not(engine, 2, q)))
    assert first == second
    parsed = json.loads(first)  # strictly valid JSON (allow_nan=False)
    assert parsed["query"] == [0.4, 0.5]
    assert {"explanation", "mwp", "mqp", "mwq", "recommendation"} <= set(parsed)


def test_nan_cost_becomes_none():
    from repro.core.answer import Candidate

    cand = Candidate(np.array([0.1, 0.2]))
    assert np.isnan(cand.cost)
    assert serialize_candidate(cand)["cost"] is None
    assert serialize_candidate(None) is None


def test_why_not_reference_forms():
    engine = _engine()
    q = np.array([0.4, 0.5])
    by_position = serialize_answer(answer_why_not(engine, 2, q))
    assert by_position["why_not"] == {"position": 2}
    point = engine.customers[2]
    by_point = serialize_answer(answer_why_not(engine, point, q))
    assert "point" in by_point["why_not"]
    # Same customer, same coordinates: the substantive fields agree.
    assert canonical_json(by_point["explanation"]) == canonical_json(
        by_position["explanation"]
    )


def test_safe_region_serialisation_round_trips():
    engine = _engine()
    region = engine.safe_region(np.array([0.4, 0.5]))
    payload = serialize_safe_region(region)
    assert payload["area"] is not None
    assert payload["approximate"] is False
    assert all(len(box) == 2 for box in payload["boxes"])
    json.loads(canonical_json(payload))


def test_explanation_matrix_shape_for_member():
    engine = _engine()
    q = np.array([0.99, 0.99])  # far corner: most customers are members
    rsl = engine.reverse_skyline(q)
    if rsl.size:
        member = int(rsl[0])
        payload = serialize_explanation(engine.explain(member, q))
        assert payload["is_member"]
        assert payload["culprits"] == []


def _per_element(arr, matrix: bool) -> list:
    """The element-by-element serialisation: ``float()`` and
    ``math.isfinite`` on every entry."""
    import math

    def num(v):
        v = float(v)
        return v if math.isfinite(v) else None

    a = np.asarray(arr, dtype=np.float64)
    if not matrix:
        return [num(v) for v in a.ravel()]
    if a.ndim == 1:
        a = a.reshape(0, 0) if a.size == 0 else a.reshape(1, -1)
    return [[num(v) for v in row] for row in a]


def test_vectorised_lists_equal_per_element_form():
    """``tolist()``-built vectors, matrices and position lists serialise
    byte-identically to the per-element form, NaN, ±inf and -0.0
    included."""
    from repro.serve.serialize import _matrix, _positions, _vector

    rng = np.random.default_rng(11)
    specials = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -1e308])
    arrays = [
        np.empty(0),
        np.empty((0, 2)),
        specials,
        specials.reshape(-1, 1),
        np.array([[-0.0, 1.5], [np.inf, -2.25], [np.nan, 0.1]]),
        rng.normal(size=(6, 3)),
        [0.5, -0.0, 3],
    ]
    for _ in range(50):
        a = rng.normal(size=(int(rng.integers(1, 5)), int(rng.integers(1, 4))))
        a[rng.random(a.shape) < 0.3] = rng.choice(specials)
        arrays.append(a)
    for arr in arrays:
        for fn, matrix in ((_vector, False), (_matrix, True)):
            got, want = fn(arr), _per_element(arr, matrix)
            # json spells -0.0 and 0.0 apart, and every float exactly.
            assert json.dumps(got) == json.dumps(want)
            flat = [v for row in got for v in row] if matrix else got
            assert all(v is None or type(v) is float for v in flat)
    for positions in (np.array([3, 0, 7], dtype=np.int64), np.empty(0, np.int64),
                      [1, 2], np.array([[4], [5]])):
        got = _positions(positions)
        assert got == [int(v) for v in np.asarray(positions).ravel()]
        assert all(type(v) is int for v in got)
