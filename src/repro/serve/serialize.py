"""Deterministic JSON-able serialisation of engine answers.

The serving layer's correctness claim is *bit-identity*: a response that
travelled through admission, coalescing and the thread executor must
equal the one a direct engine call produces.  That comparison needs a
canonical form on both sides, so the serialisers live here — shared by
the service, the CLI verifier and the benchmark — and are strictly
deterministic: dict keys are fixed, floats pass through ``float()``
untouched (no rounding), arrays become nested lists (built whole by
``ndarray.tolist()``), and ``NaN``/``inf`` map to ``None`` so the output
is valid JSON everywhere.

:func:`canonical_json` is the comparison form: sorted keys, no
whitespace.  Two answers are bit-identical iff their canonical JSON
strings are equal.
"""

from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.answer import Candidate, ModificationResult, MWQResult

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.answer import Explanation
    from repro.core.batch import WhyNotAnswer
    from repro.core.safe_region import SafeRegion

__all__ = [
    "canonical_json",
    "serialize_answer",
    "serialize_candidate",
    "serialize_explanation",
    "serialize_modification",
    "serialize_mwq",
    "serialize_safe_region",
]


def _num(value: float) -> "float | None":
    """A JSON-safe float: ``NaN``/``inf`` become ``None`` (they have no
    valid JSON spelling), everything else passes through exactly."""
    value = float(value)
    return value if math.isfinite(value) else None


def _vector(arr) -> list:
    a = np.asarray(arr, dtype=np.float64).ravel()
    values = a.tolist()
    if np.isfinite(a).all():
        return values
    return [v if math.isfinite(v) else None for v in values]


def _matrix(arr) -> list:
    a = np.asarray(arr, dtype=np.float64)
    if a.ndim == 1:
        a = a.reshape(0, 0) if a.size == 0 else a.reshape(1, -1)
    rows = a.tolist()
    if np.isfinite(a).all():
        return rows
    return [[v if math.isfinite(v) else None for v in row] for row in rows]


def _positions(arr) -> list:
    return np.asarray(arr).ravel().astype(np.int64, copy=False).tolist()


def serialize_candidate(candidate: "Candidate | None") -> "dict | None":
    if candidate is None:
        return None
    return {
        "point": _vector(candidate.point),
        "cost": _num(candidate.cost),
        "verified": candidate.verified,
    }


def serialize_explanation(explanation: "Explanation") -> dict:
    return {
        "why_not": _vector(explanation.why_not),
        "query": _vector(explanation.query),
        "culprit_positions": _positions(explanation.culprit_positions),
        "culprits": _matrix(explanation.culprits),
        "is_member": bool(explanation.is_member),
    }


def serialize_modification(result: ModificationResult) -> dict:
    return {
        "method": result.method,
        "candidates": [serialize_candidate(c) for c in result.candidates],
        "lambda_positions": _positions(result.lambda_positions),
        "frontier_positions": _positions(result.frontier_positions),
        "best": serialize_candidate(result.best()),
    }


def serialize_mwq(result: MWQResult) -> dict:
    best_pair = result.best_pair()
    return {
        "case": result.case.value,
        "cost": _num(result.cost),
        "query_candidates": [
            serialize_candidate(c) for c in result.query_candidates
        ],
        "pairs": [
            [serialize_candidate(q), serialize_candidate(c)]
            for q, c in result.pairs
        ],
        "best_query_candidate": serialize_candidate(
            result.best_query_candidate()
        ),
        "best_pair": (
            None
            if best_pair is None
            else [
                serialize_candidate(best_pair[0]),
                serialize_candidate(best_pair[1]),
            ]
        ),
    }


def _why_not_ref(why_not: Any) -> dict:
    """The question's identity: a customer position or raw coordinates."""
    if isinstance(why_not, (int, np.integer)):
        return {"position": int(why_not)}
    return {"point": _vector(why_not)}


def serialize_answer(answer: "WhyNotAnswer") -> dict:
    """The full composite answer, recommendation included."""
    return {
        "why_not": _why_not_ref(answer.why_not),
        "query": _vector(answer.query),
        "already_member": bool(answer.already_member),
        "explanation": serialize_explanation(answer.explanation),
        "mwp": serialize_modification(answer.mwp),
        "mqp": serialize_modification(answer.mqp),
        "mwq": serialize_mwq(answer.mwq),
        "recommendation": answer.recommendation(),
        "best_cost": _num(answer.best_cost()),
    }


def serialize_safe_region(region: "SafeRegion") -> dict:
    return {
        "query": _vector(region.query),
        "boxes": [
            [_vector(box.lo), _vector(box.hi)] for box in region.region.boxes
        ],
        "area": _num(region.area()),
        "rsl_positions": _positions(region.rsl_positions),
        "approximate": bool(region.approximate),
    }


def canonical_json(payload: Any) -> str:
    """The comparison form: sorted keys, minimal separators, ASCII-safe.
    Equal strings == bit-identical answers."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    )
