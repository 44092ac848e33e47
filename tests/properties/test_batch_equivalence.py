"""Property test: the batched warm answer path equals the per-question
pipeline byte for byte.

``batch-prefilter`` (two kernel passes for every ``Λ`` of the batch, one
segmented staircase, one kernel verification pass over every candidate) must serialise to
exactly the ``canonical_json`` of ``batch-sequential`` and of
per-question ``answer_why_not`` — on mono- and bichromatic data, under
both dominance policies, unit, skewed and partial-support preference
weights, position- and raw-point why-nots with members mixed in, on
dyadic grids where many candidates land exactly on window boundaries,
and on a non-dyadic grid where those boundaries round.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import WhyNotConfig, WhyNotEngine
from repro.config import DominancePolicy
from repro.core.batch import answer_why_not, answer_why_not_batch
from repro.serve.serialize import canonical_json, serialize_answer

#: Preference weights per shape, cut to the dataset's dimension.
WEIGHTS = {
    "unit": None,
    "skewed": [1.0, 3.0, 0.5],
    "partial": [2.0, 0.0, 1.0],
}


def grid_points(draw, rows: int, dim: int) -> np.ndarray:
    """``rows`` points on the 1/8 grid: ties and shared window faces."""
    cells = draw(
        st.lists(st.integers(0, 8), min_size=rows * dim, max_size=rows * dim)
    )
    return np.array(cells, dtype=np.float64).reshape(rows, dim) / 8


def decimal_points(draw, rows: int, dim: int) -> np.ndarray:
    """``rows`` points on a non-dyadic grid (``k * 0.1 + 0.7``): faces
    that tie in exact arithmetic but round differently in floats."""
    cells = draw(
        st.lists(st.integers(0, 8), min_size=rows * dim, max_size=rows * dim)
    )
    return np.array(cells, dtype=np.float64).reshape(rows, dim) * 0.1 + 0.7


@st.composite
def batches(draw, points=grid_points):
    dim = draw(st.integers(2, 3))
    products = points(draw, draw(st.integers(3, 20)), dim)
    mono = draw(st.booleans())
    customers = (
        None if mono else points(draw, draw(st.integers(2, 16)), dim)
    )
    m = products.shape[0] if mono else customers.shape[0]
    positions = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=6))
    raw = [p.tolist() for p in points(draw, draw(st.integers(0, 2)), dim)]
    why_nots = draw(st.permutations(positions + raw))
    shape = draw(st.sampled_from(sorted(WEIGHTS)))
    weights = None if WEIGHTS[shape] is None else WEIGHTS[shape][:dim]
    return {
        "products": products,
        "customers": customers,
        "query": points(draw, 1, dim)[0],
        "why_nots": why_nots,
        "weights": weights,
        "policy": draw(st.sampled_from(list(DominancePolicy))),
        "backend": draw(st.sampled_from(["scan", "rtree"])),
        "approximate": draw(st.booleans()),
    }


def _serialised(answers) -> list[str]:
    return [canonical_json(serialize_answer(a)) for a in answers]


@settings(max_examples=120, deadline=None)
@given(batches())
def test_batched_path_equals_sequential_and_per_question(case):
    _check_batched_path(case)


@settings(max_examples=120, deadline=None)
@given(batches(points=decimal_points))
def test_batched_path_equals_sequential_on_non_dyadic_floats(case):
    _check_batched_path(case)


def _check_batched_path(case):
    def engine(pin: str) -> WhyNotEngine:
        return WhyNotEngine(
            case["products"],
            case["customers"],
            case["backend"],
            WhyNotConfig(planner=pin, policy=case["policy"]),
        )

    batched, sequential = engine("kernel"), engine("index")
    q, weights = case["query"], case["weights"]
    why_nots = list(case["why_nots"])
    # Mix a reverse-skyline member into the batch whenever one exists.
    rsl = batched.reverse_skyline(q, weights=weights)
    if rsl.size:
        why_nots.insert(len(why_nots) // 2, int(rsl[0]))
    kwargs = dict(approximate=case["approximate"], k=3, weights=weights)

    for eng, operator in ((batched, "batch-prefilter"),
                          (sequential, "batch-sequential")):
        plan = eng.prepare("batch", why_nots, q, **kwargs)
        assert plan.node.operator.name == operator
    got = _serialised(answer_why_not_batch(batched, why_nots, q, **kwargs))
    reference = _serialised(
        answer_why_not_batch(sequential, why_nots, q, **kwargs)
    )
    one_by_one = _serialised(
        answer_why_not(batched, why_not, q, **kwargs) for why_not in why_nots
    )
    assert got == reference
    assert got == one_by_one
