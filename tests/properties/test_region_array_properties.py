"""Property-based exact-equivalence tests: array-backed region engine vs
the pure-Python oracle.

The array engine (:mod:`repro.geometry.region_array`, fronted by
``BoxRegion``) must be *bit-identical* to :class:`OracleBoxRegion` — the
verbatim pre-refactor implementation — on every operation the safe-region
pipeline uses: pairwise intersection, containment pruning (simplify),
exact measure, point containment, nearest point, corners and sampling.
Random unions in d = 2..4 include degenerate (zero-extent) boxes such as
the ``{q}`` fallback of Algorithm 3.  The array staircase
(``staircase_arrays``) is checked against the per-box construction
(``staircase_boxes``) the same way.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.safe_region import staircase_arrays, staircase_boxes
from repro.geometry.box import Box
from repro.geometry.region import BoxRegion
from repro.geometry.region_array import boxes_to_arrays
from repro.geometry.region_oracle import OracleBoxRegion


def box_lists(dim, max_boxes=5):
    """Lists of dim-d boxes on a coarse 1/8 grid.

    The grid forces coincident faces, duplicate boxes and zero-extent
    (lo == hi) degenerate boxes — exactly the inputs where an "almost
    equivalent" kernel would diverge from the oracle.
    """

    def to_box(values):
        v = np.round(np.asarray(values, dtype=np.float64) * 8) / 8
        return Box(np.minimum(v[:dim], v[dim:]), np.maximum(v[:dim], v[dim:]))

    one_box = st.lists(
        st.floats(0, 1, allow_nan=False, width=32),
        min_size=2 * dim,
        max_size=2 * dim,
    ).map(to_box)
    return st.lists(one_box, min_size=0, max_size=max_boxes)


def both(boxes, dim):
    return BoxRegion(boxes, dim=dim), OracleBoxRegion(boxes, dim=dim)


def assert_same_boxes(array_region, oracle_region):
    """Identical box count, order and corner coordinates (exact floats)."""
    a = list(array_region.boxes)
    o = list(oracle_region.boxes)
    assert len(a) == len(o)
    for box_a, box_o in zip(a, o):
        assert box_a.lo.tolist() == box_o.lo.tolist()
        assert box_a.hi.tolist() == box_o.hi.tolist()


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4).flatmap(lambda d: st.tuples(st.just(d), box_lists(d))))
def test_simplify_exact(case):
    dim, boxes = case
    array_region, oracle_region = both(boxes, dim)
    assert_same_boxes(array_region.simplify(), oracle_region.simplify())


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 4).flatmap(
        lambda d: st.tuples(st.just(d), box_lists(d, 4), box_lists(d, 4))
    )
)
def test_intersect_exact(case):
    dim, boxes_a, boxes_b = case
    a_arr, a_orc = both(boxes_a, dim)
    b_arr, b_orc = both(boxes_b, dim)
    assert_same_boxes(a_arr.intersect(b_arr), a_orc.intersect(b_orc))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4).flatmap(lambda d: st.tuples(st.just(d), box_lists(d))))
def test_measure_bit_identical(case):
    dim, boxes = case
    array_region, oracle_region = both(boxes, dim)
    # Exact float equality, not approx: same slab order, same Python-float
    # accumulation sequence.
    assert array_region.measure() == oracle_region.measure()


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4).flatmap(lambda d: st.tuples(st.just(d), box_lists(d))))
def test_containment_and_nearest_identical(case):
    dim, boxes = case
    array_region, oracle_region = both(boxes, dim)
    rng = np.random.default_rng(7)
    probes = np.round(rng.uniform(-0.125, 1.125, size=(25, dim)) * 8) / 8
    for p in probes:
        assert array_region.contains_point(p) == oracle_region.contains_point(p)
        assert array_region.contains_point(p, closed=False) == (
            oracle_region.contains_point(p, closed=False)
        )
    if boxes:
        for p in probes[:5]:
            near_a = array_region.nearest_point_to(p)
            near_o = oracle_region.nearest_point_to(p)
            assert near_a.tolist() == near_o.tolist()


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4).flatmap(lambda d: st.tuples(st.just(d), box_lists(d))))
def test_corners_and_samples_identical(case):
    dim, boxes = case
    array_region, oracle_region = both(boxes, dim)
    assert (
        array_region.corner_points().tolist()
        == oracle_region.corner_points().tolist()
    )
    if boxes:
        sample_a = array_region.sample_points(np.random.default_rng(3), 8)
        sample_o = oracle_region.sample_points(np.random.default_rng(3), 8)
        assert sample_a.tolist() == sample_o.tolist()


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 4).flatmap(
        lambda d: st.tuples(st.just(d), box_lists(d, 4), box_lists(d, 4))
    )
)
def test_batch_contains_matches_scalar(case):
    dim, boxes_a, boxes_b = case
    region = BoxRegion(boxes_a, dim=dim).intersect(BoxRegion(boxes_b, dim=dim))
    rng = np.random.default_rng(11)
    probes = np.round(rng.uniform(0, 1, size=(30, dim)) * 8) / 8
    batch = region.contains_points(probes)
    for p, flag in zip(probes, batch.tolist()):
        assert region.contains_point(p) == flag


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 3).flatmap(
        lambda d: st.tuples(st.just(d), box_lists(d, 3), box_lists(d, 3))
    )
)
def test_degenerate_query_fallback_shape(case):
    """The Algorithm-3 fallback — union with a zero-extent box {q} —
    behaves identically on both engines."""
    dim, boxes_a, boxes_b = case
    q = np.full(dim, 0.5)
    fallback_arr = BoxRegion(boxes_a, dim=dim).union(
        BoxRegion([Box(q, q)], dim=dim)
    )
    fallback_orc = OracleBoxRegion(boxes_a, dim=dim).union(
        OracleBoxRegion([Box(q, q)], dim=dim)
    )
    assert_same_boxes(fallback_arr, fallback_orc)
    assert fallback_arr.contains_point(q)
    assert fallback_arr.measure() == fallback_orc.measure()


@st.composite
def staircase_cases(draw):
    """Staircase inputs on a 1/8 grid: dimension 1-3, full or partial
    support (so widths 1, 2 and 3), 0-6 threshold rows with ties, and an
    origin inside, on the edge of or just outside the bounds."""
    dim = draw(st.integers(1, 3))
    dims = draw(
        st.sampled_from(
            [None]
            + [
                np.flatnonzero(mask)
                for mask in np.ndindex(*(2,) * dim)
                if 0 < sum(mask) < dim
            ]
        )
    )
    grid = st.integers(0, 8).map(lambda k: k / 8)
    lo = np.array([draw(grid) for _ in range(dim)])
    hi = lo + np.array([draw(grid) for _ in range(dim)])
    origin = np.array(
        [
            draw(st.sampled_from([lo[d], hi[d], lo[d] - 0.125, hi[d] + 0.125]))
            if draw(st.booleans())
            else lo[d] + draw(grid) * (hi[d] - lo[d])
            for d in range(dim)
        ]
    )
    m = draw(st.integers(0, 6))
    thresholds = np.array(
        [[draw(grid) for _ in range(dim)] for _ in range(m)]
    ).reshape(m, dim)
    sort_dim = draw(st.integers(0, dim - 1))
    return origin, thresholds, Box(lo, hi), sort_dim, dims


@settings(max_examples=200, deadline=None)
@given(staircase_cases())
def test_staircase_arrays_bit_identical(case):
    origin, thresholds, bounds, sort_dim, dims = case
    lo, hi = staircase_arrays(origin, thresholds, bounds, sort_dim, dims)
    ref_lo, ref_hi = boxes_to_arrays(
        staircase_boxes(origin, thresholds, bounds, sort_dim, dims),
        origin.size,
    )
    assert lo.shape == ref_lo.shape
    assert lo.tobytes() == ref_lo.tobytes()
    assert hi.tobytes() == ref_hi.tobytes()
