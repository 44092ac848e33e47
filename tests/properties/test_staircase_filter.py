"""The 2-D staircase test of the BBRS filter equals the broadcast.

:func:`repro.skyline.global_skyline._staircase_dominated` replaces the
O(m·k) broadcast in 2-D support subspaces; the broadcast stays as the
oracle.  Inputs sit on a coarse grid, so ties on both axes, duplicate
blockers and points on the query's axis hyperplanes are common.
"""

from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.skyline import global_skyline as gs

GRID = 6


def grid_matrices(d, min_rows=0, max_rows=40):
    return st.integers(min_rows, max_rows).flatmap(
        lambda n: st.lists(
            st.integers(0, GRID), min_size=n * d, max_size=n * d
        ).map(lambda v: np.array(v, dtype=np.float64).reshape(n, d) / GRID)
    )


def grid_points(d):
    return st.lists(st.integers(0, GRID), min_size=d, max_size=d).map(
        lambda v: np.array(v, dtype=np.float64) / GRID
    )


#: (dimensionality, weights): full support, 1-of-2 and 2-of-3 supports.
SHAPES = [
    (2, None),
    (2, (1.0, 0.0)),
    (2, (0.0, 2.0)),
    (3, (1.0, 1.0, 0.0)),
    (3, (0.0, 0.5, 1.0)),
    (3, (2.0, 0.0, 1.0)),
]


def cases():
    return st.sampled_from(SHAPES).flatmap(
        lambda shape: st.tuples(
            st.just(shape),
            grid_matrices(shape[0]),
            grid_matrices(shape[0]),
            grid_points(shape[0]),
            st.booleans(),
        )
    )


@settings(max_examples=300, deadline=None)
@given(grid_matrices(2, min_rows=1), grid_matrices(2))
@example(  # ties on x: only blockers of x strictly below count
    np.array([[0.5, 0.1], [0.2, 0.9]]), np.array([[0.5, 0.5]])
)
@example(  # a tie on y never prunes
    np.array([[0.1, 0.5]]), np.array([[0.5, 0.5]])
)
@example(  # the least y sits left of the last blocker below x
    np.array([[0.1, 0.1], [0.3, 0.9]]), np.array([[0.5, 0.5]])
)
def test_staircase_equals_broadcast(blockers, points):
    """Any blocker set, minimal or not, duplicates included."""
    assert np.array_equal(
        gs._staircase_dominated(blockers, points),
        gs._broadcast_dominated(blockers, points),
    )


@settings(max_examples=300, deadline=None)
@given(cases())
@example(  # empty orthants: q at a corner, duplicate products
    ((2, None), np.array([[0.5, 0.5], [0.5, 0.5], [0.0, 0.2]]),
     np.array([[1.0, 1.0], [0.5, 0.9]]), np.array([0.0, 0.0]), False)
)
@example(  # monochromatic, self-exclusion, points on q's axes
    ((2, None), np.array([[0.5, 0.5], [0.5, 1.0], [1.0, 1.0], [0.5, 0.5]]),
     np.empty((0, 2)), np.array([0.5, 0.0]), True)
)
def test_filter_equals_broadcast_oracle(case):
    """``global_skyline_candidates`` with the staircase equals the same
    filter with the broadcast, for every support and self-exclusion."""
    (_, weights), products, customers, q, mono = case
    if mono:
        customers = products

    def run():
        return gs.global_skyline_candidates(
            products, customers, q, self_exclude=mono, weights=weights
        )

    got = run()
    broadcast = gs._broadcast_dominated
    with mock.patch.object(gs, "_staircase_dominated", broadcast):
        want = run()
    assert np.array_equal(got, want), (weights, products, customers, q, mono)
