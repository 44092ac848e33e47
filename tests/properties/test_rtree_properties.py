"""Property-based tests: the R-tree is indistinguishable from the scan
oracle and structurally sound under any input and any sequence of
rebuilds, and a rebuilt tree is the tree a fresh STR build gives."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import RTreeConfig
from repro.geometry.box import Box
from repro.index.rtree import RTree
from repro.index.scan import ScanIndex

CONFIG = RTreeConfig(max_entries=4)


def coords(n, dim=2):
    return st.lists(
        st.floats(0, 100, allow_nan=False, width=32),
        min_size=n * dim,
        max_size=n * dim,
    ).map(lambda v: np.round(np.array(v).reshape(-1, dim), 1))


def matrices(max_rows=60, dim=2):
    return st.integers(1, max_rows).flatmap(lambda n: coords(n, dim))


def query_boxes(dim=2):
    return st.lists(
        st.floats(0, 100, allow_nan=False, width=32),
        min_size=2 * dim,
        max_size=2 * dim,
    ).map(
        lambda v: Box(
            np.minimum(v[:dim], v[dim:]), np.maximum(v[:dim], v[dim:])
        )
    )


# Matrices a tree is rebuilt over in turn, as the engine does after each
# product mutation; they may be empty and need not share rows.
rebuild_programs = st.lists(
    st.integers(0, 30).flatmap(coords), max_size=6
)


def rebuilt(pts, program):
    tree = RTree(pts, config=CONFIG)
    for matrix in program:
        tree.rebuild(matrix)
    assert tree.stats.rebuilds == len(program)
    return tree


def shape(tree, depth=0, row=0):
    """Nested leaf entry lists in traversal order."""
    level = tree.levels[depth]
    first = int(level.start[row])
    children = range(first, first + int(level.count[row]))
    if depth == tree.height - 1:
        return tree.order[first:children.stop].tolist()
    return [shape(tree, depth + 1, child) for child in children]


@settings(max_examples=60, deadline=None)
@given(matrices(), rebuild_programs)
def test_integrity_any_input(pts, program):
    rebuilt(pts, program).check_integrity()


@settings(max_examples=60, deadline=None)
@given(matrices(), query_boxes(), rebuild_programs)
def test_range_equals_scan(pts, box, program):
    tree = rebuilt(pts, program)
    scan = ScanIndex(tree.points)
    assert np.array_equal(tree.range_indices(box), scan.range_indices(box))


@settings(max_examples=60, deadline=None)
@given(matrices(), rebuild_programs, st.lists(query_boxes(), max_size=4))
def test_mutated_tree_equals_fresh_build(pts, program, boxes):
    tree = rebuilt(pts, program)
    fresh = RTree(tree.points, config=CONFIG)
    assert tree.height == fresh.height
    assert shape(tree) == shape(fresh)
    for box in boxes:
        before = tree.stats.node_accesses, fresh.stats.node_accesses
        assert np.array_equal(
            tree.range_indices(box), fresh.range_indices(box)
        )
        assert (
            tree.stats.node_accesses - before[0]
            == fresh.stats.node_accesses - before[1]
        )


@settings(max_examples=60, deadline=None)
@given(
    matrices(),
    st.lists(st.floats(0, 100, allow_nan=False, width=32), min_size=2, max_size=2),
    st.integers(1, 8),
)
def test_knn_distances_equal_scan(pts, target, k):
    tree = RTree(pts, config=CONFIG)
    scan = ScanIndex(pts)
    target = np.array(target)
    t = np.sort(np.linalg.norm(pts[tree.knn_indices(target, k)] - target, axis=1))
    s = np.sort(np.linalg.norm(pts[scan.knn_indices(target, k)] - target, axis=1))
    assert np.allclose(t, s)
