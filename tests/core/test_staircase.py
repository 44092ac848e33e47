"""Direct unit tests for the shared staircase-merge construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core._staircase import segmented_staircase, staircase_distance_candidates


def covers(candidate, frontiers):
    """Feasibility: for every frontier there is a dimension where the
    candidate stays below the threshold."""
    return all(np.any(candidate <= f + 1e-12) for f in frontiers)


class TestSingleFrontier:
    def test_two_clipped_candidates(self):
        frontiers = np.array([[0.5, 6.5]])
        cap = np.array([3.5, 25.0])
        out = staircase_distance_candidates(frontiers, cap, sort_dim=0)
        rows = {tuple(r) for r in out}
        # Paper's MWP example in distance space: (cap_x, V_y), (V_x, cap_y).
        assert rows == {(3.5, 6.5), (0.5, 25.0)}

    def test_threshold_above_cap_is_clamped(self):
        frontiers = np.array([[10.0, 10.0]])
        cap = np.array([1.0, 2.0])
        out = staircase_distance_candidates(frontiers, cap, sort_dim=0)
        assert np.all(out <= cap + 1e-12)


class TestMultipleFrontiers:
    def test_antichain_produces_m_plus_one(self):
        frontiers = np.array([[0.1, 0.9], [0.5, 0.5], [0.9, 0.1]])
        cap = np.array([1.0, 1.0])
        out = staircase_distance_candidates(frontiers, cap, sort_dim=0)
        # first-clip + 2 pair merges + last-clip = 4 (all distinct here).
        assert out.shape == (4, 2)

    def test_all_candidates_feasible_2d(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            m = int(rng.integers(1, 8))
            raw = rng.uniform(0, 1, size=(m, 2))
            # Reduce to an antichain (the algorithms feed frontiers).
            keep = []
            for i in range(m):
                if not any(
                    np.all(raw[j] <= raw[i]) and np.any(raw[j] < raw[i])
                    for j in range(m)
                    if j != i
                ):
                    keep.append(i)
            frontiers = raw[keep]
            cap = rng.uniform(1.0, 2.0, size=2)
            out = staircase_distance_candidates(frontiers, cap, sort_dim=0)
            for candidate in out:
                assert covers(candidate, np.minimum(frontiers, cap)), (
                    frontiers,
                    cap,
                    candidate,
                )

    def test_candidates_maximal_2d(self):
        """No candidate is component-wise dominated by another (bigger
        distance = less movement = better)."""
        rng = np.random.default_rng(1)
        for _ in range(100):
            frontiers = np.sort(rng.uniform(0, 1, size=(4, 2)), axis=0)
            # Make an antichain: ascending dim0, descending dim1.
            frontiers[:, 1] = frontiers[::-1, 1]
            cap = np.array([2.0, 2.0])
            out = staircase_distance_candidates(frontiers, cap, sort_dim=0)
            for i in range(len(out)):
                for j in range(len(out)):
                    if i != j:
                        assert not (
                            np.all(out[i] <= out[j]) and np.any(out[i] < out[j])
                        )

    def test_fallback_present_for_3d(self):
        frontiers = np.array([[0.2, 0.8, 0.5], [0.8, 0.2, 0.5]])
        cap = np.ones(3)
        out = staircase_distance_candidates(frontiers, cap, sort_dim=0)
        minima = frontiers.min(axis=0)
        assert any(np.allclose(row, minima) for row in out)

    def test_sort_dim_validated(self):
        with pytest.raises(ValueError):
            staircase_distance_candidates(
                np.array([[0.5, 0.5]]), np.ones(2), sort_dim=2
            )

    def test_deduplication(self):
        frontiers = np.array([[0.5, 0.5], [0.5, 0.5]])
        cap = np.ones(2)
        out = staircase_distance_candidates(frontiers, cap, sort_dim=0)
        assert len(out) == len(np.unique(out, axis=0))


def reference_staircase(frontier_vectors, cap, sort_dim, dims=None):
    """The one-problem loop the segmented staircase replaced, kept as its
    oracle: sort, clipped ends, adjacent maxima, the d > 2 fallback row,
    the ``dims`` projection and ``np.unique`` row dedupe."""
    vectors = np.asarray(frontier_vectors, dtype=np.float64)
    cap = np.asarray(cap, dtype=np.float64)
    if dims is not None:
        sel = np.asarray(dims, dtype=np.int64)
        where = np.flatnonzero(sel == sort_dim)
        sub_sort = int(where[0]) if where.size else 0
        sub = reference_staircase(vectors[:, sel], cap[sel], sub_sort)
        out = np.broadcast_to(cap, (sub.shape[0], cap.size)).copy()
        out[:, sel] = sub
        return np.unique(out, axis=0)
    dim = vectors.shape[1]
    capped = np.minimum(vectors, cap)
    order = np.argsort(-capped[:, sort_dim], kind="stable")
    sorted_vecs = capped[order]
    first = sorted_vecs[0].copy()
    first[sort_dim] = cap[sort_dim]
    candidates = [first]
    for left, right in zip(sorted_vecs[:-1], sorted_vecs[1:]):
        candidates.append(np.maximum(left, right))
    last = cap.copy()
    last[sort_dim] = sorted_vecs[-1][sort_dim]
    candidates.append(last)
    if dim > 2:
        candidates.append(capped.min(axis=0))
    return np.unique(np.minimum(np.vstack(candidates), cap), axis=0)


@st.composite
def staircase_batches(draw):
    """Groups of threshold rows on a coarse grid (ties within and across
    groups, one-row groups) with caps that clip some thresholds."""
    dim = draw(st.integers(2, 4))
    cells = st.integers(0, 6).map(lambda v: v / 4)
    groups = []
    for _ in range(draw(st.integers(1, 6))):
        rows = draw(st.integers(1, 5))
        vectors = np.array(
            draw(st.lists(cells, min_size=rows * dim, max_size=rows * dim))
        ).reshape(rows, dim)
        cap = np.array(draw(st.lists(cells, min_size=dim, max_size=dim)))
        groups.append((vectors, cap))
    dims = draw(
        st.none()
        | st.lists(st.integers(0, dim - 1), min_size=1, max_size=dim, unique=True)
        .map(sorted)
        .map(lambda d: np.array(d, dtype=np.int64))
    )
    return groups, draw(st.integers(0, dim - 1)), dims


class TestSegmentedStaircase:
    @settings(max_examples=300, deadline=None)
    @given(staircase_batches())
    def test_equals_reference_loop_per_group(self, case):
        groups, sort_dim, dims = case
        sizes = [v.shape[0] for v, _ in groups]
        out, offsets = segmented_staircase(
            np.concatenate([v for v, _ in groups]),
            np.cumsum([0] + sizes),
            np.array([c for _, c in groups]),
            sort_dim,
            dims,
        )
        assert offsets.shape == (len(groups) + 1,)
        for g, (vectors, cap) in enumerate(groups):
            expected = reference_staircase(vectors, cap, sort_dim, dims)
            got = out[offsets[g] : offsets[g + 1]]
            assert got.tobytes() == expected.tobytes(), (g, got, expected)

    @settings(max_examples=100, deadline=None)
    @given(staircase_batches())
    def test_one_group_call_equals_reference(self, case):
        groups, sort_dim, dims = case
        for vectors, cap in groups:
            got = staircase_distance_candidates(vectors, cap, sort_dim, dims)
            expected = reference_staircase(vectors, cap, sort_dim, dims)
            assert got.tobytes() == expected.tobytes()

    def test_identical_groups_dedupe_separately(self):
        vectors = np.array([[0.5, 0.5], [0.5, 0.5]])
        out, offsets = segmented_staircase(
            np.vstack([vectors, vectors]), [0, 2, 4], np.ones((2, 2)), 0
        )
        # (cap_x, .5), the pair maximum (.5, .5) and (.5, cap_y), once
        # per group.
        assert offsets.tolist() == [0, 3, 6]
        assert out[:3].tobytes() == out[3:].tobytes()
