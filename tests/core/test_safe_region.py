"""Tests for Algorithm 3 (exact safe region) and the anti-dominance
region decomposition."""

import numpy as np
import pytest

from repro.config import WhyNotConfig
from repro.core.safe_region import (
    SR_CHUNK_SIZE,
    anti_dominance_region,
    compute_safe_region,
    staircase_boxes,
)
from repro.core._verify import verify_membership
from repro.exceptions import InvalidParameterError
from repro.geometry.box import Box
from repro.index.scan import ScanIndex
from repro.skyline.reverse import reverse_skyline_naive

UNIT = Box([0.0, 0.0], [1.0, 1.0])


class TestStaircaseBoxes:
    def test_fig10_shape(self):
        """DSL = {A, B} in distance space gives the three rectangles of
        Fig. 10: tall-left slab, merged corner, wide-bottom slab."""
        origin = np.array([0.5, 0.5])
        thresholds = np.array([[0.1, 0.4], [0.3, 0.2]])
        bounds = Box([0.0, 0.0], [1.0, 1.0])
        boxes = staircase_boxes(origin, thresholds, bounds, sort_dim=0)
        assert len(boxes) == 3
        region_extents = sorted(
            (round(b.hi[0] - origin[0], 6), round(b.hi[1] - origin[1], 6))
            for b in boxes
        )
        # Slab kept at A_x, corner max(A,B), slab kept at B_y (clipped).
        assert region_extents == [(0.1, 0.5), (0.3, 0.4), (0.5, 0.2)]

    def test_empty_dsl_gives_universe(self):
        boxes = staircase_boxes(
            np.array([0.5, 0.5]), np.empty((0, 2)), UNIT, sort_dim=0
        )
        assert len(boxes) == 1
        assert boxes[0] == UNIT

    def test_membership_equivalence_2d(self):
        """A point is in the staircase union iff no product strictly
        dominates it w.r.t. the origin — the exactness claim."""
        rng = np.random.default_rng(0)
        for _ in range(30):
            pts = rng.uniform(0, 1, size=(20, 2))
            origin = rng.uniform(0.2, 0.8, size=2)
            idx = ScanIndex(pts)
            region = anti_dominance_region(idx, origin, UNIT)
            for _ in range(40):
                z = rng.uniform(0, 1, size=2)
                dists = np.abs(pts - origin)
                z_dist = np.abs(z - origin)
                strictly_dominated = bool(
                    np.any(np.all(dists < z_dist, axis=1))
                )
                assert region.contains_point(z) == (not strictly_dominated), (
                    origin,
                    z,
                )

    def test_3d_conservative(self):
        """For d > 2 every box must lie inside the true region (never
        overclaims), though it may under-cover."""
        rng = np.random.default_rng(1)
        unit3 = Box([0, 0, 0], [1, 1, 1])
        for _ in range(15):
            pts = rng.uniform(0, 1, size=(25, 3))
            origin = rng.uniform(0.2, 0.8, size=3)
            idx = ScanIndex(pts)
            region = anti_dominance_region(idx, origin, unit3)
            dists = np.abs(pts - origin)
            for _ in range(40):
                z = region.sample_points(rng, 1)[0]
                z_dist = np.abs(z - origin)
                assert not np.any(np.all(dists < z_dist, axis=1))


class TestComputeSafeRegion:
    def make_case(self, seed, n=25):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0, 1, size=(n, 2))
        q = rng.uniform(0.25, 0.75, size=2)
        idx = ScanIndex(pts)
        rsl = reverse_skyline_naive(idx, pts, q, self_exclude=True)
        return idx, pts, q, rsl

    def test_contains_query(self):
        for seed in range(10):
            idx, pts, q, rsl = self.make_case(seed)
            sr = compute_safe_region(idx, pts, q, rsl, UNIT, self_exclude=True)
            assert sr.contains(q), seed

    def test_lemma2_every_point_retains_members(self):
        """Lemma 2: anywhere in SR(q), every member stays a member."""
        rng = np.random.default_rng(42)
        for seed in range(8):
            idx, pts, q, rsl = self.make_case(seed)
            sr = compute_safe_region(idx, pts, q, rsl, UNIT, self_exclude=True)
            if sr.region.is_empty():
                continue
            for q_star in sr.region.sample_points(rng, 30):
                for member in rsl.tolist():
                    assert verify_membership(
                        idx, pts[member], q_star, exclude=(member,)
                    ), (seed, q_star, member)

    def test_no_members_gives_universe(self):
        idx = ScanIndex(np.array([[0.5, 0.5]]))
        sr = compute_safe_region(
            idx, idx.points, np.array([0.1, 0.1]), np.empty(0, dtype=np.int64), UNIT
        )
        assert sr.area() == pytest.approx(1.0)

    def test_area_shrinks_with_more_members(self):
        """Adding members can only shrink the region (intersection)."""
        idx, pts, q, rsl = self.make_case(3)
        if rsl.size < 2:
            pytest.skip("case produced too few members")
        small = compute_safe_region(idx, pts, q, rsl[:1], UNIT, self_exclude=True)
        full = compute_safe_region(idx, pts, q, rsl, UNIT, self_exclude=True)
        assert full.area() <= small.area() + 1e-12

    def test_query_outside_bounds_raises(self):
        idx = ScanIndex(np.array([[0.5, 0.5]]))
        with pytest.raises(InvalidParameterError):
            compute_safe_region(
                idx, idx.points, np.array([5.0, 5.0]),
                np.empty(0, dtype=np.int64), UNIT,
            )

    def test_safe_region_repr_and_flags(self):
        idx, pts, q, rsl = self.make_case(4)
        sr = compute_safe_region(idx, pts, q, rsl, UNIT, self_exclude=True)
        text = repr(sr)
        assert "SafeRegion" in text
        assert sr.approximate is False
        assert sr.rsl_positions.size == rsl.size

    def test_degenerate_region_detected(self):
        sr_area_zero = compute_safe_region(
            ScanIndex(np.array([[0.5, 0.5]])),
            np.array([[0.5, 0.5]]),
            np.array([0.5, 0.5]),
            np.empty(0, dtype=np.int64),
            Box([0.5, 0.5], [0.5, 0.5]),
        )
        assert sr_area_zero.is_degenerate()


class _DisjointRegionCache:
    """Stub DSL cache whose member regions are pairwise disjoint — the
    running intersection collapses to empty after two members, which real
    staircase geometry (every region is a full cross through its
    customer) never produces."""

    def __init__(self, dim=2):
        from repro.core.dsl_cache import DSLCacheStats
        from repro.geometry.region import BoxRegion

        self.stats = DSLCacheStats()
        self.calls = []
        self._make = lambda position: BoxRegion(
            [
                Box(
                    [0.1 * position, 0.1 * position],
                    [0.1 * position + 0.05, 0.1 * position + 0.05],
                )
            ],
            dim=dim,
        )

    def region(self, position, bounds):
        self.stats.region_misses += 1
        self.calls.append(int(position))
        return self._make(position)


class TestArrayEngineStats:
    def make_case(self, seed, n=30):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0, 1, size=(n, 2))
        q = rng.uniform(0.3, 0.7, size=2)
        idx = ScanIndex(pts)
        rsl = reverse_skyline_naive(idx, pts, q, self_exclude=True)
        return idx, pts, q, rsl

    def test_matches_oracle_exactly(self):
        """Array engine vs pure-Python oracle: identical boxes, identical
        order, bit-identical area — across random cases."""
        from repro.core.safe_region import compute_safe_region_oracle

        for seed in range(6):
            idx, pts, q, rsl = self.make_case(seed)
            fast = compute_safe_region(idx, pts, q, rsl, UNIT, self_exclude=True)
            slow = compute_safe_region_oracle(
                idx, pts, q, rsl, UNIT, self_exclude=True
            )
            assert [b.lo.tolist() for b in fast.region.boxes] == [
                b.lo.tolist() for b in slow.region.boxes
            ], seed
            assert [b.hi.tolist() for b in fast.region.boxes] == [
                b.hi.tolist() for b in slow.region.boxes
            ], seed
            assert fast.area() == slow.area(), seed
            rng = np.random.default_rng(seed)
            for p in rng.uniform(0, 1, size=(50, 2)):
                assert fast.contains(p) == slow.contains(p), (seed, p)

    def test_stats_populated(self):
        idx, pts, q, rsl = self.make_case(2)
        sr = compute_safe_region(idx, pts, q, rsl, UNIT, self_exclude=True)
        stats = sr.stats
        assert stats is not None
        assert stats.members == rsl.size
        assert stats.intersections == rsl.size  # no early exit here
        assert stats.boxes_after_simplify <= stats.boxes_before_simplify
        assert stats.peak_boxes >= 1
        assert stats.budget_truncations == 0
        assert not stats.early_exit
        assert stats.cache_hits == stats.cache_misses == 0  # no cache passed
        assert 0.0 <= stats.member_seconds <= stats.build_seconds

    def test_box_budget_is_safe_underapproximation(self):
        idx, pts, q, rsl = self.make_case(0, n=40)
        exact = compute_safe_region(idx, pts, q, rsl, UNIT, self_exclude=True)
        if exact.stats.peak_boxes <= 2:
            pytest.skip("case too small to exercise the budget")
        budget = compute_safe_region(
            idx, pts, q, rsl, UNIT,
            config=WhyNotConfig(sr_box_budget=2), self_exclude=True,
        )
        assert budget.stats.budget_truncations >= 1
        assert budget.contains(q)
        assert budget.area() <= exact.area() + 1e-12
        rng = np.random.default_rng(9)
        if not budget.region.is_empty():
            for p in budget.region.sample_points(rng, 40):
                assert exact.contains(p)

    def test_chunked_early_exit_skips_later_members(self):
        """The empty-intersection early exit fires between members —
        later chunks are never built."""
        idx = ScanIndex(np.array([[0.5, 0.5]]))
        cache = _DisjointRegionCache()
        members = 3 * SR_CHUNK_SIZE
        positions = np.arange(members, dtype=np.int64)
        sr = compute_safe_region(
            idx,
            np.tile(np.linspace(0.1, 0.6, members)[:, None], (1, 2)),
            np.array([0.05, 0.05]),
            positions,
            UNIT,
            dsl_cache=cache,
        )
        assert sr.stats.early_exit
        # Only the first chunk's members were materialised.
        assert sorted(cache.calls) == list(range(SR_CHUNK_SIZE))
        assert sr.stats.intersections == 2
        # The degenerate {q} fallback keeps the invariant q ∈ SR(q).
        assert sr.contains([0.05, 0.05])
        assert sr.is_degenerate()
