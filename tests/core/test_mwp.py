"""Tests for Algorithm 1 (modify why-not point)."""

import numpy as np
import pytest

from repro.config import DominancePolicy, WhyNotConfig
from repro.core.mwp import modify_why_not_point
from repro.core._verify import verify_membership
from repro.index.scan import ScanIndex


def random_case(rng, n=30):
    pts = rng.uniform(0, 1, size=(n, 2))
    q = rng.uniform(0.3, 0.7, size=2)
    c = rng.uniform(0, 1, size=2)
    return ScanIndex(pts), c, q


class TestCandidates:
    def test_member_returns_noop(self):
        idx = ScanIndex(np.array([[10.0, 10.0]]))
        result = modify_why_not_point(idx, [0.0, 0.0], [1.0, 1.0])
        assert result.is_noop
        assert result.best().cost == 0.0
        assert result.best().verified

    def test_every_candidate_admits_membership(self):
        """The heart of Algorithm 1: each returned c_t* has an empty open
        window w.r.t. q."""
        rng = np.random.default_rng(0)
        checked = 0
        for _ in range(150):
            idx, c, q = random_case(rng)
            result = modify_why_not_point(idx, c, q)
            if result.is_noop:
                continue
            for cand in result.candidates:
                assert cand.verified, (c, q, cand)
                checked += 1
        assert checked > 100

    def test_candidates_stay_between_points(self):
        rng = np.random.default_rng(1)
        for _ in range(80):
            idx, c, q = random_case(rng)
            result = modify_why_not_point(idx, c, q)
            if result.is_noop:
                continue
            lo = np.minimum(c, q)
            hi = np.maximum(c, q)
            for cand in result.candidates:
                assert np.all(cand.point >= lo - 1e-12)
                assert np.all(cand.point <= hi + 1e-12)

    def test_candidates_pairwise_nondominated_in_movement(self):
        """'No two points in M dominate each other' (Section IV): no
        candidate moves less than another in every dimension."""
        rng = np.random.default_rng(2)
        for _ in range(80):
            idx, c, q = random_case(rng)
            result = modify_why_not_point(idx, c, q, WhyNotConfig())
            points = np.array([cand.point for cand in result.candidates])
            if result.lambda_positions.size == 0 or len(points) < 2:
                continue
            moves = np.abs(points - c)
            for i in range(len(moves)):
                for j in range(len(moves)):
                    if i == j:
                        continue
                    assert not (
                        np.all(moves[i] <= moves[j]) & np.any(moves[i] < moves[j])
                    ), (c, q, points)

    def test_margin_yields_weak_membership(self):
        """With a positive margin, candidates verify under WEAK too."""
        rng = np.random.default_rng(3)
        config = WhyNotConfig(margin=1e-6)
        for _ in range(60):
            idx, c, q = random_case(rng)
            result = modify_why_not_point(idx, c, q, config=config)
            if result.is_noop:
                continue
            for cand in result.candidates:
                assert verify_membership(
                    idx, cand.point, q, DominancePolicy.WEAK
                ), (c, q, cand)

    def test_exclusion_respected(self):
        # The why-not point itself sits in the window unless excluded.
        pts = np.array([[0.0, 0.0], [0.5, 0.5]])
        idx = ScanIndex(pts)
        with_self = modify_why_not_point(idx, pts[0], [1.0, 1.0], exclude=(0,))
        assert with_self.lambda_positions.tolist() == [1]

    def test_frontier_subset_of_lambda(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            idx, c, q = random_case(rng, n=60)
            result = modify_why_not_point(idx, c, q)
            lam = set(result.lambda_positions.tolist())
            frontier = set(result.frontier_positions.tolist())
            assert frontier <= lam

    def test_costs_reported_and_sorted(self):
        rng = np.random.default_rng(5)
        idx, c, q = random_case(rng)
        result = modify_why_not_point(idx, c, q, weights=[0.5, 0.5])
        costs = [cand.cost for cand in result.candidates]
        assert costs == sorted(costs)
        assert all(cost >= 0 for cost in costs)


class TestHigherDimensions:
    def test_3d_candidates_verified(self):
        rng = np.random.default_rng(6)
        verified_any = False
        for _ in range(60):
            pts = rng.uniform(0, 1, size=(40, 3))
            q = rng.uniform(0.3, 0.7, size=3)
            c = rng.uniform(0, 1, size=3)
            idx = ScanIndex(pts)
            result = modify_why_not_point(idx, c, q)
            if result.is_noop:
                continue
            # In d > 2 the staircase merge is heuristic, but the appended
            # fallback guarantees at least one verified candidate.
            assert any(cand.verified for cand in result.candidates), (c, q)
            verified_any = True
        assert verified_any

    def test_degenerate_dimension(self):
        # Why-not point ties the query in one dimension.
        pts = np.array([[0.5, 0.5]])
        idx = ScanIndex(pts)
        c = np.array([0.0, 1.0])
        q = np.array([1.0, 1.0])
        result = modify_why_not_point(idx, c, q)
        if not result.is_noop:
            for cand in result.candidates:
                assert cand.point[1] == 1.0  # Collapsed dimension fixed.
