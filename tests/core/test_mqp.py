"""Tests for Algorithm 2 (modify query point)."""

import numpy as np
import pytest

from repro.config import DominancePolicy, WhyNotConfig
from repro.core.mqp import modify_query_point
from repro.core._verify import verify_membership
from repro.index.scan import ScanIndex


def random_case(rng, n=30, dim=2):
    pts = rng.uniform(0, 1, size=(n, dim))
    q = rng.uniform(0.3, 0.7, size=dim)
    c = rng.uniform(0, 1, size=dim)
    return ScanIndex(pts), c, q


class TestCandidates:
    def test_member_returns_noop(self):
        idx = ScanIndex(np.array([[10.0, 10.0]]))
        result = modify_query_point(idx, [0.0, 0.0], [1.0, 1.0])
        assert result.is_noop
        assert result.best().cost == 0.0

    def test_every_candidate_enters_dsl(self):
        """Each refined q* must join the dynamic skyline of c_t."""
        rng = np.random.default_rng(0)
        checked = 0
        for _ in range(150):
            idx, c, q = random_case(rng)
            result = modify_query_point(idx, c, q)
            if result.is_noop:
                continue
            for cand in result.candidates:
                assert cand.verified, (c, q, cand)
                checked += 1
        assert checked > 100

    def test_candidates_between_points(self):
        rng = np.random.default_rng(1)
        for _ in range(80):
            idx, c, q = random_case(rng)
            result = modify_query_point(idx, c, q)
            if result.is_noop:
                continue
            lo = np.minimum(c, q) - 1e-12
            hi = np.maximum(c, q) + 1e-12
            for cand in result.candidates:
                assert np.all(cand.point >= lo) and np.all(cand.point <= hi)

    def test_movement_candidates_nondominated(self):
        rng = np.random.default_rng(2)
        for _ in range(60):
            idx, c, q = random_case(rng)
            result = modify_query_point(idx, c, q, WhyNotConfig())
            points = np.array([cand.point for cand in result.candidates])
            if result.lambda_positions.size == 0 or len(points) < 2:
                continue
            moves = np.abs(points - q)
            for i in range(len(moves)):
                for j in range(len(moves)):
                    if i != j:
                        assert not (
                            np.all(moves[i] <= moves[j])
                            & np.any(moves[i] < moves[j])
                        )

    def test_margin_weak_membership(self):
        rng = np.random.default_rng(3)
        config = WhyNotConfig(margin=1e-6)
        for _ in range(60):
            idx, c, q = random_case(rng)
            result = modify_query_point(idx, c, q, config=config)
            if result.is_noop:
                continue
            for cand in result.candidates:
                assert verify_membership(
                    idx, c, cand.point, DominancePolicy.WEAK
                ), (c, q, cand)

    def test_frontier_on_opposite_side_mirrored(self):
        """A blocker on the far side of c_t from q still yields candidates
        on q's side (the mirror construction)."""
        # c at origin, q upper-right, blocker lower-left inside the window.
        idx = ScanIndex(np.array([[-0.2, -0.3]]))
        c = np.array([0.0, 0.0])
        q = np.array([1.0, 1.0])
        result = modify_query_point(idx, c, q)
        assert not result.is_noop
        for cand in result.candidates:
            assert np.all(cand.point >= -1e-12)  # Never crosses to far side.
            assert cand.verified

    def test_3d_has_verified_candidate(self):
        rng = np.random.default_rng(4)
        seen = False
        for _ in range(60):
            idx, c, q = random_case(rng, dim=3)
            result = modify_query_point(idx, c, q)
            if result.is_noop:
                continue
            assert any(cand.verified for cand in result.candidates)
            seen = True
        assert seen


class TestSymmetryWithMWP:
    def test_computations_not_symmetrical(self, paper_engine, paper_q):
        """Section V: 'their computations are not symmetrical' — MQP moves
        q onto the dynamic skyline of c_t, MWP moves c_t so q dominates
        the window content.  The two candidate sets differ."""
        mwp = {tuple(c.point) for c in paper_engine.modify_why_not_point(0, paper_q)}
        mqp = {tuple(c.point) for c in paper_engine.modify_query_point(0, paper_q)}
        assert mwp.isdisjoint(mqp)
