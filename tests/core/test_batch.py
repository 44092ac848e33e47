"""Tests for composite answers and batch why-not answering."""

import numpy as np
import pytest

from repro import WhyNotEngine, answer_why_not, answer_why_not_batch
from repro.core.answer import (
    Explanation,
    ModificationResult,
    MWQCase,
    MWQResult,
)
from repro.core.batch import WhyNotAnswer
from repro.data.paperdata import paper_points, paper_query
from repro.data.synthetic import generate_uniform


class TestAnswerWhyNot:
    def test_composite_fields(self, paper_engine, paper_q):
        answer = answer_why_not(paper_engine, 0, paper_q)
        assert not answer.already_member
        assert answer.explanation.culprit_positions.tolist() == [1]
        assert len(answer.mwp) == 2
        assert len(answer.mqp) == 2
        assert answer.mwq.case is MWQCase.OVERLAP
        assert answer.best_cost() == 0.0

    def test_recommendation_c1(self, paper_engine, paper_q):
        answer = answer_why_not(paper_engine, 0, paper_q)
        text = answer.recommendation()
        assert "zero cost" in text
        assert "7.5, 55" in text

    def test_recommendation_member(self, paper_engine, paper_q):
        answer = answer_why_not(paper_engine, 1, paper_q)
        assert answer.already_member
        assert "nothing to do" in answer.recommendation()
        assert answer.best_cost() == 0.0

    def test_recommendation_c2(self):
        """A genuine C2 case produces the two-move recommendation."""
        ds = generate_uniform(400, seed=9)
        engine = WhyNotEngine(ds.points, backend="scan", bounds=ds.bounds)
        rng = np.random.default_rng(0)
        for _ in range(80):
            q = engine.customers[int(rng.integers(0, 400))] * 1.01
            q = np.clip(q, engine.bounds.lo, engine.bounds.hi)
            rsl = set(engine.reverse_skyline(q).tolist())
            if not rsl:
                continue
            j = int(rng.integers(0, 400))
            if j in rsl or engine.explain(j, q).is_member:
                continue
            answer = answer_why_not(engine, j, q)
            if answer.mwq.case is MWQCase.DISJOINT:
                text = answer.recommendation()
                assert "safe region" in text and "C2" in text
                assert np.isfinite(answer.best_cost())
                return
        pytest.skip("no C2 case found in the sampled workload")


class TestRecommendationNoFeasibleModification:
    def test_mwp_fallback_without_candidates_does_not_crash(self, paper_q):
        """Regression: ``mwq.best_pair()`` and ``mwp.best()`` can both be
        None (no candidate survived); the verdict must say so instead of
        dereferencing ``None.point``."""
        c_t = np.array([5.0, 30.0])
        lam = np.array([1], dtype=np.int64)
        answer = WhyNotAnswer(
            why_not=0,
            query=paper_q,
            explanation=Explanation(
                why_not=c_t,
                query=paper_q,
                culprit_positions=lam,
                culprits=np.array([[7.5, 42.0]]),
            ),
            mwp=ModificationResult(
                method="MWP",
                why_not=c_t,
                query=paper_q,
                lambda_positions=lam,
                frontier_positions=lam,
            ),
            mqp=ModificationResult(
                method="MQP",
                why_not=c_t,
                query=paper_q,
                lambda_positions=lam,
                frontier_positions=lam,
            ),
            mwq=MWQResult(case=MWQCase.DISJOINT, why_not=c_t, query=paper_q),
        )
        text = answer.recommendation()
        assert "no feasible modification" in text


class TestBatch:
    def test_batch_reuses_safe_region(self, paper_engine, paper_q):
        answers = answer_why_not_batch(paper_engine, [0, 4, 6], paper_q)
        assert len(answers) == 3
        # One cached SafeRegion object serves all three questions.
        assert len(paper_engine._sr_cache) == 1
        for answer in answers:
            assert answer.mwq.case is MWQCase.OVERLAP

    def test_batch_mixed_members(self, paper_engine, paper_q):
        answers = answer_why_not_batch(paper_engine, [0, 1], paper_q)
        assert not answers[0].already_member
        assert answers[1].already_member

    def test_batch_raw_points(self, paper_engine, paper_q):
        answers = answer_why_not_batch(
            paper_engine, [[5.0, 30.0], [26.0, 70.0]], paper_q
        )
        assert len(answers) == 2

    def test_batch_approximate(self, paper_engine, paper_q):
        answers = answer_why_not_batch(
            paper_engine, [0, 6], paper_q, approximate=True, k=3
        )
        assert len(answers) == 2
        for answer in answers:
            assert answer.mwq.case is not None

    def test_batch_member_fast_path_matches_pipeline(self, paper_pts, paper_q):
        """The kernel-backed member fast path must be observationally
        identical to running the full per-question pipeline."""
        from repro.config import WhyNotConfig
        from repro.data.paperdata import paper_dataset

        ds = paper_dataset()
        fast = WhyNotEngine(
            ds.points,
            backend="scan",
            bounds=ds.bounds,
            config=WhyNotConfig(planner="kernel"),
        )
        slow = WhyNotEngine(
            ds.points,
            backend="scan",
            bounds=ds.bounds,
            config=WhyNotConfig(planner="index"),
        )
        whys = [0, 1, 4, [5.0, 30.0], [26.0, 70.0]]
        for a, b in zip(
            answer_why_not_batch(fast, whys, paper_q),
            answer_why_not_batch(slow, whys, paper_q),
        ):
            assert a.already_member == b.already_member
            assert np.array_equal(
                a.explanation.culprit_positions, b.explanation.culprit_positions
            )
            assert a.mwq.case is b.mwq.case
            assert a.recommendation() == b.recommendation()
            assert a.best_cost() == b.best_cost()
            assert len(a.mwp) == len(b.mwp)
            assert len(a.mqp) == len(b.mqp)
            for ca, cb in zip(a.mwp, b.mwp):
                assert np.array_equal(ca.point, cb.point)
                assert ca.cost == cb.cost
                assert ca.verified == cb.verified
            for ca, cb in zip(a.mqp, b.mqp):
                assert np.array_equal(ca.point, cb.point)
                assert ca.cost == cb.cost
