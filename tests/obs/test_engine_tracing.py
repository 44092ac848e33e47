"""Engine-level tracing: span coverage of the full pipeline, the inert
disabled path, and counter invariance across kernel configurations."""

import numpy as np
import pytest

from repro.config import WhyNotConfig
from repro.core.batch import answer_why_not, answer_why_not_batch
from repro.core.engine import WhyNotEngine
from repro.obs import validate_export

N = 120
REQUIRED_SPANS = {
    "pipeline.answer_why_not",
    "engine.explain",
    "engine.mwp",
    "engine.mqp",
    "engine.mwq",
    "engine.safe_region",
}


def _points(n=N, seed=11):
    return np.random.default_rng(seed).uniform(0, 1, size=(n, 2))


def _why_not_position(engine, q):
    members = set(engine.reverse_skyline(q).tolist())
    for position in range(engine.customers.shape[0]):
        if position not in members:
            return position
    raise AssertionError("no why-not customer found")


class TestTracedPipeline:
    def test_full_pipeline_span_coverage(self):
        engine = WhyNotEngine(_points(), config=WhyNotConfig(trace=True))
        q = np.array([0.45, 0.55])
        why_not = _why_not_position(engine, q)
        engine.obs.clear()
        answer_why_not(engine, why_not, q)

        names = {s.name for s in engine.obs.tracer.iter_spans()}
        assert REQUIRED_SPANS <= names
        assert engine.obs.tracer.is_balanced
        # MWQ runs the safe-region build as a child step.
        (pipeline_root,) = engine.obs.tracer.roots
        assert pipeline_root.name == "pipeline.answer_why_not"
        mwq = [c for c in pipeline_root.children if c.name == "engine.mwq"]
        assert mwq and any(
            c.name == "engine.safe_region" for c in mwq[0].children
        )

    def test_every_span_has_wall_time(self):
        engine = WhyNotEngine(_points(), config=WhyNotConfig(trace=True))
        q = np.array([0.45, 0.55])
        answer_why_not(engine, _why_not_position(engine, q), q)
        for span in engine.obs.tracer.iter_spans():
            assert span.closed
            assert span.duration_s is not None and span.duration_s >= 0

    def test_export_validates_and_carries_counters(self):
        engine = WhyNotEngine(_points(), config=WhyNotConfig(trace=True))
        q = np.array([0.45, 0.55])
        answer_why_not(engine, _why_not_position(engine, q), q)
        payload = engine.obs.export(env=True)
        validate_export(payload)
        metrics = payload["metrics"]
        assert metrics["safe_region.members"] >= 1
        assert metrics["region.boxes_created"] > 0
        assert metrics["index.queries"] > 0
        assert "python" in payload["env"]

    def test_batch_span_records_question_count(self):
        engine = WhyNotEngine(_points(), config=WhyNotConfig(trace=True))
        q = np.array([0.45, 0.55])
        why_not = _why_not_position(engine, q)
        engine.obs.clear()
        answer_why_not_batch(engine, [why_not], q)
        (batch_span,) = engine.obs.tracer.find("pipeline.answer_why_not_batch")
        assert batch_span.attributes["questions"] == 1

    def test_safe_region_span_attributes(self):
        engine = WhyNotEngine(_points(), config=WhyNotConfig(trace=True))
        q = np.array([0.45, 0.55])
        engine.safe_region(q)
        (span,) = engine.obs.tracer.find("engine.safe_region")
        assert span.attributes["members"] >= 1
        assert span.attributes["boxes"] >= 1
        assert "early_exit" in span.attributes


class TestDisabledPath:
    def test_untraced_engine_records_nothing(self):
        engine = WhyNotEngine(_points())
        assert not engine.obs.enabled
        q = np.array([0.45, 0.55])
        answer_why_not(engine, _why_not_position(engine, q), q)
        assert engine.obs.tracer.roots == []
        assert engine.obs.tracer.spans_started == 0

    def test_untraced_engine_leaves_region_counters_untouched(self):
        engine = WhyNotEngine(_points())
        q = np.array([0.45, 0.55])
        engine.safe_region(q)
        snap = engine.obs.metrics.snapshot()
        # No kernels.* / region.* metrics are even registered untraced;
        # the attached stats views still work but the obs-only counters
        # stay silent.
        assert not any(name.startswith("region.") for name in snap)
        assert not any(name.startswith("kernels.") for name in snap)
        assert snap["engine.membership_tests"] == 0

    def test_stats_views_still_work_untraced(self):
        engine = WhyNotEngine(_points())
        q = np.array([0.45, 0.55])
        engine.safe_region(q)
        assert engine.dsl_cache.stats.misses > 0
        assert engine.safe_region_totals.members >= 1


class TestCounterInvariance:
    @pytest.mark.parametrize("trace", [False, True])
    def test_membership_tests_invariant_under_batch_kernels(self, trace):
        pts = _points()
        q = np.array([0.45, 0.55])
        counts = {}
        for pin in ("index", "kernel", "pruned"):
            engine = WhyNotEngine(
                pts, config=WhyNotConfig(trace=trace, planner=pin)
            )
            probe = [0, 1, 2, 3, 4]
            mask = engine.membership_mask(probe, q)
            counts[pin] = engine.obs.metrics.snapshot()[
                "engine.membership_tests"
            ]
            assert mask.shape == (len(probe),)
        # One increment per membership predicate, regardless of path.
        assert counts == {"index": 5, "kernel": 5, "pruned": 5}

    def test_cache_bypass_counts_only_skipped_cache_lookups(self):
        """``prefs.cache_bypass`` counts skipped result-cache lookups:
        surfaces without a result cache never move it, a weighted
        reverse skyline skips exactly one lookup."""
        engine = WhyNotEngine(_points())
        q = np.array([0.45, 0.55])
        weights = (1.0, 2.0)

        def bypassed() -> int:
            return engine.obs.metrics.snapshot()["prefs.cache_bypass"]

        engine.explain(0, q, weights=weights)
        engine.membership_mask([0, 1, 2], q, weights=weights)
        engine.modify_why_not_point(0, q, weights=weights)
        assert bypassed() == 0
        engine.reverse_skyline(q, weights=weights)
        assert bypassed() == 1

    def test_reverse_skyline_same_result_traced_and_untraced(self):
        pts = _points()
        q = np.array([0.45, 0.55])
        untraced = WhyNotEngine(pts)
        traced = WhyNotEngine(pts, config=WhyNotConfig(trace=True))
        np.testing.assert_array_equal(
            untraced.reverse_skyline(q), traced.reverse_skyline(q)
        )

    def test_safe_region_identical_traced_and_untraced(self):
        pts = _points()
        q = np.array([0.45, 0.55])
        untraced = WhyNotEngine(pts).safe_region(q)
        traced = WhyNotEngine(pts, config=WhyNotConfig(trace=True)).safe_region(q)
        assert len(untraced.region) == len(traced.region)
        assert untraced.area() == traced.area()


class TestEngineTotals:
    def test_safe_region_totals_accumulate_across_queries(self):
        engine = WhyNotEngine(_points(), config=WhyNotConfig(trace=True))
        engine.safe_region(np.array([0.45, 0.55]))
        first = engine.safe_region_totals.members
        engine.safe_region(np.array([0.52, 0.48]))
        assert engine.safe_region_totals.members >= first
        assert engine.safe_region_totals.build_seconds > 0

    def test_per_call_stats_stay_per_call(self):
        engine = WhyNotEngine(_points(), config=WhyNotConfig(trace=True))
        sr = engine.safe_region(np.array([0.45, 0.55]))
        assert sr.stats is engine.last_safe_region_stats
        assert sr.stats is not engine.safe_region_totals
