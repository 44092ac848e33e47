"""EXPLAIN reports: every executed operator carries its measured cost,
trees render readably, and validation catches holes."""

import numpy as np
import pytest

from repro.config import WhyNotConfig
from repro.core.engine import WhyNotEngine
from repro.plan.explain import render_plan_tree, validate_plan_report

Q = np.array([0.5, 0.5])

SURFACE_CALLS = [
    ("reverse_skyline", (Q,), {}),
    ("membership", ([1, 2, 3], Q), {}),
    ("explain", (1, Q), {}),
    ("mwp", (1, Q), {}),
    ("mqp", (1, Q), {}),
    ("safe_region", (Q,), {}),
    ("safe_region", (Q,), {"approximate": True, "k": 4}),
    ("mwq", (1, Q), {}),
    ("batch", ([1, 2], Q), {}),
]


# "fixed": the arm pinned to the kernel variants, which is what the
# default config dispatches to on data the summaries cannot prune.
@pytest.fixture(params=["auto", pytest.param("kernel", id="fixed")])
def engine(request):
    points = np.random.default_rng(13).random((50, 2))
    return WhyNotEngine(
        points, config=WhyNotConfig(planner=request.param, trace=True)
    )


class TestReportContract:
    @pytest.mark.parametrize(
        "surface,args,kwargs",
        SURFACE_CALLS,
        ids=[c[0] + str(c[2]) for c in SURFACE_CALLS],
    )
    def test_every_surface_validates(self, engine, surface, args, kwargs):
        report = engine.explain_plan(surface, *args, **kwargs)
        report.validate()
        assert report.surface == surface
        assert report.result is not None
        for node in report.executed_nodes():
            assert node.actual_seconds is not None
            assert node.actual_seconds >= 0
            assert node.executions >= 1

    def test_result_matches_direct_call(self, engine):
        report = engine.explain_plan("reverse_skyline", Q)
        assert np.array_equal(report.result, engine.reverse_skyline(Q))

    def test_plan_cached_flag(self, engine):
        first = engine.explain_plan("reverse_skyline", Q)
        second = engine.explain_plan("reverse_skyline", np.array([0.1, 0.9]))
        assert not first.plan_cached
        assert second.plan_cached


class TestRendering:
    def test_render_contains_operator_and_costs(self, engine):
        text = engine.explain_plan("mwq", 1, Q).render()
        assert "surface=mwq" in text
        assert "mwq-combine" in text
        assert "actual=" in text and "runs=" in text
        assert "epoch=0" in text and "backend=" in text
        # Children indent under the root.
        lines = text.splitlines()
        assert any(line.startswith("  ") for line in lines[2:])

    def test_render_plan_tree_alone(self, engine):
        report = engine.explain_plan("safe_region", Q)
        tree = render_plan_tree(report.root)
        assert "safe_region" in tree
        assert "reverse_skyline" in tree


class TestValidationFailures:
    def test_unexecuted_root_rejected(self, engine):
        prepared = engine.prepare("reverse_skyline", Q)
        report = prepared.report()
        with pytest.raises(ValueError, match="never executed"):
            validate_plan_report(report)

    def test_missing_actual_rejected(self, engine):
        report = engine.explain_plan("reverse_skyline", Q)
        report.root.actual_seconds = None
        with pytest.raises(ValueError, match="actual"):
            report.validate()


class TestTracingOff:
    def test_explain_works_untraced(self):
        points = np.random.default_rng(17).random((40, 2))
        engine = WhyNotEngine(points)  # trace defaults off
        report = engine.explain_plan("mwq", 2, Q)
        report.validate()
        # Actuals fall back to the executor's own clock when spans are
        # null; they must still be present.
        for node in report.executed_nodes():
            assert node.actual_seconds is not None
