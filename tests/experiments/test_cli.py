"""Tests for the CLI harness."""

import io
import multiprocessing
from contextlib import redirect_stdout

import pytest

from repro.experiments import audit
from repro.experiments.cli import build_parser, main


class TestParser:
    def test_experiment_choices(self):
        parser = build_parser()
        args = parser.parse_args(["table3"])
        assert args.experiment == "table3"
        assert args.backend == "scan"

    def test_sizes_override(self):
        args = build_parser().parse_args(["table4", "--sizes", "100", "200"])
        assert args.sizes == [100, 200]

    def test_full_flag(self):
        args = build_parser().parse_args(["fig14", "--full"])
        assert args.full

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table99"])

    def test_audit_replaces_the_divergence_experiments(self):
        assert build_parser().parse_args(["audit"]).experiment == "audit"
        for retired in ("updates", "shard", "prune", "obs", "serve", "weighted"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([retired])


class TestMain:
    def test_table3_small(self, capsys):
        code = main(["table3", "--sizes", "300", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table III" in out
        assert "MWQ" in out
        assert "regenerated" in out

    def test_fig14_small(self, capsys):
        code = main(["fig14", "--sizes", "300", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 14" in out
        assert "|RSL|=" in out

    def test_table5_small(self, capsys):
        code = main(
            ["table5", "--sizes", "300", "--seed", "1", "--k", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Approx-MWQ(k=3)" in out


class TestPlotAndOutput:
    def test_plot_flag_adds_chart(self, capsys):
        code = main(["fig14", "--sizes", "300", "--seed", "1", "--plot"])
        assert code == 0
        out = capsys.readouterr().out
        assert "(log scale)" in out
        assert "o=CarDB-300" in out

    def test_output_file_written(self, capsys, tmp_path):
        target = tmp_path / "out.txt"
        code = main(
            ["table4", "--sizes", "300", "--seed", "1", "--output", str(target)]
        )
        assert code == 0
        text = target.read_text()
        assert "Table IV" in text
        assert text == capsys.readouterr().out


class TestRunArchive:
    def test_run_writes_json(self, capsys, tmp_path):
        target = tmp_path / "records.json"
        code = main(
            ["run", "--sizes", "250", "--seed", "2", "--json", str(target)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Experiment run" in out
        assert "archived" in out

        from repro.data.io import load_results_json

        results = load_results_json(target)
        assert len(results) == 4  # CarDB + UN + CO + AC.
        assert all(r.records for r in results)

    def test_validate_exit_code_zero_on_pass(self):
        code = main(["validate", "--sizes", "900", "--seed", "7", "--k", "10"])
        assert code == 0


class TestTraceExperiment:
    def test_trace_flags_parse(self):
        args = build_parser().parse_args(
            ["trace", "--trace", "--metrics-out", "obs.json"]
        )
        assert args.experiment == "trace"
        assert args.trace
        assert args.metrics_out == "obs.json"

    def test_trace_prints_span_tree_and_counters(self, capsys):
        code = main(["trace", "--sizes", "250", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Traced workload" in out
        assert "pipeline.answer_why_not" in out
        assert "engine.safe_region" in out
        assert "counters:" in out
        assert "safe_region.members" in out

    def test_trace_metrics_out_validates(self, capsys, tmp_path):
        import json

        target = tmp_path / "obs.json"
        code = main(
            ["trace", "--sizes", "250", "--seed", "1",
             "--metrics-out", str(target)]
        )
        assert code == 0

        from repro.obs import validate_export

        payload = json.loads(target.read_text())
        validate_export(payload)
        assert payload["balanced"] is True
        assert payload["experiment"] == "trace"
        names = set()

        def collect(span):
            names.add(span["name"])
            for child in span.get("children", []):
                collect(child)

        for span in payload["spans"]:
            collect(span)
        assert {
            "pipeline.answer_why_not",
            "engine.explain",
            "engine.mwp",
            "engine.mqp",
            "engine.mwq",
            "engine.safe_region",
        } <= names

    def test_run_honours_trace(self, capsys, tmp_path):
        import json

        target = tmp_path / "obs.json"
        code = main(
            ["run", "--sizes", "250", "--seed", "2", "--trace",
             "--metrics-out", str(target)]
        )
        assert code == 0
        assert "observability payloads" in capsys.readouterr().out

        from repro.obs import validate_export

        payload = json.loads(target.read_text())
        assert len(payload["datasets"]) == 4
        for sub in payload["datasets"].values():
            validate_export(sub)

    def test_validate_honours_trace(self, capsys, tmp_path):
        import json

        target = tmp_path / "obs.json"
        code = main(
            ["validate", "--sizes", "400", "--seed", "7", "--k", "10",
             "--trace", "--metrics-out", str(target)]
        )
        code_out = capsys.readouterr().out
        assert "observability export validated" in code_out

        from repro.obs import validate_export

        validate_export(json.loads(target.read_text()))


class TestExplainExperiment:
    def test_explain_prints_plan_trees(self, capsys):
        code = main(["explain", "--sizes", "250", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "EXPLAIN over UN-250" in out
        assert "planner=auto" in out
        # One report per surface, with operators and measured costs.
        for surface in (
            "surface=reverse_skyline",
            "surface=membership",
            "surface=explain",
            "surface=mwp",
            "surface=mqp",
            "surface=safe_region",
            "surface=mwq",
            "surface=batch",
        ):
            assert surface in out
        assert "actual=" in out and "est=" not in out
        assert "plan cache: considered=" in out

    def test_explain_rtree_backend(self, capsys):
        code = main(
            ["explain", "--sizes", "200", "--seed", "2", "--backend", "rtree"]
        )
        assert code == 0
        assert "backend=rtree" in capsys.readouterr().out


class TestAudit:
    @pytest.fixture(scope="class")
    def audit_run(self):
        """One tiny audit run shared by the class: exit code, output,
        every engine the audit opened and the child processes it left."""
        opened = []

        class TrackedEngine(audit.WhyNotEngine):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                opened.append(self)

        before = {p.pid for p in multiprocessing.active_children()}
        out = io.StringIO()
        with pytest.MonkeyPatch.context() as mp, redirect_stdout(out):
            mp.setattr(audit, "WhyNotEngine", TrackedEngine)
            code = main(["audit", "--sizes", "120", "--seed", "3"])
        left = [
            p for p in multiprocessing.active_children() if p.pid not in before
        ]
        return code, out.getvalue(), opened, left

    def test_audit_passes_and_exits_zero(self, audit_run):
        code, out, _, _ = audit_run
        assert code == 0
        assert "[FAIL]" not in out
        assert "all checks passed" in out
        assert "engine.mutations == program ops" in out

    def test_audit_covers_both_conventions(self, audit_run):
        _, out, _, _ = audit_run
        for case in ("mono:", "bi:", "clustered:"):
            assert case in out
        assert "served all" in out
        assert "== oracle" in out

    def test_audit_closes_every_engine_and_pool(self, audit_run):
        _, _, opened, left = audit_run
        # Per case 4 engine arms and a rebuilt engine in each of 4
        # rounds, plus the served engine; no child process outlives it.
        assert len(opened) == 3 * (4 + 4) + 1
        assert all(engine.closed for engine in opened)
        assert left == []

    def test_audit_rtree_backend(self, capsys, monkeypatch):
        real_cases = audit._cases
        monkeypatch.setattr(
            audit, "_cases", lambda size, seed: real_cases(size, seed)[:1]
        )
        code = main(
            ["audit", "--sizes", "120", "--seed", "3", "--backend", "rtree"]
        )
        assert code == 0
        assert "[FAIL]" not in capsys.readouterr().out

    def test_planted_divergence_fails_naming_arm_and_surface(
        self, capsys, monkeypatch
    ):
        real_answer, real_cases = audit.canonical_answer, audit._cases

        def flip_one_bit(engine, q, members, why_nots, weights=None):
            answer = real_answer(engine, q, members, why_nots, weights)
            if engine.config.planner == "kernel":
                mask = list(answer["membership"])
                mask[0] = not mask[0]
                answer["membership"] = mask
            return answer

        monkeypatch.setattr(audit, "canonical_answer", flip_one_bit)
        monkeypatch.setattr(
            audit, "_cases", lambda size, seed: real_cases(size, seed)[:1]
        )
        code = main(["audit", "--sizes", "120", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 1
        failures = [line for line in out.splitlines() if "[FAIL]" in line]
        assert len(failures) == 1
        assert "kernel/1" in failures[0]
        assert "membership" in failures[0]
