"""Export schema ``repro.obs/3``: journal section validation, v1
backward compatibility, Prometheus name hygiene and collision refusal."""

import pytest

from repro.obs import (
    SCHEMA,
    SCHEMA_V1,
    MetricsRegistry,
    Observability,
    QueryJournal,
    Tracer,
    export_obs,
    prom_name,
    to_prometheus,
    validate_export,
)


def _journaled_payload() -> dict:
    obs = Observability(enabled=True)
    obs.journal = QueryJournal(metrics=obs.metrics)
    with obs.span("engine.work"):
        obs.counter("kernels.tiles").inc(3)
    obs.journal.record(
        surface="safe_region",
        operator="sr-cached-fold",
        epoch=0,
        config_fingerprint="fp",
        actual_seconds=0.002,
        counters={"kernels.tiles": 3},
    )
    return obs.export()


class TestSchemaTags:
    def test_current_export_is_v3(self):
        payload = _journaled_payload()
        assert payload["schema"] == SCHEMA == "repro.obs/3"
        assert "estimated_seconds" not in payload["journal"]["records"][0]
        validate_export(payload)

    def test_v1_payload_without_journal_still_validates(self):
        # The shape old archives have: no journal, no spans_dropped.
        payload = {
            "schema": SCHEMA_V1,
            "spans": [],
            "balanced": True,
            "spans_started": 0,
            "spans_closed": 0,
            "metrics": {"kernels.tiles": 3},
        }
        validate_export(payload)

    def test_unknown_schema_rejected(self):
        with pytest.raises(ValueError, match="schema"):
            validate_export({"schema": "repro.obs/2"})
        with pytest.raises(ValueError, match="schema"):
            validate_export({"schema": "repro.obs/4"})
        with pytest.raises(ValueError, match="schema"):
            validate_export({"schema": ""})

    def test_spans_dropped_must_be_non_negative_int(self):
        payload = _journaled_payload()
        payload["spans_dropped"] = -1
        with pytest.raises(ValueError, match="spans_dropped"):
            validate_export(payload)
        payload["spans_dropped"] = "lots"
        with pytest.raises(ValueError, match="spans_dropped"):
            validate_export(payload)

    def test_dropped_roots_counted_in_export(self):
        tracer = Tracer(enabled=True, max_roots=1)
        for name in ("a", "b"):
            with tracer.span(name):
                pass
        payload = export_obs(tracer=tracer)
        assert payload["spans_dropped"] == 1
        validate_export(payload)


class TestJournalSection:
    def test_export_carries_journal_payload(self):
        payload = _journaled_payload()
        assert payload["journal"]["appended"] == 1
        (record,) = payload["journal"]["records"]
        assert record["operator"] == "sr-cached-fold"

    def test_journal_accounting_violation_rejected(self):
        payload = _journaled_payload()
        payload["journal"]["appended"] = 7  # retained 1 + dropped 0 != 7
        with pytest.raises(ValueError, match="accounting"):
            validate_export(payload)

    def test_journal_seq_order_violation_rejected(self):
        payload = _journaled_payload()
        record = dict(payload["journal"]["records"][0])
        payload["journal"]["records"].append(record)  # duplicate seq
        payload["journal"]["appended"] = 2
        with pytest.raises(ValueError, match="seq"):
            validate_export(payload)

    def test_journal_empty_operator_rejected(self):
        payload = _journaled_payload()
        payload["journal"]["records"][0]["operator"] = ""
        with pytest.raises(ValueError, match="operator"):
            validate_export(payload)

    def test_journal_negative_seconds_rejected(self):
        payload = _journaled_payload()
        payload["journal"]["records"][0]["actual_seconds"] = -0.5
        with pytest.raises(ValueError, match="actual_seconds"):
            validate_export(payload)

    def test_journal_section_round_trips_json(self):
        import json

        payload = _journaled_payload()
        validate_export(json.loads(json.dumps(payload)))


class TestPromNameHygiene:
    def test_dots_and_hyphens_become_underscores(self):
        assert prom_name("journal.op.sr-cached-fold") == (
            "repro_journal_op_sr_cached_fold"
        )
        assert prom_name("prune.pairs_refined") == (
            "repro_prune_pairs_refined"
        )

    def test_leading_non_alpha_is_guarded(self):
        name = prom_name("0weird")
        assert name.startswith("repro_")
        assert name == "repro__0weird"

    def test_legacy_alias_still_exported(self):
        from repro.obs.exporters import _prom_name

        assert _prom_name is prom_name

    def test_sanitized_names_round_trip_through_exposition(self):
        metrics = MetricsRegistry()
        metrics.counter("prune.pairs_refined").inc(2)
        metrics.gauge("journal.op.rsl-kernel-verify").set(1.5)
        text = to_prometheus(metrics)
        assert "repro_prune_pairs_refined_total 2" in text
        assert "repro_journal_op_rsl_kernel_verify 1.5" in text
        for line in text.splitlines():
            if line and not line.startswith("#"):
                metric_name = line.split(None, 1)[0].split("{")[0]
                assert "-" not in metric_name
                assert "." not in metric_name

    def test_collision_after_sanitizing_refused(self):
        metrics = MetricsRegistry()
        metrics.counter("journal.op.sr-cached-fold").inc()
        metrics.counter("journal.op.sr_cached_fold").inc()
        with pytest.raises(ValueError, match="sanitize"):
            to_prometheus(metrics)
