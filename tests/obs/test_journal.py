"""Query-journal semantics: ring retention, counter deltas, latency
histograms, export round-trips, validation, and the engine hook."""

import numpy as np
import pytest

from repro.config import WhyNotConfig
from repro.core.engine import WhyNotEngine
from repro.geometry.box import Box
from repro.obs import (
    JournalRecord,
    MetricsRegistry,
    Observability,
    QueryJournal,
    validate_journal,
)

BOUNDS = Box(np.zeros(2), np.ones(2))


def _record(journal: QueryJournal, i: int, **overrides) -> JournalRecord:
    fields = {
        "surface": "safe_region",
        "operator": "sr-cached-fold",
        "epoch": 0,
        "config_fingerprint": "abc123",
        "actual_seconds": 0.002 + i * 1e-4,
        "counters": {"kernels.tiles": i + 1},
    }
    fields.update(overrides)
    return journal.record(**fields)


class TestRingRetention:
    def test_capacity_bounds_retained_records(self):
        journal = QueryJournal(capacity=3)
        for i in range(7):
            _record(journal, i)
        assert len(journal) == 3
        assert journal.appended == 7
        assert journal.dropped == 4

    def test_eviction_is_fifo_and_seq_survives(self):
        journal = QueryJournal(capacity=2)
        for i in range(5):
            _record(journal, i)
        seqs = [entry.seq for entry in journal]
        assert seqs == [3, 4]  # oldest evicted, seq keeps counting

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            QueryJournal(capacity=0)

    def test_clear_resets_accounting(self):
        journal = QueryJournal(capacity=2)
        for i in range(4):
            _record(journal, i)
        journal.clear()
        assert len(journal) == 0
        assert journal.appended == 0
        assert journal.dropped == 0

    def test_records_oldest_first(self):
        journal = QueryJournal(capacity=8)
        for i in range(3):
            _record(journal, i)
        assert [entry.seq for entry in journal.records()] == [0, 1, 2]


class TestCounterDeltas:
    def test_delta_tracks_only_prefixed_counters(self):
        metrics = MetricsRegistry()
        tracked = metrics.counter("kernels.tiles")
        untracked = metrics.counter("other.stuff")
        journal = QueryJournal(metrics=metrics)
        before = journal.counter_snapshot()
        tracked.inc(5)
        untracked.inc(9)
        assert journal.counter_delta(before) == {"kernels.tiles": 5}

    def test_zero_deltas_are_omitted(self):
        metrics = MetricsRegistry()
        metrics.counter("kernels.tiles")
        metrics.counter("prune.pairs_total").inc(2)
        journal = QueryJournal(metrics=metrics)
        before = journal.counter_snapshot()
        metrics.counter("prune.pairs_total").inc(3)
        assert journal.counter_delta(before) == {"prune.pairs_total": 3}

    def test_counter_born_mid_request_counts_from_zero(self):
        metrics = MetricsRegistry()
        journal = QueryJournal(metrics=metrics)
        before = journal.counter_snapshot()
        metrics.counter("prune.pairs_refined").inc(4)
        assert journal.counter_delta(before) == {"prune.pairs_refined": 4}

    def test_gauges_and_histograms_are_never_tracked(self):
        metrics = MetricsRegistry()
        metrics.gauge("engine.dataset_epoch").set(3)
        metrics.histogram("kernels.latency").observe(0.5)
        journal = QueryJournal(metrics=metrics)
        assert journal.counter_snapshot() == {}


class TestLatencyHistograms:
    def test_record_feeds_surface_and_operator_histograms(self):
        metrics = MetricsRegistry()
        journal = QueryJournal(metrics=metrics)
        _record(journal, 0)
        _record(journal, 1)
        surface = metrics.get("journal.surface.safe_region.seconds")
        op = metrics.get("journal.op.sr-cached-fold.seconds")
        assert surface.count == 2
        assert op.count == 2
        assert op.sum == pytest.approx(0.0041)

    def test_metrics_free_journal_records_without_histograms(self):
        journal = QueryJournal()
        entry = _record(journal, 0)
        assert entry.seq == 0
        assert len(journal) == 1


class TestExportRoundTrip:
    def test_jsonl_round_trips_through_from_dict(self):
        import json

        journal = QueryJournal()
        for i in range(3):
            _record(journal, i)
        lines = journal.to_jsonl().strip().split("\n")
        restored = [
            JournalRecord.from_dict(json.loads(line)) for line in lines
        ]
        assert restored == journal.records()

    def test_write_jsonl(self, tmp_path):
        journal = QueryJournal()
        _record(journal, 0)
        path = tmp_path / "journal.jsonl"
        journal.write_jsonl(path)
        assert path.read_text() == journal.to_jsonl()

    def test_to_payload_shape(self):
        journal = QueryJournal(capacity=2)
        for i in range(3):
            _record(journal, i)
        payload = journal.to_payload()
        assert payload["capacity"] == 2
        assert payload["appended"] == 3
        assert payload["dropped"] == 1
        assert [r["seq"] for r in payload["records"]] == [1, 2]

    def test_summary_aggregates_per_surface(self):
        journal = QueryJournal()
        _record(journal, 0)
        _record(journal, 1, surface="membership", operator="membership-kernel")
        summary = journal.summary()
        assert summary["surfaces"]["safe_region"]["count"] == 1
        assert summary["surfaces"]["membership"]["count"] == 1
        assert summary["appended"] == 2


class TestValidateJournal:
    def test_consistent_journal_passes(self):
        journal = QueryJournal(capacity=2)
        for i in range(5):
            _record(journal, i)
        validate_journal(journal)

    def test_non_monotone_seq_rejected(self):
        a = JournalRecord(2, "s", "op", 0, "fp", 0.0, {})
        b = JournalRecord(2, "s", "op", 0, "fp", 0.0, {})
        with pytest.raises(ValueError, match="seq"):
            validate_journal([a, b])

    def test_negative_duration_rejected(self):
        bad = JournalRecord(0, "s", "op", 0, "fp", -1.0, {})
        with pytest.raises(ValueError, match="negative duration"):
            validate_journal([bad])

    def test_empty_surface_rejected(self):
        bad = JournalRecord(0, "", "op", 0, "fp", 0.0, {})
        with pytest.raises(ValueError, match="surface"):
            validate_journal([bad])

    def test_malformed_counters_rejected(self):
        bad = JournalRecord(0, "s", "op", 0, "fp", 0.0, {"k": "oops"})
        with pytest.raises(ValueError, match="not numeric"):
            validate_journal([bad])

    def test_tampered_accounting_rejected(self):
        # dropped is derived (appended - retained), so the detectable
        # lie is an appended count below what the ring retains.
        journal = QueryJournal(capacity=4)
        _record(journal, 0)
        _record(journal, 1)
        journal.appended = 1
        with pytest.raises(ValueError, match="negative drop count"):
            validate_journal(journal)


class TestEngineIntegration:
    def _engine(self, **config_kwargs) -> WhyNotEngine:
        rng = np.random.default_rng(11)
        return WhyNotEngine(
            rng.random((60, 2)),
            backend="scan",
            config=WhyNotConfig(**config_kwargs),
            bounds=BOUNDS,
        )

    def test_journal_off_by_default(self):
        engine = self._engine(trace=True)
        assert engine.journal is None
        engine.reverse_skyline(np.array([0.5, 0.5]))

    def test_one_record_per_executed_plan(self):
        engine = self._engine(trace=True, journal=True)
        q = np.array([0.5, 0.5])
        engine.reverse_skyline(q)
        engine.safe_region(q)
        engine.membership_mask([0, 1, 2], q)
        journal = engine.journal
        assert [entry.surface for entry in journal] == [
            "reverse_skyline",
            "safe_region",
            "membership",
        ]
        validate_journal(journal)
        for entry in journal:
            assert entry.operator
            assert entry.epoch == engine.dataset_epoch
            assert entry.config_fingerprint == engine._config_fp_digest
            assert entry.actual_seconds >= 0.0

    def test_records_carry_kernel_counter_deltas(self):
        engine = self._engine(trace=True, journal=True)
        engine.membership_mask(list(range(40)), np.array([0.5, 0.5]))
        (entry,) = engine.journal.records()
        assert any(name.startswith("kernels.") for name in entry.counters)

    def test_journal_works_without_trace(self):
        # Journal without tracing: records are written, but the kernel
        # counters are not threaded, so deltas stay sparse.
        engine = self._engine(journal=True)
        engine.reverse_skyline(np.array([0.5, 0.5]))
        assert len(engine.journal) == 1

    def test_epoch_recorded_across_mutations(self):
        engine = self._engine(trace=True, journal=True)
        q = np.array([0.5, 0.5])
        engine.reverse_skyline(q)
        engine.insert_products(np.array([[0.25, 0.75]]))
        engine.reverse_skyline(q)
        epochs = [entry.epoch for entry in engine.journal]
        assert epochs[0] < epochs[-1]

    def test_capacity_comes_from_config(self):
        engine = self._engine(trace=True, journal=True, journal_capacity=2)
        q = np.array([0.5, 0.5])
        for _ in range(3):
            engine.reverse_skyline(np.copy(q))
            engine.safe_region(np.copy(q))
        assert engine.journal.capacity == 2
        assert len(engine.journal) == 2
        assert engine.journal.dropped > 0

    def test_journal_capacity_validated(self):
        with pytest.raises(ValueError):
            WhyNotConfig(journal_capacity=0)

    def test_observability_clear_clears_journal(self):
        obs = Observability(enabled=True)
        obs.journal = QueryJournal(metrics=obs.metrics)
        _record(obs.journal, 0)
        obs.clear()
        assert len(obs.journal) == 0
        assert obs.journal.appended == 0
