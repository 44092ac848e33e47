"""Per-query journal: one structured record per executed plan.

The :class:`QueryJournal` is the engine's bounded flight recorder.  The
executor layer feeds it one :class:`JournalRecord` per top-level plan
execution — surface, chosen operator, dataset epoch, config
fingerprint, measured seconds, and the per-request *counter
deltas* of the tracked counter families (``kernels.*`` / ``prune.*`` /
``cache.*`` and friends).  Records live in a ring of
fixed capacity, so a long-lived serving engine pays O(capacity) memory
no matter how many queries it answers; evictions are accounted in
:attr:`QueryJournal.dropped`.

Layering: this module is pure data + aggregation.  It never imports the
engine, planner or kernels — upper layers construct the field values
and call :meth:`QueryJournal.record` (see
:meth:`repro.core.engine.WhyNotEngine._run_plan`).

Naming note: a :class:`JournalRecord` is a *runtime provenance* row
(one executed plan), deliberately distinct from
:class:`repro.experiments.records.QueryRecord`, which is an
*experiment measurement* row (one (query, why-not point) pair of the
paper's tables).  The two never share a module or a name.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Iterator, Mapping

from repro.obs.metrics import MetricsRegistry

__all__ = [
    "TRACKED_COUNTER_PREFIXES",
    "JournalRecord",
    "QueryJournal",
    "validate_journal",
]

#: Counter families whose per-request deltas a journal records.  Only
#: counters are tracked — gauges move non-monotonically and histograms
#: have their own journal-fed latency series.
TRACKED_COUNTER_PREFIXES = (
    "kernels.",
    "prune.",
    "cache.",
    "index.",
    "dsl_cache.",
    "engine.",
)


@dataclass(frozen=True)
class JournalRecord:
    """One executed plan, as the journal remembers it.

    Not to be confused with
    :class:`repro.experiments.records.QueryRecord` — that class holds
    the paper's per-(query, why-not) quality/time measurements, while
    this one holds serving provenance for a single plan execution.

    Attributes
    ----------
    seq:
        Monotone execution number (0-based) within the journal's
        lifetime; survives ring eviction, so retained records always
        carry strictly increasing ``seq`` values.
    surface:
        Logical surface answered (``"safe_region"``, ``"membership"``,
        ...; see :mod:`repro.plan.logical`).
    operator:
        Name of the physical root operator the planner chose
        (``"sr-cached-fold"``, ``"membership-pruned"``, ...).
    epoch:
        Dataset epoch the plan executed against.
    config_fingerprint:
        Short stable digest of the engine config the plan was built for.
    actual_seconds:
        Measured wall-clock of the root execution.
    counters:
        ``{counter_name: delta}`` of tracked counters that moved during
        the request (zero deltas are omitted to keep records small).
    """

    seq: int
    surface: str
    operator: str
    epoch: int
    config_fingerprint: str
    actual_seconds: float
    counters: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-serialisable form (one JSONL line of the export)."""
        return {
            "seq": self.seq,
            "surface": self.surface,
            "operator": self.operator,
            "epoch": self.epoch,
            "config_fingerprint": self.config_fingerprint,
            "actual_seconds": self.actual_seconds,
            "counters": dict(self.counters),
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "JournalRecord":
        return cls(
            seq=int(payload["seq"]),
            surface=str(payload["surface"]),
            operator=str(payload["operator"]),
            epoch=int(payload["epoch"]),
            config_fingerprint=str(payload["config_fingerprint"]),
            actual_seconds=float(payload["actual_seconds"]),
            counters=dict(payload.get("counters", {})),
        )


class QueryJournal:
    """Bounded ring buffer of :class:`JournalRecord` entries.

    Parameters
    ----------
    capacity:
        Maximum retained records; older entries are evicted FIFO and
        counted in :attr:`dropped`.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`.  When
        given, (a) :meth:`counter_snapshot` / :meth:`counter_delta`
        track its counter families for per-request deltas, and (b)
        every :meth:`record` feeds per-surface
        (``journal.surface.<surface>.seconds``) and per-operator
        (``journal.op.<operator>.seconds``) latency histograms, which
        flow into :func:`repro.obs.exporters.to_prometheus` like any
        other metric.
    counter_prefixes:
        Counter-name prefixes to include in per-request deltas.
    """

    __slots__ = (
        "capacity",
        "appended",
        "_records",
        "_metrics",
        "_prefixes",
        "_tracked",
        "_tracked_len",
        "_histograms",
    )

    def __init__(
        self,
        capacity: int = 256,
        metrics: MetricsRegistry | None = None,
        counter_prefixes: tuple = TRACKED_COUNTER_PREFIXES,
    ) -> None:
        if capacity < 1:
            raise ValueError("journal capacity must be a positive integer")
        self.capacity = int(capacity)
        self.appended = 0
        self._records: deque = deque(maxlen=self.capacity)
        self._metrics = metrics
        self._prefixes = tuple(counter_prefixes)
        # Cache of the tracked (name, Counter) pairs, invalidated by
        # registry growth (metrics are only ever added, never removed).
        self._tracked: list = []
        self._tracked_len = -1
        self._histograms: dict = {}

    # ------------------------------------------------------------------
    # Counter tracking
    # ------------------------------------------------------------------
    def _tracked_counters(self) -> list:
        metrics = self._metrics
        if metrics is None:
            return []
        if len(metrics) != self._tracked_len:
            self._tracked = [
                (name, metric)
                for name in metrics.names()
                if (metric := metrics.get(name)).kind == "counter"
                and name.startswith(self._prefixes)
            ]
            self._tracked_len = len(metrics)
        return self._tracked

    def counter_snapshot(self) -> dict:
        """``{name: value}`` of every tracked counter, cheap enough to
        take per request (one pass over a cached list)."""
        return {name: metric.value for name, metric in self._tracked_counters()}

    def counter_delta(self, before: Mapping) -> dict:
        """Non-zero movement of tracked counters since ``before``.
        Counters born mid-request count from zero."""
        delta = {}
        for name, metric in self._tracked_counters():
            moved = metric.value - before.get(name, 0)
            if moved:
                delta[name] = moved
        return delta

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(
        self,
        *,
        surface: str,
        operator: str,
        epoch: int,
        config_fingerprint: str,
        actual_seconds: float,
        counters: dict | None = None,
    ) -> JournalRecord:
        """Append one executed-plan record (evicting FIFO when full)."""
        entry = JournalRecord(
            seq=self.appended,
            surface=surface,
            operator=operator,
            epoch=epoch,
            config_fingerprint=config_fingerprint,
            actual_seconds=float(actual_seconds),
            counters=counters if counters is not None else {},
        )
        self.appended += 1
        self._records.append(entry)
        if self._metrics is not None:
            self._observe(f"journal.surface.{surface}.seconds", entry.actual_seconds)
            self._observe(f"journal.op.{operator}.seconds", entry.actual_seconds)
        return entry

    def _observe(self, name: str, seconds: float) -> None:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._metrics.histogram(
                name, "journal-fed latency of one surface/operator"
            )
            self._histograms[name] = histogram
        histogram.observe(seconds)

    # ------------------------------------------------------------------
    # Introspection + export
    # ------------------------------------------------------------------
    @property
    def dropped(self) -> int:
        """Records evicted by the ring (``appended - retained``)."""
        return self.appended - len(self._records)

    def records(self) -> list[JournalRecord]:
        """The retained records, oldest first."""
        return list(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[JournalRecord]:
        return iter(self._records)

    def summary(self) -> dict:
        """Accounting plus per-surface latency aggregates."""
        surfaces: dict = {}
        for entry in self._records:
            agg = surfaces.setdefault(
                entry.surface, {"count": 0, "total_s": 0.0}
            )
            agg["count"] += 1
            agg["total_s"] += entry.actual_seconds
        for agg in surfaces.values():
            agg["mean_s"] = agg["total_s"] / agg["count"]
        return {
            "capacity": self.capacity,
            "appended": self.appended,
            "dropped": self.dropped,
            "retained": len(self._records),
            "surfaces": surfaces,
        }

    def to_payload(self) -> dict:
        """The ``journal`` section of a ``repro.obs/3`` export."""
        return {
            "capacity": self.capacity,
            "appended": self.appended,
            "dropped": self.dropped,
            "records": [entry.to_dict() for entry in self._records],
        }

    def to_jsonl(self) -> str:
        """One JSON object per line, oldest record first."""
        return "".join(
            json.dumps(entry.to_dict(), default=float) + "\n"
            for entry in self._records
        )

    def write_jsonl(self, path) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_jsonl())

    def clear(self) -> None:
        """Drop retained records and reset the accounting."""
        self._records.clear()
        self.appended = 0

    def __repr__(self) -> str:
        return (
            f"QueryJournal(retained={len(self._records)}/{self.capacity}, "
            f"appended={self.appended}, dropped={self.dropped})"
        )


def validate_journal(journal) -> None:
    """Raise ``ValueError`` when a journal (or record list) is
    inconsistent: non-monotone ``seq``, negative durations, malformed
    counters, or ring accounting that does not balance."""
    if isinstance(journal, QueryJournal):
        records = journal.records()
        if journal.dropped < 0:
            raise ValueError(
                f"negative drop count: appended={journal.appended}, "
                f"retained={len(records)}"
            )
        if journal.appended != len(records) + journal.dropped:
            raise ValueError(
                f"journal accounting broken: appended={journal.appended} != "
                f"retained={len(records)} + dropped={journal.dropped}"
            )
        if len(records) > journal.capacity:
            raise ValueError(
                f"retained {len(records)} records over capacity "
                f"{journal.capacity}"
            )
    else:
        records = list(journal)
    last_seq = None
    for i, entry in enumerate(records):
        where = f"records[{i}]"
        if not entry.surface or not isinstance(entry.surface, str):
            raise ValueError(f"{where}: surface must be a non-empty string")
        if not entry.operator or not isinstance(entry.operator, str):
            raise ValueError(f"{where}: operator must be a non-empty string")
        if last_seq is not None and entry.seq <= last_seq:
            raise ValueError(
                f"{where}: seq {entry.seq} not after {last_seq} "
                "(records must be strictly seq-ordered)"
            )
        last_seq = entry.seq
        if entry.epoch < 0:
            raise ValueError(f"{where}: negative epoch {entry.epoch}")
        if entry.actual_seconds < 0:
            raise ValueError(
                f"{where}: negative duration {entry.actual_seconds!r}"
            )
        if not isinstance(entry.counters, dict):
            raise ValueError(f"{where}: counters must be a dict")
        for name, value in entry.counters.items():
            if not isinstance(name, str):
                raise ValueError(f"{where}: counter name {name!r} not a string")
            if not isinstance(value, (int, float)):
                raise ValueError(
                    f"{where}: counter {name!r} delta {value!r} not numeric"
                )
