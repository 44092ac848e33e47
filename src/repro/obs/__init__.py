"""``repro.obs`` — unified tracing and metrics for the why-not pipeline.

One subsystem replaces the three disconnected ad-hoc stats dataclasses:

* :class:`Tracer` — nested spans with monotonic timing and a no-op fast
  path when disabled (:mod:`repro.obs.tracer`).
* :class:`MetricsRegistry` — named counters/gauges/histograms; the
  legacy stats classes are thin views over its counters
  (:mod:`repro.obs.metrics`, :mod:`repro.obs.stats`).
* Exporters — JSON payloads (``repro.obs/3`` schema; ``/1`` still
  validates), Prometheus text, a human span-tree renderer, and a
  validator used by CI (:mod:`repro.obs.exporters`).
* :class:`QueryJournal` — bounded ring of per-executed-plan
  :class:`JournalRecord` provenance rows (:mod:`repro.obs.journal`).
* :func:`environment_provenance` — machine/commit facts for benchmark
  artifacts (:mod:`repro.obs.provenance`).

:class:`Observability` bundles one tracer + one registry per engine; see
``docs/OBSERVABILITY.md`` for the span taxonomy and counter glossary.
"""

from __future__ import annotations

from typing import Callable

from repro.obs.exporters import (
    SCHEMA,
    SCHEMA_V1,
    export_obs,
    prom_name,
    render_span_tree,
    to_prometheus,
    validate_export,
)
from repro.obs.journal import (
    TRACKED_COUNTER_PREFIXES,
    JournalRecord,
    QueryJournal,
    validate_journal,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.provenance import environment_provenance
from repro.obs.stats import CounterBackedStats
from repro.obs.tracer import NULL_SPAN, Span, Tracer

__all__ = [
    "SCHEMA",
    "SCHEMA_V1",
    "DEFAULT_BUCKETS",
    "NULL_SPAN",
    "TRACKED_COUNTER_PREFIXES",
    "Counter",
    "CounterBackedStats",
    "Gauge",
    "Histogram",
    "JournalRecord",
    "MetricsRegistry",
    "Observability",
    "QueryJournal",
    "Span",
    "Tracer",
    "environment_provenance",
    "export_obs",
    "prom_name",
    "render_span_tree",
    "to_prometheus",
    "validate_export",
    "validate_journal",
]


class Observability:
    """One tracer + one metrics registry, the unit an engine owns.

    The engine constructs this from ``WhyNotConfig.trace``; instrumented
    code calls ``obs.span(...)`` and ``obs.counter(...)`` without caring
    whether tracing is live.  Disabled bundles still expose the registry
    (counters attached by stats views keep working) but their tracer
    records nothing.
    """

    __slots__ = ("enabled", "tracer", "metrics", "journal")

    def __init__(
        self,
        enabled: bool = False,
        clock: Callable[[], float] | None = None,
        max_roots: int | None = None,
    ) -> None:
        self.enabled = enabled
        self.tracer = Tracer(enabled=enabled, clock=clock, max_roots=max_roots)
        self.metrics = MetricsRegistry()
        # Installed by the engine when WhyNotConfig.journal is on; a
        # bare bundle has no journal and the executor hook stays free.
        self.journal: QueryJournal | None = None

    # Thin delegates so call sites hold one object, not two.
    def span(self, name: str, **attributes):
        return self.tracer.span(name, **attributes)

    def counter(self, name: str, help: str = "") -> Counter:
        return self.metrics.counter(name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self.metrics.gauge(name, help)

    def histogram(self, name: str, help: str = "", buckets=None) -> Histogram:
        return self.metrics.histogram(name, help, buckets)

    def attach_stats(self, prefix: str, stats: CounterBackedStats) -> None:
        """Surface a stats view's live counters as ``{prefix}.{field}``."""
        for field, counter in stats.counters().items():
            self.metrics.attach(f"{prefix}.{field}", counter)

    def export(self, env: bool = False, extra=None) -> dict:
        """JSON-serialisable payload (``repro.obs/3``) of this bundle,
        including the query journal when one is installed."""
        return export_obs(
            tracer=self.tracer,
            metrics=self.metrics,
            env=environment_provenance() if env else None,
            extra=extra,
            journal=self.journal,
        )

    def render(self) -> str:
        """Human-readable span tree of everything recorded so far."""
        return render_span_tree(self.tracer)

    def clear(self) -> None:
        """Drop recorded spans and journal records; metric values are
        left untouched."""
        self.tracer.clear()
        if self.journal is not None:
            self.journal.clear()

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return (
            f"Observability({state}, spans={self.tracer.spans_started}, "
            f"metrics={len(self.metrics)})"
        )
