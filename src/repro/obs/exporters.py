"""Exporters: JSON payloads, Prometheus text, human span trees.

Three consumers, three formats:

* :func:`export_obs` — one JSON-serialisable dict holding the span
  forest, the metrics snapshot, balance accounting and the optional
  query-journal section (schema ``repro.obs/3``), validated by
  :func:`validate_export` (which still accepts ``repro.obs/1``
  payloads written before the journal existed).  The CLI's
  ``--metrics-out`` and the benchmark ``"obs"`` sections use this.
* :func:`to_prometheus` — classic Prometheus exposition text
  (``# TYPE`` lines, ``_total`` counters, cumulative ``_bucket{le=..}``
  histograms) for scraping a long-lived service.
* :func:`render_span_tree` — indented wall-time tree for humans.

:func:`validate_export` is the contract checker CI runs against every
traced workload: schema shape, every span closed, no negative duration,
children timed inside their parent, balanced nesting.
"""

from __future__ import annotations

import re
from typing import Mapping

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.tracer import Span, Tracer

__all__ = [
    "SCHEMA",
    "SCHEMA_V1",
    "SUPPORTED_SCHEMAS",
    "export_obs",
    "prom_name",
    "to_prometheus",
    "render_span_tree",
    "validate_export",
]

#: Current export schema.  ``/2`` added the optional ``journal``
#: section and the ``spans_dropped`` counter; ``/3`` dropped the
#: journal records' ``estimated_seconds``.  ``/1`` payloads (no
#: journal) remain valid input to :func:`validate_export`.
SCHEMA = "repro.obs/3"
SCHEMA_V1 = "repro.obs/1"
SUPPORTED_SCHEMAS = (SCHEMA_V1, SCHEMA)

# Relative slack for the child-inside-parent check: perf_counter is
# monotonic so violations indicate a bug, but allow for float rounding.
_NESTING_SLACK_S = 1e-9


# ----------------------------------------------------------------------
# JSON
# ----------------------------------------------------------------------
def export_obs(
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
    env: Mapping | None = None,
    extra: Mapping | None = None,
    journal=None,
) -> dict:
    """The full observability payload of one run as a plain dict.

    ``journal`` accepts a :class:`~repro.obs.journal.QueryJournal`
    (duck-typed on ``to_payload``); its retained records land under the
    ``"journal"`` key of the ``repro.obs/3`` payload.
    """
    payload: dict = {"schema": SCHEMA}
    if tracer is not None:
        payload["spans"] = [span.to_dict() for span in tracer.roots]
        payload["balanced"] = tracer.is_balanced
        payload["spans_started"] = tracer.spans_started
        payload["spans_closed"] = tracer.spans_closed
        payload["spans_dropped"] = getattr(tracer, "spans_dropped", 0)
    if metrics is not None:
        payload["metrics"] = metrics.snapshot()
    if journal is not None:
        payload["journal"] = journal.to_payload()
    if env is not None:
        payload["env"] = dict(env)
    if extra:
        payload.update(extra)
    return payload


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
def prom_name(name: str) -> str:
    """Registry name -> Prometheus metric name.

    ``journal.op.sr-cached-fold.seconds`` ->
    ``repro_journal_op_sr_cached_fold_seconds``:
    dots and hyphens (operator names contain ``-``) both become ``_``,
    so distinct registry names *can* sanitize to the same exposition
    name — :func:`to_prometheus` refuses such a registry rather than
    silently exporting two series under one name.
    """
    sanitized = re.sub(r"[^a-zA-Z0-9_]", "_", name)
    if not sanitized or not (sanitized[0].isalpha() or sanitized[0] == "_"):
        sanitized = "_" + sanitized
    return f"repro_{sanitized}"


#: Backward-compatible alias (pre-/2 internal name).
_prom_name = prom_name


def _prom_value(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def to_prometheus(metrics: MetricsRegistry) -> str:
    """Prometheus text format; counters get the ``_total`` suffix.

    Raises ``ValueError`` when two registry names sanitize to the same
    exposition name (e.g. ``a.b-c`` vs ``a.b_c``) — exporting both
    would corrupt the scrape.
    """
    seen: dict[str, str] = {}
    lines: list[str] = []
    for metric in metrics:
        base = prom_name(metric.name)
        clash = seen.get(base)
        if clash is not None:
            raise ValueError(
                f"metric names {clash!r} and {metric.name!r} both sanitize "
                f"to Prometheus name {base!r}; rename one"
            )
        seen[base] = metric.name
        if isinstance(metric, Counter):
            name = f"{base}_total"
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} counter")
            lines.append(f"{name} {_prom_value(metric.value)}")
        elif isinstance(metric, Gauge):
            if metric.help:
                lines.append(f"# HELP {base} {metric.help}")
            lines.append(f"# TYPE {base} gauge")
            lines.append(f"{base} {_prom_value(metric.value)}")
        elif isinstance(metric, Histogram):
            if metric.help:
                lines.append(f"# HELP {base} {metric.help}")
            lines.append(f"# TYPE {base} histogram")
            cumulative = metric.cumulative_counts()
            for bound, count in zip(metric.buckets, cumulative):
                lines.append(f'{base}_bucket{{le="{bound:g}"}} {count}')
            lines.append(f'{base}_bucket{{le="+Inf"}} {metric.count}')
            lines.append(f"{base}_sum {_prom_value(metric.sum)}")
            lines.append(f"{base}_count {metric.count}")
    return "\n".join(lines) + ("\n" if lines else "")


# ----------------------------------------------------------------------
# Human-readable span tree
# ----------------------------------------------------------------------
def _format_duration(duration_s: float | None) -> str:
    if duration_s is None:
        return "open"
    if duration_s >= 1.0:
        return f"{duration_s:.3f}s"
    if duration_s >= 1e-3:
        return f"{duration_s * 1e3:.2f}ms"
    return f"{duration_s * 1e6:.1f}us"


def _render_span(span: Span, depth: int, lines: list[str]) -> None:
    attrs = ""
    if span.attributes:
        body = ", ".join(f"{k}={v!r}" for k, v in span.attributes.items())
        attrs = f"  {{{body}}}"
    lines.append(
        f"{'  ' * depth}{span.name}  {_format_duration(span.duration_s)}{attrs}"
    )
    for child in span.children:
        _render_span(child, depth + 1, lines)


def render_span_tree(tracer: Tracer) -> str:
    """Indented per-span wall times, one line per span."""
    lines: list[str] = []
    for root in tracer.roots:
        _render_span(root, 0, lines)
    if not tracer.is_balanced:
        lines.append(
            f"! unbalanced: {tracer.spans_started} started, "
            f"{tracer.spans_closed} closed"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Validation (used by tests and the CI traced-workload step)
# ----------------------------------------------------------------------
def _validate_span_dict(span: dict, path: str) -> None:
    if not isinstance(span, dict):
        raise ValueError(f"{path}: span must be a dict, got {type(span).__name__}")
    name = span.get("name")
    if not isinstance(name, str) or not name:
        raise ValueError(f"{path}: span name must be a non-empty string")
    start = span.get("start_s")
    duration = span.get("duration_s")
    if not isinstance(start, (int, float)):
        raise ValueError(f"{path} ({name}): span never started")
    if duration is None:
        raise ValueError(f"{path} ({name}): span never closed")
    if not isinstance(duration, (int, float)) or duration < 0:
        raise ValueError(f"{path} ({name}): negative duration {duration!r}")
    children = span.get("children", [])
    if not isinstance(children, list):
        raise ValueError(f"{path} ({name}): children must be a list")
    end = start + duration
    for i, child in enumerate(children):
        child_path = f"{path}.children[{i}]"
        _validate_span_dict(child, child_path)
        child_start = child["start_s"]
        child_end = child_start + child["duration_s"]
        if child_start < start - _NESTING_SLACK_S or child_end > end + _NESTING_SLACK_S:
            raise ValueError(
                f"{child_path} ({child['name']}): timed outside parent "
                f"{name} [{start}, {end}] vs [{child_start}, {child_end}]"
            )


def _validate_journal_section(journal: dict) -> None:
    """Light structural checks of the journal section
    (the deep record checks live in :func:`repro.obs.journal.
    validate_journal`, which operates on live journals)."""
    if not isinstance(journal, dict):
        raise ValueError("'journal' must be a dict")
    records = journal.get("records", [])
    if not isinstance(records, list):
        raise ValueError("journal 'records' must be a list")
    appended = journal.get("appended", len(records))
    dropped = journal.get("dropped", 0)
    if dropped < 0 or appended != len(records) + dropped:
        raise ValueError(
            f"journal accounting broken: appended={appended}, "
            f"retained={len(records)}, dropped={dropped}"
        )
    last_seq = None
    for i, record in enumerate(records):
        if not isinstance(record, dict):
            raise ValueError(f"journal records[{i}] must be a dict")
        for key in ("surface", "operator"):
            value = record.get(key)
            if not isinstance(value, str) or not value:
                raise ValueError(
                    f"journal records[{i}]: {key} must be a non-empty string"
                )
        value = record.get("actual_seconds")
        if not isinstance(value, (int, float)) or value < 0:
            raise ValueError(
                f"journal records[{i}]: actual_seconds must be "
                f"non-negative, got {value!r}"
            )
        seq = record.get("seq")
        if not isinstance(seq, int):
            raise ValueError(f"journal records[{i}]: seq must be an int")
        if last_seq is not None and seq <= last_seq:
            raise ValueError(
                f"journal records[{i}]: seq {seq} not after {last_seq}"
            )
        last_seq = seq


def validate_export(payload: dict) -> None:
    """Raise ``ValueError`` when ``payload`` violates the obs contract.

    Checks: a supported schema tag (``repro.obs/1`` or ``/3``),
    balanced nesting, every span closed with a non-negative duration,
    children timed inside their parents, a JSON-shaped metrics mapping,
    and — when present (``/3``) — a consistent journal section.
    """
    if not isinstance(payload, dict):
        raise ValueError("payload must be a dict")
    schema = payload.get("schema", "")
    if schema not in SUPPORTED_SCHEMAS:
        raise ValueError(
            f"unknown schema tag {schema!r}; supported: {SUPPORTED_SCHEMAS}"
        )
    if "balanced" in payload and payload["balanced"] is not True:
        raise ValueError(
            f"unbalanced span nesting: {payload.get('spans_started')} "
            f"started, {payload.get('spans_closed')} closed"
        )
    spans = payload.get("spans", [])
    if not isinstance(spans, list):
        raise ValueError("'spans' must be a list")
    for i, span in enumerate(spans):
        _validate_span_dict(span, f"spans[{i}]")
    metrics = payload.get("metrics", {})
    if not isinstance(metrics, dict):
        raise ValueError("'metrics' must be a dict")
    for name, value in metrics.items():
        if not isinstance(name, str):
            raise ValueError(f"metric name {name!r} must be a string")
        if isinstance(value, dict):
            if "count" not in value or "sum" not in value:
                raise ValueError(
                    f"histogram metric {name!r} must carry count and sum"
                )
        elif not isinstance(value, (int, float, bool)):
            raise ValueError(
                f"metric {name!r} must be numeric or a histogram summary"
            )
    dropped = payload.get("spans_dropped", 0)
    if not isinstance(dropped, int) or dropped < 0:
        raise ValueError(f"spans_dropped must be a non-negative int, got {dropped!r}")
    if "journal" in payload:
        _validate_journal_section(payload["journal"])
