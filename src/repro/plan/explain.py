"""EXPLAIN: plan trees rendered with their measured costs.

:func:`render_plan_tree` mirrors the indentation and duration
formatting of :func:`repro.obs.exporters.render_span_tree`, so the
EXPLAIN output and a traced span tree read side by side; the actual
costs themselves come from the same spans (see
:mod:`repro.plan.executor`).

:func:`validate_plan_report` is the acceptance contract: every executed
operator must carry a measured actual, and an executed report must have
executed its root.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.obs.exporters import _format_duration
from repro.plan.executor import PlanNode

__all__ = ["PlanReport", "render_plan_tree", "validate_plan_report"]


def _render_node(node: PlanNode, depth: int, lines: list[str]) -> None:
    actual = (
        _format_duration(node.actual_seconds)
        if node.actual_seconds is not None
        else "not-run"
    )
    lines.append(
        f"{'  ' * depth}{node.logical.describe()} -> {node.operator.name}"
        f"  actual={actual}  runs={node.executions}"
    )
    for child in node.children:
        _render_node(child, depth + 1, lines)


def render_plan_tree(root: PlanNode) -> str:
    """Human-readable EXPLAIN tree of one physical plan."""
    lines: list[str] = []
    _render_node(root, 0, lines)
    return "\n".join(lines)


def validate_plan_report(report: "PlanReport") -> None:
    """Raise ``ValueError`` unless every executed node carries an
    actual cost (and the root actually ran)."""
    if not report.root.executed:
        raise ValueError(
            f"plan for surface {report.surface!r} was never executed"
        )
    for node in report.root.walk():
        if not node.executed:
            continue  # e.g. a prefilter child skipped on an empty batch
        if node.actual_seconds is None or node.actual_seconds < 0:
            raise ValueError(
                f"executed node {node.operator.name} has no actual cost"
            )


@dataclass
class PlanReport:
    """What ``engine.explain_plan(...)`` returns: the executed plan tree
    plus the surface result it produced."""

    surface: str
    root: PlanNode
    plan_cached: bool
    result: Any = None
    attributes: dict = field(default_factory=dict)

    def render(self) -> str:
        header = (
            f"surface={self.surface}  plan_cache="
            f"{'hit' if self.plan_cached else 'miss'}"
        ) + "".join(f"  {k}={v}" for k, v in self.attributes.items())
        return header + "\n" + render_plan_tree(self.root)

    def validate(self) -> "PlanReport":
        validate_plan_report(self)
        return self

    def executed_nodes(self) -> list[PlanNode]:
        return [node for node in self.root.walk() if node.executed]
