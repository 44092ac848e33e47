"""Physical plan nodes and the tree-walking executor.

A :class:`PlanNode` binds one logical plan to the physical operator the
planner selected for it and — after execution — the measured *actual*
cost, which EXPLAIN shows per node.

Timing source: every node executes inside a ``repro.obs`` span named
after the engine surface (``engine.safe_region``, ``engine.mwq``, ...),
preserving the span taxonomy of docs/OBSERVABILITY.md exactly.  When the
engine traces, the span's measured duration *is* the actual cost; on the
no-op tracer path the executor falls back to its own ``perf_counter``
pair so EXPLAIN works on untraced engines too.

Plan nodes are cached and re-executed (the plan cache shares them across
queries of the same shape), so the actuals always describe the *most
recent* execution; :attr:`PlanNode.executions` counts how many runs the
node has served.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import WhyNotEngine
    from repro.plan.logical import LogicalPlan
    from repro.plan.operators import Operator
    from repro.prefs.model import PreferenceModel

__all__ = ["ExecutionContext", "PlanNode", "execute_plan"]


@dataclass
class PlanNode:
    """One operator choice in a physical plan tree."""

    logical: "LogicalPlan"
    operator: "Operator"
    children: list["PlanNode"] = field(default_factory=list)
    # Filled by execute_plan; describe the most recent execution.
    actual_seconds: float | None = None
    executions: int = 0
    attributes: dict = field(default_factory=dict)

    @property
    def executed(self) -> bool:
        return self.executions > 0

    def walk(self):
        """Yield this node and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()


@dataclass(frozen=True)
class ExecutionContext:
    """Runtime arguments of one plan execution.

    Logical plans are coordinate-free; the concrete query point, why-not
    customer(s) and batch parameters ride here.  Contexts are immutable
    — operators derive child contexts with :meth:`child` when a subtree
    needs different arguments.
    """

    engine: "WhyNotEngine"
    query: np.ndarray | None = None
    why_not: "int | Sequence[float] | None" = None
    why_nots: tuple | None = None
    refined_query: np.ndarray | None = None
    members: np.ndarray | None = None
    approximate: bool = False
    k: int = 10
    # The request's preference model (repro.prefs); ``None`` means the
    # engine default.  Operators read it through ``_ctx_prefs`` and gate
    # the engine's result caches on its fingerprint.
    prefs: "PreferenceModel | None" = None

    @property
    def obs(self):
        return self.engine.obs

    def child(self, **changes) -> "ExecutionContext":
        """A derived context for executing a child node."""
        return replace(self, **changes)

    def execute(self, node: PlanNode) -> Any:
        """Execute a child plan node under this context."""
        return execute_plan(node, self)


def execute_plan(node: PlanNode, ctx: ExecutionContext) -> Any:
    """Run one plan node, recording span + actual cost on the node."""
    operator = node.operator
    with ctx.obs.span(operator.span_name, op=operator.name) as span:
        started = time.perf_counter()
        result = operator.run(ctx, node, span)
        elapsed = time.perf_counter() - started
    # Prefer the span's own clock when the tracer is live so EXPLAIN and
    # the exported span tree agree to the tick; the no-op span has no
    # duration and the perf_counter pair stands in.
    duration = getattr(span, "duration_s", None)
    node.actual_seconds = duration if duration is not None else elapsed
    node.executions += 1
    return result
