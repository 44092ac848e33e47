"""Operator selection.

The planner turns a logical plan into a :class:`~repro.plan.executor.
PlanNode` tree by choosing, per node, among the physical operators
registered for the surface (one operator class per surface, its
instances differing by ``variant``):

* ``planner="auto"`` (the default) — pick the operator with the lowest
  estimated cost.  Ties break toward the registry order, so
  planning is deterministic.
* ``planner="index"`` / ``"kernel"`` / ``"pruned"`` — pin the arm: pick
  the first operator whose variant the pin prefers
  (:data:`PIN_ORDER`), else the surface's first operator.

Because every alternative for a surface is property-tested
bit-identical, the choice changes runtimes, never answers.
"""

from __future__ import annotations

from repro.config import WhyNotConfig
from repro.plan.cost import CostModel, DatasetStats
from repro.plan.executor import PlanNode
from repro.plan.logical import LogicalPlan
from repro.plan.operators import Operator, candidate_operators

__all__ = ["PIN_ORDER", "Planner"]

#: Variants each pin accepts, most preferred first.
PIN_ORDER = {
    "index": ("index",),
    "kernel": ("kernel",),
    "pruned": ("pruned", "kernel"),
}


class Planner:
    """Build physical plan trees for one engine's config + cost model."""

    def __init__(
        self, config: WhyNotConfig, model: CostModel | None = None
    ) -> None:
        self.config = config
        self.model = model or CostModel()

    def candidates(
        self, logical: LogicalPlan, stats: DatasetStats
    ) -> list[Operator]:
        """The operators for ``logical``, in registry order."""
        return list(candidate_operators(logical))

    def choose(
        self, logical: LogicalPlan, stats: DatasetStats
    ) -> Operator:
        """The operator the active planner mode selects for one node."""
        ops = self.candidates(logical, stats)
        if self.config.planner == "auto":
            # min() is stable, so ties keep the registry order.
            return min(
                ops,
                key=lambda op: op.estimate(logical, stats, self.model).seconds,
            )
        for variant in PIN_ORDER[self.config.planner]:
            for op in ops:
                if op.variant == variant:
                    return op
        return ops[0]

    def plan(self, logical: LogicalPlan, stats: DatasetStats) -> PlanNode:
        """Recursively select operators for ``logical`` and its children."""
        operator = self.choose(logical, stats)
        node = PlanNode(
            logical=logical,
            operator=operator,
            estimate=operator.estimate(logical, stats, self.model),
            stats=stats,
        )
        for child in operator.child_plans(logical):
            node.children.append(self.plan(child, stats))
        return node
