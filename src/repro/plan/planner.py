"""Operator selection.

The planner turns a logical plan into a :class:`~repro.plan.executor.
PlanNode` tree by choosing, per node, among the physical operators
registered for the surface (one operator class per surface, its
instances differing by ``variant``):

* ``planner="index"`` / ``"kernel"`` / ``"pruned"`` — pin the arm: pick
  the first operator whose variant the pin prefers
  (:data:`PIN_ORDER`), else the surface's first operator.
* ``planner="auto"`` (the default) — one rule: resolve to the
  ``pruned`` pin when the surface registers a pruned operator and the
  tile summaries predict that at most :data:`PRUNE_BELOW` of the
  (customer-tile, product-chunk) pairs need exact refinement at the
  dataset centroid; otherwise resolve to the ``kernel`` pin.  The
  refine rate is read only for surfaces with a pruned operator.

Because every alternative for a surface is property-tested
bit-identical, the choice changes runtimes, never answers.
"""

from __future__ import annotations

from typing import Callable

from repro.config import WhyNotConfig
from repro.plan.executor import PlanNode
from repro.plan.logical import LogicalPlan
from repro.plan.operators import Operator, candidate_operators

__all__ = ["PIN_ORDER", "PRUNE_BELOW", "Planner"]

#: Variants each pin accepts, most preferred first.
PIN_ORDER = {
    "index": ("index",),
    "kernel": ("kernel",),
    "pruned": ("pruned", "kernel"),
}

#: ``auto`` prunes when the centroid refine rate is at most this.  On
#: unordered rows the rate is 1.0; on spatially coherent data, where the
#: pruned mask wins, it sat between 0.05 and 0.48 (EXPERIMENTS.md,
#: "Planner rule").
PRUNE_BELOW = 0.9


class Planner:
    """Build physical plan trees for one engine's config."""

    def __init__(self, config: WhyNotConfig) -> None:
        self.config = config

    def candidates(self, logical: LogicalPlan) -> list[Operator]:
        """The operators for ``logical``, in registry order."""
        return list(candidate_operators(logical))

    def choose(
        self, logical: LogicalPlan, refine_rate: Callable[[], float]
    ) -> Operator:
        """The operator the active planner mode selects for one node.

        ``refine_rate`` returns the summaries' centroid refine rate
        (:meth:`repro.prune.summaries.PruneSummaries.
        centroid_refine_rate`); only ``auto`` calls it, and only for a
        surface that registers a pruned operator.
        """
        ops = self.candidates(logical)
        pin = self.config.planner
        if pin == "auto":
            prunable = any(op.variant == "pruned" for op in ops)
            pin = (
                "pruned"
                if prunable and refine_rate() <= PRUNE_BELOW
                else "kernel"
            )
        for variant in PIN_ORDER[pin]:
            for op in ops:
                if op.variant == variant:
                    return op
        return ops[0]

    def plan(
        self, logical: LogicalPlan, refine_rate: Callable[[], float]
    ) -> PlanNode:
        """Recursively select operators for ``logical`` and its children."""
        operator = self.choose(logical, refine_rate)
        node = PlanNode(logical=logical, operator=operator)
        for child in operator.child_plans(logical):
            node.children.append(self.plan(child, refine_rate))
        return node
