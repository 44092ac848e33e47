"""Prepared plans: epoch-pinned plan-then-execute handles.

``engine.prepare(surface, ...)`` plans without executing, which opens a
window for the dataset to mutate between planning and execution.  A
:class:`PreparedPlan` pins the dataset epoch at planning time and
refuses to execute against any other generation — raising the same
:class:`~repro.exceptions.StaleSessionError` the PR-4 session facade
uses — so a plan built against one market never silently answers from
another.  :meth:`replan` re-plans the same request against the current
epoch.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.exceptions import StaleSessionError
from repro.plan.explain import PlanReport

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import WhyNotEngine
    from repro.plan.executor import PlanNode
    from repro.plan.logical import LogicalPlan

__all__ = ["PreparedPlan"]


class PreparedPlan:
    """One planned (not yet executed) surface request."""

    def __init__(
        self,
        engine: "WhyNotEngine",
        logical: "LogicalPlan",
        node: "PlanNode",
        ctx_kwargs: dict,
        plan_cached: bool,
    ) -> None:
        self._engine = engine
        self.logical = logical
        self.node = node
        self._ctx_kwargs = dict(ctx_kwargs)
        self.plan_cached = plan_cached
        self._epoch = engine.dataset_epoch
        prefs = self._ctx_kwargs.get("prefs") or engine.prefs
        self._prefs_fingerprint = prefs.fingerprint()

    @property
    def epoch(self) -> int:
        """The dataset epoch this plan was built against."""
        return self._epoch

    @property
    def prefs_fingerprint(self) -> tuple:
        """Fingerprint of the preference model the plan was bound under
        (the engine default when the request carried no weights)."""
        return self._prefs_fingerprint

    @property
    def stale(self) -> bool:
        return self._engine.dataset_epoch != self._epoch

    def execute(self) -> Any:
        """Run the plan; refuses on a mutated dataset.

        The epoch check happens inside the engine's read gate, so under
        concurrent readers the refusal is race-free: a commit either
        lands before this execution (stale raises, with structured
        ``pinned_epoch``/``current_epoch`` attributes) or after it.
        """
        current = self._engine.dataset_epoch
        if current != self._epoch:
            # Fast-path refusal outside the gate keeps the error cheap
            # in the common single-threaded case; the gate re-checks.
            raise StaleSessionError(
                f"plan prepared at dataset epoch {self._epoch}, but the "
                f"engine is now at epoch {current}; call replan() to plan "
                "against the mutated market",
                pinned_epoch=self._epoch,
                current_epoch=current,
            )
        return self._engine._run_plan(
            self.node, self._ctx_kwargs, pinned_epoch=self._epoch
        )

    def replan(self) -> "PreparedPlan":
        """A fresh prepared plan for the same request at the current
        epoch (the stale node is discarded, never executed)."""
        return self._engine._prepare(self.logical, self._ctx_kwargs)

    def report(self, result: Any = None) -> PlanReport:
        return PlanReport(
            surface=self.logical.surface,
            root=self.node,
            plan_cached=self.plan_cached,
            result=result,
            attributes={"epoch": self._epoch, "backend": self._engine.backend},
        )

    def __repr__(self) -> str:
        state = "stale" if self.stale else "live"
        return (
            f"PreparedPlan({self.logical.describe()}, "
            f"op={self.node.operator.name}, epoch={self._epoch}, {state})"
        )
