"""``repro.plan`` — logical plans, operator selection, and EXPLAIN.

The planner/executor decomposition of the why-not engine:

* :mod:`repro.plan.logical` — coordinate-free descriptions of each
  paper surface (RSL, Λ, Algorithms 1-4, approx-MWQ, batch);
* :mod:`repro.plan.operators` — one physical operator per surface,
  its execution paths (index / kernel / pruned) as variants;
* :mod:`repro.plan.planner` — an ``index`` / ``kernel`` / ``pruned``
  pin, or ``auto``: the pruned pin when the tile summaries predict a
  low refine rate, the kernel pin otherwise;
* :mod:`repro.plan.executor` — plan nodes and the span-instrumented
  tree executor;
* :mod:`repro.plan.cache` — planned trees keyed by (shape, epoch,
  config fingerprint);
* :mod:`repro.plan.explain` — EXPLAIN reports (measured per node);
* :mod:`repro.plan.prepared` — epoch-pinned plan-then-execute handles.

Layering: this package sits between the algorithm layer
(``repro.core``/``repro.kernels``/``repro.index``) and the engine
facade; it must never import ``repro.experiments`` or ``repro.viz``
(checked by ``tests/test_layering.py``).
"""

from repro.plan.cache import PlanCache, config_fingerprint
from repro.plan.executor import ExecutionContext, PlanNode, execute_plan
from repro.plan.explain import (
    PlanReport,
    render_plan_tree,
    validate_plan_report,
)
from repro.plan.logical import (
    BatchWhyNotQuery,
    LambdaQuery,
    LogicalPlan,
    MembershipMaskQuery,
    MQPQuery,
    MWPQuery,
    MWQQuery,
    RetainedMaskQuery,
    RSLQuery,
    SafeRegionQuery,
)
from repro.plan.operators import Operator, candidate_operators
from repro.plan.planner import Planner
from repro.plan.prepared import PreparedPlan

__all__ = [
    "BatchWhyNotQuery",
    "ExecutionContext",
    "LambdaQuery",
    "LogicalPlan",
    "MembershipMaskQuery",
    "MQPQuery",
    "MWPQuery",
    "MWQQuery",
    "Operator",
    "PlanCache",
    "PlanNode",
    "PlanReport",
    "Planner",
    "PreparedPlan",
    "RSLQuery",
    "RetainedMaskQuery",
    "SafeRegionQuery",
    "candidate_operators",
    "config_fingerprint",
    "execute_plan",
    "render_plan_tree",
    "validate_plan_report",
]
