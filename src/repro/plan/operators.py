"""Physical operators: one per surface, its variants as strategies.

Every reverse-skyline, membership and retained-mask path evaluates the
Definition-3 predicate — a customer is in ``RSL(q)`` exactly when its
window over the products is empty.  :func:`row_mask` computes that row
mask for all of them, with three strategies:

* ``"index"`` — one window probe per row (the per-customer oracle);
* ``"kernel"`` — one blocked NumPy pass (:mod:`repro.kernels`);
* ``"pruned"`` — the filter-refinement kernel over the tile summaries.

Each such surface is one operator class whose instances differ only in
their ``variant`` and registry name (``rsl-kernel-verify``,
``membership-pruned``, ...).  The planner picks an instance per node by
``variant`` (:mod:`repro.plan.planner`); :meth:`Operator.run` is the
execution, emitting the surface's span attributes, counters and
result-cache traffic (the caches stay on the engine, which flushes them
on every mutation).

Answers are bit-identical across variants (property-tested against the
brute-force oracle), so a planner choice changes the runtime, never the
result.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import TYPE_CHECKING, Any, ClassVar

import numpy as np

from repro.core._verify import VERIFY_RTOL, verify_membership
from repro.core.approx import ApproximateDSLStore
from repro.core.explain import explain_why_not
from repro.core.mqp import modify_query_point
from repro.core.mwp import modify_why_not_point
from repro.core.mwq import modify_query_and_why_not_point
from repro.core.safe_region import compute_safe_region
from repro.geometry import region_array as _ra
from repro.kernels.membership import batch_window_membership
from repro.kernels.pruned import batch_window_membership_pruned
from repro.skyline.global_skyline import global_skyline_candidates

if TYPE_CHECKING:  # pragma: no cover
    from repro.plan.executor import ExecutionContext, PlanNode
    from repro.plan.logical import LogicalPlan

__all__ = [
    "Operator",
    "candidate_operators",
    "ensure_approx_store",
    "row_mask",
]


def ensure_approx_store(engine, k: int) -> ApproximateDSLStore:
    """The engine's (cached) sampled-DSL store for parameter ``k``,
    keyed by ``(k, dataset_epoch)`` so a stale-epoch store is never
    served (every mutation also flushes them)."""
    key = (k, engine.dataset_epoch)
    store = engine._approx_stores.get(key)
    if store is None:
        store = ApproximateDSLStore(
            engine.index,
            engine.customers,
            k=k,
            config=engine.config,
            self_exclude=engine.monochromatic,
            dsl_cache=engine.dsl_cache,
        )
        engine._approx_stores[key] = store
    return store


# ----------------------------------------------------------------------
# The shared row mask
# ----------------------------------------------------------------------
def row_mask(
    eng,
    variant: str,
    points: np.ndarray,
    query: np.ndarray,
    prefs,
    self_positions: np.ndarray | None = None,
    *,
    rtol: float = 0.0,
) -> np.ndarray:
    """``(len(points),)`` mask: is each row's window over the products
    empty, i.e. is the row in ``RSL(query)`` (Definition 3)?

    ``prefs`` is the preference model (dominance policy and support);
    ``self_positions`` holds each row's self-excluded product (``-1`` or
    ``None`` for none); ``rtol`` is the verification tolerance of
    :func:`repro.core._verify.verify_membership`.
    """
    count = points.shape[0]
    if count == 0:
        return np.empty(0, dtype=bool)
    policy, dims = prefs.policy, prefs.support(eng.dim)
    if variant == "index":
        sp, weights = self_positions, prefs.weight_array(eng.dim)
        return np.fromiter(
            (
                verify_membership(
                    eng.index,
                    points[i],
                    query,
                    policy,
                    () if sp is None or sp[i] < 0 else (int(sp[i]),),
                    rtol=rtol,
                    weights=weights,
                )
                for i in range(count)
            ),
            dtype=bool,
            count=count,
        )
    if variant == "pruned":
        return batch_window_membership_pruned(
            eng.products,
            points,
            query,
            policy,
            self_positions=self_positions,
            block_size=eng.kernel_block_size,
            rtol=rtol,
            counters=eng._kernel_counters,
            prune_counters=eng._prune_counters,
            tile_size=eng.prune_tile_size,
            product_bounds=eng.prune_summaries.product_bounds(),
            dims=dims,
        )
    return batch_window_membership(
        eng.products,
        points,
        query,
        policy,
        self_positions=self_positions,
        block_size=eng.kernel_block_size,
        rtol=rtol,
        counters=eng._kernel_counters,
        dims=dims,
    )


# ----------------------------------------------------------------------
# Shared operator plumbing
# ----------------------------------------------------------------------
def _observe_regions(engine):
    """Region-kernel counting scope — a null context when not tracing
    (the kernels' module-level sink stays untouched)."""
    if engine.obs.enabled:
        return _ra.observe_region_ops(engine.obs.metrics)
    return nullcontext()


def _absorb_safe_region_stats(engine, stats) -> None:
    """Fold one build's counters into the engine-lifetime totals the
    registry exports under ``safe_region.*``."""
    totals = engine.safe_region_totals
    for field in (
        "members", "intersections", "boxes_before_simplify",
        "boxes_after_simplify", "budget_truncations", "cache_hits",
        "cache_misses", "member_seconds", "build_seconds",
    ):
        setattr(totals, field, getattr(totals, field) + getattr(stats, field))
    totals.peak_boxes = max(totals.peak_boxes, stats.peak_boxes)
    if stats.early_exit:
        totals.early_exit = True


def _ctx_prefs(ctx: "ExecutionContext"):
    """``(prefs, default)`` for one execution: the request's preference
    model and whether it matches the engine default."""
    eng = ctx.engine
    prefs = ctx.prefs if ctx.prefs is not None else eng.prefs
    return prefs, prefs.fingerprint() == eng.prefs.fingerprint()


def _cache_get(eng, cache: dict, key, default: bool):
    """Look ``key`` up in one of the engine's result caches (RSL, exact
    or approximate safe region).  They hold default-prefs answers only;
    a non-default request skips the lookup, counted under
    ``prefs.cache_bypass``, and computes fresh and uncached."""
    if default:
        return cache.get(key)
    eng._prefs_cache_bypass.inc()
    return None


def _resolve_batch(ctx: "ExecutionContext") -> tuple[np.ndarray, np.ndarray]:
    """``(points, self_positions)`` for the customers in ``ctx.why_nots``
    (-1 marks coordinate-addressed customers with no self-exclusion)."""
    eng = ctx.engine
    why_nots = ctx.why_nots
    count = len(why_nots)
    points = np.empty((count, eng.dim), dtype=np.float64)
    self_positions = np.full(count, -1, dtype=np.int64)
    for i, why_not in enumerate(why_nots):
        point, exclude = eng._resolve_customer(why_not)
        points[i] = point
        if exclude:
            self_positions[i] = exclude[0]
    return points, self_positions


class Operator:
    """One physical execution strategy for one logical surface."""

    name: str = "abstract"
    span_name: ClassVar[str] = "engine.abstract"
    variant: str | None = None

    def __init__(self, name: str | None = None, variant: str | None = None):
        if name is not None:
            self.name = name
        self.variant = variant

    @property
    def attrs(self) -> dict:
        """Span attributes marking the non-default strategies."""
        return {"pruned": True} if self.variant == "pruned" else {}

    def child_plans(self, logical: "LogicalPlan") -> tuple:
        """The sub-plans this operator actually executes (defaults to
        the logical definition; e.g. the sequential batch operator
        drops the membership-prefilter child)."""
        return logical.child_plans()

    def run(self, ctx: "ExecutionContext", node: "PlanNode", span) -> Any:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<operator {self.name}>"


# ----------------------------------------------------------------------
# Row-mask surfaces: reverse skyline, membership, retained mask
# ----------------------------------------------------------------------
class ReverseSkylineOp(Operator):
    """BBRS: global-skyline candidate generation, then one row mask
    over the candidates."""

    span_name = "engine.reverse_skyline"

    def run(self, ctx, node, span):
        eng = ctx.engine
        q = ctx.query
        prefs, default = _ctx_prefs(ctx)
        key = q.tobytes()
        cached = _cache_get(eng, eng._rsl_cache, key, default)
        if cached is not None:
            span.set(members=int(cached.size), result_cache="hit")
            return cached
        candidates = np.asarray(
            global_skyline_candidates(
                eng.products,
                eng.customers,
                q,
                self_exclude=eng.monochromatic,
                weights=prefs.weight_array(eng.dim),
            ),
            dtype=np.int64,
        )
        members = candidates[
            row_mask(
                eng,
                self.variant,
                eng.customers[candidates],
                q,
                prefs,
                candidates if eng.monochromatic else None,
            )
        ]
        if default:
            eng._rsl_cache[key] = members
        span.set(members=int(members.size), **self.attrs)
        return members


class MembershipOp(Operator):
    """``is_member`` for many customers at once."""

    span_name = "engine.membership_mask"

    def run(self, ctx, node, span):
        eng = ctx.engine
        prefs, _ = _ctx_prefs(ctx)
        points, self_positions = _resolve_batch(ctx)
        count = points.shape[0]
        # One predicate per customer regardless of execution path — the
        # counter-invariance contract of the batch kernels.
        eng._membership_tests.inc(count)
        span.set(
            customers=count, batch=self.variant != "index", **self.attrs
        )
        return row_mask(
            eng, self.variant, points, ctx.query, prefs, self_positions
        )


class RetainedOp(Operator):
    """Which RSL members survive a refined query (tolerance-aware)."""

    span_name = "engine.retained_mask"

    def run(self, ctx, node, span):
        eng = ctx.engine
        prefs, _ = _ctx_prefs(ctx)
        members = np.asarray(ctx.members, dtype=np.int64)
        span.set(
            members=int(members.size),
            batch=self.variant != "index",
            **self.attrs,
        )
        if members.size == 0:
            return np.empty(0, dtype=bool)
        eng._membership_tests.inc(int(members.size))
        return row_mask(
            eng,
            self.variant,
            eng.customers[members],
            ctx.refined_query,
            prefs,
            members if eng.monochromatic else None,
            rtol=VERIFY_RTOL,
        )


# ----------------------------------------------------------------------
# Single-strategy surfaces: Λ window, Algorithm 1, Algorithm 2
# ----------------------------------------------------------------------
class LambdaWindow(Operator):
    """Aspect 1: one window query for the ``Λ`` culprit set."""

    name = "lambda-window"
    span_name = "engine.explain"

    def run(self, ctx, node, span):
        eng = ctx.engine
        prefs, _ = _ctx_prefs(ctx)
        point, exclude = eng._resolve_customer(ctx.why_not)
        result = explain_why_not(
            eng.index, point, ctx.query, prefs.policy, exclude,
            weights=prefs.weight_array(eng.dim),
        )
        span.set(culprits=len(result.culprit_positions))
        return result


class _StaircaseOp(Operator):
    """Algorithms 1 and 2: a window query plus a staircase scan;
    ``cost_weights`` names the engine's movement weights."""

    cost_weights: ClassVar[str]
    algorithm: ClassVar[Any]

    def run(self, ctx, node, span):
        eng = ctx.engine
        prefs, _ = _ctx_prefs(ctx)
        point, exclude = eng._resolve_customer(ctx.why_not)
        return self.algorithm(
            eng.index,
            point,
            ctx.query,
            config=eng.config,
            weights=prefs.cost_weights(getattr(eng, self.cost_weights)),
            normalizer=eng.normalizer,
            exclude=exclude,
            pref_weights=prefs.weight_array(eng.dim),
        )


class MWPStaircase(_StaircaseOp):
    """Algorithm 1 — move the why-not point to the cheapest boundary."""

    name = "mwp-staircase"
    span_name = "engine.mwp"
    cost_weights = "beta"
    algorithm = staticmethod(modify_why_not_point)


class MQPStaircase(_StaircaseOp):
    """Algorithm 2 — move the query point to the cheapest admission."""

    name = "mqp-staircase"
    span_name = "engine.mqp"
    cost_weights = "alpha"
    algorithm = staticmethod(modify_query_point)


# ----------------------------------------------------------------------
# Safe region (Algorithm 3 exact, Section VI.B approximate)
# ----------------------------------------------------------------------
class _ExactSafeRegionOp(Operator):
    """Algorithm 3: fold the anti-dominance regions of ``RSL(q)`` in
    this process, reusing the engine's DSL cache whenever one exists."""

    name = "sr-cached-fold"
    span_name = "engine.safe_region"

    def run(self, ctx, node, span):
        eng = ctx.engine
        q = ctx.query
        prefs, default = _ctx_prefs(ctx)
        key = q.tobytes()
        cached = _cache_get(eng, eng._sr_cache, key, default)
        if cached is not None:
            span.set(
                members=cached.stats.members if cached.stats else 0,
                boxes=len(cached.region),
                early_exit=bool(cached.stats and cached.stats.early_exit),
                result_cache="hit",
            )
            return cached
        with _observe_regions(eng):
            rsl = ctx.execute(node.children[0])
            # compute_safe_region bypasses the DSL cache itself for
            # partial-support weights (full support leaves the regions
            # unchanged, so the unweighted cache is shared).
            cached = compute_safe_region(
                eng.index,
                eng.customers,
                q,
                rsl,
                eng._geometry_bounds(q),
                config=eng.config,
                self_exclude=eng.monochromatic,
                dsl_cache=eng.dsl_cache,
                weights=prefs.weight_array(eng.dim),
            )
            span.set(
                members=cached.stats.members,
                boxes=len(cached.region),
                early_exit=cached.stats.early_exit,
            )
        eng.last_safe_region_stats = cached.stats
        _absorb_safe_region_stats(eng, cached.stats)
        if default:
            eng._sr_cache[key] = cached
        return cached


class SafeRegionApproxStore(Operator):
    """Sampled-DSL approximation via the precomputed store."""

    name = "sr-approx-store"
    span_name = "engine.safe_region"

    def run(self, ctx, node, span):
        eng = ctx.engine
        q = ctx.query
        prefs, default = _ctx_prefs(ctx)
        k = node.logical.k
        key = (q.tobytes(), k)
        span.set(approximate=True, k=k)
        cached = _cache_get(eng, eng._approx_sr_cache, key, default)
        if cached is not None:
            span.set(result_cache="hit")
            return cached
        with _observe_regions(eng):
            if default:
                store = ensure_approx_store(eng, k)
            else:
                # Non-default preference: a one-shot store (lazy, so it
                # only samples the members of this query).  The shared
                # DSL cache may seed it only under full support, where
                # the weighted and unweighted skylines coincide.
                store = ApproximateDSLStore(
                    eng.index,
                    eng.customers,
                    k=k,
                    config=eng.config,
                    self_exclude=eng.monochromatic,
                    dsl_cache=eng.dsl_cache if prefs.full_support else None,
                    weights=prefs.weight_array(eng.dim),
                )
            rsl = ctx.execute(node.children[0])
            cached = store.safe_region(q, rsl, eng._geometry_bounds(q))
        if default:
            eng._approx_sr_cache[key] = cached
        return cached


# ----------------------------------------------------------------------
# MWQ (Algorithm 4 over the exact or approximate safe region)
# ----------------------------------------------------------------------
class MWQCombine(Operator):
    """Algorithm 4: intersect the safe region with the why-not DDR."""

    name = "mwq-combine"
    span_name = "engine.mwq"

    def run(self, ctx, node, span):
        eng = ctx.engine
        q = ctx.query
        prefs, _ = _ctx_prefs(ctx)
        point, exclude = eng._resolve_customer(ctx.why_not)
        span.set(approximate=node.logical.approximate)
        region = ctx.execute(node.children[0])
        bounds = eng._geometry_bounds(q)
        ddr = eng._cached_ddr(ctx.why_not, prefs, bounds)
        return modify_query_and_why_not_point(
            eng.index,
            point,
            q,
            safe_region=region,
            bounds=bounds,
            config=eng.config,
            weights=prefs.cost_weights(eng.beta),
            normalizer=eng.normalizer,
            exclude=exclude,
            ddr_why_not=ddr,
            pref_weights=prefs.weight_array(eng.dim),
        )


# ----------------------------------------------------------------------
# Batch why-not answering
# ----------------------------------------------------------------------
class BatchOp(Operator):
    """Answer many why-not questions against one query.

    The ``"kernel"`` variant (``batch-prefilter``) resolves every
    question's membership through the planned membership child first
    (planned on its own, it may itself be pruned), then
    answers the rest through :func:`repro.core.batch.answer_batch`: two
    kernel passes for every ``Λ`` of the batch, one segmented staircase
    and one kernel pass verifying every candidate.  The ``"index"`` variant
    (``batch-sequential``) runs the full per-question pipeline for every
    question — the reference the batched path equals byte for byte.
    Both fetch the shared safe region once."""

    span_name = "engine.answer_batch"

    def child_plans(self, logical):
        if self.variant == "index":
            # No membership prefilter: only the shared safe-region warmup.
            return logical.child_plans()[:1]
        return logical.child_plans()

    def run(self, ctx, node, span):
        from repro.core.batch import answer_batch, answer_why_not

        prefs, _ = _ctx_prefs(ctx)
        q = ctx.query
        why_nots = list(ctx.why_nots)
        prefilter = self.variant != "index"
        span.set(questions=len(why_nots), prefilter=prefilter)
        region = ctx.execute(node.children[0])  # Warm SR(q) once.
        if not why_nots:
            return []
        if prefilter:
            members = ctx.execute(node.children[1])
            return answer_batch(ctx.engine, why_nots, q, members, region, prefs)
        return [
            answer_why_not(
                ctx.engine,
                why_not,
                q,
                approximate=ctx.approximate,
                k=ctx.k,
                weights=prefs.weights,
            )
            for why_not in why_nots
        ]


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: dict[str, tuple[Operator, ...]] = {
    "safe_region": (_ExactSafeRegionOp(),),
    "safe_region_approx": (SafeRegionApproxStore(),),
    "reverse_skyline": (
        ReverseSkylineOp("rsl-kernel-verify", "kernel"),
        ReverseSkylineOp("rsl-index-verify", "index"),
        ReverseSkylineOp("rsl-pruned-kernel", "pruned"),
    ),
    "membership": (
        MembershipOp("membership-kernel", "kernel"),
        MembershipOp("membership-index-loop", "index"),
        MembershipOp("membership-pruned", "pruned"),
    ),
    "retained_mask": (
        RetainedOp("retained-kernel", "kernel"),
        RetainedOp("retained-index-loop", "index"),
    ),
    "explain": (LambdaWindow(),),
    "mwp": (MWPStaircase(),),
    "mqp": (MQPStaircase(),),
    "mwq": (MWQCombine(),),
    "batch": (
        BatchOp("batch-prefilter", "kernel"),
        BatchOp("batch-sequential", "index"),
    ),
}


def candidate_operators(logical: "LogicalPlan") -> tuple[Operator, ...]:
    """Every physical operator that can, in principle, execute
    ``logical``, in registry order, before capability gating."""
    surface = logical.surface
    if surface == "safe_region" and getattr(logical, "approximate", False):
        surface = "safe_region_approx"
    try:
        return _REGISTRY[surface]
    except KeyError:
        raise ValueError(
            f"no physical operators registered for surface "
            f"{logical.surface!r}"
        ) from None
