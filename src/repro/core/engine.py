"""The :class:`WhyNotEngine` facade.

One object owning the product index, customer matrix, cost normaliser and
caches, exposing the full pipeline of the paper:

>>> engine = WhyNotEngine(products)            # monochromatic, like Fig. 1
>>> engine.reverse_skyline(q)                  # RSL(q) via BBRS
>>> engine.explain(c_t, q)                     # aspect 1: the Λ set
>>> engine.modify_why_not_point(c_t, q)        # Algorithm 1 (MWP)
>>> engine.modify_query_point(c_t, q)          # Algorithm 2 (MQP)
>>> engine.safe_region(q)                      # Algorithm 3 (exact SR)
>>> engine.modify_both(c_t, q)                 # Algorithm 4 (MWQ)
>>> engine.modify_both(c_t, q, approximate=True, k=10)   # Approx-MWQ

Customers may be addressed by row position (which enables monochromatic
self-exclusion) or by raw coordinates.

Since the planner/executor decomposition the engine is a *facade*: each
surface method builds a coordinate-free logical plan, the
:class:`~repro.plan.planner.Planner` selects physical operators (one
forced arm under the ``"index"`` / ``"kernel"`` / ``"pruned"`` pins;
under ``config.planner="auto"`` the pruned arm when the tile summaries
predict a low refine rate, else the kernel arm), and the executor runs
the tree.  All kernel / safe-region / staircase dispatch lives in
:mod:`repro.plan.operators`, one operator per surface; the engine
keeps only the state those operators share (stores, index, result
caches, observability).  ``engine.explain_plan(surface, ...)`` returns
the executed plan tree with measured per-node costs.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np

from repro.config import CostWeights, WhyNotConfig
from repro.core.answer import Explanation, ModificationResult, MWQResult
from repro.core.cost import MinMaxNormalizer
from repro.core.dsl_cache import DSLCache
from repro.core.engine_obs import install_observability
from repro.core.gate import ReadWriteGate
from repro.core.mutators import EngineMutationMixin
from repro.core.safe_region import SafeRegion, SafeRegionStats
from repro.exceptions import (
    EmptyDatasetError,
    InvalidParameterError,
    StaleSessionError,
)
from repro.geometry.box import Box
from repro.geometry.point import as_point, as_points
from repro.geometry.region import BoxRegion
from repro.index import make_index
from repro.plan.cache import PlanCache, config_fingerprint
from repro.plan.executor import ExecutionContext, execute_plan
from repro.plan.logical import LogicalPlan, RetainedMaskQuery
from repro.plan.operators import ensure_approx_store
from repro.plan.planner import Planner
from repro.plan.prepared import PreparedPlan
from repro.plan.requests import build_request
from repro.prefs.model import PreferenceModel
from repro.prune.summaries import PruneSummaries
from repro.store.base import CustomerStore, ProductStore, VersionedStore
from repro.store.lease import LeaseRegistry
from repro.store.session import WhyNotSession

__all__ = ["WhyNotEngine"]


class WhyNotEngine(EngineMutationMixin):
    """End-to-end why-not answering over one product / customer universe.

    Parameters
    ----------
    products:
        ``(n, d)`` product matrix ``P``.
    customers:
        ``(m, d)`` customer matrix ``C``; ``None`` selects the
        monochromatic convention of the paper's experiments (the same
        points serve as products and customers, with self-exclusion).
    backend:
        ``"rtree"`` (the paper's access method) or ``"scan"``
        (vectorised oracle, fastest for bulk sweeps).
    config:
        Dominance policy / sort dimension / margin / verification /
        planner mode.
    weights:
        Alpha/beta cost weights (equal, summing to 1, by default).
    bounds:
        Data universe for normalisation and region clipping; derived from
        the data when absent.
    """

    def __init__(
        self,
        products: np.ndarray,
        customers: np.ndarray | None = None,
        backend: str = "rtree",
        config: WhyNotConfig | None = None,
        weights: CostWeights | None = None,
        bounds: Box | None = None,
    ) -> None:
        prods = as_points(products)
        if prods.shape[0] == 0:
            raise EmptyDatasetError("the product set must not be empty")
        self.monochromatic = customers is None
        # Versioned dataset layer: the engine owns its matrices through
        # copy-on-write stores.  The monochromatic convention shares one
        # store for both roles, so ``self.customers is self.products``
        # keeps holding and one mutation drives both sides coherently.
        self._product_store = ProductStore(prods)
        self._customer_store: VersionedStore = (
            self._product_store
            if customers is None
            else CustomerStore(as_points(customers, dim=prods.shape[1]))
        )
        prods = self._product_store.matrix
        custs = self._customer_store.matrix
        self._backend = backend
        self.config = config or WhyNotConfig()
        # The engine-default preference model (repro.prefs): validated
        # once here; every surface may override it per request via the
        # ``weights=`` kwarg, resolved through :meth:`resolve_prefs`.
        self.prefs = PreferenceModel.resolve(
            self.config.prefs_weights, self.config.policy, prods.shape[1]
        )
        self._weights = weights or CostWeights()
        self.alpha, self.beta = self._weights.resolved(prods.shape[1])
        self.index = make_index(backend, prods)
        # Filter-refinement summaries (repro.prune): per-tile AABBs,
        # recomputed from the stores on the first read after a commit.
        # The classifier tiles and the planner's refine-rate probe
        # both read them.
        self.prune_summaries = PruneSummaries(
            self._product_store,
            self._customer_store,
            tile_size=self.prune_tile_size,
        )
        if bounds is None:
            stacked = np.vstack([prods, custs])
            bounds = Box(stacked.min(axis=0), stacked.max(axis=0))
        self.bounds = bounds
        self.normalizer = MinMaxNormalizer(bounds.lo, bounds.hi)
        self._rsl_cache: dict[bytes, np.ndarray] = {}
        self._sr_cache: dict[bytes, SafeRegion] = {}
        self._approx_sr_cache: dict[tuple[bytes, int], SafeRegion] = {}
        self._approx_stores: dict[tuple, object] = {}
        # Engine-level DSL/anti-dominance cache: per-customer dynamic
        # skylines computed once, shared by safe_region / modify_both /
        # batch answering / approx store / relaxation analysis.
        # The cache's entries are unweighted DSL structures; they equal
        # the weighted ones for every *full-support* preference (scale
        # invariance of dominance), so the cache is only built when the
        # engine default has full support.  Partial-support per-request
        # preferences bypass it inside ``compute_safe_region``.
        self.dsl_cache: DSLCache | None = (
            DSLCache(
                self.index,
                self._customer_store,
                config=self.config,
                self_exclude=self.monochromatic,
            )
            if self.prefs.full_support
            else None
        )
        self.last_safe_region_stats: SafeRegionStats | None = None
        install_observability(self)
        # Planner/executor wiring: plans are cached per (shape, epoch,
        # config fingerprint) and dropped by every mutation.
        self._planner = Planner(self.config)
        self._plan_cache = PlanCache(obs=self.obs)
        self._config_fp = config_fingerprint(self.config)
        # Short *stable* digest of the fingerprint for journal records
        # (hash() is salted per process; JSONL must compare across runs).
        self._config_fp_digest = hashlib.sha1(
            repr(self._config_fp).encode()
        ).hexdigest()[:12]
        self.last_plan = None
        # Single-writer / multi-reader contract: the gate serializes
        # each mutation against concurrent plan executions; the lease
        # registry extends the pin to whole multi-plan requests (the
        # serve layer's writer drains leases between batches).
        self.gate = ReadWriteGate()
        self.leases = LeaseRegistry(lambda: self.dataset_epoch)
        self._closed = False

    # ------------------------------------------------------------------
    # Versioned dataset surface
    # ------------------------------------------------------------------
    @property
    def products(self) -> np.ndarray:
        """The current ``(n, d)`` product matrix (non-writeable; mutate
        through :meth:`insert_products` / :meth:`delete_products` /
        :meth:`update_products`)."""
        return self._product_store.matrix

    @property
    def customers(self) -> np.ndarray:
        """The current ``(m, d)`` customer matrix — the *same object* as
        :attr:`products` in the monochromatic convention."""
        return self._customer_store.matrix

    @property
    def product_store(self) -> ProductStore:
        return self._product_store

    @property
    def customer_store(self) -> VersionedStore:
        return self._customer_store

    @property
    def backend(self) -> str:
        """The spatial-index backend name this engine was built with."""
        return self._backend

    @property
    def dataset_epoch(self) -> int:
        """Monotone counter of committed mutations across both stores;
        every derived cache is valid for exactly one value of it."""
        if self._customer_store is self._product_store:
            return self._product_store.epoch
        return self._product_store.epoch + self._customer_store.epoch

    def session(self) -> WhyNotSession:
        """A read facade pinned to the current epoch: reads through it
        raise :class:`~repro.exceptions.StaleSessionError` after any
        mutation instead of silently mixing generations."""
        return WhyNotSession(self)

    # ------------------------------------------------------------------
    # Concurrency + lifecycle contract
    # ------------------------------------------------------------------
    def enable_thread_safety(self) -> None:
        """Prepare this engine for concurrent epoch-pinned readers.

        Locks every metric on the engine registry (counter increments
        are read-modify-writes that lose updates under threads; see
        :meth:`repro.obs.MetricsRegistry.make_threadsafe`).  The
        structural invariants — readers never observing a half-applied
        mutation — come from :attr:`gate` and :attr:`leases` and hold
        regardless; this call only makes the *accounting* exact.
        Idempotent; the serve layer calls it at startup.
        """
        self.obs.metrics.make_threadsafe()

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Flush the observability state so a final export is coherent
        (the epoch gauge reflects the last committed generation).
        Idempotent.  The engine object itself remains usable for reads
        afterwards.  ``with WhyNotEngine(...) as engine:`` closes on
        exit; the serve layer's shutdown path calls this.
        """
        if self._closed:
            return
        self._closed = True
        with self.gate.write():
            self._epoch_gauge.set(self.dataset_epoch)

    def __enter__(self) -> "WhyNotEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Addressing helpers
    # ------------------------------------------------------------------
    @property
    def dim(self) -> int:
        return self.products.shape[1]

    @property
    def kernel_block_size(self) -> int:
        """The *resolved* kernel block width: the configured value, or
        the working-set heuristic when ``kernel_block_size=None``.
        Every kernel call site reads this, never the raw config field."""
        from repro.kernels.membership import resolve_block_size

        return resolve_block_size(self.config.kernel_block_size, self.dim)

    @property
    def prune_tile_size(self) -> int:
        """The resolved classifier tile width: the configured value, or
        the resolved kernel block size so one classification tile maps
        to exactly one kernel tile."""
        if self.config.prune_tile_size is not None:
            return int(self.config.prune_tile_size)
        return self.kernel_block_size

    def resolve_prefs(
        self, weights: "Sequence[float] | np.ndarray | PreferenceModel | None" = None
    ) -> PreferenceModel:
        """The :class:`~repro.prefs.model.PreferenceModel` of one request.

        ``None`` selects the engine default; a raw weight sequence is
        validated (length, non-negativity, finiteness) against this
        dataset's dimensionality; a prebuilt model is length-checked and
        adopted as-is.  Raises
        :class:`~repro.exceptions.InvalidParameterError` on malformed
        weights — the serve layer maps that to a structured 400.
        """
        if weights is None:
            self._prefs_default_requests.inc()
            return self.prefs
        self._prefs_weighted_requests.inc()
        if isinstance(weights, PreferenceModel):
            weights.resolved(self.dim)  # length check
            return weights
        return PreferenceModel.resolve(weights, self.config.policy, self.dim)

    def _resolve_customer(
        self, why_not: "int | Sequence[float]"
    ) -> tuple[np.ndarray, tuple[int, ...]]:
        """Map a customer position or raw point to ``(point, exclusions)``.

        Positions get monochromatic self-exclusion; raw coordinates do not
        (the caller is asking about a hypothetical customer).
        """
        if isinstance(why_not, (int, np.integer)):
            position = int(why_not)
            if not 0 <= position < self.customers.shape[0]:
                raise InvalidParameterError(
                    f"customer position {position} out of range"
                )
            point = self.customers[position]
            exclude = (position,) if self.monochromatic else ()
            return point, exclude
        return as_point(why_not, dim=self.dim), ()

    def _cached_ddr(
        self, why_not: "int | Sequence[float]", prefs: PreferenceModel, bounds: Box
    ) -> "BoxRegion | None":
        """The cached anti-dominance region of a position-addressed
        why-not customer, or ``None`` (Algorithm 4 then builds it).

        Position-addressed customers share the DSL cache's staircase
        region (its self-exclusion convention matches
        :meth:`_resolve_customer`'s).  Valid for every *full-support*
        preference — the region depends only on the weight support, not
        the magnitudes."""
        if (
            self.dsl_cache is not None
            and prefs.full_support
            and isinstance(why_not, (int, np.integer))
        ):
            return self.dsl_cache.region(int(why_not), bounds)
        return None

    def _geometry_bounds(self, query: np.ndarray) -> Box:
        """Universe box guaranteed to contain the query point."""
        if self.bounds.contains_point(query):
            return self.bounds
        return Box(
            np.minimum(self.bounds.lo, query), np.maximum(self.bounds.hi, query)
        )

    # ------------------------------------------------------------------
    # Planning + execution (the dispatch core of the facade)
    # ------------------------------------------------------------------
    @property
    def planner(self) -> Planner:
        return self._planner

    @property
    def plan_cache(self) -> PlanCache:
        return self._plan_cache

    def _request(
        self, surface: str, *args, **kwargs
    ) -> tuple[LogicalPlan, dict]:
        """``(logical plan, execution-context kwargs)`` for one surface
        request; see :func:`repro.plan.requests.build_request`."""
        return build_request(self, surface, *args, **kwargs)

    def _prepare(self, logical: LogicalPlan, ctx_kwargs: dict) -> PreparedPlan:
        prefs = ctx_kwargs.get("prefs") or self.prefs
        key = (
            logical.cache_key(),
            self.dataset_epoch,
            self._config_fp,
            prefs.fingerprint(),
        )
        node = self._plan_cache.get(key)
        cached = node is not None
        if node is None:
            node = self._planner.plan(
                logical, self.prune_summaries.centroid_refine_rate
            )
            self._plan_cache.put(key, node)
        self.last_plan = node
        return PreparedPlan(self, logical, node, ctx_kwargs, plan_cached=cached)

    def _run_plan(
        self,
        node,
        ctx_kwargs: dict,
        pinned_epoch: "int | None" = None,
        stale_message: str | None = None,
    ):
        with self.gate.read():
            # The epoch check runs *inside* the read gate, so a plan
            # pinned to a generation can never race a commit: either the
            # mutation finished first (stale raises here) or this
            # execution finishes before the writer gets the gate.
            if pinned_epoch is not None:
                current = self.dataset_epoch
                if current != pinned_epoch:
                    raise StaleSessionError(
                        stale_message
                        or (
                            f"plan prepared at dataset epoch {pinned_epoch}, "
                            f"but the engine is now at epoch {current}; "
                            "call replan() to plan against the mutated market"
                        ),
                        pinned_epoch=pinned_epoch,
                        current_epoch=current,
                    )
            journal = self.obs.journal
            if journal is None:
                return execute_plan(
                    node, ExecutionContext(engine=self, **ctx_kwargs)
                )
            # Journaled path: bracket the execution with tracked-counter
            # snapshots so the record carries this request's deltas only.
            before = journal.counter_snapshot()
            result = execute_plan(
                node, ExecutionContext(engine=self, **ctx_kwargs)
            )
            journal.record(
                surface=node.logical.surface,
                operator=node.operator.name,
                epoch=self.dataset_epoch,
                config_fingerprint=self._config_fp_digest,
                actual_seconds=node.actual_seconds or 0.0,
                counters=journal.counter_delta(before),
            )
            return result

    def _execute(self, logical: LogicalPlan, ctx_kwargs: dict):
        prepared = self._prepare(logical, ctx_kwargs)
        # Direct surface calls answer from the current generation by
        # definition — no epoch pin (sessions and prepared plans add it).
        return self._run_plan(prepared.node, ctx_kwargs)

    def prepare(self, surface: str, *args, **kwargs) -> PreparedPlan:
        """Plan a surface request without executing it.  The returned
        :class:`~repro.plan.prepared.PreparedPlan` is pinned to the
        current dataset epoch; executing it after a mutation raises
        :class:`~repro.exceptions.StaleSessionError`."""
        return self._prepare(*self._request(surface, *args, **kwargs))

    def explain_plan(self, surface: str, *args, **kwargs):
        """EXPLAIN ANALYZE for one surface call: execute it and return a
        :class:`~repro.plan.explain.PlanReport` holding the chosen plan
        tree with measured costs plus the surface result."""
        prepared = self.prepare(surface, *args, **kwargs)
        result = prepared.execute()
        return prepared.report(result)

    # ------------------------------------------------------------------
    # Query journal
    # ------------------------------------------------------------------
    @property
    def journal(self):
        """The per-query :class:`~repro.obs.journal.QueryJournal`
        (``None`` unless ``WhyNotConfig(journal=True)``)."""
        return self.obs.journal

    # ------------------------------------------------------------------
    # Reverse skyline
    # ------------------------------------------------------------------
    def reverse_skyline(
        self,
        query: Sequence[float],
        weights: "Sequence[float] | None" = None,
    ) -> np.ndarray:
        """``RSL(query)`` as positions into the customer matrix (BBRS).

        ``weights`` are optional per-request preference weights
        (:mod:`repro.prefs`); ``None`` uses the engine default.
        """
        return self._execute(
            *self._request("reverse_skyline", query, weights=weights)
        )

    def is_member(
        self,
        why_not: "int | Sequence[float]",
        query: Sequence[float],
        weights: "Sequence[float] | None" = None,
    ) -> bool:
        """Membership of one customer in ``RSL(query)``."""
        return bool(self.membership_mask([why_not], query, weights=weights)[0])

    def membership_mask(
        self,
        why_nots: Sequence["int | Sequence[float]"],
        query: Sequence[float],
        weights: "Sequence[float] | None" = None,
    ) -> np.ndarray:
        """Boolean :meth:`is_member` vector for many customers at once.

        The planner picks between one blocked kernel pass and the
        per-customer oracle loop; the result is bit-identical either way.
        """
        return self._execute(
            *self._request("membership", why_nots, query, weights=weights)
        )

    # ------------------------------------------------------------------
    # The four why-not methods
    # ------------------------------------------------------------------
    def explain(
        self,
        why_not: "int | Sequence[float]",
        query: Sequence[float],
        weights: "Sequence[float] | None" = None,
    ) -> Explanation:
        """Aspect 1: the ``Λ`` set of products blocking membership."""
        return self._execute(
            *self._request("explain", why_not, query, weights=weights)
        )

    def modify_why_not_point(
        self,
        why_not: "int | Sequence[float]",
        query: Sequence[float],
        weights: "Sequence[float] | None" = None,
    ) -> ModificationResult:
        """Algorithm 1 (MWP) with normalised costs."""
        return self._execute(
            *self._request("mwp", why_not, query, weights=weights)
        )

    def modify_query_point(
        self,
        why_not: "int | Sequence[float]",
        query: Sequence[float],
        weights: "Sequence[float] | None" = None,
    ) -> ModificationResult:
        """Algorithm 2 (MQP) with normalised movement costs."""
        return self._execute(
            *self._request("mqp", why_not, query, weights=weights)
        )

    def safe_region(
        self,
        query: Sequence[float],
        approximate: bool = False,
        k: int = 10,
        weights: "Sequence[float] | None" = None,
    ) -> SafeRegion:
        """Algorithm 3 (exact) or the Section-VI.B approximation."""
        return self._execute(
            *self._request(
                "safe_region", query, approximate=approximate, k=k,
                weights=weights,
            )
        )

    def modify_both(
        self,
        why_not: "int | Sequence[float]",
        query: Sequence[float],
        approximate: bool = False,
        k: int = 10,
        weights: "Sequence[float] | None" = None,
    ) -> MWQResult:
        """Algorithm 4 (MWQ), optionally on the approximate safe region."""
        return self._execute(
            *self._request(
                "mwq", why_not, query, approximate=approximate, k=k,
                weights=weights,
            )
        )

    def approx_store(self, k: int = 10):
        """The (cached) pre-computed sampled-DSL store for parameter
        ``k``, keyed by ``(k, dataset_epoch)`` so a stale-epoch store is
        never served."""
        return ensure_approx_store(self, k)

    # Mutations: insert/delete/update for both stores, invalidate_caches
    # and without_products live in :class:`EngineMutationMixin`, with
    # their post-commit maintenance (:mod:`repro.core.mutators`).

    # ------------------------------------------------------------------
    # Lost customers + the experiment cost model (Section VI.A)
    # ------------------------------------------------------------------
    def lost_customers(
        self,
        query: Sequence[float],
        refined_query: Sequence[float],
        weights: "Sequence[float] | None" = None,
    ) -> np.ndarray:
        """Existing reverse-skyline members that would be lost by moving
        ``query`` to ``refined_query`` (positions into the customer
        matrix, empty when the move is safe — Section V.B)."""
        q = as_point(query, dim=self.dim)
        q_star = as_point(refined_query, dim=self.dim)
        members = self.reverse_skyline(q, weights=weights)
        retained = self._retained_mask(members, q_star, weights=weights)
        return members[~retained].astype(np.int64, copy=False)

    def _retained_mask(
        self,
        members: np.ndarray,
        refined_query: np.ndarray,
        weights: "Sequence[float] | None" = None,
    ) -> np.ndarray:
        """Which reverse-skyline ``members`` remain members under the
        refined query (tolerance-aware, one kernel pass when planned)."""
        members = np.asarray(members, dtype=np.int64)
        return self._execute(
            RetainedMaskQuery(),
            {
                "refined_query": refined_query,
                "members": members,
                "prefs": self.resolve_prefs(weights),
            },
        )

    def why_not_movement_cost(
        self,
        original: Sequence[float],
        moved: Sequence[float],
        weights: "Sequence[float] | None" = None,
    ) -> float:
        """Eqn. (11): normalised beta-weighted movement of the why-not
        point, scaled by the preference magnitudes when given."""
        beta = self.resolve_prefs(weights).cost_weights(self.beta)
        return self.normalizer.cost(original, moved, beta)

    def query_movement_cost(
        self,
        original: Sequence[float],
        moved: Sequence[float],
        weights: "Sequence[float] | None" = None,
    ) -> float:
        """Normalised alpha-weighted movement of the query point."""
        alpha = self.resolve_prefs(weights).cost_weights(self.alpha)
        return self.normalizer.cost(original, moved, alpha)

    def mqp_total_cost(
        self,
        query: Sequence[float],
        refined_query: Sequence[float],
        weights: "Sequence[float] | None" = None,
    ) -> float:
        """The experiment cost of an MQP answer (Section VI.A):

        ``alpha . |q' - q*| + sum over lost customers of beta . |c_l - c_l*|``

        where ``q'`` is the closest safe-region point to ``q*`` and each
        lost customer's repair ``c_l*`` is its cheapest Algorithm-1 move
        w.r.t. the refined query.
        """
        q = as_point(query, dim=self.dim)
        q_star = as_point(refined_query, dim=self.dim)
        prefs = self.resolve_prefs(weights)
        region = self.safe_region(q, weights=weights)
        anchor = region.region.nearest_point_to(q_star)
        if anchor is None:
            anchor = q
        total = self.normalizer.cost(anchor, q_star, prefs.cost_weights(self.alpha))
        members = self.reverse_skyline(q, weights=weights)
        retained = self._retained_mask(members, q_star, weights=weights)
        for position in members[~retained]:
            repair = self.modify_why_not_point(
                int(position), q_star, weights=weights
            ).best()
            if repair is not None:
                total += repair.cost
        return total
