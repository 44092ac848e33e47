"""Locality-scoped cache maintenance for engine mutations.

A mutation of the product (or customer) matrix does not touch most of
what the engine has cached — and the paper's own window-locality argument
says exactly which entries it *can* touch:

* **Reverse skylines** (``RSL(q)``): customer ``c``'s membership w.r.t.
  ``q`` depends only on the products inside ``c``'s window around ``q``
  (the dominance region of Definition 4).  A product change at ``x``
  can therefore flip ``c`` only when ``|c - x| <= |c - q|`` holds in
  every dimension — the *closed* window test, conservative for both the
  WEAK and STRICT boundary policies.  Inserting products can only
  *remove* members; deleting can only *add* them; an update is both at
  once.  Each cached entry is **repaired** in place: only the customers
  the mutation can reach are re-tested (with the same membership
  predicate BBRS uses), everyone else keeps their verdict.

* **Dynamic skylines** (the per-customer threshold matrices of the
  :class:`~repro.core.dsl_cache.DSLCache`): deleting ``x`` changes
  ``DSL(c)`` only if ``x`` was *in* it — i.e. ``|c - x|`` matches a
  cached threshold row exactly.  Inserting ``x`` leaves ``DSL(c)``
  intact whenever some cached row strictly dominates ``|c - x|`` in
  every dimension: the newcomer is then strictly dominated (so it does
  not enter the skyline) and, by transitivity of weak dominance, every
  point it dominates was already dominated (so nothing leaves either).

* **Safe regions**: ``SR(q)`` is the intersection of the members'
  anti-dominance regions (Lemma 2), so it survives a mutation iff the
  membership of ``RSL(q)`` is unchanged *and* no member's dynamic
  skyline was affected.  Surviving regions only need their member
  positions renumbered after a compacting delete.

Every re-test runs the exact membership predicate, so the repaired
caches are bit-identical to a freshly built engine — property-tested in
``tests/properties/test_incremental_equivalence.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.plan.operators import row_mask

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import WhyNotEngine
    from repro.store.base import Mutation

__all__ = [
    "InvalidationOutcome",
    "MutationInvalidator",
    "apply_mutation",
    "in_closed_window",
    "invalidate_all",
    "thresholds_affected_by_delete",
    "thresholds_affected_by_insert",
]


def apply_mutation(
    engine: "WhyNotEngine", mutation: "Mutation", product: bool, out: np.ndarray
) -> np.ndarray:
    """Post-commit maintenance of one store mutation: index upkeep,
    cache scoping (or the full-invalidate fallback), obs accounting.

    Called by every engine mutator; the plan cache is cleared separately
    through the store's post-commit subscribers, so it is already empty
    by the time this runs.
    """
    if mutation.is_noop:
        return out
    store = "product" if product else "customer"
    with engine.obs.span(
        "engine.mutation", kind=mutation.kind, store=store
    ) as span:
        if product:
            if mutation.kind == "insert":
                engine.index.insert(mutation.new_points)
            elif mutation.kind == "delete":
                engine.index.remove(mutation.positions)
            else:
                engine.index.update(mutation.positions, mutation.new_points)
        # Scoped invalidation reasons about full-dimensional windows and
        # repairs entries with unweighted membership sweeps; under a
        # partial-support engine default the projected geometry differs
        # (and there is no DSL cache to scope), so the conservative full
        # flush is the only sound choice.
        if engine.prefs.full_support:
            invalidator = MutationInvalidator(engine)
            outcome = (
                invalidator.product_mutation(mutation)
                if product
                else invalidator.customer_mutation(mutation)
            )
            engine._scoped_considered.inc(outcome.considered)
            engine._scoped_evicted.inc(outcome.evicted)
            engine._scoped_retained.inc(outcome.retained)
            engine._scoped_repaired.inc(outcome.repaired)
            span.set(
                scoped=True,
                evicted=outcome.evicted,
                retained=outcome.retained,
                repaired=outcome.repaired,
            )
        else:
            invalidate_all(engine)
            span.set(scoped=False)
    engine._mutations.inc()
    engine._epoch_gauge.set(engine.dataset_epoch)
    return out


def invalidate_all(engine: "WhyNotEngine") -> None:
    """Drop every derived result cache (RSL, safe regions, approx
    stores, DSL cache) — the unscoped fallback after a mutation, counted
    under ``cache.evicted_full``."""
    total = (
        len(engine._rsl_cache)
        + len(engine._sr_cache)
        + len(engine._approx_sr_cache)
        + sum(len(store) for store in engine._approx_stores.values())
    )
    if engine.dsl_cache is not None:
        total += engine.dsl_cache.entry_count()
    engine._rsl_cache.clear()
    engine._sr_cache.clear()
    engine._approx_sr_cache.clear()
    engine._approx_stores.clear()
    engine.last_safe_region_stats = None
    if engine.dsl_cache is not None:
        engine.dsl_cache.invalidate()
    engine._evicted_full.inc(total)


@dataclass
class InvalidationOutcome:
    """Entry accounting of one scoped invalidation pass.

    ``considered`` counts every cached entry inspected (across the RSL,
    safe-region, DSL and approximate-store layers); each one is either
    ``evicted`` or ``retained``, so ``considered == evicted + retained``
    always holds — the balance the CI smoke job asserts.  ``repaired``
    counts the subset of retained entries whose *content* was rewritten
    in place (reverse-skyline entries with members added or removed).
    """

    considered: int = 0
    evicted: int = 0
    retained: int = 0
    repaired: int = 0


def in_closed_window(
    customers: np.ndarray, points: np.ndarray, query: np.ndarray
) -> np.ndarray:
    """``(m,)`` bool: does any of ``points`` fall in each customer's
    *closed* window around ``query`` (``|c - x| <= |c - q|`` in every
    dimension)?

    The closed test is conservative for both dominance policies: a
    product strictly outside the window cannot affect the membership
    verdict under either boundary convention, so a False here proves
    the customer unreachable by the mutation.
    """
    if customers.shape[0] == 0 or points.shape[0] == 0:
        return np.zeros(customers.shape[0], dtype=bool)
    radius = np.abs(customers - query)  # (m, d)
    dist = np.abs(customers[:, None, :] - points[None, :, :])  # (m, k, d)
    return np.any(np.all(dist <= radius[:, None, :], axis=2), axis=1)


def thresholds_affected_by_delete(
    thresholds: np.ndarray, removed: np.ndarray
) -> bool:
    """Can deleting products at query-space distances ``removed`` change
    the dynamic skyline behind ``thresholds``?

    Only points *in* the skyline matter: a deleted non-member was
    (weakly) dominated by some member, which by transitivity dominates
    everything the deleted point dominated.  Membership is detected as
    an exact row match — ``thresholds`` are the members' query-space
    coordinates, so a member's row is bit-equal by construction.
    """
    if removed.shape[0] == 0:
        return False
    if thresholds.shape[0] == 0:
        return False
    match = np.all(
        thresholds[:, None, :] == removed[None, :, :], axis=2
    )
    return bool(np.any(match))


def thresholds_affected_by_insert(
    thresholds: np.ndarray, added: np.ndarray
) -> bool:
    """Can inserting products at query-space distances ``added`` change
    the dynamic skyline behind ``thresholds``?

    Safe (returns False) only when every added row is *strictly*
    dominated by some cached threshold row: the newcomer then cannot
    enter the skyline under either boundary policy, and cannot evict
    anyone.  An empty skyline is always affected.
    """
    if added.shape[0] == 0:
        return False
    if thresholds.shape[0] == 0:
        return True
    dominated = np.any(
        np.all(thresholds[:, None, :] < added[None, :, :], axis=2), axis=0
    )
    return not bool(np.all(dominated))


class MutationInvalidator:
    """One-shot scoped-invalidation pass over a mutated engine.

    Instantiated by :class:`~repro.core.engine.WhyNotEngine` *after* the
    store and index have committed a mutation; reads the engine's private
    caches directly (it is a friend of the engine, split out to keep the
    locality reasoning in one reviewable place).  Only run on engines
    whose default preferences have full support, which always keep a
    DSL cache.
    """

    def __init__(self, engine: "WhyNotEngine") -> None:
        self.engine = engine
        self.outcome = InvalidationOutcome()
        # Do customer rows renumber under this mutation?  Only compacting
        # deletes of the customer side: a shared-store (monochromatic)
        # product delete, or a bichromatic customer delete.  A bichromatic
        # *product* delete renumbers product rows — customer positions,
        # which is what every cache is keyed by, stay put.
        self._renumbers = False

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def product_mutation(self, mutation: "Mutation") -> InvalidationOutcome:
        """Scope the caches after a product-store commit.

        In the monochromatic convention the shared store means this is
        simultaneously a customer mutation, so member positions may be
        renumbered (delete), gain candidates (insert) or move (update).
        """
        eng = self.engine
        self._renumbers = eng.monochromatic and mutation.kind == "delete"
        affected = self._affected_dsl_positions(mutation)
        changed_keys, evicted_keys = self._repair_rsl_product(mutation)
        self._sweep_safe_regions(mutation, affected, changed_keys, evicted_keys)
        self._sweep_dsl_cache(mutation, affected)
        self._sweep_approx_stores(mutation, affected)
        self._rebind(mutation)
        return self.outcome

    def customer_mutation(self, mutation: "Mutation") -> InvalidationOutcome:
        """Scope the caches after a customer-store commit (bichromatic
        engines only — the product set, hence every membership predicate
        and every dynamic skyline of an *unchanged* customer, is intact)."""
        self._renumbers = mutation.kind == "delete"
        affected = (
            set(int(p) for p in mutation.positions)
            if mutation.kind == "update"
            else set()
        )
        changed_keys, evicted_keys = self._repair_rsl_customer(mutation)
        self._sweep_safe_regions(mutation, affected, changed_keys, evicted_keys)
        self._sweep_dsl_cache(mutation, affected)
        self._sweep_approx_stores(mutation, affected)
        self._rebind(mutation)
        return self.outcome

    # ------------------------------------------------------------------
    # Reverse-skyline repair
    # ------------------------------------------------------------------
    def _membership(self, positions: np.ndarray, query: np.ndarray) -> np.ndarray:
        """Exact membership of (post-mutation) customer ``positions`` in
        ``RSL(query)`` — the same predicate :meth:`WhyNotEngine.
        membership_mask` evaluates, so repaired entries match BBRS."""
        eng = self.engine
        positions = np.asarray(positions, dtype=np.int64)
        if positions.size == 0:
            return np.empty(0, dtype=bool)
        points = eng.customers[positions]
        self_positions = (
            positions
            if eng.monochromatic
            else np.full(positions.size, -1, dtype=np.int64)
        )
        eng._membership_tests.inc(int(positions.size))
        variant = "index" if eng.config.planner == "index" else "kernel"
        # The scoped pass only runs under a full-support default
        # preference, where the engine default equals the unweighted test.
        return row_mask(eng, variant, points, query, eng.prefs, self_positions)

    def _repair_one_product(
        self, mutation: "Mutation", members: np.ndarray, query: np.ndarray
    ) -> np.ndarray:
        """The post-mutation ``RSL(query)`` derived from its cached value."""
        eng = self.engine
        mono = eng.monochromatic
        kind = mutation.kind
        if kind == "insert":
            # New products only *block*: a member survives unless some
            # inserted point entered its window; nobody new joins —
            # except, monochromatically, the inserted rows themselves.
            suspects = in_closed_window(
                eng.customers[members], mutation.new_points, query
            )
            kept = members[~suspects]
            retest = members[suspects]
            survivors = retest[self._membership(retest, query)]
            parts = [kept, survivors]
            if mono:
                joiners = mutation.positions[
                    self._membership(mutation.positions, query)
                ]
                parts.append(joiners)
            return np.sort(np.concatenate(parts)).astype(np.int64, copy=False)
        if kind == "delete":
            # Removing products only *admits*: surviving members stay
            # members (renumbered, monochromatically), and the only
            # possible joiners are non-members that had a deleted point
            # in their window.
            remapped = mutation.mapping[members] if mono else members
            remapped = remapped[remapped >= 0]
            m_new = eng.customers.shape[0]
            non_member = np.ones(m_new, dtype=bool)
            non_member[remapped] = False
            candidates = np.flatnonzero(non_member)
            candidates = candidates[
                in_closed_window(
                    eng.customers[candidates], mutation.old_points, query
                )
            ]
            joiners = candidates[self._membership(candidates, query)]
            return np.sort(np.concatenate([remapped, joiners])).astype(
                np.int64, copy=False
            )
        # update: removed rows may admit, added rows may block, and
        # (monochromatically) the moved customers' own verdicts must be
        # recomputed outright — their coordinates changed.
        updated = mutation.positions
        if mono:
            steady = members[~np.isin(members, updated)]
        else:
            steady = members
        suspects = in_closed_window(
            eng.customers[steady], mutation.new_points, query
        )
        kept = steady[~suspects]
        retest = steady[suspects]
        survivors = retest[self._membership(retest, query)]
        m_new = eng.customers.shape[0]
        steady_non_member = np.ones(m_new, dtype=bool)
        steady_non_member[steady] = False
        if mono:
            steady_non_member[updated] = False
        candidates = np.flatnonzero(steady_non_member)
        candidates = candidates[
            in_closed_window(
                eng.customers[candidates], mutation.old_points, query
            )
        ]
        joiners = candidates[self._membership(candidates, query)]
        parts = [kept, survivors, joiners]
        if mono:
            parts.append(updated[self._membership(updated, query)])
        return np.sort(np.concatenate(parts)).astype(np.int64, copy=False)

    def _repair_one_customer(
        self, mutation: "Mutation", members: np.ndarray, query: np.ndarray
    ) -> np.ndarray:
        """Post-mutation ``RSL(query)`` for a customer-store commit: the
        product set is untouched, so unchanged customers keep their
        verdicts verbatim."""
        kind = mutation.kind
        if kind == "insert":
            joiners = mutation.positions[
                self._membership(mutation.positions, query)
            ]
            return np.sort(np.concatenate([members, joiners])).astype(
                np.int64, copy=False
            )
        if kind == "delete":
            remapped = mutation.mapping[members]
            return np.sort(remapped[remapped >= 0]).astype(np.int64, copy=False)
        updated = mutation.positions
        steady = members[~np.isin(members, updated)]
        now_member = updated[self._membership(updated, query)]
        return np.sort(np.concatenate([steady, now_member])).astype(
            np.int64, copy=False
        )

    def _repair_rsl(
        self, mutation: "Mutation", repair
    ) -> tuple[set, set]:
        """Rewrite every cached reverse skyline via ``repair``; returns
        ``(changed_keys, evicted_keys)`` for the safe-region sweep."""
        eng = self.engine
        outcome = self.outcome
        changed: set = set()
        evicted: set = set()
        for key, members in list(eng._rsl_cache.items()):
            outcome.considered += 1
            query = np.frombuffer(key, dtype=np.float64)
            repaired = repair(mutation, members, query)
            outcome.retained += 1
            if not np.array_equal(repaired, members):
                eng._rsl_cache[key] = repaired
                outcome.repaired += 1
                changed.add(key)
        return changed, evicted

    def _repair_rsl_product(self, mutation: "Mutation") -> tuple[set, set]:
        return self._repair_rsl(mutation, self._repair_one_product)

    def _repair_rsl_customer(self, mutation: "Mutation") -> tuple[set, set]:
        return self._repair_rsl(mutation, self._repair_one_customer)

    # ------------------------------------------------------------------
    # Dynamic-skyline affectedness
    # ------------------------------------------------------------------
    def _affected_dsl_positions(self, mutation: "Mutation") -> set:
        """Old-numbering customer positions whose *cached* threshold
        matrices the product mutation can change.

        Uncached customers have nothing to evict, and every cached safe
        region's members have cached thresholds (its construction put
        them there), so testing only cached positions loses nothing.
        """
        eng = self.engine
        dsl = eng.dsl_cache
        mono = eng.monochromatic
        kind = mutation.kind
        updated = (
            set(int(p) for p in mutation.positions)
            if kind == "update"
            else set()
        )
        affected: set = set()
        for position in dsl.cached_positions():
            if mono and kind == "update" and position in updated:
                # The customer itself moved: its threshold matrix is
                # measured from the old coordinates, unconditionally gone.
                affected.add(position)
                continue
            if mono and kind == "delete":
                new_position = int(mutation.mapping[position])
                if new_position < 0:
                    continue  # entry dropped by the remap, not "affected"
                customer = eng.customers[new_position]
            else:
                customer = eng.customers[position]
            thresholds = dsl.cached_thresholds(position)
            hit = False
            if kind in ("delete", "update") and mutation.old_points.size:
                hit = thresholds_affected_by_delete(
                    thresholds, np.abs(customer - mutation.old_points)
                )
            if not hit and kind in ("insert", "update") and mutation.new_points.size:
                hit = thresholds_affected_by_insert(
                    thresholds, np.abs(customer - mutation.new_points)
                )
            if hit:
                affected.add(position)
        return affected

    # ------------------------------------------------------------------
    # Cache sweeps
    # ------------------------------------------------------------------
    def _sweep_safe_regions(
        self,
        mutation: "Mutation",
        affected: set,
        changed_keys: set,
        evicted_keys: set,
    ) -> None:
        """Evict or renumber the exact and approximate safe-region caches.

        A region survives iff its query's membership is unchanged and no
        member's dynamic skyline (exact sweep) / sampled skyline
        (approximate sweep — same affectedness test, the sample is a
        function of the thresholds) was touched.
        """
        eng = self.engine
        outcome = self.outcome
        mapping = mutation.mapping

        def sweep(cache: dict, key_of) -> None:
            for key, region in list(cache.items()):
                outcome.considered += 1
                qkey = key_of(key)
                members = region.rsl_positions
                stale = (
                    qkey in changed_keys
                    or qkey in evicted_keys
                    or any(int(p) in affected for p in members)
                )
                if not stale and self._renumbers:
                    stale = not region.remap_positions(mapping)
                if stale:
                    del cache[key]
                    outcome.evicted += 1
                else:
                    outcome.retained += 1

        sweep(eng._sr_cache, lambda key: key)
        sweep(eng._approx_sr_cache, lambda key: key[0])

    def _sweep_dsl_cache(self, mutation: "Mutation", affected: set) -> None:
        eng = self.engine
        dsl = eng.dsl_cache
        outcome = self.outcome
        before = dsl.entry_count()
        evicted = dsl.evict(affected) if affected else 0
        if self._renumbers:
            evicted += dsl.remap(mutation.mapping)
        outcome.considered += before
        outcome.evicted += evicted
        outcome.retained += before - evicted

    def _sweep_approx_stores(self, mutation: "Mutation", affected: set) -> None:
        """Evict/renumber the sampled-DSL stores, then re-key them by the
        post-mutation dataset epoch (they are valid *for* it now)."""
        eng = self.engine
        outcome = self.outcome
        epoch = eng.dataset_epoch
        rekeyed: dict = {}
        for (k, _epoch), store in eng._approx_stores.items():
            before = len(store)
            evicted = store.evict(affected) if affected else 0
            if self._renumbers:
                evicted += store.remap(mutation.mapping)
            outcome.considered += before
            outcome.evicted += evicted
            outcome.retained += before - evicted
            rekeyed[(k, epoch)] = store
        eng._approx_stores = rekeyed

    def _rebind(self, mutation: "Mutation") -> None:
        """Point every surviving cache layer at the post-mutation
        matrices (copy-on-write means the arrays are new objects)."""
        eng = self.engine
        eng.dsl_cache.rebind(eng.customers)
        for store in eng._approx_stores.values():
            store.rebind(eng.customers)
