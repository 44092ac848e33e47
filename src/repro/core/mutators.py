"""The engine's write surface, split from the read facade.

:class:`EngineMutationMixin` carries the six store mutators, the cache
flush and the ``without_products`` what-if constructor.
:func:`apply_mutation` is the only code that runs after a store commit:
it clears the plan cache, rebuilds the index over the store's committed
product matrix, flushes every derived result cache
(:func:`invalidate_all`) and does the obs accounting.  The store's
matrix is the only copy of the data; nothing is kept in step with it
incrementally.

The flush is the only invalidation.  The paper's window locality
(Lemma 2) says which cached entries a product change can reach, but
once a cold safe region is cheap, repairing just those entries no
longer pays for its code (EXPERIMENTS.md, "Update churn").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.exceptions import EmptyDatasetError, InvalidParameterError
from repro.store.base import ProductStore

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import WhyNotEngine
    from repro.store.base import Mutation

__all__ = ["EngineMutationMixin", "apply_mutation", "invalidate_all"]


def apply_mutation(
    engine: "WhyNotEngine", mutation: "Mutation", product: bool, out: np.ndarray
) -> np.ndarray:
    """Post-commit maintenance of one store mutation: clear the plan
    cache, rebuild the index (product mutations), flush the derived
    caches, count.  A no-op mutation committed nothing and gets none.
    """
    if mutation.is_noop:
        return out
    store = "product" if product else "customer"
    with engine.obs.span("engine.mutation", kind=mutation.kind, store=store):
        # Plans were costed against the pre-mutation stats.
        engine._plan_cache.clear()
        if product:
            engine.index.rebuild(engine.products)
        invalidate_all(engine)
    engine._mutations.inc()
    engine._epoch_gauge.set(engine.dataset_epoch)
    return out


def invalidate_all(engine: "WhyNotEngine") -> None:
    """Drop every derived result cache (RSL, safe regions, approx
    stores, DSL cache), counted under ``cache.evicted_full``."""
    total = (
        len(engine._rsl_cache)
        + len(engine._sr_cache)
        + len(engine._approx_sr_cache)
        + sum(len(store) for store in engine._approx_stores.values())
    )
    if engine.dsl_cache is not None:
        total += engine.dsl_cache.entry_count()
        engine.dsl_cache.invalidate()
    engine._rsl_cache.clear()
    engine._sr_cache.clear()
    engine._approx_sr_cache.clear()
    engine._approx_stores.clear()
    engine.last_safe_region_stats = None
    engine._evicted_full.inc(total)


class EngineMutationMixin:
    """Mutation methods of :class:`~repro.core.engine.WhyNotEngine`.

    Every mutator runs under the engine's write gate: the store commit
    and the post-commit maintenance (plan cache, index rebuild, cache
    flush, obs accounting) are one atomic step with respect to
    concurrent plan executions — a reader either sees the pre-mutation
    engine entirely or the post-maintenance one, never a half-applied
    state.
    """

    def insert_products(self, points) -> np.ndarray:
        """Append product rows; returns their new positions."""
        with self.gate.write():
            mutation = self._product_store.insert(points)
            return apply_mutation(
                self, mutation, product=True, out=mutation.positions
            )

    def delete_products(self, positions) -> np.ndarray:
        """Remove product rows and compact; returns the old-to-new
        position mapping (``-1`` for deleted rows), the same contract
        :meth:`without_products` has always used."""
        with self.gate.write():
            target = np.unique(np.asarray(list(positions), dtype=np.int64))
            n = self._product_store.size
            if (
                target.size == n
                and target.size
                and 0 <= target[0]
                and target[-1] < n
            ):
                raise EmptyDatasetError("cannot delete every product")
            mutation = self._product_store.delete(target)
            return apply_mutation(
                self, mutation, product=True, out=mutation.mapping
            )

    def update_products(self, positions, points) -> np.ndarray:
        """Replace the coordinates of existing product rows; returns the
        (ascending) updated positions."""
        with self.gate.write():
            mutation = self._product_store.update(positions, points)
            return apply_mutation(
                self, mutation, product=True, out=mutation.positions
            )

    def insert_customers(self, points) -> np.ndarray:
        """Append customer rows (bichromatic engines only); returns their
        new positions."""
        self._require_bichromatic()
        with self.gate.write():
            mutation = self._customer_store.insert(points)
            return apply_mutation(
                self, mutation, product=False, out=mutation.positions
            )

    def delete_customers(self, positions) -> np.ndarray:
        """Remove customer rows and compact (bichromatic engines only);
        returns the old-to-new position mapping."""
        self._require_bichromatic()
        with self.gate.write():
            mutation = self._customer_store.delete(positions)
            return apply_mutation(
                self, mutation, product=False, out=mutation.mapping
            )

    def update_customers(self, positions, points) -> np.ndarray:
        """Move existing customer rows (bichromatic engines only);
        returns the (ascending) updated positions."""
        self._require_bichromatic()
        with self.gate.write():
            mutation = self._customer_store.update(positions, points)
            return apply_mutation(
                self, mutation, product=False, out=mutation.positions
            )

    def _require_bichromatic(self) -> None:
        if self.monochromatic:
            raise InvalidParameterError(
                "monochromatic engines share one store for both roles; "
                "use the product mutators"
            )

    def invalidate_caches(self) -> None:
        """Drop every derived result cache (RSL, safe regions, approx
        stores, DSL cache), as every mutation does; counted under
        ``cache.evicted_full``."""
        with self.gate.write():
            invalidate_all(self)

    def without_products(self, positions: Sequence[int]):
        """A what-if engine with the given products deleted.

        Directly supports the paper's first aspect: deleting the ``Λ``
        culprits admits the why-not point (Lemma 1); this builds the
        counterfactual market so the claim can be *checked*, e.g.::

            culprits = engine.explain(c_t, q).culprit_positions
            reduced, mapping = engine.without_products(culprits)
            assert reduced.is_member(mapping[c_t], q)

        Returns the new engine plus a position-mapping array: old product
        position -> new position (``-1`` for deleted rows).  In the
        monochromatic setting the customer matrix shrinks identically.
        """
        drop = {int(p) for p in positions}
        for position in drop:
            if not 0 <= position < self.products.shape[0]:
                raise InvalidParameterError(
                    f"product position {position} out of range"
                )
        if len(drop) == self.products.shape[0]:
            raise EmptyDatasetError("cannot delete every product")
        # A throwaway store runs the compacting delete: the keep-set and
        # mapping come out of its vectorised mask arithmetic, with the
        # exact mapping contract this method has always returned.
        scratch = ProductStore(self.products)
        mutation = scratch.delete(sorted(drop))
        # The reduced engine starts with empty caches (including the DSL
        # cache): deleting products can change every customer's dynamic
        # skyline, so no parent entry is reusable.
        reduced = type(self)(
            scratch.matrix,
            customers=None if self.monochromatic else self.customers,
            backend=self._backend,
            config=self.config,
            weights=self._weights,
            bounds=self.bounds,
        )
        return reduced, mutation.mapping
