"""Epoch-versioned tile summaries over the versioned stores.

A :class:`TileSummary` holds the per-tile AABBs of one :class:`~repro.
store.base.VersionedStore`'s matrix.  It remembers the store epoch it
was computed at and recomputes every tile from the store's current
matrix on the first read after a commit, so the summary always
describes the current matrix without any post-commit hook.

:class:`PruneSummaries` is the engine-facing bundle: the product-chunk
summary feeds the pruned kernels directly (every sweep scans the same
product matrix, so its AABBs are the shared, reusable side — customer
tile bounds are recomputed inline per sweep because probe sets are
arbitrary subsets), and both summaries feed the planner's selectivity
probe (:meth:`PruneSummaries.predict`), memoized per store-epoch pair.
"""

from __future__ import annotations

import numpy as np

from repro.prune.classify import (
    PAIR_BLOCKED,
    PAIR_SKIP,
    classify_pairs,
    tile_bounds,
)
from repro.store.base import VersionedStore

__all__ = ["PruneSummaries", "TileSummary"]


class TileSummary:
    """Per-tile AABBs of one store's matrix, recomputed once per store
    epoch."""

    def __init__(self, store: VersionedStore, tile_size: int) -> None:
        if tile_size < 1:
            raise ValueError("tile_size must be a positive integer")
        self.store = store
        self.tile_size = int(tile_size)
        self._state = (store.epoch, *tile_bounds(store.matrix, self.tile_size))

    @property
    def epoch(self) -> int:
        """The store epoch the held bounds were computed at."""
        return self._state[0]

    @property
    def tiles(self) -> int:
        return self.bounds[0].shape[0]

    @property
    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """``(lo, hi)`` tile AABB matrices for the current matrix."""
        # Planning reads this outside the engine's read gate, so reads
        # may race a commit or each other.  A commit replaces the matrix
        # before it bumps the epoch, so the epoch is read first, and the
        # (epoch, lo, hi) triple is swapped in as one object: a racing
        # read can only leave a stamp older than its bounds, which the
        # next read recomputes.
        epoch = self.store.epoch
        state = self._state
        if state[0] != epoch:
            state = (epoch, *tile_bounds(self.store.matrix, self.tile_size))
            self._state = state
        return state[1], state[2]


class PruneSummaries:
    """The engine's summary bundle: product chunks + customer tiles.

    In the monochromatic convention both stores are one object and the
    two summaries are one object too — one recomputation per epoch.
    """

    def __init__(
        self,
        product_store: VersionedStore,
        customer_store: VersionedStore,
        tile_size: int,
    ) -> None:
        self.tile_size = int(tile_size)
        self.products = TileSummary(product_store, self.tile_size)
        self.customers = (
            self.products
            if customer_store is product_store
            else TileSummary(customer_store, self.tile_size)
        )
        self._predictions: dict[tuple, dict] = {}

    def product_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Product-chunk AABBs for the pruned kernels."""
        return self.products.bounds

    def predict(self, query: np.ndarray, rtol: float = 0.0) -> dict:
        """Classify every (customer-tile, product-chunk) pair for
        ``query`` and return the label fractions — the planner's
        selectivity estimate.  Memoized per (epoch, query) because
        ``planner="auto"`` reads the centroid rate on every plan-cache
        miss of a prunable surface.  The key
        holds the stores' epochs: a summary's own epoch only moves when
        its bounds are next read.
        """
        q = np.asarray(query, dtype=np.float64).reshape(-1)
        key = (
            self.products.store.epoch,
            self.customers.store.epoch,
            q.tobytes(),
            float(rtol),
        )
        cached = self._predictions.get(key)
        if cached is not None:
            return cached
        cust_lo, cust_hi = self.customers.bounds
        prod_lo, prod_hi = self.products.bounds
        pairs = cust_lo.shape[0] * prod_lo.shape[0]
        if pairs == 0:
            result = {
                "pairs": 0,
                "skip": 0.0,
                "blocked": 0.0,
                "refine": 1.0,
            }
        else:
            labels = classify_pairs(
                cust_lo, cust_hi, prod_lo, prod_hi, q, rtol=rtol
            )
            skip = int(np.count_nonzero(labels == PAIR_SKIP))
            blocked = int(np.count_nonzero(labels == PAIR_BLOCKED))
            result = {
                "pairs": pairs,
                "skip": skip / pairs,
                "blocked": blocked / pairs,
                "refine": (pairs - skip - blocked) / pairs,
            }
        # The memo only needs the current generation; one entry per
        # rtol value (0 and the verify tolerance) is plenty.
        self._predictions = {key: result}
        return result

    def predicted_refine_rate(
        self, query: np.ndarray, rtol: float = 0.0
    ) -> float:
        """Fraction of pairs the pruned kernels would refine exactly."""
        return float(self.predict(query, rtol=rtol)["refine"])

    def centroid_refine_rate(self) -> float:
        """Refine rate at the dataset centroid — the representative
        probe ``planner="auto"`` compares with
        :data:`repro.plan.planner.PRUNE_BELOW` when no concrete query is
        in scope (plans are cached across queries).
        A centroid query has the least prunable geometry of any point
        inside the data, so this is a conservative (pessimistic)
        selectivity estimate."""
        cust_lo, cust_hi = self.customers.bounds
        prod_lo, prod_hi = self.products.bounds
        if cust_lo.shape[0] == 0 or prod_lo.shape[0] == 0:
            return 1.0
        lo = np.minimum(cust_lo.min(axis=0), prod_lo.min(axis=0))
        hi = np.maximum(cust_hi.max(axis=0), prod_hi.max(axis=0))
        return self.predicted_refine_rate((lo + hi) / 2.0)
