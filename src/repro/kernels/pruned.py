"""Filter-refinement variants of the batch membership / Λ kernels.

Same contracts and bit-identical results as the kernels in
:mod:`repro.kernels.membership`; the only difference is a classification
pass over (customer-tile, product-chunk) AABB pairs
(:func:`repro.prune.classify.classify_pairs`) that resolves most pairs
without materialising a blocking matrix:

* a tile whose every chunk classifies *skip* is entirely in ``RSL(q)``
  (no product can enter any of its windows) — zero exact work;
* one *all-blocked* chunk resolves a whole tile to non-members — every
  chunk product blocks every tile customer — provided self-exclusion
  cannot void it (the chunk has ≥ 2 rows, or no tile customer's excluded
  product falls in it; a 1-row chunk that is someone's self product is
  downgraded to *refine*);
* the remaining chunks fall through to the exact blocked kernels,
  preserving the early-exit compaction.

Λ counting needs exact per-pair values, so it only exploits *skip*
(blocked pairs are counted as refined there).

Customer tile AABBs are computed inline per call (probe sets are
arbitrary subsets); product chunk AABBs can be passed in precomputed
(``product_bounds`` — the engine's epoch-versioned
:class:`repro.prune.summaries.PruneSummaries`) and must then describe
the *same* product matrix at the same tile width.

Accounting happens at classification time so the early exits cannot
unbalance the :class:`repro.prune.counters.PruneCounters` invariant
``pairs_skipped + pairs_blocked + pairs_refined == pairs_total``: a
tile resolved *all-blocked* charges **all** its pairs as blocked, a
tile that refines charges its non-skip pairs as refined.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.config import DominancePolicy
from repro.exceptions import InvalidParameterError
from repro.kernels.membership import (
    DEFAULT_BLOCK_SIZE,
    _VERIFY_RTOL,
    KernelCounters,
    _blocking_matrix,
    _clear_self_entries,
    _prepare,
    _window_bounds,
)
from repro.prune.classify import (
    PAIR_BLOCKED,
    PAIR_SKIP,
    classify_pairs,
    tile_bounds,
    tile_count,
)
from repro.prune.counters import PruneCounters

__all__ = [
    "batch_window_membership_pruned",
    "batch_lambda_counts_pruned",
    "batch_verify_membership_pruned",
]


def _chunk_bounds(
    prods: np.ndarray,
    tile: int,
    product_bounds: tuple[np.ndarray, np.ndarray] | None,
    dims: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Product chunk AABBs at width ``tile`` — validated precomputed
    bounds, or an inline reduceat pass.

    ``dims`` projects precomputed full-dimensional bounds onto the
    preference support: the AABB of the projected points is exactly the
    projection of the full AABB, so the epoch-versioned summaries stay
    reusable under any weight vector."""
    if product_bounds is None:
        return tile_bounds(prods, tile)
    lo, hi = product_bounds
    if dims is not None:
        sel = np.asarray(dims, dtype=np.int64)
        lo = lo[:, sel]
        hi = hi[:, sel]
    expected = (tile_count(prods.shape[0], tile), prods.shape[1])
    if lo.shape != expected or hi.shape != expected:
        raise InvalidParameterError(
            f"product_bounds shape {lo.shape} does not match "
            f"{expected} for n={prods.shape[0]}, tile_size={tile}"
        )
    # Exact cast: the summary is built from the same stored coordinates.
    return (
        np.ascontiguousarray(lo, dtype=prods.dtype),
        np.ascontiguousarray(hi, dtype=prods.dtype),
    )


def _blocked_chunk_safe(
    chunk_index: int, tile: int, n: int, sp: np.ndarray | None
) -> bool:
    """Is resolving the tile via this *all-blocked* chunk sound under
    self-exclusion?  Every chunk row blocks every tile customer, and a
    customer excludes at most one product — so any chunk with ≥ 2 rows
    still blocks after the exclusion.  A 1-row chunk is unsafe only if
    that row is some tile customer's own product."""
    start = chunk_index * tile
    rows = min(tile, n - start)
    if rows >= 2 or sp is None:
        return True
    return not bool(np.any((sp >= start) & (sp < start + rows)))


def _membership_refine(
    prods: np.ndarray,
    block: np.ndarray,
    q: np.ndarray,
    policy: DominancePolicy,
    rtol: float,
    sp: np.ndarray | None,
    chunk: int,
    chunk_indices: np.ndarray,
    counters: KernelCounters | None,
    box: bool = False,
) -> np.ndarray:
    """Exact membership for one tile over a *subset* of product chunks —
    :func:`repro.kernels.membership._membership_block` with the scan
    restricted to the refine-labelled chunks.  Sound because blocker
    existence is order- and subset-independent once the skipped chunks
    are proven empty of blockers."""
    b = block.shape[0]
    lo, hi = _window_bounds(block, q, rtol)
    alive = np.arange(b, dtype=np.int64)
    exhausted = True
    for k in range(chunk_indices.size):
        start = int(chunk_indices[k]) * chunk
        pc = prods[start : start + chunk]
        blocking = _blocking_matrix(
            pc, block[alive], lo[alive], hi[alive], policy, box
        )
        _clear_self_entries(
            blocking, sp[alive] if sp is not None else None, start
        )
        survivors = alive[~blocking.any(axis=1)]
        if counters is not None:
            counters.product_chunks.inc()
            counters.customers_pruned.inc(int(alive.size - survivors.size))
        alive = survivors
        if alive.size == 0:
            exhausted = k + 1 >= chunk_indices.size
            break
    if counters is not None:
        counters.tiles.inc()
        counters.customers_evaluated.inc(b)
        if not exhausted:
            counters.early_exits.inc()
    members = np.zeros(b, dtype=bool)
    members[alive] = True
    return members


def batch_window_membership_pruned(
    products: np.ndarray,
    customers: np.ndarray,
    query: Sequence[float],
    policy: DominancePolicy = DominancePolicy.WEAK,
    self_positions: np.ndarray | None = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
    rtol: float = 0.0,
    counters: KernelCounters | None = None,
    prune_counters: PruneCounters | None = None,
    tile_size: int | None = None,
    product_bounds: tuple[np.ndarray, np.ndarray] | None = None,
    dims: np.ndarray | None = None,
) -> np.ndarray:
    """Pruned twin of :func:`repro.kernels.membership.
    batch_window_membership` — identical signature plus ``prune_counters``
    (the ``prune.*`` accounting bundle), ``tile_size`` (classification
    tile width, defaulting to ``block_size``) and ``product_bounds``
    (precomputed product chunk AABBs).  Bit-identical output for every
    parameter combination."""
    prods, custs, q, positions = _prepare(
        products, customers, query, self_positions, block_size, dims=dims,
    )
    m = custs.shape[0]
    n = prods.shape[0]
    members = np.empty(m, dtype=bool)
    if m == 0:
        return members
    if n == 0:
        members[:] = True
        return members
    tile = int(tile_size) if tile_size is not None else int(block_size)
    if tile < 1:
        raise InvalidParameterError("tile_size must be a positive integer")
    plo, phi = _chunk_bounds(prods, tile, product_bounds, dims)
    nchunks = plo.shape[0]
    for start in range(0, m, tile):
        block = custs[start : start + tile]
        b = block.shape[0]
        sp = positions[start : start + b] if positions is not None else None
        labels = classify_pairs(
            block.min(axis=0)[None],
            block.max(axis=0)[None],
            plo,
            phi,
            q,
            rtol=rtol,
        )[0]
        if prune_counters is not None:
            prune_counters.pairs_total.inc(nchunks)
        resolved_blocked = False
        for ci in np.flatnonzero(labels == PAIR_BLOCKED):
            if _blocked_chunk_safe(int(ci), tile, n, sp):
                resolved_blocked = True
                break
        if resolved_blocked:
            members[start : start + b] = False
            if prune_counters is not None:
                prune_counters.tiles_all_blocked.inc()
                prune_counters.pairs_blocked.inc(nchunks)
            continue
        refine = np.flatnonzero(labels != PAIR_SKIP)
        if prune_counters is not None:
            prune_counters.pairs_skipped.inc(nchunks - refine.size)
            prune_counters.pairs_refined.inc(refine.size)
        if refine.size == 0:
            members[start : start + b] = True
            if prune_counters is not None:
                prune_counters.tiles_skipped.inc()
            continue
        members[start : start + b] = _membership_refine(
            prods, block, q, policy, rtol, sp, tile, refine, counters,
            box=rtol == 0.0 and dims is None,
        )
    return members


def batch_lambda_counts_pruned(
    products: np.ndarray,
    customers: np.ndarray,
    query: Sequence[float],
    policy: DominancePolicy = DominancePolicy.WEAK,
    self_positions: np.ndarray | None = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
    counters: KernelCounters | None = None,
    prune_counters: PruneCounters | None = None,
    tile_size: int | None = None,
    product_bounds: tuple[np.ndarray, np.ndarray] | None = None,
    dims: np.ndarray | None = None,
) -> np.ndarray:
    """Pruned twin of :func:`repro.kernels.membership.batch_lambda_counts`.

    Counting needs exact values for every pair that can intersect a
    window, so only *skip* pairs are elided; *all-blocked* pairs are
    computed exactly (and accounted as refined) — the label proves the
    count is ``b * rows`` but not which rows survive self-exclusion, and
    the exact chunk pass is as cheap as that proof."""
    prods, custs, q, positions = _prepare(
        products, customers, query, self_positions, block_size, dims=dims,
    )
    m = custs.shape[0]
    counts = np.zeros(m, dtype=np.int64)
    if m == 0 or prods.shape[0] == 0:
        return counts
    tile = int(tile_size) if tile_size is not None else int(block_size)
    if tile < 1:
        raise InvalidParameterError("tile_size must be a positive integer")
    plo, phi = _chunk_bounds(prods, tile, product_bounds, dims)
    nchunks = plo.shape[0]
    for start in range(0, m, tile):
        block = custs[start : start + tile]
        b = block.shape[0]
        sp = positions[start : start + b] if positions is not None else None
        labels = classify_pairs(
            block.min(axis=0)[None],
            block.max(axis=0)[None],
            plo,
            phi,
            q,
            rtol=0.0,
        )[0]
        refine = np.flatnonzero(labels != PAIR_SKIP)
        if prune_counters is not None:
            prune_counters.pairs_total.inc(nchunks)
            prune_counters.pairs_skipped.inc(nchunks - refine.size)
            prune_counters.pairs_refined.inc(refine.size)
        if refine.size == 0:
            if prune_counters is not None:
                prune_counters.tiles_skipped.inc()
            continue  # counts stay zero: no product enters any window
        lo, hi = _window_bounds(block, q, rtol=0.0)
        acc = np.zeros(b, dtype=np.int64)
        for k in range(refine.size):
            pstart = int(refine[k]) * tile
            pc = prods[pstart : pstart + tile]
            blocking = _blocking_matrix(
                pc, block, lo, hi, policy, box=dims is None
            )
            _clear_self_entries(blocking, sp, pstart)
            acc += blocking.sum(axis=1)
            if counters is not None:
                counters.product_chunks.inc()
        if counters is not None:
            counters.tiles.inc()
            counters.customers_evaluated.inc(b)
        counts[start : start + b] = acc
    return counts


def batch_verify_membership_pruned(
    products: np.ndarray,
    customers: np.ndarray,
    query: Sequence[float],
    policy: DominancePolicy = DominancePolicy.STRICT,
    self_positions: np.ndarray | None = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
    rtol: float = _VERIFY_RTOL,
    counters: KernelCounters | None = None,
    prune_counters: PruneCounters | None = None,
    tile_size: int | None = None,
    product_bounds: tuple[np.ndarray, np.ndarray] | None = None,
    dims: np.ndarray | None = None,
) -> np.ndarray:
    """Pruned twin of :func:`repro.kernels.membership.
    batch_verify_membership` — the classifier widens its thresholds by an
    upper bound of the per-customer ``rtol`` slack, so tolerance-aware
    verification prunes soundly too."""
    return batch_window_membership_pruned(
        products,
        customers,
        query,
        policy,
        self_positions=self_positions,
        block_size=block_size,
        rtol=rtol,
        counters=counters,
        prune_counters=prune_counters,
        tile_size=tile_size,
        product_bounds=product_bounds,
        dims=dims,
    )
