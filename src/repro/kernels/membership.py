"""Blocked batch kernels for the Dellis-Seeger membership test.

One customer's membership in ``RSL(q)`` is a window-emptiness test: no
product may be (weakly/strictly) closer to the customer than the query in
every dimension.  The per-customer implementation in
:mod:`repro.skyline.window` issues one index query per customer; the
kernels here evaluate the same predicate for an ``(m, d)`` customer matrix
against the ``(n, d)`` product matrix in one broadcasted pass.

Memory model: customers are processed in tiles of ``block_size`` rows,
products in chunks of the same width, and the dimension axis is
accumulated in a loop, so the live intermediates are
``O(block_size ** 2)`` booleans/floats — never the full ``(m, n, d)``
tensor.  The membership sweep additionally drops customers from a tile as
soon as any product chunk blocks them (an existential test is
order-independent), which collapses the typical cost from ``O(m * n)`` to
little more than one chunk per customer.  ``block_size`` trades peak
memory for fewer NumPy dispatches; any value yields bit-identical results
(property-tested against the per-customer oracle).

Boundary semantics match :func:`repro.skyline.window.window_query_indices`
exactly when ``rtol == 0`` and
:func:`repro.core._verify.verify_membership` when ``rtol`` is the
verification tolerance: the slack scales with the coordinate magnitude of
each customer/query pair, forgiving 1-ulp boundary flips.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.config import DominancePolicy
from repro.exceptions import InvalidParameterError
from repro.geometry.point import as_point, as_points
from repro.obs.metrics import Counter

__all__ = [
    "AUTO_BLOCK_BYTES",
    "DEFAULT_BLOCK_SIZE",
    "KernelCounters",
    "auto_block_size",
    "batch_window_membership",
    "batch_lambda_counts",
    "batch_lambda_sets",
    "batch_verify_membership",
    "resolve_block_size",
]

DEFAULT_BLOCK_SIZE = 512

# Target working set of one (tile, chunk) sweep step; ~4 MiB sits inside
# every L2/L3 budget this code meets while keeping NumPy dispatch
# overhead amortised over large operands.
AUTO_BLOCK_BYTES = 4 << 20

_VERIFY_RTOL = 1e-12  # Mirrors repro.core._verify.VERIFY_RTOL.


def auto_block_size(dim: int) -> int:
    """Block width for ``kernel_block_size=None``: the largest power of
    two whose per-step working set fits :data:`AUTO_BLOCK_BYTES`.

    One sweep step materialises, per (tile, chunk) cell: the ``dd``
    distance matrix (8 bytes), two boolean accumulators plus the
    comparison temporary (3 bytes), and for each dimension beyond the
    accumulator pair roughly two more transient bytes — ``11 + 2 *
    max(0, d - 2)`` bytes per cell.  The result is clamped to
    ``[128, 2048]`` and rounded *down* to a power of two; block size
    never changes results (property-tested), only the memory/dispatch
    trade."""
    if dim < 1:
        raise InvalidParameterError("dim must be a positive integer")
    per_cell = 11 + 2 * max(0, int(dim) - 2)
    width = int(float(AUTO_BLOCK_BYTES / per_cell) ** 0.5)
    return min(2048, 1 << max(7, width.bit_length() - 1))


def resolve_block_size(block_size: int | None, dim: int) -> int:
    """``block_size`` if given, else the :func:`auto_block_size`
    heuristic for ``dim`` — the single resolution point used by the
    engine and the planner."""
    if block_size is None:
        return auto_block_size(dim)
    return int(block_size)


class KernelCounters:
    """Live counters of the blocked membership sweeps.

    The engine creates one bundle when tracing is on, attaches the
    counters to its registry under ``kernels.*`` names, and passes it to
    every kernel call; ``None`` (the default everywhere) keeps the hot
    loops counter-free.  Counting never changes results — it only makes
    the pruning behaviour (tiles, chunks touched, early exits)
    observable.

    Attributes
    ----------
    tiles:
        Customer tiles processed.
    product_chunks:
        Blocking-matrix evaluations, i.e. (tile, product-chunk) pairs
        actually materialised — the unit of kernel work.
    early_exits:
        Tiles fully resolved before scanning every product chunk.
    customers_evaluated:
        Customer rows entering a sweep.
    customers_pruned:
        Customers dropped by the early-exit compaction (found blocked
        before the product scan finished).
    """

    __slots__ = (
        "tiles",
        "product_chunks",
        "early_exits",
        "customers_evaluated",
        "customers_pruned",
    )

    def __init__(self) -> None:
        self.tiles = Counter("tiles")
        self.product_chunks = Counter("product_chunks")
        self.early_exits = Counter("early_exits")
        self.customers_evaluated = Counter("customers_evaluated")
        self.customers_pruned = Counter("customers_pruned")

    def counters(self) -> dict[str, Counter]:
        return {name: getattr(self, name) for name in self.__slots__}

    def snapshot(self) -> dict[str, int]:
        return {name: int(getattr(self, name).value) for name in self.__slots__}


def _prepare(
    products: np.ndarray,
    customers: np.ndarray,
    query: Sequence[float],
    self_positions: np.ndarray | None,
    block_size: int,
    dims: np.ndarray | None = None,
    row_queries: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """Validated ``(products, customers, query, self_positions)``.

    ``query`` is one ``(d,)`` point, or with ``row_queries`` also an
    ``(m, d)`` matrix holding one query per customer row."""
    if block_size < 1:
        raise InvalidParameterError("block_size must be a positive integer")
    if row_queries and np.ndim(query) == 2:
        q = as_points(query, dim=np.shape(query)[1])
    else:
        q = as_point(query)
    dim = q.shape[-1]
    prods = as_points(products, dim=dim)
    custs = as_points(customers, dim=dim)
    if q.ndim == 2 and q.shape[0] != custs.shape[0]:
        raise InvalidParameterError(
            "a query matrix must have one row per customer, got "
            f"{q.shape[0]} queries for {custs.shape[0]} customers"
        )
    if dims is not None:
        # Preference-support projection (see repro.prefs): the window test
        # runs over the support columns only.  Copies keep the sweep's
        # column reads contiguous.
        sel = np.asarray(dims, dtype=np.int64)
        if sel.ndim != 1 or sel.size == 0 or (
            sel.size and (sel.min() < 0 or sel.max() >= dim)
        ):
            raise InvalidParameterError(
                f"dims must be a non-empty 1-d array of valid column "
                f"positions for dimension {dim}"
            )
        q = q[..., sel]
        prods = np.ascontiguousarray(prods[:, sel])
        custs = np.ascontiguousarray(custs[:, sel])
    positions = None
    if self_positions is not None:
        positions = np.asarray(self_positions, dtype=np.int64)
        if positions.shape != (custs.shape[0],):
            raise InvalidParameterError(
                "self_positions must have one entry per customer, "
                f"got shape {positions.shape} for {custs.shape[0]} customers"
            )
        if positions.size and (
            positions.min() < -1 or positions.max() >= prods.shape[0]
        ):
            raise InvalidParameterError(
                "self_positions entries must be -1 or valid product positions"
            )
    return prods, custs, q, positions


def _window_bounds(
    block: np.ndarray, q: np.ndarray, rtol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-customer ``(lo, hi)`` window thresholds, slack-adjusted.

    A product blocks a customer when its per-dimension distance is
    strictly below ``lo`` everywhere (STRICT), or weakly below ``hi``
    everywhere and strictly below ``lo`` somewhere (WEAK).  With
    ``rtol == 0`` both bounds are the exact window radii.  ``q`` is one
    ``(d,)`` query or a ``(b, d)`` matrix of per-row queries.
    """
    radii = np.abs(block - q)  # (b, d)
    if rtol > 0.0:
        scale = np.maximum(
            1.0,
            np.maximum(np.abs(block).max(axis=1), np.abs(q).max(axis=-1)),
        )
        slack = (rtol * scale)[:, None]  # (b, 1)
        return radii - slack, radii + slack
    return radii, radii


def _blocking_matrix(
    prods: np.ndarray,
    block: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    policy: DominancePolicy,
    box: bool = False,
) -> np.ndarray:
    """``(b, n)`` boolean matrix: does product ``i`` block customer ``j``?

    The dimension axis is folded in a Python loop (``d`` is small) through
    one distance and one comparison buffer (fresh temporaries per
    dimension cost more in page faults than in arithmetic).  ``box``
    (WEAK, exact bounds) also applies the closed window box ``c ± r`` the
    index filters by, as :func:`repro.skyline.window.window_query_indices`
    does: in floats it can drop a product whose distance ties ``r``.
    STRICT needs no box: ``fl(|p - c|) < r`` puts ``p`` inside it.
    """
    b, dim = block.shape
    n = prods.shape[0]
    dd = np.empty((b, n))
    hit = np.empty((b, n), dtype=bool)
    if policy is DominancePolicy.STRICT:
        blocking = np.ones((b, n), dtype=bool)
        for d in range(dim):
            np.abs(np.subtract(block[:, d, None], prods[None, :, d], out=dd), out=dd)
            blocking &= np.less(dd, lo[:, d, None], out=hit)
        return blocking
    all_le = np.ones((b, n), dtype=bool)
    any_lt = np.zeros((b, n), dtype=bool)
    for d in range(dim):
        col = prods[None, :, d]
        np.abs(np.subtract(block[:, d, None], col, out=dd), out=dd)
        all_le &= np.less_equal(dd, hi[:, d, None], out=hit)
        any_lt |= np.less(dd, lo[:, d, None], out=hit)
        if box:
            all_le &= np.greater_equal(col, block[:, d, None] - hi[:, d, None], out=hit)
            all_le &= np.less_equal(col, block[:, d, None] + hi[:, d, None], out=hit)
    all_le &= any_lt
    return all_le


def _clear_self_entries(
    blocking: np.ndarray, sp: np.ndarray | None, product_start: int
) -> None:
    """Clear the self-exclusion entry of each row whose excluded product
    falls inside the current product chunk.  ``sp`` holds absolute product
    positions (-1 for none), one per row of ``blocking``."""
    if sp is None:
        return
    local = sp - product_start
    rows = np.flatnonzero((local >= 0) & (local < blocking.shape[1]))
    if rows.size:
        blocking[rows, local[rows]] = False


def _membership_block(
    prods: np.ndarray,
    block: np.ndarray,
    q: np.ndarray,
    policy: DominancePolicy,
    rtol: float,
    sp: np.ndarray | None,
    chunk: int,
    counters: KernelCounters | None = None,
    box: bool = False,
) -> np.ndarray:
    """Membership vector for one customer tile, chunked over products with
    early-exit compaction.

    Membership is an existential test — one blocker anywhere disqualifies
    a customer — so customers already blocked by an earlier product chunk
    are dropped from later ones.  On realistic data most customers are
    blocked within the first chunk, collapsing the effective work from
    ``O(b * n)`` to roughly ``O(b * chunk)`` plus a short tail, while the
    outcome stays bit-identical (blocker existence is order-independent).
    """
    b = block.shape[0]
    n = prods.shape[0]
    lo, hi = _window_bounds(block, q, rtol)
    alive = np.arange(b, dtype=np.int64)
    exhausted = True
    for start in range(0, n, chunk):
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
            exhausted = start + chunk >= n
            break
    if counters is not None:
        counters.tiles.inc()
        counters.customers_evaluated.inc(b)
        if not exhausted:
            counters.early_exits.inc()
    members = np.zeros(b, dtype=bool)
    members[alive] = True
    return members


def batch_window_membership(
    products: np.ndarray,
    customers: np.ndarray,
    query: Sequence[float],
    policy: DominancePolicy = DominancePolicy.WEAK,
    self_positions: np.ndarray | None = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
    rtol: float = 0.0,
    counters: KernelCounters | None = None,
    dims: np.ndarray | None = None,
) -> np.ndarray:
    """``(m,)`` boolean vector: is each customer in ``RSL(query)``?

    Parameters
    ----------
    products, customers:
        ``(n, d)`` product and ``(m, d)`` customer matrices.
    query:
        The reverse-skyline query point ``q``, or an ``(m, d)`` matrix
        with one query per customer row (row ``j`` asks whether
        ``customers[j]`` is in ``RSL(query[j])``).
    policy:
        Dominance policy of the window test (see DESIGN.md §2).
    self_positions:
        Optional ``(m,)`` int array giving, per customer row, the product
        row excluded from its own window (monochromatic self-exclusion);
        ``-1`` means no exclusion.  Supports verifying an arbitrary
        candidate subset: pass ``customers[cand]`` with
        ``self_positions=cand``.
    block_size:
        Customer tile and product chunk width; bounds peak memory at
        ``O(block_size ** 2)``.
    rtol:
        Relative boundary tolerance.  ``0`` reproduces the exact window
        test of :func:`repro.skyline.window.window_is_empty`; the
        verification tolerance reproduces
        :func:`repro.core._verify.verify_membership`.
    counters:
        Optional :class:`KernelCounters` incremented in place (tiles,
        chunks, early exits); ``None`` skips all accounting.
    dims:
        Optional int64 column positions restricting the test to the
        preference-support subspace (:mod:`repro.prefs`); ``None`` is the
        full-dimensional historical path.
    """
    prods, custs, q, positions = _prepare(
        products, customers, query, self_positions, block_size, dims=dims,
        row_queries=True,
    )
    m = custs.shape[0]
    members = np.empty(m, dtype=bool)
    if m == 0:
        return members
    if prods.shape[0] == 0:
        members[:] = True
        return members
    for start in range(0, m, block_size):
        block = custs[start : start + block_size]
        sp = positions[start : start + block.shape[0]] if positions is not None else None
        qb = q[start : start + block.shape[0]] if q.ndim == 2 else q
        members[start : start + block.shape[0]] = _membership_block(
            prods, block, qb, policy, rtol, sp, chunk=block_size,
            counters=counters, box=rtol == 0.0 and dims is None,
        )
    return members


def batch_lambda_counts(
    products: np.ndarray,
    customers: np.ndarray,
    query: Sequence[float],
    policy: DominancePolicy = DominancePolicy.WEAK,
    self_positions: np.ndarray | None = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
    counters: KernelCounters | None = None,
    dims: np.ndarray | None = None,
) -> np.ndarray:
    """``(m,)`` int64 vector of ``|Λ|`` per customer.

    ``Λ`` is the paper's first-aspect explanation — the products inside
    each customer's window (Lemma 1); a zero count is exactly membership.
    Influence-style workloads (how many customers does each product
    block?) are bulk sweeps of these counts.
    """
    prods, custs, q, positions = _prepare(
        products, customers, query, self_positions, block_size, dims=dims,
    )
    m = custs.shape[0]
    counts = np.zeros(m, dtype=np.int64)
    if m == 0 or prods.shape[0] == 0:
        return counts
    for start in range(0, m, block_size):
        block = custs[start : start + block_size]
        sp = positions[start : start + block.shape[0]] if positions is not None else None
        lo, hi = _window_bounds(block, q, rtol=0.0)
        # Counting cannot short-circuit, but chunking the product axis
        # keeps the live intermediates at O(block_size^2) all the same.
        acc = np.zeros(block.shape[0], dtype=np.int64)
        for pstart in range(0, prods.shape[0], block_size):
            pc = prods[pstart : pstart + block_size]
            blocking = _blocking_matrix(
                pc, block, lo, hi, policy, box=dims is None
            )
            _clear_self_entries(blocking, sp, pstart)
            acc += blocking.sum(axis=1)
            if counters is not None:
                counters.product_chunks.inc()
        if counters is not None:
            counters.tiles.inc()
            counters.customers_evaluated.inc(block.shape[0])
        counts[start : start + block.shape[0]] = acc
    return counts


def batch_lambda_sets(
    products: np.ndarray,
    centers: np.ndarray,
    queries: np.ndarray,
    policy: DominancePolicy = DominancePolicy.WEAK,
    self_positions: np.ndarray | None = None,
    dims: np.ndarray | None = None,
    counters: KernelCounters | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``Λ`` of every ``(centers[j], queries[j])`` row in one pass, as
    CSR ``(offsets, positions)``.

    Row ``j``'s set is ``positions[offsets[j]:offsets[j + 1]]``,
    ascending, and equals :func:`repro.skyline.window.
    window_query_indices` over ``products`` with ``self_positions[j]``
    (``-1``: none) excluded; ``queries`` is one ``(d,)`` point or one row
    per center.  The (rows × products) chunks are sized from
    :data:`AUTO_BLOCK_BYTES`, so a few rows scan even ten thousand
    products in one blocking matrix.
    """
    prods, cents, q, positions = _prepare(
        products, centers, queries, self_positions, 1, dims=dims,
        row_queries=True,
    )
    m, n = cents.shape[0], prods.shape[0]
    offsets = np.zeros(m + 1, dtype=np.int64)
    if m == 0 or n == 0:
        return offsets, np.empty(0, dtype=np.int64)
    dim = cents.shape[1]
    tile = min(m, auto_block_size(dim))
    chunk = max(tile, AUTO_BLOCK_BYTES // ((11 + 2 * max(0, dim - 2)) * tile))
    rows, cols = [], []
    for start in range(0, m, tile):
        block = cents[start : start + tile]
        stop = start + block.shape[0]
        sp = positions[start:stop] if positions is not None else None
        lo, hi = _window_bounds(block, q[start:stop] if q.ndim == 2 else q, 0.0)
        for pstart in range(0, n, chunk):
            blocking = _blocking_matrix(
                prods[pstart : pstart + chunk], block, lo, hi, policy,
                box=dims is None,
            )
            _clear_self_entries(blocking, sp, pstart)
            r, c = np.nonzero(blocking)
            rows.append(r + start)
            cols.append(c + pstart)
            if counters is not None:
                counters.product_chunks.inc()
        if counters is not None:
            counters.tiles.inc()
            counters.customers_evaluated.inc(block.shape[0])
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    if n > chunk:
        # Chunks arrive product-major: a stable sort by row keeps each
        # row's positions ascending.
        cols = cols[np.argsort(rows, kind="stable")]
    np.cumsum(np.bincount(rows, minlength=m), out=offsets[1:])
    return offsets, cols


def batch_verify_membership(
    products: np.ndarray,
    customers: np.ndarray,
    query: Sequence[float],
    policy: DominancePolicy = DominancePolicy.STRICT,
    self_positions: np.ndarray | None = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
    rtol: float = _VERIFY_RTOL,
    counters: KernelCounters | None = None,
    dims: np.ndarray | None = None,
) -> np.ndarray:
    """Tolerance-aware batch membership, matching
    :func:`repro.core._verify.verify_membership` bit-for-bit.

    Used by the bulk lost-customer and MQP-scoring sweeps and by the
    candidate verification of Algorithms 1, 2 and 4, where answers sit
    exactly on window boundaries and the exact test is one rounding
    error away from flipping.  ``query`` may be an ``(m, d)`` matrix of
    per-row queries, so MQP/MWQ rows (fixed customer, moved query) and
    MWP rows (moved customer, fixed query) of many questions verify in
    one call: row ``j`` equals ``verify_membership(customers[j],
    query[j])`` with ``self_positions[j]`` excluded.
    """
    return batch_window_membership(
        products,
        customers,
        query,
        policy,
        self_positions=self_positions,
        block_size=block_size,
        rtol=rtol,
        counters=counters,
        dims=dims,
    )
