"""Worker-side shard tasks.

Every task is a top-level picklable function ``(products, customers,
payload) -> result`` over the *full* matrices; the payload carries only
row positions, the query and scalar knobs.  The same functions run in
three places:

* in a ``ProcessPoolExecutor`` worker, where :func:`init_worker`
  attached the matrices from shared memory once per process
  (:func:`pool_task` looks them up);
* in-process through :func:`run_task` (the ``"serial"`` backend — the
  deterministic oracle the process backend is property-tested against);
* in tests, directly.

The kernel calls are exactly the single-process ones, applied to a row
subset — which is why the merged results are bit-identical:
each customer's membership/count depends only on its own row, the
products and the query.

Telemetry: when the payload carries ``"telemetry": True``, each task
threads fresh local :class:`~repro.kernels.membership.KernelCounters`
(and, when pruning, :class:`~repro.prune.counters.PruneCounters`)
through its kernel call and returns ``(result, counter_snapshots)``
instead of the bare result — counters cannot cross the process
boundary live, so their deltas ride home with the result and the
parent :class:`~repro.shard.executor.ShardExecutor` merges them.
Without the flag, the historical bare-result contract holds and the
kernel hot loops stay counter-free.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.config import DominancePolicy
from repro.kernels.membership import KernelCounters, batch_window_membership
from repro.kernels.pruned import batch_window_membership_pruned
from repro.prune.classify import tile_bounds
from repro.prune.counters import PruneCounters
from repro.shard.sharedmem import MatrixSpec, attach_matrix

__all__ = ["init_worker", "pool_task", "run_task"]

#: Process-local attachment state: matrices plus the SharedMemory
#: handles that must stay alive while the views are used.
_STATE: dict = {}

#: Per-process product-summary cache for the pruned tasks: chunk AABBs
#: of the (immutable within one executor generation) product matrix,
#: keyed by (id(matrix), tile_size) with a weakref guard so a recycled
#: id after a matrix is garbage-collected can never serve stale bounds.
_SUMMARIES: dict = {}


def _product_summary(
    products: np.ndarray, tile_size: int
) -> tuple[np.ndarray, np.ndarray]:
    key = (id(products), int(tile_size))
    entry = _SUMMARIES.get(key)
    if entry is not None:
        ref, bounds = entry
        if ref() is products:
            return bounds
    bounds = tile_bounds(products, int(tile_size))
    try:
        ref = weakref.ref(products)
    except TypeError:  # pragma: no cover - non-weakrefable view
        return bounds
    if len(_SUMMARIES) > 8:
        _SUMMARIES.clear()
    _SUMMARIES[key] = (ref, bounds)
    return bounds


def _prune_args(products: np.ndarray, payload: dict) -> dict | None:
    """Pruned-kernel keyword arguments, or ``None`` for the plain path.
    Payloads built by older callers carry no ``prune`` key (off)."""
    if not payload.get("prune"):
        return None
    tile = int(payload.get("prune_tile_size") or payload["block_size"])
    return {
        "tile_size": tile,
        "product_bounds": _product_summary(products, tile),
    }


def _task_counters(
    payload: dict,
) -> tuple[KernelCounters | None, PruneCounters | None]:
    """Fresh per-task counter bundles when the payload asks for
    telemetry (``None, None`` keeps the hot loops counter-free)."""
    if not payload.get("telemetry"):
        return None, None
    prune_counters = PruneCounters() if payload.get("prune") else None
    return KernelCounters(), prune_counters


def _wrap(result, kernel_counters, prune_counters):
    """Attach counter snapshots to a telemetry-mode result."""
    if kernel_counters is None:
        return result
    snapshots = {"kernels": kernel_counters.snapshot()}
    if prune_counters is not None:
        snapshots["prune"] = prune_counters.snapshot()
    return result, snapshots


def init_worker(
    product_spec: MatrixSpec, customer_spec: MatrixSpec | None
) -> None:
    """Pool initializer: attach the published matrices once per worker.
    ``customer_spec=None`` is the monochromatic convention (customers
    are the product matrix)."""
    products, p_shm = attach_matrix(product_spec)
    handles = [p_shm]
    if customer_spec is None:
        customers = products
    else:
        customers, c_shm = attach_matrix(customer_spec)
        handles.append(c_shm)
    _STATE["products"] = products
    _STATE["customers"] = customers
    _STATE["handles"] = handles


def _policy(payload: dict) -> DominancePolicy:
    return DominancePolicy(payload["policy"])


def _dims(payload: dict) -> np.ndarray | None:
    """Preference-support dimensions (``None`` = full support; payloads
    built by older callers carry no ``dims`` key)."""
    return payload.get("dims")


def membership_rows(
    products: np.ndarray, customers: np.ndarray, payload: dict
) -> np.ndarray:
    """Membership/verification mask for one customer-row shard."""
    rows = payload["rows"]
    pruned = _prune_args(products, payload)
    kernel_counters, prune_counters = _task_counters(payload)
    if pruned is not None:
        result = batch_window_membership_pruned(
            products,
            customers[rows],
            payload["query"],
            _policy(payload),
            self_positions=payload["self_positions"],
            block_size=payload["block_size"],
            rtol=payload["rtol"],
            counters=kernel_counters,
            prune_counters=prune_counters,
            dims=_dims(payload),
            **pruned,
        )
    else:
        result = batch_window_membership(
            products,
            customers[rows],
            payload["query"],
            _policy(payload),
            self_positions=payload["self_positions"],
            block_size=payload["block_size"],
            rtol=payload["rtol"],
            counters=kernel_counters,
            dims=_dims(payload),
        )
    return _wrap(result, kernel_counters, prune_counters)


def membership_points(
    products: np.ndarray, customers: np.ndarray, payload: dict
) -> np.ndarray:
    """Membership/verification mask for a shipped probe-point block."""
    pruned = _prune_args(products, payload)
    kernel_counters, prune_counters = _task_counters(payload)
    if pruned is not None:
        result = batch_window_membership_pruned(
            products,
            payload["points"],
            payload["query"],
            _policy(payload),
            self_positions=payload["self_positions"],
            block_size=payload["block_size"],
            rtol=payload["rtol"],
            counters=kernel_counters,
            prune_counters=prune_counters,
            dims=_dims(payload),
            **pruned,
        )
    else:
        result = batch_window_membership(
            products,
            payload["points"],
            payload["query"],
            _policy(payload),
            self_positions=payload["self_positions"],
            block_size=payload["block_size"],
            rtol=payload["rtol"],
            counters=kernel_counters,
            dims=_dims(payload),
        )
    return _wrap(result, kernel_counters, prune_counters)


def safe_region_chunk(
    products: np.ndarray, customers: np.ndarray, payload: dict
) -> dict:
    """Fold one shard's members into a partial safe-region intersection.

    Mirrors the sequential fold of :func:`repro.core.safe_region.
    compute_safe_region` — same staircase construction, same
    ``SR_CHUNK_SIZE`` chunking with a size-ascending fold and the
    empty-region early exit — over this shard's member subset only.
    The parent intersects the partials; the final set of maximal boxes
    is order-invariant, so the merged region equals the sequential one.
    """
    # Imported lazily: repro.core pulls in the engine (and the plan
    # layer), which this module must not load before it is itself fully
    # importable from the plan operators.
    from repro.core.safe_region import _member_chunks, staircase_boxes
    from repro.geometry import region_array as _ra
    from repro.geometry.box import Box
    from repro.geometry.transform import to_query_space
    from repro.prefs.model import support_dims
    from repro.skyline.dynamic import dynamic_skyline_indices

    dim = products.shape[1]
    bounds = Box(payload["bounds_lo"], payload["bounds_hi"])
    sort_dim = int(payload["sort_dim"])
    self_exclude = bool(payload["self_exclude"])
    weights = payload.get("weights")
    dims = support_dims(weights, dim)
    run_lo, run_hi = _ra.boxes_to_arrays(
        [Box(bounds.lo.copy(), bounds.hi.copy())], dim
    )
    intersections = before_simplify = after_simplify = 0
    peak_boxes = 1
    early_exit = False
    for chunk in _member_chunks(payload["rows"]):
        regions = []
        for position in chunk:
            origin = customers[position]
            exclude = (int(position),) if self_exclude else ()
            dsl = dynamic_skyline_indices(
                products, origin, exclude, weights=weights
            )
            thresholds = (
                to_query_space(products[dsl], origin)
                if dsl.size
                else np.empty((0, dim))
            )
            lo, hi = _ra.boxes_to_arrays(
                staircase_boxes(
                    origin, thresholds, bounds, sort_dim, dims=dims
                ),
                dim,
            )
            regions.append(_ra.simplify_arrays(lo, hi))
        order = sorted(
            range(len(regions)), key=lambda i: (regions[i][0].shape[0], i)
        )
        for i in order:
            member_lo, member_hi = regions[i]
            piece_lo, piece_hi = _ra.pairwise_intersect(
                run_lo, run_hi, member_lo, member_hi
            )
            intersections += 1
            before_simplify += piece_lo.shape[0]
            run_lo, run_hi = _ra.simplify_arrays(piece_lo, piece_hi)
            after_simplify += run_lo.shape[0]
            peak_boxes = max(peak_boxes, run_lo.shape[0])
            if run_lo.shape[0] == 0:
                early_exit = True
                break
        if early_exit:
            break
    result = {
        "lo": run_lo,
        "hi": run_hi,
        "members": len(payload["rows"]),
        "intersections": intersections,
        "boxes_before_simplify": before_simplify,
        "boxes_after_simplify": after_simplify,
        "peak_boxes": peak_boxes,
        "early_exit": early_exit,
    }
    # The fold runs no kernels; a uniform (result, {}) shape keeps the
    # executor's telemetry unpacking task-agnostic.
    if payload.get("telemetry"):
        return result, {}
    return result


_TASKS = {
    "membership_rows": membership_rows,
    "membership_points": membership_points,
    "safe_region_chunk": safe_region_chunk,
}


def run_task(kind: str, payload: dict, arrays: tuple) -> object:
    """Execute one shard task against explicitly supplied matrices
    (the serial backend and unit tests)."""
    products, customers = arrays
    return _TASKS[kind](products, customers, payload)


def pool_task(kind: str, payload: dict) -> object:
    """Execute one shard task against the process-local attached
    matrices (the process backend)."""
    return _TASKS[kind](_STATE["products"], _STATE["customers"], payload)
