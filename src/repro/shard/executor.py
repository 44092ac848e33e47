"""Fan-out/merge driver of the sharded kernels.

A :class:`ShardExecutor` is built once per (dataset epoch, shard
config) pair, holds the partition and — for the process backend — the
lazily started worker pool plus the shared-memory copies of both
matrices, and answers the three sharded calls the operators dispatch:

* :meth:`membership_rows` / :meth:`membership_points` — disjoint-union
  mask merge;
* :meth:`safe_region_fold` — region-intersection merge of per-shard
  partial folds.

``backend="serial"`` runs the identical task functions in-process in
shard order; it is the deterministic oracle the process backend is
property-tested against, and the two produce the same bits because the
worker code path is shared (:mod:`repro.shard._worker`).
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext

import numpy as np

from repro.config import DominancePolicy
from repro.exceptions import InvalidParameterError
from repro.kernels.parallel import available_cpus
from repro.shard import _worker
from repro.shard.partition import partition_matrix, shard_assignment
from repro.shard.sharedmem import SharedMatrix
from repro.shard.stats import ShardStats

__all__ = ["ShardExecutor"]

BACKENDS = ("process", "serial")


def _mp_context():
    """Prefer ``fork`` (no module re-import, instant start); fall back
    to the platform default elsewhere."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else None
    )


class ShardExecutor:
    """Partitioned execution of the batch kernels over fixed matrices.

    Parameters
    ----------
    products, customers:
        The matrices the kernels read.  ``customers=None`` is the
        monochromatic convention: customers are the product matrix and
        only one shared-memory segment is published.
    shards:
        Number of partitions (≥ 1).  The pool runs
        ``min(shards, available_cpus())`` workers; extra shards queue.
    backend:
        ``"process"`` (ProcessPoolExecutor over shared memory) or
        ``"serial"`` (same tasks in-process, deterministic oracle).
    prune, prune_tile_size:
        When ``prune`` is true, the membership tasks run the
        filter-refinement kernels of :mod:`repro.kernels.pruned` inside
        each worker, over a per-process product-summary cache (pruning
        and fan-out stack).  Bit-identical either way.
    kernel_counters, prune_counters:
        Parent-side counter bundles (the engine's ``kernels.*`` /
        ``prune.*`` sources).  With telemetry on, every worker's local
        counter deltas are added to them on merge, so fanned-out
        requests account exactly like single-process ones.
    telemetry:
        When true, task payloads ask workers to collect local kernel /
        prune counters and ship snapshots home with each result (see
        :mod:`repro.shard._worker`); merged totals land on
        :attr:`worker_totals`, the parent bundles, and — when ``obs``
        is given — ``shard.worker.<family>.<field>`` registry counters.
        ``None`` (default) auto-enables exactly when there is a place
        to merge into: a counter bundle or an enabled obs bundle.
    """

    def __init__(
        self,
        products: np.ndarray,
        customers: np.ndarray | None = None,
        *,
        shards: int,
        backend: str = "process",
        block_size: int = 512,
        prune: bool = False,
        prune_tile_size: int | None = None,
        obs=None,
        stats: ShardStats | None = None,
        kernel_counters=None,
        prune_counters=None,
        telemetry: bool | None = None,
    ):
        if shards < 1:
            raise InvalidParameterError("shards must be a positive integer")
        if backend not in BACKENDS:
            raise InvalidParameterError(
                f"unknown shard backend {backend!r}; one of {BACKENDS}"
            )
        # One contiguous float64 copy up front: serial and process
        # backends then read the exact same bits.
        self._products = np.ascontiguousarray(products, dtype=np.float64)
        self._mono = customers is None
        self._customers = (
            self._products
            if self._mono
            else np.ascontiguousarray(customers, dtype=np.float64)
        )
        self.shards = int(shards)
        self.backend = backend
        self.block_size = int(block_size)
        self.prune = bool(prune)
        self.prune_tile_size = (
            int(prune_tile_size)
            if prune_tile_size is not None
            else self.block_size
        )
        self.stats = stats if stats is not None else ShardStats()
        self._obs = obs
        self._kernel_counters = kernel_counters
        self._prune_counters = prune_counters
        if telemetry is None:
            telemetry = (
                kernel_counters is not None
                or prune_counters is not None
                or bool(getattr(obs, "enabled", False))
            )
        self.telemetry = bool(telemetry)
        #: Lifetime worker-counter totals merged by this executor,
        #: ``{"kernels": {field: int}, "prune": {field: int}}``.
        self.worker_totals: dict[str, dict[str, int]] = {
            "kernels": {},
            "prune": {},
        }
        self._customer_parts = partition_matrix(self._customers, self.shards)
        self._shard_of = shard_assignment(
            self._customer_parts, self._customers.shape[0]
        )
        self._pool: ProcessPoolExecutor | None = None
        self._segments: list[SharedMatrix] = []
        self._closed = False

    # -- pool lifecycle -------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._closed:
            raise InvalidParameterError("shard executor is closed")
        if self._pool is None:
            shared_products = SharedMatrix(self._products)
            self._segments.append(shared_products)
            customer_spec = None
            if not self._mono:
                shared_customers = SharedMatrix(self._customers)
                self._segments.append(shared_customers)
                customer_spec = shared_customers.spec
            self._pool = ProcessPoolExecutor(
                max_workers=max(1, min(self.shards, available_cpus())),
                mp_context=_mp_context(),
                initializer=_worker.init_worker,
                initargs=(shared_products.spec, customer_spec),
            )
            self.stats.pool_starts += 1
            self.stats.bytes_shared += sum(s.nbytes for s in self._segments)
        return self._pool

    def close(self) -> None:
        """Shut the pool down and unlink the shared segments
        (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        for segment in self._segments:
            segment.close()
        self._segments = []

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- dispatch -------------------------------------------------------

    def _span(self, op: str, live: int):
        if self._obs is None:
            return nullcontext()
        return self._obs.span(
            "engine.shard",
            op=op,
            shards=self.shards,
            live=live,
            backend=self.backend,
        )

    def _dispatch(self, kind: str, payloads: list[dict | None], op: str):
        """Run one payload per shard (``None`` = empty shard, skipped)
        and return the results in shard order (``None`` kept in place).
        With telemetry on, tasks return ``(result, snapshots)``; the
        snapshots are merged here and the bare results returned, so the
        per-call merge code never sees the tuple shape.  With no live
        shard nothing is dispatched and no fan-out is counted, so
        ``merged == fanouts`` always holds."""
        live = sum(1 for p in payloads if p is not None)
        results: list = [None] * len(payloads)
        if not live:
            return results
        with self._span(op, live):
            self.stats.fanouts += 1
            if self.backend == "serial":
                arrays = (self._products, self._customers)
                for i, payload in enumerate(payloads):
                    if payload is not None:
                        results[i] = _worker.run_task(kind, payload, arrays)
                        self.stats.dispatched += 1
            else:
                pool = self._ensure_pool()
                futures = {
                    i: pool.submit(_worker.pool_task, kind, payload)
                    for i, payload in enumerate(payloads)
                    if payload is not None
                }
                self.stats.dispatched += len(futures)
                for i, future in futures.items():
                    results[i] = future.result()
            if self.telemetry:
                for i, result in enumerate(results):
                    if result is None:
                        continue
                    results[i], snapshots = result
                    self._merge_worker(snapshots)
            self.stats.merged += 1
        return results

    def _merge_worker(self, snapshots: dict) -> None:
        """Fold one worker's counter snapshots into the parent side:
        :attr:`worker_totals`, the engine bundles, and (when obs is
        attached) the ``shard.worker.<family>.<field>`` counters."""
        if not snapshots:
            return
        metrics = getattr(self._obs, "metrics", None)
        bundles = {
            "kernels": self._kernel_counters,
            "prune": self._prune_counters,
        }
        for family, fields in snapshots.items():
            totals = self.worker_totals.setdefault(family, {})
            bundle = bundles.get(family)
            for field, value in fields.items():
                if not value:
                    continue
                totals[field] = totals.get(field, 0) + value
                if bundle is not None:
                    getattr(bundle, field).inc(value)
                if metrics is not None:
                    metrics.counter(
                        f"shard.worker.{family}.{field}",
                        f"worker-merged {family} counter {field}",
                    ).inc(value)
        self.stats.worker_merges += 1

    def _base_payload(self, policy, **extra) -> dict:
        payload = {
            "policy": DominancePolicy(policy).value,
            "block_size": self.block_size,
            "prune": self.prune,
            "prune_tile_size": self.prune_tile_size,
            "telemetry": self.telemetry,
        }
        payload.update(extra)
        return payload

    # -- sharded calls --------------------------------------------------

    def membership_rows(
        self,
        rows: np.ndarray,
        query: np.ndarray,
        policy,
        *,
        self_positions: np.ndarray | None = None,
        rtol: float = 0.0,
        dims: np.ndarray | None = None,
    ) -> np.ndarray:
        """Membership mask of the given customer rows (scatter by the
        customer partition, disjoint-union merge)."""
        rows = np.asarray(rows, dtype=np.int64)
        sp = (
            None
            if self_positions is None
            else np.asarray(self_positions, dtype=np.int64)
        )
        owner = self._shard_of[rows] if rows.size else rows
        payloads: list[dict | None] = []
        locals_: list[np.ndarray | None] = []
        for shard_id in range(self.shards):
            local = np.flatnonzero(owner == shard_id)
            if local.size == 0:
                payloads.append(None)
                locals_.append(None)
                continue
            payloads.append(
                self._base_payload(
                    policy,
                    rows=rows[local],
                    query=query,
                    self_positions=None if sp is None else sp[local],
                    rtol=rtol,
                    dims=dims,
                )
            )
            locals_.append(local)
        results = self._dispatch("membership_rows", payloads, "membership")
        out = np.zeros(rows.shape[0], dtype=bool)
        for local, result in zip(locals_, results):
            if local is not None:
                out[local] = result
        return out

    def membership_points(
        self,
        points: np.ndarray,
        query: np.ndarray,
        policy,
        *,
        self_positions: np.ndarray | None = None,
        rtol: float = 0.0,
        dims: np.ndarray | None = None,
    ) -> np.ndarray:
        """Membership mask of shipped probe points (contiguous split,
        concatenation merge)."""
        points = np.ascontiguousarray(points, dtype=np.float64)
        sp = (
            None
            if self_positions is None
            else np.asarray(self_positions, dtype=np.int64)
        )
        splits = np.array_split(np.arange(points.shape[0]), self.shards)
        payloads: list[dict | None] = [
            None
            if idx.size == 0
            else self._base_payload(
                policy,
                points=points[idx],
                query=query,
                self_positions=None if sp is None else sp[idx],
                rtol=rtol,
                dims=dims,
            )
            for idx in splits
        ]
        results = self._dispatch("membership_points", payloads, "membership")
        kept = [r for r in results if r is not None]
        if not kept:
            return np.zeros(points.shape[0], dtype=bool)
        return np.concatenate(kept)

    def safe_region_fold(
        self,
        rows: np.ndarray,
        bounds_lo: np.ndarray,
        bounds_hi: np.ndarray,
        sort_dim: int,
        *,
        self_exclude: bool,
        weights: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, dict]:
        """Intersect the anti-dominance regions of the given members,
        sharded: each shard folds a contiguous slice of the member list
        exactly like the sequential fold, and the partial regions are
        intersected pairwise.  Returns ``(lo, hi, info)`` box arrays of
        the final maximal set plus merged fold counters.
        """
        from repro.geometry import region_array as _ra

        rows = np.asarray(rows, dtype=np.int64)
        dim = self._products.shape[1]
        splits = np.array_split(rows, self.shards)
        payloads: list[dict | None] = [
            None
            if part.size == 0
            else {
                "rows": part,
                "bounds_lo": np.asarray(bounds_lo, dtype=np.float64),
                "bounds_hi": np.asarray(bounds_hi, dtype=np.float64),
                "sort_dim": int(sort_dim),
                "self_exclude": bool(self_exclude),
                "weights": None
                if weights is None
                else np.asarray(weights, dtype=np.float64),
                "telemetry": self.telemetry,
            }
            for part in splits
        ]
        results = self._dispatch("safe_region_chunk", payloads, "safe_region")
        partials = [r for r in results if r is not None]
        info = {
            "members": 0,
            "intersections": 0,
            "boxes_before_simplify": 0,
            "boxes_after_simplify": 0,
            "peak_boxes": 1,
            "early_exit": False,
        }
        if not partials:
            # No members: the safe region is the whole universe.
            return (
                np.asarray(bounds_lo, dtype=np.float64).reshape(1, dim),
                np.asarray(bounds_hi, dtype=np.float64).reshape(1, dim),
                info,
            )
        for partial in partials:
            info["members"] += partial["members"]
            info["intersections"] += partial["intersections"]
            info["boxes_before_simplify"] += partial["boxes_before_simplify"]
            info["boxes_after_simplify"] += partial["boxes_after_simplify"]
            info["peak_boxes"] = max(
                info["peak_boxes"], partial["peak_boxes"]
            )
            info["early_exit"] = info["early_exit"] or partial["early_exit"]
        run_lo, run_hi = partials[0]["lo"], partials[0]["hi"]
        for partial in partials[1:]:
            if run_lo.shape[0] == 0:
                break
            piece_lo, piece_hi = _ra.pairwise_intersect(
                run_lo, run_hi, partial["lo"], partial["hi"]
            )
            info["intersections"] += 1
            info["boxes_before_simplify"] += piece_lo.shape[0]
            run_lo, run_hi = _ra.simplify_arrays(piece_lo, piece_hi)
            info["boxes_after_simplify"] += run_lo.shape[0]
            info["peak_boxes"] = max(info["peak_boxes"], run_lo.shape[0])
        return run_lo, run_hi, info
