"""The asyncio why-not service: epoch-pinned reads, one writer task.

:class:`WhyNotService` is the serving-layer composition root.  It owns

* a **read path** — admission control → snapshot lease → (optionally
  coalesced) kernel dispatch on a thread executor → deterministic
  serialisation.  Every read runs under a
  :class:`~repro.store.lease.SnapshotLease`, so the dataset generation
  it pins is the generation every plan in the request executes against;
* a **writer task** — the single consumer of the mutation queue.  Each
  batch drains outstanding leases (blocking new ones, so readers cannot
  starve the writer), applies the mutations under the engine's write
  gate, publishes the new epoch and re-pins the service session (each
  engine mutator clears the engine's plan cache);
* the **serve.`*`** metrics, registered on the engine's own registry so
  the existing Prometheus exporter renders everything in one scrape.

The service never blocks the event loop: NumPy work runs in a dedicated
:class:`~concurrent.futures.ThreadPoolExecutor`, and the two blocking
lease operations (contended ``acquire``, writer ``drain``) run in the
default executor so saturated kernel threads cannot deadlock admission.
Responses are bit-identical to direct engine calls — the benchmark and
the CLI experiment verify that end to end.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import TYPE_CHECKING, Any, Awaitable, Callable, Sequence

import numpy as np

from repro.core.batch import answer_why_not, answer_why_not_batch
from repro.exceptions import InvalidParameterError, StaleSessionError
from repro.obs.exporters import to_prometheus
from repro.prefs.model import PreferenceModel
from repro.serve.admission import (
    AdmissionController,
    DeadlineError,
    QueueFullError,
    ShedError,
)
from repro.serve.coalesce import Coalescer
from repro.serve.config import ServeConfig
from repro.serve.serialize import (
    serialize_answer,
    serialize_explanation,
    serialize_safe_region,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import WhyNotEngine
    from repro.store.lease import SnapshotLease

__all__ = ["MUTATION_OPS", "StaleEpochError", "WhyNotService"]

#: Engine mutators the service accepts over the mutation queue.
MUTATION_OPS = (
    "insert_products",
    "delete_products",
    "update_products",
    "insert_customers",
    "delete_customers",
    "update_customers",
)

_LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0,
)
_BATCH_BUCKETS = (1, 2, 4, 8, 16, 32, 64)


class StaleEpochError(ShedError):
    """A read kept racing mutations past its retry budget (HTTP 503).

    Should not occur under the lease protocol — leases block the writer
    while reads are in flight — but the service degrades to a retryable
    refusal rather than a 500 if it ever does.
    """

    status = 503
    reason = "stale_epoch"

    def __init__(self, exc: StaleSessionError) -> None:
        super().__init__(str(exc))
        self.pinned_epoch = exc.pinned_epoch
        self.current_epoch = exc.current_epoch

    def payload(self) -> dict:
        body = super().payload()
        body["pinned_epoch"] = self.pinned_epoch
        body["current_epoch"] = self.current_epoch
        return body


def _freeze_why_not(why_not: Any) -> "int | tuple":
    """A hashable, batchable form of one why-not reference."""
    if isinstance(why_not, (int, np.integer)):
        return int(why_not)
    return tuple(float(v) for v in np.asarray(why_not, dtype=np.float64))


def _freeze_weights(weights: Any) -> "tuple | None":
    """A hashable form of a request's preference weights."""
    if weights is None:
        return None
    return tuple(float(v) for v in np.asarray(weights, dtype=np.float64))


class WhyNotService:
    """Concurrent serving facade over one :class:`WhyNotEngine`.

    The service takes ownership of the engine: :meth:`stop` closes it
    (satellite lifecycle contract).  Construction makes the engine's
    metrics registry thread-safe; :meth:`start` must run inside the
    event loop that will serve requests.
    """

    def __init__(
        self, engine: "WhyNotEngine", config: "ServeConfig | None" = None
    ) -> None:
        self.engine = engine
        self.config = config or ServeConfig()
        engine.enable_thread_safety()
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.executor_threads,
            thread_name_prefix="repro-serve",
        )
        self._running = False
        self._loop: "asyncio.AbstractEventLoop | None" = None
        self._mutations: "asyncio.Queue | None" = None
        self._writer_task: "asyncio.Task | None" = None
        self.admission: "AdmissionController | None" = None
        self.coalescer: "Coalescer | None" = None
        self._install_metrics()

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def _install_metrics(self) -> None:
        obs = self.engine.obs
        self.m_requests = obs.counter(
            "serve.requests", "read requests received"
        )
        self.m_completed = obs.counter(
            "serve.completed", "read requests answered"
        )
        self.m_errors = obs.counter(
            "serve.errors", "read requests failed with a non-shed error"
        )
        self.m_coalesced = obs.counter(
            "serve.coalesced", "requests folded into an existing batch"
        )
        self.m_batches = obs.counter(
            "serve.batches", "coalesced kernel dispatches"
        )
        self.m_shed_queue = obs.counter(
            "serve.shed_queue", "requests refused with a full queue (429)"
        )
        self.m_shed_deadline = obs.counter(
            "serve.shed_deadline", "requests shed past their deadline (503)"
        )
        self.m_stale_retries = obs.counter(
            "serve.stale_retries", "reads retried after a stale epoch"
        )
        self.m_mutations = obs.counter(
            "serve.mutations", "mutations applied by the writer task"
        )
        self.m_drains = obs.counter(
            "serve.drains", "writer drain cycles completed"
        )
        self.m_drained_leases = obs.counter(
            "serve.drained_leases", "read leases waited out by drains"
        )
        self.g_queue_depth = obs.gauge(
            "serve.queue_depth", "requests waiting for admission"
        )
        self.g_inflight = obs.gauge(
            "serve.inflight", "requests past admission, not yet answered"
        )
        self.g_epoch = obs.gauge(
            "serve.epoch", "dataset epoch the writer last published"
        )
        self.g_epoch.set(self.engine.dataset_epoch)
        self.h_latency = {
            surface: obs.histogram(
                f"serve.latency_{surface}",
                f"end-to-end seconds of served {surface} requests",
                buckets=_LATENCY_BUCKETS,
            )
            for surface in ("why_not", "safe_region", "explain")
        }
        self.h_batch_size = obs.histogram(
            "serve.batch_size", "why-not requests per kernel dispatch",
            buckets=_BATCH_BUCKETS,
        )

    def _on_batch(self, size: int) -> None:
        self.m_batches.inc()
        if size > 1:
            self.m_coalesced.inc(size - 1)
        self.h_batch_size.observe(size)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._running

    async def start(self) -> "WhyNotService":
        """Bind to the running loop and launch the writer task."""
        if self._running:
            return self
        self._loop = asyncio.get_running_loop()
        self._mutations = asyncio.Queue()
        self.admission = AdmissionController(
            self.config.max_inflight,
            self.config.max_queue,
            queue_depth_gauge=self.g_queue_depth,
            inflight_gauge=self.g_inflight,
        )
        self.coalescer = Coalescer(
            self._dispatch_batch,
            window_s=self.config.coalesce_window_s,
            max_batch=self.config.max_batch,
            on_batch=self._on_batch,
        )
        self._running = True
        self._writer_task = self._loop.create_task(self._writer_loop())
        return self

    async def stop(self) -> None:
        """Stop the writer, tear down the executor, close the engine."""
        if self._running:
            self._running = False
            assert self._mutations is not None
            await self._mutations.put(None)
            if self._writer_task is not None:
                await self._writer_task
                self._writer_task = None
        self._executor.shutdown(wait=True)
        self.engine.close()

    async def __aenter__(self) -> "WhyNotService":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def _resolve_prefs(self, weights: Any) -> "PreferenceModel":
        """Validate request weights into a preference model *before*
        admission, so a malformed vector is a structured 400 and never
        occupies an execution slot (``None`` = the engine default)."""
        if weights is None:
            return self.engine.prefs
        return PreferenceModel.resolve(
            weights, self.engine.config.policy, self.engine.dim
        )

    async def why_not(
        self,
        why_not: "int | Sequence[float]",
        query: Sequence[float],
        approximate: bool = False,
        k: int = 10,
        deadline_s: "float | None" = None,
        weights: "Sequence[float] | None" = None,
    ) -> dict:
        """Serve one composite why-not answer (coalesced when enabled)."""
        q = np.asarray(query, dtype=np.float64)
        frozen = _freeze_why_not(why_not)
        prefs_fp = self._resolve_prefs(weights).fingerprint()
        frozen_w = _freeze_weights(weights)

        async def run(lease: "SnapshotLease") -> dict:
            if self.config.coalesce:
                # Keyed on the preference fingerprint (plus the raw
                # vector the dispatch re-threads): requests differing
                # only in weights never share a batch.
                key = (
                    lease.epoch,
                    q.tobytes(),
                    bool(approximate),
                    int(k),
                    prefs_fp,
                    frozen_w,
                )
                assert self.coalescer is not None
                return await self.coalescer.submit(key, frozen)

            def work() -> dict:
                return serialize_answer(
                    answer_why_not(
                        self.engine,
                        frozen,
                        q,
                        approximate=approximate,
                        k=k,
                        weights=frozen_w,
                    )
                )

            return await self._in_executor(work)

        return await self._serve("why_not", run, deadline_s)

    async def safe_region(
        self,
        query: Sequence[float],
        approximate: bool = False,
        k: int = 10,
        deadline_s: "float | None" = None,
        weights: "Sequence[float] | None" = None,
    ) -> dict:
        """Serve ``SR(q)`` through ``engine.prepare`` (plan-cached)."""
        q = np.asarray(query, dtype=np.float64)
        self._resolve_prefs(weights)
        frozen_w = _freeze_weights(weights)

        async def run(lease: "SnapshotLease") -> dict:
            def work() -> dict:
                prepared = self.engine.prepare(
                    "safe_region", q, approximate=approximate, k=k,
                    weights=frozen_w,
                )
                return serialize_safe_region(prepared.execute())

            return await self._in_executor(work)

        return await self._serve("safe_region", run, deadline_s)

    async def explain(
        self,
        why_not: "int | Sequence[float]",
        query: Sequence[float],
        deadline_s: "float | None" = None,
        weights: "Sequence[float] | None" = None,
    ) -> dict:
        """Serve the Λ explanation through ``engine.prepare``."""
        q = np.asarray(query, dtype=np.float64)
        frozen = _freeze_why_not(why_not)
        self._resolve_prefs(weights)
        frozen_w = _freeze_weights(weights)

        async def run(lease: "SnapshotLease") -> dict:
            def work() -> dict:
                prepared = self.engine.prepare(
                    "explain", frozen, q, weights=frozen_w
                )
                return serialize_explanation(prepared.execute())

            return await self._in_executor(work)

        return await self._serve("explain", run, deadline_s)

    async def _serve(
        self,
        surface: str,
        run: "Callable[[SnapshotLease], Awaitable[dict]]",
        deadline_s: "float | None",
    ) -> dict:
        if not self._running:
            raise RuntimeError("service is not running; call start() first")
        assert self.admission is not None
        loop = asyncio.get_running_loop()
        started = loop.time()
        deadline = started + (
            deadline_s if deadline_s is not None
            else self.config.default_deadline_s
        )
        self.m_requests.inc()
        try:
            async with self.admission.slot(deadline):
                attempts = self.config.stale_retries + 1
                for attempt in range(attempts):
                    lease = await self._acquire_lease(deadline)
                    try:
                        result = await run(lease)
                    except StaleSessionError as exc:
                        self.m_stale_retries.inc()
                        if attempt + 1 >= attempts:
                            raise StaleEpochError(exc) from exc
                        continue
                    finally:
                        lease.release()
                    self.h_latency[surface].observe(loop.time() - started)
                    self.m_completed.inc()
                    return {
                        "epoch": lease.epoch,
                        "surface": surface,
                        "result": result,
                    }
                raise AssertionError("unreachable: retry loop exhausted")
        except QueueFullError:
            self.m_shed_queue.inc()
            raise
        except (DeadlineError, StaleEpochError):
            self.m_shed_deadline.inc()
            raise
        except ShedError:
            raise
        except Exception:
            self.m_errors.inc()
            raise

    async def _acquire_lease(self, deadline: float) -> "SnapshotLease":
        """A snapshot lease, without blocking the event loop.

        Uncontended acquisition is a non-blocking fast path; while a
        writer drains, the wait moves to the *default* executor (not the
        kernel executor — saturated kernel threads must not be able to
        deadlock lease admission)."""
        leases = self.engine.leases
        try:
            return leases.acquire(timeout=0.0)
        except TimeoutError:
            pass
        loop = asyncio.get_running_loop()
        remaining = deadline - loop.time()
        if remaining <= 0:
            raise DeadlineError("deadline expired waiting for the writer")
        try:
            return await loop.run_in_executor(
                None, partial(leases.acquire, timeout=remaining)
            )
        except TimeoutError:
            raise DeadlineError(
                "writer drain outlasted the request deadline"
            ) from None

    async def _in_executor(self, fn: Callable[[], Any]) -> Any:
        assert self._loop is not None
        return await self._loop.run_in_executor(self._executor, fn)

    async def _dispatch_batch(self, key: tuple, payloads: list) -> list:
        """Coalescer dispatch: one batched call for the group, answered
        and serialized in the executor (the loop thread only routes)."""
        epoch, query_bytes, approximate, k, _prefs_fp, frozen_w = key
        q = np.frombuffer(query_bytes, dtype=np.float64)

        def work() -> list:
            answers = answer_why_not_batch(
                self.engine,
                list(payloads),
                q,
                approximate=approximate,
                k=k,
                weights=frozen_w,
            )
            return [serialize_answer(answer) for answer in answers]

        return await self._in_executor(work)

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    async def mutate(self, op: str, **payload) -> dict:
        """Queue one mutation for the writer task; resolves once it has
        been applied and the new epoch published."""
        if op not in MUTATION_OPS:
            raise InvalidParameterError(
                f"unknown mutation op {op!r}; expected one of "
                f"{', '.join(MUTATION_OPS)}"
            )
        if not self._running:
            raise RuntimeError("service is not running; call start() first")
        assert self._loop is not None and self._mutations is not None
        future: asyncio.Future = self._loop.create_future()
        await self._mutations.put((op, payload, future))
        return await future

    async def _writer_loop(self) -> None:
        assert self._mutations is not None
        loop = asyncio.get_running_loop()
        while True:
            item = await self._mutations.get()
            if item is None:
                if not self._running:
                    break
                continue
            batch = [item]
            while True:  # fold every already-queued mutation into the drain
                try:
                    nxt = self._mutations.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if nxt is None:
                    continue  # stop sentinel; the running flag decides
                batch.append(nxt)
            ops = [(op, payload) for op, payload, _ in batch]
            try:
                outcomes = await loop.run_in_executor(
                    None, partial(self._apply_batch, ops)
                )
            except Exception as exc:  # drain timeout fails the whole batch
                for _, _, future in batch:
                    if not future.done():
                        future.set_exception(exc)
                continue
            for (_, _, future), (ok, value) in zip(batch, outcomes):
                if future.done():
                    continue
                if ok:
                    future.set_result(value)
                else:
                    future.set_exception(value)
            if not self._running and self._mutations.empty():
                break

    def _apply_batch(self, ops: list) -> list:
        """One drain cycle: runs in a worker thread, never on the loop."""
        engine = self.engine
        drained_before = engine.leases.drained_leases_total
        outcomes: list = []
        with engine.leases.drain(timeout=self.config.drain_timeout_s):
            for op, payload in ops:
                try:
                    value = getattr(engine, op)(**payload)
                    self.m_mutations.inc()
                    outcomes.append(
                        (
                            True,
                            {
                                "op": op,
                                "epoch": engine.dataset_epoch,
                                "result": np.asarray(value).tolist(),
                            },
                        )
                    )
                except Exception as exc:  # noqa: BLE001 - per-op failure
                    outcomes.append((False, exc))
        self.m_drains.inc()
        self.m_drained_leases.inc(
            engine.leases.drained_leases_total - drained_before
        )
        self.g_epoch.set(engine.dataset_epoch)
        return outcomes

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def metrics_text(self) -> str:
        """The full registry (engine + serve) in Prometheus text format."""
        return to_prometheus(self.engine.obs.metrics)

    def health(self) -> dict:
        return {
            "status": "ok" if self._running else "stopped",
            "epoch": self.engine.dataset_epoch,
            "published_epoch": self.engine.leases.published_epoch,
            "inflight": 0 if self.admission is None else self.admission.inflight,
            "queue_depth": 0 if self.admission is None else self.admission.waiting,
            "leases": self.engine.leases.active,
        }

    def __repr__(self) -> str:
        state = "running" if self._running else "stopped"
        return f"WhyNotService({state}, epoch={self.engine.dataset_epoch})"
