"""Request coalescing: fold concurrent identical-context requests into
one batched kernel dispatch.

``answer_why_not_batch`` amortises the safe-region construction and the
blocked membership kernel across every why-not question that shares a
query — exactly the shape a serving workload produces when many clients
ask about the same query point.  The :class:`Coalescer` exploits that
without any cross-request state: the first request for a batch key
opens a micro-batch whose dispatch task runs a loop tick later, so
every request submitted in the same tick joins it; a positive
``window_s`` holds the batch open that much longer.  The batch
dispatches once, and every member gets its own answer back.

The key is opaque to the coalescer.  The service keys batches by
``(epoch, query bytes, approximate, k)`` so members are guaranteed to
share a dataset generation and batch semantics — two requests that
could not legally share a kernel call never share a batch.

All bookkeeping runs on the event loop (no locks); only the dispatch
callable may block, and the service runs it in the thread executor.
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable, Hashable

__all__ = ["Coalescer"]

Dispatch = Callable[[Hashable, list], Awaitable[list]]


class _Batch:
    __slots__ = ("key", "items", "closed", "wake")

    def __init__(self, key: Hashable) -> None:
        self.key = key
        self.items: list[tuple[Any, asyncio.Future]] = []
        self.closed = False
        self.wake = asyncio.Event()


class Coalescer:
    """Micro-batching front for an async batch dispatcher.

    Parameters
    ----------
    dispatch:
        ``async (key, payloads) -> results`` returning one result per
        payload, in order.  An exception fails every member of the
        batch.
    window_s:
        Extra wait for companions beyond the opener's loop tick.
    max_batch:
        Flush immediately once this many members joined.
    on_batch:
        Optional callback ``(batch_size) -> None`` invoked per dispatch
        (the service feeds its ``serve.batches`` / ``serve.coalesced``
        counters and batch-size histogram from it).
    """

    def __init__(
        self,
        dispatch: Dispatch,
        window_s: float = 0.0,
        max_batch: int = 32,
        on_batch: "Callable[[int], None] | None" = None,
    ) -> None:
        self._dispatch = dispatch
        self.window_s = float(window_s)
        self.max_batch = int(max_batch)
        self._on_batch = on_batch
        self._pending: dict[Hashable, _Batch] = {}

    @property
    def pending_batches(self) -> int:
        return len(self._pending)

    async def submit(self, key: Hashable, payload: Any) -> Any:
        """Join (or open) the batch for ``key``; returns this payload's
        result once the batch has dispatched."""
        batch = self._pending.get(key)
        if batch is None or batch.closed:
            batch = _Batch(key)
            self._pending[key] = batch
            asyncio.get_running_loop().create_task(self._run(batch))
        future = asyncio.get_running_loop().create_future()
        batch.items.append((payload, future))
        if len(batch.items) >= self.max_batch:
            batch.closed = True
            batch.wake.set()
        return await future

    async def _run(self, batch: _Batch) -> None:
        try:
            if self.window_s > 0:
                try:
                    await asyncio.wait_for(batch.wake.wait(), self.window_s)
                except asyncio.TimeoutError:
                    pass
            batch.closed = True
            if self._pending.get(batch.key) is batch:
                del self._pending[batch.key]
            payloads = [payload for payload, _ in batch.items]
            if self._on_batch is not None:
                self._on_batch(len(payloads))
            results = await self._dispatch(batch.key, payloads)
            if len(results) != len(payloads):  # defensive: dispatcher bug
                raise RuntimeError(
                    f"dispatch returned {len(results)} results for "
                    f"{len(payloads)} payloads"
                )
            for (_, future), result in zip(batch.items, results):
                if not future.done():
                    future.set_result(result)
        except Exception as exc:  # noqa: BLE001 - fan the failure out
            if self._pending.get(batch.key) is batch:
                del self._pending[batch.key]
            for _, future in batch.items:
                if not future.done():
                    future.set_exception(exc)
