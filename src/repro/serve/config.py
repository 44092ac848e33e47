"""Serving-layer configuration.

:class:`ServeConfig` is the serve-side sibling of
:class:`~repro.config.WhyNotConfig`: a frozen, validated dataclass so a
service's admission, coalescing and drain knobs are fixed at
construction and visible in ``repr``.  Everything defaults to values
that behave on a small machine; benchmarks and tests override per run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import InvalidParameterError

__all__ = ["ServeConfig"]


@dataclass(frozen=True)
class ServeConfig:
    """Knobs of one :class:`~repro.serve.service.WhyNotService`.

    Attributes
    ----------
    max_inflight:
        Requests allowed past admission concurrently; the rest queue.
    max_queue:
        Requests allowed to *wait* for admission; arrivals beyond this
        are shed immediately with a 429-style refusal.
    default_deadline_s:
        Per-request deadline when the caller supplies none; a request
        still queued (or waiting on a writer drain) past its deadline is
        shed with a 503-style refusal instead of deadlocking.
    coalesce:
        Fold concurrent why-not requests for the same (epoch, query,
        approximate, k) into one ``answer_why_not_batch`` call.
    coalesce_window_s:
        How long the first request of a batch waits for companions
        beyond its own event-loop tick (``0.0``: no wait).
    max_batch:
        Batch size that triggers an immediate flush before the window
        elapses.
    executor_threads:
        Worker threads running the NumPy kernels (the asyncio loop never
        blocks on them).
    drain_timeout_s:
        How long the writer waits for outstanding read leases before a
        mutation batch fails.
    stale_retries:
        Times a read is retried under a fresh lease after a
        :class:`~repro.exceptions.StaleSessionError` (should not happen
        under the lease protocol; kept as a safety valve).
    host / port:
        Bind address of the optional HTTP front; port 0 picks an
        ephemeral port.
    """

    max_inflight: int = 8
    max_queue: int = 64
    default_deadline_s: float = 10.0
    coalesce: bool = True
    coalesce_window_s: float = 0.0
    max_batch: int = 32
    executor_threads: int = 2
    drain_timeout_s: float = 30.0
    stale_retries: int = 1
    host: str = "127.0.0.1"
    port: int = 0

    def __post_init__(self) -> None:
        if self.max_inflight < 1:
            raise InvalidParameterError("max_inflight must be >= 1")
        if self.max_queue < 0:
            raise InvalidParameterError("max_queue must be >= 0")
        if self.default_deadline_s <= 0:
            raise InvalidParameterError("default_deadline_s must be > 0")
        if self.coalesce_window_s < 0:
            raise InvalidParameterError("coalesce_window_s must be >= 0")
        if self.max_batch < 1:
            raise InvalidParameterError("max_batch must be >= 1")
        if self.executor_threads < 1:
            raise InvalidParameterError("executor_threads must be >= 1")
        if self.drain_timeout_s <= 0:
            raise InvalidParameterError("drain_timeout_s must be > 0")
        if self.stale_retries < 0:
            raise InvalidParameterError("stale_retries must be >= 0")
        if not 0 <= self.port <= 65535:
            raise InvalidParameterError("port must be in [0, 65535]")
