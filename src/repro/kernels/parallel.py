"""Chunked parallel mapping for per-customer pre-computation.

The offline passes of the paper — sampled-DSL pre-computation (Section
VI.B.1) and exact anti-dominance-region assembly (Algorithm 3) — are
embarrassingly parallel over customers.  This module provides the one
shared helper: map a function over items in contiguous chunks on a
``concurrent.futures`` thread pool, preserving input order.

Threads (not processes) are deliberate: the per-item work is NumPy-heavy
(ufunc inner loops release the GIL), the spatial indexes are not cheaply
picklable, and results flow straight into caller-owned caches without
serialisation.  ``n_jobs == 1`` short-circuits to a plain loop so the
sequential path stays the oracle.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

from repro.exceptions import InvalidParameterError

__all__ = ["available_cpus", "resolve_n_jobs", "parallel_map_chunks"]

T = TypeVar("T")
R = TypeVar("R")

_CPU_CACHE: int | None = None


def available_cpus(refresh: bool = False) -> int:
    """CPUs this process may actually run on, memoized per process.

    ``os.cpu_count()`` reports the machine, not the process: under CPU
    affinity masks or container cgroup limits it oversubscribes workers
    badly.  ``sched_getaffinity`` reflects both (Linux); platforms
    without it fall back to the machine count.

    The answer is cached after the first call, so every caller of
    :func:`resolve_n_jobs` sees one stable number.  Pass
    ``refresh=True`` after changing the process affinity.
    """
    global _CPU_CACHE
    if _CPU_CACHE is None or refresh:
        count = None
        getaffinity = getattr(os, "sched_getaffinity", None)
        if getaffinity is not None:
            try:
                count = len(getaffinity(0))
            except OSError:  # pragma: no cover - exotic platforms
                count = None
        if count is None:
            count = os.cpu_count() or 1
        _CPU_CACHE = max(1, count)
    return _CPU_CACHE


def resolve_n_jobs(n_jobs: int) -> int:
    """Concrete worker count: ``-1`` means one per *available* CPU
    (affinity/cgroup aware, see :func:`available_cpus`), otherwise >= 1."""
    if n_jobs == -1:
        return available_cpus()
    if n_jobs < 1:
        raise InvalidParameterError(
            f"n_jobs must be a positive integer or -1, got {n_jobs}"
        )
    return n_jobs


def parallel_map_chunks(
    fn: Callable[[T], R],
    items: Sequence[T],
    n_jobs: int = 1,
    chunk_size: int | None = None,
) -> list[R]:
    """``[fn(x) for x in items]`` evaluated in contiguous parallel chunks.

    Results are returned in input order regardless of completion order.
    ``chunk_size`` defaults to an even split over the workers (at least
    one item per chunk); larger chunks amortise executor overhead, smaller
    ones balance skewed per-item costs.
    """
    workers = resolve_n_jobs(n_jobs)
    items = list(items)
    if workers == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    if chunk_size is None:
        chunk_size = max(1, -(-len(items) // (workers * 4)))
    elif chunk_size < 1:
        raise InvalidParameterError("chunk_size must be a positive integer")
    chunks = [
        items[start : start + chunk_size]
        for start in range(0, len(items), chunk_size)
    ]

    def run_chunk(chunk: list[T]) -> list[R]:
        return [fn(item) for item in chunk]

    with ThreadPoolExecutor(max_workers=workers) as pool:
        results = pool.map(run_chunk, chunks)
        return [r for chunk_result in results for r in chunk_result]
