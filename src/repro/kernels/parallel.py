"""The CPU count this process may run on.

Per-customer pre-computation runs sequentially: on NumPy calls this
short a thread pool did not pay (EXPERIMENTS.md, "Parallel execution").
The served benchmark reads :func:`available_cpus` to record the host it
measured on.
"""

from __future__ import annotations

import os

__all__ = ["available_cpus"]

_CPU_CACHE: int | None = None


def available_cpus(refresh: bool = False) -> int:
    """CPUs this process may actually run on, memoized per process.

    ``os.cpu_count()`` reports the machine, not the process: under CPU
    affinity masks or container cgroup limits it overstates the count.
    ``sched_getaffinity`` reflects both (Linux); platforms without it
    fall back to the machine count.

    The answer is cached after the first call.  Pass ``refresh=True``
    after changing the process affinity.
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
