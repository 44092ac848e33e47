"""A re-entrant single-writer / multi-reader gate for the engine.

The serving layer runs many epoch-pinned readers concurrently in a
thread executor while one writer task advances the store.  Plan
execution mutates engine-owned state (result caches, counters, the plan
cache), so the engine needs an explicit concurrency contract rather
than "the GIL probably saves us": any number of readers may execute
plans at once, but a mutation excludes every reader for the duration of
its commit + cache maintenance.

:class:`ReadWriteGate` is writer-preferring (arriving readers queue
behind a waiting writer, so a steady read stream cannot starve the
writer) and re-entrant per thread in both directions:

* a reader surface that executes nested plans (``mqp_total_cost`` runs
  ``safe_region`` and ``reverse_skyline`` internally) re-enters the
  read side without deadlocking;
* a thread holding the write side passes straight through ``read()``,
  so code running under a mutation may call read surfaces.

The gate is deliberately engine-internal plumbing: the serve layer's
request-granular coordination (a whole multi-plan request excluding the
writer) is the :class:`repro.store.lease.LeaseRegistry`'s job; this
gate only makes each individual plan execution and each mutation
atomic with respect to one another.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

__all__ = ["ReadWriteGate"]


class ReadWriteGate:
    """Writer-preferring, per-thread re-entrant readers/writer lock."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._active_readers = 0
        self._writer: "int | None" = None  # thread id holding the write side
        self._writer_depth = 0
        self._writers_waiting = 0
        self._local = threading.local()

    # ------------------------------------------------------------------
    # Introspection (used by tests and the serve health endpoint)
    # ------------------------------------------------------------------
    @property
    def active_readers(self) -> int:
        return self._active_readers

    @property
    def write_held(self) -> bool:
        return self._writer is not None

    def _read_depth(self) -> int:
        return getattr(self._local, "read_depth", 0)

    @contextmanager
    def read(self):
        """Shared access; blocks while a writer holds or awaits the gate
        (unless this thread already holds either side)."""
        ident = threading.get_ident()
        if self._writer == ident or self._read_depth() > 0:
            # Re-entrant: the thread already has access; don't touch the
            # shared counts (release order stays balanced per thread).
            self._local.read_depth = self._read_depth() + 1
            try:
                yield self
            finally:
                self._local.read_depth -= 1
            return
        with self._cond:
            while self._writer is not None or self._writers_waiting:
                self._cond.wait()
            self._active_readers += 1
        self._local.read_depth = 1
        try:
            yield self
        finally:
            self._local.read_depth = 0
            with self._cond:
                self._active_readers -= 1
                if self._active_readers == 0:
                    self._cond.notify_all()

    @contextmanager
    def write(self):
        """Exclusive access; waits for active readers to drain, blocks
        new ones meanwhile.  Re-entrant for the holding thread."""
        ident = threading.get_ident()
        if self._writer == ident:
            self._writer_depth += 1
            try:
                yield self
            finally:
                self._writer_depth -= 1
            return
        if self._read_depth() > 0:
            raise RuntimeError(
                "cannot take the write side of the gate while holding the "
                "read side (reader thread attempted a mutation)"
            )
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer is not None or self._active_readers:
                    self._cond.wait()
                self._writer = ident
                self._writer_depth = 1
            finally:
                self._writers_waiting -= 1
        try:
            yield self
        finally:
            with self._cond:
                self._writer = None
                self._writer_depth = 0
                self._cond.notify_all()

    def __repr__(self) -> str:
        state = (
            "write-held"
            if self._writer is not None
            else f"readers={self._active_readers}"
        )
        return f"ReadWriteGate({state}, writers_waiting={self._writers_waiting})"
