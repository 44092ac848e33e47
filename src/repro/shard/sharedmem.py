"""Shared-memory matrices for zero-copy worker access.

The parent publishes each matrix once into a
``multiprocessing.shared_memory`` block; workers attach read-only NumPy
views by name, so shard task payloads carry only row positions and
scalars — never the data.  The parent owns the segment lifecycle
(created in :class:`SharedMatrix`, unlinked in :meth:`SharedMatrix.
close` or by a GC finalizer); workers attach without registering with
the resource tracker, since a tracked child-side handle of a segment
the parent unlinks produces spurious "leaked shared_memory" warnings
at interpreter shutdown.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.exceptions import InvalidParameterError

__all__ = ["MatrixSpec", "SharedMatrix", "attach_matrix"]


@dataclass(frozen=True)
class MatrixSpec:
    """Picklable handle of one published matrix (name + layout)."""

    name: str
    shape: tuple[int, int]
    dtype: str


def _open_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without resource-tracker
    registration.

    ``track=`` exists from Python 3.13; on earlier versions attaching
    registers unconditionally, and since forked workers share the
    parent's tracker process, letting several workers register and then
    unregister the same name races the tracker's cache (KeyError noise
    at shutdown).  Suppressing the registration during the attach keeps
    the tracker's view exactly what the parent created."""
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        from multiprocessing import resource_tracker

        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


def attach_matrix(
    spec: MatrixSpec,
) -> tuple[np.ndarray, shared_memory.SharedMemory]:
    """A read-only view of a published matrix plus the handle that must
    outlive it (the caller keeps both; closing the handle invalidates
    the view)."""
    shm = _open_untracked(spec.name)
    view = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=shm.buf)
    view.flags.writeable = False
    return view, shm


class SharedMatrix:
    """One 2-D float64 matrix published into a shared-memory block (parent
    side).

    ``close()`` is idempotent and also runs from a GC finalizer, so an
    executor dropped without explicit cleanup still unlinks its
    segments instead of leaking ``/dev/shm`` files.
    """

    def __init__(self, matrix: np.ndarray):
        arr = np.ascontiguousarray(matrix, dtype=np.float64)
        if arr.ndim != 2:
            raise InvalidParameterError(
                f"shared matrix must be 2-D, got shape {arr.shape}"
            )
        self._shm = shared_memory.SharedMemory(
            create=True, size=max(1, arr.nbytes)
        )
        self._view: np.ndarray | None = np.ndarray(
            arr.shape, dtype=arr.dtype, buffer=self._shm.buf
        )
        self._view[...] = arr
        self.spec = MatrixSpec(
            name=self._shm.name, shape=arr.shape, dtype=arr.dtype.str
        )
        self.nbytes = int(arr.nbytes)
        self._closed = False
        self._finalizer = weakref.finalize(self, _release, self._shm)

    @property
    def array(self) -> np.ndarray:
        """The parent's live view (valid until :meth:`close`)."""
        if self._view is None:
            raise InvalidParameterError("shared matrix is closed")
        return self._view

    def close(self) -> None:
        """Drop the parent view and unlink the segment (idempotent).
        Attached workers keep their mappings until they exit."""
        if self._closed:
            return
        self._closed = True
        self._view = None
        self._finalizer.detach()
        _release(self._shm)

    def __enter__(self) -> "SharedMatrix":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _release(shm: shared_memory.SharedMemory) -> None:
    try:
        shm.close()
    except BufferError:  # pragma: no cover - a view still alive somewhere
        pass
    try:
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - already unlinked
        pass
