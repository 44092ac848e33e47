"""Versioned, copy-on-write dataset stores.

The paper treats ``P`` and ``C`` as frozen matrices, but its own
window-locality argument (Lemma 1 / the Λ window of Theorem 1) is exactly
what makes *changing* markets tractable: a product mutation at ``p`` can
only affect customers whose window around the query reaches ``p``.  The
influence-monitoring literature on reverse skylines assumes products are
added, repriced and retired while queries keep flowing; this module gives
the engine a mutation-aware substrate for that workload.

A :class:`VersionedStore` owns one immutable ``(n, d)`` matrix plus a
monotonically increasing **epoch** counter.  Every mutation
(:meth:`~VersionedStore.insert` / :meth:`~VersionedStore.delete` /
:meth:`~VersionedStore.update`) builds a *new* matrix — the previous one
is never written, so :class:`Snapshot` objects taken earlier keep reading
consistent data for free (copy-on-write without reference counting) —
bumps the epoch, and returns a :class:`Mutation` record carrying the
new positions and the old-to-new mapping.  The store notifies nobody:
the engine's mutators run all post-commit upkeep themselves
(:func:`repro.core.mutators.apply_mutation`), reading the committed
matrix straight from the store.

Deletion compacts positions: surviving rows shift down to fill the holes,
and ``Mutation.mapping`` (old position -> new position, ``-1`` for deleted
rows) is the contract consumers use, identical to the mapping
``WhyNotEngine.without_products`` has always returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.geometry.point import as_points

__all__ = [
    "CustomerStore",
    "Mutation",
    "ProductStore",
    "Snapshot",
    "VersionedStore",
]


def _frozen(matrix: np.ndarray) -> np.ndarray:
    """A C-contiguous float64 matrix with the writeable flag cleared."""
    out = np.ascontiguousarray(matrix, dtype=np.float64)
    if out is matrix:
        out = out.copy()
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Mutation:
    """One committed store mutation: what changed and where rows moved.

    Attributes
    ----------
    kind:
        ``"insert"``, ``"delete"`` or ``"update"``.
    epoch:
        The store epoch *after* this mutation committed.
    positions:
        Inserted rows' new positions / deleted rows' old positions /
        updated rows' positions, ascending.
    mapping:
        Old position -> new position over the pre-mutation row count;
        ``-1`` marks deleted rows.  The identity for inserts and updates
        (existing rows never move).
    """

    kind: str
    epoch: int
    positions: np.ndarray
    mapping: np.ndarray

    @property
    def is_noop(self) -> bool:
        """True for the zero-row mutations (empty insert/delete/update)
        that commit nothing and leave the epoch unchanged."""
        return self.positions.size == 0


@dataclass(frozen=True)
class Snapshot:
    """An immutable view of one store generation.

    The matrix is the store's frozen (non-writeable) array at the time
    the snapshot was taken — later mutations build new arrays, so this
    one stays valid without copying.
    """

    matrix: np.ndarray
    epoch: int

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]


class VersionedStore:
    """Epoch-counted, copy-on-write owner of one ``(n, d)`` matrix.

    Parameters
    ----------
    points:
        Initial matrix; copied and frozen (the store's arrays are never
        writeable, so snapshots and the index can share them safely).
    """

    #: Human-readable role used in error messages ("dataset" by default).
    role = "dataset"

    def __init__(self, points: np.ndarray) -> None:
        self._matrix = _frozen(as_points(points))
        self._epoch = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def matrix(self) -> np.ndarray:
        """The current ``(n, d)`` matrix (non-writeable)."""
        return self._matrix

    @property
    def epoch(self) -> int:
        """Number of committed mutations since construction."""
        return self._epoch

    @property
    def size(self) -> int:
        return self._matrix.shape[0]

    @property
    def dim(self) -> int:
        return self._matrix.shape[1]

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.size}x{self.dim}, "
            f"epoch={self._epoch})"
        )

    def snapshot(self) -> Snapshot:
        """Pin the current generation (valid across later mutations)."""
        return Snapshot(matrix=self._matrix, epoch=self._epoch)

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def insert(self, points: np.ndarray) -> Mutation:
        """Append rows; returns the mutation with their new positions."""
        pts = as_points(points, dim=self.dim)
        if pts.shape[0] == 0:
            return self._noop("insert")
        old_n = self.size
        matrix = np.vstack([self._matrix, pts])
        positions = np.arange(old_n, old_n + pts.shape[0], dtype=np.int64)
        return self._commit(
            "insert",
            matrix,
            positions=positions,
            mapping=np.arange(old_n, dtype=np.int64),
        )

    def delete(self, positions: Sequence[int]) -> Mutation:
        """Remove rows and compact; ``mapping`` renumbers the survivors.

        The keep-set and mapping are pure mask arithmetic (no Python
        loop): ``mask[drop] = False``, survivors get ``arange`` positions.
        """
        drop = self._validate_positions(positions)
        if drop.size == 0:
            return self._noop("delete")
        old_n = self.size
        mask = np.ones(old_n, dtype=bool)
        mask[drop] = False
        keep = np.flatnonzero(mask)
        mapping = np.full(old_n, -1, dtype=np.int64)
        mapping[keep] = np.arange(keep.size, dtype=np.int64)
        return self._commit(
            "delete", self._matrix[keep], positions=drop, mapping=mapping
        )

    def update(
        self, positions: Sequence[int], points: np.ndarray
    ) -> Mutation:
        """Replace the coordinates of existing rows in place (by copy)."""
        target = np.asarray(list(positions), dtype=np.int64)
        if np.unique(target).size != target.size:
            raise InvalidParameterError("update positions must be distinct")
        if target.size and (target.min() < 0 or target.max() >= self.size):
            bad = int(target.min() if target.min() < 0 else target.max())
            raise InvalidParameterError(
                f"{self.role} position {bad} out of range"
            )
        pts = as_points(points, dim=self.dim)
        if pts.shape[0] != target.size:
            raise InvalidParameterError(
                f"update got {target.size} positions but {pts.shape[0]} "
                "points"
            )
        if target.size == 0:
            return self._noop("update")
        # Normalise to ascending positions, carrying the points along.
        order = np.argsort(target)
        target = target[order]
        pts = pts[order]
        matrix = self._matrix.copy()
        matrix[target] = pts
        return self._commit(
            "update",
            matrix,
            positions=target,
            mapping=np.arange(self.size, dtype=np.int64),
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _validate_positions(self, positions: Sequence[int]) -> np.ndarray:
        arr = np.unique(np.asarray(list(positions), dtype=np.int64))
        if arr.size and (arr[0] < 0 or arr[-1] >= self.size):
            bad = int(arr[0] if arr[0] < 0 else arr[-1])
            raise InvalidParameterError(
                f"{self.role} position {bad} out of range"
            )
        return arr

    def _noop(self, kind: str) -> Mutation:
        return Mutation(
            kind=kind,
            epoch=self._epoch,
            positions=np.empty(0, dtype=np.int64),
            mapping=np.arange(self.size, dtype=np.int64),
        )

    def _commit(self, kind: str, matrix: np.ndarray, **fields) -> Mutation:
        # ``matrix`` is always a fresh float64 array built by the caller,
        # so freezing it in place is enough.
        matrix.flags.writeable = False
        self._matrix = matrix
        self._epoch += 1
        return Mutation(kind=kind, epoch=self._epoch, **fields)


class ProductStore(VersionedStore):
    """The versioned product matrix ``P`` (the indexed side)."""

    role = "product"


class CustomerStore(VersionedStore):
    """The versioned customer matrix ``C``.

    In the monochromatic convention the engine does *not* build one of
    these: it points both roles at a single shared :class:`ProductStore`,
    so ``engine.customers is engine.products`` keeps holding and one
    mutation drives both sides coherently.
    """

    role = "customer"
