"""Pure-Python reference implementation of the box-union algebra.

This is the seed's object-per-box ``BoxRegion`` preserved verbatim as
``OracleBoxRegion``: nested-loop pairwise intersection, O(k²) containment
pruning, and the recursive coordinate-compression measure.  It exists so
the array-backed engine (:mod:`repro.geometry.region_array`) has an
independent oracle to be property-tested and benchmarked against —
``tests/properties/test_region_array_properties.py`` asserts the two
produce the same surviving boxes in the same order and bit-identical
measures, and ``benchmarks/bench_safe_region.py`` reports the speedup.

Do not use this class on hot paths; use
:class:`repro.geometry.region.BoxRegion`.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.exceptions import DimensionMismatchError, InvalidParameterError
from repro.geometry.box import Box
from repro.geometry.point import as_point

__all__ = ["OracleBoxRegion"]


class OracleBoxRegion:
    """The pre-array-engine union-of-boxes implementation (reference)."""

    def __init__(self, boxes: Iterable[Box] = (), dim: int | None = None) -> None:
        self._boxes: list[Box] = list(boxes)
        if self._boxes:
            first = self._boxes[0].dim
            for box in self._boxes[1:]:
                if box.dim != first:
                    raise DimensionMismatchError(first, box.dim, what="box")
            if dim is not None and first != dim:
                raise DimensionMismatchError(dim, first, what="region")
            self._dim = first
        else:
            self._dim = dim if dim is not None else 0

    @classmethod
    def empty(cls, dim: int) -> "OracleBoxRegion":
        return cls((), dim=dim)

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def boxes(self) -> tuple[Box, ...]:
        return tuple(self._boxes)

    def is_empty(self) -> bool:
        return not self._boxes

    def __len__(self) -> int:
        return len(self._boxes)

    def __iter__(self) -> Iterator[Box]:
        return iter(self._boxes)

    def __repr__(self) -> str:
        return f"OracleBoxRegion({len(self._boxes)} boxes, dim={self._dim})"

    def contains_point(self, point: Sequence[float], closed: bool = True) -> bool:
        if self.is_empty():
            return False
        p = as_point(point, dim=self._dim)
        return any(box.contains_point(p, closed=closed) for box in self._boxes)

    def union(self, other: "OracleBoxRegion") -> "OracleBoxRegion":
        self._check_dim(other)
        return OracleBoxRegion(
            self._boxes + list(other._boxes), dim=self._dim or other._dim
        )

    def intersect_box(self, box: Box) -> "OracleBoxRegion":
        pieces = [b.intersect(box) for b in self._boxes]
        return OracleBoxRegion(
            [p for p in pieces if p is not None], dim=self._dim
        ).simplify()

    def intersect(self, other: "OracleBoxRegion") -> "OracleBoxRegion":
        """Distributed pairwise intersection, one Python loop per pair."""
        self._check_dim(other)
        pieces: list[Box] = []
        for a in self._boxes:
            for b in other._boxes:
                inter = a.intersect(b)
                if inter is not None:
                    pieces.append(inter)
        return OracleBoxRegion(pieces, dim=self._dim or other._dim).simplify()

    def simplify(self) -> "OracleBoxRegion":
        """O(k²) containment sweep over boxes sorted by decreasing volume."""
        if len(self._boxes) <= 1:
            return self
        ordered = sorted(self._boxes, key=lambda b: -b.volume())
        kept: list[Box] = []
        for box in ordered:
            if any(other.contains_box(box) for other in kept):
                continue
            kept.append(box)
        return OracleBoxRegion(kept, dim=self._dim)

    def measure(self) -> float:
        """Recursive coordinate-compression sweep (exact, any dimension)
        over the maximal boxes: every box contained in another box is
        left out, keeping the first of equal ones."""
        if self.is_empty():
            return 0.0
        boxes = [
            box
            for i, box in enumerate(self._boxes)
            if not any(
                j != i
                and other.contains_box(box)
                and (j < i or not box.contains_box(other))
                for j, other in enumerate(self._boxes)
            )
        ]
        dim = self._dim
        cuts = []
        for axis in range(dim):
            values = np.unique(
                np.concatenate(
                    [[b.lo[axis] for b in boxes], [b.hi[axis] for b in boxes]]
                )
            )
            cuts.append(values)
        if any(len(c) < 2 for c in cuts):
            return 0.0
        lows = np.vstack([b.lo for b in boxes])
        highs = np.vstack([b.hi for b in boxes])
        return self._measure_recursive(
            lows, highs, cuts, 0, np.ones(len(boxes), bool)
        )

    def _measure_recursive(
        self,
        lows: np.ndarray,
        highs: np.ndarray,
        cuts: list[np.ndarray],
        axis: int,
        active: np.ndarray,
    ) -> float:
        values = cuts[axis]
        total = 0.0
        for left, right in zip(values[:-1], values[1:]):
            mid = (left + right) / 2.0
            spanning = active & (lows[:, axis] <= mid) & (highs[:, axis] >= mid)
            if not spanning.any():
                continue
            width = right - left
            if axis == len(cuts) - 1:
                total += width
            else:
                total += width * self._measure_recursive(
                    lows, highs, cuts, axis + 1, spanning
                )
        return total

    def nearest_point_to(self, point: Sequence[float]) -> np.ndarray | None:
        if self.is_empty():
            return None
        p = as_point(point, dim=self._dim)
        best: np.ndarray | None = None
        best_dist = np.inf
        for box in self._boxes:
            candidate = box.nearest_point_to(p)
            dist = float(np.sum(np.abs(candidate - p)))
            if dist < best_dist:
                best, best_dist = candidate, dist
        return best

    def corner_points(self) -> np.ndarray:
        if self.is_empty():
            return np.empty((0, self._dim))
        corners = np.vstack([box.corners() for box in self._boxes])
        return np.unique(corners, axis=0)

    def sample_points(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.is_empty():
            raise InvalidParameterError("cannot sample from an empty region")
        volumes = np.array([b.volume() for b in self._boxes])
        if volumes.sum() > 0:
            probs = volumes / volumes.sum()
        else:
            probs = np.full(len(self._boxes), 1.0 / len(self._boxes))
        counts = rng.multinomial(n, probs)
        chunks = [
            box.sample_points(rng, int(count))
            for box, count in zip(self._boxes, counts)
            if count
        ]
        return np.vstack(chunks) if chunks else np.empty((0, self._dim))

    def _check_dim(self, other: "OracleBoxRegion") -> None:
        if self._boxes and other._boxes and other.dim != self.dim:
            raise DimensionMismatchError(self.dim, other.dim, what="region")
