"""The cost model of Section VI.

Answer quality is the weighted L1 movement after min-max normalisation
(Eqns. 9/11), with equal per-dimension weights summing to one by default.
MQP additionally pays for every existing reverse-skyline point it loses
(the formula below Table II): the distance from the refined query to the
safe region plus the cheapest repair of each lost customer.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.geometry.point import as_point, as_points

__all__ = [
    "MinMaxNormalizer",
    "cost_weight_vector",
    "movement_cost",
    "movement_costs",
]


class MinMaxNormalizer:
    """Min-max normalisation over fixed per-dimension bounds.

    Bounds normally come from the dataset universe so that every cost in an
    experiment is measured on the same [0, 1]^d scale, as in Section VI.A.
    Zero-width dimensions normalise to 0 (any movement along them is
    impossible anyway).
    """

    def __init__(self, lo: Sequence[float], hi: Sequence[float]) -> None:
        self.lo = as_point(lo)
        self.hi = as_point(hi, dim=self.lo.size)
        if np.any(self.hi < self.lo):
            raise InvalidParameterError("normaliser bounds must satisfy lo <= hi")
        self._range = self.hi - self.lo

    @classmethod
    def from_points(cls, points: np.ndarray) -> "MinMaxNormalizer":
        arr = as_points(points)
        if arr.shape[0] == 0:
            raise InvalidParameterError("cannot derive bounds from no points")
        return cls(arr.min(axis=0), arr.max(axis=0))

    @property
    def dim(self) -> int:
        return self.lo.size

    def normalize(self, points: np.ndarray) -> np.ndarray:
        """Map points into [0, 1]^d (values outside the bounds extrapolate)."""
        arr = np.asarray(points, dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = (arr - self.lo) / self._range
        return np.where(self._range == 0, 0.0, out)

    def denormalize(self, points: np.ndarray) -> np.ndarray:
        arr = np.asarray(points, dtype=np.float64)
        return arr * self._range + self.lo

    def cost(
        self,
        a: Sequence[float],
        b: Sequence[float],
        weights: Sequence[float],
    ) -> float:
        """Normalised weighted L1 movement ``sum_i w_i |norm(a)_i - norm(b)_i|``.

        This is one term of Eqn. (9); with ``b = a*`` and the beta weights it
        is exactly Eqn. (11).
        """
        na = self.normalize(as_point(a, dim=self.dim))
        nb = self.normalize(as_point(b, dim=self.dim))
        w = np.asarray(weights, dtype=np.float64)
        if w.size != self.dim:
            raise InvalidParameterError(
                f"weights must have length {self.dim}, got {w.size}"
            )
        return float(np.sum(w * np.abs(na - nb)))


def movement_cost(
    a: Sequence[float],
    b: Sequence[float],
    weights: Sequence[float],
    normalizer: MinMaxNormalizer | None = None,
) -> float:
    """Weighted L1 movement, normalised when a normaliser is given."""
    if normalizer is not None:
        return normalizer.cost(a, b, weights)
    pa = as_point(a)
    pb = as_point(b, dim=pa.size)
    w = np.asarray(weights, dtype=np.float64)
    if w.size != pa.size:
        raise InvalidParameterError(
            f"weights must have length {pa.size}, got {w.size}"
        )
    return float(np.sum(w * np.abs(pa - pb)))


def movement_costs(
    anchor: np.ndarray,
    points: np.ndarray,
    weights: np.ndarray,
    normalizer: MinMaxNormalizer | None = None,
) -> list[float]:
    """:func:`movement_cost` from ``anchor`` to every row of ``points``,
    in one vectorised pass over the ``(k, d)`` candidate matrix.

    Bit-identical to the per-row call: the element-wise arithmetic is the
    same, and NumPy sums each contiguous row the way it sums a 1-D
    vector.  The inputs are the validated float64 arrays of the
    algorithms' candidate stages, so nothing is re-checked here.
    """
    if normalizer is not None:
        anchor = normalizer.normalize(anchor)
        points = normalizer.normalize(points)
    return np.sum(weights * np.abs(anchor - points), axis=1).tolist()


def cost_weight_vector(
    weights: "Sequence[float] | None", dim: int
) -> np.ndarray:
    """The float64 cost weights of Eqns. 9/11: equal weights summing to
    one when ``weights`` is ``None``."""
    if weights is None:
        return np.full(dim, 1.0 / dim)
    return np.asarray(weights, dtype=np.float64)
