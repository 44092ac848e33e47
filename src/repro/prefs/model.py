"""The :class:`PreferenceModel`: validated per-dimension weights + policy.

The model is deliberately tiny and frozen: it is hashed into plan-cache
keys, pooled-plan keys and the serve layer's coalescing keys, so two
requests share cached artifacts exactly when their preference
fingerprints are equal.  Validation happens at construction — every
layer downstream may assume a model it receives is well-formed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.config import DominancePolicy
from repro.exceptions import InvalidParameterError

__all__ = [
    "PreferenceModel",
    "UNIT_PREFS",
    "as_weight_vector",
    "support_dims",
]


def as_weight_vector(
    weights: "Sequence[float] | np.ndarray", dim: int | None = None
) -> np.ndarray:
    """Validate and coerce a raw weight sequence to a float64 vector.

    Raises :class:`~repro.exceptions.InvalidParameterError` on the
    malformed shapes the serve layer must reject with a structured 400:
    wrong length, negative entries, non-finite entries, all-zero.
    """
    try:
        w = np.asarray(weights, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InvalidParameterError(
            f"weights must be a numeric sequence, got {weights!r}"
        ) from exc
    if w.ndim != 1:
        raise InvalidParameterError(
            f"weights must be a flat vector, got shape {w.shape}"
        )
    if dim is not None and w.shape[0] != dim:
        raise InvalidParameterError(
            f"weights must have one entry per dimension "
            f"(expected {dim}, got {w.shape[0]})"
        )
    if not np.all(np.isfinite(w)):
        raise InvalidParameterError("weights must be finite")
    if np.any(w < 0):
        raise InvalidParameterError("weights must be non-negative")
    if not np.any(w > 0):
        raise InvalidParameterError("at least one weight must be positive")
    return w


def support_dims(
    weights: "np.ndarray | None", dim: int
) -> "np.ndarray | None":
    """Column indices with positive weight, or ``None`` for full support.

    ``None`` is the fast-path sentinel every kernel understands: no
    slicing, the historical (bit-identical) code path runs.
    """
    if weights is None:
        return None
    w = np.asarray(weights, dtype=np.float64)
    if w.shape[0] != dim:
        raise InvalidParameterError(
            f"weights must have one entry per dimension "
            f"(expected {dim}, got {w.shape[0]})"
        )
    support = np.flatnonzero(w > 0)
    if support.size == dim:
        return None
    return support.astype(np.int64, copy=False)


@dataclass(frozen=True)
class PreferenceModel:
    """Per-dimension non-negative weights plus the dominance policy.

    Attributes
    ----------
    weights:
        Tuple of per-dimension weights, or ``None`` for unit weights
        (the historical behaviour).  Validated at construction:
        non-negative, finite, at least one positive.
    policy:
        The WEAK/STRICT boundary convention every dominance comparison
        under this preference uses.
    """

    weights: "tuple[float, ...] | None" = None
    policy: DominancePolicy = field(default=DominancePolicy.WEAK)

    def __post_init__(self) -> None:
        object.__setattr__(self, "policy", DominancePolicy(self.policy))
        if self.weights is not None:
            w = as_weight_vector(self.weights)
            object.__setattr__(
                self, "weights", tuple(float(x) for x in w)
            )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def resolve(
        cls,
        weights: "Sequence[float] | np.ndarray | None",
        policy: DominancePolicy,
        dim: int | None = None,
    ) -> "PreferenceModel":
        """Build a validated model from a raw request-level weight
        sequence (``None`` = unit weights), checking the length against
        ``dim`` when given."""
        if weights is None:
            return cls(weights=None, policy=policy)
        if isinstance(weights, PreferenceModel):
            raise InvalidParameterError(
                "pass raw weights, not a PreferenceModel"
            )
        w = as_weight_vector(weights, dim)
        return cls(weights=tuple(float(x) for x in w), policy=policy)

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    @property
    def is_unit(self) -> bool:
        """True when every weight is exactly 1 (or defaulted)."""
        return self.weights is None or all(
            w == 1.0 for w in self.weights
        )

    @property
    def full_support(self) -> bool:
        """True when every dimension has positive weight — dominance
        verdicts are then identical to the unweighted paths (scale
        invariance), and only movement costs differ."""
        return self.weights is None or all(w > 0 for w in self.weights)

    def resolved(self, dim: int) -> np.ndarray:
        """The ``(dim,)`` float64 weight vector (ones when defaulted)."""
        if self.weights is None:
            return np.ones(dim, dtype=np.float64)
        w = np.asarray(self.weights, dtype=np.float64)
        if w.shape[0] != dim:
            raise InvalidParameterError(
                f"preference has {w.shape[0]} weights but the dataset "
                f"has {dim} dimensions"
            )
        return w

    def support(self, dim: int) -> "np.ndarray | None":
        """Support column indices, or ``None`` for full support (the
        kernels' no-slicing fast-path sentinel)."""
        if self.weights is None:
            return None
        return support_dims(self.resolved(dim), dim)

    def effective_dim(self, dim: int) -> int:
        """Number of dimensions dominance actually compares — the
        support size."""
        support = self.support(dim)
        return dim if support is None else int(support.size)

    def weight_array(self, dim: int) -> "np.ndarray | None":
        """The weight vector to thread into the skyline layer: ``None``
        on the unit fast path, the resolved vector otherwise."""
        if self.weights is None:
            return None
        return self.resolved(dim)

    def cost_weights(self, base: np.ndarray) -> np.ndarray:
        """Movement-cost weights: the engine's normalised cost weights
        scaled by the preference magnitudes (deliberately *not*
        renormalised — doubling a weight doubles that dimension's
        movement price)."""
        base = np.asarray(base, dtype=np.float64)
        if self.weights is None:
            return base
        return base * self.resolved(base.shape[0])

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def fingerprint(self) -> tuple:
        """Hashable identity for cache/pool/coalescer keys.

        Unit-weight models of either spelling (``None`` or explicit
        ones) share one fingerprint — they are the same preference, and
        collapsing them keeps the default-path cache hit rate intact.
        """
        if self.is_unit:
            return ("unit", self.policy.value)
        assert self.weights is not None
        return (
            np.asarray(self.weights, dtype=np.float64).tobytes(),
            self.policy.value,
        )

    def describe(self) -> str:
        """Short human label used by EXPLAIN and the journal."""
        if self.is_unit:
            return f"unit/{self.policy.value}"
        ws = ",".join(f"{w:g}" for w in self.weights)  # type: ignore[union-attr]
        return f"[{ws}]/{self.policy.value}"

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"PreferenceModel({self.describe()})"


#: The historical behaviour: unit weights, WEAK policy.
UNIT_PREFS = PreferenceModel()
