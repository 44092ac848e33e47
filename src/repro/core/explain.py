"""Aspect 1 of the why-not semantics: the explanation itself.

Why is ``c_t`` not in ``RSL(q)``?  Because the window query centred at
``c_t`` returns a non-empty ``Λ``: the products the customer finds more
interesting than ``q``.  Deleting ``Λ`` from the product set would admit
``c_t`` (Lemma 1) — the paper considers this aspect trivial to compute and
so do we, but it is the entry point of the whole pipeline.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.config import DominancePolicy
from repro.core.answer import Explanation
from repro.geometry.point import as_point
from repro.index.base import SpatialIndex
from repro.skyline.window import lambda_set

__all__ = ["explain_why_not", "explanation_of"]


def explain_why_not(
    index: SpatialIndex,
    why_not: Sequence[float],
    query: Sequence[float],
    policy: DominancePolicy = DominancePolicy.WEAK,
    exclude: Sequence[int] = (),
    weights: "np.ndarray | None" = None,
) -> Explanation:
    """Compute the ``Λ`` explanation for ``why_not`` w.r.t. ``query``.

    Parameters
    ----------
    index:
        Spatial index over the product set ``P``.
    why_not:
        The customer ``c_t`` asking the why-not question.
    query:
        The reverse-skyline query product ``q``.
    policy:
        Dominance policy of the window test (see DESIGN.md §2).
    exclude:
        Index positions excluded from the window (self-exclusion in the
        monochromatic setting).
    weights:
        Optional preference weights (:mod:`repro.prefs`) restricting the
        window test to their support dimensions.
    """
    c = as_point(why_not, dim=index.dim)
    q = as_point(query, dim=index.dim)
    return explanation_of(
        index, c, q, lambda_set(index, c, q, policy, exclude, weights)
    )


def explanation_of(
    index: SpatialIndex, c: np.ndarray, q: np.ndarray, positions: np.ndarray
) -> Explanation:
    """The explanation whose ``Λ`` is ``positions``."""
    return Explanation(
        why_not=c,
        query=q,
        culprit_positions=positions,
        culprits=index.points[positions] if positions.size else np.empty((0, index.dim)),
    )
