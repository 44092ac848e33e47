"""Algorithm 1 — Modify the Why-Not Point (MWP).

Move the why-not customer ``c_t`` toward the query ``q`` just far enough
that ``q`` enters the dynamic skyline of the moved point ``c_t*``:

1. ``Λ ← window_query(c_t, q)`` — the products blocking membership;
2. keep the frontier ``F``: members of ``Λ`` not dynamically dominated
   w.r.t. ``q`` by another member (the products closest to ``q``);
3. for each frontier the midpoint between it and ``q`` (Eqn. 1) bounds the
   needed movement; the sorted merge of the midpoints (Eqns. 2-3) yields
   the pairwise non-dominated candidate locations.

The construction is carried out in distance space (see
:mod:`repro.core._staircase`), which generalises the paper's lower-left
figures to arbitrary relative positions of ``c_t`` and ``q``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.config import WhyNotConfig
from repro.core._staircase import modification
from repro.core.answer import ModificationResult
from repro.core.cost import MinMaxNormalizer, cost_weight_vector
from repro.geometry.point import as_point
from repro.index.base import SpatialIndex

__all__ = ["modify_why_not_point"]


def modify_why_not_point(
    index: SpatialIndex,
    why_not: Sequence[float],
    query: Sequence[float],
    config: WhyNotConfig | None = None,
    weights: Sequence[float] | None = None,
    normalizer: MinMaxNormalizer | None = None,
    exclude: Sequence[int] = (),
    pref_weights: "np.ndarray | None" = None,
) -> ModificationResult:
    """Full MWP: candidates with movement costs and verification flags.

    Parameters
    ----------
    index:
        Spatial index over the product set ``P``.
    why_not, query:
        The customer ``c_t`` and query product ``q``.
    config:
        Policy / sort dimension / margin / verification settings.
    weights:
        The beta weight vector of Eqn. (11); equal weights by default.
        The engine composes these with the preference weights
        (``PreferenceModel.cost_weights``) before calling here.
    normalizer:
        Min-max normaliser for cost reporting; raw weighted L1 when absent.
    exclude:
        Product positions excluded from window queries (monochromatic
        self-exclusion); at most one.
    pref_weights:
        Preference weights shaping the dominance tests
        (:mod:`repro.prefs`); ``None`` is the unweighted paper setting.
        They shape which products block membership and where the
        staircase lies, while the candidates never move in dropped
        dimensions (movement there buys nothing).
    """
    config = config or WhyNotConfig()
    pw = None if pref_weights is None else np.asarray(pref_weights, dtype=np.float64)
    return modification(
        index, "MWP", as_point(why_not, dim=index.dim),
        as_point(query, dim=index.dim), config,
        cost_weight_vector(weights, index.dim), normalizer, exclude, pw,
    )
