"""Dynamic skylines (Definition 2).

The dynamic skyline of a customer ``c`` over a product set ``P`` is the
plain skyline of ``P`` after mapping every product to its coordinate-wise
absolute distance from ``c`` (Papadias et al.); these helpers perform the
transform-then-skyline composition and are the basis of the anti-dominance
region construction of Section V.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.geometry.point import as_point, as_points
from repro.geometry.transform import to_query_space
from repro.skyline.algorithms import _skyline, skyline_indices

__all__ = [
    "dynamic_skyline_indices",
    "dynamic_skyline_points",
    "is_in_dynamic_skyline",
]


def dynamic_skyline_indices(
    points: np.ndarray,
    origin: Sequence[float],
    exclude: Sequence[int] = (),
    weights: "np.ndarray | None" = None,
) -> np.ndarray:
    """Positions of ``DSL(origin)`` within ``points``.

    ``exclude`` removes positions before the computation — the monochromatic
    experiments exclude the customer itself from the product set, exactly as
    the paper's running example does with ``pt_1``.  With ``weights``, the
    transformed skyline runs over the weights' support dimensions only.
    """
    arr = as_points(points)
    o = as_point(origin, dim=arr.shape[1] if arr.size else None)
    exclude_arr = np.asarray(list(exclude), dtype=np.int64)
    if exclude_arr.size == 0:
        return skyline_indices(to_query_space(arr, o), weights)
    # An excluded row moves to +inf in query space instead of being
    # copied out: it then dominates nothing, and any kept row strictly
    # dominates it, so the skyline of the kept rows is unchanged.  An
    # excluded row reaches the result only when every row is excluded,
    # hence the filter.
    transformed = to_query_space(arr, o)
    transformed[exclude_arr] = np.inf
    found = _skyline(transformed, weights)
    return found[~np.isin(found, exclude_arr)]


def dynamic_skyline_points(
    points: np.ndarray,
    origin: Sequence[float],
    exclude: Sequence[int] = (),
    weights: "np.ndarray | None" = None,
) -> np.ndarray:
    """The ``DSL(origin)`` rows themselves (original coordinates)."""
    arr = as_points(points)
    return arr[dynamic_skyline_indices(arr, origin, exclude, weights)]


def is_in_dynamic_skyline(
    points: np.ndarray,
    origin: Sequence[float],
    candidate: Sequence[float],
) -> bool:
    """Membership test for an external candidate (not required to be a row
    of ``points``) under weak dominance: no product may be closer-or-equal
    to ``origin`` in every dimension and strictly closer in one."""
    arr = as_points(points)
    o = as_point(origin)
    t_cand = to_query_space(as_point(candidate, dim=o.size), o)
    if arr.shape[0] == 0:
        return True
    transformed = to_query_space(arr, o)
    dominated = np.all(transformed <= t_cand, axis=1) & np.any(
        transformed < t_cand, axis=1
    )
    return not bool(dominated.any())
