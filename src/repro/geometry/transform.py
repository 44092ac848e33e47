"""Coordinate transforms between the original and query-centred spaces.

Dynamic skylines are plain skylines after mapping every point ``p`` to
``|c - p|`` with the customer ``c`` as origin (Definition 2); these helpers
implement that mapping, its orthant bookkeeping (needed by the BBRS
global-skyline pruning, where only same-orthant points may dominate), and
the window box of the Dellis-Seeger membership test.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.geometry.box import Box
from repro.geometry.point import as_point, as_points

__all__ = ["to_query_space", "orthant_of", "orthants_of", "window_box"]


def to_query_space(points: np.ndarray, origin: Sequence[float]) -> np.ndarray:
    """Map ``points`` to coordinate-wise absolute distances from ``origin``.

    ``f^i(p^i) = |origin^i - p^i|`` — the paper's mapping function.  Accepts a
    single point or an ``(n, d)`` matrix and preserves the input shape.
    """
    o = as_point(origin)
    arr = np.asarray(points, dtype=np.float64)
    if arr.ndim == 1:
        return np.abs(as_point(arr, dim=o.size) - o)
    arr = as_points(arr, dim=o.size)
    # Column by column: NumPy runs ``(n, d) - (d,)`` as n inner loops of
    # length d, several times slower than d column passes for small d.
    out = np.empty_like(arr)
    for j in range(o.size):
        np.subtract(arr[:, j], o[j], out=out[:, j])
    return np.abs(out, out=out)


def orthant_of(point: Sequence[float], origin: Sequence[float]) -> int:
    """Orthant index of ``point`` relative to ``origin``.

    Bit ``i`` of the result is set when ``point[i] >= origin[i]``.  Points on
    a boundary hyperplane are assigned to the upper orthant; the BBRS pruning
    only uses orthants conservatively, so tie placement cannot cause a wrong
    answer (candidates are always verified by a window query).
    """
    p = as_point(point)
    o = as_point(origin, dim=p.size)
    bits = (p >= o).astype(np.int64)
    return int(bits @ (1 << np.arange(p.size, dtype=np.int64)))


def orthants_of(points: np.ndarray, origin: Sequence[float]) -> np.ndarray:
    """Vectorised :func:`orthant_of` for an ``(n, d)`` matrix."""
    o = as_point(origin)
    arr = as_points(points, dim=o.size)
    bits = (arr >= o).astype(np.int64)
    return bits @ (1 << np.arange(o.size, dtype=np.int64))


def window_box(center: Sequence[float], query: Sequence[float]) -> Box:
    """The window of the reverse-skyline membership test.

    Centred at ``center`` (a customer) with per-dimension half extent
    ``|center - query|``; a product strictly inside this window dynamically
    dominates ``query`` w.r.t. ``center`` under the STRICT policy, and a
    product weakly inside (and not tying everywhere) does so under WEAK.
    """
    c = as_point(center)
    q = as_point(query, dim=c.size)
    return Box.from_center(c, np.abs(c - q))
