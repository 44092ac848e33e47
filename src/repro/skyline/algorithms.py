"""Skyline computation.

Two complementary algorithms behind one entry point:

* a 2-D sort-and-scan pass (O(n log n)), the workhorse for the paper's
  two-attribute evaluation; from :data:`PREFILTER_MIN_ROWS` rows on an
  exact O(n) pivot-dominance filter first shrinks the input it sorts;
* a sort-filter block-nested-loop for any dimensionality (Börzsönyi et al.'s
  BNL with the SFS presorting refinement: after sorting by coordinate sum,
  no later point can dominate an earlier one, so a single filtered pass
  suffices).

Both return positions of the *weak-dominance* skyline: points for which no
other point is ``<=`` everywhere and ``<`` somewhere.  Duplicate points do
not dominate each other and are all retained.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.point import as_points
from repro.prefs.model import support_dims

__all__ = ["skyline_indices", "skyline_points"]

_BLOCK = 256  # Vectorised dominance checks are batched in blocks.

#: From this many rows on, the 2-D skyline first drops the rows three
#: pivots dominate (:func:`_pivot_survivors`); below ~200 uniform rows,
#: such as the batched answer path's stage skylines, that does not pay.
PREFILTER_MIN_ROWS = 256


def skyline_indices(
    points: np.ndarray, weights: "np.ndarray | None" = None
) -> np.ndarray:
    """Positions of the skyline rows of ``points`` (minimising), sorted.

    With ``weights``, dominance runs over the weights' support columns
    only (see :mod:`repro.prefs`); full-support vectors take the exact
    historical path.
    """
    arr = as_points(points)
    if arr.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    return _skyline(arr, weights)


def _skyline(arr: np.ndarray, weights: "np.ndarray | None") -> np.ndarray:
    """:func:`skyline_indices` of a non-empty ``(n, d)`` float64 matrix,
    without validation, so rows may hold ``+inf``: such a row dominates
    no finite row, and every finite row strictly dominates an all-``inf``
    one."""
    dims = support_dims(
        None if weights is None else np.asarray(weights, dtype=np.float64),
        arr.shape[1],
    )
    if dims is not None:
        arr = arr[:, dims]
    if arr.shape[1] == 2:
        return _skyline_2d(arr)
    return _skyline_sfs(arr)


def skyline_points(
    points: np.ndarray, weights: "np.ndarray | None" = None
) -> np.ndarray:
    """The skyline rows themselves."""
    arr = as_points(points)
    return arr[skyline_indices(arr, weights)]


def _skyline_2d(arr: np.ndarray) -> np.ndarray:
    """2-D skyline: pivot prefilter on large inputs, then sort-and-scan."""
    if arr.shape[0] < PREFILTER_MIN_ROWS:
        return _sort_scan_2d(arr)
    survivors = _pivot_survivors(arr)
    return survivors[_sort_scan_2d(arr[survivors])]


def _pivot_survivors(arr: np.ndarray) -> np.ndarray:
    """Ascending positions of the rows that none of ``argmin x``,
    ``argmin y`` and ``argmin (x + y)`` dominates (duplicates of a pivot
    stay).  Exact: only dominated rows go, and by transitivity each
    dominated survivor is still dominated by a surviving skyline row."""
    xs, ys = np.ascontiguousarray(arr.T)  # contiguous columns: ~2x faster
    a, b, p = np.argmin(xs), np.argmin(ys), np.argmin(xs + ys)
    px, py = xs[p], ys[p]
    keep = (xs <= xs[b]) & (ys <= ys[a])
    keep &= (xs < px) | (ys < py) | ((xs == px) & (ys == py))
    return np.flatnonzero(keep)


def _sort_scan_2d(arr: np.ndarray) -> np.ndarray:
    """Sort by (x asc, y asc) and keep points beating the running y-minimum.

    A scanned point is dominated iff some earlier point (in sort order) has
    strictly smaller y; exact duplicates of a kept point are themselves kept
    (nothing dominates them).  Fully vectorised: the running minimum is a
    prefix ``minimum.accumulate`` and duplicate runs inherit the decision of
    their run head.
    """
    n = arr.shape[0]
    order = np.lexsort((arr[:, 1], arr[:, 0]))
    xs = arr[order, 0]
    ys = arr[order, 1]
    prev_min = np.concatenate(([np.inf], np.minimum.accumulate(ys)[:-1]))
    head_keep = ys < prev_min
    if n > 1:
        same_as_prev = np.concatenate(
            ([False], (xs[1:] == xs[:-1]) & (ys[1:] == ys[:-1]))
        )
        idx = np.arange(n)
        run_head = np.maximum.accumulate(np.where(same_as_prev, -1, idx))
        keep = head_keep[run_head]
    else:
        keep = head_keep
    return np.sort(order[keep])


def _skyline_sfs(arr: np.ndarray) -> np.ndarray:
    """Sort-filter skyline for any dimension.

    Sorting by coordinate sum guarantees that a dominating point precedes
    every point it dominates (weak dominance strictly lowers the sum), so a
    single pass comparing each point against the kept set is complete.
    """
    n = arr.shape[0]
    sums = arr.sum(axis=1)
    order = np.lexsort((np.arange(n), sums))
    sorted_pts = arr[order]
    kept_rows: list[int] = []
    kept_buf = np.empty((0, arr.shape[1]))
    for i in range(n):
        p = sorted_pts[i]
        if kept_rows:
            if len(kept_rows) != kept_buf.shape[0]:
                kept_buf = sorted_pts[kept_rows]
            dominated = np.any(
                np.all(kept_buf <= p, axis=1) & np.any(kept_buf < p, axis=1)
            )
            if dominated:
                continue
        kept_rows.append(i)
        if len(kept_rows) % _BLOCK == 0:
            kept_buf = sorted_pts[kept_rows]
    return np.sort(order[np.asarray(kept_rows, dtype=np.int64)])
