"""Array-backed kernels for the box-union region algebra.

A region (a union of ``k`` closed axis-aligned boxes in ``d`` dimensions)
is represented as a pair of contiguous ``(k, d)`` float64 arrays — the
lower and upper corners.  Every operation :class:`~repro.geometry.region.
BoxRegion` needs on the safe-region hot path (Algorithm 3's distributed
intersection, containment pruning, exact measure, point containment) is
implemented here as a NumPy kernel over those arrays, replacing the
object-per-box nested Python loops of the seed implementation.

Equivalence contract
--------------------
Each kernel is *exactly* equivalent — same surviving boxes, in the same
order, and bit-identical measure — to the pure-Python reference kept in
:mod:`repro.geometry.region_oracle`:

* :func:`pairwise_intersect` enumerates pieces in the same a-major /
  b-minor order as the oracle's nested loop and keeps the same non-empty
  pieces (touching boxes intersect in a degenerate box, which is kept);
* :func:`simplify_arrays` reproduces the oracle's stable
  volume-descending sweep.  The oracle drops a box when a previously
  *kept* box contains it; because box containment is transitive and the
  sweep is ordered, that is equivalent to "contained in *any* earlier box
  of the sorted order", which vectorises to one ``(k, k)`` containment
  matrix;
* :func:`measure_arrays` runs the same coordinate-compression sweep in
  the same slab order with the same Python-float accumulation, so the
  result is bit-identical, while the per-slab spanning tests and the
  2-D covered-cell grid are computed vectorised.

The property tests in ``tests/properties/test_region_array_properties.py``
assert this contract on random box unions (d = 2..4, degenerate boxes
included), and CI asserts exact area agreement on every push.
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import product as _iterproduct
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.geometry.box import Box

__all__ = [
    "boxes_to_arrays",
    "empty_arrays",
    "pairwise_intersect",
    "clip_arrays",
    "simplify_arrays",
    "measure_arrays",
    "contains_point_arrays",
    "contains_points_arrays",
    "nearest_point_arrays",
    "corner_points_arrays",
    "sample_points_arrays",
    "observe_region_ops",
]


class _RegionMetrics:
    """Counters a registry lends to this module while observation is on."""

    __slots__ = (
        "intersect_calls",
        "boxes_created",
        "simplify_calls",
        "boxes_pruned",
        "measure_calls",
    )

    def __init__(self, registry) -> None:
        self.intersect_calls = registry.counter(
            "region.intersect_calls", "pairwise_intersect kernel invocations"
        )
        self.boxes_created = registry.counter(
            "region.boxes_created", "non-empty pieces produced by intersections"
        )
        self.simplify_calls = registry.counter(
            "region.simplify_calls", "containment-pruning sweeps"
        )
        self.boxes_pruned = registry.counter(
            "region.boxes_pruned", "boxes dropped by containment pruning"
        )
        self.measure_calls = registry.counter(
            "region.measure_calls", "exact Lebesgue-measure evaluations"
        )


# Module-level sink: None keeps the kernels entirely counter-free (the
# common case); `observe_region_ops` installs a bundle for one scope.
_METRICS: _RegionMetrics | None = None


@contextmanager
def observe_region_ops(registry) -> Iterator[None]:
    """Count kernel activity into ``registry`` within this context.

    ``registry`` is any object with a ``counter(name, help) -> Counter``
    method (a :class:`repro.obs.metrics.MetricsRegistry`); counters are
    created under ``region.*`` names.  The previous sink is restored on
    exit, so scopes nest.  The kernels are process-global, so observation
    is too — don't interleave traced and untraced engines across threads.
    """
    global _METRICS
    previous = _METRICS
    _METRICS = _RegionMetrics(registry)
    try:
        yield
    finally:
        _METRICS = previous


def empty_arrays(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``(0, dim)`` lo/hi pair of an empty region."""
    return (
        np.empty((0, dim), dtype=np.float64),
        np.empty((0, dim), dtype=np.float64),
    )


def boxes_to_arrays(
    boxes: Iterable[Box], dim: int
) -> tuple[np.ndarray, np.ndarray]:
    """Stack :class:`Box` corners into contiguous ``(k, d)`` arrays."""
    boxes = list(boxes)
    if not boxes:
        return empty_arrays(dim)
    lo = np.ascontiguousarray(np.vstack([b.lo for b in boxes]), dtype=np.float64)
    hi = np.ascontiguousarray(np.vstack([b.hi for b in boxes]), dtype=np.float64)
    return lo, hi


def pairwise_intersect(
    a_lo: np.ndarray,
    a_hi: np.ndarray,
    b_lo: np.ndarray,
    b_hi: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """All non-empty pairwise intersections of two box arrays.

    The distributed product of Algorithm 3:

        (r11 + r12) . (r21 + r22) = r11.r21 + r11.r22 + r12.r21 + r12.r22

    computed as one broadcasted clip over the ``(ka, kb, d)`` cube plus an
    empty-mask compaction.  Pieces come out in a-major, b-minor order —
    the oracle's nested-loop order — and degenerate (zero-extent) pieces
    from touching boxes are kept, exactly like :meth:`Box.intersect`.
    """
    ka, dim = a_lo.shape
    kb = b_lo.shape[0]
    if ka == 0 or kb == 0:
        return empty_arrays(dim)
    lo = np.maximum(a_lo[:, None, :], b_lo[None, :, :])
    hi = np.minimum(a_hi[:, None, :], b_hi[None, :, :])
    keep = np.all(lo <= hi, axis=2).ravel()
    flat_lo = lo.reshape(ka * kb, dim)
    flat_hi = hi.reshape(ka * kb, dim)
    idx = np.flatnonzero(keep)
    if _METRICS is not None:
        _METRICS.intersect_calls.inc()
        _METRICS.boxes_created.inc(int(idx.size))
    return (
        np.ascontiguousarray(flat_lo[idx]),
        np.ascontiguousarray(flat_hi[idx]),
    )


def clip_arrays(
    lo: np.ndarray,
    hi: np.ndarray,
    box_lo: np.ndarray,
    box_hi: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Clip every box of the region to a single box, dropping empties."""
    if lo.shape[0] == 0:
        return empty_arrays(lo.shape[1])
    new_lo = np.maximum(lo, box_lo[None, :])
    new_hi = np.minimum(hi, box_hi[None, :])
    keep = np.flatnonzero(np.all(new_lo <= new_hi, axis=1))
    return (
        np.ascontiguousarray(new_lo[keep]),
        np.ascontiguousarray(new_hi[keep]),
    )


def simplify_arrays(
    lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Drop duplicate boxes and boxes contained in another box.

    Vectorised containment pruning equivalent to the oracle's sweep: boxes
    are stably sorted by decreasing volume, the full ``(k, k)`` pairwise
    containment matrix is built in one shot, and box *i* of the sorted
    order is dropped iff some earlier box *j < i* contains it (equal boxes
    keep their first occurrence).  Survivors stay in volume-descending
    order, matching the oracle's output exactly.
    """
    k = lo.shape[0]
    if k <= 1:
        if _METRICS is not None:
            _METRICS.simplify_calls.inc()
        return lo, hi
    volumes = np.prod(hi - lo, axis=1)
    order = np.argsort(-volumes, kind="stable")
    s_lo = lo[order]
    s_hi = hi[order]
    # contained[j, i]: sorted box i lies inside sorted box j.
    contained = np.all(s_lo[None, :, :] >= s_lo[:, None, :], axis=2) & np.all(
        s_hi[None, :, :] <= s_hi[:, None, :], axis=2
    )
    earlier = np.arange(k)[:, None] < np.arange(k)[None, :]  # j < i
    dropped = np.any(contained & earlier, axis=0)
    keep = np.flatnonzero(~dropped)
    if _METRICS is not None:
        _METRICS.simplify_calls.inc()
        _METRICS.boxes_pruned.inc(int(k - keep.size))
    return (
        np.ascontiguousarray(s_lo[keep]),
        np.ascontiguousarray(s_hi[keep]),
    )


def maximal_arrays(
    lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The maximal boxes: drop every box contained in another box and
    keep the first of equal ones; survivors keep their input order.

    Unlike :func:`simplify_arrays`, which only drops a box contained in
    an *earlier* box of its volume sort (so which zero-volume boxes
    survive depends on the fold order), this set depends only on the
    union's box set, not on how a fold reached it.
    """
    if lo.shape[0] <= 1:
        return lo, hi
    # inside[i, j]: box j lies within box i.
    inside = np.all(lo[None, :, :] >= lo[:, None, :], axis=2) & np.all(
        hi[None, :, :] <= hi[:, None, :], axis=2
    )
    equal = inside & inside.T
    dropped = (inside & ~equal).any(axis=0) | np.triu(equal, k=1).any(axis=0)
    return lo[~dropped], hi[~dropped]


def contains_point_arrays(
    lo: np.ndarray, hi: np.ndarray, point: np.ndarray, closed: bool = True
) -> bool:
    """True when any box of the region contains ``point``."""
    if lo.shape[0] == 0:
        return False
    if closed:
        inside = (point >= lo) & (point <= hi)
    else:
        inside = (point > lo) & (point < hi)
    return bool(np.any(np.all(inside, axis=1)))


def contains_points_arrays(
    lo: np.ndarray, hi: np.ndarray, points: np.ndarray, closed: bool = True
) -> np.ndarray:
    """Vectorised containment of an ``(m, d)`` point matrix: ``(m,)`` bool."""
    m = points.shape[0]
    if lo.shape[0] == 0:
        return np.zeros(m, dtype=bool)
    if closed:
        inside = (points[:, None, :] >= lo[None, :, :]) & (
            points[:, None, :] <= hi[None, :, :]
        )
    else:
        inside = (points[:, None, :] > lo[None, :, :]) & (
            points[:, None, :] < hi[None, :, :]
        )
    return np.any(np.all(inside, axis=2), axis=1)


def nearest_point_arrays(
    lo: np.ndarray, hi: np.ndarray, point: np.ndarray
) -> np.ndarray | None:
    """Closest point of the region to ``point`` (L1), or ``None`` if empty.

    Clamping is vectorised over all boxes; ties pick the first box in
    array order, the same winner as the oracle's sequential scan.
    """
    if lo.shape[0] == 0:
        return None
    clipped = np.clip(point[None, :], lo, hi)
    dists = np.sum(np.abs(clipped - point[None, :]), axis=1)
    return clipped[int(np.argmin(dists))].copy()


def corner_points_arrays(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Deduplicated corners of all boxes as an ``(m, d)`` matrix."""
    k, dim = lo.shape
    if k == 0:
        return np.empty((0, dim))
    # (2^d, d) selection patterns in the same lo-first order as
    # Box.corners(); the final np.unique sorts lexicographically anyway.
    patterns = np.array(list(_iterproduct((0, 1), repeat=dim)), dtype=bool)
    corners = np.where(patterns[None, :, :], hi[:, None, :], lo[:, None, :])
    return np.unique(corners.reshape(k * patterns.shape[0], dim), axis=0)


def measure_arrays(lo: np.ndarray, hi: np.ndarray) -> float:
    """Exact Lebesgue measure of the union via coordinate compression.

    Bit-identical to the oracle's recursive sweep: slabs are visited in
    the same sorted order and widths accumulate through the same sequence
    of Python-float additions.  What is vectorised is the expensive part —
    the per-axis slab-spanning masks (and, for the final two axes, the
    full covered-cell grid via one boolean matmul).

    The sweep runs over the :func:`maximal_arrays` boxes: a redundant
    box (say a zero-volume one inside a sibling) cannot add a slab
    breakpoint, so two box lists of the same maximal set — e.g. one
    region folded in two member orders — measure bit-identically.
    """
    if _METRICS is not None:
        _METRICS.measure_calls.inc()
    lo, hi = maximal_arrays(lo, hi)
    k, dim = lo.shape
    if k == 0:
        return 0.0
    cuts = [np.unique(np.concatenate([lo[:, a], hi[:, a]])) for a in range(dim)]
    if any(c.size < 2 for c in cuts):
        return 0.0  # Degenerate along some axis: measure zero.
    spans: list[np.ndarray] = []
    widths: list[np.ndarray] = []
    for a, values in enumerate(cuts):
        mids = (values[:-1] + values[1:]) / 2.0
        spans.append(
            (lo[:, a][:, None] <= mids[None, :])
            & (hi[:, a][:, None] >= mids[None, :])
        )
        widths.append(values[1:] - values[:-1])
    return _measure_recursive(spans, widths, 0, np.ones(k, dtype=bool))


def _measure_recursive(
    spans: list[np.ndarray],
    widths: list[np.ndarray],
    axis: int,
    active: np.ndarray,
) -> float:
    if axis >= len(spans) - 2:
        return _measure_last_axes(spans, widths, axis, active)
    total = 0.0
    span = spans[axis]
    width = widths[axis]
    for j in range(span.shape[1]):
        spanning = active & span[:, j]
        if not spanning.any():
            continue
        total += float(width[j]) * _measure_recursive(
            spans, widths, axis + 1, spanning
        )
    return total


def _measure_last_axes(
    spans: list[np.ndarray],
    widths: list[np.ndarray],
    axis: int,
    active: np.ndarray,
) -> float:
    """Measure of the final one or two axes for the active box subset."""
    if axis == len(spans) - 1:
        covered = np.any(spans[axis] & active[:, None], axis=0)
        total = 0.0
        width = widths[axis]
        for j in np.flatnonzero(covered):
            total += float(width[j])
        return total
    # Two axes left: one uint8 matmul yields the covered-cell grid.
    span_a = (spans[axis] & active[:, None]).astype(np.uint8)
    span_b = spans[axis + 1].astype(np.uint8)
    covered = (span_a.T @ span_b) > 0  # (cells_a, cells_b)
    width_a = widths[axis]
    width_b = widths[axis + 1]
    total = 0.0
    for i in np.flatnonzero(np.any(covered, axis=1)):
        inner = 0.0
        for j in np.flatnonzero(covered[i]):
            inner += float(width_b[j])
        total += float(width_a[i]) * inner
    return total


def sample_points_arrays(
    lo: np.ndarray,
    hi: np.ndarray,
    rng: np.random.Generator,
    n: int,
) -> np.ndarray:
    """``n`` points sampled from the union, box chosen proportionally to
    volume (uniform over boxes when all volumes vanish).  Draws from the
    generator in the same order as the oracle, so identical seeds yield
    identical samples."""
    k, dim = lo.shape
    volumes = np.prod(hi - lo, axis=1)
    if volumes.sum() > 0:
        probs = volumes / volumes.sum()
    else:
        probs = np.full(k, 1.0 / k)
    counts = rng.multinomial(n, probs)
    chunks = [
        rng.uniform(lo[i], hi[i], size=(int(count), dim))
        for i, count in enumerate(counts)
        if count
    ]
    return np.vstack(chunks) if chunks else np.empty((0, dim))
