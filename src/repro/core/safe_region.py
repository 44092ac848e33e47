"""Algorithm 3 — the exact safe region of the query point.

``SR(q)`` is the intersection of the dynamic anti-dominance regions of all
existing reverse-skyline points (Lemma 2): anywhere inside it, ``q`` keeps
every current customer.  Each anti-dominance region is represented as
``|DSL(c)| + 1`` axis-aligned rectangles centred at the customer (Fig. 10):
the staircase of the customer's dynamic skyline read in distance space.

Boundary semantics: boxes are closed, which is exact under the STRICT
(open-window) exclusion policy the paper's constructions follow — a query
placed exactly on a staircase boundary is *not* excluded from the dynamic
skyline (DESIGN.md §2).

Dimensionality: the staircase decomposition is exact for 2-D data (the
paper's setting).  For ``d > 2`` this module falls back to a conservative
under-approximation (per-skyline-point boxes plus one slab per dimension),
every box of which provably lies inside the true region, so Lemma 2's
guarantee — no existing customer lost — is preserved.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.config import WhyNotConfig
from repro.exceptions import InvalidParameterError
from repro.geometry import region_array as _ra
from repro.geometry.box import Box
from repro.geometry.point import as_point
from repro.geometry.region import BoxRegion
from repro.geometry.region_oracle import OracleBoxRegion
from repro.geometry.transform import to_query_space
from repro.index.base import SpatialIndex
from repro.obs.stats import CounterBackedStats
from repro.prefs.model import support_dims
from repro.skyline.dynamic import dynamic_skyline_indices

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (dsl_cache imports us)
    from repro.core.dsl_cache import DSLCache

__all__ = [
    "SafeRegion",
    "SafeRegionStats",
    "anti_dominance_region",
    "staircase_boxes",
    "staircase_arrays",
    "compute_safe_region",
    "compute_safe_region_oracle",
]


def _reach(origin: np.ndarray, bounds: Box) -> np.ndarray:
    """Per-dimension distance from ``origin`` to the farther universe edge
    (the paper's 'maximum value appearing in the dataset' shift, expressed
    as a distance so the region covers the whole slab)."""
    return np.maximum(origin - bounds.lo, bounds.hi - origin)


def staircase_boxes(
    origin: np.ndarray,
    thresholds: np.ndarray,
    bounds: Box,
    sort_dim: int,
    dims: np.ndarray | None = None,
) -> list[Box]:
    """Rectangles of an anti-dominance region from DSL distance vectors.

    ``thresholds`` is the ``(m, d)`` matrix ``|origin - s|`` over the
    dynamic skyline points ``s``; the result has ``m + 1`` boxes for 2-D
    (first-shifted, pairwise maxima, last-shifted — Fig. 10) and
    ``m + d`` boxes for higher dimensions (per-point boxes plus one slab
    per dimension, the conservative variant).

    ``dims`` restricts dominance to the preference support
    (:mod:`repro.prefs`): the staircase is built over the support columns
    (exact when exactly two survive) and every box spans the full data
    extent in the dropped dimensions, where dominance places no
    constraint.
    """
    m, dim = thresholds.shape
    if m == 0:
        clipped = Box(bounds.lo.copy(), bounds.hi.copy())
        return [clipped]
    full_reach = _reach(origin, bounds)
    if dims is None:
        sub_t, reach, sd, width = thresholds, full_reach, sort_dim, dim
    else:
        sel = np.asarray(dims, dtype=np.int64)
        sub_t = thresholds[:, sel]
        reach = full_reach[sel]
        where = np.flatnonzero(sel == sort_dim)
        sd = int(where[0]) if where.size else 0
        width = int(sel.size)
    entries: list[np.ndarray] = []
    if width == 2:
        order = np.argsort(sub_t[:, sd], kind="stable")
        sorted_t = sub_t[order]
        first = sorted_t[0].copy()
        for d in range(width):
            if d != sd:
                first[d] = reach[d]
        entries.append(first)
        for left, right in zip(sorted_t[:-1], sorted_t[1:]):
            entries.append(np.maximum(left, right))
        last = sorted_t[-1].copy()
        last[sd] = reach[sd]
        entries.append(last)
    else:
        # Conservative width > 2 construction: each DSL point's own box is
        # inside the region, and so is the slab below the per-dimension
        # minimum threshold.  (For width == 1 the slab alone is already
        # exact: the region is the interval below the smallest threshold.)
        entries.extend(sub_t)
        minima = sub_t.min(axis=0)
        for d in range(width):
            slab = reach.copy()
            slab[d] = minima[d]
            entries.append(slab)
    boxes: list[Box] = []
    for entry in entries:
        if dims is None:
            extent = entry
        else:
            extent = full_reach.copy()
            extent[np.asarray(dims, dtype=np.int64)] = entry
        box = Box.from_center(origin, extent).clip_to(bounds)
        if box is not None:
            boxes.append(box)
    return boxes


def staircase_arrays(
    origin: np.ndarray,
    thresholds: np.ndarray,
    bounds: Box,
    sort_dim: int,
    dims: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`staircase_boxes` as ``(lo, hi)`` corner arrays, bit for bit,
    built in a few array operations with no :class:`Box` per entry."""
    m, dim = thresholds.shape
    if m == 0:
        return bounds.lo[None, :].copy(), bounds.hi[None, :].copy()
    full_reach = _reach(origin, bounds)
    sel = np.arange(dim) if dims is None else np.asarray(dims, dtype=np.int64)
    sub_t, reach = thresholds[:, sel], full_reach[sel]
    if sel.size == 2:
        sd = int(sel[1] == sort_dim)
        t = sub_t[np.argsort(sub_t[:, sd], kind="stable")]
        entries = np.vstack([t[:1], np.maximum(t[:-1], t[1:]), t[-1:]])
        entries[0, 1 - sd] = reach[1 - sd]
        entries[-1, sd] = reach[sd]
    else:
        slabs = np.tile(reach, (sel.size, 1))
        np.fill_diagonal(slabs, sub_t.min(axis=0))
        entries = np.vstack([sub_t, slabs])
    extent = np.tile(full_reach, (entries.shape[0], 1))
    extent[:, sel] = entries
    return _ra.clip_arrays(origin - extent, origin + extent, bounds.lo, bounds.hi)


def anti_dominance_region(
    index: SpatialIndex,
    origin: Sequence[float],
    bounds: Box,
    sort_dim: int = 0,
    exclude: Sequence[int] = (),
    dsl_positions: np.ndarray | None = None,
    weights: "np.ndarray | None" = None,
) -> BoxRegion:
    """The dynamic anti-dominance region of ``origin`` as a box union.

    Computes ``DSL(origin)`` over the indexed products (unless
    ``dsl_positions`` is supplied) and decomposes the complement of its
    dominance region into rectangles.  With ``weights`` both the dynamic
    skyline and the staircase run in the preference-support subspace.
    """
    o = as_point(origin, dim=index.dim)
    w = None if weights is None else np.asarray(weights, dtype=np.float64)
    dims = support_dims(w, index.dim)
    if dsl_positions is None:
        dsl_positions = dynamic_skyline_indices(
            index.points, o, exclude, weights=w
        )
    thresholds = (
        to_query_space(index.points[dsl_positions], o)
        if dsl_positions.size
        else np.empty((0, index.dim))
    )
    lo, hi = staircase_arrays(o, thresholds, bounds, sort_dim, dims=dims)
    return BoxRegion.from_arrays(lo, hi, dim=index.dim).simplify()


class SafeRegionStats(CounterBackedStats):
    """Construction counters of one ``compute_safe_region`` call.

    Benchmarks (``benchmarks/bench_safe_region.py``) and EXPERIMENTS.md
    report these; they also make cache effectiveness observable in
    production (``WhyNotEngine.last_safe_region_stats``).  Like the
    other stats views it is counter-backed (``snapshot() -> dict`` /
    ``reset()``; see :mod:`repro.obs.stats`), so an engine can attach
    the live counters under ``safe_region.*`` registry names.

    Attributes
    ----------
    members:
        ``|RSL(q)|`` — number of anti-dominance regions intersected.
    intersections:
        Pairwise region intersections actually performed (< ``members``
        when the empty-region early exit fires).
    boxes_before_simplify / boxes_after_simplify:
        Total raw pairwise pieces produced, and survivors after
        containment pruning, summed over all intersections — the
        combinatorial pressure Algorithm 3's simplification absorbs.
    peak_boxes:
        Largest simplified intermediate representation.
    budget_truncations:
        Times the ``sr_box_budget`` under-approximation dropped boxes
        (0 on the exact path).
    early_exit:
        Whether the running intersection collapsed to empty before all
        members were processed.
    cache_hits / cache_misses:
        DSL-cache lookups served / missed during this construction
        (both 0 when no cache was supplied).
    member_seconds:
        Wall time spent building member anti-dominance regions.
    build_seconds:
        Total wall time of the construction.
    """

    _INT_FIELDS = (
        "members",
        "intersections",
        "boxes_before_simplify",
        "boxes_after_simplify",
        "peak_boxes",
        "budget_truncations",
        "cache_hits",
        "cache_misses",
    )
    _FLOAT_FIELDS = ("member_seconds", "build_seconds")
    _BOOL_FIELDS = ("early_exit",)

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0


@dataclass
class SafeRegion:
    """The safe region of a query point with its provenance.

    Attributes
    ----------
    query:
        The query point ``q``.
    region:
        Union-of-boxes representation of ``SR(q)``.
    rsl_positions:
        Positions (into the customer matrix) of ``RSL(q)`` used to build it.
    approximate:
        True when built from sampled dynamic skylines (Section VI.B.1);
        the approximate region is a subset of the exact one.
    stats:
        Construction counters (``None`` for regions not built by
        :func:`compute_safe_region`).
    """

    query: np.ndarray
    region: BoxRegion
    rsl_positions: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )
    approximate: bool = False
    stats: SafeRegionStats | None = None

    def area(self) -> float:
        """Lebesgue measure of the region (Figure 14's y-axis)."""
        return self.region.measure()

    def contains(self, point: Sequence[float]) -> bool:
        return self.region.contains_point(point)

    def is_degenerate(self) -> bool:
        """True when the region has collapsed to measure zero (typically
        the query point itself) and MWQ degenerates to MWP."""
        return self.area() == 0.0

    def restricted(self, limits: Box) -> "SafeRegion":
        """The safe region truncated to feature ``limits`` (Section V.B).

        Companies often may only vary certain feature ranges of a
        product; clipping the safe region to those limits keeps every
        guarantee (a subset of a safe region is safe).  Note the clipped
        region may no longer contain the original query point if the
        limits exclude it.
        """
        return SafeRegion(
            query=self.query,
            region=self.region.intersect_box(limits),
            rsl_positions=self.rsl_positions,
            approximate=self.approximate,
        )

    def __repr__(self) -> str:
        return (
            f"SafeRegion(|RSL|={self.rsl_positions.size}, "
            f"boxes={len(self.region)}, area={self.area():g}, "
            f"approximate={self.approximate})"
        )


#: Members of ``RSL(q)`` folded per chunk by the local and oracle
#: safe-region folds.  Each chunk is folded size-ascending, so the
#: partition fixes the fold order the oracle reproduces.
SR_CHUNK_SIZE = 16


def _member_chunks(positions: np.ndarray) -> list[list[int]]:
    """Contiguous position chunks of :data:`SR_CHUNK_SIZE` members."""
    items = [int(p) for p in positions]
    return [
        items[start : start + SR_CHUNK_SIZE]
        for start in range(0, len(items), SR_CHUNK_SIZE)
    ]


def compute_safe_region(
    index: SpatialIndex,
    customers: np.ndarray,
    query: Sequence[float],
    rsl_positions: np.ndarray,
    bounds: Box,
    config: WhyNotConfig | None = None,
    self_exclude: bool = False,
    dsl_cache: "DSLCache | None" = None,
    stats: SafeRegionStats | None = None,
    weights: "np.ndarray | None" = None,
) -> SafeRegion:
    """Algorithm 3: intersect the anti-dominance regions of all members.

    The assembly runs on the array engine: members are processed in
    contiguous chunks of :data:`SR_CHUNK_SIZE`; each chunk's regions
    are built (from the DSL cache when one is supplied), sorted
    size-ascending so small regions shrink the running intersection
    before large ones multiply against it, and folded in with one
    broadcasted pairwise clip + containment pruning per member.  The
    empty-region early exit fires between members — only the current
    chunk is ever materialised.

    Parameters
    ----------
    index:
        Spatial index over the products ``P``.
    customers:
        ``(n, d)`` customer matrix ``C``.
    query:
        The query point ``q``.
    rsl_positions:
        Positions of ``RSL(q)`` within ``customers``.
    bounds:
        The data universe (regions are clipped to it).
    self_exclude:
        Monochromatic convention: customer ``j`` is excluded from its own
        dynamic-skyline computation.
    dsl_cache:
        Optional :class:`repro.core.dsl_cache.DSLCache`; member threshold
        matrices and staircase regions are read through it instead of
        being recomputed.  Its ``self_exclude``/``sort_dim`` conventions
        must match this call's (the engine guarantees that).
    stats:
        Optional :class:`SafeRegionStats` to fill in place; a fresh one
        is created (and attached to the result) otherwise.
    weights:
        Optional preference weights (:mod:`repro.prefs`).  Full-support
        weights leave dominance — and therefore the region — unchanged,
        so the DSL cache stays valid; with partial support the member
        skylines and staircases run in the support subspace and the
        (full-dimensional) DSL cache is bypassed.

    Notes
    -----
    With no reverse-skyline point the safe region is the whole universe
    (there is nobody to lose).  The query point itself always belongs to
    its safe region; if floating-point rounding of the box corners ever
    drops it, the degenerate box ``{q}`` is added back explicitly.  With
    ``config.sr_box_budget > 0`` the intermediate representation is
    truncated to the largest-volume boxes — a safe under-approximation
    (Lemma 2 holds for any subset).
    """
    config = config or WhyNotConfig()
    stats = stats if stats is not None else SafeRegionStats()
    t_start = time.perf_counter()
    q = as_point(query, dim=index.dim)
    if not bounds.contains_point(q):
        raise InvalidParameterError("query point lies outside the given bounds")
    positions = np.asarray(rsl_positions, dtype=np.int64)
    custs = np.asarray(customers, dtype=np.float64)
    stats.members = int(positions.size)
    w = None if weights is None else np.asarray(weights, dtype=np.float64)
    if w is not None and support_dims(w, index.dim) is not None:
        # Partial support changes the member skylines; the cache holds
        # full-dimensional thresholds and must not serve this build.
        dsl_cache = None
    cache_before = (
        dsl_cache.stats.hit_miss() if dsl_cache is not None else (0, 0)
    )

    def member_region(position: int) -> BoxRegion:
        if dsl_cache is not None:
            return dsl_cache.region(position, bounds)
        return anti_dominance_region(
            index,
            custs[position],
            bounds,
            sort_dim=config.sort_dim,
            exclude=(int(position),) if self_exclude else (),
            weights=w,
        )

    budget = config.sr_box_budget
    run_lo, run_hi = _ra.boxes_to_arrays(
        [Box(bounds.lo.copy(), bounds.hi.copy())], index.dim
    )
    # The fold accumulates into locals and flushes to ``stats`` once
    # after the loop: the counter-backed properties cost a few hundred
    # nanoseconds per access, which adds up inside the per-member loop
    # (the warm-cache construction is sub-millisecond in total).
    member_secs = 0.0
    intersections = before_simplify = after_simplify = truncations = 0
    peak_boxes = 1
    early_exit = False
    for chunk in _member_chunks(positions):
        t_members = time.perf_counter()
        regions = [member_region(position) for position in chunk]
        member_secs += time.perf_counter() - t_members
        # Size-ascending fold: cheap members first keeps the pairwise
        # product small; ties keep position order for determinism.
        for i in sorted(range(len(regions)), key=lambda i: (len(regions[i]), i)):
            member = regions[i]
            piece_lo, piece_hi = _ra.pairwise_intersect(
                run_lo, run_hi, member.lo, member.hi
            )
            intersections += 1
            before_simplify += piece_lo.shape[0]
            run_lo, run_hi = _ra.simplify_arrays(piece_lo, piece_hi)
            after_simplify += run_lo.shape[0]
            if budget and run_lo.shape[0] > budget:
                # simplify_arrays returns volume-descending order: keeping
                # the head keeps the largest boxes (under-approximation).
                run_lo, run_hi = run_lo[:budget], run_hi[:budget]
                truncations += 1
            peak_boxes = max(peak_boxes, run_lo.shape[0])
            if run_lo.shape[0] == 0:
                early_exit = True
                break
        if run_lo.shape[0] == 0:
            break
    stats.member_seconds += member_secs
    stats.intersections += intersections
    stats.boxes_before_simplify += before_simplify
    stats.boxes_after_simplify += after_simplify
    stats.budget_truncations += truncations
    stats.peak_boxes = max(stats.peak_boxes, peak_boxes)
    if early_exit:
        stats.early_exit = True
    region = BoxRegion.from_arrays(run_lo, run_hi, dim=index.dim)
    if not region.contains_point(q):
        region = region.union(BoxRegion([Box(q, q)], dim=index.dim))
    if dsl_cache is not None:
        hits_after, misses_after = dsl_cache.stats.hit_miss()
        stats.cache_hits += hits_after - cache_before[0]
        stats.cache_misses += misses_after - cache_before[1]
    stats.build_seconds += time.perf_counter() - t_start
    return SafeRegion(
        query=q,
        region=region,
        rsl_positions=np.asarray(rsl_positions, dtype=np.int64),
        stats=stats,
    )


def compute_safe_region_oracle(
    index: SpatialIndex,
    customers: np.ndarray,
    query: Sequence[float],
    rsl_positions: np.ndarray,
    bounds: Box,
    config: WhyNotConfig | None = None,
    self_exclude: bool = False,
    weights: "np.ndarray | None" = None,
) -> SafeRegion:
    """Algorithm 3 on the pure-Python :class:`OracleBoxRegion` algebra.

    The reference implementation the array engine is validated and
    benchmarked against: same member order (chunked, size-ascending) and
    same staircase construction, but nested-loop intersection, O(k²)
    simplification and recursive measure.  Always exact — the box budget
    is deliberately ignored.  Used by property tests,
    ``benchmarks/bench_safe_region.py`` and the CI divergence check; not
    a production path.
    """
    config = config or WhyNotConfig()
    q = as_point(query, dim=index.dim)
    if not bounds.contains_point(q):
        raise InvalidParameterError("query point lies outside the given bounds")
    positions = np.asarray(rsl_positions, dtype=np.int64)
    custs = np.asarray(customers, dtype=np.float64)
    w = None if weights is None else np.asarray(weights, dtype=np.float64)
    dims = support_dims(w, index.dim)

    def member_region(position: int) -> OracleBoxRegion:
        o = custs[position]
        exclude = (position,) if self_exclude else ()
        dsl = dynamic_skyline_indices(index.points, o, exclude, weights=w)
        thresholds = (
            to_query_space(index.points[dsl], o)
            if dsl.size
            else np.empty((0, index.dim))
        )
        boxes = staircase_boxes(o, thresholds, bounds, config.sort_dim, dims)
        return OracleBoxRegion(boxes, dim=index.dim).simplify()

    region = OracleBoxRegion(
        [Box(bounds.lo.copy(), bounds.hi.copy())], dim=index.dim
    )
    for chunk in _member_chunks(positions):
        regions = [member_region(position) for position in chunk]
        for i in sorted(range(len(regions)), key=lambda i: (len(regions[i]), i)):
            region = region.intersect(regions[i])
            if region.is_empty():
                break
        if region.is_empty():
            break
    if not region.contains_point(q):
        region = region.union(OracleBoxRegion([Box(q, q)], dim=index.dim))
    # The SafeRegion duck-types over the oracle algebra so area()/contains()
    # stay pure-Python end to end — nothing here touches the array engine.
    return SafeRegion(
        query=q,
        region=region,  # type: ignore[arg-type]
        rsl_positions=np.asarray(rsl_positions, dtype=np.int64),
    )
