"""Cost model: dataset statistics and per-operator cost estimates.

The planner chooses between physical operators whose *answers* are
bit-identical (property-tested) but whose runtimes differ by orders of
magnitude with dataset shape: a blocked NumPy kernel amortises the
Python interpreter over ``block_size * n`` element operations, while a
per-customer index probe touches a handful of tree nodes but pays the
interpreter on every one.  The model follows the classic DB framing —
work units per operator, seconds per work unit per execution regime —
with constants calibrated once against the repository's own benchmark
artifacts (``BENCH_kernels.json``, ``BENCH_safe_region.json``); the
planner benchmark records the live estimation error so drift is visible
(``benchmarks/bench_planner.py``).

Nothing here affects answers: a wrong estimate can only pick the slower
of two bit-identical operators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import WhyNotEngine

__all__ = [
    "CostEstimate",
    "CostModel",
    "DatasetStats",
]


@dataclass(frozen=True)
class DatasetStats:
    """Everything the cost model reads about one engine generation.

    Attributes
    ----------
    n, m, d:
        Product rows, customer rows, dimensionality.
    backend:
        Spatial-index backend name (``"scan"`` or ``"rtree"``) —
        drives the per-window-query cost.
    epoch:
        Dataset epoch the stats were sampled at; a plan carries the
        stats it was costed with, so EXPLAIN can show staleness.
    dsl_warm:
        Warm entries in the engine's :class:`~repro.core.dsl_cache.
        DSLCache` (0 without one) — a warm cache collapses the
        per-member cost of safe-region assembly.
    prune_tile_size:
        The *resolved* classifier tile width of the engine's summaries.
    prune_refine_rate:
        Predicted fraction of (customer-tile, product-chunk) pairs the
        pruned kernels would have to refine exactly, sampled from the
        engine's epoch-versioned tile summaries at the dataset centroid
        (:meth:`repro.prune.summaries.PruneSummaries.
        centroid_refine_rate`).  ``1.0`` (the default) means nothing
        is prunable, which makes the pruned estimate strictly worse
        than the plain kernel and ``auto`` declines.
    """

    n: int
    m: int
    d: int
    backend: str
    epoch: int
    dsl_warm: int = 0
    prune_tile_size: int = 512
    prune_refine_rate: float = 1.0
    # Dimensions dominance actually compares under the engine-default
    # preference model (the support size); 0 means "same as d".  The
    # selectivity heuristics key their exponents on this — a projected
    # 2-of-5-dimension preference behaves like 2-D data.
    effective_d: int = 0

    @classmethod
    def of(cls, engine: "WhyNotEngine") -> "DatasetStats":
        """Sample the live statistics of one engine."""
        summaries = engine.prune_summaries
        return cls(
            n=int(engine.products.shape[0]),
            m=int(engine.customers.shape[0]),
            d=int(engine.dim),
            effective_d=int(engine.prefs.effective_dim(engine.dim)),
            backend=engine.backend,
            epoch=int(engine.dataset_epoch),
            dsl_warm=(
                engine.dsl_cache.entry_count()
                if engine.dsl_cache is not None
                else 0
            ),
            prune_tile_size=int(summaries.tile_size),
            prune_refine_rate=float(summaries.centroid_refine_rate()),
        )

    @property
    def expected_rsl(self) -> float:
        """Heuristic ``E[|RSL(q)|]``: skyline-sized, ``(ln m)^(d-1)``-ish.

        Uniform-data skylines grow polylogarithmically; the reverse
        skyline is the same order (the paper's Figure 14 workloads have
        |RSL| in the single digits at m = 200k).  Clamped to [1, m].
        """
        if self.m <= 1:
            return 1.0
        d_eff = self.effective_d or self.d
        grown = math.log(self.m + 1.0) ** max(1, d_eff - 1)
        return float(min(self.m, max(1.0, grown)))

    @property
    def expected_candidates(self) -> float:
        """Heuristic global-skyline candidate count BBRS verifies —
        a small constant factor above the final reverse skyline."""
        return float(min(self.m, 4.0 * self.expected_rsl + 4.0))


@dataclass(frozen=True)
class CostEstimate:
    """One operator's predicted work.

    ``ops`` counts elementary predicate/box evaluations (the
    path-independent work unit the obs layer also counts); ``seconds``
    converts them through the regime constants.  ``detail`` is a short
    human formula shown by EXPLAIN.
    """

    ops: float
    seconds: float
    detail: str = ""

    def __add__(self, other: "CostEstimate") -> "CostEstimate":
        return CostEstimate(
            ops=self.ops + other.ops,
            seconds=self.seconds + other.seconds,
            detail=self.detail or other.detail,
        )


class CostModel:
    """Per-regime constants + shared sub-formulas.

    Two execution regimes exist in this codebase:

    * **vectorised** — blocked NumPy kernels / the array region algebra:
      throughput-bound, ~``VECTOR_OP_S`` per element operation
      (calibrated from BENCH_kernels.json: ~68x over the loop at 10k x
      10k means ~1e8 element-ops/s through the blocked verify).
    * **interpreted** — per-customer Python loops over index probes:
      latency-bound, ~``PY_OP_S`` per touched node / loop iteration.
    """

    VECTOR_OP_S = 2.0e-9
    PY_OP_S = 2.5e-6
    #: Fixed overhead of entering any operator (plan node dispatch).
    DISPATCH_S = 5.0e-6

    def window_nodes(self, stats: DatasetStats) -> float:
        """Nodes/rows one window query touches, per backend."""
        n = max(1, stats.n)
        if stats.backend == "scan":
            # One vectorised mask over all rows, but a dozen interpreted
            # numpy-call steps to build the window box, mask and verify
            # (measured ~30us fixed per probe at any n).
            return 12.0
        # Tree descent: a root-to-leaf path plus boundary leaves.
        return 4.0 * math.log2(n + 2.0) + 8.0

    def window_seconds(self, stats: DatasetStats) -> float:
        """Wall seconds of one per-customer window query."""
        per_query = self.window_nodes(stats) * self.PY_OP_S
        if stats.backend == "scan":
            # Several full-length array passes per probe, not one.
            per_query += 4.0 * stats.n * self.VECTOR_OP_S
        return per_query

    def kernel_seconds(self, rows: float, stats: DatasetStats) -> float:
        """Wall seconds of one blocked kernel pass over ``rows``
        customers against all ``n`` products."""
        return rows * stats.n * stats.d * self.VECTOR_OP_S + self.PY_OP_S

    def dsl_build_seconds(self, stats: DatasetStats) -> float:
        """Building one customer's dynamic skyline from scratch."""
        return stats.n * stats.d * self.VECTOR_OP_S + self.PY_OP_S

    def region_fold_seconds(self, members: float, stats: DatasetStats) -> float:
        """Folding ``members`` staircase regions into the running
        safe-region intersection (array algebra, box counts grow with
        the staircase size ~ sqrt(n))."""
        boxes = math.sqrt(max(1.0, stats.n)) + 2.0
        return members * boxes * 8.0 * self.VECTOR_OP_S * 100 + self.PY_OP_S

    # ------------------------------------------------------------------
    # Filter-refinement (pruned) regime
    # ------------------------------------------------------------------
    def prune_classify_seconds(self, rows: float, stats: DatasetStats) -> float:
        """Fixed cost of the classification pass: per-tile customer AABB
        reductions over ``rows`` rows plus the (tiles x chunks x d)
        label fold — a few vectorised ops per pair — plus one
        interpreted step per customer tile."""
        tile = max(1, stats.prune_tile_size)
        tiles = math.ceil(max(1.0, rows) / tile)
        chunks = math.ceil(max(1, stats.n) / tile)
        bound_ops = (rows + stats.n) * stats.d
        label_ops = tiles * chunks * stats.d * 8.0
        return (bound_ops + label_ops) * self.VECTOR_OP_S + tiles * self.PY_OP_S

    def pruned_kernel_seconds(self, rows: float, stats: DatasetStats) -> float:
        """One pruned kernel pass: classification up front, then the
        exact blocked kernel over only the predicted refine fraction of
        (tile, chunk) pairs.  With ``prune_refine_rate == 1`` this is
        strictly worse than :meth:`kernel_seconds` — which is exactly
        how ``auto`` declines to prune when summaries predict no win."""
        refine = min(1.0, max(0.0, stats.prune_refine_rate))
        return (
            self.prune_classify_seconds(rows, stats)
            + refine * self.kernel_seconds(rows, stats)
            + self.PY_OP_S
        )
