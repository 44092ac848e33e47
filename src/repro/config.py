"""Library-wide configuration objects.

The most consequential knob is :class:`DominancePolicy`: the paper's formal
definitions use *weak* dominance (``<=`` everywhere, ``<`` somewhere) while
its constructive algorithms place answers exactly on window boundaries, which
is only consistent when a point excludes the query from a dynamic skyline if
it is *strictly* closer in every dimension (the open-window test).  See
DESIGN.md section 2 for the full analysis.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class DominancePolicy(enum.Enum):
    """How boundary ties are treated when one point excludes another.

    ``WEAK``
        ``p`` excludes ``q`` w.r.t. ``c`` when ``|c-p| <= |c-q|`` in every
        dimension and ``<`` in at least one (textbook Definition 2).

    ``STRICT``
        ``p`` excludes ``q`` w.r.t. ``c`` only when ``|c-p| < |c-q|`` in
        every dimension (the open-window semantics that the paper's worked
        examples follow).  Under this policy a point placed exactly on the
        window boundary is safe.
    """

    WEAK = "weak"
    STRICT = "strict"


@dataclass(frozen=True)
class WhyNotConfig:
    """Settings shared by the why-not modification algorithms.

    Attributes
    ----------
    policy:
        Dominance policy used to *verify* candidate answers.  ``STRICT``
        matches the paper's worked examples; candidates produced by
        Algorithms 1-2 sit exactly on window boundaries.
    sort_dim:
        The dimension used to sort the merge lists in Algorithms 1-3
        (the paper's arbitrary dimension *i*).
    margin:
        Optional relative nudge (fraction of the per-dimension movement)
        applied past each boundary so candidates also verify under the
        ``WEAK`` policy.  ``0.0`` reproduces the paper's formulas verbatim.
    verify:
        When true, each candidate is checked against the index before it is
        returned; unverifiable candidates are flagged, never silently kept.
    kernel_block_size:
        Customer tile width of the blocked kernels; peak intermediate
        memory is ``O(kernel_block_size ** 2)`` per array.  ``None``
        (default) picks the width from the dimensionality and a
        working-set budget (:func:`repro.kernels.membership.
        auto_block_size`).  Any positive value yields the same results.
    sr_box_budget:
        Upper bound on the box count of the running safe-region
        intersection (``0`` = unlimited, the exact default).  When the
        simplified intermediate exceeds the budget, only the
        largest-volume boxes are kept — an *under*-approximation, which
        is safe by Lemma 2 (any subset of a safe region is safe) but may
        under-report area; intended for adversarial inputs where the
        distributed product grows combinatorially.
    trace:
        When true, the engine records nested timing spans and work
        counters through its :class:`repro.obs.Observability` bundle
        (see docs/OBSERVABILITY.md); results are unchanged.  When false
        (default) every instrumented call site takes the no-op fast
        path, costing about one attribute lookup.
    journal:
        When true, the engine keeps a bounded per-query journal
        (:class:`repro.obs.journal.QueryJournal`): one provenance
        record per executed plan — surface, chosen operator, dataset
        epoch, config fingerprint, measured seconds and the per-request
        counter deltas — feeding ``engine.journal`` and the
        ``repro.obs/3`` export.
        Independent of ``trace`` (journaling without spans is the
        cheap serving-mode default posture); overhead is bounded by
        the <2% A/B of ``benchmarks/bench_obs.py``.
    journal_capacity:
        Ring size of the query journal; older records are evicted
        FIFO and counted in ``journal.dropped``.
    planner:
        Operator-selection mode of the :mod:`repro.plan` layer, and the
        one way to force an execution arm.  ``"auto"`` (default) resolves
        to the ``"pruned"`` pin when the surface has a pruned operator
        and the tile summaries predict a centroid refine rate of at most
        :data:`repro.plan.planner.PRUNE_BELOW`, else to the ``"kernel"``
        pin; it never picks the index loops.  A pin forces the arm of
        every row-mask surface (reverse skyline, membership, retained
        mask) and of batch answering: ``"index"`` runs one index window
        probe per customer (the oracle path) and batch questions one by
        one; ``"kernel"`` runs the blocked NumPy kernels of
        :mod:`repro.kernels` with a membership prefilter for batches;
        ``"pruned"`` runs the filter-refinement kernels of
        :mod:`repro.prune` where they apply.  Answers are identical
        under every mode — operators are property-tested equivalent —
        only runtimes differ.
    prune_tile_size:
        Tile width of the pruning classifier (customer tiles and
        product chunks of the summaries).  ``None`` (default) follows
        the resolved kernel block size so one tile of classification
        describes exactly one kernel tile.
    prefs_weights:
        The engine's *default* per-dimension preference weights (see
        :mod:`repro.prefs`): non-negative, finite, at least one
        positive; ``None`` (default) is unit weights — the historical
        behaviour, bit-identical to every pre-preference code path.
        Per-request ``weights=`` arguments override this default
        without touching it.  A zero weight drops that dimension from
        every dominance comparison (projection semantics); positive
        magnitudes only price movement costs.  Full-support defaults
        keep a :class:`repro.core.dsl_cache.DSLCache` (each customer's
        dynamic skyline and staircase region computed once and shared
        by every surface); defaults with a dropped dimension keep none.
        Under either, every mutation flushes the derived caches.
    """

    policy: DominancePolicy = DominancePolicy.STRICT
    sort_dim: int = 0
    margin: float = 0.0
    verify: bool = True
    kernel_block_size: int | None = None
    sr_box_budget: int = 0
    trace: bool = False
    journal: bool = False
    journal_capacity: int = 256
    planner: str = "auto"
    prune_tile_size: int | None = None
    prefs_weights: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.sort_dim < 0:
            raise ValueError("sort_dim must be non-negative")
        if not 0.0 <= self.margin < 1.0:
            raise ValueError("margin must lie in [0, 1)")
        if self.kernel_block_size is not None and self.kernel_block_size < 1:
            raise ValueError(
                "kernel_block_size must be a positive integer or None (auto)"
            )
        if self.sr_box_budget < 0:
            raise ValueError("sr_box_budget must be non-negative (0 = unlimited)")
        if self.journal_capacity < 1:
            raise ValueError("journal_capacity must be a positive integer")
        if self.planner not in ("auto", "index", "kernel", "pruned"):
            raise ValueError(
                f"unknown planner mode {self.planner!r}; "
                "use 'auto', 'index', 'kernel' or 'pruned'"
            )
        if self.prune_tile_size is not None and self.prune_tile_size < 1:
            raise ValueError(
                "prune_tile_size must be a positive integer or None"
            )
        if self.prefs_weights is not None:
            # Validated inline: repro.prefs imports this module for the
            # policy enum, so the config cannot import it back.
            try:
                weights = tuple(float(w) for w in self.prefs_weights)
            except (TypeError, ValueError):
                raise ValueError(
                    "prefs_weights must be a sequence of numbers or None"
                ) from None
            if not weights:
                raise ValueError("prefs_weights must not be empty")
            if any(w != w or w in (float("inf"), float("-inf")) for w in weights):
                raise ValueError("prefs_weights must be finite")
            if any(w < 0 for w in weights):
                raise ValueError("prefs_weights must be non-negative")
            if not any(w > 0 for w in weights):
                raise ValueError(
                    "at least one preference weight must be positive"
                )
            object.__setattr__(self, "prefs_weights", weights)


@dataclass(frozen=True)
class CostWeights:
    """Weight vectors for the cost model of Eqn. (9)/(11).

    ``alpha`` weights movement of the query point, ``beta`` movement of the
    why-not (or lost-customer) points.  ``None`` means equal weights summing
    to one over the dimensionality, which is the setting of Section VI.
    """

    alpha: tuple[float, ...] | None = None
    beta: tuple[float, ...] | None = None

    def resolved(self, dim: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """Return concrete ``(alpha, beta)`` tuples for ``dim`` dimensions."""
        default = tuple(1.0 / dim for _ in range(dim))
        alpha = self.alpha if self.alpha is not None else default
        beta = self.beta if self.beta is not None else default
        if len(alpha) != dim or len(beta) != dim:
            raise ValueError(
                f"weight vectors must have length {dim}, "
                f"got alpha={len(alpha)}, beta={len(beta)}"
            )
        if any(w < 0 for w in alpha) or any(w < 0 for w in beta):
            raise ValueError("weights must be non-negative")
        return tuple(alpha), tuple(beta)


@dataclass(frozen=True)
class RTreeConfig:
    """Fanout of the STR-packed R-tree.

    The paper uses 1536-byte pages; with 2-D float64 rectangles plus a child
    pointer (40 bytes/entry) that is ~38 entries per node, so the default
    mirrors the paper's fanout while remaining configurable.
    """

    max_entries: int = 38

    def __post_init__(self) -> None:
        if self.max_entries < 4:
            raise ValueError("max_entries must be at least 4")


DEFAULT_CONFIG = WhyNotConfig()
DEFAULT_WEIGHTS = CostWeights()
DEFAULT_RTREE = RTreeConfig()
