"""Observability wiring of one :class:`~repro.core.engine.WhyNotEngine`.

Split out of the engine facade: everything here is registration — the
tracer/metrics bundle, the attached stats views, and the named counters
the rest of the codebase (operators, mutators, exporters, the audit)
reads back off the engine by attribute.  The attribute names are
load-bearing: :mod:`repro.core.mutators` and the plan operators access
``engine._mutations``, ``engine._membership_tests``,
``engine._kernel_counters`` and friends directly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.safe_region import SafeRegionStats
from repro.kernels.membership import KernelCounters
from repro.obs import Observability, QueryJournal
from repro.prune.counters import PruneCounters

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import WhyNotEngine

__all__ = ["install_observability"]

#: Root-span retention of a traced engine: enough history for any
#: realistic export or test, bounded so a long-lived traced server
#: cannot grow without limit (evictions count in
#: ``tracer.spans_dropped``).
TRACER_MAX_ROOTS = 4096


def install_observability(engine: "WhyNotEngine") -> None:
    """Create ``engine.obs`` and every engine-owned counter/gauge."""
    engine.obs = Observability(
        enabled=engine.config.trace, max_roots=TRACER_MAX_ROOTS
    )
    # Per-query journal: one JournalRecord per executed plan, recorded
    # by WhyNotEngine._run_plan.  Installed only when asked for — the
    # journal-off path must not pay the per-request counter snapshots.
    if engine.config.journal:
        engine.obs.journal = QueryJournal(
            capacity=engine.config.journal_capacity,
            metrics=engine.obs.metrics,
        )
    engine.obs.attach_stats("index", engine.index.stats)
    if engine.dsl_cache is not None:
        engine.obs.attach_stats("dsl_cache", engine.dsl_cache.stats)
    # Engine-lifetime safe-region totals (per-build numbers stay on
    # SafeRegion.stats / last_safe_region_stats).
    engine.safe_region_totals = SafeRegionStats()
    engine.obs.attach_stats("safe_region", engine.safe_region_totals)
    # Kernel and pruning counters (kernels.*, prune.*) are only threaded
    # through the hot loops when tracing: the disabled path must stay
    # counter-free.  The pair-balance invariant (pairs_skipped +
    # pairs_blocked + pairs_refined == pairs_total) is asserted over the
    # prune counters by the tests and the `audit` CLI experiment.
    engine._kernel_counters = None
    engine._prune_counters = None
    if engine.config.trace:
        engine._kernel_counters = KernelCounters()
        engine._prune_counters = PruneCounters()
        for family, bundle in (
            ("kernels", engine._kernel_counters),
            ("prune", engine._prune_counters),
        ):
            for name, counter in bundle.counters().items():
                engine.obs.metrics.attach(f"{family}.{name}", counter)
    # Path-independent work counter: one increment per membership
    # predicate evaluated, identical under every planner arm.
    engine._membership_tests = engine.obs.counter(
        "engine.membership_tests",
        "membership predicates evaluated (path-independent)",
    )
    # Mutation accounting: every committed store mutation, and the
    # cache entries each one's flush dropped.
    engine._mutations = engine.obs.counter(
        "engine.mutations", "committed dataset mutations"
    )
    engine._evicted_full = engine.obs.counter(
        "cache.evicted_full",
        "cache entries dropped by full invalidation",
    )
    # Preference-model traffic (prefs.*): how many surface requests ran
    # under the engine-default preference vs. a per-request override, and
    # how many result-cache consultations were bypassed because the
    # request's preference fingerprint differed from the default's.
    engine._prefs_default_requests = engine.obs.counter(
        "prefs.default_requests",
        "surface requests under the engine-default preference model",
    )
    engine._prefs_weighted_requests = engine.obs.counter(
        "prefs.weighted_requests",
        "surface requests carrying per-request preference weights",
    )
    engine._prefs_cache_bypass = engine.obs.counter(
        "prefs.cache_bypass",
        "result-cache consultations skipped on preference-fingerprint mismatch",
    )
    engine._epoch_gauge = engine.obs.gauge(
        "engine.dataset_epoch",
        "combined store epoch the caches are valid for",
    )
    engine._epoch_gauge.set(engine.dataset_epoch)
