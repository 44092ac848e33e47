"""Access statistics for spatial indexes.

The paper's performance section reports execution times that are dominated
by index traversal; tracking node accesses and comparisons lets the
benchmarks report an implementation-independent cost alongside wall-clock
time.

:class:`IndexStats` is a counter-backed view (see
:mod:`repro.obs.stats`): each field reads/writes a live
:class:`repro.obs.metrics.Counter`, which an engine registry can attach
under ``index.*`` names so the same values flow into traced exports.
"""

from __future__ import annotations

from repro.obs.stats import CounterBackedStats

__all__ = ["IndexStats"]


class IndexStats(CounterBackedStats):
    """Mutable counters updated by index operations.

    Attributes
    ----------
    node_accesses:
        Internal + leaf node visits (R-tree) or full scans (scan index).
    point_comparisons:
        Individual point-in-box / distance evaluations.
    queries:
        Number of query operations issued.
    rebuilds:
        Calls of :meth:`~repro.index.base.SpatialIndex.rebuild`: one per
        product mutation that changed the matrix.
    """

    _INT_FIELDS = (
        "node_accesses",
        "point_comparisons",
        "queries",
        "rebuilds",
    )

    def merge(self, other: "IndexStats") -> "IndexStats":
        """Return a new stats object with summed counters."""
        merged = IndexStats()
        for name in self._INT_FIELDS:
            setattr(merged, name, getattr(self, name) + getattr(other, name))
        return merged
