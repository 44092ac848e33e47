"""The plan cache: planned trees keyed by (shape, epoch, config).

Logical plans are coordinate-free, so one planned tree serves every
query point of the same shape; what *does* invalidate a plan is a
dataset mutation (the stats it was costed with are stale — the key
carries the epoch, and :func:`repro.core.mutators.apply_mutation`
clears the cache outright) or a different config fingerprint.

Counter contract (asserted by tests and the CI smoke):
``plan.cache_considered == plan.cache_hits + plan.cache_misses``; every
entry dropped by :meth:`PlanCache.clear` counts under
``plan.cache_evicted``.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.plan.executor import PlanNode

__all__ = ["PlanCache", "config_fingerprint"]


def config_fingerprint(config) -> tuple:
    """A hashable identity of every config field (enums by value)."""
    items = []
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        if isinstance(value, enum.Enum):
            value = value.value
        items.append((field.name, value))
    return tuple(items)


class _LocalCounter:
    """Stand-in with the :class:`repro.obs.Counter` increment surface,
    for plan caches used without an engine's metrics registry."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class PlanCache:
    """Maps ``(logical.cache_key(), epoch, config_fingerprint)`` to the
    planned :class:`~repro.plan.executor.PlanNode` tree."""

    def __init__(self, obs=None) -> None:
        self._entries: dict[tuple, "PlanNode"] = {}
        counter = (
            (lambda name, help: obs.counter(name, help))
            if obs is not None
            else (lambda name, help: _LocalCounter())
        )
        self.considered = counter(
            "plan.cache_considered", "plan-cache lookups"
        )
        self.hits = counter("plan.cache_hits", "plan-cache lookup hits")
        self.misses = counter("plan.cache_misses", "plan-cache lookup misses")
        self.evicted = counter(
            "plan.cache_evicted", "plan-cache entries dropped on mutation"
        )

    def get(self, key: tuple) -> "PlanNode | None":
        self.considered.inc()
        node = self._entries.get(key)
        if node is None:
            self.misses.inc()
        else:
            self.hits.inc()
        return node

    def put(self, key: tuple, node: "PlanNode") -> None:
        self._entries[key] = node

    def clear(self) -> int:
        """Drop every cached plan; returns (and counts) how many."""
        dropped = len(self._entries)
        self._entries.clear()
        if dropped:
            self.evicted.inc(dropped)
        return dropped

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        return key in self._entries
