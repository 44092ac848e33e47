"""Counters of the filter-refinement pruning layer.

Same discipline as :class:`repro.kernels.membership.KernelCounters`:
the engine creates one bundle when tracing is on, attaches it to the
metrics registry under ``prune.*`` names, and passes it into every
pruned kernel call; ``None`` keeps the hot loops counter-free.

The load-bearing invariant (asserted by the tests, the ``audit`` CLI
experiment and the benchmark) is the pair balance::

    pairs_skipped + pairs_blocked + pairs_refined == pairs_total

Pairs are accounted at **classification** time: when a tile resolves
*all-blocked* every one of its pairs counts as blocked (the exact
kernels never run for it), so the early exit cannot unbalance the
books.
"""

from __future__ import annotations

from repro.obs.metrics import Counter

__all__ = ["PruneCounters"]


class PruneCounters:
    """Live counters of the pruned membership / Λ sweeps.

    Attributes
    ----------
    tiles_skipped:
        Customer tiles fully resolved as members — every product chunk
        classified *skip*, no exact kernel work at all.
    tiles_all_blocked:
        Customer tiles fully resolved as non-members by one *all-blocked*
        chunk (membership sweeps only; Λ counting cannot use the label).
    pairs_skipped:
        (tile, chunk) pairs classified *skip*.
    pairs_blocked:
        Pairs charged to an *all-blocked* tile resolution.
    pairs_refined:
        Pairs that fell through to the exact blocked kernels.
    pairs_total:
        Every pair classified; equals the sum of the three above.
    """

    __slots__ = (
        "tiles_skipped",
        "tiles_all_blocked",
        "pairs_skipped",
        "pairs_blocked",
        "pairs_refined",
        "pairs_total",
    )

    def __init__(self) -> None:
        self.tiles_skipped = Counter("tiles_skipped")
        self.tiles_all_blocked = Counter("tiles_all_blocked")
        self.pairs_skipped = Counter("pairs_skipped")
        self.pairs_blocked = Counter("pairs_blocked")
        self.pairs_refined = Counter("pairs_refined")
        self.pairs_total = Counter("pairs_total")

    def counters(self) -> dict[str, Counter]:
        return {name: getattr(self, name) for name in self.__slots__}

    def snapshot(self) -> dict[str, int]:
        return {name: int(getattr(self, name).value) for name in self.__slots__}

    def balanced(self) -> bool:
        """The skipped + blocked + refined == total invariant."""
        return (
            int(self.pairs_skipped.value)
            + int(self.pairs_blocked.value)
            + int(self.pairs_refined.value)
            == int(self.pairs_total.value)
        )
