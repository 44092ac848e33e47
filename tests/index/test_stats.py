"""Tests for the IndexStats counters."""

from repro.index.stats import IndexStats


class TestIndexStats:
    def test_defaults_zero(self):
        stats = IndexStats()
        assert stats.snapshot() == {
            "node_accesses": 0,
            "point_comparisons": 0,
            "queries": 0,
            "rebuilds": 0,
        }

    def test_reset(self):
        stats = IndexStats(node_accesses=5, point_comparisons=9, queries=2)
        stats.reset()
        assert stats.node_accesses == 0
        assert stats.point_comparisons == 0
        assert stats.queries == 0

    def test_merge_sums(self):
        a = IndexStats(node_accesses=1, point_comparisons=2, queries=3)
        b = IndexStats(node_accesses=10, point_comparisons=20, queries=30)
        merged = a.merge(b)
        assert merged.node_accesses == 11
        assert merged.point_comparisons == 22
        assert merged.queries == 33

    def test_merge_sums_mutation_counters(self):
        a = IndexStats(rebuilds=2)
        b = IndexStats(rebuilds=5)
        merged = a.merge(b)
        assert merged.rebuilds == 7

    def test_merge_does_not_mutate(self):
        a = IndexStats(queries=1)
        b = IndexStats(queries=2)
        a.merge(b)
        assert a.queries == 1
        assert b.queries == 2
