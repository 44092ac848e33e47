"""STR row partition: coverage, disjointness, balance."""

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.shard.partition import partition_matrix, shard_assignment


def _points(n, d=2, seed=0):
    return np.random.default_rng(seed).random((n, d))


class TestPartitionMatrix:
    @pytest.mark.parametrize("shards", [1, 2, 3, 7])
    def test_covers_all_rows_exactly_once(self, shards):
        pts = _points(53)
        parts = partition_matrix(pts, shards)
        assert len(parts) == shards
        merged = np.concatenate(parts)
        assert sorted(merged.tolist()) == list(range(53))

    def test_balance_within_one_row(self):
        parts = partition_matrix(_points(100), 7)
        sizes = [p.size for p in parts]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 100

    def test_shards_are_spatially_compact(self):
        """STR runs cover compact areas: each shard's bounding box is a
        fraction of the universe, unlike contiguous row ranges."""
        pts = _points(400)
        for part in partition_matrix(pts, 4):
            span = pts[part].max(axis=0) - pts[part].min(axis=0)
            assert np.prod(span) < 0.5

    def test_more_shards_than_rows(self):
        parts = partition_matrix(_points(3), 7)
        assert len(parts) == 7
        assert sum(p.size for p in parts) == 3

    def test_empty_matrix(self):
        parts = partition_matrix(np.empty((0, 2)), 4)
        assert len(parts) == 4
        assert all(p.size == 0 for p in parts)

    def test_dtype_is_int64(self):
        for part in partition_matrix(_points(10), 3):
            assert part.dtype == np.int64

    def test_rejects_bad_arguments(self):
        with pytest.raises(InvalidParameterError):
            partition_matrix(_points(5), 0)
        with pytest.raises(InvalidParameterError):
            partition_matrix(np.zeros(5), 2)

    def test_degenerate_coordinates(self):
        # All-identical points must still partition.
        parts = partition_matrix(np.ones((20, 2)), 3)
        assert sum(p.size for p in parts) == 20


class TestShardAssignment:
    def test_inverse_of_partition(self):
        pts = _points(31)
        parts = partition_matrix(pts, 4)
        assignment = shard_assignment(parts, 31)
        for shard_id, part in enumerate(parts):
            assert np.all(assignment[part] == shard_id)

    def test_uncovered_row_rejected(self):
        parts = [np.array([0, 1], dtype=np.int64)]
        with pytest.raises(InvalidParameterError):
            shard_assignment(parts, 3)
