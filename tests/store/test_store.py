"""Tests for the versioned copy-on-write stores."""

import numpy as np
import pytest

from repro import CustomerStore, ProductStore, Snapshot
from repro.exceptions import InvalidParameterError


def _store(n: int = 5, d: int = 2) -> ProductStore:
    rng = np.random.default_rng(3)
    return ProductStore(rng.uniform(0.0, 1.0, size=(n, d)))


class TestConstruction:
    def test_matrix_is_frozen_copy(self):
        raw = np.arange(6.0).reshape(3, 2)
        store = ProductStore(raw)
        assert not store.matrix.flags.writeable
        assert raw.flags.writeable  # the caller's array is untouched
        raw[0, 0] = 99.0
        assert store.matrix[0, 0] == 0.0

    def test_introspection(self):
        store = _store(5, 3)
        assert (store.size, store.dim, store.epoch) == (5, 3, 0)
        assert "epoch=0" in repr(store)

    def test_roles(self):
        assert ProductStore.role == "product"
        assert CustomerStore.role == "customer"


class TestInsert:
    def test_appends_and_bumps_epoch(self):
        store = _store(4)
        rows = np.array([[0.1, 0.2], [0.3, 0.4]])
        mutation = store.insert(rows)
        assert store.size == 6
        assert store.epoch == 1
        assert mutation.kind == "insert"
        assert mutation.epoch == 1
        assert mutation.positions.tolist() == [4, 5]
        assert np.array_equal(store.matrix[4:], rows)

    def test_mapping_is_identity(self):
        store = _store(4)
        mutation = store.insert([[0.5, 0.5]])
        assert mutation.mapping.tolist() == [0, 1, 2, 3]

    def test_empty_insert_is_noop(self):
        store = _store(4)
        mutation = store.insert(np.empty((0, 2)))
        assert mutation.is_noop
        assert store.epoch == 0

    def test_dimension_mismatch_rejected(self):
        store = _store(4, d=2)
        with pytest.raises(Exception):
            store.insert(np.zeros((1, 3)))


class TestDelete:
    def test_compacts_and_maps(self):
        store = _store(5)
        before = store.matrix.copy()
        mutation = store.delete([1, 3])
        assert store.size == 3
        assert mutation.kind == "delete"
        assert mutation.positions.tolist() == [1, 3]
        assert mutation.mapping.tolist() == [0, -1, 1, -1, 2]
        assert np.array_equal(store.matrix, before[[0, 2, 4]])

    def test_duplicate_positions_deduplicated(self):
        store = _store(5)
        mutation = store.delete([2, 2, 0])
        assert mutation.positions.tolist() == [0, 2]
        assert store.size == 3

    def test_out_of_range_rejected(self):
        store = _store(5)
        with pytest.raises(InvalidParameterError, match="position 5"):
            store.delete([5])
        with pytest.raises(InvalidParameterError, match="position -1"):
            store.delete([-1])

    def test_empty_delete_is_noop(self):
        store = _store(5)
        assert store.delete([]).is_noop
        assert store.epoch == 0


class TestUpdate:
    def test_replaces_rows(self):
        store = _store(5)
        rows = np.array([[0.9, 0.9], [0.1, 0.1]])
        before = store.matrix.copy()
        mutation = store.update([3, 1], rows)
        # Positions are normalised ascending, points carried along.
        assert mutation.positions.tolist() == [1, 3]
        assert np.array_equal(store.matrix[[1, 3]], rows[[1, 0]])
        assert np.array_equal(store.matrix[[0, 2, 4]], before[[0, 2, 4]])

    def test_mapping_is_identity(self):
        store = _store(4)
        mutation = store.update([0], [[0.5, 0.5]])
        assert mutation.mapping.tolist() == [0, 1, 2, 3]

    def test_distinct_positions_required(self):
        store = _store(4)
        with pytest.raises(InvalidParameterError, match="distinct"):
            store.update([1, 1], [[0.1, 0.1], [0.2, 0.2]])

    def test_count_mismatch_rejected(self):
        store = _store(4)
        with pytest.raises(InvalidParameterError, match="2 positions but 1"):
            store.update([0, 1], [[0.1, 0.1]])

    def test_out_of_range_uses_role(self):
        with pytest.raises(InvalidParameterError, match="product position"):
            _store(4).update([9], [[0.1, 0.1]])
        with pytest.raises(InvalidParameterError, match="customer position"):
            CustomerStore(np.zeros((2, 2))).update([9], [[0.1, 0.1]])


class TestSnapshots:
    def test_snapshot_survives_mutations(self):
        store = _store(4)
        snap = store.snapshot()
        assert isinstance(snap, Snapshot)
        frozen = snap.matrix
        store.delete([0])
        store.insert([[0.5, 0.5]])
        assert snap.epoch == 0
        assert snap.size == 4
        assert np.array_equal(snap.matrix, frozen)
        assert not snap.matrix.flags.writeable

    def test_each_mutation_builds_a_new_array(self):
        store = _store(4)
        before = store.matrix
        store.update([0], [[0.7, 0.7]])
        assert store.matrix is not before
        assert before[0, 0] != 0.7 or True  # old array is untouched
        assert not before.flags.writeable
        for mutate in (
            lambda: store.insert([[0.5, 0.5]]),
            lambda: store.delete([0]),
            lambda: store.update([0], [[0.1, 0.1]]),
        ):
            mutate()
            assert not store.matrix.flags.writeable
            assert store.matrix.flags.c_contiguous

