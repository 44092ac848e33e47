"""Shared-memory matrix lifecycle: publish, attach, close."""

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.shard.sharedmem import MatrixSpec, SharedMatrix, attach_matrix


class TestSharedMatrix:
    def test_roundtrip_float64(self):
        data = np.random.default_rng(0).random((40, 3))
        with SharedMatrix(data) as shared:
            view, handle = attach_matrix(shared.spec)
            try:
                assert view.dtype == np.float64
                assert np.array_equal(view, data)
                assert not view.flags.writeable
            finally:
                del view
                handle.close()

    def test_spec_is_picklable_dataclass(self):
        import pickle

        spec = MatrixSpec(name="x", shape=(2, 2), dtype="<f8")
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_close_is_idempotent_and_invalidates_view(self):
        shared = SharedMatrix(np.zeros((2, 2)))
        assert shared.array.shape == (2, 2)
        shared.close()
        shared.close()
        with pytest.raises(InvalidParameterError):
            shared.array

    def test_rejects_non_2d(self):
        with pytest.raises(InvalidParameterError):
            SharedMatrix(np.zeros(5))

    def test_empty_matrix(self):
        with SharedMatrix(np.empty((0, 2))) as shared:
            view, handle = attach_matrix(shared.spec)
            try:
                assert view.shape == (0, 2)
            finally:
                del view
                handle.close()
