"""Unit tests for sparse-matrix helpers and blocked matrices."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import ShapeError, ValidationError
from repro.linalg import (
    BlockedMatrix,
    as_csr,
    ensure_vector,
    row_partitions,
    to_dense,
    vstack_rows,
)


class TestAsCsr:
    def test_from_dense(self):
        out = as_csr(np.eye(3))
        assert sp.issparse(out) and out.format == "csr"

    def test_from_coo(self):
        out = as_csr(sp.coo_matrix(np.eye(3)))
        assert out.format == "csr"

    def test_dtype_conversion(self):
        out = as_csr(np.eye(2, dtype=np.int64), dtype=np.float64)
        assert out.dtype == np.float64


class TestEnsureVector:
    def test_flattens_column_vector(self):
        out = ensure_vector(np.ones((4, 1)), 4)
        assert out.shape == (4,)

    def test_wrong_length(self):
        with pytest.raises(ShapeError):
            ensure_vector([1.0, 2.0], 3)

    def test_2d_rejected(self):
        with pytest.raises(ShapeError):
            ensure_vector(np.ones((2, 2)))


class TestVstack:
    def test_sparse_plus_dense(self):
        out = vstack_rows(sp.csr_matrix(np.eye(2)), np.ones((1, 2)))
        assert out.shape == (3, 2)
        assert sp.issparse(out)

    def test_dense_plus_dense(self):
        out = vstack_rows(np.eye(2), np.eye(2))
        assert isinstance(out, np.ndarray) and out.shape == (4, 2)

    def test_column_mismatch(self):
        with pytest.raises(ShapeError):
            vstack_rows(np.eye(2), np.eye(3))

    def test_to_dense_roundtrip(self):
        m = np.arange(6.0).reshape(2, 3)
        np.testing.assert_allclose(to_dense(sp.csr_matrix(m)), m)


class TestRowPartitions:
    def test_balanced(self):
        parts = row_partitions(10, 3)
        assert parts[0][0] == 0 and parts[-1][1] == 10
        sizes = [stop - start for start, stop in parts]
        assert sum(sizes) == 10
        assert max(sizes) - min(sizes) <= 1

    def test_more_parts_than_rows(self):
        parts = row_partitions(2, 5)
        assert parts == [(0, 1), (1, 2)]

    def test_invalid(self):
        with pytest.raises(ValidationError):
            row_partitions(5, 0)


class TestBlockedMatrix:
    @pytest.fixture
    def matrix(self):
        gen = np.random.default_rng(0)
        return sp.csr_matrix((gen.random((20, 6)) < 0.4).astype(float))

    def test_roundtrip(self, matrix):
        blocked = BlockedMatrix.from_matrix(matrix, 4)
        assert blocked.num_blocks == 4
        np.testing.assert_allclose(
            blocked.to_matrix().toarray(), matrix.toarray()
        )

    def test_shape(self, matrix):
        blocked = BlockedMatrix.from_matrix(matrix, 3)
        assert blocked.shape == matrix.shape

    def test_block_row_ranges_cover(self, matrix):
        blocked = BlockedMatrix.from_matrix(matrix, 3)
        ranges = blocked.block_row_ranges()
        assert ranges[0][0] == 0 and ranges[-1][1] == 20
        for (a, b), (c, d) in zip(ranges, ranges[1:]):
            assert b == c

    def test_broadcast_matmul_equals_full(self, matrix):
        rhs = sp.csr_matrix(np.random.default_rng(1).random((6, 3)))
        blocked = BlockedMatrix.from_matrix(matrix, 4)
        partials = blocked.broadcast_matmul(rhs)
        stacked = sp.vstack(partials).toarray()
        np.testing.assert_allclose(stacked, (matrix @ rhs).toarray())

    def test_broadcast_matmul_dim_mismatch(self, matrix):
        blocked = BlockedMatrix.from_matrix(matrix, 2)
        with pytest.raises(ValidationError):
            blocked.broadcast_matmul(sp.eye(5))

    def test_map_reduce_sum(self, matrix):
        blocked = BlockedMatrix.from_matrix(matrix, 5)
        total = blocked.map_reduce(
            lambda b: np.asarray(b.sum(axis=0)).ravel(), lambda a, b: a + b
        )
        np.testing.assert_allclose(total, np.asarray(matrix.sum(axis=0)).ravel())

    def test_map_reduce_empty_raises(self):
        with pytest.raises(ValidationError):
            BlockedMatrix().map_reduce(lambda b: b, lambda a, b: a)
