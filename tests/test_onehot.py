"""Tests for FeatureSpace and the one-hot encoding contract."""

import numpy as np
import pytest

from repro.core import FeatureSpace, validate_encoded_matrix
from repro.exceptions import EncodingError, ShapeError


class TestValidateEncodedMatrix:
    def test_accepts_integer_matrix(self, tiny_x0):
        out = validate_encoded_matrix(tiny_x0)
        assert out.dtype == np.int64

    def test_accepts_integral_floats(self):
        out = validate_encoded_matrix(np.array([[1.0, 2.0]]))
        assert out.dtype == np.int64

    def test_rejects_fractional(self):
        with pytest.raises(EncodingError):
            validate_encoded_matrix(np.array([[1.5]]))

    def test_rejects_zero_without_missing_flag(self):
        with pytest.raises(EncodingError):
            validate_encoded_matrix(np.array([[0, 1]]))

    def test_zero_allowed_as_missing(self):
        out = validate_encoded_matrix(np.array([[0, 1]]), allow_missing=True)
        assert out[0, 0] == 0

    def test_rejects_negative(self):
        with pytest.raises(EncodingError):
            validate_encoded_matrix(np.array([[-1]]), allow_missing=True)

    def test_rejects_1d(self):
        with pytest.raises(ShapeError):
            validate_encoded_matrix(np.array([1, 2, 3]))

    def test_rejects_empty(self):
        with pytest.raises(EncodingError):
            validate_encoded_matrix(np.zeros((0, 2), dtype=np.int64))


class TestFeatureSpace:
    def test_domains_from_matrix(self, tiny_x0):
        space = FeatureSpace.from_matrix(tiny_x0)
        np.testing.assert_array_equal(space.domains, [2, 3, 2])
        assert space.num_features == 3
        assert space.num_onehot == 7

    def test_offsets(self, tiny_space):
        np.testing.assert_array_equal(tiny_space.begins, [0, 2, 5])
        np.testing.assert_array_equal(tiny_space.ends, [2, 5, 7])

    def test_encode_shape_and_row_sums(self, tiny_x0, tiny_space):
        x = tiny_space.encode(tiny_x0)
        assert x.shape == (8, 7)
        # every row sets exactly one column per feature
        np.testing.assert_allclose(
            np.asarray(x.sum(axis=1)).ravel(), np.full(8, 3.0)
        )

    def test_encode_specific_row(self, tiny_x0, tiny_space):
        x = tiny_space.encode(tiny_x0).toarray()
        # row 2 is [1, 3, 2] -> columns 0, 4, 6
        np.testing.assert_allclose(x[2], [1, 0, 0, 0, 1, 0, 1])

    def test_column_round_trips(self, tiny_space):
        for feature in range(tiny_space.num_features):
            for value in range(1, tiny_space.domains[feature] + 1):
                col = tiny_space.column_of(feature, value)
                assert tiny_space.feature_of_column(col) == feature
                assert tiny_space.column_value(col) == value

    def test_column_of_validates(self, tiny_space):
        with pytest.raises(EncodingError):
            tiny_space.column_of(0, 3)
        with pytest.raises(ShapeError):
            tiny_space.column_of(5, 1)

    def test_decode_row(self, tiny_space):
        row = np.zeros(7)
        row[tiny_space.column_of(1, 3)] = 1
        row[tiny_space.column_of(2, 2)] = 1
        assert tiny_space.decode_row(row) == {1: 3, 2: 2}

    def test_decode_row_rejects_double_assignment(self, tiny_space):
        row = np.zeros(7)
        row[0] = 1
        row[1] = 1  # both values of feature 0
        with pytest.raises(EncodingError):
            tiny_space.decode_row(row)

    def test_decode_row_wrong_length(self, tiny_space):
        with pytest.raises(ShapeError):
            tiny_space.decode_row(np.zeros(6))

    def test_encode_rejects_unknown_codes(self, tiny_x0, tiny_space):
        bad = tiny_x0.copy()
        bad[0, 0] = 5
        with pytest.raises(EncodingError):
            tiny_space.encode(bad)

    def test_encode_rejects_wrong_width(self, tiny_space):
        with pytest.raises(ShapeError):
            tiny_space.encode(np.ones((3, 2), dtype=np.int64))

    def test_missing_codes_encode_as_empty(self, tiny_space):
        x0 = np.array([[0, 1, 1]])
        x = tiny_space.encode(x0)
        assert x[0].nnz == 2

    def test_feature_names_alignment(self, tiny_x0):
        space = FeatureSpace.from_matrix(tiny_x0, feature_names=["a", "b", "c"])
        assert space.feature_names == ("a", "b", "c")
        with pytest.raises(ShapeError):
            FeatureSpace.from_matrix(tiny_x0, feature_names=["a"])
