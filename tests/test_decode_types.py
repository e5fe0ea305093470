"""Tests for decoding, result containers, and level statistics."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import FeatureSpace, SliceLineConfig, slice_line
from repro.core.decode import decode_topk, slice_membership
from repro.core.types import (
    LevelStats,
    Slice,
    SliceLineResult,
    StatsCol,
    empty_stats,
    stats_matrix,
)


class TestDecodeTopK:
    @pytest.fixture
    def space(self):
        return FeatureSpace(domains=np.array([2, 3, 2]))

    def test_decodes_projected_columns(self, space):
        # projection kept original one-hot columns [0, 3, 6]
        selected = np.array([0, 3, 6])
        top = sp.csr_matrix(np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
        stats = stats_matrix(
            np.array([2.0, 1.0]), np.array([4.0, 2.0]),
            np.array([1.0, 1.0]), np.array([10.0, 20.0]),
        )
        slices, encoded = decode_topk(top, stats, selected, space)
        # column 0 -> F0=1; column 3 -> F1=2; column 6 -> F2=2
        assert slices[0].predicates == {0: 1, 1: 2}
        assert slices[1].predicates == {2: 2}
        np.testing.assert_array_equal(encoded[0], [1, 2, 0])
        np.testing.assert_array_equal(encoded[1], [0, 0, 2])

    def test_stats_copied_through(self, space):
        selected = np.array([0])
        top = sp.csr_matrix(np.array([[1.0]]))
        stats = stats_matrix(
            np.array([0.5]), np.array([3.0]), np.array([1.5]), np.array([7.0])
        )
        slices, _ = decode_topk(top, stats, selected, space)
        assert slices[0].score == 0.5
        assert slices[0].error == 3.0
        assert slices[0].max_error == 1.5
        assert slices[0].size == 7

    def test_empty_topk(self, space):
        slices, encoded = decode_topk(
            sp.csr_matrix((0, 2)), empty_stats(0), np.array([0, 1]), space
        )
        assert slices == [] and encoded.shape == (0, 3)


class TestSliceMembership:
    def test_mask(self, tiny_x0):
        s = Slice(predicates={0: 1, 2: 2}, score=1.0, error=1.0,
                  max_error=1.0, size=2)
        mask = slice_membership(tiny_x0, s)
        expected = (tiny_x0[:, 0] == 1) & (tiny_x0[:, 2] == 2)
        np.testing.assert_array_equal(mask, expected)

    def test_empty_predicates_match_everything(self, tiny_x0):
        s = Slice(predicates={}, score=0.0, error=0.0, max_error=0.0, size=8)
        assert slice_membership(tiny_x0, s).all()


class TestLevelStats:
    def test_pruned_total(self):
        ls = LevelStats(level=2, pruned_by_size=3, pruned_by_score_pairs=1,
                        pruned_by_score_groups=3, pruned_by_parents=5)
        assert ls.pruned_total == 12

    def test_defaults_zero(self):
        ls = LevelStats(level=1)
        assert ls.evaluated == 0 and ls.pruned_total == 0


class TestSliceLineResult:
    @pytest.fixture
    def result(self, planted_dataset):
        x0, errors, _ = planted_dataset
        return slice_line(x0, errors, SliceLineConfig(k=4, sigma=10))

    def test_len_and_scores(self, result):
        assert len(result) == len(result.top_slices)
        np.testing.assert_allclose(
            result.scores, [s.score for s in result.top_slices]
        )
        np.testing.assert_allclose(
            result.sizes, [s.size for s in result.top_slices]
        )

    def test_evaluated_per_level(self, result):
        assert result.evaluated_per_level == [
            ls.evaluated for ls in result.level_stats
        ]
        assert result.total_evaluated == sum(result.evaluated_per_level)

    def test_report_contains_every_slice(self, result):
        text = result.report()
        for rank in range(1, len(result) + 1):
            assert f"#{rank}" in text

    def test_stats_matrix_layout(self):
        r = stats_matrix(
            np.array([1.0]), np.array([2.0]), np.array([3.0]), np.array([4.0])
        )
        assert r[0, StatsCol.SCORE] == 1.0
        assert r[0, StatsCol.ERROR] == 2.0
        assert r[0, StatsCol.MAX_ERROR] == 3.0
        assert r[0, StatsCol.SIZE] == 4.0

    def test_encoded_row_round_trip(self):
        s = Slice(predicates={1: 3, 4: 2}, score=1.0, error=1.0,
                  max_error=1.0, size=5)
        row = s.encoded_row(6)
        np.testing.assert_array_equal(row, [0, 3, 0, 0, 2, 0])
