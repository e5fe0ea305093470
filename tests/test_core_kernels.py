"""Tests for the core kernels: basic slices, evaluation, pairs, top-K."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import (
    FeatureSpace,
    PruningConfig,
    create_and_score_basic_slices,
    evaluate_slices,
    get_pair_candidates,
    maintain_topk,
    topk_min_score,
    empty_topk,
)
from repro.core.types import LevelStats, StatsCol, stats_matrix
from repro.distributed import SerialExecutor, indicator_equal
from repro.linalg import keys_to_csr


def brute_stats(x0, errors, predicates):
    mask = np.ones(x0.shape[0], dtype=bool)
    for f, v in predicates.items():
        mask &= x0[:, f] == v
    size = int(mask.sum())
    return size, float(errors[mask].sum()), float(errors[mask].max() if size else 0.0)


def reference_maintain_topk(slices, stats, top_slices, top_stats, k, sigma):
    """``maintain_topk`` that re-sorts every run of exact ties, then walks.

    The production version sorts a run only when its walk reaches it; both
    must return bitwise the same top-K.
    """
    num_cols = top_slices.shape[1]
    valid = (stats[:, StatsCol.SCORE] > 0) & (stats[:, StatsCol.SIZE] >= sigma)
    kept = np.flatnonzero(valid)
    if kept.size == 0 and top_slices.shape[0] == 0:
        return empty_topk(num_cols)
    candidates = sp.vstack(
        [top_slices, keys_to_csr(slices[kept], num_cols)], format="csr"
    )
    candidate_stats = np.vstack([top_stats, stats[kept]])

    def column_key(index):
        row = candidates.indices[
            candidates.indptr[index] : candidates.indptr[index + 1]
        ]
        return tuple(np.sort(row).tolist())

    order = np.lexsort(
        (
            -candidate_stats[:, StatsCol.ERROR],
            -candidate_stats[:, StatsCol.SIZE],
            -candidate_stats[:, StatsCol.SCORE],
        )
    )
    ranked = candidate_stats[order][
        :, [StatsCol.SCORE, StatsCol.SIZE, StatsCol.ERROR]
    ]
    if order.size > 1:
        changed = np.any(ranked[1:] != ranked[:-1], axis=1)
        boundaries = np.concatenate(
            [np.flatnonzero(changed) + 1, [order.size]]
        )
        start = 0
        for stop in boundaries:
            if stop - start > 1:
                order[start:stop] = sorted(order[start:stop], key=column_key)
            start = int(stop)
    top, seen = [], set()
    for index in order:
        key = column_key(index)
        if key in seen:
            continue
        seen.add(key)
        top.append(int(index))
        if len(top) == k:
            break
    return candidates[top], candidate_stats[top]


def tied_level(gen, num_cols, level, count, pool):
    """*count* level-*level* slice keys drawn from *pool* distinct ones.

    A slice drawn twice carries the same statistics, as with deduplication
    off; statistics come from a few values, so runs of exact ties are long.
    """
    distinct = [
        np.sort(gen.choice(num_cols, level, replace=False))
        for _ in range(pool)
    ]
    pool_stats = stats_matrix(
        gen.choice([-1.0, 0.5, 1.0, 2.0], size=pool),
        gen.choice([1.0, 3.0], size=pool),
        np.ones(pool),
        gen.choice([2.0, 10.0, 20.0], size=pool),
    )
    picks = gen.integers(0, pool, size=count)
    keys = np.array([distinct[p] for p in picks], dtype=np.int64)
    return keys, pool_stats[picks]


class TestBasicSlices:
    def test_sizes_and_errors_match_brute_force(self, tiny_x0, tiny_errors, tiny_space):
        basic = create_and_score_basic_slices(
            tiny_x0, tiny_space, tiny_errors, sigma=1, alpha=0.9
        )
        for row, col in enumerate(basic.selected_columns):
            feature = tiny_space.feature_of_column(int(col))
            value = tiny_space.column_value(int(col))
            size, err, max_err = brute_stats(tiny_x0, tiny_errors, {feature: value})
            assert basic.stats[row, StatsCol.SIZE] == size
            assert basic.stats[row, StatsCol.ERROR] == pytest.approx(err)
            assert basic.stats[row, StatsCol.MAX_ERROR] == pytest.approx(max_err)

    def test_sigma_filters_small_slices(self, tiny_x0, tiny_errors, tiny_space):
        basic = create_and_score_basic_slices(
            tiny_x0, tiny_space, tiny_errors, sigma=3, alpha=0.9
        )
        assert (basic.stats[:, StatsCol.SIZE] >= 3).all()

    def test_zero_error_slices_filtered(self, tiny_x0, tiny_space):
        errors = np.zeros(8)
        errors[0] = 1.0  # only row 0 has error: slices not covering it drop
        basic = create_and_score_basic_slices(
            tiny_x0, tiny_space, errors, sigma=1, alpha=0.9
        )
        assert (basic.stats[:, StatsCol.ERROR] > 0).all()
        # row 0 is [1, 1, 1]: exactly its three value-columns survive
        assert basic.num_slices == 3

    def test_slices_matrix_is_identity(self, tiny_x0, tiny_errors, tiny_space):
        basic = create_and_score_basic_slices(
            tiny_x0, tiny_space, tiny_errors, sigma=1, alpha=0.9
        )
        assert basic.slices.dtype == np.int64
        assert np.array_equal(
            basic.slices, np.arange(basic.num_slices)[:, np.newaxis]
        )
        np.testing.assert_allclose(
            keys_to_csr(basic.slices, basic.num_slices).toarray(),
            np.eye(basic.num_slices),
        )


class TestIndicatorEqual:
    def test_filters_to_exact_level(self):
        prod = sp.csr_matrix(np.array([[2.0, 1.0], [0.0, 2.0]]))
        ind = indicator_equal(prod, 2)
        np.testing.assert_allclose(ind.toarray(), [[1, 0], [0, 1]])

    def test_level_below_one_rejected(self):
        from repro.exceptions import ValidationError
        with pytest.raises(ValidationError):
            indicator_equal(sp.csr_matrix((2, 2)), 0)

    def test_does_not_mutate_input(self):
        prod = sp.csr_matrix(np.array([[2.0, 1.0]]))
        before = prod.toarray().copy()
        indicator_equal(prod, 2)
        np.testing.assert_allclose(prod.toarray(), before)


class TestEvaluateSlices:
    def test_matches_brute_force(self, tiny_x0, tiny_errors, tiny_space):
        x = tiny_space.encode(tiny_x0)
        # candidate slices: {F0=1, F1=1} and {F0=2, F2=2}
        keys = np.array(
            [
                [tiny_space.column_of(0, 1), tiny_space.column_of(1, 1)],
                [tiny_space.column_of(0, 2), tiny_space.column_of(2, 2)],
            ],
            dtype=np.int64,
        )
        stats = evaluate_slices(x, tiny_errors, keys, 2, 0.9)
        for i, predicates in enumerate([{0: 1, 1: 1}, {0: 2, 2: 2}]):
            size, err, max_err = brute_stats(tiny_x0, tiny_errors, predicates)
            assert stats[i, StatsCol.SIZE] == size
            assert stats[i, StatsCol.ERROR] == pytest.approx(err)
            assert stats[i, StatsCol.MAX_ERROR] == pytest.approx(max_err)

    def test_block_size_invariance(self, planted_dataset):
        """The paper's blocked sparse kernel gives the bitset kernel's
        statistics bitwise at every block size ``b``."""
        x0, binary, _ = planted_dataset
        space = FeatureSpace.from_matrix(x0)
        x = space.encode(x0)
        gen = np.random.default_rng(5)
        s = np.array(
            [
                np.sort(gen.choice(space.num_onehot, size=2, replace=False))
                for _ in range(23)
            ],
            dtype=np.int64,
        )
        # Continuous errors: only the row-order fold sums them bitwise.
        for errors in (binary, binary * gen.random(binary.size)):
            out = evaluate_slices(x, errors, s, 2, 0.95)
            for block_size in (1, 2, 7, 23, 64):
                reference = SerialExecutor(block_size=block_size).evaluate(
                    x, errors, keys_to_csr(s, space.num_onehot), 2, 0.95
                )
                assert reference.tobytes() == out.tobytes(), block_size

    def test_threaded_matches_serial(self, planted_dataset):
        x0, errors, _ = planted_dataset
        space = FeatureSpace.from_matrix(x0)
        x = space.encode(x0)
        s = np.arange(space.num_onehot, dtype=np.int64)[:, np.newaxis]
        serial = evaluate_slices(x, errors, s, 1, 0.95)
        threaded = evaluate_slices(x, errors, s, 1, 0.95, num_threads=4)
        np.testing.assert_allclose(serial, threaded)

    def test_empty_slices(self, tiny_x0, tiny_errors, tiny_space):
        x = tiny_space.encode(tiny_x0)
        out = evaluate_slices(
            x, tiny_errors, np.empty((0, 2), dtype=np.int64), 2, 0.9
        )
        assert out.shape == (0, 4)

    def test_nonmatching_slice_scores_minus_inf(self, tiny_x0, tiny_errors, tiny_space):
        x = tiny_space.encode(tiny_x0)
        # F0=1 AND F0=2 is unsatisfiable (level-2 with both on one feature)
        keys = np.array([[0, 1]], dtype=np.int64)
        stats = evaluate_slices(x, tiny_errors, keys, 2, 0.9)
        assert stats[0, StatsCol.SIZE] == 0
        assert stats[0, StatsCol.SCORE] == -np.inf


class TestMaintainTopK:
    NUM_COLS = 16

    def _mk(self, scores, sizes, first_column=0):
        k = len(scores)
        keys = (first_column + np.arange(k, dtype=np.int64))[:, np.newaxis]
        stats = stats_matrix(
            np.array(scores), np.ones(k), np.ones(k), np.array(sizes)
        )
        return keys, stats

    def test_orders_by_score(self):
        slices, stats = self._mk([0.5, 2.0, 1.0], [10, 10, 10])
        ts, tr = maintain_topk(slices, stats, *empty_topk(self.NUM_COLS), k=3, sigma=1)
        np.testing.assert_allclose(tr[:, StatsCol.SCORE], [2.0, 1.0, 0.5])

    def test_filters_invalid(self):
        slices, stats = self._mk([2.0, -0.5, 1.0], [10, 10, 0])
        ts, tr = maintain_topk(slices, stats, *empty_topk(self.NUM_COLS), k=3, sigma=1)
        # only the first entry is valid (positive score and size >= sigma)
        assert tr.shape[0] == 1

    def test_keeps_existing_topk(self):
        slices, stats = self._mk([1.0], [10])
        ts, tr = maintain_topk(slices, stats, *empty_topk(self.NUM_COLS), k=2, sigma=1)
        slices2, stats2 = self._mk([3.0], [10], first_column=5)
        ts2, tr2 = maintain_topk(slices2, stats2, ts, tr, k=2, sigma=1)
        np.testing.assert_allclose(tr2[:, StatsCol.SCORE], [3.0, 1.0])

    def test_truncates_to_k(self):
        slices, stats = self._mk([1.0, 2.0, 3.0, 4.0], [10] * 4)
        ts, tr = maintain_topk(slices, stats, *empty_topk(self.NUM_COLS), k=2, sigma=1)
        assert tr.shape[0] == 2
        np.testing.assert_allclose(tr[:, StatsCol.SCORE], [4.0, 3.0])

    def test_tie_break_by_size(self):
        slices, stats = self._mk([1.0, 1.0], [5.0, 50.0])
        ts, tr = maintain_topk(slices, stats, *empty_topk(self.NUM_COLS), k=1, sigma=1)
        assert tr[0, StatsCol.SIZE] == 50.0

    def test_min_score_threshold(self):
        slices, stats = self._mk([2.0, 1.0], [10, 10])
        ts, tr = maintain_topk(slices, stats, *empty_topk(self.NUM_COLS), k=2, sigma=1)
        assert topk_min_score(tr, 2) == pytest.approx(1.0)
        assert topk_min_score(tr, 3) == 0.0  # not full yet

    @pytest.mark.parametrize("seed", range(12))
    def test_lazy_tie_sort_matches_reference(self, seed):
        gen = np.random.default_rng(seed)
        num_cols = 10
        previous = tied_level(gen, num_cols, 1, 12, 8)
        current = tied_level(gen, num_cols, 2, 120, 30)
        _, current_stats = current
        ranked = current_stats[:, [StatsCol.SCORE, StatsCol.SIZE, StatsCol.ERROR]]
        _, run_lengths = np.unique(ranked, axis=0, return_counts=True)
        assert run_lengths.max() >= 10  # long runs of exact ties
        # Up to more than the 8 + 30 distinct slices of both levels.
        for k in range(1, 8 + 30 + 3):
            top = reference_maintain_topk(
                *previous, *empty_topk(num_cols), k=k, sigma=5
            )
            want = reference_maintain_topk(*current, *top, k=k, sigma=5)
            got = maintain_topk(*current, *top, k=k, sigma=5)
            for attr in ("indices", "indptr"):
                assert getattr(got[0], attr).tobytes() == getattr(
                    want[0], attr
                ).tobytes(), (k, attr)
            assert got[1].tobytes() == want[1].tobytes(), k


class TestGetPairCandidates:
    def _setup(self, x0, errors, sigma=1, alpha=0.9, k=4):
        space = FeatureSpace.from_matrix(x0)
        x = space.encode(x0)
        basic = create_and_score_basic_slices(x0, space, errors, sigma, alpha)
        fmap = np.searchsorted(
            space.ends, basic.selected_columns, side="right"
        ).astype(np.int64)
        return space, x, basic, fmap

    def test_level2_candidates_are_valid_conjunctions(self, tiny_x0, tiny_errors):
        space, x, basic, fmap = self._setup(tiny_x0, tiny_errors)
        stats = LevelStats(level=2)
        cands, bounds, *_ = get_pair_candidates(
            basic.slices, basic.stats, 2,
            num_rows=8, total_error=float(tiny_errors.sum()),
            sigma=1, alpha=0.9, topk_min_score=0.0, feature_map=fmap,
            pruning=PruningConfig(), level_stats=stats,
        )
        assert cands.shape[1] == 2
        assert (np.diff(cands, axis=1) > 0).all()  # keys ascend per row
        # no candidate uses two values of one feature
        for row in cands:
            assert len(set(fmap[row].tolist())) == 2

    def test_no_duplicates_after_dedup(self, planted_dataset):
        x0, errors, _ = planted_dataset
        space, x, basic, fmap = self._setup(x0, errors, sigma=5)
        cands, *_ = get_pair_candidates(
            basic.slices, basic.stats, 2,
            num_rows=x0.shape[0], total_error=float(errors.sum()),
            sigma=5, alpha=0.95, topk_min_score=0.0, feature_map=fmap,
        )
        keys = {tuple(row) for row in cands.tolist()}
        assert len(keys) == cands.shape[0]

    def test_dedup_off_keeps_duplicates(self, planted_dataset):
        x0, errors, _ = planted_dataset
        space, x, basic, fmap = self._setup(x0, errors, sigma=5)
        kwargs = dict(
            num_rows=x0.shape[0], total_error=float(errors.sum()),
            sigma=5, alpha=0.95, topk_min_score=0.0, feature_map=fmap,
        )
        from repro.core.evaluate import evaluate_slices as ev
        s2, *_ = get_pair_candidates(
            basic.slices, basic.stats, 2, pruning=PruningConfig(), **kwargs
        )
        r2 = ev(x[:, basic.selected_columns], errors, s2, 2, 0.95)
        s3_dedup, *_ = get_pair_candidates(s2, r2, 3, pruning=PruningConfig(), **kwargs)
        s3_dup, *_ = get_pair_candidates(
            s2, r2, 3, pruning=PruningConfig.none(), **kwargs
        )
        # without dedup, level-3 candidates appear once per generating pair
        assert s3_dup.shape[0] >= s3_dedup.shape[0]

    def test_score_pruning_reduces_candidates(self, planted_dataset):
        x0, errors, _ = planted_dataset
        space, x, basic, fmap = self._setup(x0, errors, sigma=5)
        kwargs = dict(
            num_rows=x0.shape[0], total_error=float(errors.sum()),
            sigma=5, alpha=0.95, feature_map=fmap,
        )
        with_pruning, *_ = get_pair_candidates(
            basic.slices, basic.stats, 2, topk_min_score=0.5,
            pruning=PruningConfig(handle_missing_parents=False), **kwargs
        )
        without, *_ = get_pair_candidates(
            basic.slices, basic.stats, 2, topk_min_score=0.5,
            pruning=PruningConfig(
                by_score=False, handle_missing_parents=False
            ),
            **kwargs
        )
        assert with_pruning.shape[0] <= without.shape[0]

    def test_empty_input_returns_empty(self, tiny_x0, tiny_errors):
        space, x, basic, fmap = self._setup(tiny_x0, tiny_errors)
        empty = basic.slices[:0]
        cands, bounds, *_ = get_pair_candidates(
            empty, basic.stats[:0], 2,
            num_rows=8, total_error=1.0, sigma=1, alpha=0.9,
            topk_min_score=0.0, feature_map=fmap,
        )
        assert cands.shape[0] == 0 and bounds is None

    def test_bounds_returned_with_score_pruning(self, planted_dataset):
        x0, errors, _ = planted_dataset
        space, x, basic, fmap = self._setup(x0, errors, sigma=5)
        cands, bounds, *_ = get_pair_candidates(
            basic.slices, basic.stats, 2,
            num_rows=x0.shape[0], total_error=float(errors.sum()),
            sigma=5, alpha=0.95, topk_min_score=0.0, feature_map=fmap,
        )
        assert bounds is not None and bounds.shape[0] == cands.shape[0]
        assert (bounds >= 0).all()
