"""Per-level compaction: bitwise-identity oracle and unit coverage.

Compaction is a pure performance optimization — the enumeration must
produce *bitwise identical* output with it on or off, across thread
counts, pruning ablation arms, priority evaluation, and warm starts.
These tests certify that contract and unit-test the supporting pieces
(:class:`~repro.core.compaction.CompactionState`, whose column views keep
every row and only count the rows still covered,
:func:`~repro.core.compaction.compact_slice_set`, mixed-radix key packing,
the int64 candidate-index dtype, and the shared kernel workspace).
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.core import (
    CompactionState,
    PruningConfig,
    SliceLineConfig,
    compact_slice_set,
    evaluate_slice_set,
    slice_line,
)
from repro.core.pairs import _dedup_keys
from repro.datasets import load_dataset
from repro.resilience import load_checkpoint
from repro.linalg import (
    BitsetTable,
    KernelWorkspace,
    keys_to_csr,
    pack_rows_mixed_radix,
    resolve_workspace,
)
from repro.streaming import MergeableSliceStats, expand_seed_slices
from tests.conftest import random_small_problem

from repro.obs.counters import EXECUTION_FIELDS

#: counters whose values legitimately differ between the two modes: the
#: compaction gauges stay 0 when compaction is off, and the timing /
#: execution-shape fields (elapsed time, stage seconds, chunk grid) vary
#: with what the cost model sees
_MODE_DEPENDENT = {"rows_alive", "cols_alive"} | EXECUTION_FIELDS


def assert_bitwise_identical_runs(x0, errors, config, num_threads=1, seeds=None):
    on = slice_line(
        x0, errors, config=config.with_overrides(compaction=True),
        num_threads=num_threads, seed_slices=seeds,
    )
    off = slice_line(
        x0, errors, config=config.with_overrides(compaction=False),
        num_threads=num_threads, seed_slices=seeds,
    )
    # Bitwise equality: the exact floats, not approximate scores.
    assert np.array_equal(on.top_stats, off.top_stats)
    assert np.array_equal(on.top_slices_encoded, off.top_slices_encoded)
    assert [s.predicates for s in on.top_slices] == [
        s.predicates for s in off.top_slices
    ]
    assert len(on.counters.levels) == len(off.counters.levels)
    for level_on, level_off in zip(on.counters.levels, off.counters.levels):
        got = level_on.to_dict()
        want = level_off.to_dict()
        for name in _MODE_DEPENDENT:
            got.pop(name), want.pop(name)
        assert got == want, f"level {level_on.level} counters diverge"
    assert on.counters.reconcile() == []
    return on, off


class TestCompactionOracle:
    @pytest.mark.parametrize("label", list(PruningConfig.ablation_arms()))
    @pytest.mark.parametrize("num_threads", [1, 4])
    def test_identical_under_every_pruning_arm(self, label, num_threads):
        arm = PruningConfig.ablation_arms()[label]
        x0, errors, k, sigma, alpha = random_small_problem(4242)
        config = SliceLineConfig(k=k, sigma=sigma, alpha=alpha, pruning=arm)
        assert_bitwise_identical_runs(x0, errors, config, num_threads)

    @pytest.mark.parametrize("seed", range(8))
    def test_identical_on_random_problems(self, seed):
        x0, errors, k, sigma, alpha = random_small_problem(seed)
        config = SliceLineConfig(k=k, sigma=sigma, alpha=alpha)
        assert_bitwise_identical_runs(x0, errors, config)

    def test_identical_with_priority_tiny_chunks(self):
        x0, errors, k, sigma, alpha = random_small_problem(31337)
        config = SliceLineConfig(
            k=k, sigma=sigma, alpha=alpha,
            priority_evaluation=True, priority_chunk=2,
        )
        assert_bitwise_identical_runs(x0, errors, config, num_threads=4)

    def test_identical_with_warm_start_and_warm_equals_cold(self):
        x0, errors, k, sigma, alpha = random_small_problem(2024)
        config = SliceLineConfig(k=max(k, 3), sigma=sigma, alpha=alpha)
        cold = slice_line(x0, errors, config=config)
        seeds = expand_seed_slices(cold.top_slices)
        warm_on, warm_off = assert_bitwise_identical_runs(
            x0, errors, config, seeds=seeds
        )
        assert np.array_equal(cold.top_stats, warm_on.top_stats)
        assert warm_on.warm_start is not None
        assert warm_on.warm_start.hits == warm_off.warm_start.hits

    def test_compaction_gauges_are_recorded(self, planted_dataset):
        x0, errors, _ = planted_dataset
        result = slice_line(
            x0, errors, config=SliceLineConfig(k=4, sigma=5, max_level=3)
        )
        levels = result.counters.levels
        assert levels[0].rows_alive > 0
        assert levels[0].cols_alive > 0
        evaluated = [c for c in levels[1:] if c.evaluated > 0]
        assert evaluated, "the planted problem must reach level >= 2"
        for record in evaluated:
            assert 0 < record.rows_alive <= result.num_rows
            assert 0 < record.cols_alive <= levels[0].cols_alive

    def test_lower_level_coverage_drops_rows(self, tmp_path):
        """A level below the last tracks the rows its slices cover, and the
        next level drops the others: salaries' level 2 covers 396 of its
        397 rows.  The last level tracks none, and its bundle stores none."""
        data = load_dataset("salaries", scale=1.0, seed=0)
        config = SliceLineConfig(k=10, max_level=3)
        on, _ = assert_bitwise_identical_runs(data.x0, data.errors, config)
        level2, level3 = on.counters.level(2), on.counters.level(3)
        assert level3.evaluated > 0
        assert level3.rows_alive < level2.rows_alive
        slice_line(
            data.x0, data.errors, config=config, checkpoint_dir=str(tmp_path)
        )
        covered = load_checkpoint(str(tmp_path / "level-0002")).row_coverage
        assert covered.size == level2.rows_alive
        assert np.count_nonzero(covered) == level3.rows_alive
        assert load_checkpoint(str(tmp_path / "level-0003")).row_coverage is None

    def test_compact_span_annotations(self, planted_dataset):
        x0, errors, _ = planted_dataset
        result = slice_line(
            x0, errors,
            config=SliceLineConfig(k=4, sigma=5, max_level=3), trace=True,
        )
        span = result.trace.find("level2.compact")
        assert span is not None
        assert 0.0 < span.attrs["rows_retained"] <= 1.0
        assert 0.0 < span.attrs["cols_retained"] <= 1.0
        assert span.attrs["rows_alive"] == result.counters.level(2).rows_alive

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        k=st.integers(1, 6),
        sigma=st.integers(1, 12),
        alpha=st.floats(0.1, 1.0),
        num_threads=st.sampled_from([1, 4]),
    )
    def test_property_identical(self, seed, k, sigma, alpha, num_threads):
        gen = np.random.default_rng(seed)
        n = int(gen.integers(30, 100))
        m = int(gen.integers(2, 4))
        x0 = np.column_stack(
            [gen.integers(1, int(gen.integers(2, 4)) + 1, size=n) for _ in range(m)]
        ).astype(np.int64)
        errors = gen.random(n) * (gen.random(n) < 0.5)
        if errors.sum() == 0:
            errors[0] = 0.5
        config = SliceLineConfig(k=k, sigma=sigma, alpha=alpha)
        assert_bitwise_identical_runs(x0, errors, config, num_threads)


def table_of(dense) -> BitsetTable:
    return BitsetTable.from_matrix(
        sp.csr_matrix(np.asarray(dense, dtype=np.float64))
    )


class TestCompactionState:
    """Rows are counted, not dropped: every view keeps all rows of the
    run's table, and only its columns follow the level's candidates."""

    def test_initial_counts_rows_with_a_basic_slice(self):
        table = table_of([[1, 0], [0, 0], [0, 1]])
        state = CompactionState.initial(table)
        assert state.num_rows_alive == 2
        assert state.num_cols_alive == 2
        assert np.array_equal(state.row_indices, [0, 2])
        assert state.rows_retained == pytest.approx(2 / 3)
        assert state.view is table  # nothing is gathered before level 2

    def test_begin_level_views_columns_and_counts_rows(self):
        table = table_of(np.eye(5))
        state = CompactionState.initial(table)
        # The kernel state's coverage spans all rows; the state keeps it
        # over the rows it counts, the form checkpoint bundles store.
        state.end_level(np.array([True, False, True, True, True]))
        assert np.array_equal(state.row_coverage, [True, False, True, True, True])
        state.begin_level(np.array([[0], [3], [4]], dtype=np.int64))
        assert state.row_coverage is None  # consumed
        assert state.num_rows_alive == 4
        assert np.array_equal(state.row_indices, [0, 2, 3, 4])
        assert np.array_equal(state.col_map, [0, -1, -1, 1, 2])
        # A row gather of the table's words, every row kept.
        assert state.view.shape == (5, 3)
        assert np.array_equal(state.view.words, table.words[[0, 3, 4]])
        assert state.cols_retained == pytest.approx(3 / 5)
        state.end_level(np.array([True, False, False, True, False]))
        assert np.array_equal(state.row_coverage, [True, False, True, False])
        state.begin_level(np.array([[3]], dtype=np.int64))
        assert np.array_equal(state.row_indices, [0, 3])
        assert np.array_equal(state.col_map, [-1, -1, -1, 0, -1])
        assert np.array_equal(state.view.words, table.words[[3]])
        # A level that tracked no coverage leaves the count as it is.
        state.end_level(None)
        state.begin_level(np.array([[3]], dtype=np.int64))
        assert np.array_equal(state.row_indices, [0, 3])

    def test_project_slices_remaps_and_rejects_dead_columns(self):
        gen = np.random.default_rng(3)
        table = table_of(gen.random((70, 4)) < 0.6)
        state = CompactionState.initial(table)
        candidates = np.array([[0, 2], [2, 3], [0, 3]], dtype=np.int64)
        state.begin_level(candidates)
        assert state.num_cols_alive == 3
        projected = state.project_slices(candidates)
        assert np.array_equal(projected, [[0, 1], [1, 2], [0, 2]])
        # The view under remapped keys is the table under the keys.
        assert np.array_equal(
            state.view.candidate_words(projected),
            table.candidate_words(candidates),
        )
        with pytest.raises(ValueError, match="compacted-away"):
            state.project_slices(np.array([[1]], dtype=np.int64))

    def test_begin_level_rejects_dead_candidate_columns(self):
        state = CompactionState.initial(table_of(np.eye(3)))
        state.begin_level(np.array([[0]], dtype=np.int64))
        with pytest.raises(ValueError, match="surviving parents"):
            state.begin_level(np.array([[2]], dtype=np.int64))


class TestCompactSliceSet:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_uncompacted_evaluation(self, seed):
        gen = np.random.default_rng(seed)
        x = sp.random(
            60, 12, density=0.25, format="csr", random_state=gen
        )
        x.data[:] = 1.0
        errors = gen.random(60)
        rows = [np.sort(gen.choice(12, size=size, replace=False))
                for size in (1, 2, 3, 2)]
        indices = np.concatenate(rows)
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum([r.size for r in rows], out=indptr[1:])
        slices = sp.csr_matrix(
            (np.ones(indices.size), indices, indptr), shape=(len(rows), 12)
        )
        full = evaluate_slice_set(x, slices, errors)
        x_c, s_c, alive = compact_slice_set(x, slices)
        compacted = evaluate_slice_set(
            x_c, s_c, errors[alive],
            num_rows=x.shape[0],
            total_error=float(errors.sum()),
            max_error=float(errors.max()),
        )
        assert np.array_equal(full.sizes, compacted.sizes)
        assert np.array_equal(full.errors, compacted.errors)
        assert np.array_equal(full.max_errors, compacted.max_errors)

    def test_whole_dataset_row_uses_overrides(self):
        x = sp.csr_matrix(np.eye(3, dtype=np.float64))
        errors = np.array([0.2, 0.7, 0.1])
        slices = sp.csr_matrix(
            (np.ones(1), np.array([0]), np.array([0, 1, 1])), shape=(2, 3)
        )  # row 0: one predicate; row 1: no predicates = whole dataset
        x_c, s_c, alive = compact_slice_set(x, slices)
        stats = evaluate_slice_set(
            x_c, s_c, errors[alive],
            num_rows=3, total_error=1.0, max_error=0.7,
        )
        assert stats.sizes[1] == 3.0
        assert stats.errors[1] == 1.0
        assert stats.max_errors[1] == 0.7

    def test_streaming_accumulator_matches_direct_membership(self, planted_dataset):
        x0, errors, _ = planted_dataset
        result = slice_line(x0, errors, config=SliceLineConfig(k=3, sigma=5))
        assert result.top_slices
        acc = MergeableSliceStats.from_batch(x0, errors, result.top_slices)
        for index, sl in enumerate(result.top_slices):
            assert acc.sizes[index] == sl.size
            assert acc.errors[index] == pytest.approx(sl.error, rel=1e-12)


class TestMixedRadixPacking:
    def test_preserves_lexicographic_order(self):
        gen = np.random.default_rng(0)
        keys = gen.integers(0, 50, size=(200, 3)).astype(np.int64)
        keys.sort(axis=1)
        packed = pack_rows_mixed_radix(keys, 50)
        assert packed is not None
        order_rows = np.lexsort(keys.T[::-1])
        order_packed = np.argsort(packed, kind="stable")
        assert np.array_equal(keys[order_rows], keys[order_packed])

    def test_overflow_falls_back_to_none(self):
        keys = np.zeros((2, 9), dtype=np.int64)
        assert pack_rows_mixed_radix(keys, 2**8) is None  # 2^72 > int64
        assert pack_rows_mixed_radix(keys, 2**7) is None  # 2^63 is 1 too big
        assert pack_rows_mixed_radix(keys, 127) is not None  # 127^9 fits

    def test_zero_width_keys(self):
        packed = pack_rows_mixed_radix(np.zeros((3, 0), dtype=np.int64), 10)
        assert packed is not None
        assert np.array_equal(packed, [0, 0, 0])

    @pytest.mark.parametrize("seed", range(5))
    def test_dedup_matches_axis0_unique(self, seed):
        gen = np.random.default_rng(seed)
        num_cols = int(gen.integers(4, 30))
        keys = gen.integers(0, num_cols, size=(100, 2)).astype(np.int64)
        keys.sort(axis=1)
        unique_keys, first_index, group = _dedup_keys(keys, num_cols)
        want_keys, want_first, want_group = np.unique(
            keys, axis=0, return_index=True, return_inverse=True
        )
        assert np.array_equal(unique_keys, want_keys)
        assert np.array_equal(first_index, want_first)
        assert np.array_equal(group, want_group.ravel())


class TestKeysToMatrixDtype:
    def test_indices_stay_int64_beyond_int32_range(self):
        wide = np.int64(2**31) + 16
        keys = np.array([[2**31 + 3, 2**31 + 7]], dtype=np.int64)
        matrix = keys_to_csr(keys, wide)
        assert matrix.indices.dtype == np.int64
        assert matrix.indices.min() > 2**31  # would be negative if wrapped
        assert matrix.shape == (1, wide)

    def test_indices_narrow_to_int32_when_they_fit(self):
        """The dtype checkpoint bundles have always stored for ``S``."""
        keys = np.array([[0, 3], [1, 2]], dtype=np.int64)
        matrix = keys_to_csr(keys, 4)
        assert matrix.indices.dtype == np.int32
        assert matrix.has_sorted_indices
        assert matrix.toarray().tolist() == [[1, 0, 0, 1], [0, 1, 1, 0]]


class TestKernelWorkspace:
    def test_single_pool_across_calls(self):
        workspace = KernelWorkspace(num_threads=3)
        for _ in range(4):
            got = workspace.map(lambda v: v * v, [1, 2, 3])
            assert got == [1, 4, 9]
        assert workspace.pools_created == 1
        assert workspace.pool_active
        workspace.close()
        assert not workspace.pool_active

    def test_serial_mode_never_creates_a_pool(self):
        workspace = KernelWorkspace(num_threads=1)
        assert workspace.map(lambda v: v + 1, [1, 2]) == [2, 3]
        assert workspace.pools_created == 0
        workspace.close()

    def test_single_item_skips_the_pool(self):
        workspace = KernelWorkspace(num_threads=4)
        assert workspace.map(lambda v: -v, [5]) == [-5]
        assert workspace.pools_created == 0

    def test_context_manager_closes(self):
        with KernelWorkspace(num_threads=2) as workspace:
            workspace.map(lambda v: v, [1, 2])
            assert workspace.pool_active
        assert not workspace.pool_active

    def test_resolve_workspace_ownership(self):
        owned = KernelWorkspace(2)
        same, transient = resolve_workspace(owned, 2)
        assert same is owned and not transient
        fresh, transient = resolve_workspace(None, 2)
        assert isinstance(fresh, KernelWorkspace) and transient
        fresh.close()

    def test_run_reuses_one_pool(self, planted_dataset, monkeypatch):
        """The enumeration driver must create at most one pool per run."""
        created = []
        original = KernelWorkspace._ensure_pool

        def counting(self):
            pool = original(self)
            created.append(self)
            return pool

        monkeypatch.setattr(KernelWorkspace, "_ensure_pool", counting)
        x0, errors, _ = planted_dataset
        slice_line(
            x0, errors,
            config=SliceLineConfig(k=4, sigma=5),
            num_threads=4,
        )
        assert len(set(created)) <= 1
