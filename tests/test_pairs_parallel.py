"""Parallel chunk-local pair pipeline: bitwise oracle matrix + unit coverage.

The pair-candidate pipeline (chunked join, fused merge/validity/prune,
chunk-local dedup with group-min folding, deterministic merge, global
dedup over shrunk keys) is a pure performance optimization — every
configuration must reproduce :func:`reference_pair_candidates` (the
preserved pre-pipeline implementation) bitwise: candidate matrices,
bounds, and all non-execution counters, across any ``pair_parallelism``,
chunk grid, pruning arm, compaction mode, and kernel backend.  These
tests certify that contract end-to-end (the oracle keeps the CSR format,
so its inputs and outputs are converted at its boundary) and unit-test
the supporting
pieces (the geometric :class:`_PairAccumulator`, the
:func:`choose_pair_plan` cost model,
:func:`~repro.linalg.cell_bounded_partitions`,
:func:`~repro.linalg.upper_tri_pairs_in_range`, and the per-call
``width`` of :class:`~repro.linalg.KernelWorkspace`).
"""

from dataclasses import fields

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.core import PruningConfig, SliceLineConfig, slice_line
from repro.core import pairs as pairs_mod
from repro.core.basic import create_and_score_basic_slices
from repro.core.onehot import FeatureSpace
from repro.core.pairs import (
    _PairAccumulator,
    choose_pair_plan,
    get_pair_candidates,
    reference_pair_candidates,
)
from repro.exceptions import ValidationError
from repro.linalg import (
    KernelWorkspace,
    cell_bounded_partitions,
    keys_to_csr,
    upper_tri_pairs,
    upper_tri_pairs_in_range,
)
from repro.linalg import ops as ops_mod
from repro.obs import EXECUTION_FIELDS, LevelCounters


# ---------------------------------------------------------------------------
# shared problem + runners


def pairs_problem(seed=11, n=700, m=6, missing=0.0):
    """A slice-finding instance projected the way the driver projects it."""
    gen = np.random.default_rng(seed)
    x0 = np.column_stack(
        [gen.integers(1, 5, size=n) for _ in range(m)]
    ).astype(np.int64)
    if missing:
        x0[gen.random(size=x0.shape) < missing] = 0
    errors = gen.integers(0, 17, size=n) / 16.0
    errors[(x0[:, 0] == 1) & (x0[:, 1] == 2)] = 1.0
    space = FeatureSpace.from_matrix(x0)
    x_onehot = space.encode(x0)
    sigma = max(5, n // 100)
    alpha = 0.95
    basic = create_and_score_basic_slices(x_onehot, errors, sigma, alpha)
    feature_map = np.searchsorted(
        space.ends, basic.selected_columns, side="right"
    ).astype(np.int64)
    return {
        "num_rows": n,
        "total_error": float(errors.sum()),
        "sigma": sigma,
        "alpha": alpha,
        "feature_map": feature_map,
        "slices": basic.slices,
        "stats": basic.stats,
        "x0": x0,
        "errors": errors,
    }


def permuted_with_duplicate(problem, seed=5):
    """The basic slices with rows permuted and one row repeated.

    The parents' single columns no longer ascend strictly, so level 2
    must deduplicate: the repeated parent yields repeated keys.
    """
    gen = np.random.default_rng(seed)
    order = gen.permutation(problem["slices"].shape[0])
    order = np.append(order, order[0])
    return {
        **problem,
        "slices": problem["slices"][order],
        "stats": problem["stats"][order],
    }


def run_pairs(fn, problem, *, level=2, pruning=None, topk_min_score=0.0, **kw):
    """``(keys, bounds, parent minima, counters)`` of one pair-stage call."""
    recorder = LevelCounters(level=level)
    slices = problem["slices"]
    oracle = fn is reference_pair_candidates
    if oracle:
        slices = keys_to_csr(slices, problem["feature_map"].shape[0])
    keys, bounds, *minima = fn(
        slices,
        problem["stats"],
        level,
        num_rows=problem["num_rows"],
        total_error=problem["total_error"],
        sigma=problem["sigma"],
        alpha=problem["alpha"],
        topk_min_score=topk_min_score,
        feature_map=problem["feature_map"],
        pruning=pruning,
        level_stats=recorder,
        **kw,
    )
    if oracle:
        assert keys.has_sorted_indices
        assert (np.diff(keys.indptr) == level).all()
        keys = keys.indices.reshape(-1, level).astype(np.int64)
    return keys, bounds, minima, recorder


def assert_pairs_identical(ref, new, label=""):
    ref_keys, ref_bounds, ref_minima, ref_rec = ref
    new_keys, new_bounds, new_minima, new_rec = new
    assert new_keys.dtype == np.int64, label
    assert ref_keys.shape == new_keys.shape, label
    assert np.array_equal(ref_keys, new_keys), label
    assert (ref_bounds is None) == (new_bounds is None), label
    if ref_bounds is not None:
        assert np.array_equal(ref_bounds, new_bounds), label
    for ref_min, new_min in zip(ref_minima, new_minima, strict=True):
        assert ref_min.tobytes() == new_min.tobytes(), label
    for field in fields(ref_rec):
        if field.name in EXECUTION_FIELDS:
            continue
        assert getattr(ref_rec, field.name) == getattr(new_rec, field.name), (
            label, field.name
        )


PRUNING_ARMS = {
    "all": PruningConfig(),
    "no-dedup": PruningConfig(handle_missing_parents=False, deduplicate=False),
    "no-score": PruningConfig(by_score=False),
    "none": PruningConfig.none(),
}


# ---------------------------------------------------------------------------
# bitwise oracle: pipeline vs the preserved reference implementation


class TestPipelineMatchesReference:
    @pytest.mark.parametrize("arm", sorted(PRUNING_ARMS))
    @pytest.mark.parametrize("parallelism", [1, 2, 8])
    def test_level2_oracle(self, arm, parallelism):
        pruning = PRUNING_ARMS[arm]
        basic = pairs_problem()
        for inputs, problem in (
            ("basic", basic),
            ("permuted-duplicated", permuted_with_duplicate(basic)),
        ):
            ref = run_pairs(reference_pair_candidates, problem, pruning=pruning)
            with KernelWorkspace(parallelism) as workspace:
                new = run_pairs(
                    get_pair_candidates, problem, pruning=pruning,
                    workspace=workspace, pair_parallelism=parallelism,
                )
            assert_pairs_identical(ref, new, f"{inputs}/{arm}/p{parallelism}")
            if inputs == "permuted-duplicated" and pruning.deduplicate:
                rec = new[-1]
                assert rec.candidates_before_dedup > rec.deduplicated

    def test_level2_skips_dedup(self, monkeypatch):
        """Level 2 over basic slices, as slice_line runs it, never dedups."""
        problem = pairs_problem()
        ref = run_pairs(reference_pair_candidates, problem)

        def no_dedup(*args, **kwargs):
            raise AssertionError("level 2 over basic slices deduplicated")

        monkeypatch.setattr(pairs_mod, "_dedup_keys", no_dedup)
        with KernelWorkspace(2) as workspace:
            new = run_pairs(
                get_pair_candidates, problem,
                workspace=workspace, pair_parallelism=2,
            )
        assert_pairs_identical(ref, new, "skip")
        result = slice_line(
            problem["x0"], problem["errors"],
            config=SliceLineConfig(
                k=6, sigma=problem["sigma"], max_level=2, pair_parallelism=2,
            ),
        )
        assert result.counters.level(2).candidates_emitted > 0
        assert result.counters.reconcile() == []
        with pytest.raises(AssertionError, match="deduplicated"):
            run_pairs(get_pair_candidates, permuted_with_duplicate(problem))

    @pytest.mark.parametrize("parallelism", [1, 2, 8])
    def test_tiny_chunk_grid(self, parallelism, monkeypatch):
        """Results are invariant under any chunk grid, however degenerate."""
        problem = pairs_problem()
        ref = run_pairs(reference_pair_candidates, problem)
        monkeypatch.setattr(ops_mod, "_PAIR_CHUNK_CELLS", 64)
        with KernelWorkspace(parallelism) as workspace:
            new = run_pairs(
                get_pair_candidates, problem,
                workspace=workspace, pair_parallelism=parallelism,
            )
        assert_pairs_identical(ref, new, f"tiny-grid/p{parallelism}")

    def test_topk_threshold_pruning(self):
        """Score pruning against a live top-K threshold reduces identically."""
        problem = pairs_problem()
        for threshold in (0.1, 0.5, 2.0):
            ref = run_pairs(
                reference_pair_candidates, problem, topk_min_score=threshold
            )
            new = run_pairs(
                get_pair_candidates, problem, topk_min_score=threshold,
                pair_parallelism=4, workspace=None,
            )
            assert_pairs_identical(ref, new, f"threshold={threshold}")

    def test_without_workspace_defaults_serial(self):
        """Direct callers without a workspace keep the old call shape."""
        problem = pairs_problem()
        ref = run_pairs(reference_pair_candidates, problem)
        new = run_pairs(get_pair_candidates, problem)
        assert_pairs_identical(ref, new, "defaults")

    def test_missing_codes(self):
        problem = pairs_problem(seed=23, missing=0.15)
        ref = run_pairs(reference_pair_candidates, problem)
        with KernelWorkspace(3) as workspace:
            new = run_pairs(
                get_pair_candidates, problem,
                workspace=workspace, pair_parallelism=3,
            )
        assert_pairs_identical(ref, new, "missing-codes")

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        missing=st.sampled_from([0.0, 0.1, 0.3]),
        parallelism=st.sampled_from([1, 2, 8]),
        arm=st.sampled_from(sorted(PRUNING_ARMS)),
    )
    def test_hypothesis_sweep(self, seed, missing, parallelism, arm):
        gen = np.random.default_rng(seed)
        problem = pairs_problem(
            seed=seed,
            n=int(gen.integers(60, 300)),
            m=int(gen.integers(2, 6)),
            missing=missing,
        )
        pruning = PRUNING_ARMS[arm]
        ref = run_pairs(reference_pair_candidates, problem, pruning=pruning)
        with KernelWorkspace(parallelism) as workspace:
            new = run_pairs(
                get_pair_candidates, problem, pruning=pruning,
                workspace=workspace, pair_parallelism=parallelism,
            )
        assert_pairs_identical(ref, new, f"seed={seed}")


# ---------------------------------------------------------------------------
# bitwise oracle: end-to-end runs across the full configuration matrix


class TestEndToEndOracle:
    @pytest.mark.parametrize("deduplicate", [True, False])
    @pytest.mark.parametrize("compaction", [True, False])
    @pytest.mark.parametrize("parallelism", [2, 8])
    def test_full_run_matrix(self, deduplicate, compaction, parallelism):
        problem = pairs_problem(n=400)
        pruning = (
            PruningConfig()
            if deduplicate
            else PruningConfig(handle_missing_parents=False, deduplicate=False)
        )
        config = SliceLineConfig(
            k=6, sigma=problem["sigma"], pruning=pruning, compaction=compaction,
        )
        baseline = slice_line(
            problem["x0"], problem["errors"],
            config=config.with_overrides(pair_parallelism=1),
        )
        run = slice_line(
            problem["x0"], problem["errors"],
            config=config.with_overrides(pair_parallelism=parallelism),
        )
        assert np.array_equal(baseline.top_stats, run.top_stats)
        assert np.array_equal(
            baseline.top_slices_encoded, run.top_slices_encoded
        )
        ref_records = _records(baseline)
        new_records = _records(run)
        assert ref_records == new_records

    @pytest.mark.parametrize(
        "backend", ["auto", "sparse", "bitset"]
    )
    def test_kernel_backends(self, backend):
        problem = pairs_problem(n=400)
        config = SliceLineConfig(
            k=6, sigma=problem["sigma"], kernel_backend=backend,
        )
        baseline = slice_line(
            problem["x0"], problem["errors"],
            config=config.with_overrides(pair_parallelism=1),
        )
        run = slice_line(
            problem["x0"], problem["errors"],
            config=config.with_overrides(pair_parallelism=4),
        )
        assert np.array_equal(baseline.top_stats, run.top_stats)
        assert np.array_equal(
            baseline.top_slices_encoded, run.top_slices_encoded
        )
        assert _records(baseline) == _records(run)

    def test_flow_conservation_on_chunked_counters(self, monkeypatch):
        """The chunk-reduced counters still satisfy every flow identity."""
        monkeypatch.setattr(ops_mod, "_PAIR_CHUNK_CELLS", 256)
        problem = pairs_problem(n=500)
        result = slice_line(
            problem["x0"], problem["errors"],
            config=SliceLineConfig(
                k=6, sigma=problem["sigma"], pair_parallelism=8,
            ),
        )
        assert result.counters.reconcile() == []
        level2 = result.counters.level(2)
        assert level2.pairs_generated > 0
        assert level2.join_chunks >= 1
        assert level2.join_parallelism >= 1


def _records(result):
    records = []
    for record in result.counters.levels:
        as_dict = record.to_dict()
        for name in EXECUTION_FIELDS:
            as_dict.pop(name, None)
        records.append(as_dict)
    return records


# ---------------------------------------------------------------------------
# unit coverage: accumulator, cost model, partitions, workspace width


class TestPairAccumulator:
    @staticmethod
    def _batch(gen, count, level=3):
        return (
            gen.integers(0, 50, size=(count, level)).astype(np.int64),
            gen.integers(0, 20, size=count).astype(np.int64),
            gen.integers(0, 20, size=count).astype(np.int64),
            gen.random(count),
            gen.random(count),
            gen.random(count),
        )

    def test_single_batch_adopted_without_copy(self):
        gen = np.random.default_rng(0)
        batch = self._batch(gen, 17)
        acc = _PairAccumulator()
        acc.append(*batch)
        out = acc.concatenated()
        for original, returned in zip(batch, out):
            assert returned is original  # adopted by reference, zero copies

    def test_multi_batch_matches_concatenate(self):
        gen = np.random.default_rng(1)
        batches = [self._batch(gen, int(gen.integers(1, 400))) for _ in range(9)]
        acc = _PairAccumulator()
        for batch in batches:
            acc.append(*batch)
        out = acc.concatenated()
        for part in range(6):
            expected = np.concatenate([batch[part] for batch in batches])
            assert np.array_equal(out[part], expected)
            assert out[part].dtype == expected.dtype

    def test_empty_batches_ignored(self):
        gen = np.random.default_rng(2)
        acc = _PairAccumulator()
        assert acc.empty
        empty = self._batch(gen, 0)
        acc.append(*empty)
        assert acc.empty
        real = self._batch(gen, 5)
        acc.append(*empty)
        acc.append(*real)
        acc.append(*empty)
        assert not acc.empty
        out = acc.concatenated()
        assert np.array_equal(out[0], real[0])

    def test_growth_is_geometric(self):
        gen = np.random.default_rng(3)
        acc = _PairAccumulator()
        for _ in range(64):
            acc.append(*self._batch(gen, 100))
        # 6400 rows through doubling from 1024 -> at most a handful of
        # reallocations; capacity never exceeds 2x the final size + slack
        assert acc._capacity <= 2 * 6400
        assert acc.concatenated()[1].shape[0] == 6400


class TestChoosePairPlan:
    def test_empty_and_singleton_inputs(self):
        assert choose_pair_plan(0, 0, 8).ranges == ()
        assert choose_pair_plan(1, 3, 8).ranges == ()

    def test_small_levels_run_serially(self):
        plan = choose_pair_plan(50, 150, 8)
        assert plan.parallelism == 1
        assert plan.num_chunks >= 1

    def test_large_levels_go_parallel_with_spare_chunks(self):
        num_parents, nnz = 5000, 200_000
        plan = choose_pair_plan(num_parents, nnz, 4)
        assert plan.parallelism == 4
        assert plan.num_chunks >= 8  # several chunks per worker
        covered = []
        for start, stop in plan.ranges:
            covered.extend(range(start, stop))
        assert covered == list(range(num_parents - 1))

    def test_parallelism_one_never_goes_parallel(self):
        plan = choose_pair_plan(5000, 25000, 1)
        assert plan.parallelism == 1

    def test_level2_disjoint_join_counts_quadratic_pairs(self):
        """At overlap 0 the pair volume is ~parents^2/2 regardless of nnz."""
        num_parents = 1500
        serial_by_gram = choose_pair_plan(num_parents, num_parents, 4)
        assert serial_by_gram.parallelism == 1  # Gram estimate alone: tiny
        plan = choose_pair_plan(num_parents, num_parents, 4, level=2)
        assert plan.parallelism == 4

    def test_plan_respects_chunk_cell_budget(self, monkeypatch):
        monkeypatch.setattr(ops_mod, "_PAIR_CHUNK_CELLS", 1000)
        plan = choose_pair_plan(200, 500, 1)
        for start, stop in plan.ranges:
            assert (stop - start) * 200 <= 1000


class TestCellBoundedPartitions:
    def test_covers_rows_contiguously(self):
        parts = cell_bounded_partitions(100, 7, 100)
        assert parts[0][0] == 0 and parts[-1][1] == 100
        for (_, prev_stop), (start, _) in zip(parts, parts[1:]):
            assert prev_stop == start

    def test_respects_cell_budget(self):
        for rows, cols, budget in [(100, 7, 100), (37, 19, 50), (5, 1, 1)]:
            for start, stop in cell_bounded_partitions(rows, cols, budget):
                assert (stop - start) * cols <= max(budget, cols)

    def test_min_parts_forced(self):
        parts = cell_bounded_partitions(100, 2, 10_000, min_parts=8)
        assert len(parts) == 8

    def test_never_more_parts_than_rows(self):
        parts = cell_bounded_partitions(3, 2, 10_000, min_parts=50)
        assert len(parts) == 3

    def test_empty_rows(self):
        assert cell_bounded_partitions(0, 5, 100) == []

    def test_validation(self):
        with pytest.raises(ValidationError):
            cell_bounded_partitions(10, 2, 0)
        with pytest.raises(ValidationError):
            cell_bounded_partitions(10, 2, 5, min_parts=0)


class TestUpperTriPairsInRange:
    @pytest.mark.parametrize("overlap", [0.0, 1.0, 2.0])
    def test_range_union_equals_full_scan(self, overlap):
        gen = np.random.default_rng(5)
        matrix = sp.csr_matrix(
            (gen.random((40, 12)) < 0.3).astype(np.float64)
        )
        full_rows, full_cols = upper_tri_pairs(matrix, overlap)
        st_matrix = matrix.T.tocsc()
        rows_parts, cols_parts = [], []
        for start, stop in [(0, 13), (13, 14), (14, 39)]:
            rows, cols = upper_tri_pairs_in_range(
                matrix, st_matrix, start, stop, overlap
            )
            rows_parts.append(rows)
            cols_parts.append(cols)
        assert np.array_equal(np.concatenate(rows_parts), full_rows)
        assert np.array_equal(np.concatenate(cols_parts), full_cols)

    def test_empty_range(self):
        matrix = sp.csr_matrix(np.eye(4))
        rows, cols = upper_tri_pairs_in_range(
            matrix, matrix.T.tocsc(), 2, 2, 1.0
        )
        assert rows.size == 0 and cols.size == 0
        assert rows.dtype == np.int64 and cols.dtype == np.int64


class TestWorkspaceWidth:
    def test_width_overrides_configured_threads(self):
        with KernelWorkspace(1) as workspace:
            out = workspace.map(lambda v: v * 2, [1, 2, 3], width=4)
            assert out == [2, 4, 6]
            assert workspace.pools_created == 1

    def test_pool_grows_to_widest_request(self):
        with KernelWorkspace(2) as workspace:
            workspace.map(lambda v: v, [1, 2], width=2)
            assert workspace._pool_width == 2
            workspace.map(lambda v: v, [1, 2], width=6)
            assert workspace._pool_width == 6
            # narrower maps reuse the wider pool without recreating it
            created = workspace.pools_created
            workspace.map(lambda v: v, [1, 2], width=3)
            assert workspace.pools_created == created

    def test_serial_width_never_creates_pool(self):
        with KernelWorkspace(4) as workspace:
            out = workspace.map(lambda v: v + 1, [1, 2, 3], width=1)
            assert out == [2, 3, 4]
            assert workspace.pools_created == 0
