"""Parallel chunk-local pair pipeline: bitwise oracle matrix + unit coverage.

The pair-candidate pipeline (subset-index join, one-pass validity/prune/
merge per chunk, chunk-local dedup with group-min folding, deterministic
concatenation, global dedup over shrunk keys) is a pure performance
optimization — every configuration must reproduce
``reference_pair_candidates`` from ``tests/pair_oracle.py`` (the
preserved pre-pipeline implementation, which keeps the Gram join)
bitwise: candidate matrices, bounds, and all non-execution counters,
across any join width (a :class:`~repro.linalg.KernelWorkspace`'s
``num_threads``), chunk grid, pruning arm and compaction mode.  These
tests certify that contract end-to-end (the oracle keeps the CSR format,
so its inputs and outputs are converted at its boundary) and unit-test
the supporting pieces (the subset-index join against the oracle's Gram
join, the :func:`choose_pair_plan` cost model, and the oracle's
``upper_tri_pairs_in_range``).
"""

from dataclasses import fields

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.core import PruningConfig, SliceLineConfig, slice_line
from repro.core import pairs as pairs_mod
from repro.core.basic import create_and_score_basic_slices
from repro.core.evaluate import evaluate_slices
from repro.core.onehot import FeatureSpace
from repro.core.pairs import choose_pair_plan, get_pair_candidates
from repro.core.types import StatsCol, valid_rows
from repro.linalg import KernelWorkspace, keys_to_csr
from repro.obs import EXECUTION_FIELDS, LevelCounters, Tracer
from tests import pair_oracle
from tests.pair_oracle import (
    reference_pair_candidates,
    upper_tri_pairs,
    upper_tri_pairs_in_range,
)


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
    basic = create_and_score_basic_slices(x0, space, errors, sigma, alpha)
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
        "x_projected": x_onehot[:, basic.selected_columns],
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


def record_subset_indexes(monkeypatch):
    """Collect every subset index the pipeline builds, in call order."""
    built = []
    build = pairs_mod._subset_index

    def recording(keys, num_cols):
        built.append(build(keys, num_cols))
        return built[-1]

    monkeypatch.setattr(pairs_mod, "_subset_index", recording)
    return built


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


@pytest.fixture(scope="class")
def plan_parallel_at_any_size():
    """Let a width above 1 map chunks over the pool at these sizes.

    The cost model keeps levels under ``_MIN_PARALLEL_OPS`` serial, and
    every level in this module is far smaller.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pairs_mod, "_MIN_PARALLEL_OPS", 1)
        yield


@pytest.mark.usefixtures("plan_parallel_at_any_size")
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
                    workspace=workspace,
                )
            assert_pairs_identical(ref, new, f"{inputs}/{arm}/p{parallelism}")
            assert new[-1].join_parallelism == parallelism
            if inputs == "permuted-duplicated" and pruning.deduplicate:
                rec = new[-1]
                assert rec.candidates_before_dedup > rec.deduplicated

    @pytest.mark.parametrize("arm", sorted(PRUNING_ARMS))
    @pytest.mark.parametrize("parallelism", [1, 2, 8])
    def test_deeper_levels_oracle(self, arm, parallelism, monkeypatch):
        """Levels 3 and 4 match the Gram oracle, invalid parents included.

        Each level's parents are the previous level's candidates, evaluated,
        plus a repeated parent and a parent holding two values of one
        feature (the driver never passes one; direct callers may).  Some
        left row has more pairs than a chunk's budget, so a one-row chunk
        larger than ``_PAIR_BATCH`` goes through the merge in one pass.
        """
        monkeypatch.setattr(pairs_mod, "_PAIR_BATCH", 10)
        indexes = record_subset_indexes(monkeypatch)
        pruning = PRUNING_ARMS[arm]
        # alpha near 1 keeps most deeper parents' score bounds positive
        problem = {**pairs_problem(n=400, m=5), "alpha": 0.99}
        feature_map = problem["feature_map"]
        same_feature = np.flatnonzero(feature_map[1:] == feature_map[:-1])[0]
        other_feature = np.flatnonzero(
            feature_map != feature_map[same_feature]
        )[: 2]
        for level in (3, 4):
            keys = run_pairs(
                get_pair_candidates, problem, level=level - 1,
                pruning=PruningConfig(by_score=False),
            )[0]
            stats = evaluate_slices(
                problem["x_projected"], problem["errors"], keys, level - 1,
                problem["alpha"],
            )
            # copy the stats of a parent that passes every input filter
            passing = valid_rows(stats, problem["sigma"])
            best = np.argmax(np.where(passing, stats[:, StatsCol.SCORE], -np.inf))
            invalid = np.sort(
                np.append(
                    other_feature[: level - 3], [same_feature, same_feature + 1]
                )
            )
            problem = {
                **problem,
                "slices": np.vstack([keys, keys[best], invalid]),
                "stats": np.vstack([stats, stats[best], stats[best]]),
            }
            ref = run_pairs(
                reference_pair_candidates, problem, level=level, pruning=pruning
            )
            with KernelWorkspace(parallelism) as workspace:
                new = run_pairs(
                    get_pair_candidates, problem, level=level, pruning=pruning,
                    workspace=workspace,
                )
            assert_pairs_identical(ref, new, f"L{level}/{arm}/p{parallelism}")
            assert new[-1].join_parallelism == parallelism
            assert indexes[-1].row_pairs.max() > pairs_mod._PAIR_BATCH
            assert new[-1].invalid_feature_pairs > 0
            assert new[-1].candidates_emitted > 0

    def test_level2_skips_dedup(self, monkeypatch):
        """Level 2 over basic slices, as slice_line runs it, never dedups."""
        problem = pairs_problem()
        ref = run_pairs(reference_pair_candidates, problem)

        def no_dedup(*args, **kwargs):
            raise AssertionError("level 2 over basic slices deduplicated")

        monkeypatch.setattr(pairs_mod, "_dedup_keys", no_dedup)
        with KernelWorkspace(2) as workspace:
            new = run_pairs(get_pair_candidates, problem, workspace=workspace)
        assert_pairs_identical(ref, new, "skip")
        result = slice_line(
            problem["x0"], problem["errors"],
            config=SliceLineConfig(k=6, sigma=problem["sigma"], max_level=2),
            num_threads=2,
        )
        assert result.counters.level(2).candidates_emitted > 0
        assert result.counters.reconcile() == []
        with pytest.raises(AssertionError, match="deduplicated"):
            run_pairs(get_pair_candidates, permuted_with_duplicate(problem))

    @pytest.mark.parametrize("parallelism", [1, 2, 8])
    def test_tiny_chunk_grid(self, parallelism, monkeypatch):
        """Results are invariant under any chunk grid, however degenerate."""
        problem = pairs_problem()
        monkeypatch.setattr(pair_oracle, "_PAIR_CHUNK_CELLS", 64)
        ref = run_pairs(reference_pair_candidates, problem)
        monkeypatch.setattr(pairs_mod, "_PAIR_BATCH", 16)
        indexes = record_subset_indexes(monkeypatch)
        with KernelWorkspace(parallelism) as workspace:
            new = run_pairs(
                get_pair_candidates, problem,
                workspace=workspace,
            )
        assert_pairs_identical(ref, new, f"tiny-grid/p{parallelism}")
        assert new[-1].join_parallelism == parallelism
        # rows with more pairs than the budget form one-row chunks
        assert indexes[-1].row_pairs.max() > pairs_mod._PAIR_BATCH

    def test_topk_threshold_pruning(self):
        """Score pruning against a live top-K threshold reduces identically."""
        problem = pairs_problem()
        for threshold in (0.1, 0.5, 2.0):
            ref = run_pairs(
                reference_pair_candidates, problem, topk_min_score=threshold
            )
            new = run_pairs(
                get_pair_candidates, problem, topk_min_score=threshold,
                workspace=None,
            )
            assert_pairs_identical(ref, new, f"threshold={threshold}")

    def test_without_workspace_defaults_serial(self):
        """Direct callers without a workspace keep the old call shape.

        Without a pool to map over, a level plans serially and reports so;
        with one it plans at the workspace's width.
        """
        problem = pairs_problem()
        ref = run_pairs(reference_pair_candidates, problem)
        tracer = Tracer()
        new = run_pairs(get_pair_candidates, problem, tracer=tracer)
        assert_pairs_identical(ref, new, "no-workspace")
        assert new[-1].join_parallelism == 1
        assert new[-1].join_chunks == 1
        assert tracer.find("pairs.join").attrs["parallelism"] == 1
        with KernelWorkspace(4) as workspace:
            pooled = run_pairs(get_pair_candidates, problem, workspace=workspace)
        assert_pairs_identical(ref, pooled, "workspace")
        assert pooled[-1].join_parallelism == 4
        assert pooled[-1].join_chunks > 1

    def test_missing_codes(self):
        problem = pairs_problem(seed=23, missing=0.15)
        ref = run_pairs(reference_pair_candidates, problem)
        with KernelWorkspace(3) as workspace:
            new = run_pairs(
                get_pair_candidates, problem,
                workspace=workspace,
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
                workspace=workspace,
            )
        assert_pairs_identical(ref, new, f"seed={seed}")


# ---------------------------------------------------------------------------
# bitwise oracle: end-to-end runs across the full configuration matrix


@pytest.mark.usefixtures("plan_parallel_at_any_size")
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
        baseline = slice_line(problem["x0"], problem["errors"], config=config)
        run = slice_line(
            problem["x0"], problem["errors"], config=config,
            num_threads=parallelism,
        )
        assert np.array_equal(baseline.top_stats, run.top_stats)
        assert np.array_equal(
            baseline.top_slices_encoded, run.top_slices_encoded
        )
        ref_records = _records(baseline)
        new_records = _records(run)
        assert ref_records == new_records

    def test_flow_conservation_on_chunked_counters(self, monkeypatch):
        """The chunk-reduced counters still satisfy every flow identity."""
        monkeypatch.setattr(pairs_mod, "_PAIR_BATCH", 256)
        problem = pairs_problem(n=500)
        result = slice_line(
            problem["x0"], problem["errors"],
            config=SliceLineConfig(k=6, sigma=problem["sigma"]),
            num_threads=8,
        )
        assert result.counters.reconcile() == []
        level2 = result.counters.level(2)
        assert level2.pairs_generated > 0
        assert level2.join_chunks > 1
        assert level2.join_parallelism == 8


def _records(result):
    records = []
    for record in result.counters.levels:
        as_dict = record.to_dict()
        for name in EXECUTION_FIELDS:
            as_dict.pop(name, None)
        records.append(as_dict)
    return records


# ---------------------------------------------------------------------------
# unit coverage: cost model, subset join, Gram join


class TestChoosePairPlan:
    @staticmethod
    def _assert_covers(plan, num_rows):
        assert plan.ranges[0][0] == 0 and plan.ranges[-1][1] == num_rows
        for (_, prev_stop), (start, stop) in zip(plan.ranges, plan.ranges[1:]):
            assert prev_stop == start < stop

    @staticmethod
    def _covtype_level3_counts():
        """187,501 pairs over 2,755 left rows (covtype-deep's level 3)."""
        gen = np.random.default_rng(0)
        return gen.multinomial(187_501, np.full(2755, 1 / 2755))

    def test_empty_and_singleton_inputs(self):
        assert choose_pair_plan(np.zeros(0, dtype=np.int64), 8).ranges == ()
        assert choose_pair_plan(np.zeros(1, dtype=np.int64), 8).ranges == ()
        # parents that share no subset plan no chunk either
        assert choose_pair_plan(np.zeros(40, dtype=np.int64), 8).ranges == ()

    def test_small_levels_run_serially(self):
        plan = choose_pair_plan(np.arange(49, -1, -1), 8)  # 50 parents, level 2
        assert plan.parallelism == 1
        assert plan.ranges == ((0, 50),)

    def test_large_levels_go_parallel_with_spare_chunks(self):
        counts = self._covtype_level3_counts()
        assert counts.sum() * pairs_mod._OPS_PER_PAIR >= pairs_mod._MIN_PARALLEL_OPS
        plan = choose_pair_plan(counts, 2)
        assert plan.parallelism == 2
        assert plan.num_chunks >= 2 * pairs_mod._CHUNKS_PER_WORKER
        self._assert_covers(plan, counts.size)

    def test_parallelism_one_never_goes_parallel(self):
        plan = choose_pair_plan(self._covtype_level3_counts(), 1)
        assert plan.parallelism == 1
        assert plan.ranges == ((0, 2755),)

    def test_level2_disjoint_join_counts_quadratic_pairs(self):
        """At level 2 one group holds every parent: row i has n-1-i pairs."""
        num_parents = 1500
        keys = np.arange(num_parents, dtype=np.int64)[:, None]
        index = pairs_mod._subset_index(keys, num_parents)
        assert np.array_equal(
            index.row_pairs, np.arange(num_parents - 1, -1, -1)
        )
        plan = choose_pair_plan(index.row_pairs, 4)
        assert plan.parallelism == 4
        self._assert_covers(plan, num_parents)
        # chunks balance pairs, not rows: the triangular head gets few rows
        pairs_per_chunk = [
            int(index.row_pairs[start:stop].sum()) for start, stop in plan.ranges
        ]
        budget = int(index.row_pairs.sum()) // (4 * pairs_mod._CHUNKS_PER_WORKER)
        assert max(pairs_per_chunk) <= budget
        rows_per_chunk = [stop - start for start, stop in plan.ranges]
        assert rows_per_chunk[0] < rows_per_chunk[-1]

    def test_plan_respects_pair_budget(self, monkeypatch):
        monkeypatch.setattr(pairs_mod, "_PAIR_BATCH", 100)
        gen = np.random.default_rng(7)
        counts = gen.integers(0, 40, size=300)
        counts[[3, 150, 299]] = [250, 101, 400]  # rows above the budget
        for width in (1, 2, 8):
            plan = choose_pair_plan(counts, width)
            self._assert_covers(plan, counts.size)
            for start, stop in plan.ranges:
                assert counts[start:stop].sum() <= 100 or stop - start == 1


def _random_parent_keys(gen, level, num_parents, pool, duplicates, wide):
    """Parent keys with repeated rows, in random row order.

    Each row holds ``L-1`` distinct ascending columns drawn from a pool of
    ``L-1+pool`` columns, so rows overlap often.  *wide* draws the pool
    from ``[0, 2^32)``, where ``num_cols^(L-2)`` overflows ``int64`` from
    level 4 on.  Returns the keys and ``num_cols``.
    """
    width = level - 1
    if wide:
        num_cols = 2**32
        columns = np.unique(gen.integers(0, num_cols, size=width + pool))
        while columns.size < width + pool:
            columns = np.unique(
                np.append(columns, gen.integers(0, num_cols, size=1))
            )
    else:
        num_cols = width + pool
        columns = np.arange(num_cols)
    rows = [
        np.sort(gen.choice(columns, size=width, replace=False))
        for _ in range(num_parents)
    ]
    keys = np.array(rows, dtype=np.int64).reshape(num_parents, width)
    if num_parents:
        repeated = keys[gen.integers(0, num_parents, size=duplicates)]
        keys = np.concatenate([keys, repeated])
    return keys[gen.permutation(keys.shape[0])], num_cols


class TestSubsetJoin:
    """The subset-index join is the Gram join, array for array."""

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        level=st.integers(2, 5),
        num_parents=st.integers(0, 40),
        pool=st.integers(0, 5),
        duplicates=st.integers(0, 6),
        wide=st.booleans(),
        data=st.data(),
    )
    def test_matches_gram_join(
        self, seed, level, num_parents, pool, duplicates, wide, data
    ):
        gen = np.random.default_rng(seed)
        keys, num_cols = _random_parent_keys(
            gen, level, num_parents, pool, duplicates, wide
        )
        n = keys.shape[0]
        start = data.draw(st.integers(0, n), label="start")
        stop = data.draw(
            st.sampled_from(sorted({start, min(start + 1, n), n})), label="stop"
        )
        # The Gram oracle runs on dense column ranks: relabeling columns
        # injectively keeps every overlap, so the pairs are the same.
        columns, ranks = np.unique(keys, return_inverse=True)
        s = keys_to_csr(ranks.reshape(keys.shape), max(columns.size, 1))
        rows, cols = upper_tri_pairs_in_range(
            s, s.T, start, stop, float(level - 2)
        )

        index = pairs_mod._subset_index(keys, num_cols)
        joined = pairs_mod._subset_pairs(index, start, stop)
        left, right, left_dropped, right_dropped = pairs_mod._row_major(
            n, *joined
        )
        assert np.array_equal(left, rows)
        assert np.array_equal(right, cols)
        if level == 2:  # one group already emits row-major order
            ordered = (left, right, left_dropped, right_dropped)
            for got, want in zip(joined, ordered, strict=True):
                assert np.array_equal(got, want)
        # identical parents are planned, then dropped
        identical = sum(
            int(np.count_nonzero((keys[i + 1 :] == keys[i]).all(axis=1)))
            for i in range(start, stop)
        ) * (level - 1)
        assert int(index.row_pairs[start:stop].sum()) == left.size + identical

        merged = pairs_mod._insert_column(
            np.ascontiguousarray(keys.T), left, right_dropped
        )
        expected = columns[pair_oracle._merge_keys_sparse(s, left, right, level)]
        assert merged.dtype == np.int64
        assert np.array_equal(merged, expected.reshape(left.size, level))
        # each dropped column is the one column its parent does not share
        assert (keys[left] == left_dropped[:, None]).any(axis=1).all()
        assert (keys[right] == right_dropped[:, None]).any(axis=1).all()
        assert not (keys[right] == left_dropped[:, None]).any()
        assert not (keys[left] == right_dropped[:, None]).any()

    def test_feature_validity_from_dropped_columns(self):
        """The pre-merge test equals validity of the merged keys."""
        gen = np.random.default_rng(3)
        for level in (2, 3, 4):
            keys, num_cols = _random_parent_keys(gen, level, 60, 4, 5, False)
            feature_map = np.sort(gen.integers(0, num_cols // 2 + 1, size=num_cols))
            index = pairs_mod._subset_index(keys, num_cols)
            left, right, left_dropped, right_dropped = pairs_mod._subset_pairs(
                index, 0, keys.shape[0]
            )
            merged = pairs_mod._insert_column(
                np.ascontiguousarray(keys.T), left, right_dropped
            )
            parent_ok = pairs_mod._feature_valid(keys, feature_map)
            fast = (
                parent_ok[left]
                & parent_ok[right]
                & (feature_map[left_dropped] != feature_map[right_dropped])
            )
            assert np.array_equal(fast, pairs_mod._feature_valid(merged, feature_map))

    def test_join_span_reports_planned_pairs(self):
        problem = permuted_with_duplicate(pairs_problem())
        tracer = Tracer()
        _, _, _, recorder = run_pairs(get_pair_candidates, problem, tracer=tracer)
        span = tracer.find("pairs.join")
        assert span.attrs["pairs"] == recorder.pairs_generated
        # the one repeated basic slice pairs once with its copy, then drops
        assert span.attrs["planned_pairs"] == recorder.pairs_generated + 1
        assert span.attrs["chunks"] >= 1


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
