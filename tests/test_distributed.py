"""Tests for the parallel executors and the cluster cost model."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FeatureSpace, evaluate_slices
from repro.distributed import (
    ClusterCostModel,
    ClusterSpec,
    DistributedPForExecutor,
    MTOpsExecutor,
    MTPForExecutor,
    SerialExecutor,
    make_executor,
    partition_work,
)
from repro.distributed.simulate import WorkProfile
from repro.exceptions import ExecutionError, ValidationError
from repro.obs import Tracer

#: one spec per strategy, with deliberately awkward partition counts
ALL_EXECUTORS = [
    ("serial", {"block_size": 8}),
    ("mt-ops", {"num_threads": 3}),
    ("mt-pfor", {"num_threads": 3, "block_size": 8}),
    ("dist-pfor", {"num_nodes": 3, "executors_per_node": 2}),
]


@pytest.fixture
def eval_problem(planted_dataset):
    x0, errors, _ = planted_dataset
    space = FeatureSpace.from_matrix(x0)
    x = space.encode(x0)
    gen = np.random.default_rng(9)
    rows = []
    for _ in range(40):
        pick = gen.choice(space.num_onehot, size=2, replace=False)
        row = np.zeros(space.num_onehot)
        row[pick] = 1
        rows.append(row)
    slices = sp.csr_matrix(np.array(rows))
    # The executors take the CSR S; evaluate_slices takes its key array.
    keys = slices.indices.reshape(-1, 2).astype(np.int64)
    reference = evaluate_slices(x, errors, keys, 2, 0.95)
    return x, errors, slices, reference


class TestPartitionWork:
    def test_covers_all_items(self):
        ranges = partition_work(17, 4)
        items = [i for r in ranges for i in r]
        assert items == list(range(17))

    def test_balanced(self):
        sizes = [len(r) for r in partition_work(10, 3)]
        assert max(sizes) - min(sizes) <= 1

    def test_empty_ranges_dropped(self):
        assert len(partition_work(2, 8)) == 2

    def test_invalid(self):
        with pytest.raises(ValidationError):
            partition_work(5, 0)
        with pytest.raises(ValidationError):
            partition_work(-1, 2)


class TestExecutorsAgree:
    """All strategies must produce identical statistics (they differ only
    in scheduling)."""

    @pytest.mark.parametrize("strategy,kwargs", [
        ("serial", {"block_size": 8}),
        ("mt-ops", {"num_threads": 3}),
        ("mt-pfor", {"num_threads": 3, "block_size": 8}),
        ("dist-pfor", {"num_nodes": 3, "executors_per_node": 2}),
    ])
    def test_matches_reference(self, eval_problem, strategy, kwargs):
        x, errors, slices, reference = eval_problem
        executor = make_executor(strategy, **kwargs)
        out = executor.evaluate(x, errors, slices, 2, 0.95)
        np.testing.assert_allclose(out, reference, rtol=1e-12)

    def test_unknown_strategy(self):
        with pytest.raises(ExecutionError):
            make_executor("spark")

    def test_factory_types(self):
        assert isinstance(make_executor("serial"), SerialExecutor)
        assert isinstance(make_executor("mt-ops"), MTOpsExecutor)
        assert isinstance(make_executor("mt-pfor"), MTPForExecutor)
        assert isinstance(make_executor("dist-pfor"), DistributedPForExecutor)

    def test_each_executor_reports_a_span(self, eval_problem):
        x, errors, slices, _ = eval_problem
        for strategy, kwargs in ALL_EXECUTORS:
            tracer = Tracer()
            executor = make_executor(strategy, **kwargs)
            executor.evaluate(x, errors, slices, 2, 0.95, tracer=tracer)
            span = tracer.find(f"executor.{executor.name}.evaluate")
            assert span is not None, strategy
            assert span.elapsed_seconds > 0
            assert span.attrs["num_slices"] == slices.shape[0]


class TestExecutorParityProperty:
    """Property: all four strategies produce *bitwise-identical* stats R.

    Errors are drawn as dyadic rationals (multiples of 1/16) so every
    partial sum any executor can form is exact in float64 — summation
    order cannot perturb a single bit, which makes strict equality the
    right assertion (scheduling must not change results at all).
    """

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        num_slices=st.integers(1, 30),
        level=st.integers(1, 3),
    )
    def test_bitwise_identical_stats(self, seed, num_slices, level):
        gen = np.random.default_rng(seed)
        n = int(gen.integers(20, 120))
        m = int(gen.integers(3, 6))
        x0 = np.column_stack(
            [gen.integers(1, int(gen.integers(2, 5)) + 1, size=n) for _ in range(m)]
        ).astype(np.int64)
        space = FeatureSpace.from_matrix(x0)
        x = space.encode(x0)
        errors = gen.integers(0, 17, size=n) / 16.0
        if errors.sum() == 0:
            errors[0] = 1.0
        rows = np.zeros((num_slices, space.num_onehot))
        for i in range(num_slices):
            pick = gen.choice(
                space.num_onehot,
                size=min(level, space.num_onehot),
                replace=False,
            )
            rows[i, pick] = 1
        slices = sp.csr_matrix(rows)

        results = {
            strategy: make_executor(strategy, **kwargs).evaluate(
                x, errors, slices, level, 0.95
            )
            for strategy, kwargs in ALL_EXECUTORS
        }
        reference = results["serial"]
        assert reference.shape == (num_slices, 4)
        for strategy, out in results.items():
            assert np.array_equal(out, reference), (
                f"{strategy} diverged from serial on seed={seed}"
            )


class TestClusterCostModel:
    @pytest.fixture
    def work(self):
        return WorkProfile(
            serial_compute_seconds=100.0,
            slice_matrix_mb=2.0,
            stats_mb=1.0,
            num_jobs=3,
        )

    def test_figure7b_ordering(self, work):
        """MT-PFor beats MT-Ops; Dist-PFor beats MT-PFor (paper's shape)."""
        model = ClusterCostModel()
        times = model.compare(work, num_threads=32)
        assert times["mt-pfor"] < times["mt-ops"]
        assert times["dist-pfor"] < times["mt-pfor"]

    def test_mt_pfor_speedup_factor(self, work):
        # the paper reports ~2x for MT-PFor over MT-Ops
        times = ClusterCostModel().compare(work, num_threads=32)
        ratio = times["mt-ops"] / times["mt-pfor"]
        assert 1.3 < ratio < 3.5

    def test_dist_overhead_dominates_tiny_work(self):
        tiny = WorkProfile(serial_compute_seconds=0.5)
        times = ClusterCostModel().compare(tiny, num_threads=32)
        # for tiny inputs the cluster overheads make Dist-PFor slower
        assert times["dist-pfor"] > times["mt-pfor"]

    def test_more_threads_never_slower(self, work):
        model = ClusterCostModel()
        assert model.mt_pfor_seconds(work, 64) <= model.mt_pfor_seconds(work, 8)

    def test_invalid_cluster(self):
        with pytest.raises(ValidationError):
            ClusterSpec(num_nodes=0)


class TestTopKTieBreakDeterminism:
    """Equal-score slices must rank identically however the stats were made.

    Perfectly correlated (duplicated) features make the slices ``F_i = v``
    carry bitwise-equal (score, size, error) triples for every feature
    ``i`` — including positive-score winners — so the top-K order is decided
    purely by the tie-break.  Whatever executor strategy or thread count
    produced the stats matrix — and however the candidate rows were permuted
    on arrival — ``maintain_topk`` must return one canonical ranking.
    """

    def _problem(self):
        from repro.core import FeatureSpace

        reps, d, m = 30, 4, 3
        base = (np.arange(reps * d) % d + 1).astype(np.int64)
        x0 = np.column_stack([base] * m)
        errors = (base == 1).astype(np.float64) / 16.0
        space = FeatureSpace.from_matrix(x0)
        x = space.encode(x0)
        slices = sp.identity(space.num_onehot, format="csr")
        return x, errors, slices, d, m

    def test_identical_ranking_across_executors_and_threads(self):
        from repro.core.topk import empty_topk, maintain_topk

        x, errors, slices, _, _ = self._problem()
        sweeps = ALL_EXECUTORS + [
            ("mt-pfor", {"num_threads": 1, "block_size": 4}),
            ("mt-pfor", {"num_threads": 5, "block_size": 2}),
        ]
        rankings = []
        permutations = [
            np.arange(slices.shape[0]),
            np.arange(slices.shape[0])[::-1].copy(),
            np.random.default_rng(17).permutation(slices.shape[0]),
        ]
        for (strategy, kwargs), perm in zip(
            sweeps * len(permutations), permutations * len(sweeps)
        ):
            stats = make_executor(strategy, **kwargs).evaluate(
                x, errors, slices, 1, 0.95
            )
            # Row i of the identity S is the key [i].
            shuffled = perm.astype(np.int64)[:, np.newaxis]
            empty_s, empty_r = empty_topk(slices.shape[1])
            top_slices, top_stats = maintain_topk(
                shuffled, stats[perm], empty_s, empty_r, k=6, sigma=1
            )
            rankings.append(
                (top_slices.toarray().tolist(), top_stats.tolist())
            )
        reference = rankings[0]
        for ranking in rankings[1:]:
            assert ranking == reference

    def test_exact_ties_ranked_by_predicate_columns(self):
        from repro.core.topk import empty_topk, maintain_topk

        x, errors, slices, d, m = self._problem()
        stats = make_executor("serial").evaluate(x, errors, slices, 1, 0.95)
        # the m duplicated features give m bitwise-identical positive rows
        # (the slices F_i = 1); the canonical order among them is ascending
        # one-hot column index, whatever the arrival order was
        winners = [i * d for i in range(m)]
        assert len({tuple(stats[i].tolist()) for i in winners}) == 1
        assert stats[winners[0], 0] > 0
        empty_s, empty_r = empty_topk(slices.shape[1])
        reversed_keys = np.arange(slices.shape[0], dtype=np.int64)[::-1]
        top_slices, _ = maintain_topk(
            reversed_keys[:, np.newaxis], stats[::-1],
            empty_s, empty_r, k=m, sigma=1,
        )
        assert [row.indices.tolist() for row in top_slices] == [
            [col] for col in winners
        ]
