"""Differential tests for the pluggable evaluation-kernel backends.

The contract under test (see :mod:`repro.linalg.kernels`) is strict
bitwise equality: every backend — sparse, bitset, and the ``auto`` cost
model — must produce the exact same floats for every slice statistic and
the exact same final top-K, across thread counts, block sizes, compaction
modes, warm starts, checkpoints and budgets.  Errors in these tests are
dyadic rationals (multiples of 1/16) so even *independently recomputed*
oracle sums are exact, not merely close; the backends themselves must
agree bitwise on arbitrary floats, which the oracle-free cross-backend
assertions cover.  0/1 errors (a classifier's inaccuracy) take the bitset
backend's popcount path, so the differential matrix, the hypothesis sweep
and the block-statistics oracle run on them as well.
"""

from __future__ import annotations

import functools
import operator

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.linalg.kernels as kernels_mod
from repro.core import (
    FeatureSpace,
    Slice,
    SliceLineConfig,
    encode_slices,
    evaluate_slice_set,
    slice_line,
)
from repro.core.evaluate import _block_stats
from repro.exceptions import ValidationError
from repro.linalg import KernelWorkspace
from repro.linalg.kernels import (
    BACKENDS,
    MIN_BITSET_CANDIDATES,
    MIN_BITSET_CELLS,
    BitsetTable,
    choose_backend,
    estimate_table_bytes,
    is_binary_matrix,
    num_packed_words,
    pack_binary_errors,
    pack_bool_rows,
    popcount_rows,
    unpack_bool_rows,
    words_block_stats,
)
from repro.linalg.kernels import _popcount_rows_lut
from repro.obs import Tracer
from repro.resilience import BudgetConfig

#: The two concrete backends plus the cost model — the full request space.
ALL_BACKENDS = list(BACKENDS)
FORCED = ["sparse", "bitset"]


def backend_problem(seed=7, n=480, m=6):
    """A problem deep enough that levels 2-3 emit hundreds of candidates.

    Errors are dyadic so any summation order is exact; a planted slice
    keeps the search from terminating at level 1.
    """
    gen = np.random.default_rng(seed)
    x0 = np.column_stack(
        [gen.integers(1, 4, size=n) for _ in range(m)]
    ).astype(np.int64)
    errors = gen.integers(0, 17, size=n) / 16.0
    errors[(x0[:, 0] == 1) & (x0[:, 1] == 2)] = 1.0
    return x0, errors


def binary_errors(x0, seed=7, rate=0.25):
    """0/1 errors over *x0* with the same planted slice as the dyadic ones."""
    gen = np.random.default_rng(seed)
    errors = (gen.random(x0.shape[0]) < rate).astype(np.float64)
    errors[(x0[:, 0] == 1) & (x0[:, 1] == 2)] = 1.0
    return errors


def error_paths(tracer):
    """The ``errors`` attribute of every traced ``evaluate.blocks`` span."""
    return {
        span.attrs["errors"]
        for span in tracer.iter_spans()
        if span.name == "evaluate.blocks"
    }


def assert_bitwise(ref, other, label=""):
    """Equal bytes, so ``-0.0`` and ``+0.0`` count as different."""
    assert ref.dtype == other.dtype and ref.shape == other.shape, label
    assert ref.tobytes() == other.tobytes(), label


def run_backend(x0, errors, backend, *, num_threads=1, seeds=None, **overrides):
    config = SliceLineConfig(
        k=6, sigma=5, kernel_backend=backend, **overrides
    )
    return slice_line(
        x0, errors, config, num_threads=num_threads, seed_slices=seeds
    )


def assert_same_result(ref, other, label=""):
    """Bitwise equality of two runs' top-K output."""
    assert np.array_equal(ref.top_stats, other.top_stats), label
    assert np.array_equal(
        ref.top_slices_encoded, other.top_slices_encoded
    ), label
    assert [s.predicates for s in ref.top_slices] == [
        s.predicates for s in other.top_slices
    ], label


# ---------------------------------------------------------------------------
# bit packing and popcount primitives


class TestPacking:
    @pytest.mark.parametrize("num_bits", [0, 1, 7, 8, 63, 64, 65, 130, 511])
    def test_pack_unpack_round_trip(self, num_bits):
        gen = np.random.default_rng(num_bits)
        rows = gen.random((5, num_bits)) < 0.4
        words = pack_bool_rows(rows)
        assert words.dtype == np.uint64
        assert words.shape == (5, num_packed_words(num_bits))
        assert np.array_equal(unpack_bool_rows(words, num_bits), rows)

    def test_pack_zero_rows(self):
        words = pack_bool_rows(np.zeros((0, 77), dtype=bool))
        assert words.shape == (0, num_packed_words(77))
        assert unpack_bool_rows(words, 77).shape == (0, 77)

    def test_num_packed_words(self):
        assert num_packed_words(0) == 0
        assert num_packed_words(1) == 1
        assert num_packed_words(64) == 1
        assert num_packed_words(65) == 2

    def test_popcount_matches_unpacked_sum(self):
        gen = np.random.default_rng(0)
        rows = gen.random((9, 200)) < 0.3
        words = pack_bool_rows(rows)
        expected = rows.sum(axis=1)
        assert np.array_equal(popcount_rows(words), expected)
        # The byte-LUT fallback (numpy without np.bitwise_count) must agree.
        assert np.array_equal(_popcount_rows_lut(words), expected)

    def test_popcount_empty_words(self):
        assert np.array_equal(
            popcount_rows(np.zeros((3, 0), dtype=np.uint64)),
            np.zeros(3, dtype=np.int64),
        )

    def test_is_binary_matrix(self):
        assert is_binary_matrix(sp.csr_matrix(np.eye(3)))
        assert is_binary_matrix(sp.csr_matrix((3, 4)))
        assert not is_binary_matrix(sp.csr_matrix(np.eye(3) * 2.0))


# ---------------------------------------------------------------------------
# block statistics vs an independent dense oracle


class TestWordsBlockStats:
    def build(self, seed, n=150, cols=9):
        gen = np.random.default_rng(seed)
        x = (gen.random((n, cols)) < 0.5).astype(np.float64)
        x[:, 0] = 1.0  # one full column -> a full-coverage slice exists
        x[:, 8] = 1.0 - x[:, 7]  # disjoint columns -> an empty AND exists
        errors = gen.integers(0, 17, size=n) / 16.0
        return sp.csr_matrix(x), errors

    def test_matches_dense_oracle(self):
        x, dyadic = self.build(3)
        num_rows = x.shape[0]
        assert num_rows % 64  # a partial last word
        gen = np.random.default_rng(5)
        error_kinds = {
            "dyadic": dyadic,
            "binary": (gen.random(num_rows) < 0.3).astype(np.float64),
            "all-zero": np.zeros(num_rows),
            "all-one": np.ones(num_rows),
            # One error, so the full slice has se == sm == 1.
            "single-one": np.eye(1, num_rows)[0],
        }
        table = BitsetTable.from_matrix(x)
        dense = x.toarray() != 0
        # Pairs incl. (0, 0) -> the full slice, and (7, 8) -> an empty AND.
        keys = np.array([[0, 0], [1, 2], [3, 4], [5, 6], [7, 8]])
        words = table.candidate_words(keys)
        for kind, errors in error_kinds.items():
            error_words = pack_binary_errors(errors)
            assert (error_words is None) == (kind == "dyadic"), kind
            sizes, se, sm, covered = words_block_stats(
                words, errors, num_rows, True, error_words
            )
            for i, (a, b) in enumerate(keys):
                mask = dense[:, a] & dense[:, b]
                count = int(mask.sum())
                assert sizes[i] == float(count), kind
                assert se[i] == float(errors[mask].sum()), kind
                member_max = errors[mask].max() if count else 0.0
                if 0 < count < num_rows:
                    member_max = max(member_max, 0.0)
                assert sm[i] == member_max, kind
            expected_cover = np.zeros(num_rows, dtype=bool)
            for a, b in keys:
                expected_cover |= dense[:, a] & dense[:, b]
            assert np.array_equal(covered, expected_cover), kind
            # The popcount path is bitwise the unpacking path.
            general = words_block_stats(words, errors, num_rows, True)
            for got, want in zip((sizes, se, sm), general[:3]):
                assert_bitwise(want, got, kind)

    def test_general_path_folds_left_to_right(self):
        # Continuous errors: se is exact only as the sequential left-to-right
        # fold of each slice's member errors in row order, which a pairwise
        # sum (np.sum, np.add.reduceat) misses once a slice has > 8 members.
        num_rows, cols = 150, 9
        gen = np.random.default_rng(11)
        x = (gen.random((num_rows, cols)) < 0.5).astype(np.float64)
        x[:, :2] = 1.0  # columns 0 and 1 -> a full-coverage slice
        x[:, 8] = 1.0 - x[:, 7]  # disjoint columns -> an empty AND
        x = sp.csr_matrix(x)
        errors = gen.random(num_rows)
        # Empty ANDs first, in the middle and last.
        keys = np.array([[7, 8], [0, 1], [2, 3], [7, 8], [4, 5], [3, 6], [7, 8]])
        words = BitsetTable.from_matrix(x).candidate_words(keys)
        got = words_block_stats(words, errors, num_rows)
        slices = sp.csr_matrix(
            (np.ones(keys.size), keys.ravel(), np.arange(0, keys.size + 1, 2)),
            shape=(len(keys), cols),
        )
        want = _block_stats(x, errors, slices.T.tocsc(), 2)
        for name, a, b in zip(("ss", "se", "sm"), want[:3], got[:3]):
            assert_bitwise(a, b, name)
        dense = x.toarray() != 0
        sizes = []
        for i, (a, b) in enumerate(keys):
            mask = dense[:, a] & dense[:, b]
            sizes.append(int(mask.sum()))
            assert got[1][i] == functools.reduce(operator.add, errors[mask], 0.0)
        assert sizes[0] == sizes[3] == sizes[-1] == 0
        assert sizes[1] == num_rows
        assert min(sizes[2], sizes[4], sizes[5]) >= 9

    def test_empty_block(self):
        _, errors = self.build(4)
        sizes, se, sm, covered = words_block_stats(
            np.zeros((0, 3), dtype=np.uint64), errors, errors.size, True
        )
        assert sizes.shape == (0,)
        assert not covered.any()

    def test_pack_binary_errors_checks_bit_patterns(self):
        errors = np.array([0.0, 1.0, 1.0, 0.0] * 20)
        words = pack_binary_errors(errors)
        assert np.array_equal(
            unpack_bool_rows(words[np.newaxis, :], errors.size)[0],
            errors == 1.0,
        )
        assert pack_binary_errors(np.zeros(0)).shape == (0,)
        for value in (2.0, 0.5, -0.0, 1.0 + 2**-52, np.nan):
            other = errors.copy()
            other[3] = value
            assert pack_binary_errors(other) is None, value


# ---------------------------------------------------------------------------
# the cost model: `auto` never violates a backend's preconditions


class TestChooseBackend:
    KDD98_LEVEL2 = dict(
        num_rows=1000, num_cols=4446, num_candidates=696_320
    )

    def test_kdd98_level2_auto_picks_bitset(self):
        assert (
            choose_backend("auto", binary_data=True, **self.KDD98_LEVEL2)
            == "bitset"
        )

    def test_tiny_level_stays_sparse(self):
        # Work below MIN_BITSET_CELLS: packing costs more than it saves.
        assert (
            choose_backend(
                "auto",
                num_rows=100,
                num_cols=20,
                num_candidates=50,
                binary_data=True,
            )
            == "sparse"
        )
        assert 100 * 50 < MIN_BITSET_CELLS

    def test_few_candidates_stay_sparse(self):
        assert (
            choose_backend(
                "auto",
                num_rows=100_000,
                num_cols=20,
                num_candidates=MIN_BITSET_CANDIDATES - 1,
                binary_data=True,
            )
            == "sparse"
        )

    @pytest.mark.parametrize("requested", ALL_BACKENDS)
    def test_non_binary_always_sparse(self, requested):
        assert (
            choose_backend(
                requested,
                num_rows=10_000,
                num_cols=100,
                num_candidates=10_000,
                binary_data=False,
            )
            == "sparse"
        )

    def test_bitset_over_table_cap_falls_back(self):
        assert (
            choose_backend(
                "bitset",
                num_rows=1000,
                num_cols=100,
                num_candidates=1000,
                binary_data=True,
                max_table_bytes=8,
            )
            == "sparse"
        )

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValidationError):
            choose_backend(
                "gpu",
                num_rows=1,
                num_cols=1,
                num_candidates=1,
                binary_data=True,
            )

    @settings(max_examples=100, deadline=None)
    @given(
        requested=st.sampled_from(ALL_BACKENDS),
        num_rows=st.integers(1, 1_000_000),
        num_cols=st.integers(0, 10_000),
        num_candidates=st.integers(0, 1_000_000),
        binary_data=st.booleans(),
        cap=st.integers(0, 1 << 30),
    )
    def test_choice_preconditions_always_hold(
        self, requested, num_rows, num_cols, num_candidates, binary_data, cap,
    ):
        chosen = choose_backend(
            requested,
            num_rows=num_rows,
            num_cols=num_cols,
            num_candidates=num_candidates,
            binary_data=binary_data,
            max_table_bytes=cap,
        )
        assert chosen in ("sparse", "bitset")
        if chosen == "bitset":
            assert binary_data
            assert estimate_table_bytes(num_rows, num_cols) <= cap


# ---------------------------------------------------------------------------
# the differential matrix: backends x threads x block size x compaction x warm


@pytest.fixture(scope="module")
def matrix_problem():
    """``(x0, {error kind: (errors, cold sparse run)})``.

    Dyadic errors take the unpacking statistics path, 0/1 errors the
    popcount path; both must reach the bitset backend.
    """
    x0, dyadic = backend_problem()
    problems = {}
    for kind, errors in (("dyadic", dyadic), ("binary", binary_errors(x0))):
        cold = run_backend(x0, errors, "sparse")
        assert len(cold.top_slices) >= 2
        # Non-sparse levels must actually have run somewhere in this suite.
        tracer = Tracer()
        probe = slice_line(
            x0, errors,
            SliceLineConfig(k=6, sigma=5, kernel_backend="bitset"),
            trace=tracer,
        )
        chosen = [lv.backend_chosen for lv in probe.counters.levels]
        assert "bitset" in chosen
        expected_path = "binary" if kind == "binary" else "general"
        assert expected_path in error_paths(tracer), kind
        problems[kind] = (errors, cold)
    return x0, problems


@pytest.mark.parametrize("num_threads", [1, 4])
@pytest.mark.parametrize("block_size", [1, 16, "n"])
@pytest.mark.parametrize("compaction", [True, False])
@pytest.mark.parametrize("warm", [False, True])
class TestDifferentialMatrix:
    def test_all_backends_bitwise_identical(
        self, matrix_problem, num_threads, block_size, compaction, warm
    ):
        x0, problems = matrix_problem
        block = x0.shape[0] if block_size == "n" else block_size
        for kind, (errors, cold) in problems.items():
            seeds = cold.top_slices[:2] if warm else None
            ref = run_backend(
                x0, errors, "sparse",
                num_threads=num_threads, seeds=seeds,
                block_size=block, compaction=compaction,
            )
            for backend in ("bitset", "auto"):
                other = run_backend(
                    x0, errors, backend,
                    num_threads=num_threads, seeds=seeds,
                    block_size=block, compaction=compaction,
                )
                assert_same_result(
                    ref, other,
                    f"{kind} {backend} t={num_threads} b={block_size} "
                    f"compact={compaction} warm={warm}",
                )


class TestGauges:
    def test_backend_gauges_populate(self, matrix_problem):
        x0, problems = matrix_problem
        errors, _ = problems["dyadic"]
        result = run_backend(x0, errors, "bitset")
        by_level = {
            lv.level: lv for lv in result.counters.levels if lv.evaluated
        }
        # Level 1 runs the basic pass; every deeper level ran the bitset.
        assert by_level[2].backend_chosen == "bitset"
        assert by_level[3].backend_chosen == "bitset"

    def test_sparse_run_reports_sparse(self, matrix_problem):
        x0, problems = matrix_problem
        errors, _ = problems["dyadic"]
        result = run_backend(x0, errors, "sparse")
        for lv in result.counters.levels:
            if lv.evaluated and lv.level >= 2:
                assert lv.backend_chosen == "sparse"

    def test_text_gauge_excluded_from_totals(self, matrix_problem):
        x0, problems = matrix_problem
        errors, _ = problems["dyadic"]
        result = run_backend(x0, errors, "bitset")
        totals = result.counters.totals()
        assert "backend_chosen" not in totals
        assert "pruned_by_score" in totals


# ---------------------------------------------------------------------------
# hypothesis sweep, including missing codes (0 entries -> no one-hot column)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_random_problems_with_missing_codes(seed):
    gen = np.random.default_rng(seed)
    n = int(gen.integers(60, 260))
    m = int(gen.integers(2, 5))
    domains = gen.integers(2, 5, size=m)
    # Code 0 == missing: roughly 10% of entries carry no predicate.
    x0 = np.column_stack(
        [gen.integers(0, d + 1, size=n) for d in domains]
    ).astype(np.int64)
    # Dyadic errors take the unpacking path, 0/1 errors the popcount path.
    if gen.random() < 0.5:
        errors = gen.integers(0, 2, size=n).astype(np.float64)
    else:
        errors = gen.integers(0, 17, size=n) / 16.0
    if errors.sum() == 0:
        errors[0] = 1.0
    k = int(gen.integers(1, 6))
    sigma = int(gen.integers(1, 10))
    cfg = dict(k=k, sigma=sigma, alpha=float(gen.uniform(0.3, 1.0)))
    ref = slice_line(
        x0, errors, SliceLineConfig(kernel_backend="sparse", **cfg)
    )
    for backend in ("bitset", "auto"):
        other = slice_line(
            x0, errors, SliceLineConfig(kernel_backend=backend, **cfg)
        )
        assert_same_result(ref, other, f"{backend} seed={seed}")


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_continuous_float_errors_bitwise_identical(seed):
    """Arbitrary float errors over large slices: summation ORDER matters.

    Dyadic errors sum exactly under any association, so only continuous
    floats catch a backend whose accumulation order differs from scipy's
    strict sequential csc_matvec (pairwise np.sum / np.add.reduceat round
    differently on slices longer than ~8 rows).
    """
    gen = np.random.default_rng(seed)
    n = 700
    x0 = np.column_stack(
        [gen.integers(1, 4, size=n) for _ in range(5)]
    ).astype(np.int64)
    errors = gen.random(n)  # continuous: every slice sum rounds
    ref = slice_line(
        x0, errors, SliceLineConfig(k=6, sigma=5, kernel_backend="sparse")
    )
    for backend in ("bitset", "auto"):
        other = slice_line(
            x0, errors, SliceLineConfig(k=6, sigma=5, kernel_backend=backend)
        )
        assert_same_result(ref, other, f"{backend} seed={seed}")


# ---------------------------------------------------------------------------
# evaluate_slice_set: mixed-level external slice sets


class TestEvaluateSliceSetBackends:
    def test_mixed_levels_identical_across_backends(self):
        x0, errors = backend_problem(23, n=300, m=5)
        space = FeatureSpace.from_matrix(x0)
        gen = np.random.default_rng(24)
        slices = [Slice(predicates={}, score=0, error=0, max_error=0, size=0)]
        for _ in range(40):
            feats = gen.choice(5, size=int(gen.integers(1, 4)), replace=False)
            slices.append(
                Slice(
                    predicates={
                        int(f): int(gen.integers(1, x0[:, f].max() + 1))
                        for f in feats
                    },
                    score=0, error=0, max_error=0, size=0,
                )
            )
        matrix = encode_slices(slices, space)
        x = space.encode(x0)
        ref = evaluate_slice_set(x, matrix, errors, backend="sparse")
        # The all-zero row denotes the whole dataset.
        assert ref.sizes[0] == float(x0.shape[0])
        for backend in ("bitset", "auto"):
            for threads in (1, 4):
                out = evaluate_slice_set(
                    x, matrix, errors, backend=backend, num_threads=threads
                )
                assert np.array_equal(ref.sizes, out.sizes), backend
                assert np.array_equal(ref.errors, out.errors), backend
                assert np.array_equal(ref.max_errors, out.max_errors), backend

    def pair_problem(self):
        """Every two-column slice of a small one-hot X (one level)."""
        x0, dyadic = backend_problem(23, n=300, m=5)
        x = FeatureSpace.from_matrix(x0).encode(x0)
        cols = x.shape[1]
        pairs = np.array(
            [(a, b) for a in range(cols) for b in range(a + 1, cols)]
        )
        rows = np.repeat(np.arange(len(pairs)), 2)
        matrix = sp.csr_matrix(
            (np.ones(rows.size), (rows, pairs.ravel())),
            shape=(len(pairs), cols),
        )
        return x0, x, matrix, dyadic

    def test_threads_split_a_level_below_one_chunk(self):
        """Fewer than BITSET_CHUNK candidates still reach every thread."""

        class RecordingWorkspace(KernelWorkspace):
            def __init__(self, num_threads):
                super().__init__(num_threads)
                self.mapped = []

            def map(self, fn, items, width=None):
                self.mapped.append(len(items))
                return super().map(fn, items, width)

        x0, x, matrix, dyadic = self.pair_problem()
        assert matrix.shape[0] <= kernels_mod.BITSET_CHUNK
        for errors in (dyadic, binary_errors(x0, 23)):
            ref = evaluate_slice_set(x, matrix, errors, backend="bitset")
            with RecordingWorkspace(2) as workspace:
                out = evaluate_slice_set(
                    x, matrix, errors, backend="bitset", num_threads=2,
                    workspace=workspace,
                )
            assert workspace.mapped == [2]
            for want, got in zip(ref, out):
                assert_bitwise(want, got)

    @pytest.mark.parametrize("value", [2.0, 0.5, -0.0])
    def test_non_binary_errors_take_general_path(self, value):
        """One non-0/1 value among 0/1 errors keeps the unpacking path."""
        x0, x, matrix, _ = self.pair_problem()
        errors = binary_errors(x0, 23)
        # Every error of the slice x0[:, 2] == 1 becomes *value*: with -0.0
        # its members' max is a signed zero a popcount would not reproduce.
        errors[x0[:, 2] == 1] = value
        assert pack_binary_errors(errors) is None
        ref = evaluate_slice_set(x, matrix, errors, backend="sparse")
        for backend in ("bitset", "auto"):
            out = evaluate_slice_set(x, matrix, errors, backend=backend)
            for want, got in zip(ref, out):
                assert_bitwise(want, got, backend)
        tracer = Tracer()
        cold = run_backend(x0, errors, "sparse")
        other = slice_line(
            x0, errors, SliceLineConfig(k=6, sigma=5, kernel_backend="bitset"),
            trace=tracer,
        )
        assert_same_result(cold, other)
        assert error_paths(tracer) == {"general"}


# ---------------------------------------------------------------------------
# checkpoints and budgets compose with every backend


class TestComposition:
    @pytest.mark.parametrize("backend", ["bitset", "auto"])
    def test_resume_from_checkpoint(self, tmp_path, backend):
        """A resumed run still matches the sparse reference."""
        x0, errors = backend_problem(9)
        cfg = SliceLineConfig(k=5, sigma=5, kernel_backend=backend)
        full = slice_line(x0, errors, cfg, checkpoint_dir=str(tmp_path))
        ref = slice_line(
            x0, errors, cfg.with_overrides(kernel_backend="sparse")
        )
        assert_same_result(ref, full, f"{backend} full")
        bundles = sorted(p.name for p in tmp_path.iterdir())
        assert bundles
        for bundle in bundles:
            resumed = slice_line(
                x0, errors, cfg, resume_from=str(tmp_path / bundle)
            )
            assert resumed.completed
            assert_same_result(ref, resumed, f"{backend} from {bundle}")

    @pytest.mark.parametrize("backend", ["bitset", "auto"])
    def test_candidate_budget_identical_across_backends(self, backend):
        x0, errors = backend_problem(13)
        budgets = BudgetConfig(max_candidates_per_level=100)
        ref = run_backend(x0, errors, "sparse")
        ref_b = slice_line(
            x0, errors,
            SliceLineConfig(k=6, sigma=5, kernel_backend="sparse"),
            budgets=budgets,
        )
        out = slice_line(
            x0, errors,
            SliceLineConfig(k=6, sigma=5, kernel_backend=backend),
            budgets=budgets,
        )
        assert_same_result(ref_b, out, f"{backend} budgeted")
        # The budget genuinely bites (otherwise this test proves nothing).
        assert ref_b.budget_trip is not None or np.array_equal(
            ref.top_stats, ref_b.top_stats
        )
