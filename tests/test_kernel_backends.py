"""Differential tests for the evaluation kernel.

The search evaluates every level, warm-start seed and
:func:`~repro.core.evaluate.evaluate_slice_set` call with one kernel: the
packed bitset table of :mod:`repro.linalg.kernels`.  The contract under
test is strict bitwise equality with two references: the paper's blocked
sparse kernel ``(X S^T) == L``, kept in :mod:`repro.distributed`, and the
naive lattice oracle (:mod:`repro.baselines.naive`), whose row-order
error sums are the kernel's fold.  Both must hold for every slice
statistic and the final top-K, across thread counts, compaction modes,
warm starts and checkpoints.  The errors are dyadic rationals (multiples
of 1/16), 0/1 errors (a classifier's inaccuracy, which takes the
kernel's popcount path) and continuous floats, where only the row-order
fold sums bitwise.
"""

from __future__ import annotations

import functools
import operator

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.algorithm as algorithm
import repro.core.evaluate as evaluate_mod
import repro.linalg.kernels as kernels_mod
from repro.baselines import naive_top_k
from repro.core import (
    FeatureSpace,
    Slice,
    SliceLineConfig,
    encode_slices,
    evaluate_slice_set,
    slice_line,
)
from repro.core.evaluate import SizeFirst, evaluate_slices
from repro.distributed import SerialExecutor, evaluate_block
from repro.exceptions import ValidationError
from repro.linalg import KernelState, KernelWorkspace, keys_to_csr
from repro.linalg.kernels import (
    BitsetTable,
    covered_rows,
    is_binary_matrix,
    num_packed_words,
    pack_binary_errors,
    pack_bool_rows,
    popcount_rows,
    unpack_bool_rows,
    words_block_stats,
)
from repro.linalg.kernels import _popcount_words_lut
from repro.obs import EXECUTION_FIELDS, Tracer
from repro.resilience import load_checkpoint

K, SIGMA, ALPHA = 6, 5, 0.95


def kernel_problem(seed=7, n=480, m=6):
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


def run(x0, errors, *, num_threads=1, seeds=None, **overrides):
    config = SliceLineConfig(k=K, sigma=SIGMA, alpha=ALPHA, **overrides)
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


def assert_matches_oracle(result, oracle, label=""):
    """The top-K statistics are bitwise the naive oracle's, in order."""
    want = np.array(
        [[s.score, s.error, s.max_error, s.size] for s in oracle],
        dtype=np.float64,
    ).reshape(-1, 4)
    assert_bitwise(want, result.top_stats, label)


def sparse_reference(x0, errors, slices, block_size=16):
    """``R`` of decoded *slices* by the paper's sparse kernel.

    Each level group runs through :class:`~repro.distributed.SerialExecutor`
    in blocks of *block_size* slices, against the whole one-hot ``X``.
    """
    space = FeatureSpace.from_matrix(x0)
    x = space.encode(x0)
    matrix = encode_slices(slices, space)
    levels = np.diff(matrix.indptr)
    stats = np.zeros((len(slices), 4))
    executor = SerialExecutor(block_size=block_size)
    for level in np.unique(levels):
        rows = np.flatnonzero(levels == level)
        stats[rows] = executor.evaluate(
            x, errors, matrix[rows], int(level), ALPHA
        )
    return stats


def sparse_slice_set(x, slices, errors):
    """``(ss, se, sm)`` of a mixed-level CSR slice set by the sparse kernel.

    An all-zero row denotes the whole dataset, as in
    :func:`~repro.core.evaluate.evaluate_slice_set`.
    """
    slices = slices.tocsr()
    levels = np.diff(slices.indptr)
    out = np.zeros((3, slices.shape[0]))
    whole = levels == 0
    out[:, whole] = np.array(
        [[x.shape[0]], [errors.sum()], [errors.max()]]
    )
    for level in np.unique(levels[~whole]):
        rows = np.flatnonzero(levels == level)
        out[:, rows] = evaluate_block(x, errors, slices[rows], int(level))
    return out


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
        # The byte-LUT fallback (numpy without np.bitwise_count) must agree,
        # word by word.
        per_word = _popcount_words_lut(words)
        assert per_word.shape == words.shape
        assert np.array_equal(per_word.sum(axis=1), expected)
        for i in range(words.shape[0]):
            for j in range(words.shape[1]):
                assert per_word[i, j] == bin(int(words[i, j])).count("1")

    def test_popcount_empty_words(self):
        assert np.array_equal(
            popcount_rows(np.zeros((3, 0), dtype=np.uint64)),
            np.zeros(3, dtype=np.int64),
        )

    def test_is_binary_matrix(self):
        assert is_binary_matrix(sp.csr_matrix(np.eye(3)))
        assert is_binary_matrix(sp.csr_matrix((3, 4)))
        assert not is_binary_matrix(sp.csr_matrix(np.eye(3) * 2.0))
        # An explicitly stored zero is still 0/1 data; NaN is not.
        explicit_zero = sp.csr_matrix(
            (np.array([1.0, 0.0]), np.array([0, 1]), np.array([0, 2])),
            shape=(1, 2),
        )
        assert explicit_zero.nnz == 2
        assert is_binary_matrix(explicit_zero)
        assert not is_binary_matrix(sp.csr_matrix(np.array([[np.nan]])))


class TestBitsetTable:
    """Only 0/1 data may be packed: a typed error, never another answer."""

    def problem(self):
        x0, dyadic = kernel_problem(17, n=200, m=4)
        x = FeatureSpace.from_matrix(x0).encode(x0)
        keys = np.array([[0, 3], [1, 4], [2, 5], [0, 7]], dtype=np.int64)
        return x, keys, dyadic

    def test_stored_non_binary_value_raises(self):
        x, keys, errors = self.problem()
        x.data[5] = 2.0
        with pytest.raises(ValidationError):
            BitsetTable.from_matrix(x)
        with pytest.raises(ValidationError):
            evaluate_slice_set(x, keys_to_csr(keys, x.shape[1]), errors)
        # Duplicate entries that sum to 2 are a stored 2.0 as well.
        doubled = sp.csr_matrix(
            (np.ones(2), np.array([0, 0]), np.array([0, 2])), shape=(1, 3)
        )
        assert not doubled.has_canonical_format
        with pytest.raises(ValidationError):
            BitsetTable.from_matrix(doubled)

    def test_explicit_zero_is_not_a_member(self):
        x, keys, errors = self.problem()
        slices = keys_to_csr(keys, x.shape[1])
        want = evaluate_slice_set(x, slices, errors)
        # Store an explicit 0.0 at every absent cell of column 0.
        coo = x.tocoo()
        absent = np.flatnonzero(x[:, 0].toarray().ravel() == 0)
        padded = sp.csr_matrix(
            (
                np.concatenate([coo.data, np.zeros(absent.size)]),
                (
                    np.concatenate([coo.row, absent]),
                    np.concatenate([coo.col, np.zeros(absent.size, int)]),
                ),
            ),
            shape=x.shape,
        )
        assert padded.nnz == x.nnz + absent.size
        got = evaluate_slice_set(padded, slices, errors)
        for a, b in zip(want, got):
            assert_bitwise(a, b)
        assert np.array_equal(
            BitsetTable.from_matrix(padded).words,
            BitsetTable.from_matrix(x).words,
        )


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
        expected_cover = np.zeros(num_rows, dtype=bool)
        for a, b in keys:
            expected_cover |= dense[:, a] & dense[:, b]
        assert np.array_equal(covered_rows(words, num_rows), expected_cover)
        for kind, errors in error_kinds.items():
            error_words = pack_binary_errors(errors)
            assert (error_words is None) == (kind == "dyadic"), kind
            sizes, se, sm = words_block_stats(
                words, errors, num_rows, error_words
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
            # The popcount path is bitwise the unpacking path.
            general = words_block_stats(words, errors, num_rows)
            for got, want in zip((sizes, se, sm), general, strict=True):
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
        want = evaluate_block(x, errors, keys_to_csr(keys, cols), 2)
        for name, a, b in zip(("ss", "se", "sm"), want, got, strict=True):
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
        words = np.zeros((0, 3), dtype=np.uint64)
        sizes, se, sm = words_block_stats(words, errors, errors.size)
        assert sizes.shape == se.shape == sm.shape == (0,)
        covered = covered_rows(words, errors.size)
        assert covered.shape == (errors.size,) and not covered.any()

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
# the differential matrix: threads x compaction x warm, against both
# references (the sparse kernel at every block size b, and the oracle)


@pytest.fixture(scope="module")
def matrix_problem():
    """``(x0, {error kind: (errors, cold run, oracle top-K)}, run cache)``.

    Dyadic errors take the unpacking statistics path, 0/1 errors the
    popcount path.  The cache holds one search per execution shape, which
    every reference block size then checks.
    """
    x0, dyadic = kernel_problem()
    problems = {}
    for kind, errors in (("dyadic", dyadic), ("binary", binary_errors(x0))):
        tracer = Tracer()
        cold = slice_line(
            x0, errors, SliceLineConfig(k=K, sigma=SIGMA, alpha=ALPHA),
            trace=tracer,
        )
        assert len(cold.top_slices) >= 2
        expected_path = "binary" if kind == "binary" else "general"
        assert error_paths(tracer) == {expected_path}, kind
        oracle = naive_top_k(x0, errors, K, SIGMA, ALPHA)
        problems[kind] = (errors, cold, oracle)
    return x0, problems, {}


@pytest.mark.parametrize("num_threads", [1, 4])
@pytest.mark.parametrize("block_size", [1, 16, "n"])
@pytest.mark.parametrize("compaction", [True, False])
@pytest.mark.parametrize("warm", [False, True])
class TestDifferentialMatrix:
    def test_all_backends_bitwise_identical(
        self, matrix_problem, num_threads, block_size, compaction, warm
    ):
        """The search, the sparse kernel at block size b and the oracle
        agree bitwise, at every thread count, compaction mode and warm
        start; the counters do not depend on the thread count."""
        x0, problems, runs = matrix_problem

        def search(kind, threads):
            shape = (kind, threads, compaction, warm)
            if shape not in runs:
                errors, cold, _ = problems[kind]
                runs[shape] = run(
                    x0, errors, num_threads=threads,
                    seeds=cold.top_slices[:2] if warm else None,
                    compaction=compaction,
                )
            return runs[shape]

        block = x0.shape[0] if block_size == "n" else block_size
        for kind, (errors, cold, oracle) in problems.items():
            label = (
                f"{kind} t={num_threads} b={block_size} "
                f"compact={compaction} warm={warm}"
            )
            result = search(kind, num_threads)
            assert_same_result(cold, result, label)
            assert_matches_oracle(result, oracle, label)
            assert_bitwise(
                sparse_reference(x0, errors, result.top_slices, block),
                result.top_stats, label,
            )
            assert counter_records(result) == counter_records(
                search(kind, 1)
            ), label


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
    alpha = float(gen.uniform(0.3, 1.0))
    result = slice_line(
        x0, errors, SliceLineConfig(k=k, sigma=sigma, alpha=alpha)
    )
    assert_matches_oracle(
        result, naive_top_k(x0, errors, k, sigma, alpha), f"seed={seed}"
    )


#: ``fl(31 * M)`` is below the sequential sum of 31 copies of ``M``.
EQUAL_MAX = 0.7294965609839984


def float_errors(gen, x0, flavor):
    """Continuous errors; some flavors stress the size-first bounds.

    ``equal-max`` gives every row of ``x0[:, 0] == 1`` the error
    :data:`EQUAL_MAX` and the others at most half of it: every slice inside
    that feature value sums a run of one maximum, so its exact-size bound
    is tight and its score sits right at it.  ``wide`` spans twelve orders
    of magnitude and sets a tenth of the errors to ``-0.0``.  The other
    three stress the bit-plane cap: ``lognormal`` is heavy-tailed,
    ``outlier`` has one error 1000 times the others' largest, which makes
    the planes' step coarse, and ``multiples`` are exact multiples of the
    step, where the cap equals the fold.
    """
    n = x0.shape[0]
    errors = gen.random(n)
    if flavor == "equal-max":
        errors *= EQUAL_MAX / 2
        errors[x0[:, 0] == 1] = EQUAL_MAX
    elif flavor == "wide":
        errors *= 10.0 ** gen.uniform(-6, 6, size=n)
        errors[gen.random(n) < 0.1] = -0.0
    elif flavor == "lognormal":
        errors = gen.lognormal(0.0, 2.0, size=n)
    elif flavor == "outlier":
        errors[gen.integers(n)] = 1000.0
    elif flavor == "multiples":
        errors = gen.integers(0, 256, size=n) / 256.0
    return errors


def counter_records(result):
    """Per-level counters without the execution-shape fields."""
    return [
        {k: v for k, v in record.to_dict().items() if k not in EXECUTION_FIELDS}
        for record in result.counters.levels
    ]


def funnel(tracer):
    """Candidates evaluated, sized first, bounded by the error planes, and
    summed."""
    spans = [s for s in tracer.iter_spans() if s.name == "evaluate.blocks"]
    return tuple(
        sum(span.attrs.get(key, 0) for span in spans)
        for key in ("num_slices", "sized", "bounded", "summed")
    )


def summing_every_candidate(monkeypatch, x0, errors, cfg, seeds):
    """A run whose last level sums every candidate, as lower levels do."""
    with monkeypatch.context() as patch:
        patch.setattr(algorithm, "SizeFirst", lambda *args: None)
        return slice_line(x0, errors, cfg, seed_slices=seeds)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_continuous_float_errors_bitwise_identical(seed, tmp_path, monkeypatch):
    """Arbitrary float errors over large slices: summation ORDER matters.

    Dyadic errors sum exactly under any association, so only continuous
    floats catch a kernel whose accumulation order differs from the
    oracle's row-order fold (pairwise np.sum / np.add.reduceat round
    differently on slices longer than ~8 rows).

    With a level cap, the last level runs the size-first path (sum errors
    only where the exact-size bound can reach the top-K).  It must leave
    the top-K, its statistics and every counter exactly as a run that sums
    every candidate computes them: over several priority chunks, from warm
    seeds, and resumed from the level before the last.
    """
    gen = np.random.default_rng(seed)
    n = 700
    x0 = np.column_stack(
        [gen.integers(1, 4, size=n) for _ in range(5)]
    ).astype(np.int64)
    errors = gen.random(n)  # continuous: every slice sum rounds
    assert_matches_oracle(
        run(x0, errors), naive_top_k(x0, errors, K, SIGMA, ALPHA),
        f"seed={seed}",
    )

    # A span's candidates to sum then take several kernel calls.
    monkeypatch.setattr(evaluate_mod, "_SUM_BLOCK", 7)
    skipped_some = planes_skipped_some = False
    for flavor in (
        "continuous", "equal-max", "wide", "lognormal", "outlier", "multiples",
    ):
        errors = float_errors(gen, x0, flavor)
        warm = slice_line(x0, errors * 1.5 + 0.01, SliceLineConfig(k=K, sigma=SIGMA))
        for max_level, chunk in ((2, 16), (3, 16), (3, 4096)):
            cfg = SliceLineConfig(
                k=K, sigma=SIGMA, alpha=ALPHA, max_level=max_level,
                priority_chunk=chunk,
            )
            oracle = naive_top_k(x0, errors, K, SIGMA, ALPHA, max_level)
            for seeds in (None, warm.top_slices):
                label = (
                    f"{flavor} L={max_level} chunk={chunk} "
                    f"warm={seeds is not None}"
                )
                ref = summing_every_candidate(monkeypatch, x0, errors, cfg, seeds)
                assert_matches_oracle(ref, oracle, label)
                tracer = Tracer()
                ckpt = tmp_path / label.replace(" ", "_")
                other = slice_line(
                    x0, errors, cfg, trace=tracer, seed_slices=seeds,
                    checkpoint_dir=str(ckpt) if seeds is None else None,
                )
                assert_same_result(ref, other, label)
                assert counter_records(ref) == counter_records(other), label
                evaluated, _, bounded, summed = funnel(tracer)
                skipped_some |= summed < evaluated
                planes_skipped_some |= summed < bounded
                if seeds is not None:
                    continue
                # The level before the last re-runs the size-first
                # level; the last level's bundle carries its NaNs.
                for level in (max_level - 1, max_level):
                    bundle = str(ckpt / f"level-{level:04d}")
                    # Only a level between the first and the last tracks
                    # the row coverage the next level compacts by.
                    coverage = load_checkpoint(bundle).row_coverage
                    assert (coverage is None) == (
                        level in (1, max_level)
                    ), f"{label} @{level}"
                    resumed = slice_line(x0, errors, cfg, resume_from=bundle)
                    assert_same_result(ref, resumed, f"{label} @{level}")
                    assert counter_records(ref) == counter_records(
                        resumed
                    ), f"{label} @{level}"
    assert skipped_some and planes_skipped_some


class TestErrorPlanes:
    """The last level's bit-plane bound is used, and only on float errors."""

    def tail_problem(self):
        """Mostly tiny errors and 5% large ones: a parent's ``sm`` says
        little about its children's sums, so the exact-size bound passes
        thousands of candidates that the planes rule out."""
        gen = np.random.default_rng(0)
        n = 1000
        x0 = np.column_stack(
            [gen.integers(1, 11, size=n) for _ in range(20)]
        ).astype(np.int64)
        errors = gen.random(n) * 0.01
        large = gen.random(n) < 0.05
        errors[large] = gen.uniform(0.5, 1.0, size=int(large.sum()))
        return x0, errors

    def test_planes_rule_out_most_exact_size_survivors(self, monkeypatch):
        x0, errors = self.tail_problem()
        cfg = SliceLineConfig(k=10, sigma=10, max_level=2)
        tracer = Tracer()
        result = slice_line(x0, errors, cfg, trace=tracer)
        evaluated, sized, bounded, summed = funnel(tracer)
        assert evaluated == sized >= bounded > 1000
        assert summed * 100 <= bounded
        ref = summing_every_candidate(monkeypatch, x0, errors, cfg, None)
        assert_same_result(ref, result)
        assert counter_records(ref) == counter_records(result)

    def test_only_float_errors_build_planes(self, monkeypatch):
        def refuse(errors):
            raise AssertionError("error planes built")

        monkeypatch.setattr(kernels_mod, "pack_error_planes", refuse)
        x0, dyadic = kernel_problem()
        cfg = SliceLineConfig(k=K, sigma=SIGMA, max_level=2)
        slice_line(x0, binary_errors(x0), cfg)
        with pytest.raises(AssertionError, match="error planes built"):
            slice_line(x0, dyadic, cfg)


# ---------------------------------------------------------------------------
# one evaluation state per level: errors coded once, one span task


def recording_levels(monkeypatch):
    """``(begun, coded, planes)``: the level of every
    ``KernelState.begin_level`` call, and the level being begun or
    evaluated when each ``pack_binary_errors`` and ``pack_error_planes``
    call ran."""
    begun, coded, planes = [], [], []
    begin = KernelState.begin_level
    pack_binary = kernels_mod.pack_binary_errors
    pack_planes = kernels_mod.pack_error_planes

    def recording_begin(self, x_eval, level, *args):
        begun.append(level)
        return begin(self, x_eval, level, *args)

    def recording_binary(errors):
        coded.append(begun[-1])
        return pack_binary(errors)

    def recording_planes(errors):
        planes.append(begun[-1])
        return pack_planes(errors)

    monkeypatch.setattr(KernelState, "begin_level", recording_begin)
    monkeypatch.setattr(kernels_mod, "pack_binary_errors", recording_binary)
    monkeypatch.setattr(kernels_mod, "pack_error_planes", recording_planes)
    return begun, coded, planes


class TestKernelState:
    """Each level codes its errors once, and every caller runs one path."""

    @pytest.mark.parametrize("kind", ["binary", "dyadic", "continuous"])
    def test_each_level_codes_its_errors_once(self, kind, monkeypatch):
        x0, dyadic = kernel_problem()
        errors = {
            "binary": binary_errors(x0),
            "dyadic": dyadic,
            "continuous": np.random.default_rng(3).random(x0.shape[0]),
        }[kind]
        begun, coded, planes = recording_levels(monkeypatch)
        tracer = Tracer()
        cfg = SliceLineConfig(
            k=K, sigma=SIGMA, alpha=ALPHA, max_level=3, priority_chunk=16
        )
        slice_line(x0, errors, cfg, trace=tracer)
        chunks = [s for s in tracer.iter_spans() if s.name == "evaluate.blocks"]
        assert begun == [2, 3] and len(chunks) > 2 * len(begun)
        assert coded == begun
        # At most once per level, at the last level only, never for 0/1.
        assert planes == ([] if kind == "binary" else [3])

    @pytest.mark.parametrize(
        "kind", ["binary", "dyadic", "continuous", "all-positive"]
    )
    def test_evaluate_slices_with_and_without_a_state(self, kind):
        """A one-off state gives bitwise what a caller's state gives, sized
        first or not, and the caller's state covers exactly the rows that
        some candidate of its chunks matches."""
        x0, dyadic = kernel_problem(29, n=300, m=5)
        gen = np.random.default_rng(30)
        errors = {
            "binary": binary_errors(x0, 29),
            "dyadic": dyadic,
            "continuous": gen.random(x0.shape[0]),
            "all-positive": gen.uniform(0.5, 2.0, size=x0.shape[0]),
        }[kind]
        x = FeatureSpace.from_matrix(x0).encode(x0)
        cols = x.shape[1]
        keys = np.array(
            [(a, b) for a in range(cols) for b in range(a + 1, cols)]
        )[::5]
        num = keys.shape[0]
        full = evaluate_slices(x, errors, keys, 2, ALPHA)
        threshold = float(np.median(full[np.isfinite(full[:, 0]), 0]))
        sized_first = SizeFirst(
            np.full(num, errors.sum()), np.full(num, errors.max()),
            threshold, SIGMA,
        )
        want_cover = covered_rows(
            BitsetTable.from_matrix(x).candidate_words(keys), x.shape[0]
        )
        assert want_cover.any() and not want_cover.all()
        for size_first in (None, sized_first):
            label = f"{kind} size_first={size_first is not None}"

            def part(rows):
                if size_first is None:
                    return None
                return SizeFirst(
                    size_first.error_bounds[rows],
                    size_first.max_error_bounds[rows], threshold, SIGMA,
                )

            alone = evaluate_slices(
                x, errors, keys, 2, ALPHA, size_first=size_first
            )
            if size_first is None:
                assert_bitwise(full, alone, label)
            state = KernelState()
            state.begin_level(x, 2, errors, track_rows=True)
            # Two chunks on one state, the second on two threads.
            first, second = slice(0, num // 2), slice(num // 2, num)
            shared = np.vstack([
                evaluate_slices(
                    x, errors, keys[first], 2, ALPHA, kernels=state,
                    size_first=part(first),
                ),
                evaluate_slices(
                    x, errors, keys[second], 2, ALPHA, num_threads=2,
                    kernels=state, size_first=part(second),
                ),
            ])
            assert_bitwise(alone, shared, label)
            assert np.array_equal(state.end_level(), want_cover), label
            assert state.table is None and state.coverage is None


@pytest.mark.parametrize("zeros", [False, True])
def test_positive_members_are_the_sizes_when_every_error_is(zeros, monkeypatch):
    """When every error is positive, size-first spans count no positive
    members apart from the sizes; with zero errors they popcount them.
    Either way the run is bitwise one that sums every candidate, and its
    ``evaluate.blocks`` funnel is that of a run forced to popcount."""
    gen = np.random.default_rng(41)
    n = 700
    x0 = np.column_stack(
        [gen.integers(1, 4, size=n) for _ in range(5)]
    ).astype(np.int64)
    # A heavy tail, so the planes rule out some exact-size survivors.
    errors = gen.uniform(0.01, 0.02, size=n)
    large = gen.random(n) < 0.05
    errors[large] = gen.uniform(0.5, 1.0, size=int(large.sum()))
    if zeros:
        # Every slice inside x0[:, 2] == x0[:, 3] == 1 sums to exactly 0.0,
        # while both of its parents stay valid.
        errors[(x0[:, 2] == 1) & (x0[:, 3] == 1)] = 0.0
    cfg = SliceLineConfig(
        k=K, sigma=SIGMA, alpha=ALPHA, max_level=2, priority_chunk=64
    )
    ref = summing_every_candidate(monkeypatch, x0, errors, cfg, None)

    def search(force_popcount):
        skipped = []
        sizing_codes = KernelState.sizing_codes

        def recording(self):
            positive_words, planes = sizing_codes(self)
            skipped.append(positive_words is None)
            if force_popcount:
                positive_words = pack_bool_rows((self.errors > 0)[None, :])[0]
            return positive_words, planes

        with monkeypatch.context() as patch:
            patch.setattr(KernelState, "sizing_codes", recording)
            tracer = Tracer()
            result = slice_line(x0, errors, cfg, trace=tracer)
        return result, funnel(tracer), skipped

    result, seen, skipped = search(False)
    forced, forced_seen, _ = search(True)
    # One size-first chunk after another reads the level's codes.
    assert len(skipped) > 1 and set(skipped) == {not zeros}
    for other in (ref, forced):
        assert_same_result(other, result)
        assert counter_records(other) == counter_records(result)
    assert seen == forced_seen
    evaluated, sized, bounded, summed = seen
    assert evaluated == sized > bounded > summed > 0


# ---------------------------------------------------------------------------
# evaluate_slice_set: mixed-level external slice sets


class TestEvaluateSliceSetBackends:
    def test_mixed_levels_identical_across_backends(self):
        """The bitset kernel gives the sparse kernel's statistics bitwise."""
        x0, errors = kernel_problem(23, n=300, m=5)
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
        continuous = errors * gen.random(errors.size)
        for errs in (errors, binary_errors(x0, 23), continuous):
            ref = sparse_slice_set(x, matrix, errs)
            # The all-zero row denotes the whole dataset.
            assert ref[0, 0] == float(x0.shape[0])
            for threads in (1, 4):
                out = evaluate_slice_set(x, matrix, errs, num_threads=threads)
                for want, got in zip(ref, out):
                    assert_bitwise(want, got, f"t={threads}")

    def pair_problem(self):
        """Every two-column slice of a small one-hot X (one level)."""
        x0, dyadic = kernel_problem(23, n=300, m=5)
        x = FeatureSpace.from_matrix(x0).encode(x0)
        cols = x.shape[1]
        pairs = np.array(
            [(a, b) for a in range(cols) for b in range(a + 1, cols)]
        )
        return x0, x, keys_to_csr(pairs, cols), dyadic

    def test_threads_split_a_level_below_one_chunk(self):
        """Fewer than BITSET_CHUNK candidates still reach every thread."""

        class RecordingWorkspace(KernelWorkspace):
            def __init__(self, num_threads):
                super().__init__(num_threads)
                self.mapped = []

            def map(self, fn, items):
                self.mapped.append(len(items))
                return super().map(fn, items)

        x0, x, matrix, dyadic = self.pair_problem()
        assert matrix.shape[0] <= kernels_mod.BITSET_CHUNK
        for errors in (dyadic, binary_errors(x0, 23)):
            ref = evaluate_slice_set(x, matrix, errors)
            with RecordingWorkspace(2) as workspace:
                out = evaluate_slice_set(
                    x, matrix, errors, num_threads=2, workspace=workspace,
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
        out = evaluate_slice_set(x, matrix, errors)
        for want, got in zip(sparse_slice_set(x, matrix, errors), out):
            assert_bitwise(want, got)
        tracer = Tracer()
        result = slice_line(
            x0, errors, SliceLineConfig(k=K, sigma=SIGMA, alpha=ALPHA),
            trace=tracer,
        )
        assert_matches_oracle(result, naive_top_k(x0, errors, K, SIGMA, ALPHA))
        assert_bitwise(
            sparse_reference(x0, errors, result.top_slices), result.top_stats
        )
        assert error_paths(tracer) == {"general"}


# ---------------------------------------------------------------------------
# warm-start seeds read a view of the run's table, and pack nothing


def test_seed_table_holds_only_seed_columns(monkeypatch):
    """A warm-started run evaluates its seeds on a view of the run's table
    as wide as the seeds' distinct predicate columns, not the whole
    projected table, and packs nothing for them."""
    x0, errors = kernel_problem()
    cold = run(x0, errors)

    def seed(predicates):
        return Slice(predicates, score=0, error=0, max_error=0, size=0)

    seeds = [
        seed({0: 1, 1: 2}), seed({0: 1, 2: 3}), seed({1: 2, 2: 3}),
        seed({0: 2, 3: 1, 4: 2}),
    ]
    distinct = {item for s in seeds for item in s.predicates.items()}
    assert len(distinct) == 6 < sum(s.level for s in seeds)
    # A level-1 seed and one outside the domains are dropped unevaluated.
    seeds += [seed({5: 1}), seed({0: 9, 1: 1})]

    views, packed, in_seeds = [], [], []
    begin = KernelState.begin_level
    pack = kernels_mod.pack_coordinates
    seed_eval = algorithm.evaluate_slice_set

    def recording_begin(self, x_eval, level, *args):
        if in_seeds:
            views.append(x_eval)
        return begin(self, x_eval, level, *args)

    def recording_pack(*args):
        if in_seeds:
            packed.append(args[3])
        return pack(*args)

    def recording_seed_eval(*args, **kwargs):
        in_seeds.append(True)
        try:
            return seed_eval(*args, **kwargs)
        finally:
            in_seeds.pop()

    monkeypatch.setattr(KernelState, "begin_level", recording_begin)
    monkeypatch.setattr(kernels_mod, "pack_coordinates", recording_pack)
    monkeypatch.setattr(algorithm, "evaluate_slice_set", recording_seed_eval)
    warm = run(x0, errors, seeds=seeds)
    assert packed == []
    assert len(views) == 1 and isinstance(views[0], BitsetTable)
    space = FeatureSpace.from_matrix(x0)
    columns = sorted(space.column_of(f, v) for f, v in distinct)
    want = BitsetTable.from_matrix(space.encode(x0)[:, columns])
    assert views[0].shape == (x0.shape[0], len(distinct))
    assert np.array_equal(views[0].words, want.words)
    assert warm.warm_start.encoded == 4
    assert_same_result(cold, warm)
