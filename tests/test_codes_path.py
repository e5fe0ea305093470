"""The search runs on the integer codes: no CSR ``X``, one packed table.

Three contracts:

* the basic pass reads Eq. 4 off the codes bit for bit as the CSR
  formulation computes it (``colSums(X)``, ``X.T @ e``, ``colMaxs(X * e)``,
  kept here as the oracle);
* :meth:`~repro.linalg.BitsetTable.from_matrix` and the search's table go
  through one coordinate packer, and the search never builds ``X``: with
  every CSR route patched to raise, cold, warm, checkpointed and resumed
  runs still give the naive oracle's top-K;
* a full top-K drops new slices that score below its K-th score before
  merging, which changes no merge.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.compaction as compaction_mod
import repro.core.onehot as onehot_mod
import repro.linalg as linalg_mod
import repro.linalg.kernels as kernels_mod
import repro.linalg.ops as ops_mod
from repro.baselines import naive_top_k
from repro.core import FeatureSpace, SliceLineConfig, slice_line
from repro.core.basic import (
    _column_statistics,
    _onehot_bins,
    create_and_score_basic_slices,
)
from repro.core.topk import empty_topk, maintain_topk
from repro.core.types import StatsCol, stats_matrix
from repro.exceptions import ValidationError
from repro.linalg import BitsetTable, col_maxs, col_sums
from repro.linalg.kernels import pack_bool_rows, pack_coordinates
from repro.streaming import expand_seed_slices
from tests.test_core_kernels import reference_maintain_topk
from tests.test_kernel_backends import (
    assert_bitwise,
    assert_matches_oracle,
    assert_same_result,
    binary_errors,
    kernel_problem,
)

K, SIGMA, ALPHA = 6, 5, 0.95


def csr_statistics(x0, space, errors):
    """Eq. 4 on the sparse one-hot ``X`` (Algorithm 1 lines 1-5, 9-10)."""
    x = space.encode(x0)
    return (
        col_sums(x),
        np.asarray(x.T @ errors, dtype=np.float64).ravel(),
        col_maxs(x.multiply(errors[:, np.newaxis]).tocsc()),
    )


def codes_statistics(x0, space, errors):
    counts, slice_errors, max_errors = _column_statistics(
        *_onehot_bins(x0, space), errors
    )
    return counts.astype(np.float64), slice_errors, max_errors


def basic_cases():
    gen = np.random.default_rng(5)
    n = 600
    x0 = np.column_stack(
        [gen.integers(1, d + 1, size=n) for d in (2, 3, 5, 4)]
    ).astype(np.int64)
    continuous = gen.random(n)
    cases = {"continuous": (x0, FeatureSpace.from_matrix(x0), continuous)}

    missing = x0.copy()
    missing[gen.random(missing.shape) < 0.3] = 0
    cases["missing codes"] = (
        missing, FeatureSpace(domains=x0.max(axis=0)), continuous
    )

    # Feature 0 has one code, so its column is full (size n); every error
    # of one of its values is a signed zero, so some columns' members are
    # all -0.0.
    full = x0.copy()
    full[:, 0] = 1
    signed = continuous.copy()
    signed[x0[:, 1] == 2] = -0.0
    signed[gen.random(n) < 0.2] = -0.0
    cases["-0.0 errors, full column"] = (
        full, FeatureSpace.from_matrix(full), signed
    )
    all_zero = -np.zeros(n)
    cases["every error -0.0"] = (full, FeatureSpace.from_matrix(full), all_zero)

    # Domains beyond every observed code: empty columns.
    cases["space wider than the data"] = (
        x0, FeatureSpace(domains=x0.max(axis=0) + np.array([0, 2, 1, 3])),
        continuous,
    )
    one = x0[:1]
    cases["one row"] = (one, FeatureSpace(domains=x0.max(axis=0)), continuous[:1])

    # Sums that overflow, and the same errors rescaled the way slice_line
    # rescales them.
    huge = np.full(n, np.finfo(np.float64).max / 8) * gen.uniform(0.5, 1.0, n)
    cases["overflowing sums"] = (x0, FeatureSpace.from_matrix(x0), huge)
    scale = -math.frexp(float(huge.max()))[1]
    cases["rescaled for overflow"] = (
        x0, FeatureSpace.from_matrix(x0), np.ldexp(huge, scale)
    )

    # 0/1 errors take the counting path; one -0.0 keeps the general one.
    binary = (gen.random(n) < 0.2).astype(np.float64)
    binary[x0[:, 2] == 5] = 0.0  # columns whose members are all +0.0
    cases["0/1 errors, missing codes"] = (
        missing, FeatureSpace(domains=x0.max(axis=0)), binary
    )
    cases["0/1 errors, full column"] = (full, FeatureSpace.from_matrix(full), binary)
    one_signed = binary.copy()
    one_signed[np.flatnonzero(binary == 0.0)[0]] = -0.0
    cases["0/1 errors and one -0.0"] = (full, FeatureSpace.from_matrix(full), one_signed)
    return cases


@pytest.mark.parametrize("case", list(basic_cases()))
def test_basic_statistics_equal_the_csr_formulation(case):
    x0, space, errors = basic_cases()[case]
    want = csr_statistics(x0, space, errors)
    got = codes_statistics(x0, space, errors)
    for name, a, b in zip(("sizes", "se", "sm"), want, got):
        assert_bitwise(a, b, f"{case}: {name}")
    if case in ("overflowing sums", "every error -0.0"):
        # slice_line scores the first rescaled (the next case) and returns
        # before the basic pass on the second (zero total error).
        return

    sigma = 1 if x0.shape[0] == 1 else SIGMA
    basic = create_and_score_basic_slices(x0, space, errors, sigma, ALPHA)
    sizes, slice_errors, max_errors = want
    selected = np.flatnonzero((sizes >= sigma) & (slice_errors > 0))
    assert np.array_equal(basic.selected_columns, selected), case
    assert basic.indicator_nnz == space.encode(x0).nnz
    for column, want_col in (
        (StatsCol.SIZE, sizes), (StatsCol.ERROR, slice_errors),
        (StatsCol.MAX_ERROR, max_errors),
    ):
        assert_bitwise(want_col[selected], basic.stats[:, column], case)
    # The run's table is the projected X, packed.
    projected = space.encode(x0)[:, selected]
    assert np.array_equal(
        basic.table.words,
        pack_bool_rows(projected.toarray().T.astype(bool)),
    ), case
    assert basic.table.shape == (x0.shape[0], selected.size)


class TestCoordinatePacker:
    def matrix(self, seed, n=300, cols=11):
        gen = np.random.default_rng(seed)
        dense = gen.random((n, cols)) < 0.3
        dense[:, 3] = True  # a full column
        dense[:, 4] = False  # an empty one
        return dense

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 300])
    def test_from_matrix_is_the_coordinate_packer(self, n):
        dense = self.matrix(n, n=n)
        rows, cols = np.nonzero(dense)
        words = pack_coordinates(rows, cols, n, dense.shape[1])
        assert words.dtype == np.uint64
        assert np.array_equal(words, pack_bool_rows(dense.T))
        table = BitsetTable.from_matrix(sp.csr_matrix(dense.astype(float)))
        assert np.array_equal(table.words, words)
        assert table.shape == dense.shape
        # Coordinates in any order, repeated ones included, pack the same.
        order = np.random.default_rng(n).permutation(rows.size)
        twice = np.concatenate([order, order[: rows.size // 3]])
        assert np.array_equal(
            pack_coordinates(rows[twice], cols[twice], n, dense.shape[1]), words
        )

    def test_blocks_of_columns_pack_the_same(self, monkeypatch):
        dense = self.matrix(7)
        rows, cols = np.nonzero(dense)
        whole = pack_coordinates(rows, cols, *dense.shape)
        # 320 bits per column: blocks of 3 columns, and of 1.
        for budget in (3 * 320, 100):
            monkeypatch.setattr(kernels_mod, "PACK_BLOCK_BITS", budget)
            assert np.array_equal(
                pack_coordinates(rows, cols, *dense.shape), whole
            ), budget

    def test_from_matrix_still_rejects_non_binary_data(self):
        x = sp.csr_matrix(self.matrix(9).astype(float))
        x.data[3] = 2.0
        with pytest.raises(ValidationError):
            BitsetTable.from_matrix(x)
        doubled = sp.csr_matrix(
            (np.ones(2), np.array([0, 0]), np.array([0, 2])), shape=(1, 3)
        )
        assert not doubled.has_canonical_format
        with pytest.raises(ValidationError):
            BitsetTable.from_matrix(doubled)

    def test_columns_is_a_row_gather(self):
        dense = self.matrix(11)
        table = BitsetTable.from_matrix(sp.csr_matrix(dense.astype(float)))
        view = table.columns(np.array([1, 5, 6]))
        assert view.shape == (dense.shape[0], 3)
        assert np.array_equal(view.words, pack_bool_rows(dense[:, [1, 5, 6]].T))


# ---------------------------------------------------------------------------
# the search builds no CSR of X


def refuse_csr(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the search built a CSR of X")

    monkeypatch.setattr(FeatureSpace, "encode", refuse)
    for module in (ops_mod, onehot_mod, linalg_mod):
        monkeypatch.setattr(module, "one_hot_encode", refuse)
    monkeypatch.setattr(BitsetTable, "from_matrix", classmethod(refuse))
    monkeypatch.setattr(compaction_mod, "compact_slice_set", refuse)


@pytest.mark.parametrize("kind", ["binary", "float"])
def test_search_builds_no_csr_of_x(kind, tmp_path, monkeypatch):
    x0, dyadic = kernel_problem(13, n=400, m=5)
    if kind == "binary":
        errors = binary_errors(x0, 13)
    else:
        # Continuous, so only the row-order fold sums bitwise.
        errors = dyadic * np.random.default_rng(13).uniform(0.5, 1.5, x0.shape[0])
    space = FeatureSpace.from_matrix(x0)
    cfg = SliceLineConfig(k=K, sigma=SIGMA, alpha=ALPHA, max_level=3)
    oracle = naive_top_k(x0, errors, K, SIGMA, ALPHA, 3)
    perturbed = slice_line(x0, errors * 1.5 + 0.01, cfg)

    refuse_csr(monkeypatch)
    cold = slice_line(x0, errors, cfg)
    assert_matches_oracle(cold, oracle, f"{kind} cold")
    spaced = slice_line(x0, errors, cfg, feature_space=space, num_threads=2)
    assert_same_result(cold, spaced, f"{kind} given space")
    warm = slice_line(
        x0, errors, cfg, seed_slices=expand_seed_slices(perturbed.top_slices)
    )
    assert warm.warm_start.encoded > 0
    assert_same_result(cold, warm, f"{kind} warm")
    checkpointed = slice_line(x0, errors, cfg, checkpoint_dir=str(tmp_path))
    assert_same_result(cold, checkpointed, f"{kind} checkpointed")
    for level in (1, 2, 3):
        resumed = slice_line(
            x0, errors, cfg, resume_from=str(tmp_path / f"level-{level:04d}")
        )
        assert_same_result(cold, resumed, f"{kind} resumed @{level}")
        assert_matches_oracle(resumed, oracle, f"{kind} resumed @{level}")


# ---------------------------------------------------------------------------
# a full top-K skips merges that cannot change it


NUM_COLS = 8
PAIRS = [(a, b) for a in range(NUM_COLS) for b in range(a + 1, NUM_COLS)]


def level_draw(draw, width, count):
    """Keys of one level and stats that are a function of the key, so a
    repeated key (``deduplicate=False``) repeats its stats, as in a run."""
    pool = PAIRS if width == 2 else [(c,) for c in range(NUM_COLS)]
    picks = draw(
        st.lists(st.integers(0, len(pool) - 1), min_size=0, max_size=count)
    )
    choice = st.sampled_from
    per_key = {
        pick: (
            draw(choice([math.nan, -1.0, 0.5, 1.0, 1.0, 2.0, 3.0])),
            draw(choice([1.0, 3.0])),
            draw(choice([2.0, 10.0, 10.0, 20.0])),
        )
        for pick in sorted(set(picks))
    }
    keys = np.array([pool[p] for p in picks], dtype=np.int64).reshape(-1, width)
    scores, errors, sizes = (
        np.array([per_key[p][i] for p in picks], dtype=np.float64)
        for i in range(3)
    )
    return keys, stats_matrix(scores, errors, np.ones(len(picks)), sizes)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_guarded_merge_equals_the_unguarded_merge(data):
    """Ties at the K-th score, NaN scores, repeated keys, top-Ks that are
    not full yet and held top-Ks longer than K all merge as without the
    guard, bit for bit."""
    k = data.draw(st.integers(1, 7))
    draw = data.draw
    first = level_draw(draw, 1, 8)
    held = reference_maintain_topk(
        *first, *empty_topk(NUM_COLS), k=k + draw(st.integers(0, 2)), sigma=5
    )
    for _ in range(2):
        level = level_draw(draw, 2, 24)
        want = reference_maintain_topk(*level, *held, k=k, sigma=5)
        got = maintain_topk(*level, *held, k=k, sigma=5)
        assert got[0].shape == want[0].shape
        for attr in ("indices", "indptr"):
            assert np.array_equal(getattr(got[0], attr), getattr(want[0], attr))
        assert got[1].tobytes() == want[1].tobytes()
        held = got


def test_full_topk_returns_the_held_pair_when_nothing_can_enter():
    keys = np.arange(3, dtype=np.int64)[:, np.newaxis]
    stats = stats_matrix(
        np.array([3.0, 2.0, 1.0]), np.ones(3), np.ones(3), np.full(3, 10.0)
    )
    held = maintain_topk(keys, stats, *empty_topk(NUM_COLS), k=2, sigma=5)
    below = stats_matrix(
        np.array([1.5, math.nan]), np.ones(2), np.ones(2), np.full(2, 10.0)
    )
    pairs = np.array([[3, 4], [5, 6]], dtype=np.int64)
    got = maintain_topk(pairs, below, *held, k=2, sigma=5)
    assert got[0] is held[0] and got[1] is held[1]
    # A tie at the K-th score is still merged, and wins on size.
    tie = stats_matrix(
        np.array([2.0]), np.ones(1), np.ones(1), np.full(1, 20.0)
    )
    merged = maintain_topk(pairs[:1], tie, *held, k=2, sigma=5)
    assert merged[1][:, StatsCol.SIZE].tolist() == [10.0, 20.0]
    assert merged[0].toarray()[1].nonzero()[0].tolist() == [3, 4]
