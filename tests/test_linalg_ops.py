"""Unit tests for the DML-style linear-algebra primitives."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import ValidationError
from repro.linalg import col_maxs, col_sums, one_hot_encode
from tests import pair_oracle
from tests.pair_oracle import iter_upper_tri_pair_chunks, upper_tri_pairs


@pytest.fixture
def dense():
    return np.array([[1.0, 0.0, 3.0], [0.0, 2.0, 1.0], [4.0, 0.0, 0.0]])


@pytest.fixture
def sparse(dense):
    return sp.csr_matrix(dense)


class TestReductions:
    def test_col_sums_dense_and_sparse_agree(self, dense, sparse):
        np.testing.assert_allclose(col_sums(dense), col_sums(sparse))
        np.testing.assert_allclose(col_sums(dense), [5.0, 2.0, 4.0])

    def test_col_maxs_includes_implicit_zeros(self):
        m = sp.csr_matrix(np.array([[-1.0, 0.0], [-2.0, -3.0]]))
        # column 1 has an implicit zero in row 0: max must be 0, not -3
        np.testing.assert_allclose(col_maxs(m), [-1.0, 0.0])

    def test_col_maxs_empty_raises(self):
        with pytest.raises(ValidationError):
            col_maxs(np.zeros((0, 3)))


class TestTables:
    def test_one_hot_encode_basic(self):
        x0 = np.array([[1, 2], [2, 1]])
        offsets = np.array([0, 2])  # domains (2, 2)
        x = one_hot_encode(x0, offsets, 4)
        np.testing.assert_allclose(
            x.toarray(), [[1, 0, 0, 1], [0, 1, 1, 0]]
        )

    def test_one_hot_encode_missing_code_zero(self):
        x0 = np.array([[0, 2]])
        x = one_hot_encode(x0, np.array([0, 2]), 4)
        np.testing.assert_allclose(x.toarray(), [[0, 0, 0, 1]])

    def test_one_hot_encode_out_of_range(self):
        with pytest.raises(ValidationError):
            one_hot_encode(np.array([[3]]), np.array([0]), 2)


class TestUpperTriPairs:
    """The Gram join of the pair oracle (``tests/pair_oracle.py``)."""

    def test_zero_overlap_handles_implicit_zeros(self):
        # identity rows: every distinct pair has dot product 0
        s = sp.identity(4, format="csr")
        i, j = upper_tri_pairs(s, 0.0)
        assert len(i) == 6
        assert all(a < b for a, b in zip(i, j))

    def test_exact_overlap_match(self):
        s = sp.csr_matrix(
            np.array([[1, 1, 0, 0], [1, 0, 1, 0], [0, 0, 1, 1]], dtype=float)
        )
        i, j = upper_tri_pairs(s, 1.0)
        pairs = set(zip(i.tolist(), j.tolist()))
        assert pairs == {(0, 1), (1, 2)}

    def test_single_row_no_pairs(self):
        s = sp.csr_matrix(np.array([[1.0, 0.0]]))
        i, j = upper_tri_pairs(s, 0.0)
        assert i.size == 0 and j.size == 0

    def test_iterator_matches_materialized(self):
        gen = np.random.default_rng(3)
        s = sp.csr_matrix((gen.random((30, 12)) < 0.3).astype(float))
        collected = [
            (a, b)
            for rows, cols in iter_upper_tri_pair_chunks(s, 1.0)
            for a, b in zip(rows.tolist(), cols.tolist())
        ]
        i, j = upper_tri_pairs(s, 1.0)
        assert collected == list(zip(i.tolist(), j.tolist()))

    def test_matches_brute_force(self):
        gen = np.random.default_rng(11)
        dense = (gen.random((25, 10)) < 0.4).astype(float)
        s = sp.csr_matrix(dense)
        for overlap in (0.0, 1.0, 2.0):
            i, j = upper_tri_pairs(s, overlap)
            got = set(zip(i.tolist(), j.tolist()))
            expected = {
                (a, b)
                for a in range(25)
                for b in range(a + 1, 25)
                if dense[a] @ dense[b] == overlap
            }
            assert got == expected

    def test_zero_overlap_fully_disjoint_rows(self):
        # Disjoint support: the Gram matrix has NO stored off-diagonal
        # entries, so only the dense comparison sees the matches.
        dense = np.zeros((6, 12))
        for row in range(6):
            dense[row, 2 * row : 2 * row + 2] = 1.0
        i, j = upper_tri_pairs(sp.csr_matrix(dense), 0.0)
        expected = {(a, b) for a in range(6) for b in range(a + 1, 6)}
        assert set(zip(i.tolist(), j.tolist())) == expected

    @pytest.mark.parametrize("overlap", [0.0, 1.0, 2.0])
    def test_chunk_boundary_crossing(self, monkeypatch, overlap):
        # Force many tiny row chunks so matches span chunk boundaries.
        gen = np.random.default_rng(29)
        dense = (gen.random((23, 9)) < 0.35).astype(float)
        s = sp.csr_matrix(dense)
        baseline = upper_tri_pairs(s, overlap)
        monkeypatch.setattr(pair_oracle, "_PAIR_CHUNK_CELLS", 3 * 23)
        chunked = upper_tri_pairs(s, overlap)
        np.testing.assert_array_equal(baseline[0], chunked[0])
        np.testing.assert_array_equal(baseline[1], chunked[1])
        expected = {
            (a, b)
            for a in range(23)
            for b in range(a + 1, 23)
            if dense[a] @ dense[b] == overlap
        }
        assert set(zip(chunked[0].tolist(), chunked[1].tolist())) == expected


class TestPackRowsMixedRadix:
    def test_orders_like_lexicographic(self):
        from repro.linalg import pack_rows_mixed_radix

        gen = np.random.default_rng(5)
        rows = gen.integers(0, 7, size=(50, 4))
        packed = pack_rows_mixed_radix(rows, 7)
        order = np.argsort(packed, kind="stable")
        lex = np.lexsort(rows.T[::-1])
        np.testing.assert_array_equal(order, lex)

    def test_width_zero_packs_to_zeros(self):
        from repro.linalg import pack_rows_mixed_radix

        packed = pack_rows_mixed_radix(np.zeros((4, 0), dtype=np.int64), 9)
        np.testing.assert_array_equal(packed, np.zeros(4, dtype=np.int64))

    def test_base_one_is_exact(self):
        from repro.linalg import pack_rows_mixed_radix

        # base 1 admits only digit 0; 1**width == 1 never overflows,
        # regardless of width.
        packed = pack_rows_mixed_radix(np.zeros((3, 100), dtype=np.int64), 1)
        np.testing.assert_array_equal(packed, np.zeros(3, dtype=np.int64))

    def test_base_zero_rejected(self):
        from repro.linalg import pack_rows_mixed_radix

        with pytest.raises(ValidationError):
            pack_rows_mixed_radix(np.zeros((1, 2), dtype=np.int64), 0)

    def test_overflow_boundary_at_int64_max(self):
        from repro.linalg import pack_rows_mixed_radix

        # 2**62 fits int64; 2**63 exceeds int64 max -> caller fallback.
        fits = pack_rows_mixed_radix(np.ones((2, 62), dtype=np.int64), 2)
        assert fits is not None
        assert fits[0] == 2**62 - 1
        assert pack_rows_mixed_radix(np.ones((2, 63), dtype=np.int64), 2) is None
        # The check is an exact Python-int comparison, immune to the
        # float rounding that makes (2.0**63 - 1) == 2.0**63.
        assert (
            pack_rows_mixed_radix(np.ones((1, 1), dtype=np.int64), 2**62)
            is not None
        )
        assert (
            pack_rows_mixed_radix(np.ones((1, 2), dtype=np.int64), 2**62)
            is None
        )

    def test_large_ids_round_trip_uniquely(self):
        from repro.linalg import pack_rows_mixed_radix

        # Near the top of the int64 range distinct rows keep distinct IDs.
        gen = np.random.default_rng(6)
        rows = gen.integers(0, 2, size=(200, 62))
        packed = pack_rows_mixed_radix(rows, 2)
        unique_rows = np.unique(rows, axis=0).shape[0]
        assert np.unique(packed).size == unique_rows


def _unique_sorted_inputs(dtype):
    gen = np.random.default_rng(8)
    runs = [np.sort(gen.integers(-50, 50, size=size)) for size in (7, 30, 12)]
    return {
        "empty": np.empty(0, dtype=dtype),
        "one": np.array([42], dtype=dtype),
        "all-equal": np.full(25, -3, dtype=dtype),
        "random-duplicates": gen.integers(-1000, 1000, size=5000).astype(dtype),
        "sorted-runs": np.concatenate(runs).astype(dtype),
    }


class TestUniqueSorted:
    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    @pytest.mark.parametrize(
        "case",
        ["empty", "one", "all-equal", "random-duplicates", "sorted-runs"],
    )
    def test_equals_np_unique(self, dtype, case):
        from repro.linalg import unique_sorted

        values = _unique_sorted_inputs(dtype)[case]
        before = values.copy()
        result = unique_sorted(values)
        expected = np.unique(values)
        assert result.dtype == expected.dtype
        np.testing.assert_array_equal(result, expected)
        np.testing.assert_array_equal(values, before)  # input untouched
