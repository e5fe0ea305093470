"""DML/R-style primitives used by the SliceLine enumeration algorithm.

Each function mirrors one primitive from the paper's pseudo-code:

==================  =====================================================
Paper / DML         Here
==================  =====================================================
``colMaxs(X)``      :func:`col_maxs`
``colSums(X)``      :func:`col_sums`
``cumsum(v)``       :func:`cumsum`
``cumprod(v)``      :func:`cumprod`
``table(rix,cix)``  :func:`contingency_table` / :func:`one_hot_encode`
``upper.tri(...)``  :func:`upper_tri_pairs`
==================  =====================================================

All functions accept dense arrays or scipy sparse matrices and return dense
1-D arrays for reductions and CSR matrices for matrix-valued results.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro._typing import Matrix
from repro.exceptions import ShapeError, ValidationError
from repro.linalg.sparse import as_csr

# Row-chunk budget (in matrix cells) for the chunked dense comparisons inside
# upper_tri_pairs; bounds peak memory at ~64 MiB of float64 per chunk.
_PAIR_CHUNK_CELLS = 8_000_000


def col_sums(matrix: Matrix) -> np.ndarray:
    """Column sums as a 1-D float64 array (``colSums`` in DML)."""
    if sp.issparse(matrix):
        return np.asarray(matrix.sum(axis=0), dtype=np.float64).ravel()
    return np.asarray(matrix, dtype=np.float64).sum(axis=0)


def col_maxs(matrix: Matrix) -> np.ndarray:
    """Column maxima as a 1-D array (``colMaxs``), including implicit zeros."""
    if matrix.shape[0] == 0:
        raise ValidationError("col_maxs of a matrix with zero rows is undefined")
    if sp.issparse(matrix):
        return np.asarray(matrix.tocsc().max(axis=0).todense()).ravel()
    return np.asarray(matrix).max(axis=0)


def row_nnz(matrix: Matrix) -> np.ndarray:
    """Number of non-zero entries per row as an ``int64`` vector.

    For a 0/1 candidate-slice matrix ``S`` this is the lattice level of each
    slice (its predicate count) — what the mixed-level evaluation of
    :func:`repro.core.evaluate.evaluate_slice_set` groups rows by.
    """
    if sp.issparse(matrix):
        return np.diff(as_csr(matrix).indptr).astype(np.int64)
    return np.count_nonzero(np.asarray(matrix), axis=1).astype(np.int64)


def cumsum(values) -> np.ndarray:
    """Cumulative sum of a 1-D vector (``cumsum``)."""
    return np.cumsum(np.asarray(values))


def cumprod(values) -> np.ndarray:
    """Cumulative product of a 1-D vector (``cumprod``).

    Uses ``object`` dtype when the exact product may overflow int64 so the
    ND-array-index deduplication of Section 4.3 never wraps around.
    """
    arr = np.asarray(values)
    if np.issubdtype(arr.dtype, np.integer):
        # Exact integer cumprod: fall back to Python ints on overflow risk.
        log_sum = np.sum(np.log2(np.maximum(arr.astype(np.float64), 1.0)))
        if log_sum >= 62:
            return np.cumprod(arr.astype(object))
    return np.cumprod(arr)


def contingency_table(
    rix: np.ndarray, cix: np.ndarray, nrow: int, ncol: int
) -> sp.csr_matrix:
    """Sparse contingency table ``table(rix, cix)`` with explicit dimensions.

    Counts each (row, column) index pair; indices are 0-based here (the
    paper's pseudo-code is 1-based).
    """
    rix = np.asarray(rix, dtype=np.int64).ravel()
    cix = np.asarray(cix, dtype=np.int64).ravel()
    if rix.shape != cix.shape:
        raise ShapeError("rix and cix must have identical lengths")
    data = np.ones(rix.shape[0], dtype=np.float64)
    table = sp.coo_matrix((data, (rix, cix)), shape=(nrow, ncol))
    table.sum_duplicates()
    return table.tocsr()


def one_hot_encode(
    x0: np.ndarray, feature_offsets: np.ndarray, num_columns: int
) -> sp.csr_matrix:
    """One-hot encode an integer matrix via the paper's ``table`` trick.

    ``x0`` is the 1-based integer-encoded ``n x m`` feature matrix; column
    ``j`` maps code ``v`` to one-hot column ``feature_offsets[j] + v - 1``.
    Returns the sparse 0/1 matrix ``X`` of shape ``(n, num_columns)``.
    Entries with code ``0`` (missing) produce no one-hot entry.
    """
    x0 = np.asarray(x0)
    if x0.ndim != 2:
        raise ShapeError(f"x0 must be a 2-D matrix, got shape {x0.shape}")
    n, m = x0.shape
    offsets = np.asarray(feature_offsets, dtype=np.int64)
    if offsets.shape[0] != m:
        raise ShapeError("feature_offsets must have one entry per column of x0")
    rows = np.repeat(np.arange(n, dtype=np.int64), m)
    cols = (x0.astype(np.int64) + offsets[np.newaxis, :] - 1).ravel()
    present = (x0 > 0).ravel()
    if not np.all(present):
        rows, cols = rows[present], cols[present]
    if cols.size and (cols.min() < 0 or cols.max() >= num_columns):
        raise ValidationError(
            "one-hot column index out of range; x0 codes must be 1-based and "
            "bounded by the per-feature domain"
        )
    data = np.ones(rows.shape[0], dtype=np.float64)
    return sp.coo_matrix((data, (rows, cols)), shape=(n, num_columns)).tocsr()


def pack_rows_mixed_radix(rows: np.ndarray, base: int) -> np.ndarray | None:
    """Pack integer key rows into scalar mixed-radix IDs (most significant
    digit first) — the 1-D realization of the paper's ND-array slice index.

    *rows* is a ``num_keys x width`` matrix of digits in ``[0, base)``.
    Returns ``None`` when ``base ** width`` does not fit in ``int64`` (the
    caller falls back to row-wise comparison); otherwise an ``int64`` vector
    whose ordering is exactly the lexicographic ordering of the rows, so
    ``np.unique`` on the packed IDs is interchangeable with the much slower
    ``np.unique(rows, axis=0)``.
    """
    rows = np.asarray(rows)
    if rows.ndim != 2:
        raise ShapeError(f"rows must be 2-D, got shape {rows.shape}")
    num_keys, width = rows.shape
    if base < 1:
        raise ValidationError("pack_rows_mixed_radix requires base >= 1")
    if width == 0:
        return np.zeros(num_keys, dtype=np.int64)
    # Exact Python-int overflow check: the largest ID is base**width - 1.
    if base**width > np.iinfo(np.int64).max:
        return None
    packed = rows[:, 0].astype(np.int64, copy=True)
    for column in range(1, width):
        packed *= base
        packed += rows[:, column]
    return packed


def unique_sorted(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` for integer arrays, by sort + adjacent difference.

    numpy 2.x answers a plain ``np.unique`` (no index outputs) through a
    hash table, which on millions of distinct packed slice IDs is 30-60x
    slower than one ``np.sort`` and a mask of adjacent differences.  The
    result — sorted distinct values of the flattened input, same dtype —
    is exactly ``np.unique``'s.
    """
    ordered = np.sort(np.asarray(values), axis=None)
    if ordered.size == 0:
        return ordered
    distinct = np.empty(ordered.size, dtype=bool)
    distinct[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=distinct[1:])
    return ordered[distinct]


def upper_tri_pairs_in_range(
    s: sp.csr_matrix,
    st: sp.csc_matrix,
    start: int,
    stop: int,
    overlap: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Matches ``(i, j)`` with ``start <= i < stop``, ``i < j``, dot == *overlap*.

    The per-row-range slice of the paper's
    ``upper.tri((S %*% t(S)) == (L-2))``: *s* is the canonical CSR slice
    matrix, *st* its CSC transpose (built once by the caller so every range
    shares it).  Concatenating the results in range order reproduces the
    full-scan row-major match order exactly.
    ``overlap == 0`` is handled correctly (implicit zeros of the sparse
    Gram matrix count as matches).
    """
    product = s[start:stop] @ st
    if overlap == 0:
        # Only the dense comparison sees the Gram matrix's implicit
        # zeros, which DO count as matches when overlap == 0 (two
        # fully disjoint slices have dot product 0 without a stored
        # entry).  Positive overlaps never need this: every stored
        # entry of the 0/1 Gram matrix is positive, so an implicit
        # zero cannot equal overlap >= 1.
        match = product.toarray() == overlap
        local_rows, cols = np.nonzero(match)
    else:
        product = product.tocsr()
        # Canonical CSR order makes the stored-entry scan emit matches
        # in the same row-major, column-ascending order as np.nonzero
        # on the dense comparison.
        product.sort_indices()
        mask = product.data == overlap
        local_rows = np.repeat(
            np.arange(product.shape[0], dtype=np.int64),
            np.diff(product.indptr),
        )[mask]
        cols = product.indices[mask].astype(np.int64, copy=False)
    # Keep strictly-upper-triangular entries: global row < column.
    global_rows = local_rows + start
    upper = cols > global_rows
    if not upper.any():
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    return (
        global_rows[upper].astype(np.int64, copy=False),
        cols[upper].astype(np.int64, copy=False),
    )


def iter_upper_tri_pair_chunks(slices: Matrix, overlap: float):
    """Yield ``(i, j)`` index-array chunks with ``i < j`` and dot product == *overlap*.

    Implements ``I = upper.tri((S %*% t(S)) == (L-2), values=TRUE)`` from the
    paper's pair-construction step without ever materializing the full
    ``nr x nr`` Gram matrix: rows are processed in chunks whose dense
    footprint stays below a fixed budget, and matches are yielded chunk by
    chunk so callers can stream them (the full match set can be huge on
    feature-rich data).  Each chunk is one :func:`upper_tri_pairs_in_range`
    call.  The reference pair oracle joins this way; the pair pipeline in
    :mod:`repro.core.pairs` pairs parents by shared ``(L-2)``-subsets
    instead, which yields the same pairs.
    """
    s = as_csr(slices)
    nr = s.shape[0]
    if nr < 2:
        return
    st = s.T.tocsc()
    chunk = max(1, _PAIR_CHUNK_CELLS // max(nr, 1))
    for start in range(0, nr - 1, chunk):
        stop = min(start + chunk, nr - 1)
        rows, cols = upper_tri_pairs_in_range(s, st, start, stop, overlap)
        if rows.size:
            yield rows, cols


def upper_tri_pairs(slices: Matrix, overlap: float) -> tuple[np.ndarray, np.ndarray]:
    """All row pairs ``(i, j)`` with ``i < j`` whose dot product equals *overlap*.

    Materialized convenience wrapper around
    :func:`iter_upper_tri_pair_chunks`; prefer the iterator when the match
    count may be large.
    """
    rows_out: list[np.ndarray] = []
    cols_out: list[np.ndarray] = []
    for rows, cols in iter_upper_tri_pair_chunks(slices, overlap):
        rows_out.append(rows)
        cols_out.append(cols)
    if not rows_out:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    return np.concatenate(rows_out), np.concatenate(cols_out)
