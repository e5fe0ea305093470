"""DML/R-style primitives used by the SliceLine enumeration algorithm.

Each function mirrors one primitive from the paper's pseudo-code:

==================  =====================================================
Paper / DML         Here
==================  =====================================================
``colMaxs(X)``      :func:`col_maxs`
``colSums(X)``      :func:`col_sums`
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
