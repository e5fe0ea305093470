"""Sparse-matrix helpers shared by the linear-algebra primitives.

These wrap the handful of scipy.sparse idioms (format normalization, density
inspection, stacking) that the core algorithm needs, so that the rest of the
package never has to reason about matrix formats.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro._typing import Matrix
from repro.exceptions import ShapeError


def is_sparse(matrix: Matrix) -> bool:
    """Return ``True`` when *matrix* is any scipy sparse container."""
    return sp.issparse(matrix)


def as_csr(matrix: Matrix, dtype=None) -> sp.csr_matrix:
    """Normalize *matrix* to CSR format (copying only when needed).

    CSR is the canonical format for the row-oriented operations in the
    enumeration algorithm (row sums, row slicing, ``X @ S.T``).
    """
    if sp.issparse(matrix):
        result = matrix.tocsr()
    else:
        result = sp.csr_matrix(np.asarray(matrix))
    if dtype is not None and result.dtype != dtype:
        result = result.astype(dtype)
    return result


def keys_to_csr(keys: np.ndarray, num_cols: int) -> sp.csr_matrix:
    """The 0/1 slice matrix ``S`` of a key array, in canonical CSR form.

    Row ``i`` of the ``(n, L)`` *keys* lists slice ``i``'s ``L`` column ids
    in ascending order, so every row of ``S`` has exactly ``L`` sorted
    entries.  scipy stores the indices as ``int32`` whenever they fit and
    widens them to ``int64`` otherwise, so no column id of a one-hot space
    wider than ``2^31`` wraps.
    """
    num_slices, level = keys.shape
    indptr = np.arange(0, num_slices * level + 1, level, dtype=np.int64)
    data = np.ones(num_slices * level, dtype=np.float64)
    return sp.csr_matrix(
        (data, keys.ravel(), indptr), shape=(num_slices, num_cols)
    )


def to_dense(matrix: Matrix) -> np.ndarray:
    """Return a dense 2-D numpy array view/copy of *matrix*."""
    if sp.issparse(matrix):
        return np.asarray(matrix.todense())
    return np.asarray(matrix)


def density(matrix: Matrix) -> float:
    """Fraction of non-zero cells in *matrix* (0.0 for an empty matrix)."""
    rows, cols = matrix.shape
    cells = rows * cols
    if cells == 0:
        return 0.0
    if sp.issparse(matrix):
        return matrix.nnz / cells
    return float(np.count_nonzero(matrix)) / cells


def ensure_vector(values, length: int | None = None, name: str = "vector") -> np.ndarray:
    """Coerce *values* to a contiguous 1-D float64 array, checking length.

    Raises :class:`ShapeError` when the input is not one-dimensional (column
    vectors of shape ``(n, 1)`` are accepted and flattened) or when *length*
    is given and does not match.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 2 and 1 in arr.shape:
        arr = arr.ravel()
    if arr.ndim != 1:
        raise ShapeError(f"{name} must be 1-D, got shape {arr.shape}")
    if length is not None and arr.shape[0] != length:
        raise ShapeError(f"{name} must have length {length}, got {arr.shape[0]}")
    return np.ascontiguousarray(arr)


def vstack_rows(top: Matrix, bottom: Matrix) -> Matrix:
    """Stack two matrices row-wise, preserving sparsity when either is sparse.

    Mirrors the ``rbind(TS, S)`` step of the paper's top-K maintenance.
    """
    if top.shape[1] != bottom.shape[1]:
        raise ShapeError(
            f"cannot rbind: column counts differ ({top.shape[1]} vs {bottom.shape[1]})"
        )
    if sp.issparse(top) or sp.issparse(bottom):
        return sp.vstack([as_csr(top), as_csr(bottom)], format="csr")
    return np.vstack([np.asarray(top), np.asarray(bottom)])
