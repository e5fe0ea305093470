"""The paper's sparse evaluation kernel (Section 4.4, Figure 2).

A block of candidate slices is evaluated against the one-hot data matrix
with one sparse matrix multiplication: ``I = ((X @ S^T) == L)`` marks, per
data row and slice, whether the row matches all ``L`` predicates; sizes,
errors and maximum tuple errors then follow from column reductions over
``I``.  The block size ``b`` realizes the paper's hybrid execution:
``b = 1`` is pure task-parallel evaluation (one slice at a time, vector
intermediates only), ``b = nrow(S)`` pure data-parallel evaluation (one big
intermediate), and moderate ``b`` shares scans of ``X`` across ``b`` slices
while bounding the ``n x b`` intermediate (Figure 6(b) studies this
trade-off).

The executors of :mod:`repro.distributed.executor` schedule this kernel
the ways Figure 7 compares.  The search itself evaluates with the packed
bitset kernel of :mod:`repro.linalg.kernels`, which is bitwise identical
to this one on 0/1 data.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.exceptions import ValidationError
from repro.linalg import col_maxs, col_sums


def indicator_equal(product: sp.csr_matrix, level: int) -> sp.csr_matrix:
    """Sparse indicator ``(product == level)`` for a positive *level*.

    Because ``X`` and ``S`` are 0/1 matrices, every stored entry of
    ``X @ S^T`` is a positive integer count of matched predicates; implicit
    zeros can never equal ``level >= 1``, so the comparison only needs to
    filter stored entries (this is what makes the sparse formulation cheap).
    """
    if level < 1:
        raise ValidationError("indicator_equal requires level >= 1")
    result = product.tocsr(copy=True)
    result.data = (result.data == level).astype(np.float64)
    result.eliminate_zeros()
    return result


def evaluate_block(
    x_onehot: sp.csr_matrix,
    errors: np.ndarray,
    slices_block: sp.csr_matrix,
    level: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sizes, errors, and max tuple errors for one block of slices.

    Returns the vectors ``(ss, se, sm)`` of Equation 10 for the block.
    """
    indicator = indicator_equal(x_onehot @ slices_block.T.tocsc(), level)
    sizes = col_sums(indicator)
    slice_errors = np.asarray(indicator.T @ errors, dtype=np.float64).ravel()
    if indicator.nnz:
        max_errors = col_maxs(indicator.multiply(errors[:, np.newaxis]).tocsc())
    else:
        max_errors = np.zeros(indicator.shape[1], dtype=np.float64)
    return sizes, slice_errors, max_errors


__all__ = ["evaluate_block", "indicator_equal"]
