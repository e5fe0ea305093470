"""Initialization: create and score all 1-predicate (basic) slices.

Implements ``CreateAndScoreBasicSlices`` of Section 4.2.  Thanks to the
one-hot encoding, all basic slice sizes are the column sums of ``X`` and all
basic slice errors the vector-matrix product ``e^T X`` — one pass over the
data scores every level-1 slice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.linalg import col_maxs, col_sums, ensure_vector
from repro.core.scoring import score
from repro.core.types import stats_matrix


@dataclass(frozen=True)
class BasicSlices:
    """Valid basic slices in the *projected* one-hot space.

    ``selected_columns`` are the original one-hot column indices that satisfy
    ``ss0 >= sigma`` and ``se0 > 0`` (the paper's ``cI`` indicator); the
    key array ``slices`` is ``[[0], [1], ...]`` (the identity ``S`` over
    those columns), i.e. slice ``i`` is the single predicate represented by
    ``selected_columns[i]``.  ``stats`` is the aligned ``R`` matrix (score,
    error, max error, size).
    """

    slices: np.ndarray
    stats: np.ndarray
    selected_columns: np.ndarray
    num_columns_total: int

    @property
    def num_slices(self) -> int:
        return int(self.slices.shape[0])


def create_and_score_basic_slices(
    x_onehot: sp.csr_matrix,
    errors: np.ndarray,
    sigma: int,
    alpha: float,
) -> BasicSlices:
    """Score all one-predicate slices and keep the valid ones.

    Vectorized statistics per Equation 4: ``ss0 = colSums(X)``,
    ``se0 = (e^T X)^T``, ``sm0 = colMaxs(X * e)``.  Scores follow Equation 5.
    """
    num_rows, num_cols = x_onehot.shape
    errors = ensure_vector(errors, num_rows, "errors")
    total_error = float(errors.sum())

    sizes = col_sums(x_onehot)
    slice_errors = np.asarray(x_onehot.T @ errors, dtype=np.float64).ravel()
    max_errors = col_maxs(x_onehot.multiply(errors[:, np.newaxis]).tocsc())

    keep = (sizes >= sigma) & (slice_errors > 0)
    selected = np.flatnonzero(keep)

    scores = score(sizes[selected], slice_errors[selected], num_rows, total_error, alpha)
    stats = stats_matrix(
        scores, slice_errors[selected], max_errors[selected], sizes[selected]
    )
    # In the projected space (X[:, cI]) every surviving column is one basic
    # slice: slice i's only key is projected column i.
    slices = np.arange(selected.size, dtype=np.int64)[:, np.newaxis]
    return BasicSlices(
        slices=slices,
        stats=stats,
        selected_columns=selected,
        num_columns_total=num_cols,
    )
