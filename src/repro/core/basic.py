"""Initialization: create and score all 1-predicate (basic) slices.

Implements ``CreateAndScoreBasicSlices`` of Section 4.2.  In the paper the
basic slice sizes are the column sums of the one-hot ``X`` and their errors
the vector-matrix product ``e^T X`` (Eq. 4).  Both are read here straight
off the integer codes: row ``i`` of ``X`` has a one in column ``begins[j] +
x0[i, j] - 1`` for every feature ``j`` whose code is not missing (0), so
``colSums(X)`` is a ``np.bincount`` of those column ids, ``e^T X`` the same
bincount weighted by each row's error, and ``colMaxs(X * e)`` a
``np.maximum.at``.  ``X`` itself is never built, and neither is the
projection of Algorithm 1 line 12: the valid columns are packed into the
run's one :class:`~repro.linalg.BitsetTable` from the same column ids.

Exactness.  The statistics equal those of the CSR formulation bit for bit:

* sizes are exact integer counts either way;
* ``se``: scipy computes ``X.T @ e`` with ``csc_matvec``, which adds each
  column's member errors to ``0.0`` in ascending row order.  The column ids
  are listed row-major, so ``np.bincount``'s C loop (``out[c] += e`` in
  input order) performs the same additions in the same order;
* ``sm``: scipy's ``colMaxs`` counts a column's implicit zeros and returns
  ``+0.0`` for every zero maximum.  Errors are ``>= 0``, so both give the
  members' maximum when it is positive and ``+0.0`` otherwise: a
  ``np.maximum.at`` from ``+0.0``, plus ``+0.0`` so that a maximum of
  ``-0.0`` errors reads ``+0.0`` too.

0/1 errors (every error's bit pattern that of ``+0.0`` or ``1.0``, the
check of :func:`~repro.linalg.kernels.pack_binary_errors`) take the
kernel's popcount argument instead: ``se`` is the count of a column's
rows whose error is ``1.0``, one bincount over those rows, and ``sm`` is
``se > 0``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.onehot import FeatureSpace
from repro.core.scoring import score
from repro.core.types import stats_matrix
from repro.linalg import BitsetTable, ensure_vector
from repro.linalg.kernels import pack_binary_errors, pack_coordinates


@dataclass(frozen=True)
class BasicSlices:
    """Valid basic slices in the *projected* one-hot space.

    ``selected_columns`` are the original one-hot column indices that satisfy
    ``ss0 >= sigma`` and ``se0 > 0`` (the paper's ``cI`` indicator); the
    key array ``slices`` is ``[[0], [1], ...]`` (the identity ``S`` over
    those columns), i.e. slice ``i`` is the single predicate represented by
    ``selected_columns[i]``.  ``stats`` is the aligned ``R`` matrix (score,
    error, max error, size).  ``table`` packs the projected ``X[:, cI]``:
    row bitset ``i`` holds the rows of slice ``i``, over every data row.
    ``indicator_nnz`` counts the ones of ``X`` (the codes that are not
    missing).
    """

    slices: np.ndarray
    stats: np.ndarray
    selected_columns: np.ndarray
    num_columns_total: int
    table: BitsetTable
    indicator_nnz: int

    @property
    def num_slices(self) -> int:
        return int(self.slices.shape[0])


def _onehot_bins(
    x0: np.ndarray, space: FeatureSpace
) -> tuple[np.ndarray, np.ndarray]:
    """``(bins, column_bins)``: the ``n x m`` bin of every code, and the
    bin of every one-hot column.

    Bin 0 of each feature's block takes its missing code, so the bin of
    one-hot column ``c`` of feature ``j`` is ``c + j + 1``, and the last
    column's bin is the last bin.
    """
    num_features = x0.shape[1]
    bins = x0 + (space.begins + np.arange(num_features))
    column_bins = np.arange(space.num_onehot) + np.repeat(
        np.arange(1, num_features + 1), space.domains
    )
    return bins, column_bins


def _column_statistics(
    bins: np.ndarray, column_bins: np.ndarray, errors: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(counts, se, sm)`` of every one-hot column (Eq. 4), from the bins
    of :func:`_onehot_bins` and the row-aligned *errors*."""
    num_bins = int(column_bins[-1]) + 1
    counts = np.bincount(bins.ravel("K"), minlength=num_bins)[column_bins]
    if pack_binary_errors(errors) is not None:
        # Every error is +0.0 or 1.0: each partial sum is an exact integer,
        # so se counts the members whose error is 1.0, in any order, and
        # sm is 1.0 exactly where that count is positive.
        ones = np.bincount(
            bins[errors == 1.0].ravel("K"), minlength=num_bins
        )[column_bins]
        return counts, ones.astype(np.float64), (ones > 0).astype(np.float64)
    # Row-major, so each column adds its rows in ascending order.
    flat = bins.ravel()
    row_errors = np.repeat(errors, bins.shape[1])
    slice_errors = np.bincount(flat, weights=row_errors, minlength=num_bins)
    max_errors = np.zeros(num_bins, dtype=np.float64)
    np.maximum.at(max_errors, flat, row_errors)
    # colMaxs reads every zero maximum as +0.0; adding +0.0 turns a -0.0
    # maximum into +0.0 and leaves every other value as it is.
    return counts, slice_errors[column_bins], max_errors[column_bins] + 0.0


def create_and_score_basic_slices(
    x0: np.ndarray,
    space: FeatureSpace,
    errors: np.ndarray,
    sigma: int,
    alpha: float,
) -> BasicSlices:
    """Score all one-predicate slices and keep the valid ones.

    *x0* holds validated integer codes
    (:func:`~repro.core.onehot.validate_encoded_matrix`) within *space*'s
    domains (:meth:`~repro.core.onehot.FeatureSpace.check_codes`; a space
    derived from *x0* holds them by construction).  Statistics per
    Equation 4, ``ss0 = colSums(X)``, ``se0 = (e^T X)^T``, ``sm0 =
    colMaxs(X * e)``, computed from the codes as the module docstring
    explains; scores follow Equation 5.
    """
    num_rows = x0.shape[0]
    errors = ensure_vector(errors, num_rows, "errors")
    total_error = float(errors.sum())

    bins, column_bins = _onehot_bins(x0, space)
    counts, slice_errors, max_errors = _column_statistics(
        bins, column_bins, errors
    )
    sizes = counts.astype(np.float64)

    keep = (sizes >= sigma) & (slice_errors > 0)
    selected = np.flatnonzero(keep)

    scores = score(sizes[selected], slice_errors[selected], num_rows, total_error, alpha)
    stats = stats_matrix(
        scores, slice_errors[selected], max_errors[selected], sizes[selected]
    )
    # In the projected space (X[:, cI]) every surviving column is one basic
    # slice: slice i's only key is projected column i.
    slices = np.arange(selected.size, dtype=np.int64)[:, np.newaxis]
    # The table's column of every code: its projected column, or, for a
    # missing code or a column that is not valid, one spare column past
    # the last, which the table leaves out.
    num_selected = selected.size
    table_cols = np.full(int(column_bins[-1]) + 1, num_selected, dtype=np.int64)
    table_cols[column_bins[selected]] = np.arange(num_selected)
    words = pack_coordinates(
        np.arange(num_rows)[:, np.newaxis], table_cols[bins], num_rows,
        num_selected + 1,
    )
    table = BitsetTable(words[:num_selected], num_rows)
    return BasicSlices(
        slices=slices,
        stats=stats,
        selected_columns=selected,
        num_columns_total=space.num_onehot,
        table=table,
        indicator_nnz=int(counts.sum()),
    )
