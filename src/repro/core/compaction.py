"""Adaptive per-level compaction of the enumeration data matrix.

Algorithm 1 projects ``X`` to the valid basic-slice columns once (line 12)
and then multiplies every deeper level's candidates against that same
``n x m'`` matrix, even though pruning keeps shrinking what can still
participate:

* **Columns** — every level ``L+1`` candidate is the union of two surviving
  level-``L`` parents, so a one-hot column that appears in *no* parent can
  never appear in any deeper candidate.  Dropping it removes its non-zeros
  from every subsequent ``X @ S^T``.
* **Rows** — a row belongs to a candidate only if it belongs to *both*
  parents (size monotonicity, Section 3.2), so a row that matches no
  evaluated slice of level ``L`` cannot belong to any slice of level
  ``L+1`` or deeper.  Dropping it shrinks every subsequent kernel, scan,
  and indicator.

:class:`CompactionState` maintains the compacted matrix plus the index maps
that keep everything else *bitwise identical* to the uncompacted run: a
level's key arrays (see :mod:`repro.core.pairs`) stay in the canonical
projected column space (so pair generation, deduplication, top-K
maintenance, decoding, and warm-start seeding are untouched), and only
just before each kernel call are a chunk's keys remapped through
:meth:`CompactionState.project_slices` — one gather through the column
map.  Because compaction preserves the relative order of surviving rows
and columns, remapped keys stay ascending and all float reductions sum the
exact same values in the exact same order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.linalg import row_nnz, unique_sorted


@dataclass
class CompactionState:
    """Compacted data matrix + index maps for one enumeration run.

    ``matrix``/``errors`` hold the alive rows x alive columns view of the
    projected data; ``col_map`` maps each projected one-hot column to its
    compacted position (``-1`` for dead columns); ``row_indices`` are the
    surviving original row positions (strictly increasing, so relative row
    order — and therefore float summation order — is preserved).
    ``num_rows_full`` / ``num_cols_full`` remember the uncompacted shape for
    scoring and for the retained ratios reported per level.
    """

    matrix: sp.csr_matrix
    errors: np.ndarray
    col_map: np.ndarray
    row_indices: np.ndarray
    num_rows_full: int
    num_cols_full: int
    #: boolean coverage over the *current* rows, accumulated during the last
    #: level's evaluation: True where the row matched >= 1 evaluated slice
    row_coverage: np.ndarray | None = None

    # -- construction --------------------------------------------------------

    @classmethod
    def initial(
        cls, x_projected: sp.csr_matrix, errors: np.ndarray
    ) -> "CompactionState":
        """Level-1 state: all projected columns, rows matching >= 1 basic slice.

        A row with no entry among the projected (valid basic slice) columns
        matches no level-1 slice and therefore no deeper slice either — the
        row-compaction rule applied to the basic pass, where membership in
        slice ``j`` is simply ``X[row, j] == 1``.
        """
        num_rows, num_cols = x_projected.shape
        alive = np.flatnonzero(row_nnz(x_projected) > 0)
        if alive.size < num_rows:
            matrix = x_projected[alive]
            kept_errors = errors[alive]
        else:
            matrix = x_projected
            kept_errors = errors
        return cls(
            matrix=matrix,
            errors=kept_errors,
            col_map=np.arange(num_cols, dtype=np.int64),
            row_indices=alive,
            num_rows_full=num_rows,
            num_cols_full=num_cols,
        )

    # -- accounting ----------------------------------------------------------

    @property
    def num_rows_alive(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def num_cols_alive(self) -> int:
        return int(self.matrix.shape[1])

    @property
    def rows_retained(self) -> float:
        """Fraction of the original rows still in the kernel working set."""
        return self.num_rows_alive / self.num_rows_full if self.num_rows_full else 0.0

    @property
    def cols_retained(self) -> float:
        """Fraction of the projected columns still in the working set."""
        return self.num_cols_alive / self.num_cols_full if self.num_cols_full else 0.0

    # -- per-level compaction ------------------------------------------------

    def begin_level(self, candidates: np.ndarray) -> None:
        """Compact for one level's evaluation: keep exactly the rows covered
        by the previous level's evaluated slices and the columns the emitted
        *candidates* (the level's key array) actually reference.

        Candidate columns are always alive in the current map (a candidate
        only unions parent columns, and parents were last level's
        candidates), so the column projection is total by induction.
        Nothing else is row-aligned with the compacted matrix across
        levels, so the state updates in place and returns nothing.
        """
        matrix = self.matrix
        errors = self.errors
        if self.row_coverage is not None:
            alive_local = np.flatnonzero(self.row_coverage)
            if alive_local.size < matrix.shape[0]:
                matrix = matrix[alive_local]
                errors = errors[alive_local]
                self.row_indices = self.row_indices[alive_local]
            self.row_coverage = None
        # The distinct referenced columns, ascending: a mask over the
        # projected width avoids sorting all num_candidates * L keys.
        referenced = np.zeros(self.num_cols_full, dtype=bool)
        referenced[candidates] = True
        alive_cols = np.flatnonzero(referenced)
        local_cols = self.col_map[alive_cols]
        if local_cols.size and local_cols.min() < 0:
            raise ValueError(
                "candidate references a compacted-away column; candidates "
                "must be unions of surviving parents"
            )
        if local_cols.size < matrix.shape[1]:
            matrix = matrix[:, local_cols].tocsr()
        col_map = np.full(self.num_cols_full, -1, dtype=np.int64)
        col_map[alive_cols] = np.arange(alive_cols.size, dtype=np.int64)
        self.col_map = col_map
        self.matrix = matrix
        self.errors = errors

    def new_coverage(self) -> np.ndarray:
        """A fresh all-False row-coverage accumulator for the current rows."""
        return np.zeros(self.num_rows_alive, dtype=bool)

    def project_slices(self, keys: np.ndarray) -> np.ndarray:
        """Remap projected-space keys into the compacted column space (rows
        stay ascending because surviving columns keep their relative
        order)."""
        projected = self.col_map[keys]
        if projected.size and projected.min() < 0:
            raise ValueError(
                "slice references a compacted-away column; compaction must "
                "only ever see candidates built from surviving parents"
            )
        return projected


def compact_slice_set(
    x_onehot: sp.csr_matrix, slices: sp.csr_matrix
) -> tuple[sp.csr_matrix, sp.csr_matrix, np.ndarray]:
    """One-shot compaction of a fixed slice-set evaluation problem.

    Returns ``(x_c, s_c, row_indices)`` where the data matrix keeps only
    the one-hot columns *slices* references and the rows with at least one
    entry among them (``row_indices`` are the surviving original row
    positions, strictly increasing); a dropped row cannot match any slice
    with >= 1 predicate, and a dropped column is multiplied by zero
    everywhere.  Row/column relative order is preserved, so
    :func:`repro.core.evaluate.evaluate_slice_set` over the compacted pair
    — scored against the *full* population via its ``num_rows``/
    ``total_error``/``max_error`` overrides — is bitwise identical to the
    uncompacted evaluation.  Used by warm-start seeding and the streaming
    accumulators.
    """
    num_cols = x_onehot.shape[1]
    alive_cols = unique_sorted(slices.indices)
    col_map = np.full(num_cols, -1, dtype=np.int64)
    col_map[alive_cols] = np.arange(alive_cols.size, dtype=np.int64)
    s_c = sp.csr_matrix(
        (slices.data, col_map[slices.indices.astype(np.int64, copy=False)],
         slices.indptr),
        shape=(slices.shape[0], alive_cols.size),
    )
    x_c = (
        x_onehot.tocsr()
        if alive_cols.size == num_cols
        else x_onehot[:, alive_cols].tocsr()
    )
    alive_rows = np.flatnonzero(row_nnz(x_c) > 0)
    if alive_rows.size < x_c.shape[0]:
        x_c = x_c[alive_rows]
    return x_c, s_c, alive_rows


__all__ = ["CompactionState", "compact_slice_set"]
