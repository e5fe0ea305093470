"""Per-level column views of the run's table, and the rows still in play.

Algorithm 1 projects ``X`` to the valid basic-slice columns once (line 12)
and evaluates every deeper level against that ``n x m'`` matrix, even
though pruning keeps shrinking what can still participate:

* **Columns** — every level ``L+1`` candidate is the union of two surviving
  level-``L`` parents, so a one-hot column that appears in *no* parent can
  never appear in any deeper candidate.
* **Rows** — a row belongs to a candidate only if it belongs to *both*
  parents (size monotonicity, Section 3.2), so a row that matches no
  evaluated slice of level ``L`` cannot belong to any slice of level
  ``L+1`` or deeper.

The search packs one :class:`~repro.linalg.BitsetTable` per run, over the
projected columns and every data row
(:func:`~repro.core.basic.create_and_score_basic_slices`).
:class:`CompactionState` hands each level a *column view* of it: the rows
of the table's words that the level's candidates reference, gathered, not
repacked.  A level's key arrays (see :mod:`repro.core.pairs`) stay in the
canonical projected column space, so pair generation, deduplication,
top-K maintenance, decoding and warm-start seeding are untouched; only
just before each kernel call are a chunk's keys remapped through
:meth:`CompactionState.project_slices`, one gather through the column map.
Surviving columns keep their relative order, so remapped keys stay
ascending.

Rows are counted, not dropped.  ``row_indices`` lists the rows the
previous level's evaluated slices covered, for the ``rows_alive`` gauge and
checkpoint bundles, but every view keeps all rows.  That is exact: a row
outside the coverage is zero in every candidate's AND, so each candidate
has the same members either way.  Its ``ss`` and ``se`` sum the same rows
in the same ascending order, and its ``sm`` is the same maximum, since the
implicit-zero rule cannot change a maximum of errors that are ``>= 0``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.linalg import BitsetTable, row_nnz, unique_sorted
from repro.linalg.kernels import covered_rows


@dataclass
class CompactionState:
    """Column view and row accounting for one enumeration run.

    ``table`` is the run's packed table (every projected column, every
    row); ``view`` holds the columns the current level references, in
    projected order (the whole table before the first deeper level);
    ``col_map`` maps each projected column to its position in ``view``
    (``-1`` for dead columns); ``row_indices`` are the rows still counted
    alive (strictly increasing).
    """

    table: BitsetTable
    view: BitsetTable
    col_map: np.ndarray
    row_indices: np.ndarray
    #: boolean coverage over ``row_indices``, recorded by :meth:`end_level`
    #: from the last level's evaluation (:class:`~repro.linalg.KernelState`):
    #: True where the row matched >= 1 evaluated slice; ``None`` after the
    #: search's last level, which no later level counts rows for
    row_coverage: np.ndarray | None = None

    # -- construction --------------------------------------------------------

    @classmethod
    def initial(cls, table: BitsetTable) -> "CompactionState":
        """Level-1 state: all projected columns, rows matching >= 1 basic slice.

        A row with no bit among the projected (valid basic slice) columns
        matches no level-1 slice and therefore no deeper slice either — the
        row rule applied to the basic pass, where membership in slice ``j``
        is simply bit ``row`` of column ``j``.
        """
        num_cols = table.shape[1]
        return cls(
            table=table,
            view=table,
            col_map=np.arange(num_cols, dtype=np.int64),
            row_indices=np.flatnonzero(covered_rows(table.words, table.num_rows)),
        )

    # -- accounting ----------------------------------------------------------

    @property
    def num_rows_alive(self) -> int:
        return int(self.row_indices.size)

    @property
    def num_cols_alive(self) -> int:
        return self.view.shape[1]

    @property
    def rows_retained(self) -> float:
        """Fraction of the original rows still counted alive."""
        num_rows = self.table.num_rows
        return self.num_rows_alive / num_rows if num_rows else 0.0

    @property
    def cols_retained(self) -> float:
        """Fraction of the projected columns in the current view."""
        num_cols = self.table.shape[1]
        return self.num_cols_alive / num_cols if num_cols else 0.0

    # -- per-level views -----------------------------------------------------

    def begin_level(self, candidates: np.ndarray) -> None:
        """Set up one level's evaluation: count exactly the rows covered by
        the previous level's evaluated slices, and view the columns the
        emitted *candidates* (the level's key array) actually reference.

        Candidate columns are always alive in the current map (a candidate
        only unions parent columns, and parents were last level's
        candidates), so the column projection is total by induction.
        The view is a row gather of the run's table's words.
        """
        if self.row_coverage is not None:
            self.row_indices = self.row_indices[self.row_coverage]
            self.row_coverage = None
        # The distinct referenced columns, ascending: a mask over the
        # projected width avoids sorting all num_candidates * L keys.
        num_cols = self.table.shape[1]
        referenced = np.zeros(num_cols, dtype=bool)
        referenced[candidates] = True
        alive_cols = np.flatnonzero(referenced)
        if alive_cols.size and self.col_map[alive_cols].min() < 0:
            raise ValueError(
                "candidate references a compacted-away column; candidates "
                "must be unions of surviving parents"
            )
        self.view = (
            self.table if alive_cols.size == num_cols
            else self.table.columns(alive_cols)
        )
        col_map = np.full(num_cols, -1, dtype=np.int64)
        col_map[alive_cols] = np.arange(alive_cols.size, dtype=np.int64)
        self.col_map = col_map

    def end_level(self, coverage: np.ndarray | None) -> None:
        """Record the rows, out of all data rows, that the level's evaluated
        slices covered (``None`` when the level tracked none)."""
        self.row_coverage = (
            None if coverage is None else coverage[self.row_indices]
        )

    def project_slices(self, keys: np.ndarray) -> np.ndarray:
        """Remap projected-space keys into the view's column space (rows
        stay ascending because surviving columns keep their relative
        order)."""
        projected = self.col_map[keys]
        if projected.size and projected.min() < 0:
            raise ValueError(
                "slice references a compacted-away column; compaction must "
                "only ever see candidates built from surviving parents"
            )
        return projected


def slice_set_columns(
    slices: sp.csr_matrix,
) -> tuple[np.ndarray, sp.csr_matrix]:
    """The columns a fixed slice set references, and the set remapped to them.

    Returns ``(columns, s_c)``: the distinct one-hot columns *slices* name,
    ascending, and *slices* with each column replaced by its position in
    ``columns`` (rows stay ascending).  Evaluating ``s_c`` against those
    columns of the data — a :meth:`~repro.linalg.BitsetTable.columns` view
    for warm-start seeds, :func:`compact_slice_set` for the streaming
    accumulators — gives what evaluating *slices* against all columns
    gives, with a table only as wide as the columns the slices name.
    """
    columns = unique_sorted(slices.indices)
    col_map = np.full(slices.shape[1], -1, dtype=np.int64)
    col_map[columns] = np.arange(columns.size, dtype=np.int64)
    s_c = sp.csr_matrix(
        (slices.data, col_map[slices.indices.astype(np.int64, copy=False)],
         slices.indptr),
        shape=(slices.shape[0], columns.size),
    )
    return columns, s_c


def compact_slice_set(
    x_onehot: sp.csr_matrix, slices: sp.csr_matrix
) -> tuple[sp.csr_matrix, sp.csr_matrix, np.ndarray]:
    """One-shot compaction of a fixed slice-set evaluation problem.

    Returns ``(x_c, s_c, row_indices)`` where the data matrix keeps only
    the one-hot columns *slices* references (:func:`slice_set_columns`)
    and the rows with at least one entry among them (``row_indices`` are
    the surviving original row positions, strictly increasing); a dropped
    row cannot match any slice with >= 1 predicate, and no slice names a
    dropped column.  Row/column relative order is preserved, so
    :func:`repro.core.evaluate.evaluate_slice_set` over the compacted pair
    — scored against the *full* population via its ``num_rows``/
    ``total_error``/``max_error`` overrides — is bitwise identical to the
    uncompacted evaluation, and its packed table holds only the columns
    the slices name.  Used by the streaming accumulators.
    """
    alive_cols, s_c = slice_set_columns(slices)
    x_c = (
        x_onehot.tocsr()
        if alive_cols.size == x_onehot.shape[1]
        else x_onehot[:, alive_cols].tocsr()
    )
    alive_rows = np.flatnonzero(row_nnz(x_c) > 0)
    if alive_rows.size < x_c.shape[0]:
        x_c = x_c[alive_rows]
    return x_c, s_c, alive_rows


__all__ = ["CompactionState", "compact_slice_set", "slice_set_columns"]
