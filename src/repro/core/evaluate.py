"""Vectorized slice evaluation (Section 4.4, Figure 2).

All candidate slices of a level are evaluated against the one-hot data
matrix with a single (blocked) sparse matrix multiplication:
``I = ((X @ S^T) == L)`` marks, per data row and slice, whether the row
matches all ``L`` predicates; sizes, errors, and maximum tuple errors then
follow from column reductions over ``I``.

The enumeration hands a level over as its key array (``num_slices x L``
projected column ids, rows ascending; see :mod:`repro.core.pairs`).
:func:`evaluate_slices` takes keys; only the public mixed-level
:func:`evaluate_slice_set` takes a CSR ``S``, and it converts each level
group to keys once before the kernels see it.

The block size ``b`` realizes the paper's hybrid execution: ``b = 1`` is
pure task-parallel evaluation (one slice at a time, vector intermediates
only), ``b = nrow(S)`` pure data-parallel evaluation (one big intermediate),
and moderate ``b`` shares scans of ``X`` across ``b`` slices while bounding
the ``n x b`` intermediate (Figure 6(b) studies this trade-off).

Two workspace-reuse optimizations serve the enumeration hot path: the CSC
transpose ``S^T`` is built from the keys once per kernel call and blocks
are cheap column slices of it (instead of transposing every row block
separately), and callers may pass a :class:`~repro.linalg.KernelWorkspace`
so every level of a run shares one persistent thread pool instead of
constructing a fresh ``ThreadPoolExecutor`` per call.  When the caller
evaluates against a row/column-compacted data matrix
(:mod:`repro.core.compaction`), the ``num_rows``/``total_error``
overrides keep the scores referenced to the full population, and the
optional ``coverage`` accumulator records which data rows matched at
least one slice — the input of the next level's row compaction — as a
by-product of the indicator that is computed anyway.

The driver may route a level to the packed-bitset backend instead
(:mod:`repro.linalg.kernels`, chosen per level by a
:class:`~repro.linalg.KernelState`); it computes the same indicator from
``X`` alone, bitwise identical to the sparse product, and no indicator is
kept from one level to the next.  That backend ANDs the column bitsets the
keys name directly, so it never builds ``S`` at all.

Size-first last level.  At ``level == max_level``, with the bitset backend
and errors that are not all 0/1, :func:`evaluate_slices` gets a
:class:`SizeFirst` per chunk and splits the work in two.  It popcounts
every candidate's exact size ``|S|`` and its positive-error members first.
Then it sums float errors only for the candidates whose
:func:`~repro.core.scoring.score_at_exact_size` bound is ``>= T`` and
``> 0``, where ``T`` is the K-th score held before the chunk (0.0 while
the top-K is not full).  The result is exact:

* the bound is at least the candidate's real ``score()`` in floating point
  (the proof is in :func:`~repro.core.scoring.score_at_exact_size`);
* a skipped candidate either scores ``< T``, so K held slices beat it
  strictly, or scores ``<= 0`` and is invalid.  Either way the top-K after
  the chunk is unchanged, and with it every later threshold, priority cut
  and counter;
* only the last level qualifies, because its statistics feed no pair join.
  The next level's input filter needs exact parent statistics everywhere
  else.

A skipped candidate's ``R`` row holds its exact size.  If none of its
members has a positive error, ``se`` and ``sm`` are exactly ``0.0``,
which is what the sum gives, and its score is exact.  Otherwise ``se``,
``sm`` and the score are ``NaN``: "not summed, known positive".
:func:`~repro.core.types.valid_rows` counts such a row as valid, and the
top-K never admits it.  The ``sparse`` backend, 0/1 errors and every
level below the last compute what they always did.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from repro.exceptions import ValidationError
from repro.linalg import (
    KernelState,
    KernelWorkspace,
    as_csr,
    col_maxs,
    col_sums,
    ensure_vector,
    keys_to_csr,
    resolve_workspace,
    row_nnz,
)
from repro.linalg.kernels import (
    BITSET_CHUNK,
    pack_binary_errors,
    pack_bool_rows,
    words_block_sizes,
    words_block_stats,
)
from repro.core.scoring import score, score_at_exact_size
from repro.core.types import stats_matrix
from repro.obs import NULL_TRACER


class SliceSetStats(NamedTuple):
    """Raw, slice-aligned statistics of a fixed slice set.

    The three Equation-10 vectors — slice sizes ``|S|``, total slice errors
    ``se``, and maximum tuple errors ``sm`` — without the derived score, so
    callers can re-score under any ``alpha`` or merge partial results across
    row partitions (all three are plain sums/maxes over rows).
    """

    sizes: np.ndarray
    errors: np.ndarray
    max_errors: np.ndarray


#: Candidates summed per kernel call on the size-first path.  How many a
#: span sums varies from chunk to chunk; equal-sized temporaries let the
#: allocator reuse freed blocks instead of growing the heap (summing a
#: span's candidates in one call raised kdd98-wide peak RSS by about 5%).
_SUM_BLOCK = 1024


class SizeFirst(NamedTuple):
    """What a last-level chunk needs to sum errors only where they matter.

    *error_bounds* and *max_error_bounds* are each candidate's parent
    minima of ``se`` and ``sm`` (from the pair stage), and *threshold* is
    the K-th best score held before the chunk (0.0 while the top-K is not
    full).
    """

    error_bounds: np.ndarray
    max_error_bounds: np.ndarray
    threshold: float
    sigma: int


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


def _block_stats(
    x_onehot: sp.csr_matrix,
    errors: np.ndarray,
    slices_t_block: sp.csc_matrix,
    level: int,
    track_rows: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """``(ss, se, sm, row-any)`` of one transposed slice block.

    *slices_t_block* is a column block of the per-call cached ``S^T`` in
    CSC form; the row-any vector (which data rows matched >= 1 slice of the
    block) is only materialized when *track_rows* — it is the compaction
    coverage input and falls out of the indicator for free.
    """
    product = x_onehot @ slices_t_block
    indicator = indicator_equal(product, level)
    sizes = col_sums(indicator)
    slice_errors = np.asarray(indicator.T @ errors, dtype=np.float64).ravel()
    if indicator.nnz:
        max_errors = col_maxs(indicator.multiply(errors[:, np.newaxis]).tocsc())
    else:
        max_errors = np.zeros(indicator.shape[1], dtype=np.float64)
    covered = row_nnz(indicator) > 0 if track_rows else None
    return sizes, slice_errors, max_errors, covered


def evaluate_block(
    x_onehot: sp.csr_matrix,
    errors: np.ndarray,
    slices_block: sp.csr_matrix,
    level: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sizes, errors, and max tuple errors for one block of slices.

    Returns the vectors ``(ss, se, sm)`` of Equation 10 for the block.
    """
    sizes, slice_errors, max_errors, _ = _block_stats(
        x_onehot, errors, slices_block.T.tocsc(), level
    )
    return sizes, slice_errors, max_errors


def _evaluate_uniform_level(
    x_onehot: sp.csr_matrix,
    errors: np.ndarray,
    keys: np.ndarray,
    level: int,
    block_size: int,
    num_threads: int,
    workspace: KernelWorkspace | None = None,
    coverage: np.ndarray | None = None,
    kernels: KernelState | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """Blocked ``(ss, se, sm, binary)`` evaluation of same-level slices.

    *keys* are the slices' sorted column ids (``num_slices x level``) in
    *x_onehot*'s column space.  With a prepared
    :class:`~repro.linalg.KernelState` whose per-level decision is
    ``"bitset"``, candidates are processed in spans of at most
    :data:`~repro.linalg.kernels.BITSET_CHUNK`, cut so that every thread
    gets one — independent of *block_size*, which cannot matter there
    because every candidate's statistics are computed in isolation from its
    own indicator bitset.  Otherwise the transpose ``S^T`` is built from
    the keys once in CSC form and each block of *block_size* slices is a
    column slice of it.  Both paths are bitwise identical by construction,
    and their tasks are pure, so the thread pool never races shared state.
    When *coverage* (a boolean vector over the data rows) is given, rows
    matching >= 1 evaluated slice are OR-ed into it.  *binary* is true only
    when the bitset backend took its 0/1-error popcount path; the sparse
    path always reports false.
    """
    num_slices = keys.shape[0]
    track_rows = coverage is not None
    binary = False
    if kernels is not None and kernels.backend != "sparse":
        num_rows = x_onehot.shape[0]
        error_words = pack_binary_errors(errors)
        binary = error_words is not None
        tasks = _bitset_spans(num_slices, num_threads)

        def run(task):
            start, stop = task
            return words_block_stats(
                kernels.chunk_words(keys[start:stop]), errors, num_rows,
                track_rows, error_words,
            )

    else:
        # The transpose of a CSR is a CSC view: no copy, no conversion.
        slices_t = keys_to_csr(keys, x_onehot.shape[1]).T
        tasks = [
            slices_t[:, start : min(start + block_size, num_slices)]
            for start in range(0, num_slices, block_size)
        ]

        def run(task):
            return _block_stats(x_onehot, errors, task, level, track_rows)

    partials = _map_tasks(run, tasks, workspace, num_threads)
    if track_rows:
        for partial in partials:
            np.logical_or(coverage, partial[3], out=coverage)
    return (
        np.concatenate([p[0] for p in partials]),
        np.concatenate([p[1] for p in partials]),
        np.concatenate([p[2] for p in partials]),
        binary,
    )


def _evaluate_size_first(
    x_onehot: sp.csr_matrix,
    errors: np.ndarray,
    keys: np.ndarray,
    size_first: SizeFirst,
    num_rows: int,
    total_error: float,
    alpha: float,
    num_threads: int,
    workspace: KernelWorkspace | None,
    coverage: np.ndarray | None,
    kernels: KernelState,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """``(ss, se, sm, summed)`` of a last-level chunk, sized first.

    Each span sizes all its candidates and counts their positive-error
    members, then sums errors only for those whose
    :func:`~repro.core.scoring.score_at_exact_size` bound is at least
    *size_first*'s threshold and positive; *summed* counts them.  Every
    other candidate gets ``se = sm = 0.0`` when no member's error is
    positive (what the sum gives) and ``NaN`` ("not summed, known
    positive") otherwise.
    """
    data_rows = x_onehot.shape[0]
    positive_words = pack_bool_rows((errors > 0)[np.newaxis, :])[0]
    track_rows = coverage is not None

    def run(task):
        start, stop = task
        words = kernels.chunk_words(keys[start:stop])
        sizes, positives, covered = words_block_sizes(
            words, positive_words, data_rows, track_rows
        )
        bound = score_at_exact_size(
            sizes, size_first.error_bounds[start:stop],
            size_first.max_error_bounds[start:stop],
            num_rows, total_error, size_first.sigma, alpha,
        )
        todo = np.flatnonzero((bound >= size_first.threshold) & (bound > 0.0))
        slice_errors = np.where(positives > 0, np.nan, 0.0)
        max_errors = slice_errors.copy()
        for first in range(0, todo.size, _SUM_BLOCK):
            part = todo[first : first + _SUM_BLOCK]
            _, slice_errors[part], max_errors[part], _ = words_block_stats(
                words[part], errors, data_rows
            )
        return sizes, slice_errors, max_errors, covered, todo.size

    partials = _map_tasks(
        run, _bitset_spans(keys.shape[0], num_threads), workspace, num_threads
    )
    if track_rows:
        for partial in partials:
            np.logical_or(coverage, partial[3], out=coverage)
    return (
        np.concatenate([p[0] for p in partials]),
        np.concatenate([p[1] for p in partials]),
        np.concatenate([p[2] for p in partials]),
        sum(p[4] for p in partials),
    )


def _bitset_spans(num_slices: int, num_threads: int) -> list[tuple[int, int]]:
    """Spans of at most :data:`BITSET_CHUNK` candidates, one per thread."""
    span = min(BITSET_CHUNK, max(1, -(-num_slices // max(1, num_threads))))
    return [
        (start, min(start + span, num_slices))
        for start in range(0, num_slices, span)
    ]


def _map_tasks(run, tasks, workspace: KernelWorkspace | None, num_threads: int):
    """``run`` over *tasks* on the caller's pool, or a transient one."""
    ws, transient = resolve_workspace(workspace, num_threads)
    try:
        return ws.map(run, tasks)
    finally:
        if transient:
            ws.close()


def evaluate_slice_set(
    x_onehot: sp.csr_matrix,
    slices: sp.csr_matrix,
    errors: np.ndarray,
    block_size: int = 16,
    num_threads: int = 1,
    workspace: KernelWorkspace | None = None,
    num_rows: int | None = None,
    total_error: float | None = None,
    max_error: float | None = None,
    backend: str = "sparse",
) -> SliceSetStats:
    """Evaluate a *fixed*, possibly mixed-level slice set against a dataset.

    Unlike :func:`evaluate_slices` — which serves the level-wise enumeration
    and therefore assumes every row of ``slices`` has exactly ``level``
    predicates — this helper accepts arbitrary one-hot slice rows (the
    projected ``S`` representation: one column per ``feature == value``
    predicate; every stored entry of a row is one predicate).  Rows are
    grouped by predicate count, each group becomes a key array once, and
    it runs through the same kernels as the enumeration, so the returned
    statistics are bitwise identical to what the enumeration would compute
    for the same slices over the same rows.

    An all-zero slice row (no predicates) denotes the entire dataset and
    gets ``(n, sum(e), max(e))``.

    When *x_onehot*/*errors* are a compacted view of a larger population
    (see :func:`repro.core.compaction.compact_slice_set`), pass the full
    population's ``num_rows``/``total_error``/``max_error`` so the
    whole-dataset statistics stay referenced to the original data; the
    per-slice vectors are unaffected (a compacted-away row belongs to no
    slice).  *workspace* shares one thread pool across repeated calls.

    Returns a :class:`SliceSetStats` of row-aligned ``(sizes, errors,
    max_errors)`` vectors; combine with :func:`repro.core.scoring.score` for
    scores under a chosen ``alpha``.  This is the membership kernel behind
    :class:`repro.streaming.MergeableSliceStats` and a vectorized
    replacement for per-slice :func:`~repro.core.decode.slice_membership`
    loops.

    *backend* selects the evaluation kernel (one of
    :data:`repro.linalg.kernels.BACKENDS`): ``"sparse"`` (the default, and
    always exact), ``"bitset"`` or ``"auto"``.  Results are bitwise
    identical for every choice.
    """
    if block_size < 1:
        raise ValidationError("block_size must be >= 1")
    kernels = KernelState(backend) if backend != "sparse" else None
    errors = ensure_vector(errors, x_onehot.shape[0], "errors")
    if num_rows is None:
        num_rows = x_onehot.shape[0]
    slices = as_csr(slices)
    if slices.shape[1] != x_onehot.shape[1]:
        raise ValidationError(
            f"slices have {slices.shape[1]} one-hot columns but the data "
            f"matrix has {x_onehot.shape[1]}"
        )
    num_slices = slices.shape[0]
    sizes = np.zeros(num_slices, dtype=np.float64)
    slice_errors = np.zeros(num_slices, dtype=np.float64)
    max_errors = np.zeros(num_slices, dtype=np.float64)
    if num_slices == 0:
        return SliceSetStats(sizes, slice_errors, max_errors)

    # Canonical row order turns each level group's indices into its keys.
    slices = slices.sorted_indices()
    levels = row_nnz(slices)
    for level in np.unique(levels):
        members = np.flatnonzero(levels == level)
        if level == 0:
            sizes[members] = float(num_rows)
            slice_errors[members] = (
                float(errors.sum()) if total_error is None else total_error
            )
            if max_error is not None:
                max_errors[members] = max_error
            else:
                max_errors[members] = (
                    float(errors.max()) if errors.shape[0] else 0.0
                )
            continue
        keys = slices[members].indices.reshape(members.size, level)
        if kernels is not None:
            kernels.begin_level(x_onehot, int(level), int(members.size))
        group_sizes, group_errors, group_max, _ = _evaluate_uniform_level(
            x_onehot, errors, keys, int(level), block_size,
            num_threads, workspace=workspace, kernels=kernels,
        )
        sizes[members] = group_sizes
        slice_errors[members] = group_errors
        max_errors[members] = group_max
    return SliceSetStats(sizes, slice_errors, max_errors)


def evaluate_slices(
    x_onehot: sp.csr_matrix,
    errors: np.ndarray,
    slices: np.ndarray,
    level: int,
    alpha: float,
    block_size: int = 16,
    num_threads: int = 1,
    tracer=NULL_TRACER,
    counters=None,
    workspace: KernelWorkspace | None = None,
    coverage: np.ndarray | None = None,
    num_rows: int | None = None,
    total_error: float | None = None,
    kernels: KernelState | None = None,
    size_first: SizeFirst | None = None,
) -> np.ndarray:
    """Evaluate all candidate *slices* and return their ``R`` statistics.

    *slices* is the level's key array (``num_slices x level`` sorted column
    ids in *x_onehot*'s column space).  Blocks of ``block_size`` slices are
    evaluated independently (optionally on a thread pool — scipy's matmul
    releases the GIL for the heavy part), then concatenated into the
    level's ``R`` matrix ``[sc, se, sm, ss]``.
    Passing a :class:`~repro.linalg.KernelWorkspace` reuses one pool across
    calls; the enumeration driver holds one for the whole run.

    When evaluating against a compacted data matrix, *num_rows* and
    *total_error* carry the full population (scores are defined against the
    whole dataset) and *coverage* — a boolean vector over the compacted
    rows — accumulates which rows matched >= 1 slice for the next level's
    row compaction.

    The blocked multiplication reports one span into *tracer*; when a
    :class:`~repro.obs.LevelCounters` record is passed as *counters*, the
    indicator fill (total row-slice memberships, which equals ``nnz(I)``)
    is accumulated on it.

    *kernels* is the driver's per-run :class:`~repro.linalg.KernelState`
    (already positioned at this level via ``begin_level``).  Omitting it
    keeps the sparse path — the default for every external caller.

    *size_first* (the driver passes it at the last level only) lets the
    bitset backend size every candidate first and sum float errors only
    for those whose exact-size bound can still reach the top-K; the rest
    get ``NaN`` (or exact zero) errors and scores, as the module docstring
    explains.  It changes nothing for 0/1 errors or the sparse backend.
    """
    if block_size < 1:
        raise ValidationError("block_size must be >= 1")
    errors = ensure_vector(errors, x_onehot.shape[0], "errors")
    if num_rows is None:
        num_rows = x_onehot.shape[0]
    if total_error is None:
        total_error = float(errors.sum())
    num_slices = slices.shape[0]
    if num_slices == 0:
        return np.zeros((0, 4), dtype=np.float64)

    num_blocks = -(-num_slices // block_size)
    with tracer.span(
        "evaluate.blocks",
        num_slices=num_slices,
        blocks=num_blocks,
        threads=num_threads,
        backend=kernels.backend if kernels is not None else "sparse",
    ) as span:
        if (
            size_first is not None
            and kernels is not None
            and kernels.backend != "sparse"
            and pack_binary_errors(errors) is None
        ):
            sizes, slice_errors, max_errors, summed = _evaluate_size_first(
                x_onehot, errors, slices, size_first, num_rows, total_error,
                alpha, num_threads, workspace, coverage, kernels,
            )
            binary = False
        else:
            sizes, slice_errors, max_errors, binary = _evaluate_uniform_level(
                x_onehot, errors, slices, level, block_size, num_threads,
                workspace=workspace, coverage=coverage, kernels=kernels,
            )
            summed = num_slices
        span.annotate(errors="binary" if binary else "general", summed=summed)
    if counters is not None:
        # Every stored entry of I = (X S^T == L) is one (row, slice)
        # membership, so sum(ss) over the level IS nnz(I) — free to track.
        counters.indicator_nnz += int(sizes.sum())
    scores = score(sizes, slice_errors, num_rows, total_error, alpha)
    return stats_matrix(scores, slice_errors, max_errors, sizes)
