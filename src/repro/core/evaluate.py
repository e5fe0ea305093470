"""Vectorized slice evaluation (Section 4.4, Figure 2).

All candidate slices of a level are evaluated against the one-hot data
matrix ``X``: ``I = ((X @ S^T) == L)`` marks, per data row and slice,
whether the row matches all ``L`` predicates; sizes, errors, and maximum
tuple errors then follow from reductions over ``I``.

The enumeration hands a level over as its key array (``num_slices x L``
projected column ids, rows ascending; see :mod:`repro.core.pairs`).
:func:`evaluate_slices` takes keys; only the public mixed-level
:func:`evaluate_slice_set` takes a CSR ``S``, and it converts each level
group to keys once before the kernel sees it.

One kernel computes ``I``: the packed bitset table of
:mod:`repro.linalg.kernels`.  A candidate's indicator is the AND of the
column bitsets its keys name, so ``S`` is never built, and no indicator is
kept from one level to the next.  The statistics are bitwise those of the
paper's blocked sparse product, which :mod:`repro.distributed.sparse`
keeps as the reference kernel of the Figure 6(b)/7 executors.  Candidates
are processed in spans of at most
:data:`~repro.linalg.kernels.BITSET_CHUNK`, one per thread; every
candidate's statistics are computed in isolation, so the span grid cannot
change a result.

Every evaluation runs on a :class:`~repro.linalg.KernelState`: the
level's packed table, its errors coded once (the 0/1 bitset, or, for
size-first spans, the bitset of ``errors > 0`` and the error planes), and
its row coverage.  The data argument is either a 0/1 matrix, which the
state packs, or a :class:`~repro.linalg.BitsetTable` such as the search's
column view of its one table (:mod:`repro.core.compaction`), which it
reads as is.  The search begins one state per level;
:func:`evaluate_slices` without one and :func:`evaluate_slice_set` begin a
one-off state, so every caller runs the same span task.  Callers may pass
a :class:`~repro.linalg.KernelWorkspace` so every level of a run shares
one persistent thread pool instead of constructing a fresh
``ThreadPoolExecutor`` per call.  When the caller evaluates against a
row-compacted data matrix (:func:`~repro.core.compaction.compact_slice_set`),
the ``num_rows``/``total_error`` overrides keep the scores referenced to
the full population.  A state begun with ``track_rows`` records which data
rows matched at least one slice — the next level's ``rows_alive`` — as a
by-product of the indicator that is computed anyway.  The last level
tracks none: no later level reads it.

Size-first last level.  At ``level == max_level``, with errors that are
not all 0/1, :func:`evaluate_slices` gets a :class:`SizeFirst` per chunk
and splits the work in three.  It popcounts every candidate's exact size
``|S|`` first, and its positive-error members unless every error is
positive (then that count is ``|S|``).  A candidate whose
:func:`~repro.core.scoring.score_at_exact_size` bound is ``>= T`` and
``> 0``, where ``T`` is the K-th score held before the chunk (0.0 while
the top-K is not full), then goes through the level's error planes
(:func:`~repro.linalg.kernels.pack_error_planes`, packed by the state on
the level's first size-first chunk): each row's error rounded up to an
integer multiple ``q`` of a power of two, one row bitset per bit of ``q``.
A few popcounts give the exact integer sum ``Q`` of the candidate's
``q``, top planes first, and :func:`~repro.core.scoring.plane_error_cap`
turns it into a cap on ``se`` that tightens the same bound.  Only the
candidates that still pass have their float errors summed: on
kdd98-wide, 567 of the 314,092 that pass the exact-size bound.  The
result is exact:

* each bound is at least the candidate's real ``score()`` in floating
  point (the proofs are in :func:`~repro.core.scoring.score_at_exact_size`);
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
top-K never admits it.  0/1 errors and every level below the last compute
every statistic.
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
    ensure_vector,
    resolve_workspace,
    row_nnz,
)
from repro.linalg.kernels import (
    BITSET_CHUNK,
    PLANE_PASSES,
    covered_rows,
    popcount_rows,
    words_block_stats,
)
from repro.core.scoring import plane_error_cap, score, score_at_exact_size
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


#: Candidates a size-first span takes through the error planes and the
#: sums per step.  How many a span takes varies from chunk to chunk;
#: equal-sized temporaries let the allocator reuse freed blocks instead of
#: growing the heap (summing a span's candidates in one call raised
#: kdd98-wide peak RSS by about 5%).
_SUM_BLOCK = 1024


class SizeFirst(NamedTuple):
    """What a last-level chunk needs to sum errors only where they matter.

    *error_bounds* and *max_error_bounds* are each candidate's parent
    minima of ``se`` and ``sm`` (from the pair stage), and *threshold* is
    the K-th best score held before the chunk (0.0 while the top-K is not
    full).  The error planes come from the level's
    :class:`~repro.linalg.KernelState`.
    """

    error_bounds: np.ndarray
    max_error_bounds: np.ndarray
    threshold: float
    sigma: int


def _evaluate_spans(
    kernels: KernelState,
    keys: np.ndarray,
    num_threads: int,
    workspace: KernelWorkspace | None,
    reaching=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
    """``(ss, se, sm, bounded, summed)`` of same-level candidates.

    *keys* are the candidates' sorted column ids (``num_slices x level``)
    in the column space of *kernels*' table.  Candidates are processed in
    spans of at most :data:`~repro.linalg.kernels.BITSET_CHUNK`, cut so
    that every thread gets one; the tasks only read *kernels*, so the
    thread pool never races shared state.  When *kernels* tracks row
    coverage, the rows that match >= 1 candidate are OR-ed into it once
    every span is back.

    Without *reaching* every candidate's statistics are computed
    (*bounded* is 0 and *summed* counts every candidate).  With it, the
    span is sized first: ``reaching(rows, sizes, caps=None)`` tells which
    candidates (chunk positions *rows*, exact *sizes*, optional caps on
    ``se``) can still reach the top-K.  Those that can go through the
    error planes, top planes first
    (:data:`~repro.linalg.kernels.PLANE_PASSES`); after each pass the cap
    (:func:`~repro.core.scoring.plane_error_cap`) of the planes read so
    far, plus the most the unread ones can add, tightens the test.
    *bounded* counts the candidates that reach the planes (0 without
    planes), and *summed* those whose errors are summed after the last
    pass.  Every other candidate gets ``se = sm = 0.0`` when no member's
    error is positive (what the sum gives) and ``NaN`` ("not summed, known
    positive") otherwise.
    """
    table, errors = kernels.table, kernels.errors
    data_rows = table.num_rows
    track_rows = kernels.coverage is not None
    positive_words, planes = (
        kernels.sizing_codes() if reaching is not None else (None, None)
    )

    def run(task):
        start, stop = task
        words = table.candidate_words(keys[start:stop])
        covered = covered_rows(words, data_rows) if track_rows else None
        if reaching is None:
            return (
                *words_block_stats(
                    words, errors, data_rows, kernels.error_words
                ),
                covered, 0, stop - start,
            )
        counts = popcount_rows(words)
        sizes = counts.astype(np.float64)
        # Every member of a candidate counts when every error is positive.
        positives = (
            counts if positive_words is None
            else popcount_rows(words & positive_words)
        )
        todo = np.flatnonzero(reaching(slice(start, stop), sizes))
        bounded = 0
        if planes is not None:
            bounded = todo.size
            quanta = np.zeros(todo.size, dtype=np.int64)
            for low, high in PLANE_PASSES:
                for first in range(0, todo.size, _SUM_BLOCK):
                    rows = slice(first, first + _SUM_BLOCK)
                    quanta[rows] += planes.sums(words[todo[rows]], low, high)
                unread = ((1 << low) - 1) * positives[todo]
                keep = reaching(
                    start + todo, sizes[todo],
                    plane_error_cap(quanta + unread, planes.step),
                )
                todo, quanta = todo[keep], quanta[keep]
        slice_errors = np.where(positives > 0, np.nan, 0.0)
        max_errors = slice_errors.copy()
        for first in range(0, todo.size, _SUM_BLOCK):
            part = todo[first : first + _SUM_BLOCK]
            _, slice_errors[part], max_errors[part] = words_block_stats(
                words[part], errors, data_rows
            )
        return sizes, slice_errors, max_errors, covered, bounded, todo.size

    partials = _map_tasks(
        run, _bitset_spans(keys.shape[0], num_threads), workspace, num_threads
    )
    if track_rows:
        for partial in partials:
            np.logical_or(kernels.coverage, partial[3], out=kernels.coverage)
    return (
        np.concatenate([p[0] for p in partials]),
        np.concatenate([p[1] for p in partials]),
        np.concatenate([p[2] for p in partials]),
        sum(p[4] for p in partials),
        sum(p[5] for p in partials),
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
    num_threads: int = 1,
    workspace: KernelWorkspace | None = None,
    num_rows: int | None = None,
    total_error: float | None = None,
    max_error: float | None = None,
) -> SliceSetStats:
    """Evaluate a *fixed*, possibly mixed-level slice set against a dataset.

    Unlike :func:`evaluate_slices` — which serves the level-wise enumeration
    and therefore assumes every row of ``slices`` has exactly ``level``
    predicates — this helper accepts arbitrary one-hot slice rows (the
    projected ``S`` representation: one column per ``feature == value``
    predicate; every stored entry of a row is one predicate).  Rows are
    grouped by predicate count, each group becomes a key array once, and
    every group runs through the enumeration's kernel over one packed
    table of *x_onehot*, so the returned statistics are bitwise identical
    to what the enumeration would compute for the same slices over the
    same rows.  *x_onehot* is a 0/1 matrix (see
    :meth:`~repro.linalg.BitsetTable.from_matrix`) or its packed
    :class:`~repro.linalg.BitsetTable`, which is read without packing.

    An all-zero slice row (no predicates) denotes the entire dataset and
    gets ``(n, sum(e), max(e))``.

    When *x_onehot*/*errors* are a row-compacted view of a larger
    population (see :func:`repro.core.compaction.compact_slice_set`, which
    also keeps the packed table to the columns the slices name), pass the
    full
    population's ``num_rows``/``total_error``/``max_error`` so the
    whole-dataset statistics stay referenced to the original data; the
    per-slice vectors are unaffected (a compacted-away row belongs to no
    slice).  *workspace* shares one thread pool across repeated calls.

    Returns a :class:`SliceSetStats` of row-aligned ``(sizes, errors,
    max_errors)`` vectors; combine with :func:`repro.core.scoring.score` for
    scores under a chosen ``alpha``.  This is the membership kernel behind
    warm-start seeding, :class:`repro.streaming.MergeableSliceStats` and a
    vectorized replacement for per-slice
    :func:`~repro.core.decode.slice_membership` loops.
    """
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
    kernels = KernelState()
    if levels.any():
        kernels.begin_level(x_onehot, None, errors)
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
        group_sizes, group_errors, group_max, _, _ = _evaluate_spans(
            kernels, keys, num_threads, workspace
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
    num_threads: int = 1,
    tracer=NULL_TRACER,
    counters=None,
    workspace: KernelWorkspace | None = None,
    num_rows: int | None = None,
    total_error: float | None = None,
    kernels: KernelState | None = None,
    size_first: SizeFirst | None = None,
) -> np.ndarray:
    """Evaluate all candidate *slices* and return their ``R`` statistics.

    *slices* is the level's key array (``num_slices x level`` sorted column
    ids in *x_onehot*'s column space; *x_onehot* is a 0/1 matrix or its
    :class:`~repro.linalg.BitsetTable`).  Spans of candidates are evaluated
    independently (optionally on a thread pool), then concatenated into the
    level's ``R`` matrix ``[sc, se, sm, ss]``.  Passing a
    :class:`~repro.linalg.KernelWorkspace` reuses one pool across calls;
    :func:`~repro.core.algorithm.slice_line` holds one for the whole run.

    When evaluating against a compacted data matrix, *num_rows* and
    *total_error* carry the full population (scores are defined against the
    whole dataset).

    The evaluation reports one span into *tracer*; when a
    :class:`~repro.obs.LevelCounters` record is passed as *counters*, the
    indicator fill (total row-slice memberships, which equals ``nnz(I)``)
    is accumulated on it.

    *kernels* is the search's per-run :class:`~repro.linalg.KernelState`,
    already positioned at this level via ``begin_level``, so every chunk
    of a level shares one table view and one coding of the errors, and
    its row coverage, if tracked, grows with every chunk.  Without it the
    call begins a one-off state over *x_onehot*.

    *size_first* (the search passes it at the last level only) lets the
    kernel size every candidate first and sum float errors only for those
    whose exact-size bound, and then the error planes' cap, can still
    reach the top-K; the rest get ``NaN`` (or exact zero) errors and
    scores, as the module docstring explains.  Its span then also reports
    ``sized`` and ``bounded`` next to ``summed``.  It changes nothing for
    0/1 errors.
    """
    errors = ensure_vector(errors, x_onehot.shape[0], "errors")
    if num_rows is None:
        num_rows = x_onehot.shape[0]
    if total_error is None:
        total_error = float(errors.sum())
    num_slices = slices.shape[0]
    if num_slices == 0:
        return np.zeros((0, 4), dtype=np.float64)

    if kernels is None:
        kernels = KernelState()
        kernels.begin_level(x_onehot, level, errors)
    reaching = None
    if size_first is not None and not kernels.binary:

        def reaching(rows, sizes, caps=None):
            error_bounds = size_first.error_bounds[rows]
            if caps is not None:
                error_bounds = np.minimum(error_bounds, caps)
            bound = score_at_exact_size(
                sizes, error_bounds, size_first.max_error_bounds[rows],
                num_rows, total_error, size_first.sigma, alpha,
            )
            return (bound >= size_first.threshold) & (bound > 0.0)

    with tracer.span(
        "evaluate.blocks", num_slices=num_slices, threads=num_threads
    ) as span:
        sizes, slice_errors, max_errors, bounded, summed = _evaluate_spans(
            kernels, slices, num_threads, workspace, reaching
        )
        if reaching is not None:
            span.annotate(sized=num_slices, bounded=bounded)
        span.annotate(
            errors="binary" if kernels.binary else "general", summed=summed
        )
    if counters is not None:
        # Every stored entry of I = (X S^T == L) is one (row, slice)
        # membership, so sum(ss) over the level IS nnz(I) — free to track.
        counters.indicator_nnz += int(sizes.sum())
    scores = score(sizes, slice_errors, num_rows, total_error, alpha)
    return stats_matrix(scores, slice_errors, max_errors, sizes)
