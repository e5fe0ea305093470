"""Pair enumeration with pruning and deduplication (Section 4.3).

Candidates for lattice level ``L`` are built Apriori-style by joining
compatible level ``L-1`` slices.  A level's slice set is a *key array*:
an ``int64`` array of shape ``(n, L)`` whose row ``i`` holds slice ``i``'s
``L`` projected column ids in ascending order.  :func:`get_pair_candidates`
takes the parents' keys and returns the candidates' keys; no 0/1 slice
matrix ``S`` is built on the way.

1. *Input filtering* — drop parents violating ``ss >= sigma`` or ``se > 0``.
2. *Self-join* — the paper pairs parents whose one-hot vectors overlap in
   exactly ``L-2`` predicates, ``upper.tri((S S^T) == L-2)``.  Here the
   parents are grouped by their ``(L-2)``-subsets instead (a *subset
   index*, :func:`_subset_index`): each parent key of ``L-1`` columns has
   ``L-1`` subsets, one per dropped column, and two parents pair exactly
   when they sit in one group with different dropped columns.

   * Distinct keys ``A`` and ``B`` with ``|A ∩ B| = L-2`` share exactly
     one ``(L-2)``-subset, ``A ∩ B``; two keys sharing a subset overlap in
     at least ``L-2`` columns, and in exactly ``L-2`` unless they are
     equal.  So every Gram match appears in exactly one group, once.
   * Identical parent rows (overlap ``L-1``, never a Gram match) share
     every group with equal dropped columns; those pairs are dropped.  At
     level 2 the subset is empty, one group holds every parent, and the
     test is the Gram's overlap-0 test on single columns.
   * A group is sorted by parent, so each pair takes its left parent from
     the earlier position: ``left < right``, as in ``upper.tri``.

   The pairs are the Gram join's, and the index counts each left row's
   pairs exactly before any is generated, which drives the plan.
3. *Merge and bound* — the union of ``A = T ∪ {a}`` and ``B = T ∪ {c}``
   is ``A`` with ``B``'s dropped column ``c`` inserted in ascending place
   (``c`` is outside ``T`` and differs from ``a``, so the union has exactly
   ``L`` columns); carry ``min(parent sizes/errors/max-errors)`` as upper
   bounds.
4. *Feature validity* — discard merged slices assigning two values to one
   original feature.  It is tested before the merge: ``T``'s features are
   distinct and differ from those of ``a`` and ``c`` when both parents are
   valid, so the union is valid exactly when both parents are and
   ``feature(a) != feature(c)``.
5. *Early score pruning* — the pair-level bound (min over the two parents)
   already upper-bounds the slice score, so pairs that cannot beat the
   current top-K are dropped inside each chunk task.  This keeps the
   pair set in memory proportional to the *surviving* candidates, which is
   what makes feature-rich/correlated datasets (KDD98, USCensus) tractable.
6. *Deduplication* — identical candidates generated from different parent
   pairs collapse into one.  Because every candidate at level ``L`` has
   exactly ``L`` set columns, its sorted column-index tuple is a compact,
   overflow-free realization of the paper's ND-array-index slice ID.
   Group-wise minima tighten the bounds and the group's distinct-parent
   count feeds the missing-parent pruning.  Level 2 skips this step when
   its parents' single columns ascend strictly in row order, as basic
   slices always do: the join emits ``(i, j)`` with ``i < j`` row-major,
   so the keys ``(c_i, c_j)`` arrive unique and sorted, each with exactly
   two parents, and deduplication would return its input unchanged.
   Passes that need only the distinct values use
   :func:`~repro.linalg.unique_sorted` (sort plus adjacent-difference
   mask), not a plain ``np.unique``: numpy 2.x answers that through a
   hash table, 30-60x slower on millions of distinct packed IDs.
7. *Pruning* (Equation 9) — minimum support on the size bound, upper-bound
   score against 0 and the current top-K minimum, and ``np == L``.

Every pruning technique is individually toggleable through
:class:`~repro.core.config.PruningConfig` (the Figure 3 ablation).

Execution model
---------------
Steps 2-6 run as a *chunk-local pipeline*.  The subset index gives every
left row its exact pair count, and :func:`choose_pair_plan` cuts the rows
into contiguous chunks of about equal pair volume.  Each chunk is a pure
task that takes all its pairs through in one pass — join, validity,
pair-level score pruning, merge, then a chunk-local deduplication with
group-min bound folding — and returns one compact :class:`_ChunkResult`.
The driver concatenates chunk results in deterministic chunk order and
runs a final global dedup over the already-shrunk keys.  Chunk tasks
share only read-only inputs, so they map over the
:class:`~repro.linalg.KernelWorkspace` thread pool when the cost model
elects parallel execution (SystemDS runs this join under ``parfor``,
paper Section 4.3); without a workspace they run serially.

Results are bitwise identical across any chunk grid and worker count:

* sorted unique keys do not depend on how pair rows were partitioned;
* float ``min`` is associative, so folding chunk-local group minima equals
  the global group minimum exactly (no rounding is involved);
* the distinct-parent count is a set-union cardinality (associative);
* every counter is an integer sum over disjoint pair subsets.

For the same reasons a deduplicating chunk's pair order reaches no
result, so a chunk emits its pairs in subset-index order.  Without
deduplication each surviving pair is its own candidate, in pair order, so
a chunk above level 2 sorts its pairs row-major first (at level 2 the one
group already emits them row-major); the candidates then come out in the
Gram join's order.

The pre-pipeline implementation is preserved in the test tree, in
``tests/pair_oracle.py`` — the differential oracle of
``tests/test_pairs_parallel.py``.  It keeps the Gram join
``upper.tri((S S^T) == L-2)``, so the oracle shares no join code with the
pipeline.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.core.config import PruningConfig
from repro.core.scoring import score_upper_bound
from repro.core.types import StatsCol, valid_rows
from repro.linalg import pack_rows_mixed_radix, unique_sorted
from repro.obs import NULL_TRACER, LevelCounters

#: pairs one chunk generates at most (a single row with more stays whole),
#: which bounds a chunk task's peak memory
_PAIR_BATCH = 1 << 20

#: estimated join work below which the whole level runs serially — thread
#: dispatch would dominate the arithmetic
_MIN_PARALLEL_OPS = 1 << 22

#: target task surplus per worker so uneven chunks still balance
_CHUNKS_PER_WORKER = 4

#: op-equivalents one planned pair costs (join gathers, validity test,
#: merge, bound minima, score bound, local dedup)
_OPS_PER_PAIR = 32

_INT64_MAX = np.iinfo(np.int64).max


@dataclass(frozen=True)
class PairJoinPlan:
    """Execution plan for one level's pair join (cost-model output).

    *parallelism* is the worker width the chunk map should run at (``1``
    means serial execution on the driver thread); *ranges* are the
    contiguous ``(start, stop)`` left-row ranges, one chunk task each,
    cut on the subset index's exact per-row pair counts.
    The plan never affects results — only how the identical work is cut.
    """

    parallelism: int
    ranges: tuple[tuple[int, int], ...]

    @property
    def num_chunks(self) -> int:
        return len(self.ranges)


class PairCandidates(NamedTuple):
    """One level's candidates as :func:`get_pair_candidates` emits them.

    *keys* is the level's key array.  *bounds* are the upper-bound scores
    ``ceil(sc)`` that drive priority evaluation (``None`` when score
    pruning is off).  *error_bounds* and *max_error_bounds* are the minima
    of the parents' ``se`` and ``sm``, the group minima the bounds were
    computed from; the last level's size-first evaluation bounds each
    candidate with them once its exact size is known.
    """

    keys: np.ndarray
    bounds: np.ndarray | None
    error_bounds: np.ndarray
    max_error_bounds: np.ndarray


def choose_pair_plan(row_pairs: np.ndarray, width: int) -> PairJoinPlan:
    """Pick chunk grid and serial-vs-parallel execution for the pair join.

    A cheap closed-form cost model, not a tuner.  *row_pairs* holds each left row's exact pair
    count from the subset index (identical parents included; the join
    drops those), so the estimated work is the planned pairs times
    :data:`_OPS_PER_PAIR`.  *width* is the most workers the map may use.
    Levels below :data:`_MIN_PARALLEL_OPS` run serially because pool
    dispatch would cost more than it saves.

    The ranges are contiguous and cover every row.  They are cut on the
    cumulative pair count: each chunk holds at most :data:`_PAIR_BATCH`
    pairs, except that a single row with more stays whole, and a parallel
    plan caps its chunks at a ``width * _CHUNKS_PER_WORKER``-th of the
    level's pairs so stragglers rebalance.  A level without pairs gets no
    ranges.
    """
    counts = np.asarray(row_pairs, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return PairJoinPlan(1, ())
    width = max(int(width), 1)
    if total * _OPS_PER_PAIR < _MIN_PARALLEL_OPS:
        width = 1
    budget = _PAIR_BATCH
    if width > 1:
        budget = max(1, min(budget, total // (width * _CHUNKS_PER_WORKER)))
    ends = np.cumsum(counts)
    ranges = []
    start, done = 0, 0
    while start < counts.size:
        stop = int(np.searchsorted(ends, done + budget, side="right"))
        stop = max(stop, start + 1)
        ranges.append((start, stop))
        start, done = stop, int(ends[stop - 1])
    if len(ranges) < 2:
        width = 1
    return PairJoinPlan(width, tuple(ranges))


class _SubsetIndex(NamedTuple):
    """One level's parents grouped by their shared ``(L-2)``-subsets.

    A parent key of ``w = L-1`` columns has ``w`` *incidences*, one per
    dropped column: the subset of its other ``w - 1`` columns.  The
    ``n * w`` incidences are sorted by subset, then by parent, and the flat
    arrays follow that order: *parents* and *dropped* give each
    incidence's parent row and dropped column, and *later* counts the
    members of its group after it — its partners.  *position* (``n x w``)
    maps each parent's incidences to their sorted positions, and
    *row_pairs* is each parent's exact number of partners as the left
    element, identical parents included.
    """

    parents: np.ndarray
    dropped: np.ndarray
    later: np.ndarray
    position: np.ndarray
    row_pairs: np.ndarray


def _subset_index(keys: np.ndarray, num_cols: int) -> _SubsetIndex:
    """Sort the parents' ``(subset, parent, dropped column)`` incidences.

    Subsets pack into mixed-radix ``int64`` labels
    (:func:`~repro.linalg.pack_rows_mixed_radix`); when ``num_cols^(L-2)``
    overflows, ``np.unique`` row labels stand in.  Incidences are numbered
    parent-major, so a stable sort by label keeps every group's parents
    ascending.  At level 2 every subset is empty and one group holds all
    parents in row order.
    """
    num_parents, width = keys.shape
    count = num_parents * width
    subsets = np.stack(
        [np.delete(keys, column, axis=1) for column in range(width)], axis=1
    ).reshape(count, width - 1)
    labels = pack_rows_mixed_radix(subsets, num_cols)
    if labels is None:
        labels = np.unique(subsets, axis=0, return_inverse=True)[1].ravel()
    order = np.argsort(labels, kind="stable")
    labels = labels[order]
    firsts = np.flatnonzero(
        np.concatenate(([True], labels[1:] != labels[:-1]))
    )
    sizes = np.diff(np.append(firsts, count))
    later = np.repeat(firsts + sizes, sizes) - np.arange(count) - 1
    position = np.empty(count, dtype=np.int64)
    position[order] = np.arange(count)
    position = position.reshape(num_parents, width)
    return _SubsetIndex(
        parents=order // width,
        dropped=keys.ravel()[order],
        later=later,
        position=position,
        row_pairs=later[position].sum(axis=1),
    )


def _subset_pairs(
    index: _SubsetIndex, start: int, stop: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The Gram join's pairs ``(i, j)`` with ``start <= i < stop``.

    Returns ``(left, right, left_dropped, right_dropped)``: every pair of
    distinct parents sharing a subset, with the column each one dropped
    from it.  Each left row's partners are the later members of its
    groups, one contiguous run of sorted positions per incidence; a pair
    whose dropped columns are equal joins identical parents and is
    dropped.  Pairs come grouped by left row ascending, and within a row
    by subset group (:func:`_row_major` sorts them fully).
    """
    first = index.position[start:stop].ravel()
    counts = index.later[first]
    total = int(counts.sum())
    run_starts = np.cumsum(counts) - counts
    partner = np.repeat(first + 1 - run_starts, counts) + np.arange(total)
    left = np.repeat(
        np.arange(start, stop, dtype=np.int64), index.row_pairs[start:stop]
    )
    right = index.parents[partner]
    left_dropped = np.repeat(index.dropped[first], counts)
    right_dropped = index.dropped[partner]
    distinct = left_dropped != right_dropped
    if distinct.all():
        return left, right, left_dropped, right_dropped
    return (
        left[distinct], right[distinct],
        left_dropped[distinct], right_dropped[distinct],
    )


def _row_major(
    num_parents: int, left: np.ndarray, right: np.ndarray, *arrays: np.ndarray
):
    """Reorder pairs, and *arrays* alike, by ``(left, right)``.

    That is the Gram join's order.  Each pair appears once, so the ids
    ``left * num_parents + right`` are unique and a non-stable sort orders
    them exactly.
    """
    order = np.argsort(left * num_parents + right)
    return (left[order], right[order], *(array[order] for array in arrays))


@dataclass
class _ChunkResult:
    """Compact output of one pure chunk task (counters + reduced arrays).

    With deduplication on, *keys* are chunk-locally unique, the bounds are
    chunk-local group minima, and *parent_groups*/*parent_ids* list the
    locally distinct
    ``(group, parent)`` incidences feeding the global distinct-parent
    count.  With deduplication off, the arrays are the raw surviving pairs
    in join order, the incidence arrays are ``None``, and *score_ub* holds
    the surviving pairs' bounds when score pruning is on: each pair is its
    own candidate then, so its bound is final.  *survivors* counts
    surviving pairs before local dedup (feeds ``candidates_before_dedup``
    exactly).
    """

    pairs_generated: int
    invalid_feature_pairs: int
    pruned_by_score_pairs: int
    survivors: int
    keys: np.ndarray
    size_ub: np.ndarray
    error_ub: np.ndarray
    max_error_ub: np.ndarray
    parent_groups: np.ndarray | None
    parent_ids: np.ndarray | None
    score_ub: np.ndarray | None = None


def _empty_chunk_result(generated: int, invalid: int, pruned: int, level: int):
    zero_keys = np.empty((0, level), dtype=np.int64)
    zero_f = np.empty(0, dtype=np.float64)
    return _ChunkResult(
        generated, invalid, pruned, 0,
        zero_keys, zero_f, zero_f, zero_f, None, None,
    )


def _process_pair_chunk(
    index: _SubsetIndex,
    key_columns: np.ndarray,
    parent_ok: np.ndarray | None,
    start: int,
    stop: int,
    level: int,
    feature_map: np.ndarray,
    parent_sizes: np.ndarray,
    parent_errors: np.ndarray,
    parent_max_errors: np.ndarray,
    num_rows: int,
    total_error: float,
    sigma: int,
    alpha: float,
    topk_min_score: float,
    by_score: bool,
    deduplicate: bool,
    num_cols: int,
) -> _ChunkResult:
    """Steps 2-6 for one left-row range — pure, no shared mutable state.

    Reads only the broadcast inputs (subset index, the parents' key
    columns and validity, parent stats, pruning constants) and returns one
    :class:`_ChunkResult`; all counter/tracer recording happens on the
    driver after the chunk map, so any thread may run this.  *parent_ok*
    is ``None`` when every parent is feature-valid.  Validity and the
    pair-level bounds need only the two parents, so keys are merged for
    the surviving pairs alone.  The chunk's pairs go through in one pass:
    the plan caps a chunk at :data:`_PAIR_BATCH` pairs unless one left row
    has more, and :func:`_subset_pairs` has built that row's arrays whole.
    """
    rows, cols, rows_dropped, cols_dropped = _subset_pairs(index, start, stop)
    if not deduplicate and level > 2:
        # Each surviving pair becomes a candidate in pair order.
        rows, cols, rows_dropped, cols_dropped = _row_major(
            parent_sizes.shape[0], rows, cols, rows_dropped, cols_dropped
        )
    generated = int(rows.size)
    # The union of valid parents is valid exactly when their two dropped
    # columns' features differ (step 4 of the module doc).
    feasible = feature_map[rows_dropped] != feature_map[cols_dropped]
    if parent_ok is not None:
        feasible &= parent_ok[rows] & parent_ok[cols]
    left, right, column = rows[feasible], cols[feasible], cols_dropped[feasible]
    invalid = generated - int(left.size)
    if left.size == 0:
        return _empty_chunk_result(generated, invalid, 0, level)
    size_ub = np.minimum(parent_sizes[left], parent_sizes[right])
    error_ub = np.minimum(parent_errors[left], parent_errors[right])
    max_error_ub = np.minimum(parent_max_errors[left], parent_max_errors[right])
    pruned = 0
    score_ub = None
    if by_score:
        # The pair-level bound already upper-bounds the slice score;
        # dropping failing pairs here keeps memory proportional to
        # surviving candidates.  Any dedup group containing a failing
        # pair has an even lower group bound, so the group-level
        # pruning downstream remains exact.
        sc_ub = score_upper_bound(
            size_ub, error_ub, max_error_ub,
            num_rows, total_error, sigma, alpha,
        )
        passing = (sc_ub > topk_min_score) & (sc_ub >= 0.0)
        pruned = int(passing.size - np.count_nonzero(passing))
        left, right, column, size_ub, error_ub, max_error_ub = (
            part[passing]
            for part in (left, right, column, size_ub, error_ub, max_error_ub)
        )
        if left.size == 0:
            return _empty_chunk_result(generated, invalid, pruned, level)
        if not deduplicate:
            score_ub = sc_ub[passing]
    survivors = int(left.size)
    keys = _insert_column(key_columns, left, column)
    if not deduplicate:
        return _ChunkResult(
            generated, invalid, pruned, survivors,
            keys, size_ub, error_ub, max_error_ub, None, None, score_ub,
        )
    # Chunk-local dedup: shrink this chunk's pairs to locally unique keys
    # with folded group minima before the driver's global dedup ever sees
    # them — the within-chunk duplicate factor never hits the global sort.
    unique_keys, first_index, group = _dedup_keys(keys, num_cols)
    num_groups = int(first_index.size)
    parent_groups, parent_ids = _distinct_parent_incidences(
        group, left, right, int(parent_sizes.shape[0])
    )
    return _ChunkResult(
        generated, invalid, pruned, survivors,
        unique_keys,
        _group_min(size_ub, group, num_groups),
        _group_min(error_ub, group, num_groups),
        _group_min(max_error_ub, group, num_groups),
        parent_groups,
        parent_ids,
    )


def get_pair_candidates(
    slices: np.ndarray,
    stats: np.ndarray,
    level: int,
    *,
    num_rows: int,
    total_error: float,
    sigma: int,
    alpha: float,
    topk_min_score: float,
    feature_map: np.ndarray,
    pruning: PruningConfig | None = None,
    level_stats: LevelCounters | None = None,
    tracer=NULL_TRACER,
    workspace=None,
) -> PairCandidates:
    """Generate deduplicated, pruned candidate slices for *level*.

    *slices* are the keys (``num_parents x (L-1)``, rows ascending) of the
    evaluated level ``L-1`` slices and *stats* their ``R`` matrix, in the
    projected one-hot space; *feature_map* maps each projected column to
    its original feature index (non-decreasing), so its length is the
    projected width.
    *topk_min_score* is the score of the current K-th best slice (0.0 while
    the top-K is not yet full), a monotonically increasing lower bound for
    score pruning.

    Returns a :class:`PairCandidates`: the candidates' keys for level ``L``
    (``num_candidates x L``, possibly with zero rows), their upper-bound
    scores ``ceil(sc)`` (``None`` when score pruning is disabled) — the
    driver uses them for priority evaluation — and the parents' minima of
    ``se`` and ``sm`` those bounds were computed from.  When *level_stats*
    is given, per-step counters are recorded into it; when *tracer* is
    given, the join, deduplication, and pruning steps report spans into it.

    Only the candidates and their bounds leave this function: evaluation
    recomputes every candidate's indicator from ``X`` alone (Eq. 10), so
    which parent pair generated a candidate is not returned.

    *workspace* controls execution only, never results: join chunks map
    over its pool, planned for its ``num_threads`` (the cost model still
    runs small levels serially).  Without a workspace the level plans and
    runs serially.
    """
    pruning = pruning or PruningConfig()
    recorder = level_stats or LevelCounters(level=level)
    num_cols = int(feature_map.shape[0])
    no_bounds = np.empty(0, dtype=np.float64)
    empty = PairCandidates(
        np.empty((0, level), dtype=np.int64), None, no_bounds, no_bounds
    )
    recorder.input_slices += int(slices.shape[0])

    # -- step 1: prune invalid input slices ---------------------------------
    if pruning.filter_input_slices:
        keep = valid_rows(stats, sigma)
        if pruning.by_score:
            # A parent's own bound also bounds every one of its children
            # (child bounds are minima over parents), so parents that cannot
            # beat the current top-K cannot yield useful children either.
            # Filtering them here shrinks the O(n^2) join quadratically.
            parent_bound = score_upper_bound(
                stats[:, StatsCol.SIZE],
                stats[:, StatsCol.ERROR],
                stats[:, StatsCol.MAX_ERROR],
                num_rows,
                total_error,
                sigma,
                alpha,
            )
            keep &= (parent_bound > topk_min_score) & (parent_bound >= 0.0)
        recorder.input_filtered += int(keep.size - np.count_nonzero(keep))
        slices = slices[keep]
        stats = stats[keep]
    if slices.shape[0] < 2:
        return empty

    # -- steps 2-6 (chunk-local): join, validity, merge, prune, local dedup --
    # Without a workspace there is no pool to map the chunks over.
    width = 1 if workspace is None else workspace.num_threads
    # Level 2 over parents whose single columns ascend strictly (basic
    # slices) emits unique sorted keys, so dedup is skipped: see step 6.
    deduplicate = pruning.deduplicate and not (
        level == 2 and bool(np.all(slices[1:, 0] > slices[:-1, 0]))
    )
    parent_sizes = stats[:, StatsCol.SIZE]
    parent_errors = stats[:, StatsCol.ERROR]
    parent_max_errors = stats[:, StatsCol.MAX_ERROR]

    join_started = time.perf_counter()
    with tracer.span("pairs.join", parents=slices.shape[0]) as join_span:
        index = _subset_index(slices, num_cols)
        plan = choose_pair_plan(index.row_pairs, width)
        key_columns = np.ascontiguousarray(slices.T)
        parent_ok = _feature_valid(slices, feature_map)
        if parent_ok.all():
            parent_ok = None
        join_span.annotate(
            chunks=plan.num_chunks,
            parallelism=plan.parallelism,
            planned_pairs=int(index.row_pairs.sum()),
        )

        def run_chunk(row_range: tuple[int, int]) -> _ChunkResult:
            return _process_pair_chunk(
                index, key_columns, parent_ok, row_range[0], row_range[1], level,
                feature_map, parent_sizes, parent_errors, parent_max_errors,
                num_rows, total_error, sigma, alpha, topk_min_score,
                pruning.by_score, deduplicate, num_cols,
            )

        if plan.parallelism > 1:
            chunk_results = workspace.map(run_chunk, plan.ranges)
        else:
            chunk_results = [run_chunk(row_range) for row_range in plan.ranges]
        for chunk in chunk_results:
            recorder.pairs_generated += chunk.pairs_generated
            recorder.invalid_feature_pairs += chunk.invalid_feature_pairs
            recorder.pruned_by_score_pairs += chunk.pruned_by_score_pairs
        join_span.annotate(pairs=recorder.pairs_generated)
    recorder.join_chunks += plan.num_chunks
    recorder.join_parallelism += plan.parallelism
    recorder.join_seconds += time.perf_counter() - join_started

    chunk_results = [chunk for chunk in chunk_results if chunk.survivors]
    if not chunk_results:
        return empty
    survivors = sum(chunk.survivors for chunk in chunk_results)
    recorder.candidates_before_dedup += survivors

    # -- step 6 (global): merge chunk results, dedup the shrunk keys ----------
    dedup_started = time.perf_counter()
    with tracer.span("pairs.dedup", pairs=survivors) as dedup_span:
        keys, size_ub, error_ub, max_error_ub, score_ub = (
            _concatenated(chunk_results, name)
            for name in ("keys", "size_ub", "error_ub", "max_error_ub", "score_ub")
        )
        if deduplicate:
            unique_keys, first_index, group = _dedup_keys(keys, num_cols)
            num_groups = int(first_index.size)
            grouped_size_ub = _group_min(size_ub, group, num_groups)
            grouped_error_ub = _group_min(error_ub, group, num_groups)
            grouped_max_error_ub = _group_min(max_error_ub, group, num_groups)
            num_parents = _fold_parent_counts(
                chunk_results, group, num_groups, int(parent_sizes.shape[0])
            )
        else:
            unique_keys = keys
            num_groups = int(keys.shape[0])
            grouped_size_ub = size_ub
            grouped_error_ub = error_ub
            grouped_max_error_ub = max_error_ub
            num_parents = np.full(num_groups, 2, dtype=np.int64)
        recorder.deduplicated += num_groups
        dedup_span.annotate(distinct=num_groups)
    recorder.dedup_seconds += time.perf_counter() - dedup_started

    # -- step 7: pruning per Equation 9 ---------------------------------------
    prune_started = time.perf_counter()
    with tracer.span("pairs.prune", candidates=num_groups) as prune_span:
        keep_mask = np.ones(num_groups, dtype=bool)
        if pruning.by_size:
            size_ok = grouped_size_ub >= sigma
            recorder.pruned_by_size += int(np.count_nonzero(keep_mask & ~size_ok))
            keep_mask &= size_ok
        if pruning.handle_missing_parents:
            parents_ok = num_parents == level
            recorder.pruned_by_parents += int(
                np.count_nonzero(keep_mask & ~parents_ok)
            )
            keep_mask &= parents_ok
        bounds: np.ndarray | None = None
        if pruning.by_score:
            # Without dedup every candidate is one surviving pair, whose
            # bound its chunk already computed from these very minima.
            sc_ub = score_ub if not deduplicate else score_upper_bound(
                grouped_size_ub,
                grouped_error_ub,
                grouped_max_error_ub,
                num_rows,
                total_error,
                sigma,
                alpha,
            )
            score_ok = (sc_ub > topk_min_score) & (sc_ub >= 0.0)
            recorder.pruned_by_score_groups += int(
                np.count_nonzero(keep_mask & ~score_ok)
            )
            keep_mask &= score_ok
            bounds = sc_ub

        kept = np.flatnonzero(keep_mask)
        prune_span.annotate(kept=int(kept.size))
    recorder.prune_seconds += time.perf_counter() - prune_started
    if kept.size == 0:
        return empty
    recorder.candidates_emitted += int(kept.size)
    recorder.candidates_nnz += int(kept.size) * level
    keys_started = time.perf_counter()
    candidates = PairCandidates(
        unique_keys[kept],
        bounds[kept] if bounds is not None else None,
        grouped_error_ub[kept],
        grouped_max_error_ub[kept],
    )
    recorder.keys_seconds += time.perf_counter() - keys_started
    return candidates


def _insert_column(
    key_columns: np.ndarray, left: np.ndarray, column: np.ndarray
) -> np.ndarray:
    """Parent key rows *left* with *column* inserted in ascending place.

    *key_columns* is the parents' key array transposed (one contiguous row
    per key column), which makes each column gather a 1-D take.  Each
    inserted column is absent from its row (it is the partner's dropped
    column), so one insertion pass from the right merges it: every key
    column keeps the larger of itself and the carried value in its slot
    one to the right, and carries the smaller on.  At level 2 this is a
    min/max.
    """
    width = key_columns.shape[0]
    merged = np.empty((left.size, width + 1), dtype=np.int64)
    carry = column
    for position in range(width - 1, -1, -1):
        key_column = key_columns[position][left]
        merged[:, position + 1] = np.maximum(key_column, carry)
        carry = np.minimum(key_column, carry)
    merged[:, 0] = carry
    return merged


def _feature_valid(keys: np.ndarray, feature_map: np.ndarray) -> np.ndarray:
    """Rows whose ``L`` columns touch ``L`` distinct original features.

    One-hot columns of the same feature are contiguous, so in the sorted key
    rows two predicates on one feature are adjacent — an adjacent-difference
    check replaces the paper's per-feature ``rowSums`` scan.
    """
    if keys.shape[1] == 1:
        return np.ones(keys.shape[0], dtype=bool)
    feats = feature_map[keys]
    return np.all(feats[:, 1:] != feats[:, :-1], axis=1)


def _dedup_keys(
    keys: np.ndarray, num_cols: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``np.unique`` of the key rows via scalar slice IDs when they fit.

    Packing each sorted ``L``-column key into one mixed-radix ``int64``
    (the paper's ND-array slice ID with base ``m'``) turns the expensive
    ``np.unique(axis=0)`` row sort into a plain 1-D sort.  The packing is a
    strictly monotone bijection w.r.t. lexicographic row order, and both
    paths use a stable sort for ``return_index``, so the returned
    ``(unique_keys, first_index, group)`` triple is identical either way;
    when ``m'^L`` overflows ``int64`` the row-wise path is the fallback.
    """
    packed = pack_rows_mixed_radix(keys, num_cols)
    if packed is not None:
        _, first_index, group = np.unique(
            packed, return_index=True, return_inverse=True
        )
        return keys[first_index], first_index, group.ravel()
    unique_keys, first_index, group = np.unique(
        keys, axis=0, return_index=True, return_inverse=True
    )
    return unique_keys, first_index, group.ravel()


def _group_min(values: np.ndarray, group: np.ndarray, num_groups: int) -> np.ndarray:
    """Per-group minimum (the paper's reciprocal-rowMaxs trick, done directly)."""
    result = np.full(num_groups, np.inf, dtype=np.float64)
    np.minimum.at(result, group, values)
    return result


def _concatenated(chunk_results: list[_ChunkResult], name: str):
    """One field of every chunk result, joined (no copy for a single chunk)."""
    parts = [getattr(chunk, name) for chunk in chunk_results]
    if parts[0] is None:
        return None
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _distinct_parent_incidences(
    group: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
    num_parents_total: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Locally distinct ``(group, parent)`` incidence pairs, sorted.

    Packs each incidence into one ``int64`` (``group * P + parent`` with
    ``P`` the parent-universe size) so a plain 1-D unique replaces the
    structured row sort of ``np.unique(axis=0)`` — the former single
    hottest operation of the whole enumeration.  Falls back to the row
    sort when the packed range would overflow ``int64``.
    """
    num_groups = int(group.max()) + 1 if group.size else 0
    if num_parents_total >= 1 and num_groups * num_parents_total <= _INT64_MAX:
        packed = unique_sorted(
            np.concatenate(
                [
                    group * num_parents_total + left,
                    group * num_parents_total + right,
                ]
            )
        )
        return packed // num_parents_total, packed % num_parents_total
    pairs = np.concatenate(
        [
            np.stack([group, left], axis=1),
            np.stack([group, right], axis=1),
        ]
    )
    unique_pairs = np.unique(pairs, axis=0)
    return (
        unique_pairs[:, 0].astype(np.int64, copy=False),
        unique_pairs[:, 1].astype(np.int64, copy=False),
    )


def _fold_parent_counts(
    chunk_results: list[_ChunkResult],
    group: np.ndarray,
    num_groups: int,
    num_parents_total: int,
) -> np.ndarray:
    """Distinct surviving parents per global dedup group (``np`` of Eq. 9).

    Implements ``np = rowSums((M (P1 + P2)) != 0)`` by set union: each
    chunk contributes its locally distinct ``(local group, parent)``
    incidences; remapping local groups through the global dedup's inverse
    labels (*group* is aligned with the concatenated chunk keys) and
    deduplicating once more counts every distinct ``(candidate, parent)``
    incidence exactly once — distinct-over-union equals global distinct.
    """
    global_groups: list[np.ndarray] = []
    parent_ids: list[np.ndarray] = []
    offset = 0
    for chunk in chunk_results:
        if chunk.parent_groups is not None and chunk.parent_groups.size:
            global_groups.append(group[offset + chunk.parent_groups])
            parent_ids.append(chunk.parent_ids)
        offset += int(chunk.keys.shape[0])
    if not global_groups:
        return np.zeros(num_groups, dtype=np.int64)
    groups_arr = np.concatenate(global_groups)
    parents_arr = np.concatenate(parent_ids)
    if num_parents_total >= 1 and num_groups * num_parents_total <= _INT64_MAX:
        packed = unique_sorted(groups_arr * num_parents_total + parents_arr)
        counted = packed // num_parents_total
    else:
        unique_pairs = np.unique(
            np.stack([groups_arr, parents_arr], axis=1), axis=0
        )
        counted = unique_pairs[:, 0]
    return np.bincount(counted, minlength=num_groups).astype(
        np.int64, copy=False
    )


__all__ = [
    "PairJoinPlan",
    "choose_pair_plan",
    "get_pair_candidates",
]
