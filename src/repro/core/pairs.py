"""Pair enumeration with pruning and deduplication (Section 4.3).

Candidates for lattice level ``L`` are built Apriori-style by joining
compatible level ``L-1`` slices:

1. *Input filtering* — drop parents violating ``ss >= sigma`` or ``se > 0``.
2. *Self-join* — pairs whose one-hot vectors overlap in exactly ``L-2``
   predicates (``upper.tri((S S^T) == L-2)``), streamed in chunks.
3. *Merge and bound* — union the predicate sets; carry
   ``min(parent sizes/errors/max-errors)`` as upper bounds.
4. *Feature validity* — discard merged slices assigning two values to one
   original feature.
5. *Early score pruning* — the pair-level bound (min over the two parents)
   already upper-bounds the slice score, so pairs that cannot beat the
   current top-K are dropped inside the streaming loop.  This keeps the
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
Steps 2-6 run as a *chunk-local pipeline*: the join's row range is split
into balanced chunks (:func:`choose_pair_plan`), each chunk is a pure task
— join, merge, validity, pair-level score pruning, then a chunk-local
deduplication with group-min bound folding — returning one compact
:class:`_ChunkResult`.  The driver merges chunk results in deterministic
chunk order and runs a final global dedup over the already-shrunk keys.
Chunk tasks share only read-only inputs, so they map over the
:class:`~repro.linalg.KernelWorkspace` thread pool when the cost model
elects parallel execution (SystemDS runs this join under ``parfor``,
paper Section 4.3).

Results are bitwise identical across any chunk grid and worker count:

* sorted unique keys do not depend on how pair rows were partitioned;
* float ``min`` is associative, so folding chunk-local group minima equals
  the global group minimum exactly (no rounding is involved);
* the distinct-parent count is a set-union cardinality (associative);
* every counter is an integer sum over disjoint pair subsets.

The pre-pipeline implementation is preserved verbatim as
:func:`reference_pair_candidates` — the differential oracle for the test
suite and the baseline for ``benchmarks/bench_pairs.py``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.core.config import PruningConfig
from repro.core.scoring import score_upper_bound
from repro.core.types import StatsCol
from repro.linalg import (
    cell_bounded_partitions,
    pack_rows_mixed_radix,
    unique_sorted,
    upper_tri_pairs_in_range,
)
from repro.linalg import ops as _ops
from repro.obs import NULL_TRACER, LevelCounters

#: pairs processed per streaming step (bounds peak memory of the merge)
_PAIR_BATCH = 1 << 20

#: chunks below this many join rows are not worth a task dispatch
_MIN_CHUNK_ROWS = 128

#: estimated join work (Gram-product multiply-adds) below which the whole
#: level runs serially — thread dispatch would dominate the arithmetic
_MIN_PARALLEL_OPS = 1 << 22

#: target task surplus per worker so uneven chunks still balance
_CHUNKS_PER_WORKER = 4

#: op-equivalents one generated pair costs downstream of the Gram product
#: (merge sort, validity scan, bound minima, score bound, local dedup) —
#: pair volume, not the sparse multiply, dominates wide levels
_OPS_PER_PAIR = 32

_INT64_MAX = np.iinfo(np.int64).max


@dataclass(frozen=True)
class PairJoinPlan:
    """Execution plan for one level's pair join (cost-model output).

    *parallelism* is the worker width the chunk map should run at (``1``
    means serial execution on the driver thread); *ranges* are the
    contiguous ``(start, stop)`` join-row ranges, one chunk task each.
    The plan never affects results — only how the identical work is cut.
    """

    parallelism: int
    ranges: tuple[tuple[int, int], ...]

    @property
    def num_chunks(self) -> int:
        return len(self.ranges)


def choose_pair_plan(
    num_parents: int, nnz: int, pair_parallelism: int, level: int = 3
) -> PairJoinPlan:
    """Pick chunk grid and serial-vs-parallel execution for the pair join.

    Mirrors :func:`repro.linalg.choose_backend`: a cheap closed-form cost
    model, not a tuner.  Estimated work is the sparse Gram product (about
    ``nnz^2 / num_parents`` multiply-adds) plus :data:`_OPS_PER_PAIR`
    op-equivalents per expected pair — Gram stored entries bound the pair
    count at ``overlap >= 1``, but level 2 joins on ``overlap == 0``
    where *disjoint* parents match, so its expected pair volume is
    quadratic in the parents regardless of ``nnz``.  Levels below
    :data:`_MIN_PARALLEL_OPS` estimated ops (or with fewer join rows than
    two minimum chunks) run serially because pool dispatch would cost
    more than it saves.  Parallel plans cut :data:`_CHUNKS_PER_WORKER`
    chunks per worker (bounded by the per-chunk dense-footprint budget
    shared with :func:`~repro.linalg.iter_upper_tri_pair_chunks`) so
    stragglers rebalance; serial plans keep the footprint-bounded grid
    only.
    """
    join_rows = num_parents - 1  # the last row is never a left element
    if join_rows <= 0:
        return PairJoinPlan(1, ())
    width = max(int(pair_parallelism), 1)
    gram_ops = (nnz * nnz) // max(num_parents, 1)
    if level == 2:
        est_pairs = (join_rows * num_parents) // 2
    else:
        est_pairs = gram_ops
    est_ops = gram_ops + est_pairs * _OPS_PER_PAIR
    if width > 1 and (
        est_ops < _MIN_PARALLEL_OPS or join_rows < 2 * _MIN_CHUNK_ROWS
    ):
        width = 1
    min_parts = 1
    if width > 1:
        min_parts = min(
            width * _CHUNKS_PER_WORKER, max(join_rows // _MIN_CHUNK_ROWS, 1)
        )
    ranges = cell_bounded_partitions(
        join_rows, num_parents, _ops._PAIR_CHUNK_CELLS, min_parts
    )
    if len(ranges) < 2:
        width = 1
    return PairJoinPlan(width, tuple(ranges))


class _PairAccumulator:
    """Collects surviving pair batches in geometrically grown buffers.

    The first appended batch is adopted by reference — the common case of a
    single surviving batch costs zero copies in :meth:`concatenated`.  From
    the second batch on, rows are written into preallocated buffers grown
    geometrically (doubling), so total copy work is ``O(final size)``
    instead of the former list-append + one big ``np.concatenate`` per
    array, which peaked at twice the final footprint and re-copied every
    batch at the end.
    """

    __slots__ = ("_adopted", "_arrays", "_size", "_capacity")

    def __init__(self) -> None:
        self._adopted: tuple[np.ndarray, ...] | None = None
        self._arrays: tuple[np.ndarray, ...] | None = None
        self._size = 0
        self._capacity = 0

    @property
    def empty(self) -> bool:
        return self._size == 0

    def append(self, keys, left, right, size_ub, error_ub, max_error_ub) -> None:
        batch = (keys, left, right, size_ub, error_ub, max_error_ub)
        count = int(left.shape[0])
        if count == 0:
            return
        if self._size == 0 and self._arrays is None:
            self._adopted = batch
            self._size = count
            return
        if self._adopted is not None:
            first, self._adopted = self._adopted, None
            first_count, self._size = self._size, 0
            self._reserve(first_count + count, first)
            self._write(first, first_count)
        self._reserve(self._size + count, batch)
        self._write(batch, count)

    def _write(self, batch: tuple[np.ndarray, ...], count: int) -> None:
        for buf, arr in zip(self._arrays, batch):
            buf[self._size : self._size + count] = arr
        self._size += count

    def _reserve(self, needed: int, template: tuple[np.ndarray, ...]) -> None:
        if self._arrays is None:
            capacity = max(needed, 1024)
            self._arrays = tuple(
                np.empty((capacity,) + arr.shape[1:], dtype=arr.dtype)
                for arr in template
            )
            self._capacity = capacity
        elif self._capacity < needed:
            capacity = max(needed, 2 * self._capacity)
            grown = []
            for buf in self._arrays:
                wider = np.empty((capacity,) + buf.shape[1:], dtype=buf.dtype)
                wider[: self._size] = buf[: self._size]
                grown.append(wider)
            self._arrays = tuple(grown)
            self._capacity = capacity

    def concatenated(self) -> tuple[np.ndarray, ...]:
        if self._adopted is not None:
            return self._adopted
        return tuple(buf[: self._size] for buf in self._arrays)


@dataclass
class _ChunkResult:
    """Compact output of one pure chunk task (counters + reduced arrays).

    With deduplication on, *keys* are chunk-locally unique, the bounds are
    chunk-local group minima, and *parent_groups*/*parent_ids* list the
    locally distinct
    ``(group, parent)`` incidences feeding the global distinct-parent
    count.  With deduplication off, the arrays are the raw surviving pairs
    in join order and the incidence arrays are ``None``.  *survivors*
    counts surviving pairs before local dedup (feeds
    ``candidates_before_dedup`` exactly).
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


def _empty_chunk_result(generated: int, invalid: int, pruned: int, level: int):
    zero_keys = np.empty((0, level), dtype=np.int64)
    zero_f = np.empty(0, dtype=np.float64)
    return _ChunkResult(
        generated, invalid, pruned, 0,
        zero_keys, zero_f, zero_f, zero_f, None, None,
    )


def _process_pair_chunk(
    s: sp.csr_matrix,
    st: sp.csc_matrix,
    key_rows: np.ndarray | None,
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
    """Steps 2-6 for one join-row range — pure, no shared mutable state.

    Reads only the broadcast inputs (slice matrix + transpose, dense parent
    key rows, parent stats, pruning constants) and returns one
    :class:`_ChunkResult`; all counter/tracer recording happens on the
    driver after the chunk map, so any thread may run this.
    """
    rows, cols = upper_tri_pairs_in_range(s, st, start, stop, float(level - 2))
    generated = int(rows.size)
    invalid = 0
    pruned = 0
    acc = _PairAccumulator()
    for batch_start in range(0, rows.size, _PAIR_BATCH):
        left = rows[batch_start : batch_start + _PAIR_BATCH]
        right = cols[batch_start : batch_start + _PAIR_BATCH]
        keys = _merge_keys(s, key_rows, left, right, level)
        feasible = _feature_valid(keys, feature_map)
        invalid += int(left.size - np.count_nonzero(feasible))
        if not feasible.any():
            continue
        left, right, keys = left[feasible], right[feasible], keys[feasible]
        size_ub = np.minimum(parent_sizes[left], parent_sizes[right])
        error_ub = np.minimum(parent_errors[left], parent_errors[right])
        max_error_ub = np.minimum(
            parent_max_errors[left], parent_max_errors[right]
        )
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
            pruned += int(passing.size - np.count_nonzero(passing))
            if not passing.any():
                continue
            left, right, keys = left[passing], right[passing], keys[passing]
            size_ub, error_ub, max_error_ub = (
                size_ub[passing], error_ub[passing], max_error_ub[passing],
            )
        acc.append(keys, left, right, size_ub, error_ub, max_error_ub)
    if acc.empty:
        return _empty_chunk_result(generated, invalid, pruned, level)
    keys, left, right, size_ub, error_ub, max_error_ub = acc.concatenated()
    survivors = int(keys.shape[0])
    if not deduplicate:
        return _ChunkResult(
            generated, invalid, pruned, survivors,
            keys, size_ub, error_ub, max_error_ub, None, None,
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
    slices: sp.csr_matrix,
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
    pair_parallelism: int = 1,
) -> tuple[sp.csr_matrix, np.ndarray | None]:
    """Generate deduplicated, pruned candidate slices for *level*.

    *slices*/*stats* are the evaluated slices of level ``L-1`` and their
    ``R`` matrix in the projected one-hot space; *feature_map* maps each
    projected column to its original feature index (non-decreasing).
    *topk_min_score* is the score of the current K-th best slice (0.0 while
    the top-K is not yet full), a monotonically increasing lower bound for
    score pruning.

    Returns the candidate slice matrix ``S`` for level ``L`` (possibly with
    zero rows) together with the per-candidate upper-bound scores
    ``ceil(sc)`` (``None`` when score pruning is disabled) — the driver uses
    them for priority evaluation.  When *level_stats* is given, per-step
    counters are recorded into it; when *tracer* is given, the join,
    deduplication, and pruning steps report spans into it.

    Only the candidates and their bounds leave this function: evaluation
    recomputes every candidate's indicator from ``X`` alone (Eq. 10), so
    which parent pair generated a candidate is not returned.

    *workspace* and *pair_parallelism* control execution only, never
    results: join chunks map over the workspace pool at the planned width
    (``pair_parallelism`` ``0`` follows the workspace's ``num_threads``,
    ``1`` forces serial, ``N`` requests ``N`` workers — the cost model may
    still fall back to serial for small levels).
    """
    pruning = pruning or PruningConfig()
    recorder = level_stats or LevelCounters(level=level)
    num_cols = slices.shape[1]
    empty = sp.csr_matrix((0, num_cols), dtype=np.float64)
    recorder.input_slices += int(slices.shape[0])

    # -- step 1: prune invalid input slices ---------------------------------
    if pruning.filter_input_slices:
        keep = (stats[:, StatsCol.SIZE] >= sigma) & (stats[:, StatsCol.ERROR] > 0)
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
        slices = slices[np.flatnonzero(keep)]
        stats = stats[keep]
    if slices.shape[0] < 2:
        return empty, None

    # -- steps 2-6 (chunk-local): join, merge, validity, prune, local dedup --
    if pair_parallelism < 1 and workspace is not None:
        pair_parallelism = int(getattr(workspace, "num_threads", 1))
    plan = choose_pair_plan(
        slices.shape[0], int(slices.nnz), pair_parallelism, level
    )
    s = slices.tocsr()
    s.sort_indices()
    st = s.T.tocsc()
    key_rows = _parent_key_rows(s, level)
    # Level 2 over parents whose single columns ascend strictly (basic
    # slices) emits unique sorted keys, so dedup is skipped: see step 6.
    deduplicate = pruning.deduplicate and not (
        level == 2
        and key_rows is not None
        and bool(np.all(key_rows[1:, 0] > key_rows[:-1, 0]))
    )
    parent_sizes = stats[:, StatsCol.SIZE]
    parent_errors = stats[:, StatsCol.ERROR]
    parent_max_errors = stats[:, StatsCol.MAX_ERROR]

    def run_chunk(row_range: tuple[int, int]) -> _ChunkResult:
        return _process_pair_chunk(
            s, st, key_rows, row_range[0], row_range[1], level, feature_map,
            parent_sizes, parent_errors, parent_max_errors,
            num_rows, total_error, sigma, alpha, topk_min_score,
            pruning.by_score, deduplicate, num_cols,
        )

    join_started = time.perf_counter()
    with tracer.span(
        "pairs.join",
        parents=slices.shape[0],
        chunks=plan.num_chunks,
        parallelism=plan.parallelism,
    ) as join_span:
        if workspace is not None and plan.parallelism > 1:
            chunk_results = workspace.map(
                run_chunk, plan.ranges, width=plan.parallelism
            )
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
        return empty, None
    survivors = sum(chunk.survivors for chunk in chunk_results)
    recorder.candidates_before_dedup += survivors

    # -- step 6 (global): merge chunk results, dedup the shrunk keys ----------
    dedup_started = time.perf_counter()
    with tracer.span("pairs.dedup", pairs=survivors) as dedup_span:
        if len(chunk_results) == 1:
            only = chunk_results[0]
            keys = only.keys
            size_ub, error_ub, max_error_ub = (
                only.size_ub, only.error_ub, only.max_error_ub,
            )
        else:
            keys = np.concatenate([chunk.keys for chunk in chunk_results])
            size_ub = np.concatenate([chunk.size_ub for chunk in chunk_results])
            error_ub = np.concatenate([chunk.error_ub for chunk in chunk_results])
            max_error_ub = np.concatenate(
                [chunk.max_error_ub for chunk in chunk_results]
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
            sc_ub = score_upper_bound(
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
        return empty, None
    recorder.candidates_emitted += int(kept.size)
    recorder.candidates_nnz += int(kept.size) * level
    keys_started = time.perf_counter()
    matrix = _keys_to_matrix(unique_keys[kept], level, num_cols)
    recorder.keys_seconds += time.perf_counter() - keys_started
    return matrix, bounds[kept] if bounds is not None else None


def reference_pair_candidates(
    slices: sp.csr_matrix,
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
) -> tuple[sp.csr_matrix, np.ndarray | None]:
    """The pre-pipeline (serial, globally deduplicating) implementation.

    Preserved verbatim as the differential oracle: it streams the join
    single-threadedly, merges via sparse row addition, deduplicates once
    globally, and counts distinct parents with a structured row sort —
    sharing no execution strategy with :func:`get_pair_candidates`, which
    must match it bitwise (matrix, bounds, and counters) in every
    configuration.  ``benchmarks/bench_pairs.py`` uses it as the speedup
    baseline.
    """
    pruning = pruning or PruningConfig()
    recorder = level_stats or LevelCounters(level=level)
    num_cols = slices.shape[1]
    empty = sp.csr_matrix((0, num_cols), dtype=np.float64)
    recorder.input_slices += int(slices.shape[0])

    if pruning.filter_input_slices:
        keep = (stats[:, StatsCol.SIZE] >= sigma) & (stats[:, StatsCol.ERROR] > 0)
        if pruning.by_score:
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
        slices = slices[np.flatnonzero(keep)]
        stats = stats[keep]
    if slices.shape[0] < 2:
        return empty, None

    collected: list[tuple[np.ndarray, ...]] = []
    parent_sizes = stats[:, StatsCol.SIZE]
    parent_errors = stats[:, StatsCol.ERROR]
    parent_max_errors = stats[:, StatsCol.MAX_ERROR]
    with tracer.span("pairs.join", parents=slices.shape[0]) as join_span:
        for rows, cols in _ops.iter_upper_tri_pair_chunks(
            slices, float(level - 2)
        ):
            for start in range(0, rows.size, _PAIR_BATCH):
                left = rows[start : start + _PAIR_BATCH]
                right = cols[start : start + _PAIR_BATCH]
                recorder.pairs_generated += int(left.size)
                keys = _merge_keys_sparse(slices, left, right, level)
                feasible = _feature_valid(keys, feature_map)
                recorder.invalid_feature_pairs += int(left.size - feasible.sum())
                if not feasible.any():
                    continue
                left, right, keys = left[feasible], right[feasible], keys[feasible]
                size_ub = np.minimum(parent_sizes[left], parent_sizes[right])
                error_ub = np.minimum(parent_errors[left], parent_errors[right])
                max_error_ub = np.minimum(
                    parent_max_errors[left], parent_max_errors[right]
                )
                if pruning.by_score:
                    sc_ub = score_upper_bound(
                        size_ub, error_ub, max_error_ub,
                        num_rows, total_error, sigma, alpha,
                    )
                    passing = (sc_ub > topk_min_score) & (sc_ub >= 0.0)
                    recorder.pruned_by_score_pairs += int(
                        passing.size - passing.sum()
                    )
                    if not passing.any():
                        continue
                    left, right, keys = (
                        left[passing], right[passing], keys[passing],
                    )
                    size_ub, error_ub, max_error_ub = (
                        size_ub[passing], error_ub[passing], max_error_ub[passing],
                    )
                collected.append(
                    (keys, left, right, size_ub, error_ub, max_error_ub)
                )
        join_span.annotate(pairs=recorder.pairs_generated)
    if not collected:
        return empty, None
    keys, left, right, size_ub, error_ub, max_error_ub = (
        np.concatenate([batch[part] for batch in collected])
        for part in range(6)
    )
    recorder.candidates_before_dedup += int(keys.shape[0])

    with tracer.span("pairs.dedup", pairs=int(keys.shape[0])) as dedup_span:
        if pruning.deduplicate:
            unique_keys, first_index, group = _dedup_keys(keys, num_cols)
            num_groups = int(first_index.size)
            grouped_size_ub = _group_min(size_ub, group, num_groups)
            grouped_error_ub = _group_min(error_ub, group, num_groups)
            grouped_max_error_ub = _group_min(max_error_ub, group, num_groups)
            num_parents = _distinct_parent_count_rowsort(
                group, num_groups, left, right
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
            sc_ub = score_upper_bound(
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
    if kept.size == 0:
        return empty, None
    recorder.candidates_emitted += int(kept.size)
    recorder.candidates_nnz += int(kept.size) * level
    return (
        _keys_to_matrix(unique_keys[kept], level, num_cols),
        bounds[kept] if bounds is not None else None,
    )


def _parent_key_rows(slices: sp.csr_matrix, level: int) -> np.ndarray | None:
    """Dense ``num_parents x (L-1)`` sorted-column-key matrix of the parents.

    Every evaluated level ``L-1`` slice has exactly ``L-1`` set columns, so
    the canonical CSR ``indices`` array reshapes directly.  Returns ``None``
    for non-uniform inputs (only reachable by direct callers feeding ad-hoc
    matrices) — the merge then falls back to the sparse row-addition path.
    """
    if level < 2 or slices.shape[0] == 0:
        return None
    if not np.all(np.diff(slices.indptr) == level - 1):
        return None
    return slices.indices.reshape(slices.shape[0], level - 1).astype(
        np.int64, copy=False
    )


def _merge_keys(
    s: sp.csr_matrix,
    key_rows: np.ndarray | None,
    left: np.ndarray,
    right: np.ndarray,
    level: int,
) -> np.ndarray:
    """Sorted column-index keys of the merged slices ``S[left] | S[right]``."""
    if key_rows is None:
        return _merge_keys_sparse(s, left, right, level)
    return _merge_keys_dense(key_rows, left, right, level)


def _merge_keys_dense(
    key_rows: np.ndarray, left: np.ndarray, right: np.ndarray, level: int
) -> np.ndarray:
    """Merged keys via a dense row-wise sort of both parents' key rows.

    Concatenating the two parents' sorted ``L-1``-column keys and sorting
    each ``2L-2``-wide row makes the ``L-2`` shared predicates adjacent;
    dropping adjacent duplicates leaves exactly the ``L`` distinct columns
    of the union, in ascending order — the same rows the sparse
    row-addition path produces, without materializing any sparse sum.
    """
    both = np.concatenate([key_rows[left], key_rows[right]], axis=1)
    both.sort(axis=1)
    distinct = np.empty(both.shape, dtype=bool)
    distinct[:, 0] = True
    np.not_equal(both[:, 1:], both[:, :-1], out=distinct[:, 1:])
    if int(np.count_nonzero(distinct)) != level * left.size:
        raise AssertionError(
            "pair merge invariant violated: unions must have exactly L columns"
        )
    return both[distinct].reshape(left.size, level)


def _merge_keys_sparse(
    slices: sp.csr_matrix, left: np.ndarray, right: np.ndarray, level: int
) -> np.ndarray:
    """Merged keys via sparse row addition (fallback for ad-hoc inputs).

    Joined parents overlap in exactly ``L-2`` predicates, so every union has
    exactly ``L`` set columns: the CSR ``indices`` array reshapes into a
    dense ``num_pairs x L`` key matrix (rows sorted ascending — CSR
    canonical form), the compact equivalent of the paper's mixed-radix IDs.
    """
    merged = (slices[left] + slices[right]).tocsr()
    merged.sum_duplicates()
    merged.sort_indices()
    if merged.nnz != level * left.size:
        raise AssertionError(
            "pair merge invariant violated: unions must have exactly L columns"
        )
    return merged.indices.reshape(left.size, level).astype(np.int64)


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


def _keys_to_matrix(keys: np.ndarray, level: int, num_cols: int) -> sp.csr_matrix:
    """Build the 0/1 candidate matrix from sorted column-index keys.

    Indices stay in the canonical ``int64`` index dtype: a downcast (the
    former ``astype(np.int32)``) silently wraps for one-hot spaces wider
    than ``2^31`` columns, which wide-domain feature crosses can reach.
    """
    num_slices = keys.shape[0]
    indptr = np.arange(0, num_slices * level + 1, level, dtype=np.int64)
    data = np.ones(num_slices * level, dtype=np.float64)
    return sp.csr_matrix(
        (data, keys.ravel().astype(np.int64, copy=False), indptr),
        shape=(num_slices, num_cols),
    )


def _group_min(values: np.ndarray, group: np.ndarray, num_groups: int) -> np.ndarray:
    """Per-group minimum (the paper's reciprocal-rowMaxs trick, done directly)."""
    result = np.full(num_groups, np.inf, dtype=np.float64)
    np.minimum.at(result, group, values)
    return result


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


def _distinct_parent_count_rowsort(
    group: np.ndarray, num_groups: int, left: np.ndarray, right: np.ndarray
) -> np.ndarray:
    """Number of distinct surviving parents per deduplicated candidate.

    The reference pipeline's structured-row-sort realization of
    ``np = rowSums((M (P1 + P2)) != 0)``: every pair contributes its two
    parents to its candidate's group; counting distinct parent ids per
    group yields ``np``, which must equal ``L`` for a fully supported
    candidate at level ``L``.
    """
    pairs = np.concatenate(
        [
            np.stack([group, left], axis=1),
            np.stack([group, right], axis=1),
        ]
    )
    unique_pairs = np.unique(pairs, axis=0)
    return np.bincount(unique_pairs[:, 0], minlength=num_groups).astype(np.int64)


__all__ = [
    "PairJoinPlan",
    "choose_pair_plan",
    "get_pair_candidates",
    "reference_pair_candidates",
]
