"""The Gram-join pair oracle: the pair stage as it was before its pipeline.

:func:`reference_pair_candidates` pairs parents with the paper's
``upper.tri((S S^T) == L-2)`` (Algorithm 1, Section 4.3), streams the join
single-threadedly, merges by sparse row addition and deduplicates once
globally.  :func:`repro.core.pairs.get_pair_candidates` must match it
bitwise in every configuration; ``tests/test_pairs_parallel.py`` asserts
that.  It shares no join code with the pipeline.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro._typing import Matrix
from repro.core.config import PruningConfig
from repro.core.pairs import _PAIR_BATCH, _dedup_keys, _feature_valid, _group_min
from repro.core.scoring import score_upper_bound
from repro.core.types import StatsCol
from repro.linalg import as_csr, keys_to_csr
from repro.obs import NULL_TRACER, LevelCounters

# Row-chunk budget (in matrix cells) for the chunked dense comparisons inside
# upper_tri_pairs; bounds peak memory at ~64 MiB of float64 per chunk.
_PAIR_CHUNK_CELLS = 8_000_000


def upper_tri_pairs_in_range(
    s: sp.csr_matrix,
    st: sp.csc_matrix,
    start: int,
    stop: int,
    overlap: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Matches ``(i, j)`` with ``start <= i < stop``, ``i < j``, dot == *overlap*.

    The per-row-range slice of the paper's
    ``upper.tri((S %*% t(S)) == (L-2))``: *s* is the canonical CSR slice
    matrix, *st* its CSC transpose (built once by the caller so every range
    shares it).  Concatenating the results in range order reproduces the
    full-scan row-major match order exactly.
    ``overlap == 0`` is handled correctly (implicit zeros of the sparse
    Gram matrix count as matches).
    """
    product = s[start:stop] @ st
    if overlap == 0:
        # Only the dense comparison sees the Gram matrix's implicit
        # zeros, which DO count as matches when overlap == 0 (two
        # fully disjoint slices have dot product 0 without a stored
        # entry).  Positive overlaps never need this: every stored
        # entry of the 0/1 Gram matrix is positive, so an implicit
        # zero cannot equal overlap >= 1.
        match = product.toarray() == overlap
        local_rows, cols = np.nonzero(match)
    else:
        product = product.tocsr()
        # Canonical CSR order makes the stored-entry scan emit matches
        # in the same row-major, column-ascending order as np.nonzero
        # on the dense comparison.
        product.sort_indices()
        mask = product.data == overlap
        local_rows = np.repeat(
            np.arange(product.shape[0], dtype=np.int64),
            np.diff(product.indptr),
        )[mask]
        cols = product.indices[mask].astype(np.int64, copy=False)
    # Keep strictly-upper-triangular entries: global row < column.
    global_rows = local_rows + start
    upper = cols > global_rows
    if not upper.any():
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    return (
        global_rows[upper].astype(np.int64, copy=False),
        cols[upper].astype(np.int64, copy=False),
    )


def iter_upper_tri_pair_chunks(slices: Matrix, overlap: float):
    """Yield ``(i, j)`` index-array chunks with ``i < j`` and dot product == *overlap*.

    Implements ``I = upper.tri((S %*% t(S)) == (L-2), values=TRUE)`` from the
    paper's pair-construction step without ever materializing the full
    ``nr x nr`` Gram matrix: rows are processed in chunks whose dense
    footprint stays below a fixed budget, and matches are yielded chunk by
    chunk so callers can stream them (the full match set can be huge on
    feature-rich data).  Each chunk is one :func:`upper_tri_pairs_in_range`
    call.  The reference pair oracle joins this way; the pair pipeline in
    :mod:`repro.core.pairs` pairs parents by shared ``(L-2)``-subsets
    instead, which yields the same pairs.
    """
    s = as_csr(slices)
    nr = s.shape[0]
    if nr < 2:
        return
    st = s.T.tocsc()
    chunk = max(1, _PAIR_CHUNK_CELLS // max(nr, 1))
    for start in range(0, nr - 1, chunk):
        stop = min(start + chunk, nr - 1)
        rows, cols = upper_tri_pairs_in_range(s, st, start, stop, overlap)
        if rows.size:
            yield rows, cols


def upper_tri_pairs(slices: Matrix, overlap: float) -> tuple[np.ndarray, np.ndarray]:
    """All row pairs ``(i, j)`` with ``i < j`` whose dot product equals *overlap*.

    Materialized convenience wrapper around
    :func:`iter_upper_tri_pair_chunks`; prefer the iterator when the match
    count may be large.
    """
    rows_out: list[np.ndarray] = []
    cols_out: list[np.ndarray] = []
    for rows, cols in iter_upper_tri_pair_chunks(slices, overlap):
        rows_out.append(rows)
        cols_out.append(cols)
    if not rows_out:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    return np.concatenate(rows_out), np.concatenate(cols_out)


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
) -> tuple[sp.csr_matrix, np.ndarray | None, np.ndarray, np.ndarray]:
    """The pre-pipeline (serial, globally deduplicating) implementation.

    Preserved as the differential oracle: it streams the join
    single-threadedly, merges via sparse row addition, deduplicates once
    globally, and counts distinct parents with a structured row sort —
    sharing no execution strategy with :func:`get_pair_candidates`, which
    must match it bitwise (matrix, bounds, parent minima, and counters) in
    every configuration.  It returns the fields of :class:`PairCandidates`,
    with the candidates as a CSR matrix.
    """
    pruning = pruning or PruningConfig()
    recorder = level_stats or LevelCounters(level=level)
    num_cols = slices.shape[1]
    no_bounds = np.empty(0, dtype=np.float64)
    empty = (
        sp.csr_matrix((0, num_cols), dtype=np.float64), None, no_bounds, no_bounds
    )
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
        return empty

    collected: list[tuple[np.ndarray, ...]] = []
    parent_sizes = stats[:, StatsCol.SIZE]
    parent_errors = stats[:, StatsCol.ERROR]
    parent_max_errors = stats[:, StatsCol.MAX_ERROR]
    with tracer.span("pairs.join", parents=slices.shape[0]) as join_span:
        for rows, cols in iter_upper_tri_pair_chunks(
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
        return empty
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
        return empty
    recorder.candidates_emitted += int(kept.size)
    recorder.candidates_nnz += int(kept.size) * level
    return (
        keys_to_csr(unique_keys[kept], num_cols),
        bounds[kept] if bounds is not None else None,
        grouped_error_ub[kept],
        grouped_max_error_ub[kept],
    )


def _merge_keys_sparse(
    slices: sp.csr_matrix, left: np.ndarray, right: np.ndarray, level: int
) -> np.ndarray:
    """Merged keys via sparse row addition (the reference pipeline's merge).

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
