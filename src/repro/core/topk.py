"""Top-K maintenance (Section 4.5).

Once per lattice level, the newly evaluated slices are filtered by validity
(``sc > 0`` and ``|S| >= sigma``), concatenated with the current top-K, and
the best K are kept, sorted by descending score.  Ties are broken by larger
size, then larger error, and finally — for slices whose three statistics are
all exactly equal — by the lexicographic order of their predicate columns,
so the selected set and its order are a pure function of the candidate
*set*, independent of arrival order (evaluation chunking, thread count,
executor strategy, or warm-start seeding).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.core.types import StatsCol, empty_stats
from repro.linalg import keys_to_csr, vstack_rows


def empty_topk(num_columns: int) -> tuple[sp.csr_matrix, np.ndarray]:
    """An empty ``(TS, TR)`` pair in a one-hot space of *num_columns*."""
    return sp.csr_matrix((0, num_columns), dtype=np.float64), empty_stats(0)


def maintain_topk(
    slices: np.ndarray,
    stats: np.ndarray,
    top_slices: sp.csr_matrix,
    top_stats: np.ndarray,
    k: int,
    sigma: int,
) -> tuple[sp.csr_matrix, np.ndarray]:
    """Merge newly scored *slices* into the running top-K.

    *slices* is one level's key array (``num_slices x L`` sorted projected
    column ids); the running top-K ``TS`` mixes levels, so it stays a CSR
    matrix of at most K rows, and only the valid new slices are converted
    to join it.  Returns the new ``(TS, TR)`` pair sorted by descending
    score.  Slices enumerated at different levels are necessarily distinct
    (they differ in predicate count), so no cross-level deduplication is
    needed.

    Once the top-K is full, a new slice that scores below its K-th score
    cannot enter (K held slices beat it strictly), so it is dropped before
    any merge work, and the held pair is returned as is when no new slice
    is left.  A slice that ties the K-th score stays: size, error and key
    break the tie.
    """
    num_cols = top_slices.shape[1]
    valid = (stats[:, StatsCol.SCORE] > 0) & (stats[:, StatsCol.SIZE] >= sigma)
    if top_stats.shape[0] >= k:
        valid &= stats[:, StatsCol.SCORE] >= top_stats[k - 1, StatsCol.SCORE]
        if top_stats.shape[0] == k and not valid.any():
            return top_slices, top_stats
    kept = np.flatnonzero(valid)
    if kept.size == 0 and top_slices.shape[0] == 0:
        return empty_topk(num_cols)

    candidates = vstack_rows(top_slices, keys_to_csr(slices[kept], num_cols))
    candidate_stats = np.vstack([top_stats, stats[kept]])

    def column_key(index: int) -> tuple[int, ...]:
        row = candidates.indices[
            candidates.indptr[index] : candidates.indptr[index + 1]
        ]
        return tuple(np.sort(row).tolist())

    order = np.lexsort(
        (
            -candidate_stats[:, StatsCol.ERROR],
            -candidate_stats[:, StatsCol.SIZE],
            -candidate_stats[:, StatsCol.SCORE],
        )
    )
    ranked = candidate_stats[order][
        :, [StatsCol.SCORE, StatsCol.SIZE, StatsCol.ERROR]
    ]
    changed = np.any(ranked[1:] != ranked[:-1], axis=1)
    boundaries = np.concatenate([np.flatnonzero(changed) + 1, [order.size]])

    # lexsort is stable, so slices whose (score, size, error) triples are
    # bitwise equal still sit in arrival order — which depends on how the
    # level was chunked/seeded.  Each run of exact ties is re-sorted by
    # predicate columns so the final order is canonical, but only when the
    # walk below reaches it: the walk stops at K distinct slices, and the
    # runs after that are never sorted.
    def canonical_order():
        start = 0
        for stop in boundaries:
            run = order[start:stop]
            yield from sorted(run, key=column_key) if run.size > 1 else run
            start = stop

    # Walk the canonical order keeping only *distinct* slices: with
    # deduplication disabled (the Figure 3 "none" arm) the same slice can
    # reach the top-K from several generating pairs, and Definition 2 asks
    # for K distinct slices.
    top: list[int] = []
    seen: set[tuple[int, ...]] = set()
    for index in canonical_order():
        key = column_key(index)
        if key in seen:
            continue
        seen.add(key)
        top.append(int(index))
        if len(top) == k:
            break
    return candidates[top], candidate_stats[top]


def topk_min_score(top_stats: np.ndarray, k: int) -> float:
    """The score-pruning threshold ``sc_k`` (Section 3.2).

    While fewer than K slices are known the threshold is 0.0 (every valid
    slice must beat a zero score anyway); afterwards it is the K-th best
    score, which only ever increases.
    """
    if top_stats.shape[0] < k:
        return 0.0
    return float(top_stats[k - 1, StatsCol.SCORE])
