"""The SliceLine enumeration driver (Algorithm 1) and estimator facade.

:func:`slice_line` is a faithful transcription of Algorithm 1: data
preparation (one-hot encoding), initialization (basic slices + initial
top-K), then level-wise lattice enumeration alternating pair generation
(with pruning/deduplication), vectorized evaluation, and top-K maintenance,
until no candidates remain or the level cap is hit.

:class:`SliceLine` wraps the function in a scikit-learn-style estimator for
interactive use (``fit`` / ``transform`` / fitted attributes).
"""

from __future__ import annotations

import dataclasses
import math
import time
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from repro.core.basic import create_and_score_basic_slices
from repro.core.compaction import CompactionState
from repro.core.config import PruningConfig, SliceLineConfig
from repro.core.decode import decode_topk, slice_membership
# evaluate_slice_set is not called here, but bench/layers.py wraps it by
# this module path, so the name stays importable from the driver.
from repro.core.evaluate import evaluate_slice_set  # noqa: F401
from repro.core.evaluate import SizeFirst, evaluate_slices
from repro.core.onehot import FeatureSpace, validate_encoded_matrix
from repro.core.pairs import get_pair_candidates
from repro.core.topk import empty_topk, maintain_topk, topk_min_score
from repro.core.types import (
    Slice,
    SliceLineResult,
    StatsCol,
    WarmStartInfo,
    valid_rows,
)
from repro.exceptions import (
    CheckpointError,
    EncodingError,
    InvalidErrorsError,
    ShapeError,
)
from repro.linalg import KernelState, KernelWorkspace, ensure_vector
from repro.obs import NULL_TRACER, CounterRegistry, Tracer, resolve_tracer
from repro.resilience.budgets import (
    BudgetConfig,
    BudgetTracker,
    SuspendHook,
    estimate_level_memory,
)
from repro.resilience.checkpoint import (
    CheckpointState,
    fingerprint_config,
    fingerprint_inputs,
    load_checkpoint,
    save_checkpoint,
    verify_checkpoint,
)


def slice_line(
    x0: np.ndarray,
    errors: np.ndarray,
    config: SliceLineConfig | None = None,
    feature_space: FeatureSpace | None = None,
    num_threads: int = 1,
    trace: bool | str | Tracer | None = None,
    seed_slices: Sequence[Slice] | None = None,
    budgets: BudgetConfig | None = None,
    checkpoint_dir: str | None = None,
    resume_from: str | None = None,
    suspend: "SuspendHook | None" = None,
) -> SliceLineResult:
    """Find the top-K problematic slices of an integer-encoded dataset.

    Parameters
    ----------
    x0:
        ``n x m`` feature matrix in 1-based contiguous integer encoding
        (use :mod:`repro.preprocessing` to recode/bin raw data).
    errors:
        Non-negative, row-aligned error vector ``e`` (e.g. squared loss for
        regression or 0/1 inaccuracy for classification; see
        :mod:`repro.ml.errors`).  When ``sum(e)`` overflows float64 or the
        mean error underflows below the smallest normal float, the search
        runs on ``e * 2**k`` with ``k = -frexp(max(e))[1]`` (the maximum
        lands in ``[0.5, 1)``; exact wherever the scaled values stay
        normal floats).  Scores do not depend on the error scale, so they
        are those of the scaled run; the result's error and max-error
        columns and ``average_error`` are scaled back to the caller's
        units, so a slice whose true error sum exceeds float64 reports an
        error of ``inf``.
    config:
        Algorithm parameters (top-K, sigma, alpha, level cap, block size,
        pruning toggles); defaults follow the paper.
    feature_space:
        Optional pre-built :class:`FeatureSpace` (e.g. carrying feature
        names); derived from *x0* when omitted.
    num_threads:
        Thread-pool width for blocked slice evaluation (1 = serial).
    trace:
        Observability switch: ``None``/``False`` (default) disables span
        recording at near-zero cost, ``True`` records a hierarchical trace
        of the search, ``"memory"`` additionally tracks the ``tracemalloc``
        allocation high-water mark per span, and an explicit
        :class:`~repro.obs.Tracer` lets several runs share one trace.
        Per-level pruning counters are collected regardless (they replace
        the former ad-hoc ``LevelStats`` bookkeeping) and are exported as
        ``result.counters``.
    seed_slices:
        Optional warm-start seeds — decoded :class:`Slice` objects from a
        previous, related run (e.g. the prior window of a
        :class:`~repro.streaming.SliceMonitor`).  Seeds are re-evaluated on
        *this* dataset and merged into the initial top-K before enumeration
        begins, which raises the score-pruning threshold earlier and skips
        lattice subtrees a cold run would still explore.  Because
        Equation-3 pruning is exact, the returned top-K is **identical** to
        an unseeded run; only the amount of evaluation work changes
        (``result.warm_start`` records seed accounting, and seed
        evaluations are deliberately kept out of the per-level counters so
        their flow-conservation identities stay intact).  Seeds outside the
        current feature space's domains are ignored.
    budgets:
        Optional anytime budgets (:class:`~repro.resilience.BudgetConfig`):
        a wall-clock deadline, a per-level candidate cap, and an estimated
        memory cap.  A tripped budget never raises — the run returns the
        exact top-K of everything evaluated so far with
        ``result.completed = False`` and ``result.budget_trip`` naming the
        budget, the level reached, and the measurement that fired.
    checkpoint_dir:
        When given, a ``repro.ckpt/v1`` bundle is written into this
        directory after every completed level (see
        :mod:`repro.resilience.checkpoint`), so a killed run can be resumed.
    resume_from:
        Path to a checkpoint bundle (or a checkpoint directory, whose
        deepest bundle is used) written by a previous run over the **same**
        ``(x0, errors, config)`` — enforced by content fingerprints.  The
        resumed run replays enumeration from the checkpointed level boundary
        and produces bitwise-identical top-K slices, statistics, and
        pruning counters to an uninterrupted run.  ``seed_slices`` are
        ignored on resume (their effect is already baked into the restored
        top-K).
    suspend:
        Optional cooperative :class:`~repro.resilience.SuspendHook`.  When
        another thread calls its ``request()``, the enumeration stops at
        the next level boundary and returns ``result.suspended = True``
        with the best-so-far top-K.  Combined with ``checkpoint_dir`` (the
        boundary checkpoint is written before the hook is checked), the
        suspended run can later be resumed via ``resume_from`` and
        completes bitwise-identically — this is how the serving scheduler
        preempts long batch jobs in favour of interactive ones.

    Returns
    -------
    SliceLineResult
        Decoded top-K slices, their statistics, and per-level enumeration
        statistics; ``result.trace`` carries the span tree when traced and
        ``result.to_obs_dict()`` serializes everything to JSON.
    """
    cfg = config or SliceLineConfig()
    tracer = resolve_tracer(trace)
    counters = CounterRegistry()
    x0 = validate_encoded_matrix(x0, allow_missing=True)
    num_rows, num_features = x0.shape
    errors = ensure_vector(errors, num_rows, "errors")
    if not np.isfinite(errors).all():
        bad = int(np.count_nonzero(~np.isfinite(errors)))
        raise InvalidErrorsError(
            f"errors must be finite: {bad} NaN/inf entries in e"
        )
    if (errors < 0).any():
        raise InvalidErrorsError(
            "errors must be non-negative (e >= 0 in the paper)"
        )

    space = feature_space or FeatureSpace.from_matrix(x0)
    if space.num_features != num_features:
        raise ShapeError("feature_space does not match X0")
    sigma = cfg.resolve_sigma(num_rows)
    max_level = cfg.resolve_max_level(num_features)
    with np.errstate(over="ignore"):
        # An overflowing sum reads inf and is handled below.
        total_error = float(errors.sum())
    average_error = total_error / num_rows

    started = time.perf_counter()
    tracker = (
        BudgetTracker(budgets, started=started)
        if budgets is not None and budgets.enabled
        else None
    )

    resume_state: CheckpointState | None = None
    if resume_from is not None:
        with tracer.span("checkpoint.load", path=resume_from):
            resume_state = load_checkpoint(resume_from)
            verify_checkpoint(resume_state, x0, errors, cfg)
        counters = resume_state.restore_counters()
    fingerprints: tuple[dict, dict] | None = None
    if checkpoint_dir is not None:
        # Hash once up front; every bundle this run writes reuses them.
        fingerprints = (fingerprint_inputs(x0, errors), fingerprint_config(cfg))

    # An inf error sum or a mean below the smallest normal float breaks
    # every score silently.  Scale the errors by an exact power of two that
    # brings their maximum into [0.5, 1); the fingerprints above keep the
    # caller's errors, and the result is scaled back at the end.
    scale = 0
    if total_error > 0 and (
        math.isinf(total_error) or average_error < np.finfo(np.float64).tiny
    ):
        scale = -math.frexp(float(errors.max()))[1]
        errors = np.ldexp(errors, scale)
        total_error = float(errors.sum())

    with tracer.span("encode", num_rows=num_rows, num_features=num_features):
        x_onehot = space.encode(x0)

    if total_error <= 0:
        # A perfect model has no problematic slices: every score is <= 0.
        return _empty_result(
            space, num_rows, x_onehot.shape[1], average_error,
            counters=counters, tracer=tracer, started=started,
        )

    # -- initialization: basic slices and initial top-K ----------------------
    level_started = time.perf_counter()
    with tracer.span("level1.basic", onehot_columns=x_onehot.shape[1]):
        basic = create_and_score_basic_slices(x_onehot, errors, sigma, cfg.alpha)
        top_slices, top_stats = maintain_topk(
            basic.slices, basic.stats, *empty_topk(basic.num_slices), cfg.k, sigma
        )
    if resume_state is None:
        current = counters.level(1)
        current.candidates_emitted = x_onehot.shape[1]
        current.evaluated = x_onehot.shape[1]
        current.valid = basic.num_slices
        current.indicator_nnz = int(x_onehot.nnz)
        current.elapsed_seconds = time.perf_counter() - level_started

    # Project X to the valid basic-slice columns (Algorithm 1 line 12): all
    # deeper slices are conjunctions of valid basic slices.
    x_projected = x_onehot[:, basic.selected_columns].tocsr()
    feature_map = np.searchsorted(
        space.ends, basic.selected_columns, side="right"
    ).astype(np.int64)
    if resume_state is not None and not np.array_equal(
        resume_state.selected_columns, basic.selected_columns
    ):
        raise CheckpointError(
            "checkpoint selected_columns do not match the re-derived basic "
            "pass; the bundle was written against different data"
        )

    # Unless disabled, one compaction state serves every level of this run.
    # A level's keys stay in the projected column space throughout; only the
    # data matrix the kernels multiply against shrinks, and each chunk's
    # keys are remapped just before its kernel call (repro.core.compaction).
    # On resume the state is rebuilt from the checkpointed row/column maps:
    # compaction composes per level, so the matrix is exactly
    # ``x_projected[row_indices][:, alive columns of col_map]``.
    compact: CompactionState | None = None
    if cfg.compaction:
        if resume_state is not None and resume_state.row_indices is not None:
            compact = _restore_compaction(
                resume_state, x_projected, errors, num_rows
            )
        else:
            compact = CompactionState.initial(x_projected, errors)
    if resume_state is None and compact is not None:
        current.rows_alive = compact.num_rows_alive
        current.cols_alive = compact.num_cols_alive

    # -- enumeration state: fresh from the basic pass, or the checkpoint -----
    warm_info: WarmStartInfo | None = None
    seed_keys: set[tuple[int, ...]] = set()
    if resume_state is not None:
        if resume_state.warm_info is not None:
            warm_info = WarmStartInfo(**resume_state.warm_info)
        seed_keys = {tuple(key) for key in resume_state.seed_keys}
        slices = resume_state.slices
        stats = resume_state.stats
        top_slices = resume_state.top_slices
        top_stats = resume_state.top_stats
        level = int(resume_state.level)
    else:
        slices, stats = basic.slices, basic.stats
        level = 1

    # One kernel workspace (persistent thread pool) serves seed evaluation
    # and every level; the context manager guarantees pool shutdown even
    # when a kernel or pair join raises mid-run.  One kernel state carries
    # the per-level backend decision and that level's packed column table.
    kernels = KernelState(cfg.kernel_backend)
    with KernelWorkspace(num_threads) as workspace:
        # -- optional warm start: merge re-scored seeds into the top-K -------
        if seed_slices is not None and resume_state is None:
            top_slices, top_stats, warm_info, seed_keys = _seed_topk(
                seed_slices, space, basic.selected_columns, x_projected,
                errors, cfg, sigma, max_level, num_rows, total_error,
                top_slices, top_stats, num_threads, tracer, kernels,
                workspace=workspace, compact=compact,
            )
        if checkpoint_dir is not None and resume_state is None:
            _write_checkpoint(
                checkpoint_dir, 1, slices, stats, top_slices, top_stats,
                counters, basic.selected_columns, fingerprints, compact,
                warm_info, seed_keys, tracer,
            )

        # -- level-wise lattice enumeration ----------------------------------
        suspended = False
        while slices.shape[0] > 0 and level < max_level:
            # Cooperative preemption lands exactly on a level boundary —
            # the state the checkpoint written at the end of the previous
            # iteration persists — so resume is bitwise-identical.
            if suspend is not None and suspend.requested:
                suspended = True
                break
            if (
                tracker is not None
                and tracker.check_deadline(level + 1) is not None
            ):
                break
            level += 1
            level_started = time.perf_counter()
            current = counters.level(level)
            tripped = False
            with tracer.span(f"level{level}", level=level) as level_span:
                with tracer.span(f"level{level}.pairs", parents=slices.shape[0]):
                    (
                        slices, bounds, error_bounds, max_error_bounds
                    ) = get_pair_candidates(
                        slices,
                        stats,
                        level,
                        num_rows=num_rows,
                        total_error=total_error,
                        sigma=sigma,
                        alpha=cfg.alpha,
                        topk_min_score=topk_min_score(top_stats, cfg.k),
                        feature_map=feature_map,
                        pruning=cfg.pruning,
                        level_stats=current,
                        tracer=tracer,
                        workspace=workspace,
                        pair_parallelism=cfg.pair_parallelism,
                    )
                if tracker is not None and slices.shape[0] > 0:
                    trip = tracker.check_candidates(level, int(slices.shape[0]))
                    if trip is None and budgets.max_memory_bytes is not None:
                        rows_alive = (
                            compact.num_rows_alive
                            if compact is not None
                            else num_rows
                        )
                        data_nnz = int(
                            compact.matrix.nnz
                            if compact is not None
                            else x_projected.nnz
                        )
                        trip = tracker.check_memory(
                            level,
                            estimate_level_memory(
                                int(slices.shape[0]), level, rows_alive,
                                data_nnz, cfg.block_size, num_threads,
                            ),
                        )
                    if trip is not None:
                        # Never evaluated: account for the whole candidate
                        # set so flow conservation still balances.
                        current.skipped_by_budget += int(slices.shape[0])
                        tripped = True
                if slices.shape[0] > 0 and not tripped:
                    x_eval, errors_eval = x_projected, errors
                    coverage = None
                    if compact is not None:
                        with tracer.span(f"level{level}.compact") as compact_span:
                            compact.begin_level(slices)
                            coverage = compact.new_coverage()
                            compact_span.annotate(
                                rows_alive=compact.num_rows_alive,
                                cols_alive=compact.num_cols_alive,
                                rows_retained=round(compact.rows_retained, 6),
                                cols_retained=round(compact.cols_retained, 6),
                            )
                        x_eval, errors_eval = compact.matrix, compact.errors
                        current.rows_alive = compact.num_rows_alive
                        current.cols_alive = compact.num_cols_alive
                    current.backend_chosen = kernels.begin_level(
                        x_eval, level, int(slices.shape[0])
                    )
                    with tracer.span(
                        f"level{level}.evaluate", candidates=slices.shape[0],
                        backend=current.backend_chosen,
                    ):
                        slices, stats, top_slices, top_stats = _evaluate_level(
                            x_eval, errors_eval, slices, bounds,
                            level, cfg, top_slices, top_stats, sigma,
                            num_threads, current, tracer, workspace=workspace,
                            coverage=coverage, num_rows=num_rows,
                            total_error=total_error, tracker=tracker,
                            kernels=kernels, compact=compact,
                            minima=(
                                (error_bounds, max_error_bounds)
                                if level == max_level
                                else None
                            ),
                        )
                    kernels.end_level()
                    if tracker is not None and tracker.trip is not None:
                        tripped = True
                    if compact is not None:
                        compact.row_coverage = coverage
                    current.valid = int(
                        np.count_nonzero(valid_rows(stats, sigma))
                    )
                level_span.annotate(
                    evaluated=current.evaluated, valid=current.valid,
                    skipped=current.skipped_by_priority,
                )
            current.elapsed_seconds = time.perf_counter() - level_started
            if tripped:
                break
            if slices.shape[0] == 0:
                stats = stats[:0]
            if checkpoint_dir is not None:
                _write_checkpoint(
                    checkpoint_dir, level, slices, stats, top_slices,
                    top_stats, counters, basic.selected_columns, fingerprints,
                    compact, warm_info, seed_keys, tracer,
                )

    tripped_budget = tracker is not None and tracker.trip is not None
    completed = not tripped_budget and not suspended
    if tripped_budget:
        counters.event("budget.trip")
        with tracer.span(
            "budget.trip",
            budget=tracker.trip.budget,
            level=tracker.trip.level,
            value=round(tracker.trip.value, 6),
            limit=tracker.trip.limit,
        ):
            pass
    if suspended:
        counters.event("suspend.yield")
        with tracer.span("suspend.yield", level=level):
            pass

    if warm_info is not None and seed_keys:
        top_csr = top_slices.tocsr()
        top_keys = {
            tuple(
                np.sort(
                    top_csr.indices[top_csr.indptr[i] : top_csr.indptr[i + 1]]
                ).tolist()
            )
            for i in range(top_csr.shape[0])
        }
        warm_info = dataclasses.replace(
            warm_info, hits=len(seed_keys & top_keys)
        )

    if scale:
        columns = [StatsCol.ERROR, StatsCol.MAX_ERROR]
        top_stats = top_stats.copy()
        # Back to the caller's units: a true error sum beyond float64
        # overflows to inf on purpose (see the docstring).
        with np.errstate(over="ignore"):
            top_stats[:, columns] = np.ldexp(top_stats[:, columns], -scale)
        average_error = float(np.ldexp(total_error / num_rows, -scale))

    with tracer.span("decode", top_k=int(top_slices.shape[0])):
        decoded, encoded = decode_topk(
            top_slices, top_stats, basic.selected_columns, space
        )
    return SliceLineResult(
        top_slices=decoded,
        top_slices_encoded=encoded,
        top_stats=top_stats,
        level_stats=counters.levels,
        total_seconds=time.perf_counter() - started,
        num_rows=num_rows,
        num_features=num_features,
        num_onehot_columns=x_onehot.shape[1],
        average_error=average_error,
        counters=counters,
        trace=tracer if tracer.enabled else None,
        warm_start=warm_info,
        completed=completed,
        budget_trip=tracker.trip if tracker is not None else None,
        suspended=suspended,
    )


def _restore_compaction(
    state: CheckpointState,
    x_projected: sp.csr_matrix,
    errors: np.ndarray,
    num_rows: int,
) -> CompactionState:
    """Rebuild the checkpointed :class:`CompactionState` from the raw data.

    Per-level compaction composes: surviving rows/columns keep their
    relative order, so the checkpointed matrix equals
    ``x_projected[row_indices][:, alive_cols]`` where ``alive_cols`` are
    the columns ``col_map`` maps to a compacted position.  Rebuilding from
    the caller's data (whose identity the fingerprint already enforced)
    keeps bundles small and bitwise-faithful.
    """
    alive_cols = np.flatnonzero(state.col_map >= 0)
    matrix = x_projected[state.row_indices]
    if alive_cols.size < x_projected.shape[1]:
        matrix = matrix[:, alive_cols]
    return CompactionState(
        matrix=matrix.tocsr(),
        errors=errors[state.row_indices],
        col_map=state.col_map.copy(),
        row_indices=state.row_indices.copy(),
        num_rows_full=num_rows,
        num_cols_full=int(x_projected.shape[1]),
        row_coverage=(
            None
            if state.row_coverage is None
            else state.row_coverage.astype(bool, copy=True)
        ),
    )


def _write_checkpoint(
    directory: str,
    level: int,
    slices: np.ndarray,
    stats: np.ndarray,
    top_slices: sp.csr_matrix,
    top_stats: np.ndarray,
    counters: CounterRegistry,
    selected_columns: np.ndarray,
    fingerprints: tuple[dict, dict],
    compact: CompactionState | None,
    warm_info: WarmStartInfo | None,
    seed_keys: set[tuple[int, ...]],
    tracer,
) -> None:
    """Persist one level boundary as a ``repro.ckpt/v1`` bundle."""
    # Count before saving so the bundle's own event total includes this
    # write — a resumed run then reproduces an uninterrupted run's counts.
    counters.event("checkpoint.write")
    data_fp, config_fp = fingerprints
    state = CheckpointState(
        level=level,
        slices=slices,
        stats=stats,
        top_slices=top_slices,
        top_stats=top_stats,
        counters=counters.to_records(),
        selected_columns=selected_columns,
        data_fingerprint=data_fp,
        config_fingerprint=config_fp,
        row_indices=compact.row_indices if compact is not None else None,
        col_map=compact.col_map if compact is not None else None,
        row_coverage=compact.row_coverage if compact is not None else None,
        warm_info=(
            dataclasses.asdict(warm_info) if warm_info is not None else None
        ),
        seed_keys=[list(key) for key in sorted(seed_keys)],
        events=dict(counters.events),
    )
    with tracer.span("checkpoint.write", level=level):
        save_checkpoint(directory, state)


def _seed_topk(
    seed_slices: Sequence[Slice],
    space: FeatureSpace,
    selected_columns: np.ndarray,
    x_projected: sp.csr_matrix,
    errors: np.ndarray,
    cfg: SliceLineConfig,
    sigma: int,
    max_level: int,
    num_rows: int,
    total_error: float,
    top_slices: sp.csr_matrix,
    top_stats: np.ndarray,
    num_threads: int,
    tracer,
    kernels: KernelState,
    workspace: KernelWorkspace | None = None,
    compact: CompactionState | None = None,
) -> tuple[sp.csr_matrix, np.ndarray, WarmStartInfo, set[tuple[int, ...]]]:
    """Re-score warm-start seeds on the current data and merge into the top-K.

    Seeds are filtered, not trusted: level-1 seeds are dropped (the basic
    pass already scores every single-predicate slice), as are seeds whose
    predicates fall outside the current domains or reference a basic slice
    that did not survive the sigma/error filter (by size monotonicity such a
    seed is invalid here anyway).  Survivors are grouped by level into key
    arrays, and each level is evaluated by the same kernel entry the
    enumeration uses, on the same projected matrix (the row-compacted one
    when compaction is enabled — an empty data row belongs to no slice, so
    the statistics are unchanged), so their statistics are bitwise
    identical to what enumeration would produce — a prerequisite for
    warm == cold output equality.  Each level is merged into the top-K in
    turn; the top-K is a pure function of its candidate set, so the merge
    order does not matter.
    """
    requested = len(seed_slices)
    by_level: dict[int, list[tuple[int, ...]]] = {}
    seen: set[tuple[int, ...]] = set()
    num_projected = int(selected_columns.size)
    for slice_ in seed_slices:
        if not 2 <= slice_.level <= max_level:
            continue
        try:
            cols = np.sort(
                np.fromiter(
                    (
                        space.column_of(feature, value)
                        for feature, value in slice_.predicates.items()
                    ),
                    dtype=np.int64,
                    count=slice_.level,
                )
            )
        except EncodingError:
            continue
        projected = np.searchsorted(selected_columns, cols)
        if (projected >= num_projected).any() or not np.array_equal(
            selected_columns[projected], cols
        ):
            continue
        key = tuple(projected.tolist())
        if key in seen:
            continue
        seen.add(key)
        by_level.setdefault(slice_.level, []).append(key)
    valid = 0
    if seen:
        x_eval, errors_eval = x_projected, errors
        if compact is not None:
            x_eval, errors_eval = compact.matrix, compact.errors
        with tracer.span(
            "seed.evaluate", requested=requested, encoded=len(seen)
        ):
            for level in sorted(by_level):
                keys = np.array(by_level[level], dtype=np.int64)
                kernels.begin_level(x_eval, level, keys.shape[0])
                seed_stats = evaluate_slices(
                    x_eval, errors_eval,
                    keys if compact is None else compact.project_slices(keys),
                    level, cfg.alpha,
                    block_size=cfg.block_size, num_threads=num_threads,
                    workspace=workspace, num_rows=num_rows,
                    total_error=total_error, kernels=kernels,
                )
                kernels.end_level()
                valid += int(
                    np.count_nonzero(
                        (seed_stats[:, StatsCol.SCORE] > 0)
                        & (seed_stats[:, StatsCol.SIZE] >= sigma)
                    )
                )
                top_slices, top_stats = maintain_topk(
                    keys, seed_stats, top_slices, top_stats, cfg.k, sigma
                )
    info = WarmStartInfo(
        requested=requested, encoded=len(seen), valid=valid, hits=0
    )
    return top_slices, top_stats, info, seen


def _evaluate_level(
    x_eval,
    errors_eval,
    slices,
    bounds,
    level,
    cfg: SliceLineConfig,
    top_slices,
    top_stats,
    sigma: int,
    num_threads: int,
    current,
    tracer=None,
    workspace=None,
    coverage=None,
    num_rows=None,
    total_error=None,
    tracker=None,
    kernels=None,
    compact=None,
    minima=None,
):
    """Evaluate one level's candidates in chunks, optionally in priority order.

    In priority mode (``cfg.priority_evaluation``, bounds known, and more
    than ``cfg.priority_chunk`` candidates) candidates are evaluated in
    descending upper-bound order; after every chunk the top-K is refreshed
    and remaining candidates whose bound no longer beats the K-th best
    score are skipped.  Skipping is exact: the bound dominates the
    candidate's own score and every descendant's score, which is precisely
    the paper's score-pruning argument applied mid-level.  Returns the
    evaluated slices, their stats, and the updated top-K.

    *slices* is the level's key array in the canonical projected column
    space (it feeds the top-K, decoding, and the next pair join).  With a
    :class:`~repro.core.compaction.CompactionState` *compact*, each chunk's
    keys are remapped to the compacted *x_eval* just before its kernel
    call; the projected keys are what the level returns.

    A chunk is ``cfg.priority_chunk`` candidates long in priority mode or
    when *tracker* carries a wall-clock deadline, and the whole level
    otherwise; a level that fits one chunk is evaluated and returned as
    is.  The deadline is checked between chunks so one level cannot
    overshoot it by more than a chunk's worth of kernel work; candidates
    past a trip are recorded as ``skipped_by_budget``.  Chunking is exact:
    per-slice statistics are computed within independent blocks and top-K
    maintenance is order-independent, so an untripped chunked evaluation
    is bitwise identical to the single-shot one.

    *minima* is the pair stage's ``(min se, min sm)`` over each candidate's
    parents, passed at the last level only.  Each chunk then gets its
    candidates' minima and the K-th score held before it as a
    :class:`~repro.core.evaluate.SizeFirst`, so the bitset kernel sums
    errors only for candidates that could still enter the top-K.  The
    top-K after every chunk, and with it every threshold, cut and counter,
    is what the full evaluation gives (see :mod:`repro.core.evaluate`).
    In priority mode each chunk's keys and minima are gathered through the
    bound order, so no reordered copy of the whole level is built.
    """
    tracer = tracer or NULL_TRACER
    total = int(slices.shape[0])
    use_priority = (
        cfg.priority_evaluation
        and bounds is not None
        and total > cfg.priority_chunk
    )
    has_deadline = tracker is not None and tracker.has_deadline
    step = cfg.priority_chunk if use_priority or has_deadline else total
    whole = step >= total
    if use_priority:
        # Negated once: the cut search below runs after every chunk.
        neg_bounds = -bounds
        order = np.argsort(neg_bounds, kind="stable")
        neg_bounds = neg_bounds[order]
    kept_slices = []
    kept_stats = []
    position = 0
    remaining = total
    while True:
        # Known overrun: a chunk is always `step` long and ignores
        # `remaining`, so the last chunk of a priority level also evaluates
        # candidates the cut below already counted as skipped_by_priority.
        index = (
            order[position : position + step]
            if use_priority
            else slice(position, position + step)
        )
        chunk = slices[index]
        size_first = None
        if minima is not None:
            size_first = SizeFirst(
                minima[0][index], minima[1][index],
                topk_min_score(top_stats, cfg.k), sigma,
            )
        chunk_stats = evaluate_slices(
            x_eval, errors_eval,
            chunk if compact is None else compact.project_slices(chunk),
            level, cfg.alpha,
            block_size=cfg.block_size, num_threads=num_threads,
            tracer=tracer, counters=current, workspace=workspace,
            coverage=coverage, num_rows=num_rows, total_error=total_error,
            kernels=kernels, size_first=size_first,
        )
        kept_slices.append(chunk)
        kept_stats.append(chunk_stats)
        current.evaluated += int(chunk.shape[0])
        top_slices, top_stats = maintain_topk(
            chunk, chunk_stats, top_slices, top_stats, cfg.k, sigma
        )
        position += chunk.shape[0]
        if (
            has_deadline
            and position < remaining
            and tracker.check_deadline(level) is not None
        ):
            current.skipped_by_budget += remaining - position
            break
        threshold = topk_min_score(top_stats, cfg.k) if use_priority else 0.0
        if position < remaining and threshold > 0.0:
            # Bounds are sorted descending: one searchsorted finds the cut
            # past which no remaining candidate can beat the threshold.
            cut = int(
                np.searchsorted(neg_bounds[position:], -threshold, side="left")
            )
            skipped = remaining - position - cut
            if skipped > 0:
                current.skipped_by_priority += skipped
                remaining = position + cut
        if position >= remaining:
            break
    if whole:
        return slices, kept_stats[0], top_slices, top_stats
    return (
        np.concatenate(kept_slices), np.vstack(kept_stats),
        top_slices, top_stats,
    )


def _empty_result(
    space: FeatureSpace,
    num_rows: int,
    num_onehot: int,
    average_error: float,
    counters: CounterRegistry | None = None,
    tracer=None,
    started: float | None = None,
) -> SliceLineResult:
    """An empty result that still accounts for the work actually done.

    Even when no slice can score above zero (``total_error <= 0``), the
    encoding pass over ``X0`` happened: record a level-1 entry with zero
    evaluations and the real elapsed time instead of pretending the run was
    free.
    """
    counters = counters or CounterRegistry()
    elapsed = time.perf_counter() - started if started is not None else 0.0
    level_one = counters.level(1)
    level_one.elapsed_seconds = elapsed
    return SliceLineResult(
        top_slices=[],
        top_slices_encoded=np.zeros((0, space.num_features), dtype=np.int64),
        top_stats=np.zeros((0, 4)),
        level_stats=counters.levels,
        total_seconds=elapsed,
        num_rows=num_rows,
        num_features=space.num_features,
        num_onehot_columns=num_onehot,
        average_error=average_error,
        counters=counters,
        trace=tracer if tracer is not None and tracer.enabled else None,
    )


class SliceLine:
    """Scikit-learn-style estimator facade over :func:`slice_line`.

    Example
    -------
    >>> finder = SliceLine(k=4, alpha=0.95)
    >>> finder.fit(x0, errors)                      # doctest: +SKIP
    >>> finder.top_slices_[0].describe()            # doctest: +SKIP
    """

    def __init__(
        self,
        k: int = 4,
        sigma: int | None = None,
        alpha: float = 0.95,
        max_level: int | None = None,
        block_size: int = 16,
        pruning: PruningConfig | None = None,
        compaction: bool = True,
        num_threads: int = 1,
        trace: bool | str | Tracer | None = None,
        budgets: BudgetConfig | None = None,
        checkpoint_dir: str | None = None,
        kernel_backend: str = "auto",
        pair_parallelism: int = 0,
    ) -> None:
        self.k = k
        self.sigma = sigma
        self.alpha = alpha
        self.max_level = max_level
        self.block_size = block_size
        self.pruning = pruning or PruningConfig()
        self.compaction = compaction
        self.kernel_backend = kernel_backend
        self.pair_parallelism = pair_parallelism
        self.num_threads = num_threads
        self.trace = trace
        self.budgets = budgets
        self.checkpoint_dir = checkpoint_dir
        self.result_: SliceLineResult | None = None
        self.feature_names_: tuple[str, ...] | None = None

    def _config(self) -> SliceLineConfig:
        return SliceLineConfig(
            k=self.k,
            sigma=self.sigma,
            alpha=self.alpha,
            max_level=self.max_level,
            block_size=self.block_size,
            pruning=self.pruning,
            compaction=self.compaction,
            kernel_backend=self.kernel_backend,
            pair_parallelism=self.pair_parallelism,
        )

    def fit(
        self,
        x0: np.ndarray,
        errors: np.ndarray,
        feature_names: Sequence[str] | None = None,
        resume_from: str | None = None,
    ) -> "SliceLine":
        """Run slice finding on *x0* / *errors* and store the result."""
        space = FeatureSpace.from_matrix(x0, feature_names)
        self.feature_names_ = space.feature_names
        self.result_ = slice_line(
            x0,
            errors,
            config=self._config(),
            feature_space=space,
            num_threads=self.num_threads,
            trace=self.trace,
            budgets=self.budgets,
            checkpoint_dir=self.checkpoint_dir,
            resume_from=resume_from,
        )
        return self

    @property
    def completed_(self) -> bool:
        """False when an anytime budget stopped the fitted run early."""
        self._check_fitted()
        return self.result_.completed

    @property
    def top_slices_(self):
        """Decoded top-K slices, best first (fitted attribute)."""
        self._check_fitted()
        return self.result_.top_slices

    @property
    def top_stats_(self) -> np.ndarray:
        """The ``TR`` matrix (score, error, max error, size) of the top-K."""
        self._check_fitted()
        return self.result_.top_stats

    def transform(self, x0: np.ndarray) -> np.ndarray:
        """Membership matrix: ``out[i, j]`` is True when row i is in slice j."""
        self._check_fitted()
        x0 = np.asarray(x0)
        members = np.zeros((x0.shape[0], len(self.result_.top_slices)), dtype=bool)
        for j, sl in enumerate(self.result_.top_slices):
            members[:, j] = slice_membership(x0, sl)
        return members

    def report(self) -> str:
        """Human-readable summary of the fitted top-K slices."""
        self._check_fitted()
        return self.result_.report(feature_names=self.feature_names_)

    def _check_fitted(self) -> None:
        if self.result_ is None:
            raise RuntimeError("SliceLine instance is not fitted yet; call fit()")
