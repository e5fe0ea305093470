"""The SliceLine enumeration driver (Algorithm 1) and estimator facade.

:func:`slice_line` is a faithful transcription of Algorithm 1: data
preparation (the one-hot layout of the integer codes), initialization
(basic slices + initial top-K), then level-wise lattice enumeration
alternating pair generation (with pruning/deduplication), vectorized
evaluation, and top-K maintenance, until no candidates remain or the level
cap is hit.  The validated codes are the search's only data
representation: the basic pass scores the one-hot columns straight from
them and packs the run's one bitset table over the valid columns, which
every level and warm-start seed reads through column views
(:mod:`repro.core.compaction`).  No sparse ``X`` is built.

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
from repro.core.compaction import CompactionState, slice_set_columns
from repro.core.config import SliceLineConfig
from repro.core.decode import decode_topk, slice_membership
from repro.core.evaluate import SizeFirst, evaluate_slice_set, evaluate_slices
from repro.core.onehot import FeatureSpace, validate_encoded_matrix
from repro.core.pairs import get_pair_candidates
from repro.core.scoring import score
from repro.core.topk import empty_topk, maintain_topk, topk_min_score
from repro.core.types import (
    Slice,
    SliceLineResult,
    StatsCol,
    WarmStartInfo,
    stats_matrix,
    valid_rows,
)
from repro.exceptions import (
    CheckpointError,
    EncodingError,
    InvalidErrorsError,
    ShapeError,
)
from repro.linalg import (
    BitsetTable,
    KernelState,
    KernelWorkspace,
    ensure_vector,
    keys_to_csr,
)
from repro.linalg.kernels import pack_binary_errors
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
    *,
    input_fingerprint: dict | None = None,
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
        Algorithm parameters (top-K, sigma, alpha, level cap, pruning
        toggles); defaults follow the paper.
    feature_space:
        Optional pre-built :class:`FeatureSpace` (e.g. carrying feature
        names); derived from *x0* when omitted.
    num_threads:
        Thread-pool width for slice evaluation (1 = serial).
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
    input_fingerprint:
        Optional ``fingerprint_inputs(x0, errors)`` of the arrays as passed,
        when the caller has already hashed them (the serving layer hashes
        every submission for its cache key).  With ``checkpoint_dir`` or
        ``resume_from`` the run then stores it in its bundles and checks
        the resumed bundle against it, instead of hashing the arrays again.
        It stands for the run's own fingerprint when validation hands back
        the caller's own error vector (contiguous 1-D ``float64``) and
        either the caller's own ``x0`` (``int64`` codes) or an ``x0`` the
        fingerprint hashed by code value (it names ``x0_codes``), which
        validation's ``int64`` copy keeps; otherwise the run hashes its
        validated copies, so bundles are the same with or without it.  A
        fingerprint whose ``num_rows`` or ``num_features`` disagree with
        *x0* raises :class:`~repro.exceptions.CheckpointError`.

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
    caller_x0, caller_errors = x0, errors
    x0 = validate_encoded_matrix(x0, allow_missing=True)
    num_rows, num_features = x0.shape
    errors = ensure_vector(errors, num_rows, "errors")
    if input_fingerprint is not None:
        shape = (input_fingerprint.get("num_rows"),
                 input_fingerprint.get("num_features"))
        if shape != (num_rows, num_features):
            raise CheckpointError(
                f"input_fingerprint describes {shape[0]} x {shape[1]} "
                f"inputs, but x0 is {num_rows} x {num_features}"
            )
        if errors is not caller_errors or (
            x0 is not caller_x0 and "x0_codes" not in input_fingerprint
        ):
            # Validation made copies (another dtype or shape): the caller
            # hashed other arrays, and bundles carry the search's own hash.
            # A narrow hash (``x0_codes``) reads the code values alone,
            # which validation's int64 copy of x0 keeps.
            input_fingerprint = None
    if not np.isfinite(errors).all():
        bad = int(np.count_nonzero(~np.isfinite(errors)))
        raise InvalidErrorsError(
            f"errors must be finite: {bad} NaN/inf entries in e"
        )
    if (errors < 0).any():
        raise InvalidErrorsError(
            "errors must be non-negative (e >= 0 in the paper)"
        )

    space = feature_space or FeatureSpace.from_codes(x0)
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

    # Hash once up front (or not at all, given the caller's hash): resume
    # verification and every bundle this run writes reuse it.
    data_fp: dict | None = None
    if checkpoint_dir is not None or resume_from is not None:
        data_fp = input_fingerprint or fingerprint_inputs(x0, errors)
    resume_state: CheckpointState | None = None
    if resume_from is not None:
        with tracer.span("checkpoint.load", path=resume_from):
            resume_state = load_checkpoint(resume_from)
            verify_checkpoint(resume_state, data_fp, cfg)
        counters = resume_state.restore_counters()
    fingerprints: tuple[dict, dict] | None = None
    if checkpoint_dir is not None:
        fingerprints = (data_fp, fingerprint_config(cfg))

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
        # X is never materialized: the codes are checked against the
        # one-hot layout (a space derived from x0 fits it by construction).
        if feature_space is not None:
            space.check_codes(x0)
    num_onehot = space.num_onehot

    if total_error <= 0:
        # A perfect model has no problematic slices: every score is <= 0.
        return _empty_result(
            space, num_rows, num_onehot, average_error,
            counters=counters, tracer=tracer, started=started,
        )

    # -- initialization: basic slices and initial top-K ----------------------
    # The basic pass also packs the run's one table over the valid
    # basic-slice columns (Algorithm 1 line 12's projection): all deeper
    # slices are conjunctions of valid basic slices.
    level_started = time.perf_counter()
    with tracer.span("level1.basic", onehot_columns=num_onehot):
        basic = create_and_score_basic_slices(
            x0, space, errors, sigma, cfg.alpha
        )
        top_slices, top_stats = maintain_topk(
            basic.slices, basic.stats, *empty_topk(basic.num_slices), cfg.k, sigma
        )
    if resume_state is None:
        current = counters.level(1)
        current.candidates_emitted = num_onehot
        current.evaluated = num_onehot
        current.valid = basic.num_slices
        current.indicator_nnz = basic.indicator_nnz
        current.elapsed_seconds = time.perf_counter() - level_started

    table = basic.table
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
    # table view the kernels read narrows, and each chunk's keys are
    # remapped just before its kernel call (repro.core.compaction).  On
    # resume the state is rebuilt from the checkpointed row/column maps.
    compact: CompactionState | None = None
    if cfg.compaction:
        if resume_state is not None and resume_state.row_indices is not None:
            compact = _restore_compaction(resume_state, table)
        else:
            compact = CompactionState.initial(table)
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
    # the current level's table view, coded errors and row coverage.
    kernels = KernelState()
    with KernelWorkspace(num_threads) as workspace:
        # -- optional warm start: merge re-scored seeds into the top-K -------
        if seed_slices is not None and resume_state is None:
            top_slices, top_stats, warm_info, seed_keys = _seed_topk(
                seed_slices, space, basic.selected_columns, table,
                errors, cfg, sigma, max_level, num_rows, total_error,
                top_slices, top_stats, num_threads, tracer,
                workspace=workspace,
            )
        if checkpoint_dir is not None and resume_state is None:
            _write_checkpoint(
                checkpoint_dir, 1, slices, stats, top_slices, top_stats,
                counters, basic.selected_columns, fingerprints, compact,
                warm_info, seed_keys, tracer,
            )

        # -- level-wise lattice enumeration ----------------------------------
        suspended = False
        binary_errors: bool | None = None  # the memory model's, once per run
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
                    )
                if tracker is not None and slices.shape[0] > 0:
                    trip = tracker.check_candidates(level, int(slices.shape[0]))
                    if trip is None and budgets.max_memory_bytes is not None:
                        # The view narrows per level; the last one bounds
                        # this one's width.
                        cols_alive = (
                            compact.view if compact is not None else table
                        ).shape[1]
                        if binary_errors is None:
                            binary_errors = pack_binary_errors(errors) is not None
                        trip = tracker.check_memory(
                            level,
                            estimate_level_memory(
                                int(slices.shape[0]), num_rows, cols_alive,
                                num_threads, binary_errors,
                                table_cols=table.shape[1],
                            ),
                        )
                    if trip is not None:
                        # Never evaluated: account for the whole candidate
                        # set so flow conservation still balances.
                        current.skipped_by_budget += int(slices.shape[0])
                        tripped = True
                coverage = None
                if slices.shape[0] > 0 and not tripped:
                    x_eval = table
                    if compact is not None:
                        with tracer.span(f"level{level}.compact") as compact_span:
                            compact.begin_level(slices)
                            compact_span.annotate(
                                rows_alive=compact.num_rows_alive,
                                cols_alive=compact.num_cols_alive,
                                rows_retained=round(compact.rows_retained, 6),
                                cols_retained=round(compact.cols_retained, 6),
                            )
                        x_eval = compact.view
                        current.rows_alive = compact.num_rows_alive
                        current.cols_alive = compact.num_cols_alive
                    # Row coverage only feeds the next level's row count.
                    kernels.begin_level(
                        x_eval, level, errors,
                        compact is not None and level < max_level,
                    )
                    with tracer.span(
                        f"level{level}.evaluate", candidates=slices.shape[0]
                    ):
                        slices, stats, top_slices, top_stats = _evaluate_level(
                            x_eval, errors, slices, bounds,
                            level, cfg, top_slices, top_stats, sigma,
                            num_threads, current, tracer, workspace=workspace,
                            num_rows=num_rows,
                            total_error=total_error, tracker=tracker,
                            kernels=kernels, compact=compact,
                            minima=(
                                (error_bounds, max_error_bounds)
                                if level == max_level
                                else None
                            ),
                        )
                    coverage = kernels.end_level()
                    if tracker is not None and tracker.trip is not None:
                        tripped = True
                    current.valid = int(
                        np.count_nonzero(valid_rows(stats, sigma))
                    )
                if compact is not None:
                    compact.end_level(coverage)
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
        num_onehot_columns=num_onehot,
        average_error=average_error,
        counters=counters,
        trace=tracer if tracer.enabled else None,
        warm_start=warm_info,
        completed=completed,
        budget_trip=tracker.trip if tracker is not None else None,
        suspended=suspended,
    )


def _restore_compaction(
    state: CheckpointState, table: BitsetTable
) -> CompactionState:
    """Rebuild the checkpointed :class:`CompactionState` over the run's table.

    The bundle's maps are the state itself: the view is the table's columns
    that ``col_map`` maps to a position, in projected order, and
    ``row_indices``/``row_coverage`` are the rows counted.  The table was
    re-derived from the caller's data, whose identity the fingerprint
    already enforced, which keeps bundles small and bitwise-faithful.
    """
    alive_cols = np.flatnonzero(state.col_map >= 0)
    return CompactionState(
        table=table,
        view=(
            table if alive_cols.size == table.shape[1]
            else table.columns(alive_cols)
        ),
        col_map=state.col_map.copy(),
        row_indices=state.row_indices.copy(),
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
    table: BitsetTable,
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
    workspace: KernelWorkspace | None = None,
) -> tuple[sp.csr_matrix, np.ndarray, WarmStartInfo, set[tuple[int, ...]]]:
    """Re-score warm-start seeds on the current data and merge into the top-K.

    Seeds are filtered, not trusted: level-1 seeds are dropped (the basic
    pass already scores every single-predicate slice), as are seeds whose
    predicates fall outside the current domains or reference a basic slice
    that did not survive the sigma/error filter (by size monotonicity such a
    seed is invalid here anyway).  The survivors are evaluated in one
    :func:`~repro.core.evaluate.evaluate_slice_set` call over a view of the
    run's *table* holding only the columns they name
    (:func:`~repro.core.compaction.slice_set_columns`); nothing is packed.
    The kernel and the table are the enumeration's, so their statistics are
    bitwise identical to what enumeration would produce — a prerequisite
    for warm == cold output equality.  Each level is merged into the top-K in
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
        groups = [
            np.array(by_level[level], dtype=np.int64) for level in sorted(by_level)
        ]
        matrix = sp.vstack(
            [keys_to_csr(keys, num_projected) for keys in groups], format="csr"
        )
        with tracer.span(
            "seed.evaluate", requested=requested, encoded=len(seen)
        ):
            columns, s_seeds = slice_set_columns(matrix)
            seed_set = evaluate_slice_set(
                table.columns(columns), s_seeds, errors,
                num_threads=num_threads, workspace=workspace,
            )
        seed_stats = stats_matrix(
            score(
                seed_set.sizes, seed_set.errors, num_rows, total_error,
                cfg.alpha,
            ),
            seed_set.errors, seed_set.max_errors, seed_set.sizes,
        )
        valid = int(
            np.count_nonzero(
                (seed_stats[:, StatsCol.SCORE] > 0)
                & (seed_stats[:, StatsCol.SIZE] >= sigma)
            )
        )
        start = 0
        for keys in groups:
            stop = start + keys.shape[0]
            top_slices, top_stats = maintain_topk(
                keys, seed_stats[start:stop], top_slices, top_stats,
                cfg.k, sigma,
            )
            start = stop
    info = WarmStartInfo(
        requested=requested, encoded=len(seen), valid=valid, hits=0
    )
    return top_slices, top_stats, info, seen


def _evaluate_level(
    x_eval,
    errors,
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
    :class:`~repro.core.compaction.CompactionState` *compact*, *x_eval* is
    its column view, and each chunk's keys are remapped to it just before
    its kernel call; the projected keys are what the level returns.

    A chunk is ``cfg.priority_chunk`` candidates long in priority mode or
    when *tracker* carries a wall-clock deadline, and the whole level
    otherwise; a level that fits one chunk is evaluated and returned as
    is.  The deadline is checked between chunks so one level cannot
    overshoot it by more than a chunk's worth of kernel work; candidates
    past a trip are recorded as ``skipped_by_budget``.  Chunking is exact:
    every candidate's statistics are computed in isolation and top-K
    maintenance is order-independent, so an untripped chunked evaluation
    is bitwise identical to the single-shot one.

    *minima* is the pair stage's ``(min se, min sm)`` over each candidate's
    parents, passed at the last level only.  Each chunk then gets its
    candidates' minima and the K-th score held before it as a
    :class:`~repro.core.evaluate.SizeFirst`.  With errors that are not all
    0/1, the bitset kernel then sums errors only for candidates that could
    still enter the top-K, through the error planes *kernels* builds once
    per level.  The top-K after every chunk, and with it every threshold,
    cut and counter, is what the full evaluation gives (see
    :mod:`repro.core.evaluate`).  In priority mode each chunk's keys and
    minima are gathered through the bound order, so no reordered copy of
    the whole level is built.
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
            x_eval, errors,
            chunk if compact is None else compact.project_slices(chunk),
            level, cfg.alpha,
            num_threads=num_threads,
            tracer=tracer, counters=current, workspace=workspace,
            num_rows=num_rows, total_error=total_error,
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
    validation pass over ``X0`` happened: record a level-1 entry with zero
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

    The keyword *settings* are :class:`SliceLineConfig`'s fields, kept as
    one config (``SliceLine(k=4, alpha=0.95).config`` is
    ``SliceLineConfig(k=4, alpha=0.95)``) and read back as
    ``finder.config.k`` and so on.

    Example
    -------
    >>> finder = SliceLine(k=4, alpha=0.95)
    >>> finder.fit(x0, errors)                      # doctest: +SKIP
    >>> finder.top_slices_[0].describe()            # doctest: +SKIP
    """

    def __init__(
        self,
        *,
        num_threads: int = 1,
        trace: bool | str | Tracer | None = None,
        budgets: BudgetConfig | None = None,
        checkpoint_dir: str | None = None,
        **settings,
    ) -> None:
        self.config = SliceLineConfig(**settings)
        self.num_threads = num_threads
        self.trace = trace
        self.budgets = budgets
        self.checkpoint_dir = checkpoint_dir
        self.result_: SliceLineResult | None = None
        self.feature_names_: tuple[str, ...] | None = None

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
            config=self.config,
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
