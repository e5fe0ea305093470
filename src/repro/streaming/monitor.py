"""The incremental slice-monitoring driver.

:class:`SliceMonitor` turns the one-shot batch algorithm into a service
loop: :meth:`~SliceMonitor.ingest` appends prediction-log mini-batches to a
sliding or tumbling window, and :meth:`~SliceMonitor.tick` re-ranks the
window's top-K problematic slices.  Each tick

1. folds the window's per-batch accumulators for the *previously* tracked
   slices (rebuilding only batches whose cache is stale — merge volume is
   proportional to new data, not window size) and emits per-slice
   :class:`~repro.streaming.drift.DriftSignal`\\ s against the window those
   slices were promoted from;
2. runs :func:`repro.core.slice_line` on the concatenated live window,
   warm-seeded with the previous top-K and their lattice ancestors — by the
   exactness of Equation-3 pruning, the result is identical to a cold
   from-scratch run on the same rows (the oracle the tests enforce), just
   cheaper;
3. promotes the new top-K to tracked status and snapshots the window's
   accumulated statistics as the next tick's drift baseline.

Tick latency, merge volume, and warm-start hit rate are reported as
``repro.obs`` spans/attributes and on the returned :class:`MonitorTick`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.algorithm import slice_line
from repro.core.config import SliceLineConfig
from repro.core.onehot import FeatureSpace
from repro.core.types import Slice, SliceLineResult
from repro.exceptions import StreamingError
from repro.obs import Tracer, resolve_tracer
from repro.obs.export import run_to_dict
from repro.resilience.budgets import BudgetConfig
from repro.resilience.quarantine import BatchQuarantine, QuarantineRecord
from repro.streaming.accumulator import MergeableSliceStats, merge_stats
from repro.streaming.batches import PredictionBatch
from repro.streaming.drift import DriftSignal, drift_signals
from repro.streaming.warmstart import expand_seed_slices
from repro.streaming.window import StreamWindow


@dataclass
class MonitorTick:
    """Everything one :meth:`SliceMonitor.tick` produced."""

    index: int
    timestamp: float
    num_batches: int
    num_rows: int
    result: SliceLineResult
    drift: list[DriftSignal] = field(default_factory=list)
    #: batch accumulators (re)evaluated this tick — the expensive part of
    #: the merge volume; cached batches cost a merge but no kernel call
    rebuilt_accumulators: int = 0
    #: pairwise accumulator merges performed this tick
    accumulator_merges: int = 0
    #: rows scanned to rebuild stale accumulators (0 = fully cached)
    rows_rescanned: int = 0
    seconds: float = 0.0

    @property
    def top_slices(self) -> list[Slice]:
        return self.result.top_slices

    @property
    def warm_start(self):
        return self.result.warm_start

    def degraded_slices(self, significance: float = 0.05) -> list[DriftSignal]:
        """Tracked slices whose mean error rose significantly this tick."""
        return [s for s in self.drift if s.degraded(significance)]

    def to_obs_dict(self) -> dict:
        """``repro.obs/v1`` document of the inner run plus a monitor section."""
        doc = run_to_dict(self.result)
        doc["monitor"] = {
            "tick": self.index,
            "timestamp": self.timestamp,
            "num_batches": self.num_batches,
            "num_rows": self.num_rows,
            "seconds": self.seconds,
            "rebuilt_accumulators": self.rebuilt_accumulators,
            "accumulator_merges": self.accumulator_merges,
            "rows_rescanned": self.rows_rescanned,
            "num_drift_signals": len(self.drift),
            "num_degraded": len(self.degraded_slices()),
            "completed": self.result.completed,
        }
        return doc


class SliceMonitor:
    """Maintains top-K problematic slices over a stream of mini-batches.

    Parameters
    ----------
    config:
        :class:`~repro.core.config.SliceLineConfig` for the per-tick
        enumeration (defaults follow the paper).
    window_size:
        Number of most-recent batches a ``"sliding"`` window retains;
        ignored (must be omitted) for ``"tumbling"``, where :meth:`tick`
        consumes and clears whatever has accumulated.
    policy:
        ``"sliding"`` or ``"tumbling"``.
    warm_start:
        Seed each tick's enumeration with the previous top-K and their
        ancestors (identical results, less work); disable to force cold
        re-enumeration, e.g. for benchmarking the difference.
    num_threads:
        Thread-pool width for the evaluation kernels.
    trace:
        Same switch as :func:`repro.core.slice_line`; spans of the inner
        runs nest under each tick's ``monitor.tick`` span.
    quarantine_dir:
        When given, quarantined batches are persisted here as ``.npz`` +
        ``.json`` pairs for offline inspection (see
        :class:`~repro.resilience.BatchQuarantine`); quarantine itself is
        always on — an unhealthy batch never reaches the window.
    budgets:
        Optional :class:`~repro.resilience.BudgetConfig` forwarded to every
        tick's inner :func:`~repro.core.slice_line` run, bounding per-tick
        enumeration wall-clock/candidates/memory; a budget-tripped tick
        reports ``tick.result.completed = False`` and keeps monitoring.
    """

    def __init__(
        self,
        config: SliceLineConfig | None = None,
        window_size: int | None = 8,
        policy: str = "sliding",
        warm_start: bool = True,
        num_threads: int = 1,
        trace: bool | str | Tracer | None = None,
        quarantine_dir: str | None = None,
        budgets: BudgetConfig | None = None,
    ) -> None:
        self.config = config or SliceLineConfig()
        self.policy = policy
        self.warm_start = warm_start
        self.num_threads = num_threads
        self.tracer = resolve_tracer(trace)
        size = window_size if policy == "sliding" else None
        self.window = StreamWindow(size=size, policy=policy)
        self.tracked: list[Slice] = []
        self.quarantine = BatchQuarantine(persist_dir=quarantine_dir)
        self.budgets = budgets
        self._baseline: MergeableSliceStats | None = None
        self._version = 0
        self._num_ticks = 0
        self._expected_features: int | None = None
        self.ticks: list[MonitorTick] = []

    # -- ingestion -----------------------------------------------------------

    def ingest(self, batch: PredictionBatch) -> QuarantineRecord | None:
        """Validate and append one mini-batch to the window.

        A healthy batch is pushed (evicting under sliding) and ``None`` is
        returned; an unhealthy one — NaN/inf or negative errors, misaligned
        shapes, broken integer encoding, or a feature count disagreeing
        with what the monitor has been fed so far — is quarantined instead,
        and its :class:`~repro.resilience.QuarantineRecord` is returned.
        The monitor keeps ticking on the healthy window either way.
        """
        record = self.quarantine.admit(
            batch, expected_features=self._expected_features
        )
        if record is not None:
            with self.tracer.span(
                "quarantine.batch",
                batch_id=record.batch_id,
                reason=record.reason,
            ):
                pass
            return record
        if self._expected_features is None:
            self._expected_features = int(batch.x0.shape[1])
        self.window.push(batch)
        return None

    # -- the tick ------------------------------------------------------------

    def tick(self, timestamp: float | None = None) -> MonitorTick:
        """Re-rank the live window; returns the tick record.

        Raises :class:`~repro.exceptions.StreamingError` on an empty window
        (nothing to rank).
        """
        if len(self.window) == 0:
            raise StreamingError("tick on an empty window; ingest batches first")
        started = time.perf_counter()
        tick_index = self._num_ticks
        num_batches = len(self.window)
        if timestamp is None:
            timestamp = self.window.entries[-1].batch.timestamp
        with self.tracer.span(
            "monitor.tick",
            tick=tick_index,
            policy=self.policy,
            batches=len(self.window),
            rows=self.window.num_rows,
        ) as tick_span:
            # (1) drift on the previously tracked slices
            drift: list[DriftSignal] = []
            rebuilt = merges = rescanned = 0
            if self.tracked and self._baseline is not None:
                with self.tracer.span("monitor.drift", tracked=len(self.tracked)):
                    current, rebuilt, merges, rescanned = self._window_stats()
                    drift = drift_signals(
                        self.tracked, self._baseline, current, self.config.alpha
                    )

            # (2) warm-seeded re-enumeration on the concatenated window
            x0, errors = self.window.concat()
            space = FeatureSpace.from_matrix(x0)
            seeds = (
                expand_seed_slices(self.tracked)
                if self.warm_start and self.tracked
                else None
            )
            result = slice_line(
                x0,
                errors,
                config=self.config,
                feature_space=space,
                num_threads=self.num_threads,
                trace=self.tracer,
                seed_slices=seeds,
                budgets=self.budgets,
            )

            # (3) rotate: promote the new top-K and snapshot the baseline.
            # Caches stay valid when the tracked *set* is unchanged — the
            # steady-state tick then only evaluates newly ingested batches.
            if [s.predicates for s in result.top_slices] != [
                s.predicates for s in self.tracked
            ]:
                self._version += 1
            self.tracked = result.top_slices
            if self.tracked:
                baseline, extra_rebuilt, extra_merges, extra_rescanned = (
                    self._window_stats()
                )
                self._baseline = baseline
                rebuilt += extra_rebuilt
                merges += extra_merges
                rescanned += extra_rescanned
            else:
                self._baseline = None
            if self.policy == "tumbling":
                self.window.clear()

            seconds = time.perf_counter() - started
            tick_span.annotate(
                seconds=round(seconds, 6),
                rebuilt_accumulators=rebuilt,
                accumulator_merges=merges,
                rows_rescanned=rescanned,
                warm_hit_rate=(
                    result.warm_start.hit_rate
                    if result.warm_start is not None
                    else None
                ),
            )
        tick = MonitorTick(
            index=tick_index,
            timestamp=float(timestamp),
            num_batches=num_batches,
            num_rows=result.num_rows,
            result=result,
            drift=drift,
            rebuilt_accumulators=rebuilt,
            accumulator_merges=merges,
            rows_rescanned=rescanned,
            seconds=seconds,
        )
        self._num_ticks += 1
        self.ticks.append(tick)
        return tick

    def _window_stats(
        self,
    ) -> tuple[MergeableSliceStats, int, int, int]:
        """Fold the live window's accumulators for the tracked slice set.

        Entries whose cached accumulator predates the current tracked-set
        version are re-evaluated (the only kernel work); the fold itself is
        a subtract-free left merge over live entries, so eviction costs
        nothing and floating-point results never depend on evicted data.
        """
        rebuilt = rescanned = 0
        for entry in self.window.entries:
            if entry.version != self._version or entry.accumulator is None:
                entry.accumulator = MergeableSliceStats.from_batch(
                    entry.batch.x0,
                    entry.batch.errors,
                    self.tracked,
                    num_threads=self.num_threads,
                )
                entry.version = self._version
                rebuilt += 1
                rescanned += entry.batch.num_rows
        merged = merge_stats(
            [entry.accumulator for entry in self.window.entries]
        )
        merges = len(self.window.entries) - 1
        return merged, rebuilt, merges, rescanned


__all__ = ["SliceMonitor", "MonitorTick"]
