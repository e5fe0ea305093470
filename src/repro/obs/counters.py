"""Per-level search-space accounting for the SliceLine enumeration.

:class:`LevelCounters` is the single record type for everything the paper's
evaluation counts per lattice level (Figures 3-4, Table 2): pair-join
volume, per-technique pruning effectiveness, deduplication, priority-mode
skips, evaluated/valid slices, and sparse-matrix fill.  The enumeration
kernels increment these counters through a :class:`CounterRegistry` owned
by the driver instead of assigning ad-hoc fields, and the registry is
exported on :class:`~repro.core.types.SliceLineResult`.

The counters obey exact flow-conservation identities (every generated pair
is accounted for exactly once); :meth:`CounterRegistry.reconcile` checks
them and the test suite asserts they hold against the brute-force lattice
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Iterator


@dataclass
class LevelCounters:
    """Per-lattice-level enumeration statistics (Figures 3-4, Table 2).

    Flow conservation (checked by :meth:`CounterRegistry.reconcile`)::

        pairs_generated == invalid_feature_pairs
                           + pruned_by_score_pairs + candidates_before_dedup
        candidates_before_dedup == dedup_removed + deduplicated
        deduplicated == pruned_by_size + pruned_by_parents
                        + pruned_by_score_groups + candidates_emitted
        candidates_emitted == evaluated + skipped_by_priority
                              + skipped_by_budget
    """

    level: int
    #: slices entering pair generation (the evaluated level ``L-1`` slices)
    input_slices: int = 0
    #: parents dropped by input filtering (``ss >= sigma``/``se > 0``/bound)
    input_filtered: int = 0
    #: pair rows generated by the self-join before any pruning/dedup
    pairs_generated: int = 0
    #: pair rows discarded because two predicates hit the same feature
    invalid_feature_pairs: int = 0
    #: pair rows dropped by the streaming (pre-dedup) score bound
    pruned_by_score_pairs: int = 0
    #: feature-valid, score-surviving pair rows entering deduplication
    candidates_before_dedup: int = 0
    #: distinct candidate slices after deduplication
    deduplicated: int = 0
    #: candidates removed by size and missing-parent pruning (score pruning
    #: is the derived :attr:`pruned_by_score`)
    pruned_by_size: int = 0
    pruned_by_parents: int = 0
    #: deduplicated candidates dropped by the group-level score bound
    pruned_by_score_groups: int = 0
    #: candidate slices emitted to evaluation for this level
    candidates_emitted: int = 0
    #: candidates skipped by priority evaluation (bound fell below the
    #: risen top-K threshold before their turn)
    skipped_by_priority: int = 0
    #: candidates never evaluated because an anytime budget (deadline,
    #: candidate count, or memory) tripped before their turn — the run
    #: returns ``completed=False`` with the best-so-far top-K
    skipped_by_budget: int = 0
    #: slice candidates actually evaluated against X
    evaluated: int = 0
    #: evaluated slices that satisfy ``|S| >= sigma`` (and ``se > 0``)
    valid: int = 0
    #: non-zeros of the emitted candidate matrix ``S`` (= emitted * level)
    candidates_nnz: int = 0
    #: non-zeros of the evaluation indicator ``I = (X S^T == L)``, i.e. the
    #: total number of (row, slice) memberships materialized this level
    indicator_nnz: int = 0
    #: evaluation-kernel backend the cost model chose for this level
    #: (``"sparse"``/``"bitset"``; empty when the level never reached
    #: evaluation — see :mod:`repro.linalg.kernels`)
    backend_chosen: str = ""
    #: data rows in the compacted evaluation matrix this level (0 when
    #: compaction is disabled; divide by the run's ``num_rows`` for the
    #: rows-retained ratio)
    rows_alive: int = 0
    #: one-hot columns in the compacted evaluation matrix this level (0 when
    #: compaction is disabled; divide by the run's projected column count
    #: for the cols-retained ratio)
    cols_alive: int = 0
    #: wall-clock seconds spent on this level (enumeration + evaluation)
    elapsed_seconds: float = 0.0
    #: wall-clock seconds of the pair self-join (chunk tasks: join + merge
    #: + validity + pair-level pruning + chunk-local dedup), driver-side
    join_seconds: float = 0.0
    #: wall-clock seconds of the global deduplication over chunk-reduced keys
    dedup_seconds: float = 0.0
    #: wall-clock seconds of the Equation-9 group-level pruning
    prune_seconds: float = 0.0
    #: wall-clock seconds gathering the surviving candidates' keys (the
    #: level's key array) after pruning
    keys_seconds: float = 0.0
    #: join row-range tasks the pair plan split this level into
    join_chunks: int = 0
    #: worker width the pair plan ran at (1 = serial)
    join_parallelism: int = 0

    @property
    def pruned_by_score(self) -> int:
        """Pair rows and deduplicated candidates dropped by the score bound."""
        return self.pruned_by_score_pairs + self.pruned_by_score_groups

    @property
    def pruned_total(self) -> int:
        return self.pruned_by_size + self.pruned_by_score + self.pruned_by_parents

    @property
    def dedup_removed(self) -> int:
        """Duplicate pair rows collapsed by deduplication."""
        return self.candidates_before_dedup - self.deduplicated

    def add(self, counter: str, amount: int) -> None:
        """Increment *counter* by *amount* (a named-field accumulator)."""
        setattr(self, counter, getattr(self, counter) + amount)

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["pruned_by_score"] = self.pruned_by_score
        out["dedup_removed"] = self.dedup_removed
        out["pruned_total"] = self.pruned_total
        return out


#: Text-valued per-level gauges that cannot participate in numeric totals.
_TEXT_GAUGES = frozenset({"backend_chosen"})

#: Fields that vary with wall-clock or execution shape (thread count, chunk
#: grid, backend choice) but never with results.  Bitwise result-equivalence
#: tests compare counter records with these removed — everything else must
#: be identical across any ``pair_parallelism``, ``num_threads``,
#: ``kernel_backend``, or chunking configuration.
EXECUTION_FIELDS = frozenset(
    {
        "elapsed_seconds",
        "join_seconds",
        "dedup_seconds",
        "prune_seconds",
        "keys_seconds",
        "join_chunks",
        "join_parallelism",
        "backend_chosen",
    }
)

#: Identities every level must satisfy; violations name the broken equation.
_IDENTITIES = (
    (
        "pairs_generated == invalid_feature_pairs + pruned_by_score_pairs"
        " + candidates_before_dedup",
        lambda c: c.pairs_generated
        == c.invalid_feature_pairs + c.pruned_by_score_pairs + c.candidates_before_dedup,
    ),
    (
        "candidates_before_dedup >= deduplicated",
        lambda c: c.candidates_before_dedup >= c.deduplicated,
    ),
    (
        "deduplicated == pruned_by_size + pruned_by_parents"
        " + pruned_by_score_groups + candidates_emitted",
        lambda c: c.deduplicated
        == c.pruned_by_size
        + c.pruned_by_parents
        + c.pruned_by_score_groups
        + c.candidates_emitted,
    ),
    (
        "candidates_emitted == evaluated + skipped_by_priority"
        " + skipped_by_budget",
        lambda c: c.candidates_emitted
        == c.evaluated + c.skipped_by_priority + c.skipped_by_budget,
    ),
)


class CounterRegistry:
    """Owns one :class:`LevelCounters` per lattice level, created on demand.

    Besides the per-level records, the registry carries a flat ``events``
    map for run-scoped resilience events that have no level structure
    (``checkpoint.write``, ``retry.attempt``, ``quarantine.batch``,
    ``budget.trip``); they ride along in :meth:`to_dict` under ``events``.
    """

    def __init__(self) -> None:
        self._levels: dict[int, LevelCounters] = {}
        self.events: dict[str, int] = {}
        self.gauges: dict[str, float] = {}

    def event(self, name: str, amount: int = 1) -> None:
        """Increment the run-scoped event counter *name* by *amount*."""
        self.events[name] = self.events.get(name, 0) + amount

    def gauge(self, name: str, value: float) -> None:
        """Set the point-in-time gauge *name* (last write wins).

        Gauges carry instantaneous readings (queue depth, running jobs,
        cache entries) as opposed to the monotonically increasing
        ``events``; the serving layer samples them on every state change.
        """
        self.gauges[name] = value

    def level(self, level: int) -> LevelCounters:
        """The counters record for *level*, creating it if absent."""
        record = self._levels.get(level)
        if record is None:
            record = LevelCounters(level=level)
            self._levels[level] = record
        return record

    @property
    def levels(self) -> list[LevelCounters]:
        """All level records, ordered by level."""
        return [self._levels[key] for key in sorted(self._levels)]

    def __len__(self) -> int:
        return len(self._levels)

    def __iter__(self) -> Iterator[LevelCounters]:
        return iter(self.levels)

    def total(self, counter: str) -> int | float:
        """Sum of one named counter across all levels."""
        return sum(getattr(record, counter) for record in self.levels)

    def totals(self) -> dict:
        """All numeric counters summed across levels (``level`` and
        text-valued gauges like ``backend_chosen`` are omitted)."""
        names = [
            f.name
            for f in fields(LevelCounters)
            if f.name != "level" and f.name not in _TEXT_GAUGES
        ]
        out: dict = {name: self.total(name) for name in names}
        out["pruned_by_score"] = self.total("pruned_by_score")
        out["dedup_removed"] = self.total("dedup_removed")
        out["pruned_total"] = self.total("pruned_total")
        return out

    def to_records(self) -> list[dict]:
        return [record.to_dict() for record in self.levels]

    def to_dict(self) -> dict:
        out = {
            "levels": self.to_records(),
            "totals": self.totals(),
            "events": dict(self.events),
        }
        # Gauges only appear when something actually set one, keeping the
        # per-run document identical to the pre-serving schema otherwise.
        if self.gauges:
            out["gauges"] = dict(self.gauges)
        return out

    def reconcile(self, start_level: int = 2) -> list[str]:
        """Check flow-conservation identities on levels >= *start_level*.

        Returns a list of human-readable violations (empty = consistent).
        Level 1 is excluded by default: basic-slice initialization has no
        pair join, so only ``candidates_emitted == evaluated`` applies there.
        """
        violations = []
        for record in self.levels:
            if record.level < start_level:
                continue
            for label, check in _IDENTITIES:
                if not check(record):
                    violations.append(f"level {record.level}: {label}")
        return violations
