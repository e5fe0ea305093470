"""Anytime budgets for the level-wise enumeration.

SliceLine's lattice enumeration can blow up combinatorially on hostile
inputs; the paper caps the level (``ceil(L)``) and relies on pruning, but a
production deployment additionally needs *anytime* behaviour: stop within a
wall-clock deadline, refuse to materialize an oversized candidate set, and
bail before an evaluation whose intermediates would not fit in memory —
returning the best-so-far top-K instead of dying.

:class:`BudgetConfig` declares the limits, :class:`BudgetTracker` checks
them between levels (and, for the deadline, between evaluation chunks inside
a level), and a :class:`BudgetTrip` records which budget fired where.  The
driver (:func:`repro.core.algorithm.slice_line`) turns a trip into a result
with ``completed=False`` — never an exception — whose partial top-K is
exactly the top-K of the work that was actually done (every merged slice was
fully evaluated and scored, so the partial answer is correct, just possibly
not yet optimal over the whole lattice).

This module deliberately imports nothing from :mod:`repro.core` so the core
can import it without cycles.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.exceptions import ConfigError
from repro.linalg.kernels import BITSET_CHUNK, num_packed_words


@dataclass(frozen=True)
class BudgetConfig:
    """Resource limits for one enumeration run; ``None`` disables a limit.

    Parameters
    ----------
    deadline_s:
        Wall-clock budget in seconds, measured from :func:`slice_line`
        entry.  Checked between levels and between evaluation chunks, so a
        single level cannot overshoot by more than one chunk's worth of
        kernel work.
    max_candidates_per_level:
        Upper bound on the deduplicated candidate count any single level may
        emit to evaluation.  Checked right after pair generation, before the
        candidate matrix is multiplied against the data.
    max_memory_bytes:
        Upper bound on the *estimated* transient memory of one level's
        evaluation (see :func:`estimate_level_memory`).  An estimate — the
        point is to catch the pathological level that would allocate orders
        of magnitude too much, not to meter allocations byte-exactly.
    """

    deadline_s: float | None = None
    max_candidates_per_level: int | None = None
    max_memory_bytes: int | None = None

    def __post_init__(self) -> None:
        if self.deadline_s is not None and self.deadline_s < 0:
            raise ConfigError(f"deadline_s must be >= 0, got {self.deadline_s}")
        if (
            self.max_candidates_per_level is not None
            and self.max_candidates_per_level < 1
        ):
            raise ConfigError(
                "max_candidates_per_level must be >= 1, got "
                f"{self.max_candidates_per_level}"
            )
        if self.max_memory_bytes is not None and self.max_memory_bytes < 1:
            raise ConfigError(
                f"max_memory_bytes must be >= 1, got {self.max_memory_bytes}"
            )

    @property
    def enabled(self) -> bool:
        """True when at least one limit is set."""
        return (
            self.deadline_s is not None
            or self.max_candidates_per_level is not None
            or self.max_memory_bytes is not None
        )


@dataclass(frozen=True)
class BudgetTrip:
    """Record of the budget that stopped a run.

    ``budget`` is one of ``"deadline"``, ``"candidates"``, or ``"memory"``;
    ``level`` is the lattice level being worked on when the budget fired
    (its evaluation may be partial or not started); ``value``/``limit`` are
    the observed measurement and the configured bound in the budget's own
    unit (seconds, candidates, or bytes).
    """

    budget: str
    level: int
    value: float
    limit: float
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "budget": self.budget,
            "level": self.level,
            "value": self.value,
            "limit": self.limit,
            "detail": self.detail,
        }


class BudgetTracker:
    """Checks one run's budgets; remembers the first trip.

    All checks are cheap (a clock read or an integer compare) so the
    fault-free overhead of budgets-on runs stays in the noise; once a trip
    is recorded every later check short-circuits to it.
    """

    def __init__(self, config: BudgetConfig, started: float | None = None) -> None:
        self.config = config
        self.started = time.perf_counter() if started is None else started
        self.trip: BudgetTrip | None = None

    @property
    def has_deadline(self) -> bool:
        return self.config.deadline_s is not None

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def _record(self, budget: str, level: int, value: float, limit: float,
                detail: str) -> BudgetTrip:
        if self.trip is None:
            self.trip = BudgetTrip(
                budget=budget, level=level, value=value, limit=limit,
                detail=detail,
            )
        return self.trip

    def check_deadline(self, level: int) -> BudgetTrip | None:
        """Trip when the wall clock has passed the deadline."""
        if self.trip is not None:
            return self.trip
        if self.config.deadline_s is None:
            return None
        elapsed = self.elapsed()
        if elapsed >= self.config.deadline_s:
            return self._record(
                "deadline", level, elapsed, self.config.deadline_s,
                f"elapsed {elapsed:.3f}s >= deadline "
                f"{self.config.deadline_s:.3f}s",
            )
        return None

    def check_candidates(self, level: int, num_candidates: int) -> BudgetTrip | None:
        """Trip when a level emitted more candidates than allowed."""
        if self.trip is not None:
            return self.trip
        limit = self.config.max_candidates_per_level
        if limit is None or num_candidates <= limit:
            return None
        return self._record(
            "candidates", level, float(num_candidates), float(limit),
            f"level {level} emitted {num_candidates} candidates > {limit}",
        )

    def check_memory(self, level: int, estimated_bytes: int) -> BudgetTrip | None:
        """Trip when a level's estimated evaluation memory exceeds the cap."""
        if self.trip is not None:
            return self.trip
        limit = self.config.max_memory_bytes
        if limit is None or estimated_bytes <= limit:
            return None
        return self._record(
            "memory", level, float(estimated_bytes), float(limit),
            f"level {level} evaluation estimated at {estimated_bytes} bytes "
            f"> {limit}",
        )


class SuspendHook:
    """Cooperative suspension flag checked at every level boundary.

    A scheduler (or any controller thread) calls :meth:`request`; the
    enumeration observes it at the top of its level loop, writes its
    level-boundary checkpoint as usual, and returns a ``suspended=True``
    partial result.  Because suspension only ever lands on a level
    boundary — the exact state ``repro.ckpt/v1`` persists — resuming the
    checkpoint later is bitwise-identical to never having stopped.
    """

    def __init__(self) -> None:
        self._event = threading.Event()

    def request(self) -> None:
        """Ask the running enumeration to stop at the next level boundary."""
        self._event.set()

    def clear(self) -> None:
        """Re-arm the hook (called before resuming a suspended run)."""
        self._event.clear()

    @property
    def requested(self) -> bool:
        return self._event.is_set()


def estimate_level_memory(
    num_candidates: int,
    num_rows: int,
    cols_alive: int,
    num_threads: int = 1,
    binary_errors: bool = False,
    table_cols: int = 0,
) -> int:
    """Rough estimate of one level's resident and transient evaluation bytes.

    Models the packed-bitset kernel (:mod:`repro.linalg.kernels`) over
    *num_rows* data rows (a view keeps every row):

    * the run's table, one ``num_rows``-bit row bitset per projected column
      (*table_cols*), resident for the whole run;
    * the level's column view of it, one row bitset per column the level
      references (*cols_alive*);
    * per thread, one span of at most ``BITSET_CHUNK`` candidates in
      flight: its indicator words, twice over for 0/1 errors
      (*binary_errors*), whose statistics AND the words with the packed
      errors, and for other errors the words plus the unpacked indicator,
      one byte per (candidate, row) cell;
    * four 8-byte statistics per candidate, twice over (the per-span parts
      and the concatenated level).

    Not counted: the list of (row, slice) memberships the float-error path
    builds from the unpacked indicator, a few 8-byte entries per member,
    because a slice's size is only known once it is evaluated.  Levels
    whose slices cover a large share of the rows can exceed the estimate
    by that much.  Budgets gate order-of-magnitude blowups, not bytes.
    """
    row_bytes = num_packed_words(num_rows) * 8
    tables = (table_cols + cols_alive) * row_bytes
    in_flight = max(1, min(num_threads, num_candidates))
    span = min(BITSET_CHUNK, -(-num_candidates // in_flight))
    if binary_errors:
        per_span = 2 * span * row_bytes
    else:
        per_span = span * (row_bytes + num_rows)
    stats = 2 * 4 * 8 * num_candidates
    return int(tables + in_flight * per_span + stats)


__all__ = [
    "BudgetConfig",
    "BudgetTracker",
    "BudgetTrip",
    "SuspendHook",
    "estimate_level_memory",
]
