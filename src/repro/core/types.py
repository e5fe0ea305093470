"""Result containers and statistic layouts for the SliceLine core.

The paper carries slice statistics in an ``R`` matrix with four columns
(score ``sc``, total error ``se``, maximum tuple error ``sm``, size ``ss``).
We keep the same dense layout for the vectorized kernels and expose typed
views on top of it for users.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.obs.counters import CounterRegistry, LevelCounters
from repro.obs.trace import NullTracer, Tracer

if TYPE_CHECKING:  # import only for annotations; avoids a runtime cycle
    from repro.resilience.budgets import BudgetTrip


class StatsCol(IntEnum):
    """Column layout of the slice-statistics matrix ``R`` (paper Section 4.2)."""

    SCORE = 0
    ERROR = 1
    MAX_ERROR = 2
    SIZE = 3


def empty_stats(num_rows: int = 0) -> np.ndarray:
    """An all-zero ``R`` matrix with *num_rows* rows."""
    return np.zeros((num_rows, len(StatsCol)), dtype=np.float64)


def stats_matrix(
    scores: np.ndarray,
    errors: np.ndarray,
    max_errors: np.ndarray,
    sizes: np.ndarray,
) -> np.ndarray:
    """Assemble an ``R`` matrix from its four column vectors."""
    return np.column_stack(
        [
            np.asarray(scores, dtype=np.float64),
            np.asarray(errors, dtype=np.float64),
            np.asarray(max_errors, dtype=np.float64),
            np.asarray(sizes, dtype=np.float64),
        ]
    )


def valid_rows(stats: np.ndarray, sigma: int) -> np.ndarray:
    """Rows of ``R`` that are valid slices: ``ss >= sigma`` and ``se > 0``.

    A ``NaN`` error means the size-first last level never summed the
    slice's errors because it cannot reach the top-K, but some member's
    error is positive (see :mod:`repro.core.evaluate`), so ``se > 0``.
    """
    slice_errors = stats[:, StatsCol.ERROR]
    return (stats[:, StatsCol.SIZE] >= sigma) & (
        (slice_errors > 0) | np.isnan(slice_errors)
    )


@dataclass(frozen=True)
class Slice:
    """A decoded slice: the conjunction of predicates ``feature == value``.

    ``predicates`` maps the original feature index (0-based) to the 1-based
    integer code the slice fixes; free features are simply absent.  When the
    feature space carries names/labels, :meth:`describe` renders the human
    readable conjunction.
    """

    predicates: Mapping[int, int]
    score: float
    error: float
    max_error: float
    size: int

    @property
    def level(self) -> int:
        """Number of predicates (the lattice level the slice lives on)."""
        return len(self.predicates)

    @property
    def average_error(self) -> float:
        """Average per-tuple error ``se / |S|`` (0.0 for an empty slice)."""
        return self.error / self.size if self.size else 0.0

    def encoded_row(self, num_features: int) -> np.ndarray:
        """The paper's output encoding: an ``m``-vector, zeros = free features."""
        row = np.zeros(num_features, dtype=np.int64)
        for feature, value in self.predicates.items():
            row[feature] = value
        return row

    def describe(
        self,
        feature_names: Sequence[str] | None = None,
        value_labels: Sequence[Sequence[str]] | None = None,
    ) -> str:
        """Render the slice as ``name=value AND ...`` with optional labels."""
        parts = []
        for feature in sorted(self.predicates):
            value = self.predicates[feature]
            name = (
                feature_names[feature]
                if feature_names is not None
                else f"F{feature + 1}"
            )
            if value_labels is not None and feature < len(value_labels):
                labels = value_labels[feature]
                label = labels[value - 1] if 0 < value <= len(labels) else str(value)
            else:
                label = str(value)
            parts.append(f"{name}={label}")
        return " AND ".join(parts) if parts else "<entire dataset>"

    def matches(self, row: np.ndarray) -> bool:
        """True when an integer-encoded data row satisfies every predicate."""
        return all(row[f] == v for f, v in self.predicates.items())


@dataclass(frozen=True)
class WarmStartInfo:
    """Accounting of the seed slices a warm-started run was given.

    Seeding only *raises the score-pruning threshold earlier* — pruning by
    the Equation-3 bound is exact, so the final top-K is identical to a cold
    run's; this record exists to observe how much enumeration work the seeds
    saved and how many of them survived into the final top-K.
    """

    #: seed slices passed to :func:`~repro.core.algorithm.slice_line`
    requested: int = 0
    #: seeds encodable in the current feature space at level >= 2 (level-1
    #: seeds are redundant — the basic-slice pass scores every single-
    #: predicate slice anyway — and out-of-domain seeds cannot match rows)
    encoded: int = 0
    #: encoded seeds that were valid on this data (``|S| >= sigma``, positive
    #: score) and therefore entered the initial top-K
    valid: int = 0
    #: seeds that are still present in the final top-K
    hits: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of requested seeds that survived into the final top-K."""
        return self.hits / self.requested if self.requested else 0.0


#: Per-lattice-level enumeration statistics (Figures 3-4, Table 2).
#: ``LevelStats`` is the historical name; the record now lives in
#: :mod:`repro.obs.counters` where the counter registry manages it, and is
#: re-exported here unchanged (all original field names are preserved).
LevelStats = LevelCounters


@dataclass
class SliceLineResult:
    """Full output of a SliceLine run.

    ``top_slices`` are sorted by decreasing score; ``top_slices_encoded`` is
    the paper's ``TS`` output (``K x m`` integer matrix, zeros for free
    features) and ``top_stats`` the aligned ``TR`` statistics matrix.
    """

    top_slices: list[Slice]
    top_slices_encoded: np.ndarray
    top_stats: np.ndarray
    level_stats: list[LevelStats] = field(default_factory=list)
    total_seconds: float = 0.0
    num_rows: int = 0
    num_features: int = 0
    num_onehot_columns: int = 0
    average_error: float = 0.0
    #: the counter registry behind ``level_stats`` (always populated by
    #: :func:`~repro.core.algorithm.slice_line`; ``None`` only for
    #: hand-assembled results)
    counters: CounterRegistry | None = None
    #: the tracer the run reported spans into (``None`` when untraced)
    trace: Tracer | NullTracer | None = None
    #: seed accounting when the run was warm-started (``None`` for cold runs)
    warm_start: WarmStartInfo | None = None
    #: False when an anytime budget stopped enumeration early — the top-K is
    #: then the exact best of everything evaluated so far, not of the full
    #: lattice
    completed: bool = True
    #: the budget that stopped the run (``None`` when ``completed``)
    budget_trip: "BudgetTrip | None" = None
    #: True when a cooperative :class:`~repro.resilience.budgets.SuspendHook`
    #: stopped the run at a level boundary — the level-boundary checkpoint
    #: was written, so resuming it completes bitwise-identically
    suspended: bool = False

    def __len__(self) -> int:
        return len(self.top_slices)

    @property
    def scores(self) -> np.ndarray:
        return self.top_stats[:, StatsCol.SCORE]

    @property
    def sizes(self) -> np.ndarray:
        return self.top_stats[:, StatsCol.SIZE]

    @property
    def evaluated_per_level(self) -> list[int]:
        return [ls.evaluated for ls in self.level_stats]

    @property
    def total_evaluated(self) -> int:
        return sum(ls.evaluated for ls in self.level_stats)

    def to_obs_dict(self) -> dict:
        """The run's observability document (``repro.obs/v1`` JSON schema).

        Carries run metadata, the per-level pruning counters, and — when the
        run was traced — the span tree; see EXPERIMENTS.md for the schema.
        """
        from repro.obs.export import run_to_dict

        return run_to_dict(self)

    def report(
        self,
        feature_names: Sequence[str] | None = None,
        value_labels: Sequence[Sequence[str]] | None = None,
    ) -> str:
        """Human-readable multi-line summary of the top-K slices."""
        lines = [
            f"SliceLine: {len(self.top_slices)} slice(s) found "
            f"(n={self.num_rows}, m={self.num_features}, "
            f"l={self.num_onehot_columns}, avg error={self.average_error:.4f})"
        ]
        for rank, sl in enumerate(self.top_slices, start=1):
            lines.append(
                f"  #{rank} score={sl.score:+.4f} size={sl.size} "
                f"avg_err={sl.average_error:.4f} :: "
                f"{sl.describe(feature_names, value_labels)}"
            )
        return "\n".join(lines)
