"""Per-slice drift signals between two windows of accumulated statistics.

For every tracked slice the monitor compares the current window's
accumulator against the baseline window it was promoted from: the score
delta says how the slice moved in SliceLine's own ranking, and a one-sided
Welch t-test (current mean error > baseline mean error) from summary
statistics says whether the degradation is statistically real — the same
test :mod:`repro.stats` runs on raw samples, fed from ``(mean, var, n)``
triples the accumulators carry for free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.core.types import Slice
from repro.exceptions import StreamingError, ValidationError
from repro.stats import welch_t_test_from_stats
from repro.streaming.accumulator import MergeableSliceStats


@dataclass(frozen=True)
class DriftSignal:
    """How one tracked slice moved between the baseline and current window.

    ``p_value`` is NaN when either side has fewer than two rows in the slice
    (Welch's test is undefined there); :meth:`degraded` treats NaN as "no
    evidence".
    """

    slice: Slice
    baseline_score: float
    current_score: float
    baseline_mean_error: float
    current_mean_error: float
    baseline_size: int
    current_size: int
    statistic: float
    p_value: float

    @property
    def score_delta(self) -> float:
        """Current minus baseline score (positive = the slice got worse)."""
        delta = self.current_score - self.baseline_score
        return delta if not math.isnan(delta) else float("nan")

    def degraded(self, significance: float = 0.05) -> bool:
        """True when the slice's mean error rose significantly."""
        return not math.isnan(self.p_value) and self.p_value < significance


def drift_signals(
    tracked: Sequence[Slice],
    baseline: MergeableSliceStats,
    current: MergeableSliceStats,
    alpha: float,
) -> list[DriftSignal]:
    """One :class:`DriftSignal` per tracked slice, in tracked order.

    *alpha* is SliceLine's score weighting (Equation 1), used to re-score
    both windows on their own totals; the Welch test runs on the per-slice
    mean/variance/count summaries of the two accumulators.
    """
    if baseline.num_slices != len(tracked) or current.num_slices != len(tracked):
        raise StreamingError(
            "baseline/current accumulators must align with the tracked slices"
        )
    baseline_scores = baseline.scores(alpha)
    current_scores = current.scores(alpha)
    baseline_means = baseline.mean_errors()
    current_means = current.mean_errors()
    baseline_vars = baseline.error_variances()
    current_vars = current.error_variances()
    signals: list[DriftSignal] = []
    for i, slice_ in enumerate(tracked):
        try:
            welch = welch_t_test_from_stats(
                float(current_means[i]),
                float(current_vars[i]),
                int(current.sizes[i]),
                float(baseline_means[i]),
                float(baseline_vars[i]),
                int(baseline.sizes[i]),
            )
            statistic, p_value = welch.statistic, welch.p_value
        except ValidationError:
            statistic, p_value = float("nan"), float("nan")
        signals.append(
            DriftSignal(
                slice=slice_,
                baseline_score=float(baseline_scores[i]),
                current_score=float(current_scores[i]),
                baseline_mean_error=float(baseline_means[i]),
                current_mean_error=float(current_means[i]),
                baseline_size=int(baseline.sizes[i]),
                current_size=int(current.sizes[i]),
                statistic=float(statistic),
                p_value=float(p_value),
            )
        )
    return signals


__all__ = ["DriftSignal", "drift_signals"]
