"""Mergeable per-slice statistics: the streaming form of Equation 10.

Every statistic SliceLine scores a slice with is a plain sum or max over the
slice's rows — size ``|S|``, total error ``se``, and maximum tuple error
``sm`` (Section 2.2).  Sums and maxes are associative and commutative, so a
per-batch :class:`MergeableSliceStats` can be folded over any partitioning of
the rows and :meth:`merge` is *exactly* equal to recomputing the statistics
on the concatenated rows: integer sizes and maxima are always bitwise exact,
and the float error sums are bitwise exact whenever the per-row errors are
dyadic rationals (and equal up to summation-order rounding otherwise).

On top of the paper's triple we also accumulate the per-slice sum of squared
errors, which is what lets :mod:`repro.streaming.drift` run Welch's t-test
from summary statistics alone (``var = (se2 - se^2/n) / (n - 1)``) without
retaining raw rows.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from repro.core.compaction import compact_slice_set
from repro.core.evaluate import evaluate_slice_set
from repro.core.onehot import FeatureSpace, validate_encoded_matrix
from repro.core.scoring import score
from repro.core.types import Slice, stats_matrix
from repro.exceptions import EncodingError, StreamingError
from repro.linalg import KernelWorkspace, ensure_vector


@dataclass(frozen=True)
class MergeableSliceStats:
    """Associative accumulator of per-slice ``(|S|, se, se2, sm)`` vectors.

    All four per-slice arrays are aligned with the tracked slice list the
    accumulator was built for; ``num_rows`` / ``total_error`` /
    ``total_sq_error`` / ``max_error`` carry the same sums for the whole
    batch (the "slice" with no predicates), and ``num_batches`` counts how
    many batch-level accumulators were folded in.
    """

    sizes: np.ndarray
    errors: np.ndarray
    sq_errors: np.ndarray
    max_errors: np.ndarray
    num_rows: int = 0
    total_error: float = 0.0
    total_sq_error: float = 0.0
    max_error: float = 0.0
    num_batches: int = 0

    def __post_init__(self) -> None:
        for name in ("sizes", "errors", "sq_errors", "max_errors"):
            object.__setattr__(
                self, name, np.asarray(getattr(self, name), dtype=np.float64)
            )
        num_slices = self.sizes.shape[0]
        for name in ("errors", "sq_errors", "max_errors"):
            if getattr(self, name).shape[0] != num_slices:
                raise StreamingError(
                    "per-slice statistic vectors must share one length"
                )

    # -- construction --------------------------------------------------------

    @classmethod
    def empty(cls, num_slices: int) -> "MergeableSliceStats":
        """The merge identity: zero rows observed for *num_slices* slices."""
        zeros = np.zeros(num_slices, dtype=np.float64)
        return cls(zeros, zeros.copy(), zeros.copy(), zeros.copy())

    @classmethod
    def from_batch(
        cls,
        x0: np.ndarray,
        errors: np.ndarray,
        slices: Sequence[Slice],
        feature_space: FeatureSpace | None = None,
        num_threads: int = 1,
    ) -> "MergeableSliceStats":
        """Evaluate *slices* on one batch via the ``(X S^T) == L`` kernel.

        Slices whose predicates fall outside the batch's observed domains
        cannot match any batch row, so they contribute exact zeros without
        touching the kernel.  Passing a wider *feature_space* (e.g. derived
        from the whole window) is allowed but never required.
        """
        x0 = validate_encoded_matrix(x0, allow_missing=True)
        errors = ensure_vector(errors, x0.shape[0], "errors")
        space = feature_space or FeatureSpace.from_codes(x0)
        result = cls.empty(len(slices))
        encodable: list[int] = []
        rows: list[np.ndarray] = []
        for index, slice_ in enumerate(slices):
            try:
                cols = np.sort(
                    np.array(
                        [
                            space.column_of(feature, value)
                            for feature, value in slice_.predicates.items()
                        ],
                        dtype=np.int64,
                    )
                )
            except EncodingError:
                continue
            encodable.append(index)
            rows.append(cols)
        num_rows = int(x0.shape[0])
        totals = dict(
            num_rows=num_rows,
            total_error=float(errors.sum()),
            total_sq_error=float((errors * errors).sum()),
            max_error=float(errors.max()) if num_rows else 0.0,
            num_batches=1,
        )
        if not encodable:
            return dataclasses.replace(result, **totals)

        indices = (
            np.concatenate(rows) if rows else np.empty(0, dtype=np.int64)
        )
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum([row.size for row in rows], out=indptr[1:])
        matrix = sp.csr_matrix(
            (np.ones(indices.size, dtype=np.float64), indices, indptr),
            shape=(len(rows), space.num_onehot),
        )
        x_onehot = space.encode(x0)
        # Compact once to the columns/rows the tracked slices can touch and
        # run both kernel passes (errors, errors^2) against the small pair;
        # the overrides pin the whole-batch statistics to the full batch, so
        # results are bitwise identical to the uncompacted evaluation.
        x_compact, s_compact, alive_rows = compact_slice_set(x_onehot, matrix)
        with KernelWorkspace(num_threads) as workspace:
            first = evaluate_slice_set(
                x_compact, s_compact, errors[alive_rows],
                num_threads=num_threads,
                workspace=workspace, num_rows=totals["num_rows"],
                total_error=totals["total_error"],
                max_error=totals["max_error"],
            )
            squared = errors * errors
            second = evaluate_slice_set(
                x_compact, s_compact, squared[alive_rows],
                num_threads=num_threads,
                workspace=workspace, num_rows=totals["num_rows"],
                total_error=totals["total_sq_error"],
                max_error=float(squared.max()) if num_rows else 0.0,
            )
        picked = np.asarray(encodable, dtype=np.int64)
        sizes = result.sizes
        errs = result.errors
        sq = result.sq_errors
        maxes = result.max_errors
        sizes[picked] = first.sizes
        errs[picked] = first.errors
        sq[picked] = second.errors
        maxes[picked] = first.max_errors
        return dataclasses.replace(result, **totals)

    # -- algebra -------------------------------------------------------------

    @property
    def num_slices(self) -> int:
        return int(self.sizes.shape[0])

    def merge(self, other: "MergeableSliceStats") -> "MergeableSliceStats":
        """Associative, commutative fold: sums add, maxima take the max."""
        if self.num_slices != other.num_slices:
            raise StreamingError(
                f"cannot merge accumulators over {self.num_slices} and "
                f"{other.num_slices} slices"
            )
        return MergeableSliceStats(
            sizes=self.sizes + other.sizes,
            errors=self.errors + other.errors,
            sq_errors=self.sq_errors + other.sq_errors,
            max_errors=np.maximum(self.max_errors, other.max_errors),
            num_rows=self.num_rows + other.num_rows,
            total_error=self.total_error + other.total_error,
            total_sq_error=self.total_sq_error + other.total_sq_error,
            max_error=max(self.max_error, other.max_error),
            num_batches=self.num_batches + other.num_batches,
        )

    # -- derived statistics --------------------------------------------------

    def scores(self, alpha: float) -> np.ndarray:
        """Equation-1 scores of the tracked slices under *alpha*.

        ``-inf`` everywhere when the accumulated window carries no error at
        all (a perfect model has no problematic slices to rank).
        """
        if self.total_error <= 0 or self.num_rows == 0:
            return np.full(self.num_slices, -np.inf)
        return score(
            self.sizes, self.errors, self.num_rows, self.total_error, alpha
        )

    def stats(self, alpha: float) -> np.ndarray:
        """The slice-aligned ``R`` matrix ``[sc, se, sm, ss]`` under *alpha*."""
        return stats_matrix(
            self.scores(alpha), self.errors, self.max_errors, self.sizes
        )

    def mean_errors(self) -> np.ndarray:
        """Per-slice average error ``se / |S|`` (0 for empty slices)."""
        return np.divide(
            self.errors,
            self.sizes,
            out=np.zeros_like(self.errors),
            where=self.sizes > 0,
        )

    def error_variances(self) -> np.ndarray:
        """Per-slice sample variance (``ddof=1``) from the summary sums.

        ``var = (se2 - se^2 / n) / (n - 1)``, clamped at zero against
        floating-point cancellation; slices with fewer than two rows get 0.
        """
        variances = np.zeros_like(self.errors)
        enough = self.sizes >= 2
        if enough.any():
            n = self.sizes[enough]
            se = self.errors[enough]
            se2 = self.sq_errors[enough]
            variances[enough] = np.maximum(se2 - se * se / n, 0.0) / (n - 1.0)
        return variances


def merge_stats(
    accumulators: Sequence[MergeableSliceStats],
) -> MergeableSliceStats:
    """Left fold of :meth:`MergeableSliceStats.merge` over a non-empty list."""
    if not accumulators:
        raise StreamingError("merge_stats needs at least one accumulator")
    merged = accumulators[0]
    for accumulator in accumulators[1:]:
        merged = merged.merge(accumulator)
    return merged


__all__ = ["MergeableSliceStats", "merge_stats"]
