"""Per-partition slice accumulators merged at the driver (streaming scale-out).

The Dist-PFor strategy of the paper broadcasts the slice matrix and scans
row partitions data-locally; the streaming analogue broadcasts the *tracked
slice set* and has each partition build a
:class:`~repro.streaming.MergeableSliceStats`, which the driver reduces with
the exact associative ``merge()``.  Because the accumulator statistics are
sums/maxes, the reduction is equivalent to evaluating the slices on the
unpartitioned data — this is what lets a cluster feed one monitor without
approximation.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Sequence

import numpy as np

from repro.core.onehot import FeatureSpace, validate_encoded_matrix
from repro.core.types import Slice
from repro.distributed.partition import partition_work
from repro.linalg import ensure_vector
from repro.obs import NULL_TRACER
from repro.resilience.chaos import ChaosInjector
from repro.resilience.retry import RetryPolicy, map_with_retries
from repro.streaming.accumulator import MergeableSliceStats, merge_stats


def partitioned_slice_stats(
    x0: np.ndarray,
    errors: np.ndarray,
    slices: Sequence[Slice],
    num_partitions: int,
    feature_space: FeatureSpace | None = None,
    num_threads: int = 1,
    tracer=NULL_TRACER,
    retry: RetryPolicy | None = None,
    chaos: ChaosInjector | None = None,
) -> MergeableSliceStats:
    """Evaluate *slices* over row partitions and reduce-merge at the driver.

    The result is exactly :meth:`MergeableSliceStats.from_batch` on the whole
    data (bitwise for integer sizes/maxima and dyadic-rational errors).  A
    shared *feature_space* is derived from the full ``x0`` when omitted so
    every partition encodes identically; *num_threads* > 1 evaluates
    partitions concurrently (scipy's matmul releases the GIL).

    With a *retry* policy, failed partition tasks are re-executed with
    backoff and stragglers are speculatively reassigned; the partials are
    left-folded **in partition order** regardless of completion/retry order,
    so — combined with the exact associative ``merge()`` — the merged
    statistics are unaffected by which attempts happened to succeed.
    *chaos* deterministically injects partition failures for testing that
    guarantee.
    """
    x0 = validate_encoded_matrix(x0, allow_missing=True)
    errors = ensure_vector(errors, x0.shape[0], "errors")
    space = feature_space or FeatureSpace.from_codes(x0)
    ranges = partition_work(x0.shape[0], num_partitions)
    with tracer.span(
        "distributed.accumulate",
        partitions=len(ranges),
        num_slices=len(slices),
        rows=int(x0.shape[0]),
    ) as span:
        def one_partition(rows: range) -> MergeableSliceStats:
            index = np.arange(rows.start, rows.stop)
            return MergeableSliceStats.from_batch(
                x0[index], errors[index], slices, feature_space=space
            )

        if retry is not None or chaos is not None:
            def task(pair, attempt):
                index, rows = pair
                if chaos is not None:
                    chaos.perturb(("accumulate", index), attempt)
                return one_partition(rows)

            partials, retry_stats = map_with_retries(
                task,
                list(enumerate(ranges)),
                policy=retry,
                num_threads=num_threads,
                task_name="accumulate partition",
            )
            retry_stats.merge_into(tracer_span=span)
        elif num_threads > 1 and len(ranges) > 1:
            with ThreadPoolExecutor(max_workers=num_threads) as pool:
                partials = list(pool.map(one_partition, ranges))
        else:
            partials = [one_partition(rows) for rows in ranges]
    if not partials:
        return MergeableSliceStats.empty(len(slices))
    return merge_stats(partials)


__all__ = ["partitioned_slice_stats"]
