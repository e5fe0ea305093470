"""Prediction-log mini-batches: the unit of streaming ingestion.

A :class:`PredictionBatch` is one scoring-time chunk of model traffic — an
integer-encoded feature matrix plus the row-aligned error vector the deployed
model produced on it — stamped with an event time and a monotonically
increasing batch id.  Batches are immutable; the window and monitor layers
only ever concatenate or re-evaluate them, never mutate them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.onehot import validate_encoded_matrix
from repro.exceptions import StreamingError
from repro.linalg import ensure_vector


@dataclass(frozen=True)
class PredictionBatch:
    """One mini-batch of a prediction log.

    ``x0`` uses the paper's 1-based integer encoding (0 = missing value) and
    ``errors`` the same non-negative per-row error convention as
    :func:`repro.core.slice_line`; ``timestamp`` is the batch's event time in
    seconds and ``batch_id`` its position in the stream.
    """

    x0: np.ndarray
    errors: np.ndarray
    timestamp: float = 0.0
    batch_id: int = 0

    def __post_init__(self) -> None:
        x0 = validate_encoded_matrix(self.x0, allow_missing=True)
        errors = ensure_vector(self.errors, x0.shape[0], "errors")
        if (errors < 0).any():
            raise StreamingError("batch errors must be non-negative")
        # Own copies: validation hands back the caller's buffers when they
        # already have the right dtype, and the caller may reuse them.
        object.__setattr__(self, "x0", x0.copy())
        object.__setattr__(self, "errors", errors.copy())

    @property
    def num_rows(self) -> int:
        return int(self.x0.shape[0])

    @property
    def num_features(self) -> int:
        return int(self.x0.shape[1])

    @property
    def total_error(self) -> float:
        return float(self.errors.sum())


def concat_batches(
    batches: Sequence[PredictionBatch],
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate batches (in the given order) into one ``(x0, errors)`` pair.

    Row order is ingestion order, which is what makes a from-scratch
    :func:`repro.core.slice_line` run on the result the exactness oracle for
    the incremental monitor.  All batches must agree on the feature count.
    """
    if not batches:
        raise StreamingError("cannot concatenate an empty batch sequence")
    num_features = batches[0].num_features
    for batch in batches:
        if batch.num_features != num_features:
            raise StreamingError(
                f"batch {batch.batch_id} has {batch.num_features} features, "
                f"expected {num_features}"
            )
    x0 = np.vstack([batch.x0 for batch in batches])
    errors = np.concatenate([batch.errors for batch in batches])
    return x0, errors


__all__ = ["PredictionBatch", "concat_batches"]
