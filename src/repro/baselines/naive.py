"""Exhaustive slice enumeration: the exactness oracle.

Enumerates *every* node of the slice lattice (all conjunctions of at most
one predicate per feature) by explicit row-set intersection, scores each
with the paper's scoring function, and returns the exact top-K under the
``|S| >= sigma`` and ``sc > 0`` constraints of Definition 2.

This is exponential in the number of features and is only intended for
small inputs; the test suite uses it to certify that SliceLine's pruned,
vectorized enumeration returns identical results, bit for bit: a slice's
error is the left-to-right sum of its members' errors in row order, the
fold the evaluation kernel computes (see :mod:`repro.linalg.kernels`).
``np.sum`` would add pairwise and round differently on long slices.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterator, Mapping

import numpy as np

from repro.core.onehot import validate_encoded_matrix
from repro.core.scoring import score_single
from repro.linalg import ensure_vector


@dataclass(frozen=True)
class NaiveSlice:
    """One fully evaluated lattice node from the exhaustive enumeration."""

    predicates: Mapping[int, int]
    score: float
    error: float
    max_error: float
    size: int

    @property
    def level(self) -> int:
        return len(self.predicates)

    def sort_key(self) -> tuple:
        """Deterministic ordering: score desc, size desc, error desc."""
        return (-self.score, -self.size, -self.error, tuple(sorted(self.predicates.items())))


def enumerate_all_slices(
    x0: np.ndarray,
    errors: np.ndarray,
    alpha: float,
    max_level: int | None = None,
) -> Iterator[NaiveSlice]:
    """Yield every non-empty lattice node with its exact statistics.

    The search space follows Section 3.1: all subsets of features with one
    value per chosen feature, levels 1..``max_level`` (default ``m``).
    """
    x0 = validate_encoded_matrix(x0, allow_missing=True)
    num_rows, num_features = x0.shape
    errors = ensure_vector(errors, num_rows, "errors")
    total_error = float(errors.sum())
    domains = x0.max(axis=0)
    depth = num_features if max_level is None else min(max_level, num_features)

    for level in range(1, depth + 1):
        for features in combinations(range(num_features), level):
            domain_ranges = [range(1, domains[f] + 1) for f in features]
            for values in product(*domain_ranges):
                mask = np.ones(num_rows, dtype=bool)
                for feature, value in zip(features, values):
                    mask &= x0[:, feature] == value
                size = int(mask.sum())
                if size == 0:
                    continue
                slice_errors = errors[mask]
                error = float(np.cumsum(slice_errors)[-1])
                yield NaiveSlice(
                    predicates=dict(zip(features, values)),
                    score=score_single(size, error, num_rows, total_error, alpha),
                    error=error,
                    max_error=float(slice_errors.max()),
                    size=size,
                )


def naive_top_k(
    x0: np.ndarray,
    errors: np.ndarray,
    k: int,
    sigma: int,
    alpha: float,
    max_level: int | None = None,
) -> list[NaiveSlice]:
    """Exact top-K problematic slices per Definition 2 (brute force).

    Returns at most *k* slices with ``|S| >= sigma`` and ``sc > 0``, sorted
    by descending score (ties broken by size, then error, then predicates).
    """
    valid = [
        s
        for s in enumerate_all_slices(x0, errors, alpha, max_level)
        if s.size >= sigma and s.score > 0
    ]
    valid.sort(key=NaiveSlice.sort_key)
    return valid[:k]
