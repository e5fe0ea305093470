"""Feature-space metadata and one-hot encoding (Algorithm 1, lines 1-5).

The paper expects the input feature matrix ``X0`` in a 1-based,
contiguous integer encoding (codes ``1..d_j`` per feature ``F_j``).  This
module derives the per-feature domains ``fdom`` and offsets ``fb``/``fe``
and produces the sparse one-hot matrix ``X`` via the contingency-table
trick.  The search itself never builds ``X``: it reads the one-hot column
ids off the codes (:mod:`repro.core.basic`).  The :class:`FeatureSpace`
also provides the inverse mapping used to decode one-hot slice vectors
back into predicate form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from repro.exceptions import EncodingError, ShapeError
from repro.linalg import one_hot_encode


def validate_encoded_matrix(x0: np.ndarray, allow_missing: bool = False) -> np.ndarray:
    """Check that *x0* honours the 1-based contiguous integer contract.

    Returns the validated ``int64`` matrix: *x0* itself when it already is
    one (callers that keep it must copy it).  Codes must be integers in
    ``[1, d_j]`` (``0`` additionally allowed when *allow_missing*); fractional
    values or negatives raise :class:`EncodingError`.
    """
    arr = np.asarray(x0)
    if arr.ndim != 2:
        raise ShapeError(f"X0 must be 2-D, got shape {arr.shape}")
    if arr.size == 0:
        raise EncodingError("X0 must contain at least one row and column")
    if not np.issubdtype(arr.dtype, np.integer):
        as_int = arr.astype(np.int64)
        if not np.array_equal(as_int, arr):
            raise EncodingError("X0 must hold integer codes (recode/bin first)")
        arr = as_int
    else:
        arr = arr.astype(np.int64, copy=False)
    floor = 0 if allow_missing else 1
    if arr.min() < floor:
        raise EncodingError(
            f"X0 codes must be >= {floor} (1-based encoding"
            f"{'; 0 marks missing' if allow_missing else ''})"
        )
    return arr


@dataclass(frozen=True)
class FeatureSpace:
    """Domains and one-hot offsets of an integer-encoded feature matrix.

    ``domains[j]`` is ``d_j`` (``colMaxs`` of ``X0``), ``begins[j]``/
    ``ends[j]`` the half-open 0-based one-hot column range of feature ``j``
    (the paper's ``fb``/``fe`` in 1-based form), and ``num_onehot`` is ``l``.
    """

    domains: np.ndarray
    feature_names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        domains = np.asarray(self.domains, dtype=np.int64)
        if domains.ndim != 1 or domains.size == 0:
            raise ShapeError("domains must be a non-empty 1-D vector")
        if domains.min() < 1:
            raise EncodingError("every feature domain must be >= 1")
        object.__setattr__(self, "domains", domains)
        if self.feature_names is not None and len(self.feature_names) != domains.size:
            raise ShapeError("feature_names must align with domains")

    @classmethod
    def from_matrix(
        cls, x0: np.ndarray, feature_names: Sequence[str] | None = None
    ) -> "FeatureSpace":
        """Derive domains from the column maxima of ``X0``, validated here."""
        return cls.from_codes(
            validate_encoded_matrix(x0, allow_missing=True), feature_names
        )

    @classmethod
    def from_codes(
        cls, x0: np.ndarray, feature_names: Sequence[str] | None = None
    ) -> "FeatureSpace":
        """Derive domains from codes :func:`validate_encoded_matrix` returned."""
        domains = x0.max(axis=0)
        if domains.min() < 1:
            raise EncodingError("every feature must have at least one observed code")
        names = tuple(feature_names) if feature_names is not None else None
        return cls(domains=domains, feature_names=names)

    @property
    def num_features(self) -> int:
        """``m`` — the number of original integer features."""
        return int(self.domains.size)

    @property
    def begins(self) -> np.ndarray:
        """0-based start offset of each feature's one-hot block (``fb``)."""
        return np.cumsum(self.domains) - self.domains

    @property
    def ends(self) -> np.ndarray:
        """Exclusive end offset of each feature's one-hot block (``fe``)."""
        return np.cumsum(self.domains)

    @property
    def num_onehot(self) -> int:
        """``l`` — the total number of one-hot columns."""
        return int(self.domains.sum())

    def check_codes(self, x0: np.ndarray) -> None:
        """Raise unless a validated *x0* fits this space.

        *x0* must have one column per feature (:class:`ShapeError`) and
        hold no code beyond its feature's domain (:class:`EncodingError`).
        """
        if x0.shape[1] != self.num_features:
            raise ShapeError(
                f"X0 has {x0.shape[1]} features, feature space expects "
                f"{self.num_features}"
            )
        if (x0.max(axis=0) > self.domains).any():
            raise EncodingError("X0 holds codes beyond the declared domains")

    def encode(self, x0: np.ndarray) -> sp.csr_matrix:
        """One-hot encode *x0* into the sparse ``n x l`` matrix ``X``."""
        x0 = validate_encoded_matrix(x0, allow_missing=True)
        self.check_codes(x0)
        return one_hot_encode(x0, self.begins, self.num_onehot)

    def feature_of_column(self, column: int) -> int:
        """Original feature index owning one-hot *column*."""
        if not (0 <= column < self.num_onehot):
            raise ShapeError(f"one-hot column {column} out of range")
        return int(np.searchsorted(self.ends, column, side="right"))

    def column_value(self, column: int) -> int:
        """1-based code that one-hot *column* represents within its feature."""
        feature = self.feature_of_column(column)
        return int(column - self.begins[feature] + 1)

    def column_of(self, feature: int, value: int) -> int:
        """One-hot column of predicate ``feature == value`` (both validated)."""
        if not (0 <= feature < self.num_features):
            raise ShapeError(f"feature index {feature} out of range")
        if not (1 <= value <= self.domains[feature]):
            raise EncodingError(
                f"value {value} outside domain 1..{self.domains[feature]} "
                f"of feature {feature}"
            )
        return int(self.begins[feature] + value - 1)

    def decode_row(self, onehot_row: np.ndarray) -> dict[int, int]:
        """Decode a 0/1 one-hot slice vector into ``{feature: value}`` form."""
        row = np.asarray(onehot_row).ravel()
        if row.shape[0] != self.num_onehot:
            raise ShapeError(
                f"slice vector has length {row.shape[0]}, expected {self.num_onehot}"
            )
        predicates: dict[int, int] = {}
        for column in np.flatnonzero(row):
            feature = self.feature_of_column(int(column))
            if feature in predicates:
                raise EncodingError(
                    f"slice vector sets two values for feature {feature}"
                )
            predicates[feature] = self.column_value(int(column))
        return predicates
