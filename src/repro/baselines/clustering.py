"""Clustering-based slice finding baseline.

SliceFinder's third strategy clusters the (featurized) data and inspects
clusters with elevated error.  We reproduce that idea: K-Means over the
one-hot encoding, then for each high-error cluster a slice *description* is
distilled as the set of feature values that dominate the cluster (purity
above a threshold).  The output is approximate — descriptions need not
match the cluster exactly — which is the known weakness the paper cites.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.core.onehot import FeatureSpace, validate_encoded_matrix
from repro.linalg import ensure_vector, to_dense
from repro.ml.kmeans import KMeans


@dataclass(frozen=True)
class ClusterSlice:
    """A cluster-derived slice description with its cluster statistics."""

    predicates: Mapping[int, int]
    cluster_size: int
    cluster_average_error: float
    description_purity: float


@dataclass
class ClusteringSlicer:
    """K-Means over one-hot features; high-error clusters become slices."""

    num_clusters: int = 8
    purity_threshold: float = 0.8
    k: int = 4
    seed: int = 7
    #: set by :meth:`find`
    cluster_errors_: np.ndarray = field(default=None, repr=False)

    def find(self, x0: np.ndarray, errors: np.ndarray) -> list[ClusterSlice]:
        """Cluster the data and describe the worst clusters as slices."""
        x0 = validate_encoded_matrix(x0, allow_missing=True)
        errors = ensure_vector(errors, x0.shape[0], "errors")
        space = FeatureSpace.from_codes(x0)
        dense = to_dense(space.encode(x0))

        model = KMeans(
            num_clusters=min(self.num_clusters, x0.shape[0]), seed=self.seed
        )
        labels = model.fit_predict(dense)

        overall = float(errors.mean())
        cluster_avg = np.array(
            [
                errors[labels == c].mean() if (labels == c).any() else 0.0
                for c in range(model.num_clusters)
            ]
        )
        self.cluster_errors_ = cluster_avg

        results: list[ClusterSlice] = []
        for cluster in np.argsort(-cluster_avg):
            if cluster_avg[cluster] <= overall:
                break
            member_rows = x0[labels == cluster]
            if member_rows.shape[0] == 0:
                continue
            predicates, purity = self._describe(member_rows)
            if predicates:
                results.append(
                    ClusterSlice(
                        predicates=predicates,
                        cluster_size=int(member_rows.shape[0]),
                        cluster_average_error=float(cluster_avg[cluster]),
                        description_purity=purity,
                    )
                )
            if len(results) >= self.k:
                break
        return results

    def _describe(
        self, member_rows: np.ndarray
    ) -> tuple[dict[int, int], float]:
        """Dominant value per feature where purity clears the threshold."""
        predicates: dict[int, int] = {}
        purities: list[float] = []
        for feature in range(member_rows.shape[1]):
            values, counts = np.unique(member_rows[:, feature], return_counts=True)
            top = counts.argmax()
            purity = counts[top] / member_rows.shape[0]
            if purity >= self.purity_threshold and values[top] > 0:
                predicates[feature] = int(values[top])
                purities.append(float(purity))
        overall_purity = float(np.mean(purities)) if purities else 0.0
        return predicates, overall_purity
