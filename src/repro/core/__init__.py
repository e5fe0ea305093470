"""Core SliceLine algorithm: scoring, pruning, enumeration, evaluation.

Public entry points are :func:`slice_line` (the Algorithm-1 driver) and the
:class:`SliceLine` estimator; the submodules expose the individual kernels
(basic slices, pair enumeration, vectorized evaluation, top-K maintenance)
for composition and testing.
"""

from repro.core.algorithm import SliceLine, slice_line
from repro.core.basic import BasicSlices, create_and_score_basic_slices
from repro.core.compaction import CompactionState, compact_slice_set
from repro.core.config import PruningConfig, SliceLineConfig
from repro.core.decode import decode_topk, encode_slices, slice_membership
from repro.core.evaluate import (
    SliceSetStats,
    evaluate_slice_set,
    evaluate_slices,
)
from repro.core.onehot import FeatureSpace, validate_encoded_matrix
from repro.core.pairs import (
    PairJoinPlan,
    choose_pair_plan,
    get_pair_candidates,
)
from repro.core.scoring import (
    score,
    score_at_size,
    score_single,
    score_upper_bound,
)
from repro.core.topk import empty_topk, maintain_topk, topk_min_score
from repro.core.types import (
    LevelStats,
    Slice,
    SliceLineResult,
    StatsCol,
    WarmStartInfo,
    empty_stats,
    stats_matrix,
)

__all__ = [
    "SliceLine",
    "slice_line",
    "BasicSlices",
    "create_and_score_basic_slices",
    "CompactionState",
    "compact_slice_set",
    "PruningConfig",
    "SliceLineConfig",
    "decode_topk",
    "encode_slices",
    "slice_membership",
    "SliceSetStats",
    "evaluate_slice_set",
    "evaluate_slices",
    "FeatureSpace",
    "validate_encoded_matrix",
    "PairJoinPlan",
    "choose_pair_plan",
    "get_pair_candidates",
    "score",
    "score_at_size",
    "score_single",
    "score_upper_bound",
    "empty_topk",
    "maintain_topk",
    "topk_min_score",
    "LevelStats",
    "Slice",
    "SliceLineResult",
    "StatsCol",
    "WarmStartInfo",
    "empty_stats",
    "stats_matrix",
]
