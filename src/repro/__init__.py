"""SliceLine reproduction: fast, linear-algebra-based slice finding.

Reproduces Sagadeeva & Boehm, "SliceLine: Fast, Linear-Algebra-based Slice
Finding for ML Model Debugging" (SIGMOD 2021) as a self-contained Python
library on numpy/scipy.sparse.

Quickstart
----------
>>> from repro import SliceLine
>>> finder = SliceLine(k=4, alpha=0.95)
>>> finder.fit(x0, errors)                         # doctest: +SKIP
>>> print(finder.report())                         # doctest: +SKIP
"""

from repro.core import (
    FeatureSpace,
    PruningConfig,
    Slice,
    SliceLine,
    SliceLineConfig,
    SliceLineResult,
    slice_line,
)
from repro.resilience import (
    BatchQuarantine,
    BudgetConfig,
    ChaosInjector,
)
from repro.serve import JobSpec, SliceService
from repro.streaming import (
    MergeableSliceStats,
    MonitorTick,
    PredictionBatch,
    SliceMonitor,
)

__version__ = "1.0.0"

__all__ = [
    "FeatureSpace",
    "PruningConfig",
    "Slice",
    "SliceLine",
    "SliceLineConfig",
    "SliceLineResult",
    "slice_line",
    "BatchQuarantine",
    "BudgetConfig",
    "ChaosInjector",
    "JobSpec",
    "SliceService",
    "MergeableSliceStats",
    "MonitorTick",
    "PredictionBatch",
    "SliceMonitor",
    "__version__",
]
