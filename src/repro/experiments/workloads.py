"""Standard workload parameters for each experiment of Section 5."""

from __future__ import annotations

import math

from repro.core.config import SliceLineConfig

#: Figure 5 sweeps alpha over these values.
ALPHA_SWEEP_VALUES = (0.36, 0.68, 0.84, 0.92, 0.96, 0.98, 0.99)

#: Per-dataset lattice-level caps for the benchmarks.  The paper caps the
#: correlated datasets at 3-4 levels on a 112-vcore node; on a laptop we
#: additionally cap KDD98 at 2 (its level-3 self-join over ~1e5 surviving
#: parents is the one workload that genuinely needs the paper's hardware).
BENCH_LEVEL_CAPS = {
    "adult": 3,
    "covtype": 3,
    "kdd98": 2,
    "uscensus": 3,
    "uscensus10x": 3,
    "criteod21": 6,
    "salaries": None,
    "salaries2x2": None,
}


def bench_sigma(num_rows: int) -> int:
    """The experiments' minimum-support default ``sigma = ceil(n/100)``."""
    return max(1, math.ceil(num_rows / 100))


def bench_config(
    dataset: str,
    num_rows: int,
    k: int = 10,
    alpha: float = 0.95,
    **overrides,
) -> SliceLineConfig:
    """The Section 5 default configuration for *dataset*.

    ``alpha = 0.95``, ``sigma = ceil(n/100)`` and a dataset-specific level
    cap.
    """
    params = {
        "k": k,
        "alpha": alpha,
        "sigma": bench_sigma(num_rows),
        "max_level": BENCH_LEVEL_CAPS.get(dataset),
    }
    params.update(overrides)
    return SliceLineConfig(**params)
