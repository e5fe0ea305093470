"""Oracle-free metamorphic properties of the whole search.

Two input transformations must leave the answer unchanged, so each run is
checked against another run instead of against an oracle:

* **Column and value-code permutation.**  Permuting the feature columns
  and each feature's value codes renames every one-hot column, and with
  it every projected column id the pair stage, deduplication, compaction
  and the kernels see, but describes the same slices over the same rows.
  ``top_stats`` must stay bitwise equal (exact ties may pick other slices).
* **Power-of-two error scaling.**  ``e -> e * 2**7`` is exact, and the
  score is scale-free, so scores and ``top_slices_encoded`` must stay
  bitwise equal while the error columns scale exactly.

Each baseline runs on one thread and each transformed run on two, so every
comparison also crosses thread counts.  The two edge cases at the end are
inputs whose error sum overflows or whose mean underflows.
"""

import numpy as np
import pytest

from repro.core import SliceLineConfig, slice_line
from repro.core.types import StatsCol
from repro.datasets import load_dataset

#: dataset -> (scale, level cap): 0/1 errors (covtype, adult) and float
#: errors (kdd98, salaries), levels 2 to 4
CASES = {
    "covtype": (0.003, 3),
    "kdd98": (0.004, 2),
    "adult": (0.05, 3),
    "salaries": (1.0, 4),
}

ERROR_COLUMNS = [StatsCol.ERROR, StatsCol.MAX_ERROR]


def search(x0, errors, max_level, num_threads):
    return slice_line(
        x0, errors, SliceLineConfig(k=8, max_level=max_level),
        num_threads=num_threads,
    )


@pytest.fixture(scope="module", params=sorted(CASES))
def baseline(request):
    """``(x0, errors, max_level, one-thread result)``, once per case."""
    scale, max_level = CASES[request.param]
    bundle = load_dataset(request.param, scale=scale, seed=0)
    result = search(bundle.x0, bundle.errors, max_level, num_threads=1)
    return bundle.x0, bundle.errors, max_level, result


def permute_columns_and_codes(x0, seed):
    """Permute feature columns and each column's occurring value codes.

    The rows keep their order, so every slice's error sum adds the same
    floats in the same order; the missing code 0 stays 0.
    """
    rng = np.random.default_rng(seed)
    x = x0[:, rng.permutation(x0.shape[1])].copy()
    for j in range(x.shape[1]):
        codes = np.unique(x[:, j])
        codes = codes[codes > 0]
        lookup = np.zeros(int(codes[-1]) + 1, dtype=x.dtype)
        lookup[codes] = rng.permutation(codes)
        x[:, j] = lookup[x[:, j]]
    return x


def test_column_and_code_permutation_keeps_top_stats(baseline):
    x0, errors, max_level, base = baseline
    permuted = permute_columns_and_codes(x0, seed=x0.shape[1])
    assert not np.array_equal(permuted, x0)
    got = search(permuted, errors, max_level, num_threads=2)
    assert base.top_stats.shape[0] > 0
    assert got.top_stats.tobytes() == base.top_stats.tobytes()


def test_power_of_two_error_scaling(baseline):
    x0, errors, max_level, base = baseline
    got = search(x0, np.ldexp(errors, 7), max_level, num_threads=2)
    assert_scaled(base, got, 7)


def assert_scaled(base, got, k):
    """*got* ran on ``errors * 2**k``: same slices, exactly scaled errors."""
    encoded = got.top_slices_encoded
    assert encoded.tobytes() == base.top_slices_encoded.tobytes()
    for column in (StatsCol.SCORE, StatsCol.SIZE):
        assert got.top_stats[:, column].tobytes() == (
            base.top_stats[:, column].tobytes()
        )
    with np.errstate(over="ignore"):  # a sum past float64 reads inf
        want = np.ldexp(base.top_stats[:, ERROR_COLUMNS], k)
    assert got.top_stats[:, ERROR_COLUMNS].tobytes() == want.tobytes()


EDGE_X0 = np.array([[1, 2], [2, 1], [1, 1]])


@pytest.mark.parametrize(
    "errors, k, scores, sizes",
    [
        # sum(e) overflows to inf: the search runs on e * 2**-1024
        ([1e308, 0.0, 1e308], -1024, [0.44999999999999996, 0.3749999999999999],
         [2.0, 1.0]),
        # the mean underflows to 0: the search runs on e * 2**1073
        ([5e-324, 0.0, 0.0], 1073, [1.7999999999999998] * 2, [1.0, 1.0]),
    ],
    ids=["overflow", "underflow"],
)
def test_extreme_error_scales(errors, k, scores, sizes):
    errors = np.array(errors)
    config = SliceLineConfig(k=2, sigma=1)
    got = slice_line(EDGE_X0, errors, config)
    scaled = slice_line(EDGE_X0, np.ldexp(errors, k), config)
    assert got.top_stats[:, StatsCol.SCORE].tolist() == scores
    assert got.top_stats[:, StatsCol.SIZE].tolist() == sizes
    assert_scaled(scaled, got, -k)
    assert got.average_error == float(np.ldexp(scaled.average_error, -k))
