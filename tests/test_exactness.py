"""Exactness certification: SliceLine vs the brute-force oracle.

The central claim of the paper is *exact* top-K enumeration despite
aggressive pruning.  These tests compare SliceLine's output against
exhaustive enumeration on randomized problems across the parameter space
(k, sigma, alpha, pruning configurations, priority evaluation), bit for
bit: the oracle sums each slice's errors in row order, as the kernel does.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import naive_top_k
from repro.core import PruningConfig, SliceLineConfig, slice_line
from tests.conftest import random_small_problem


def assert_matches_oracle(x0, errors, k, sigma, alpha, config=None):
    cfg = config or SliceLineConfig(k=k, sigma=sigma, alpha=alpha)
    oracle = naive_top_k(x0, errors, k, sigma, alpha)
    got = slice_line(x0, errors, cfg).top_slices
    assert len(got) == len(oracle), (
        f"result count differs: {len(got)} vs oracle {len(oracle)}"
    )
    for ours, theirs in zip(got, oracle):
        assert ours.score == theirs.score
        assert ours.size == theirs.size
        assert ours.error == theirs.error
        assert ours.max_error == theirs.max_error


@pytest.mark.parametrize("seed", range(20))
def test_exact_on_random_problems(seed):
    x0, errors, k, sigma, alpha = random_small_problem(seed)
    assert_matches_oracle(x0, errors, k, sigma, alpha)


@pytest.mark.parametrize("alpha", [0.05, 0.36, 0.5, 0.84, 0.95, 1.0])
def test_exact_across_alpha(alpha):
    x0, errors, k, sigma, _ = random_small_problem(777)
    assert_matches_oracle(x0, errors, 5, 3, alpha)


@pytest.mark.parametrize("sigma", [1, 2, 5, 15, 40])
def test_exact_across_sigma(sigma):
    x0, errors, _, _, alpha = random_small_problem(888)
    assert_matches_oracle(x0, errors, 5, sigma, 0.9)


@pytest.mark.parametrize("k", [1, 2, 4, 10, 50])
def test_exact_across_k(k):
    x0, errors, _, sigma, alpha = random_small_problem(999)
    assert_matches_oracle(x0, errors, k, max(sigma, 2), alpha)


@pytest.mark.parametrize("label", list(PruningConfig.ablation_arms()))
def test_exact_under_every_pruning_arm(label):
    """Disabling pruning techniques must never change the result set."""
    arm = PruningConfig.ablation_arms()[label]
    x0, errors, k, sigma, alpha = random_small_problem(4242)
    cfg = SliceLineConfig(
        k=k, sigma=sigma, alpha=alpha, pruning=arm, priority_evaluation=False
    )
    assert_matches_oracle(x0, errors, k, sigma, alpha, config=cfg)


def test_exact_with_priority_evaluation_tiny_chunks():
    x0, errors, k, sigma, alpha = random_small_problem(31337)
    cfg = SliceLineConfig(
        k=k, sigma=sigma, alpha=alpha, priority_evaluation=True, priority_chunk=2
    )
    assert_matches_oracle(x0, errors, k, sigma, alpha, config=cfg)


def test_exact_with_binary_errors():
    gen = np.random.default_rng(5)
    x0 = np.column_stack([gen.integers(1, 4, size=120) for _ in range(3)])
    errors = (gen.random(120) < 0.3).astype(float)
    assert_matches_oracle(x0, errors, 4, 5, 0.95)


def test_exact_with_constant_errors():
    gen = np.random.default_rng(6)
    x0 = np.column_stack([gen.integers(1, 3, size=80) for _ in range(3)])
    errors = np.ones(80)
    # every slice has exactly average error: nothing scores > 0
    assert naive_top_k(x0, errors, 5, 2, 0.9) == []
    assert slice_line(x0, errors, SliceLineConfig(k=5, sigma=2, alpha=0.9)).top_slices == []


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    k=st.integers(1, 6),
    sigma=st.integers(1, 12),
    alpha=st.floats(0.1, 1.0),
)
def test_property_exactness(seed, k, sigma, alpha):
    """Hypothesis sweep: SliceLine == oracle for arbitrary configurations."""
    gen = np.random.default_rng(seed)
    n = int(gen.integers(30, 100))
    m = int(gen.integers(2, 4))
    x0 = np.column_stack(
        [gen.integers(1, int(gen.integers(2, 4)) + 1, size=n) for _ in range(m)]
    ).astype(np.int64)
    errors = gen.random(n) * (gen.random(n) < 0.5)
    if errors.sum() == 0:
        errors[0] = 0.5
    assert_matches_oracle(x0, errors, k, sigma, alpha)
