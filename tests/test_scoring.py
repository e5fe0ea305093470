"""Tests for the scoring function (Eq. 1/5) and its upper bounds (Eq. 3)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scoring import (
    score,
    score_at_exact_size,
    score_at_size,
    score_single,
    score_upper_bound,
)
from repro.exceptions import ValidationError
from repro.linalg.kernels import pack_bool_rows, words_block_stats


class TestScoreProperties:
    """The paper's stated properties of the scoring function (Section 2.2)."""

    def test_full_dataset_scores_zero_for_any_alpha(self):
        # Property 2: the score of X itself is always 0.
        for alpha in (0.1, 0.5, 0.95, 1.0):
            assert score_single(100, 40.0, 100, 40.0, alpha) == pytest.approx(0.0)

    def test_alpha_half_balances_error_and_size(self):
        # Property 1: at alpha=0.5 the two components carry equal weight:
        # sc = (se_bar/e_bar - n/|S|) / 2, so doubling the relative error
        # while halving the size doubles both components symmetrically.
        n, total = 1000, 500.0
        avg = total / n
        s1 = score_single(500, 500 * (2 * avg), n, total, 0.5)  # r=2, z=2
        s2 = score_single(250, 250 * (4 * avg), n, total, 0.5)  # r=4, z=4
        # on the zero contour (r == z) the trade is exactly score-neutral
        assert s1 == pytest.approx(0.0)
        assert s2 == pytest.approx(0.0)
        # off the contour the score scales linearly with the doubling
        a = score_single(500, 500 * (3 * avg), n, total, 0.5)  # r=3, z=2
        b = score_single(250, 250 * (6 * avg), n, total, 0.5)  # r=6, z=4
        assert b == pytest.approx(2 * a)

    def test_alpha_one_ignores_size(self):
        n, total = 1000, 100.0
        a = score_single(10, 10 * 0.5, n, total, 1.0)
        b = score_single(500, 500 * 0.5, n, total, 1.0)
        assert a == pytest.approx(b)

    def test_empty_slice_is_negative_infinity(self):
        assert score_single(0, 0.0, 100, 10.0, 0.9) == -np.inf

    def test_above_average_error_scores_positive_when_large(self):
        n, total = 1000, 100.0
        assert score_single(500, 500 * 0.2 * 2, n, total, 0.95) > 0

    def test_vectorized_matches_scalar(self):
        sizes = np.array([10.0, 50.0, 100.0])
        errors = np.array([5.0, 10.0, 30.0])
        vec = score(sizes, errors, 200, 60.0, 0.9)
        for i in range(3):
            assert vec[i] == pytest.approx(
                score_single(sizes[i], errors[i], 200, 60.0, 0.9)
            )

    def test_zero_total_error_rejected(self):
        with pytest.raises(ValidationError):
            score(np.array([1.0]), np.array([0.0]), 10, 0.0, 0.5)

    def test_zero_rows_rejected(self):
        with pytest.raises(ValidationError):
            score(np.array([1.0]), np.array([0.0]), 0, 1.0, 0.5)


class TestScoreUpperBound:
    def test_bound_dominates_actual_score(self):
        # For a slice with known stats, the bound computed from those exact
        # stats must be >= its true score.
        n, total, sigma, alpha = 500, 100.0, 5, 0.9
        size, error, max_error = 50.0, 30.0, 2.0
        actual = score_single(size, error, n, total, alpha)
        bound = score_upper_bound(
            np.array([size]), np.array([error]), np.array([max_error]),
            n, total, sigma, alpha,
        )[0]
        assert bound >= actual - 1e-9

    def test_bound_empty_interval_is_minus_inf(self):
        # size bound below sigma: no valid slice can exist underneath
        bound = score_upper_bound(
            np.array([3.0]), np.array([5.0]), np.array([1.0]), 100, 10.0, 5, 0.9
        )[0]
        assert bound == -np.inf

    def test_bound_monotone_in_size_bound(self):
        n, total, sigma, alpha = 1000, 200.0, 10, 0.9
        bounds = score_upper_bound(
            np.array([20.0, 50.0, 400.0]),
            np.array([30.0, 30.0, 30.0]),
            np.array([1.5, 1.5, 1.5]),
            n, total, sigma, alpha,
        )
        assert bounds[0] <= bounds[1] + 1e-12
        assert bounds[1] <= bounds[2] + 1e-12

    def test_bound_monotone_in_error_bound(self):
        n, total, sigma, alpha = 1000, 200.0, 10, 0.9
        bounds = score_upper_bound(
            np.array([100.0, 100.0]),
            np.array([10.0, 40.0]),
            np.array([1.0, 1.0]),
            n, total, sigma, alpha,
        )
        assert bounds[0] <= bounds[1] + 1e-12

    def test_zero_max_error_gives_nonpositive_interesting_scores(self):
        # With sm = 0 the hypothetical child carries zero error.
        bound = score_upper_bound(
            np.array([50.0]), np.array([10.0]), np.array([0.0]),
            200, 50.0, 5, 0.9,
        )[0]
        assert bound <= 0.0

    def test_score_at_size_caps_error_by_size_times_max(self):
        vals = score_at_size(
            np.array([10.0]), np.array([100.0]), np.array([0.5]),
            100, 50.0, 0.9,
        )
        # effective error is min(100, 10*0.5) = 5
        manual = 0.9 * ((100 * 5.0) / (10.0 * 50.0) - 1) - 0.1 * (100 / 10.0 - 1)
        assert vals[0] == pytest.approx(manual)

    @settings(max_examples=200, deadline=None)
    @given(
        size=st.floats(1, 1000),
        avg_err=st.floats(0.001, 10),
        max_err_factor=st.floats(1.0, 20.0),
        alpha=st.floats(0.01, 1.0),
        sigma=st.integers(1, 50),
    )
    def test_property_bound_dominates_own_score(
        self, size, avg_err, max_err_factor, alpha, sigma
    ):
        """ceil(sc) from a slice's exact stats bounds its own score."""
        n, total = 2000, 1500.0
        error = size * avg_err
        max_error = avg_err * max_err_factor
        if size < sigma:
            return  # bound legitimately -inf; slice itself invalid
        actual = score_single(size, min(error, size * max_error), n, total, alpha)
        bound = score_upper_bound(
            np.array([size]), np.array([error]), np.array([max_error]),
            n, total, sigma, alpha,
        )[0]
        assert bound >= actual - 1e-6


class TestScoreAtExactSize:
    """The size-first point bound against the kernel's own float sums."""

    #: ``fl(31 * M)`` is below the sequential sum of 31 copies of ``M``.
    EQUAL_MAX = 0.7294965609839984

    def kernel_stats(self, members, errors):
        """``(ss, se, sm)`` as the bitset kernel computes them."""
        sizes, slice_errors, max_errors, _ = words_block_stats(
            pack_bool_rows(members), errors, errors.size
        )
        return sizes, slice_errors, max_errors

    def adversarial(self, seed=0, trials=300):
        """Blocks of rows that share one maximum error, one block per slice.

        Half the blocks hold only that maximum (the largest sum a slice of
        that size and maximum can reach), the other half mix in smaller
        errors.  Sizes reach 150 rows, maxima span 1e-6..1e6.
        """
        gen = np.random.default_rng(seed)
        sizes = gen.integers(1, 151, size=trials)
        maxima = gen.random(trials) * 10.0 ** gen.uniform(-6, 6, size=trials)
        blocks = []
        for size, maximum, full in zip(sizes, maxima, np.arange(trials) % 2):
            block = np.full(size, maximum)
            if not full:
                block[1:] *= gen.random(size - 1)
            blocks.append(block)
        errors = np.concatenate(blocks)
        members = np.zeros((trials, errors.size), dtype=bool)
        starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        for row, (start, size) in enumerate(zip(starts, sizes)):
            members[row, start : start + size] = True
        return members, errors

    @pytest.mark.parametrize("alpha", [0.5, 0.95, 1.0])
    def test_dominates_kernel_scores(self, alpha):
        members, errors = self.adversarial()
        num_rows, total = errors.size, float(errors.sum())
        sizes, slice_errors, max_errors = self.kernel_stats(members, errors)
        actual = score(sizes, slice_errors, num_rows, total, alpha)
        # Parent sums at the slice's own sum (a tight parent) and far above
        # it (the cap decides).
        for error_bounds in (slice_errors, np.full(sizes.size, np.inf)):
            bound = score_at_exact_size(
                sizes, error_bounds, max_errors, num_rows, total, 1, alpha
            )
            assert (bound >= actual).all()

    def test_margin_is_needed(self):
        """Without its margin the cap rounds below the summed errors."""
        num_rows, size = 200, 31
        errors = np.full(num_rows, self.EQUAL_MAX / 2)
        errors[:size] = self.EQUAL_MAX
        members = np.zeros((1, num_rows), dtype=bool)
        members[0, :size] = True
        sizes, slice_errors, max_errors = self.kernel_stats(members, errors)
        total = float(errors.sum())
        actual = score(sizes, slice_errors, num_rows, total, 0.95)
        assert slice_errors[0] > size * self.EQUAL_MAX
        no_margin = score(sizes, sizes * max_errors, num_rows, total, 0.95)
        assert no_margin[0] < actual[0]
        bound = score_at_exact_size(
            sizes, np.array([np.inf]), max_errors, num_rows, total, 1, 0.95
        )
        assert bound[0] >= actual[0]

    def test_below_sigma_and_empty_are_minus_inf(self):
        bound = score_at_exact_size(
            np.array([0.0, 4.0, 5.0]), np.full(3, 10.0), np.full(3, 1.0),
            100, 50.0, 5, 0.95,
        )
        assert bound[0] == -np.inf and bound[1] == -np.inf
        assert np.isfinite(bound[2])

    def test_overflowing_cap_is_harmless(self):
        bound = score_at_exact_size(
            np.array([1000.0]), np.array([1e300]), np.array([1e306]),
            1000, 1e301, 1, 0.95,
        )
        want = score(np.array([1000.0]), np.array([1e300]), 1000, 1e301, 0.95)
        assert bound.tobytes() == want.tobytes()
