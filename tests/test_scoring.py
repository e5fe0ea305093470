"""Tests for the scoring function (Eq. 1/5) and its upper bounds (Eq. 3)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scoring import (
    plane_error_cap,
    score,
    score_at_exact_size,
    score_at_size,
    score_single,
    score_upper_bound,
)
from repro.exceptions import ValidationError
import repro.linalg.kernels as kernels_mod
from repro.linalg.kernels import (
    ERROR_PLANE_BITS,
    NUM_ERROR_PLANES,
    PLANE_PASSES,
    ErrorPlanes,
    pack_bool_rows,
    pack_error_planes,
    popcount_rows,
    unpack_bool_rows,
    words_block_stats,
)


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
        return words_block_stats(pack_bool_rows(members), errors, errors.size)

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


#: The smallest subnormal float64, ``2**-1074``.
TINY = 5e-324


def plane_errors(flavor, seed=0, n=600):
    """Error vectors that stress the bit-plane cap.

    ``multiples`` are exact multiples of the planes' step, so the plane sum
    is the fold itself and the cap has no slack.  ``equal-max`` holds 31
    copies of :attr:`TestScoreAtExactSize.EQUAL_MAX`, whose fold exceeds
    ``fl(31*M)``.  In ``outlier`` one error of 1e6 makes the step 4096, and
    smallest subnormals there divide to an underflowed quotient.
    ``80-bit`` spans ``2**-40..2**40`` like salaries.  ``subnormal`` lies
    wholly below the normal range, and so does its step.  ``top-plane``
    errors lie in the top 1/256 of their binade, so every ``q`` is
    ``2**ERROR_PLANE_BITS`` and sets only the top plane.
    """
    gen = np.random.default_rng(seed)
    if flavor == "multiples":
        errors = gen.integers(0, 256, size=n) * 2.0**-ERROR_PLANE_BITS
        errors[0] = 255 * 2.0**-ERROR_PLANE_BITS
    elif flavor == "equal-max":
        errors = gen.random(n) * TestScoreAtExactSize.EQUAL_MAX / 2
        errors[:31] = TestScoreAtExactSize.EQUAL_MAX
    elif flavor == "outlier":
        errors = gen.random(n)
        errors[gen.random(n) < 0.05] = TINY
        errors[n // 2] = 1e6
    elif flavor == "80-bit":
        errors = 2.0 ** gen.uniform(-40, 40, size=n)
    elif flavor == "subnormal":
        errors = gen.integers(0, 2**20, size=n) * TINY
    else:  # top-plane
        errors = 1.0 - gen.random(n) / 2**ERROR_PLANE_BITS
    return errors


PLANE_FLAVORS = (
    "multiples", "equal-max", "outlier", "80-bit", "subnormal", "top-plane",
)


class TestPlaneErrorCap:
    """The bit-plane cap against the kernel's own sequential fold."""

    def subsets(self, errors, seed=1, count=300):
        """Every single row, the whole set, the first 31 rows, and random
        subsets whose densities run from 1% to 100%."""
        n = errors.size
        gen = np.random.default_rng(seed)
        density = gen.uniform(0.01, 1.0, size=(count, 1))
        members = np.vstack([
            np.eye(n, dtype=bool),
            np.ones((1, n), dtype=bool),
            np.arange(n)[np.newaxis, :] < 31,
            gen.random((count, n)) < density,
        ])
        return pack_bool_rows(members)

    def folds_and_caps(self, errors):
        words = self.subsets(errors)
        _, folds, _ = words_block_stats(words, errors, errors.size)
        planes = pack_error_planes(errors)
        sums = planes.sums(words, 0, NUM_ERROR_PLANES)
        return words, folds, planes, sums, plane_error_cap(sums, planes.step)

    @pytest.mark.parametrize("flavor", PLANE_FLAVORS)
    def test_dominates_kernel_fold(self, flavor):
        errors = plane_errors(flavor)
        _, folds, _, _, caps = self.folds_and_caps(errors)
        assert (caps >= folds).all()
        # Each single row's cap is its own quantized error.
        assert (caps[: errors.size] >= errors).all()

    @pytest.mark.parametrize("flavor", PLANE_FLAVORS)
    def test_top_planes_bound_the_full_sum(self, flavor):
        """A pass over planes ``low..`` plus the most the planes below can
        add (``2**low - 1`` per positive member) is at least ``Q``."""
        errors = plane_errors(flavor)
        words, _, planes, sums, _ = self.folds_and_caps(errors)
        positives = popcount_rows(
            words & pack_bool_rows((errors > 0)[np.newaxis, :])
        )
        for low in range(NUM_ERROR_PLANES + 1):
            high = planes.sums(words, low, NUM_ERROR_PLANES)
            assert (high + planes.sums(words, 0, low) == sums).all()
            assert (high + ((1 << low) - 1) * positives >= sums).all()

    def test_tight_on_exact_multiples(self):
        """No slack: the cap is exactly the fold, so any smaller cap (a
        floor, a lost plane, a rounded-down product) would fail above."""
        errors = plane_errors("multiples")
        _, folds, planes, _, caps = self.folds_and_caps(errors)
        assert planes.step == 2.0**-ERROR_PLANE_BITS
        assert (caps == folds).all()

    def test_equal_max_fold_exceeds_product(self):
        errors = plane_errors("equal-max")
        _, folds, _, _, caps = self.folds_and_caps(errors)
        first_31 = errors.size + 1
        assert folds[first_31] > 31 * TestScoreAtExactSize.EQUAL_MAX
        assert caps[first_31] >= folds[first_31]

    @pytest.mark.parametrize("bitwise_count", [True, False])
    def test_sums_equal_per_plane_popcounts(self, bitwise_count, monkeypatch):
        """Per-word accumulation, reduced once, is the per-plane row sum,
        on ``np.bitwise_count`` and on the byte-LUT fallback, up to the
        largest per-word total (every bit of every plane set)."""
        if bitwise_count and not hasattr(np, "bitwise_count"):
            pytest.skip("numpy without np.bitwise_count")
        monkeypatch.setattr(kernels_mod, "_HAS_BITWISE_COUNT", bitwise_count)
        gen = np.random.default_rng(8)
        errors = plane_errors("80-bit")
        full = ErrorPlanes(
            np.full((NUM_ERROR_PLANES, 3), ~np.uint64(0)), 1.0
        )
        for planes in (pack_error_planes(errors), full):
            shape = (200, planes.words.shape[1])
            words = gen.integers(0, 2**64, size=shape, dtype=np.uint64)
            words[0] = ~np.uint64(0)
            bits = unpack_bool_rows(words, 64 * shape[1])
            for low, high in PLANE_PASSES + ((0, NUM_ERROR_PLANES),):
                want = np.zeros(shape[0], dtype=np.int64)
                for plane in range(low, high):
                    plane_bits = unpack_bool_rows(
                        planes.words[plane][np.newaxis, :], 64 * shape[1]
                    )
                    want += (bits & plane_bits).sum(axis=1) << plane
                got = planes.sums(words, low, high)
                assert got.dtype == np.int64
                assert np.array_equal(got, want), (low, high)

    def test_underflowed_quotient_is_bumped(self):
        errors = plane_errors("outlier")
        planes = pack_error_planes(errors)
        assert planes.step == 4096.0 and TINY / planes.step == 0.0
        tiny = np.flatnonzero(errors == TINY)
        rows = pack_bool_rows(np.eye(errors.size, dtype=bool)[tiny])
        assert (planes.sums(rows, 0, NUM_ERROR_PLANES) == 1).all()

    def test_edges(self):
        # No positive error, or a step that underflows: no planes.
        assert pack_error_planes(np.zeros(4)) is None
        assert pack_error_planes(np.array([-0.0, 0.0])) is None
        assert pack_error_planes(np.full(4, TINY)) is None
        # A sum past 2**53 or an overflowing product caps nothing away.
        caps = plane_error_cap(np.array([2**53 - 1, 2**53, 3]), 2.0**1023)
        assert caps[0] == np.inf and caps[1] == np.inf and caps[2] == np.inf
        caps = plane_error_cap(np.array([2**53 - 1, 2**53]), 1.0)
        assert caps[0] == 2.0**53 - 1 and caps[1] == np.inf

