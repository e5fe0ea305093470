"""End-to-end tests of the Algorithm-1 driver and the SliceLine estimator."""

import time

import numpy as np
import pytest

from repro.core import (
    FeatureSpace,
    PruningConfig,
    Slice,
    SliceLine,
    SliceLineConfig,
    slice_line,
    slice_membership,
)
from repro.core import algorithm as algorithm_mod
from repro.core.evaluate import evaluate_slices
from repro.core.topk import empty_topk, maintain_topk, topk_min_score
from repro.core.types import StatsCol
from repro.exceptions import ShapeError
from repro.obs import LevelCounters
from repro.resilience import BudgetConfig, BudgetTracker


class TestSliceLineFunction:
    def test_finds_planted_slice(self, planted_dataset):
        x0, errors, predicates = planted_dataset
        res = slice_line(x0, errors, SliceLineConfig(k=3, sigma=10))
        assert dict(res.top_slices[0].predicates) == predicates

    def test_result_sorted_descending(self, planted_dataset):
        x0, errors, _ = planted_dataset
        res = slice_line(x0, errors, SliceLineConfig(k=8, sigma=5))
        scores = [s.score for s in res.top_slices]
        assert scores == sorted(scores, reverse=True)

    def test_all_results_valid(self, planted_dataset):
        x0, errors, _ = planted_dataset
        sigma = 12
        res = slice_line(x0, errors, SliceLineConfig(k=8, sigma=sigma))
        for s in res.top_slices:
            assert s.score > 0
            assert s.size >= sigma

    def test_reported_stats_match_data(self, planted_dataset):
        x0, errors, _ = planted_dataset
        res = slice_line(x0, errors, SliceLineConfig(k=5, sigma=10))
        for s in res.top_slices:
            mask = slice_membership(x0, s)
            assert int(mask.sum()) == s.size
            assert errors[mask].sum() == pytest.approx(s.error)
            assert errors[mask].max() == pytest.approx(s.max_error)

    def test_encoded_output_matches_slices(self, planted_dataset):
        x0, errors, _ = planted_dataset
        res = slice_line(x0, errors, SliceLineConfig(k=5, sigma=10))
        assert res.top_slices_encoded.shape == (len(res.top_slices), x0.shape[1])
        for row, s in zip(res.top_slices_encoded, res.top_slices):
            for f, v in s.predicates.items():
                assert row[f] == v
            assert (row != 0).sum() == len(s.predicates)

    def test_max_level_caps_depth(self, planted_dataset):
        x0, errors, _ = planted_dataset
        res = slice_line(x0, errors, SliceLineConfig(k=5, sigma=5, max_level=2))
        assert max(len(s.predicates) for s in res.top_slices) <= 2
        assert max(ls.level for ls in res.level_stats) <= 2

    def test_zero_errors_returns_empty(self, tiny_x0):
        res = slice_line(tiny_x0, np.zeros(8), SliceLineConfig(k=3, sigma=1))
        assert len(res.top_slices) == 0

    def test_zero_errors_still_accounts_for_work(self, tiny_x0):
        """Regression: the empty result used to report level_stats=[] and
        total_seconds=0.0 even though the encoding pass over X0 ran."""
        res = slice_line(tiny_x0, np.zeros(8), SliceLineConfig(k=3, sigma=1))
        assert res.total_seconds > 0.0
        assert len(res.level_stats) == 1
        assert res.level_stats[0].level == 1
        assert res.level_stats[0].elapsed_seconds == res.total_seconds
        assert res.level_stats[0].evaluated == 0
        assert res.counters is not None and res.counters.reconcile() == []

    def test_zero_errors_traced(self, tiny_x0):
        res = slice_line(
            tiny_x0, np.zeros(8), SliceLineConfig(k=3, sigma=1), trace=True
        )
        assert res.trace is not None
        assert res.trace.find("encode") is not None

    def test_negative_errors_rejected(self, tiny_x0):
        with pytest.raises(ShapeError):
            slice_line(tiny_x0, np.full(8, -1.0))

    def test_error_length_mismatch_rejected(self, tiny_x0):
        with pytest.raises(ShapeError):
            slice_line(tiny_x0, np.ones(5))

    def test_level_stats_recorded(self, planted_dataset):
        x0, errors, _ = planted_dataset
        res = slice_line(x0, errors, SliceLineConfig(k=3, sigma=10))
        assert res.level_stats[0].level == 1
        assert res.level_stats[0].evaluated == res.num_onehot_columns
        assert all(ls.elapsed_seconds >= 0 for ls in res.level_stats)

    def test_sigma_default_rule_applied(self, planted_dataset):
        x0, errors, _ = planted_dataset
        res = slice_line(x0, errors, SliceLineConfig(k=3))
        # n=500 -> sigma = max(32, 5) = 32
        assert all(s.size >= 32 for s in res.top_slices)

    def test_deterministic_across_runs(self, planted_dataset):
        x0, errors, _ = planted_dataset
        cfg = SliceLineConfig(k=6, sigma=8)
        r1 = slice_line(x0, errors, cfg)
        r2 = slice_line(x0, errors, cfg)
        assert [s.predicates for s in r1.top_slices] == [
            s.predicates for s in r2.top_slices
        ]
        np.testing.assert_allclose(r1.top_stats, r2.top_stats)

    def test_priority_evaluation_matches_plain(self, planted_dataset):
        x0, errors, _ = planted_dataset
        base = SliceLineConfig(k=6, sigma=8, priority_chunk=4)
        plain = base.with_overrides(priority_evaluation=False)
        r_priority = slice_line(x0, errors, base)
        r_plain = slice_line(x0, errors, plain)
        np.testing.assert_allclose(
            r_priority.top_stats, r_plain.top_stats, rtol=1e-12
        )

    def test_pruning_off_same_topk(self, planted_dataset):
        # All pruning techniques are safe: disabling them changes work done,
        # never the result.
        x0, errors, _ = planted_dataset
        cfg_on = SliceLineConfig(k=5, sigma=10, max_level=3)
        cfg_off = SliceLineConfig(
            k=5, sigma=10, max_level=3,
            pruning=PruningConfig.none(), priority_evaluation=False,
        )
        r_on = slice_line(x0, errors, cfg_on)
        r_off = slice_line(x0, errors, cfg_off)
        np.testing.assert_allclose(
            r_on.top_stats[:, 0], r_off.top_stats[:, 0], rtol=1e-12
        )

    def test_report_renders(self, planted_dataset):
        x0, errors, _ = planted_dataset
        res = slice_line(x0, errors, SliceLineConfig(k=3, sigma=10))
        text = res.report(feature_names=["a", "b", "c", "d", "e"])
        assert "score=" in text and "a=" in text


def synthetic_level2(seed=0, n=400):
    """Every valid level-2 slice key of a random dataset (102 candidates).

    Errors grow with the first three features' codes, so many slices
    score above zero and the top-K threshold rises after the first chunk.
    """
    gen = np.random.default_rng(seed)
    x0 = np.column_stack(
        [gen.integers(1, d + 1, size=n) for d in (4, 3, 3, 3, 3)]
    )
    errors = gen.random(n) * (x0[:, 0] + x0[:, 1] + x0[:, 2]) ** 3
    space = FeatureSpace.from_matrix(x0)
    x = space.encode(x0)
    feature = np.searchsorted(space.ends, np.arange(x.shape[1]), side="right")
    pairs = [
        (a, b)
        for a in range(x.shape[1])
        for b in range(a + 1, x.shape[1])
        if feature[a] != feature[b]
    ]
    return x, errors, np.array(pairs, dtype=np.int64)


class TestEvaluateLevel:
    """``_evaluate_level`` pinned against a replay of its chunking rules."""

    SIGMA = 8

    def run(self, x, errors, slices, bounds, cfg, tracker=None):
        current = LevelCounters(level=2)
        out = algorithm_mod._evaluate_level(
            x, errors, slices, bounds, 2, cfg,
            *empty_topk(x.shape[1]), self.SIGMA, 1, current,
            num_rows=x.shape[0], total_error=float(errors.sum()),
            tracker=tracker,
        )
        return out, current

    def test_priority_cut_matches_replay(self):
        x, errors, slices = synthetic_level2()
        total = slices.shape[0]
        cfg = SliceLineConfig(k=3, sigma=self.SIGMA, priority_chunk=8)
        # Every candidate evaluated once, in input order.
        stats = evaluate_slices(x, errors, slices, 2, cfg.alpha)
        scores = stats[:, StatsCol.SCORE]
        # Distinct bounds above each score, shuffled against input order.
        gen = np.random.default_rng(100)
        spread = scores.max() - scores.min()
        bounds = scores + gen.permutation(total) * (2 * spread / total)
        assert np.unique(bounds).size == total

        # The rule: descending bound order (stable), chunks of
        # priority_chunk from the current position (the last one overruns
        # the cut), top-K maintenance, then the searchsorted cut.
        order = np.argsort(-bounds, kind="stable")
        assert not np.array_equal(order, np.arange(total))
        neg_bounds = -bounds[order]
        top_slices, top_stats = empty_topk(x.shape[1])
        taken = []
        position, remaining, skipped = 0, total, 0
        while position < remaining:
            chunk = order[position : position + cfg.priority_chunk]
            top_slices, top_stats = maintain_topk(
                slices[chunk], stats[chunk], top_slices, top_stats,
                cfg.k, self.SIGMA,
            )
            taken.extend(chunk)
            position += chunk.size
            threshold = topk_min_score(top_stats, cfg.k)
            if position < remaining and threshold > 0.0:
                cut = int(
                    np.searchsorted(
                        neg_bounds[position:], -threshold, side="left"
                    )
                )
                skipped += remaining - position - cut
                remaining = position + cut
        taken = np.array(taken)

        (got_slices, got_stats, _, got_top_stats), current = self.run(
            x, errors, slices, bounds, cfg
        )
        assert current.evaluated == taken.size
        assert current.skipped_by_priority == skipped
        assert skipped > 0
        # The known overrun: the last chunk ignores the cut.
        assert current.evaluated + skipped > total
        assert got_slices.shape == (taken.size, slices.shape[1])
        assert np.array_equal(got_slices, slices[taken])
        assert got_stats.tobytes() == stats[taken].tobytes()
        assert got_top_stats.tobytes() == top_stats.tobytes()

    def test_deadline_chunks_match_single_shot(self, monkeypatch):
        x, errors, slices = synthetic_level2()
        cfg = SliceLineConfig(
            k=3, sigma=self.SIGMA, priority_chunk=8, priority_evaluation=False
        )
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[2].shape[0])
            return evaluate_slices(*args, **kwargs)

        monkeypatch.setattr(algorithm_mod, "evaluate_slices", counting)
        (ref_slices, ref_stats, _, ref_top), ref_current = self.run(
            x, errors, slices, None, cfg
        )
        assert calls == [slices.shape[0]]
        assert ref_slices is slices
        calls.clear()
        tracker = BudgetTracker(
            BudgetConfig(deadline_s=3600.0), started=time.perf_counter()
        )
        (got_slices, got_stats, _, got_top), current = self.run(
            x, errors, slices, None, cfg, tracker=tracker
        )
        assert calls == [8] * 12 + [6]
        assert current.evaluated == ref_current.evaluated == slices.shape[0]
        assert current.skipped_by_budget == 0
        assert np.array_equal(got_slices, ref_slices)
        assert got_stats.tobytes() == ref_stats.tobytes()
        assert got_top.tobytes() == ref_top.tobytes()


class TestReadOnlyInputs:
    """Validation no longer copies int64 codes or float64 errors, so the
    search, the estimator and the oracle must only ever read them."""

    @staticmethod
    def _read_only(x0, errors):
        x0, errors = x0.copy(), errors.copy()
        x0.flags.writeable = False
        errors.flags.writeable = False
        return x0, errors

    @pytest.mark.parametrize("float_errors", [False, True])
    def test_slice_line_and_fit(self, planted_dataset, tmp_path, float_errors):
        x0, errors, _ = planted_dataset
        if float_errors:
            errors = errors * np.linspace(0.5, 2.0, errors.size)
        ro_x0, ro_errors = self._read_only(x0, errors)
        cfg = SliceLineConfig(k=4, max_level=3, priority_chunk=8)
        plain = slice_line(x0, errors, cfg)
        for kwargs in ({}, {"num_threads": 2}, {"seed_slices": plain.top_slices}):
            got = slice_line(ro_x0, ro_errors, cfg, **kwargs)
            assert got.top_stats.tobytes() == plain.top_stats.tobytes()
            np.testing.assert_array_equal(
                got.top_slices_encoded, plain.top_slices_encoded
            )
        slice_line(ro_x0, ro_errors, cfg, checkpoint_dir=str(tmp_path))
        resumed = slice_line(
            ro_x0, ro_errors, cfg, resume_from=str(tmp_path / "level-0002")
        )
        assert resumed.top_stats.tobytes() == plain.top_stats.tobytes()
        fitted = SliceLine(k=4, max_level=3).fit(ro_x0, ro_errors)
        assert (
            fitted.top_stats_.tobytes()
            == SliceLine(k=4, max_level=3).fit(x0, errors).top_stats_.tobytes()
        )

    def test_naive_oracle(self, planted_dataset):
        from repro.baselines.naive import naive_top_k

        x0, errors, _ = planted_dataset
        ro_x0, ro_errors = self._read_only(x0, errors)
        assert naive_top_k(ro_x0, ro_errors, 4, 10, 0.95) == naive_top_k(
            x0, errors, 4, 10, 0.95
        )


class TestSliceLineEstimator:
    def test_fit_and_attributes(self, planted_dataset):
        x0, errors, predicates = planted_dataset
        model = SliceLine(k=4, sigma=10).fit(x0, errors)
        assert dict(model.top_slices_[0].predicates) == predicates
        assert model.top_stats_.shape[1] == 4

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            SliceLine().top_slices_

    def test_settings_are_one_config(self):
        assert SliceLine(k=3, alpha=0.5).config == SliceLineConfig(
            k=3, alpha=0.5
        )
        assert SliceLine(num_threads=2).config == SliceLineConfig()
        with pytest.raises(TypeError):
            SliceLine(4)

    def test_transform_membership(self, planted_dataset):
        x0, errors, _ = planted_dataset
        model = SliceLine(k=3, sigma=10).fit(x0, errors)
        members = model.transform(x0)
        assert members.shape == (x0.shape[0], len(model.top_slices_))
        for j, s in enumerate(model.top_slices_):
            assert int(members[:, j].sum()) == s.size

    def test_feature_names_in_report(self, planted_dataset):
        x0, errors, _ = planted_dataset
        names = ["age", "job", "edu", "sex", "city"]
        model = SliceLine(k=2, sigma=10).fit(x0, errors, feature_names=names)
        assert any(name in model.report() for name in names)


class TestSliceObject:
    def test_describe_with_labels(self):
        s = Slice(predicates={0: 2, 2: 1}, score=1.0, error=5.0, max_error=1.0, size=10)
        text = s.describe(
            feature_names=["color", "size", "shape"],
            value_labels=[["red", "blue"], ["s"], ["round"]],
        )
        assert text == "color=blue AND shape=round"

    def test_describe_defaults(self):
        s = Slice(predicates={1: 3}, score=0.5, error=1.0, max_error=1.0, size=5)
        assert s.describe() == "F2=3"

    def test_empty_predicates(self):
        s = Slice(predicates={}, score=0.0, error=0.0, max_error=0.0, size=0)
        assert s.describe() == "<entire dataset>"
        assert s.level == 0

    def test_matches(self):
        s = Slice(predicates={0: 1, 1: 2}, score=1.0, error=1.0, max_error=1.0, size=1)
        assert s.matches(np.array([1, 2, 9]))
        assert not s.matches(np.array([1, 3, 9]))

    def test_average_error(self):
        s = Slice(predicates={0: 1}, score=1.0, error=6.0, max_error=2.0, size=3)
        assert s.average_error == pytest.approx(2.0)
