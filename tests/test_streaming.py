"""Tests for the incremental slice-monitoring subsystem (repro.streaming).

The anchor is the exactness oracle: whatever the monitor does with caches,
merges, and warm-started enumeration, its top-K must be *identical* — same
slices, same (size, error, score) — to a cold from-scratch ``slice_line``
on the concatenated live-window rows.  Errors are drawn as dyadic rationals
(multiples of 1/16) throughout so float64 sums are bitwise exact and strict
equality is the right assertion.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    FeatureSpace,
    Slice,
    SliceLineConfig,
    WarmStartInfo,
    encode_slices,
    evaluate_slice_set,
    slice_line,
)
from repro.core.decode import slice_membership
from repro.datasets import replay_batches
from repro.exceptions import DatasetError, StreamingError, ValidationError
from repro.stats import welch_t_test, welch_t_test_from_stats
from repro.streaming import (
    MergeableSliceStats,
    PredictionBatch,
    SliceMonitor,
    StreamWindow,
    ancestor_slices,
    concat_batches,
    expand_seed_slices,
    merge_stats,
)


def dyadic_problem(seed, n=None, m=None):
    """Random ``(x0, errors)`` with errors that are multiples of 1/16."""
    gen = np.random.default_rng(seed)
    n = n or int(gen.integers(60, 240))
    m = m or int(gen.integers(2, 5))
    domains = gen.integers(2, 5, size=m)
    x0 = np.column_stack(
        [gen.integers(1, d + 1, size=n) for d in domains]
    ).astype(np.int64)
    errors = gen.integers(0, 17, size=n) / 16.0
    if errors.sum() == 0:
        errors[0] = 1.0
    return x0, errors


def random_slices(x0, seed, count=6):
    """Random level-1/2 slices over the observed domains of *x0*."""
    gen = np.random.default_rng(seed)
    m = x0.shape[1]
    slices = []
    for _ in range(count):
        feats = gen.choice(m, size=int(gen.integers(1, min(2, m) + 1)), replace=False)
        predicates = {
            int(f): int(gen.integers(1, x0[:, f].max() + 1)) for f in feats
        }
        slices.append(
            Slice(predicates=predicates, score=0.0, error=0.0, max_error=0.0, size=0)
        )
    return slices


def stats_oracle(x0, errors, slices):
    """Recompute (sizes, errors, sq, max) per slice via boolean masks."""
    sizes, errs, sqs, maxes = [], [], [], []
    for slice_ in slices:
        mask = slice_membership(x0, slice_)
        sizes.append(float(mask.sum()))
        errs.append(float(errors[mask].sum()))
        sqs.append(float((errors[mask] ** 2).sum()))
        maxes.append(float(errors[mask].max()) if mask.any() else 0.0)
    return (
        np.array(sizes), np.array(errs), np.array(sqs), np.array(maxes)
    )


class TestMergeableSliceStats:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), num_parts=st.integers(1, 5))
    def test_merge_equals_batch_recompute_bitwise(self, seed, num_parts):
        """Folding per-chunk accumulators == one accumulator on all rows."""
        x0, errors = dyadic_problem(seed)
        slices = random_slices(x0, seed + 1)
        space = FeatureSpace.from_matrix(x0)
        bounds = np.linspace(0, x0.shape[0], num_parts + 1).astype(int)
        parts = [
            MergeableSliceStats.from_batch(
                x0[a:b], errors[a:b], slices, feature_space=space
            )
            for a, b in zip(bounds[:-1], bounds[1:])
            if b > a
        ]
        merged = merge_stats(parts)
        whole = MergeableSliceStats.from_batch(x0, errors, slices, feature_space=space)
        assert np.array_equal(merged.sizes, whole.sizes)
        assert np.array_equal(merged.errors, whole.errors)
        assert np.array_equal(merged.sq_errors, whole.sq_errors)
        assert np.array_equal(merged.max_errors, whole.max_errors)
        assert merged.num_rows == whole.num_rows
        assert merged.total_error == whole.total_error

    def test_matches_membership_oracle(self):
        x0, errors = dyadic_problem(3)
        slices = random_slices(x0, 4)
        acc = MergeableSliceStats.from_batch(x0, errors, slices)
        sizes, errs, sqs, maxes = stats_oracle(x0, errors, slices)
        assert np.array_equal(acc.sizes, sizes)
        assert np.array_equal(acc.errors, errs)
        assert np.array_equal(acc.sq_errors, sqs)
        assert np.array_equal(acc.max_errors, maxes)

    def test_merge_is_associative(self):
        x0, errors = dyadic_problem(7, n=90)
        slices = random_slices(x0, 8)
        a, b, c = (
            MergeableSliceStats.from_batch(x0[i::3], errors[i::3], slices,
                                           feature_space=FeatureSpace.from_matrix(x0))
            for i in range(3)
        )
        left = a.merge(b).merge(c)
        right = a.merge(b.merge(c))
        assert np.array_equal(left.sizes, right.sizes)
        assert np.array_equal(left.errors, right.errors)
        assert left.num_batches == right.num_batches == 3

    def test_empty_is_identity(self):
        x0, errors = dyadic_problem(11)
        slices = random_slices(x0, 12)
        acc = MergeableSliceStats.from_batch(x0, errors, slices)
        merged = MergeableSliceStats.empty(len(slices)).merge(acc)
        assert np.array_equal(merged.sizes, acc.sizes)
        assert merged.num_rows == acc.num_rows

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(StreamingError):
            MergeableSliceStats.empty(3).merge(MergeableSliceStats.empty(4))
        with pytest.raises(StreamingError):
            merge_stats([])

    def test_unencodable_slice_contributes_zeros(self):
        x0 = np.array([[1, 1], [2, 1]], dtype=np.int64)
        errors = np.array([1.0, 0.0])
        off_domain = Slice(predicates={0: 9}, score=0, error=0, max_error=0, size=0)
        acc = MergeableSliceStats.from_batch(x0, errors, [off_domain])
        assert acc.sizes[0] == 0 and acc.errors[0] == 0
        assert acc.num_rows == 2  # batch totals still accumulate

    def test_variances_match_numpy(self):
        x0, errors = dyadic_problem(21, n=200)
        slices = random_slices(x0, 22)
        acc = MergeableSliceStats.from_batch(x0, errors, slices)
        variances = acc.error_variances()
        for i, slice_ in enumerate(slices):
            rows = errors[slice_membership(x0, slice_)]
            if rows.size >= 2:
                assert variances[i] == pytest.approx(rows.var(ddof=1), abs=1e-12)
            else:
                assert variances[i] == 0.0


class TestEvaluateSliceSet:
    """The public batch-evaluation helper against the membership oracle."""

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_matches_membership_oracle(self, seed):
        x0, errors = dyadic_problem(seed)
        slices = random_slices(x0, seed + 100, count=8)
        space = FeatureSpace.from_matrix(x0)
        matrix = encode_slices(slices, space)
        out = evaluate_slice_set(space.encode(x0), matrix, errors)
        sizes, errs, _, maxes = stats_oracle(x0, errors, slices)
        assert np.array_equal(out.sizes, sizes)
        assert np.array_equal(out.errors, errs)
        assert np.array_equal(out.max_errors, maxes)

    def test_threads_do_not_change_results(self):
        x0, errors = dyadic_problem(31, n=300)
        slices = random_slices(x0, 32, count=20)
        space = FeatureSpace.from_matrix(x0)
        matrix = encode_slices(slices, space)
        x = space.encode(x0)
        one = evaluate_slice_set(x, matrix, errors, num_threads=1)
        four = evaluate_slice_set(x, matrix, errors, num_threads=4)
        assert np.array_equal(one.sizes, four.sizes)
        assert np.array_equal(one.errors, four.errors)
        assert np.array_equal(one.max_errors, four.max_errors)

    def test_column_mismatch_rejected(self):
        x0, errors = dyadic_problem(41)
        slices = random_slices(x0, 42)
        space = FeatureSpace.from_matrix(x0)
        matrix = encode_slices(slices, space)
        import scipy.sparse as sp

        wrong = sp.csr_matrix((matrix.shape[0], matrix.shape[1] + 1))
        with pytest.raises(ValidationError):
            evaluate_slice_set(space.encode(x0), wrong, errors)


class TestWindow:
    def batch(self, i, rows=4, feats=2):
        x0 = np.full((rows, feats), 1, dtype=np.int64)
        return PredictionBatch(x0=x0, errors=np.zeros(rows), batch_id=i,
                               timestamp=float(i))

    def test_sliding_evicts_oldest(self):
        window = StreamWindow(size=2, policy="sliding")
        evicted = []
        for i in range(4):
            evicted += window.push(self.batch(i))
        assert [e.batch.batch_id for e in evicted] == [0, 1]
        assert [b.batch_id for b in window.batches] == [2, 3]

    def test_tumbling_grows_until_cleared(self):
        window = StreamWindow(policy="tumbling")
        for i in range(5):
            assert window.push(self.batch(i)) == []
        assert len(window) == 5
        window.clear()
        assert len(window) == 0

    def test_policy_validation(self):
        with pytest.raises(StreamingError):
            StreamWindow(policy="hopping")
        with pytest.raises(StreamingError):
            StreamWindow(size=None, policy="sliding")
        with pytest.raises(StreamingError):
            StreamWindow(size=3, policy="tumbling")

    def test_feature_mismatch_rejected(self):
        window = StreamWindow(size=4, policy="sliding")
        window.push(self.batch(0, feats=2))
        with pytest.raises(StreamingError):
            window.push(self.batch(1, feats=3))

    def test_concat_preserves_ingestion_order(self):
        window = StreamWindow(size=3, policy="sliding")
        for i in range(3):
            x0 = np.full((2, 1), i + 1, dtype=np.int64)
            window.push(PredictionBatch(x0=x0, errors=np.zeros(2), batch_id=i))
        x0, _ = window.concat()
        assert x0[:, 0].tolist() == [1, 1, 2, 2, 3, 3]


class TestReplay:
    def test_concatenates_back_exactly(self):
        x0, errors = dyadic_problem(51, n=103)
        batches = list(replay_batches(x0, errors, batch_size=20))
        assert [b.num_rows for b in batches] == [20] * 5 + [3]
        assert [b.batch_id for b in batches] == list(range(6))
        back_x0, back_errors = concat_batches(batches)
        assert np.array_equal(back_x0, x0)
        assert np.array_equal(back_errors, errors)

    def test_timestamps_advance(self):
        x0, errors = dyadic_problem(52, n=40)
        batches = list(
            replay_batches(x0, errors, 10, start_time=5.0, interval_seconds=2.0)
        )
        assert [b.timestamp for b in batches] == [5.0, 7.0, 9.0, 11.0]

    def test_shuffle_is_a_seeded_permutation(self):
        x0, errors = dyadic_problem(53, n=60)
        a = concat_batches(list(replay_batches(x0, errors, 7, shuffle=True, seed=9)))
        b = concat_batches(list(replay_batches(x0, errors, 7, shuffle=True, seed=9)))
        assert np.array_equal(a[0], b[0])
        assert not np.array_equal(a[0], x0)  # actually shuffled
        assert np.array_equal(np.sort(a[1]), np.sort(errors))

    def test_invalid_batch_size(self):
        x0, errors = dyadic_problem(54, n=20)
        with pytest.raises(DatasetError):
            list(replay_batches(x0, errors, 0))

    def test_negative_errors_rejected_at_batch(self):
        with pytest.raises(StreamingError):
            PredictionBatch(
                x0=np.ones((2, 1), dtype=np.int64), errors=np.array([-1.0, 0.0])
            )

    def test_batch_keeps_its_rows_when_the_source_is_reused(self):
        """Validation hands back int64/float64 buffers as they are; the
        batch copies them, so a caller refilling its buffers keeps it."""
        x0, errors = dyadic_problem(55, n=30)
        x0_buffer, errors_buffer = x0.copy(), errors.copy()
        batch = PredictionBatch(x0=x0_buffer, errors=errors_buffer)
        x0_buffer[:] = 1
        errors_buffer[:] = 0.0
        assert np.array_equal(batch.x0, x0)
        assert np.array_equal(batch.errors, errors)


class TestWarmStartSeeds:
    def make(self, predicates):
        return Slice(predicates=predicates, score=1.0, error=1.0,
                     max_error=1.0, size=10)

    def test_ancestors_are_all_proper_subsets(self):
        ancestors = ancestor_slices(self.make({0: 1, 1: 2, 3: 1}))
        keys = [frozenset(a.predicates.items()) for a in ancestors]
        assert len(keys) == 2 ** 3 - 2
        assert len(set(keys)) == len(keys)
        assert all(0 < len(k) < 3 for k in keys)

    def test_expand_dedups_shared_ancestors(self):
        a = self.make({0: 1, 1: 2})
        b = self.make({0: 1, 2: 3})
        expanded = expand_seed_slices([a, b])
        keys = [frozenset(s.predicates.items()) for s in expanded]
        assert len(set(keys)) == len(keys)
        # originals first, then the three distinct level-1 ancestors
        assert keys[:2] == [frozenset(a.predicates.items()),
                            frozenset(b.predicates.items())]
        assert len(expanded) == 5

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_seeded_run_identical_to_cold(self, seed):
        """Seeds only tighten the pruning threshold — results never change."""
        x0, errors = dyadic_problem(seed)
        seeds = expand_seed_slices(random_slices(x0, seed + 7, count=4))
        config = SliceLineConfig(k=4, sigma=5, alpha=0.9)
        cold = slice_line(x0, errors, config=config)
        warm = slice_line(x0, errors, config=config, seed_slices=seeds)
        assert np.array_equal(cold.top_stats, warm.top_stats)
        assert [s.predicates for s in cold.top_slices] == [
            s.predicates for s in warm.top_slices
        ]
        assert cold.warm_start is None
        assert isinstance(warm.warm_start, WarmStartInfo)

    def test_warm_run_evaluates_fewer_candidates(self):
        """With constant-magnitude errors the seeded threshold prunes work.

        All nonzero errors are exactly 1/16, so ``sm`` is uniform and the
        Equation-3 bound discriminates by slice error mass — seeding the
        previous winners then filters parents before the pair join.
        """
        gen = np.random.default_rng(11)
        n, m = 5000, 10
        x0 = np.column_stack(
            [gen.integers(1, 5, size=n) for _ in range(m)]
        ).astype(np.int64)
        errors = (gen.random(n) < 0.10).astype(np.float64) / 16.0
        for f0, v0, f1, v1 in ((0, 1, 1, 2), (2, 3, 3, 1)):
            mask = (x0[:, f0] == v0) & (x0[:, f1] == v1)
            errors[mask] = 1.0 / 16.0
        config = SliceLineConfig(k=2, sigma=50, alpha=0.95)
        cold = slice_line(x0, errors, config=config)
        seeds = expand_seed_slices(cold.top_slices)
        warm = slice_line(x0, errors, config=config, seed_slices=seeds)
        assert np.array_equal(cold.top_stats, warm.top_stats)
        cold_evaluated = sum(c.evaluated for c in cold.counters.levels)
        warm_evaluated = sum(c.evaluated for c in warm.counters.levels)
        assert warm_evaluated < cold_evaluated
        # 2 winners + 4 level-1 ancestors requested; only the level-2
        # winners are evaluated as seeds (level 1 is scored by the basic
        # pass anyway) and both survive into the final top-K
        assert warm.warm_start.requested == 6
        assert warm.warm_start.encoded == warm.warm_start.valid == 2
        assert warm.warm_start.hits == 2
        assert warm.warm_start.hit_rate == pytest.approx(2 / 6)

    def test_hit_rate_of_empty_request(self):
        info = WarmStartInfo(requested=0, encoded=0, valid=0, hits=0)
        assert info.hit_rate == 0.0


def run_monitor(policy, window_size, batch_size, seed, warm_start,
                n=1200, ticks_cap=None):
    """Drive a monitor over a replayed dyadic stream; return (monitor, frames).

    *frames* records, per tick, the concatenated window rows the tick ranked
    — the input of the cold oracle.
    """
    x0, errors = dyadic_problem(seed, n=n, m=4)
    config = SliceLineConfig(k=3, sigma=15, alpha=0.95)
    monitor = SliceMonitor(
        config=config,
        window_size=window_size if policy == "sliding" else None,
        policy=policy,
        warm_start=warm_start,
    )
    frames = []
    for batch in replay_batches(x0, errors, batch_size):
        monitor.ingest(batch)
        frames.append(monitor.window.concat())
        monitor.tick()
        if ticks_cap and len(monitor.ticks) >= ticks_cap:
            break
    return monitor, frames, config


class TestMonitorExactness:
    """The subsystem's acceptance criterion: every tick == the cold oracle."""

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 5_000),
        batch_size=st.integers(80, 200),
        window_size=st.integers(1, 5),
        policy=st.sampled_from(["sliding", "tumbling"]),
    )
    def test_ticks_match_cold_oracle(self, seed, batch_size, window_size, policy):
        monitor, frames, config = run_monitor(
            policy, window_size, batch_size, seed, warm_start=True, ticks_cap=6
        )
        assert monitor.ticks
        for tick, (x0, errors) in zip(monitor.ticks, frames):
            oracle = slice_line(x0, errors, config=config)
            assert np.array_equal(tick.result.top_stats, oracle.top_stats)
            assert [s.predicates for s in tick.top_slices] == [
                s.predicates for s in oracle.top_slices
            ]

    def test_warm_and_cold_monitors_agree(self):
        warm, _, _ = run_monitor("sliding", 3, 150, seed=77, warm_start=True)
        cold, _, _ = run_monitor("sliding", 3, 150, seed=77, warm_start=False)
        assert len(warm.ticks) == len(cold.ticks)
        for wt, ct in zip(warm.ticks, cold.ticks):
            assert np.array_equal(wt.result.top_stats, ct.result.top_stats)

    def test_tumbling_tick_consumes_window(self):
        monitor, _, _ = run_monitor("tumbling", None, 100, seed=13, warm_start=True, n=400)
        assert len(monitor.window) == 0
        assert all(t.num_batches == 1 for t in monitor.ticks)

    def test_tick_on_empty_window_raises(self):
        with pytest.raises(StreamingError):
            SliceMonitor().tick()

    def test_caches_reused_in_steady_state(self):
        """Once the tracked set stabilizes, only new batches are rescanned."""
        monitor, _, _ = run_monitor("sliding", 4, 100, seed=5, warm_start=True, n=2000)
        stable = [
            t for t in monitor.ticks[1:]
            if t.rebuilt_accumulators > 0 or t.rows_rescanned > 0
        ]
        # at least one steady-state tick must have rebuilt < window batches
        partial = [
            t for t in monitor.ticks[2:]
            if 0 < t.rebuilt_accumulators < t.num_batches
        ]
        assert stable, "drift baselines should require some accumulator work"
        assert partial, "caches were never reused across ticks"


class TestDrift:
    def test_welch_from_stats_matches_raw_samples(self, rng):
        a = rng.normal(0.6, 0.2, size=80)
        b = rng.normal(0.4, 0.3, size=120)
        raw = welch_t_test(a, b)
        summary = welch_t_test_from_stats(
            float(a.mean()), float(a.var(ddof=1)), a.size,
            float(b.mean()), float(b.var(ddof=1)), b.size,
        )
        assert summary.statistic == pytest.approx(raw.statistic, rel=1e-12)
        assert summary.p_value == pytest.approx(raw.p_value, rel=1e-12)
        assert summary.degrees_of_freedom == pytest.approx(
            raw.degrees_of_freedom, rel=1e-12
        )

    def test_planted_degradation_is_flagged(self):
        """A slice whose error rate jumps mid-stream produces a signal."""
        gen = np.random.default_rng(3)
        n = 2400
        x0 = np.column_stack(
            [gen.integers(1, 4, size=n) for _ in range(3)]
        ).astype(np.int64)
        slice_mask = (x0[:, 0] == 1) & (x0[:, 1] == 2)
        errors = (gen.random(n) < 0.05).astype(np.float64)
        errors[slice_mask] = 6.0 / 16.0  # problematic from the start
        # second half: the tracked slice degrades hard
        half = n // 2
        errors[slice_mask & (np.arange(n) >= half)] = 1.0
        monitor = SliceMonitor(
            config=SliceLineConfig(k=2, sigma=30, alpha=0.95),
            window_size=2, policy="sliding",
        )
        degraded = []
        for batch in replay_batches(x0, errors, 600):
            monitor.ingest(batch)
            tick = monitor.tick()
            degraded.extend(tick.degraded_slices())
        assert degraded, "the planted error jump was not detected"
        assert any(
            s.slice.predicates == {0: 1, 1: 2} and
            s.current_mean_error > s.baseline_mean_error
            for s in degraded
        )

    def test_no_drift_without_baseline(self):
        monitor, _, _ = run_monitor("sliding", 2, 200, seed=1, warm_start=True, n=400)
        assert monitor.ticks[0].drift == []

    def test_one_signal_per_previous_top_slice(self, planted_dataset):
        x0, errors, _ = planted_dataset
        monitor = SliceMonitor(
            config=SliceLineConfig(k=2, max_level=2), window_size=4
        )
        for batch in replay_batches(x0, errors, 125):
            monitor.ingest(batch)
            monitor.tick()
        assert len(monitor.ticks) == 4
        for previous, tick in zip(monitor.ticks, monitor.ticks[1:]):
            assert previous.top_slices
            assert [signal.slice.predicates for signal in tick.drift] == [
                s.predicates for s in previous.top_slices
            ]


class TestQuarantine:
    def test_quarantined_batch_retrievable_without_dir(self):
        from repro.resilience.chaos import make_corrupt_batch

        x0, errors = dyadic_problem(5, n=400)
        healthy, corrupt = replay_batches(x0, errors, 200)
        monitor = SliceMonitor(config=SliceLineConfig(k=2, max_level=2))
        assert monitor.ingest(healthy) is None
        record = monitor.ingest(make_corrupt_batch(corrupt, "nonfinite-errors"))
        assert record is not None and record.reason == "nonfinite-errors"
        assert monitor.quarantine.persist_dir is None
        assert monitor.quarantine.records == [record]
        assert len(monitor.window) == 1


class TestObservability:
    def test_tick_obs_dict_schema(self):
        gen = np.random.default_rng(9)
        n = 900
        x0 = np.column_stack(
            [gen.integers(1, 4, size=n) for _ in range(3)]
        ).astype(np.int64)
        errors = (gen.random(n) < 0.05).astype(np.float64)
        errors[(x0[:, 0] == 1) & (x0[:, 1] == 2)] = 1.0
        monitor = SliceMonitor(
            config=SliceLineConfig(k=2, sigma=20, alpha=0.95), window_size=2
        )
        for batch in replay_batches(x0, errors, 300):
            monitor.ingest(batch)
            monitor.tick()
        assert monitor.ticks[-1].warm_start is not None
        doc = monitor.ticks[-1].to_obs_dict()
        assert doc["schema"] == "repro.obs/v1"
        monitor_block = doc["monitor"]
        for key in (
            "tick", "timestamp", "num_batches", "num_rows", "seconds",
            "rebuilt_accumulators", "accumulator_merges", "rows_rescanned",
            "num_drift_signals", "num_degraded",
        ):
            assert key in monitor_block
        warm = doc["warm_start"]
        assert warm is not None
        assert set(warm) == {"requested", "encoded", "valid", "hits", "hit_rate"}
        json.dumps(doc)  # must be serializable as-is

    def test_cold_run_reports_null_warm_start(self):
        x0, errors = dyadic_problem(71)
        result = slice_line(x0, errors, config=SliceLineConfig(k=2, sigma=5))
        from repro.obs.export import run_to_dict

        assert run_to_dict(result)["warm_start"] is None

    def test_monitor_tick_spans_recorded(self):
        x0, errors = dyadic_problem(73, n=600, m=3)
        monitor = SliceMonitor(
            config=SliceLineConfig(k=2, sigma=10),
            window_size=2, trace=True,
        )
        for batch in replay_batches(x0, errors, 200):
            monitor.ingest(batch)
            monitor.tick()
        ticks = [s for s in monitor.tracer.spans if s.name == "monitor.tick"]
        assert len(ticks) == len(monitor.ticks)
        assert "seconds" in ticks[-1].attrs
        assert "warm_hit_rate" in ticks[-1].attrs
        # the seeded enumeration nests its spans under the tick
        assert ticks[-1].find("slice_line") or ticks[-1].children
