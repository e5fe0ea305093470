"""Tests for the resilience layer: budgets, checkpoint/resume, validation.

The two anchors are exactness guarantees: (1) a run resumed from any level
boundary checkpoint is **bitwise identical** — top-K slices, statistics,
and pruning counters — to the uninterrupted run; (2) a budget-tripped run
returns the exact top-K of everything evaluated before the stop with
``completed=False``, never an exception.  Errors are drawn as dyadic
rationals so float64 summation is exact and strict equality is the right
assertion throughout.
"""

import dataclasses
import json
import os

import numpy as np
import pytest

from repro.core import SliceLine, SliceLineConfig, slice_line
from repro.core.config import PruningConfig
from repro.exceptions import (
    CheckpointError,
    ConfigError,
    InvalidErrorsError,
    ShapeError,
)
from repro.resilience import (
    BudgetConfig,
    BudgetTracker,
    CKPT_SCHEMA,
    estimate_level_memory,
    latest_checkpoint,
    load_checkpoint,
    save_checkpoint,
)


def dyadic_problem(seed, n=None, m=None):
    """Random ``(x0, errors)`` with errors that are multiples of 1/16."""
    gen = np.random.default_rng(seed)
    n = n or int(gen.integers(200, 400))
    m = m or int(gen.integers(3, 6))
    domains = gen.integers(2, 5, size=m)
    x0 = np.column_stack(
        [gen.integers(1, d + 1, size=n) for d in domains]
    ).astype(np.int64)
    errors = gen.integers(0, 17, size=n) / 16.0
    if errors.sum() == 0:
        errors[0] = 1.0
    return x0, errors


def counters_records(result):
    """Per-level counter dicts without timing/execution-shape fields.

    A resumed run restarts with an empty indicator cache and may see a
    different candidate geometry per level, so the kernel and pair-plan
    cost models may legitimately make different (equally exact) choices
    than the uninterrupted run did — everything in
    :data:`repro.obs.counters.EXECUTION_FIELDS` is excluded.
    """
    from repro.obs.counters import EXECUTION_FIELDS

    records = []
    for record in result.counters.levels:
        as_dict = record.to_dict()
        for gauge in EXECUTION_FIELDS:
            as_dict.pop(gauge, None)
        records.append(as_dict)
    return records


def assert_identical(a, b, *, counters=True):
    """Bitwise equality of two results' top-K (and optionally counters)."""
    assert np.array_equal(a.top_stats, b.top_stats)
    assert np.array_equal(a.top_slices_encoded, b.top_slices_encoded)
    assert [s.predicates for s in a.top_slices] == [
        s.predicates for s in b.top_slices
    ]
    if counters:
        assert counters_records(a) == counters_records(b)


# ---------------------------------------------------------------------------
# input validation at the slice_line boundary
# ---------------------------------------------------------------------------


class TestInputValidation:
    def test_nan_errors_rejected(self):
        x0, errors = dyadic_problem(1)
        errors = errors.copy()
        errors[3] = np.nan
        with pytest.raises(InvalidErrorsError, match="finite"):
            slice_line(x0, errors)

    def test_inf_errors_rejected(self):
        x0, errors = dyadic_problem(1)
        errors = errors.copy()
        errors[0] = np.inf
        with pytest.raises(InvalidErrorsError, match="finite"):
            slice_line(x0, errors)

    def test_negative_errors_raise_typed_and_legacy(self):
        x0, errors = dyadic_problem(2)
        errors = errors.copy()
        errors[0] = -0.5
        # InvalidErrorsError subclasses ShapeError: callers that caught the
        # historical exception keep working.
        with pytest.raises(InvalidErrorsError):
            slice_line(x0, errors)
        with pytest.raises(ShapeError):
            slice_line(x0, errors)

    def test_row_mismatch_rejected(self):
        x0, errors = dyadic_problem(3)
        with pytest.raises(ShapeError):
            slice_line(x0, errors[:-1])

    def test_fractional_codes_rejected(self):
        x0, errors = dyadic_problem(4)
        bad = x0.astype(np.float64)
        bad[0, 0] = 1.5
        with pytest.raises(Exception):
            slice_line(bad, errors)

    def test_estimator_propagates_validation(self):
        x0, errors = dyadic_problem(5)
        errors = errors.copy()
        errors[1] = np.nan
        with pytest.raises(InvalidErrorsError):
            SliceLine().fit(x0, errors)


# ---------------------------------------------------------------------------
# budget configuration and tracker unit behaviour
# ---------------------------------------------------------------------------


class TestBudgetConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            BudgetConfig(deadline_s=-1.0)
        with pytest.raises(ConfigError):
            BudgetConfig(max_candidates_per_level=0)
        with pytest.raises(ConfigError):
            BudgetConfig(max_memory_bytes=0)

    def test_enabled(self):
        assert not BudgetConfig().enabled
        assert BudgetConfig(deadline_s=1.0).enabled
        assert BudgetConfig(max_candidates_per_level=10).enabled
        assert BudgetConfig(max_memory_bytes=1).enabled

    def test_tracker_records_first_trip_only(self):
        tracker = BudgetTracker(
            BudgetConfig(max_candidates_per_level=5, max_memory_bytes=10)
        )
        first = tracker.check_candidates(2, 100)
        assert first is not None and first.budget == "candidates"
        second = tracker.check_memory(3, 10**9)
        assert second is first

    def test_memory_estimate_scales(self):
        small = estimate_level_memory(10, 2, 100, 500, 16)
        big = estimate_level_memory(100000, 2, 100, 500, 16)
        assert big > small > 0


# ---------------------------------------------------------------------------
# anytime budgets through slice_line
# ---------------------------------------------------------------------------


class TestAnytimeBudgets:
    def test_candidate_budget_returns_partial(self):
        x0, errors = dyadic_problem(11, n=400, m=5)
        full = slice_line(x0, errors, SliceLineConfig(k=5, sigma=2))
        tripped = slice_line(
            x0, errors, SliceLineConfig(k=5, sigma=2),
            budgets=BudgetConfig(max_candidates_per_level=1),
        )
        assert full.completed and full.budget_trip is None
        assert not tripped.completed
        assert tripped.budget_trip.budget == "candidates"
        # The partial top-K is exactly the level-1 (basic slice) answer.
        basic_only = slice_line(
            x0, errors, SliceLineConfig(k=5, sigma=2, max_level=1)
        )
        assert np.array_equal(tripped.top_stats, basic_only.top_stats)

    def test_zero_deadline_returns_level1_topk(self):
        x0, errors = dyadic_problem(12)
        result = slice_line(
            x0, errors, SliceLineConfig(k=4),
            budgets=BudgetConfig(deadline_s=0.0),
        )
        assert not result.completed
        assert result.budget_trip.budget == "deadline"
        # The partial answer is exactly the level-1 top-K (possibly empty
        # when no basic slice scores positive — still a valid answer).
        level1 = slice_line(x0, errors, SliceLineConfig(k=4, max_level=1))
        assert np.array_equal(result.top_stats, level1.top_stats)

    def test_memory_budget_trips(self):
        x0, errors = dyadic_problem(13, n=400, m=5)
        result = slice_line(
            x0, errors, SliceLineConfig(k=4, sigma=2),
            budgets=BudgetConfig(max_memory_bytes=1),
        )
        assert not result.completed
        assert result.budget_trip.budget == "memory"

    def test_budget_trip_counted_and_exported(self):
        x0, errors = dyadic_problem(14, n=400, m=5)
        result = slice_line(
            x0, errors, SliceLineConfig(k=4, sigma=2),
            budgets=BudgetConfig(max_candidates_per_level=1),
        )
        assert result.counters.events.get("budget.trip") == 1
        doc = result.to_obs_dict()
        assert doc["run"]["completed"] is False
        assert doc["run"]["budget_trip"]["budget"] == "candidates"
        assert doc["counters"]["events"]["budget.trip"] == 1
        json.dumps(doc["run"])  # the trip record must be JSON-serializable

    def test_flow_conservation_with_skipped_by_budget(self):
        x0, errors = dyadic_problem(15, n=400, m=5)
        result = slice_line(
            x0, errors, SliceLineConfig(k=4, sigma=2),
            budgets=BudgetConfig(max_candidates_per_level=1),
        )
        assert result.counters.reconcile() == []
        tripped_level = result.counters.levels[-1]
        assert tripped_level.skipped_by_budget == tripped_level.candidates_emitted
        assert tripped_level.evaluated == 0

    def test_untripped_budgets_do_not_change_results(self):
        for seed in (21, 22, 23):
            x0, errors = dyadic_problem(seed)
            cfg = SliceLineConfig(k=5, sigma=2)
            plain = slice_line(x0, errors, cfg)
            budgeted = slice_line(
                x0, errors, cfg,
                budgets=BudgetConfig(
                    deadline_s=3600.0,
                    max_candidates_per_level=10**9,
                    max_memory_bytes=2**60,
                ),
            )
            assert budgeted.completed
            assert_identical(plain, budgeted)

    def test_deadline_chunked_evaluation_is_exact(self):
        # Force the deadline-chunked non-priority path and check bitwise
        # equality with the single-shot evaluation.
        x0, errors = dyadic_problem(24, n=500, m=6)
        cfg = SliceLineConfig(
            k=5, sigma=2, priority_evaluation=False, priority_chunk=4
        )
        plain = slice_line(x0, errors, cfg)
        budgeted = slice_line(
            x0, errors, cfg, budgets=BudgetConfig(deadline_s=3600.0)
        )
        assert budgeted.completed
        assert_identical(plain, budgeted)

    def test_monitor_forwards_budgets(self):
        from repro.datasets import replay_batches
        from repro.streaming import SliceMonitor

        x0, errors = dyadic_problem(25, n=300)
        monitor = SliceMonitor(
            config=SliceLineConfig(k=3),
            budgets=BudgetConfig(deadline_s=0.0),
        )
        for batch in replay_batches(x0, errors, 100):
            monitor.ingest(batch)
        tick = monitor.tick()
        assert tick.result.completed is False
        assert tick.to_obs_dict()["monitor"]["completed"] is False


# ---------------------------------------------------------------------------
# checkpoint/resume equivalence
# ---------------------------------------------------------------------------


def run_with_checkpoints(x0, errors, cfg, directory, **kwargs):
    return slice_line(x0, errors, cfg, checkpoint_dir=str(directory), **kwargs)


class TestCheckpointResume:
    def test_bundle_layout_and_schema(self, tmp_path):
        x0, errors = dyadic_problem(31)
        run_with_checkpoints(x0, errors, SliceLineConfig(k=4), tmp_path)
        bundles = sorted(os.listdir(tmp_path))
        assert bundles and bundles[0] == "level-0001"
        with open(tmp_path / bundles[0] / "meta.json") as handle:
            meta = json.load(handle)
        assert meta["schema"] == CKPT_SCHEMA
        assert set(meta["data"]) == {
            "num_rows", "num_features", "x0_sha256", "errors_sha256",
        }
        assert (tmp_path / bundles[0] / "arrays.npz").exists()

    @pytest.mark.parametrize("num_threads", [1, 3])
    @pytest.mark.parametrize("compaction", [True, False])
    def test_resume_any_level_bitwise_identical(
        self, tmp_path, compaction, num_threads
    ):
        x0, errors = dyadic_problem(32, n=400, m=5)
        cfg = SliceLineConfig(k=5, sigma=2, compaction=compaction)
        directory = tmp_path / f"ck-{compaction}-{num_threads}"
        full = run_with_checkpoints(
            x0, errors, cfg, directory, num_threads=num_threads
        )
        bundles = sorted(os.listdir(directory))
        assert len(bundles) >= 2
        for bundle in bundles:
            resumed = slice_line(
                x0, errors, cfg,
                num_threads=num_threads,
                resume_from=str(directory / bundle),
            )
            assert resumed.completed
            assert_identical(full, resumed)

    def test_resume_from_directory_picks_latest(self, tmp_path):
        x0, errors = dyadic_problem(33)
        cfg = SliceLineConfig(k=4)
        full = run_with_checkpoints(x0, errors, cfg, tmp_path)
        assert latest_checkpoint(str(tmp_path)) == str(
            tmp_path / sorted(os.listdir(tmp_path))[-1]
        )
        resumed = slice_line(x0, errors, cfg, resume_from=str(tmp_path))
        assert_identical(full, resumed)

    def test_resumed_run_rewrites_remaining_checkpoints(self, tmp_path):
        x0, errors = dyadic_problem(34, n=400, m=5)
        cfg = SliceLineConfig(k=4, sigma=2)
        first = tmp_path / "first"
        second = tmp_path / "second"
        full = run_with_checkpoints(x0, errors, cfg, first)
        resumed = slice_line(
            x0, errors, cfg,
            resume_from=str(first / "level-0002"),
            checkpoint_dir=str(second),
        )
        assert_identical(full, resumed)
        # Uninterrupted and resumed runs agree on the write-event totals.
        assert (
            resumed.counters.events["checkpoint.write"]
            == full.counters.events["checkpoint.write"]
        )

    def test_resume_preserves_warm_start_accounting(self, tmp_path):
        x0, errors = dyadic_problem(35, n=300, m=4)
        cfg = SliceLineConfig(k=4, sigma=2)
        cold = slice_line(x0, errors, cfg)
        seeds = cold.top_slices[:2]
        full = slice_line(
            x0, errors, cfg, seed_slices=seeds,
            checkpoint_dir=str(tmp_path),
        )
        resumed = slice_line(
            x0, errors, cfg, resume_from=str(tmp_path)
        )
        assert_identical(full, resumed)
        assert full.warm_start is not None
        assert resumed.warm_start is not None
        assert resumed.warm_start.hits == full.warm_start.hits

    def test_wrong_data_rejected(self, tmp_path):
        x0, errors = dyadic_problem(36)
        cfg = SliceLineConfig(k=4)
        run_with_checkpoints(x0, errors, cfg, tmp_path)
        other = errors.copy()
        other[0] += 1.0
        with pytest.raises(CheckpointError, match="input data"):
            slice_line(x0, other, cfg, resume_from=str(tmp_path))

    def test_wrong_config_rejected(self, tmp_path):
        x0, errors = dyadic_problem(37)
        run_with_checkpoints(x0, errors, SliceLineConfig(k=4), tmp_path)
        with pytest.raises(CheckpointError, match="configuration"):
            slice_line(
                x0, errors, SliceLineConfig(k=5), resume_from=str(tmp_path)
            )
        with pytest.raises(CheckpointError, match="configuration"):
            slice_line(
                x0, errors,
                SliceLineConfig(k=4, pruning=PruningConfig(by_score=False)),
                resume_from=str(tmp_path),
            )

    def test_missing_bundle_rejected(self, tmp_path):
        x0, errors = dyadic_problem(38)
        with pytest.raises(CheckpointError):
            slice_line(
                x0, errors, SliceLineConfig(),
                resume_from=str(tmp_path / "nope"),
            )
        with pytest.raises(CheckpointError):
            load_checkpoint(str(tmp_path))

    def test_malformed_frontier_rejected(self, tmp_path):
        x0, errors = dyadic_problem(38)
        cfg = SliceLineConfig(k=4, max_level=2)
        run_with_checkpoints(x0, errors, cfg, tmp_path)
        path = tmp_path / "level-0002" / "arrays.npz"
        arrays = dict(np.load(path))
        assert arrays["slices_indices"].size > 0
        # A level-2 frontier whose ids do not split into rows of two.
        arrays["slices_indices"] = arrays["slices_indices"][:-1]
        np.savez(path, **arrays)
        with pytest.raises(CheckpointError, match="malformed"):
            load_checkpoint(str(path.parent))

    def test_save_load_roundtrip_counters(self, tmp_path):
        x0, errors = dyadic_problem(39)
        cfg = SliceLineConfig(k=4)
        full = run_with_checkpoints(x0, errors, cfg, tmp_path)
        state = load_checkpoint(str(tmp_path))
        registry = state.restore_counters()
        levels = {record.level for record in registry.levels}
        assert 1 in levels
        assert registry.events["checkpoint.write"] >= 1
        # Older bundles stored pruned_by_score as a field and carried the
        # retired cache_hits/cache_misses counters: they restore the same.
        retired = dataclasses.replace(
            state,
            counters=[
                {
                    **record,
                    "pruned_by_score": record["pruned_by_score_pairs"]
                    + record["pruned_by_score_groups"],
                    "cache_hits": 5,
                    "cache_misses": 2,
                }
                for record in state.counters
            ],
        )
        save_checkpoint(str(tmp_path / "retired"), retired)
        restored = load_checkpoint(str(tmp_path / "retired")).restore_counters()
        assert restored.to_dict() == registry.to_dict()
        assert [r.pruned_by_score for r in restored.levels] == [
            r.pruned_by_score for r in registry.levels
        ]
        # Rewriting the same bundle is idempotent (tmp staging + rename).
        save_checkpoint(str(tmp_path), state)
        again = load_checkpoint(str(tmp_path / f"level-{state.level:04d}"))
        assert again.level == state.level
        assert np.array_equal(again.top_stats, state.top_stats)

    def test_estimator_checkpoint_and_resume(self, tmp_path):
        x0, errors = dyadic_problem(40, n=300, m=4)
        finder = SliceLine(k=4, checkpoint_dir=str(tmp_path))
        finder.fit(x0, errors)
        assert finder.completed_
        full_stats = finder.top_stats_.copy()
        resumed = SliceLine(k=4)
        resumed.fit(x0, errors, resume_from=str(tmp_path))
        assert np.array_equal(resumed.top_stats_, full_stats)


# ---------------------------------------------------------------------------
# quarantine through the monitor
# ---------------------------------------------------------------------------


class TestMonitorQuarantine:
    def make_monitor(self, **kwargs):
        from repro.streaming import SliceMonitor

        return SliceMonitor(config=SliceLineConfig(k=3), **kwargs)

    def batches(self, seed=41, n=300, batch=100):
        from repro.datasets import replay_batches

        x0, errors = dyadic_problem(seed, n=n)
        return list(replay_batches(x0, errors, batch))

    def test_corrupt_batch_quarantined_monitor_keeps_ticking(self):
        from repro.resilience.chaos import make_corrupt_batch

        monitor = self.make_monitor()
        batches = self.batches()
        assert monitor.ingest(batches[0]) is None
        record = monitor.ingest(
            make_corrupt_batch(batches[1], "nonfinite-errors")
        )
        assert record is not None and record.reason == "nonfinite-errors"
        assert len(monitor.window) == 1
        tick = monitor.tick()
        assert tick.num_rows == batches[0].num_rows
        assert monitor.quarantine.reasons() == {"nonfinite-errors": 1}

    @pytest.mark.parametrize(
        "kind",
        [
            "nonfinite-errors",
            "negative-errors",
            "shape-mismatch",
            "encoding",
            "feature-mismatch",
        ],
    )
    def test_every_corruption_kind_is_caught(self, kind):
        from repro.resilience.chaos import make_corrupt_batch

        monitor = self.make_monitor()
        batches = self.batches()
        assert monitor.ingest(batches[0]) is None
        record = monitor.ingest(make_corrupt_batch(batches[1], kind))
        assert record is not None
        assert record.reason == kind

    def test_quarantine_persists_to_disk(self, tmp_path):
        from repro.resilience.chaos import make_corrupt_batch

        monitor = self.make_monitor(quarantine_dir=str(tmp_path))
        batches = self.batches()
        monitor.ingest(batches[0])
        record = monitor.ingest(
            make_corrupt_batch(batches[1], "negative-errors")
        )
        stem = tmp_path / f"batch-{record.batch_id:06d}"
        assert (tmp_path / f"{stem.name}.npz").exists()
        with open(tmp_path / f"{stem.name}.json") as handle:
            doc = json.load(handle)
        assert doc["reason"] == "negative-errors"

    def test_quarantine_emits_span(self):
        from repro.resilience.chaos import make_corrupt_batch

        monitor = self.make_monitor(trace=True)
        batches = self.batches()
        monitor.ingest(batches[0])
        monitor.ingest(make_corrupt_batch(batches[1], "encoding"))
        span = monitor.tracer.find("quarantine.batch")
        assert span is not None
        assert span.attrs["reason"] == "encoding"

    def test_healthy_stream_unaffected_by_quarantine_layer(self):
        monitor = self.make_monitor()
        reference = self.make_monitor()
        for batch in self.batches():
            assert monitor.ingest(batch) is None
            reference.window.push(batch)
        tick = monitor.tick()
        ref = reference.tick()
        assert np.array_equal(tick.result.top_stats, ref.result.top_stats)
        assert len(monitor.quarantine) == 0
