"""Tests for the job service (repro.serve).

The load-bearing guarantees:

- job fingerprints are deterministic content hashes (same data + config
  -> same id; any result-affecting change -> different id);
- an exact-fingerprint resubmission is served from cache with zero
  enumeration (no ``level{L}.evaluate`` spans on its trace);
- a same-data/different-config miss warm-starts from the cached top-K
  and still matches a cold run bitwise;
- a suspended-then-resumed job matches an uninterrupted run bitwise;
- one backlog serves every tenant: jobs are taken in submission order
  (interactive first), the backlog bound spans tenants, N workers run N
  jobs at once, and under concurrency N tenants x M jobs always
  terminate and cancellations release their workers.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import sys
import threading
import time
from multiprocessing.reduction import ForkingPickler

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.resilience.checkpoint as checkpoint_module
import repro.serve.service as service_module
from repro.core.algorithm import slice_line
from repro.core.config import SliceLineConfig
from repro.exceptions import CheckpointError, ConfigError, ServeError
from repro.obs.counters import EXECUTION_FIELDS
from repro.resilience.budgets import BudgetConfig, SuspendHook
from repro.resilience.checkpoint import (
    fingerprint_config,
    fingerprint_digest,
    fingerprint_inputs,
    job_fingerprint,
    latest_checkpoint,
)
from repro.serve import (
    JobJournal,
    JobQueue,
    JobRecord,
    JobSpec,
    JobState,
    ResultCache,
    SliceService,
    load_job_document,
    load_job_file,
    scan_wal,
    spec_from_dict,
)
from repro.serve.queue import MAX_QUEUED
from repro.serve.scheduler import Scheduler


def _span_names(tracer):
    return [span.name for root in tracer.spans for span in root.iter_spans()]


@pytest.fixture
def service_workdir(tmp_path):
    return str(tmp_path / "serve-work")


# ---------------------------------------------------------------------------
# fingerprints


_INT_DTYPES = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16)

#: layouts that keep every value of a matrix where it is
_SAME_VALUES = {
    "c": np.ascontiguousarray,
    "fortran": np.asfortranarray,
    "strided": lambda a: np.repeat(a, 2, axis=1)[:, ::2],
    "reversed": lambda a: np.ascontiguousarray(a[::-1, ::-1])[::-1, ::-1],
}

#: inputs without narrow codes, each of which the search rejects
_UNNARROWED = {
    "negative-int64": lambda: (
        np.array([[1, 2], [-1, 1], [2, 2]]), np.array([1.0, 0.0, 1.0])
    ),
    "negative-int8": lambda: (
        np.array([[1, 2], [-128, 1], [2, 2]], dtype=np.int8),
        np.array([1.0, 0.0, 1.0]),
    ),
    "fractional-float": lambda: (
        np.array([[1.0, 2.0], [1.5, 1.0], [2.0, 2.0]]),
        np.array([1.0, 0.0, 1.0]),
    ),
    "no-rows": lambda: (np.zeros((0, 3), dtype=np.int64), np.zeros(0)),
    "no-columns": lambda: (
        np.zeros((3, 0), dtype=np.int64), np.array([1.0, 0.0, 1.0])
    ),
}


class TestJobFingerprint:
    def test_deterministic_across_calls(self, planted_dataset):
        x0, errors, _ = planted_dataset
        cfg = SliceLineConfig(k=3)
        assert job_fingerprint(x0, errors, cfg) == job_fingerprint(
            x0.copy(), errors.copy(), cfg
        )

    def test_is_a_hex_digest(self, planted_dataset):
        x0, errors, _ = planted_dataset
        digest = job_fingerprint(x0, errors, SliceLineConfig())
        assert len(digest) == 64
        int(digest, 16)

    def test_sensitive_to_data_and_config(self, planted_dataset):
        x0, errors, _ = planted_dataset
        cfg = SliceLineConfig(k=3)
        base = job_fingerprint(x0, errors, cfg)
        assert job_fingerprint(x0, errors, SliceLineConfig(k=4)) != base
        flipped = errors.copy()
        flipped[0] = 1.0 - flipped[0]
        assert job_fingerprint(x0, flipped, cfg) != base

    def test_digest_separates_fingerprint_order(self, planted_dataset):
        x0, errors, _ = planted_dataset
        data = fingerprint_inputs(x0, errors)
        cfg = fingerprint_config(SliceLineConfig())
        assert fingerprint_digest(data, cfg) != fingerprint_digest(cfg, data)
        assert fingerprint_digest(data) != fingerprint_digest(data, cfg)

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.integers(1, 9),
        cols=st.integers(1, 5),
        top=st.integers(0, 127),
        seed=st.integers(0, 2**16),
    )
    def test_codes_hash_by_value_alone(self, rows, cols, top, seed):
        """One fingerprint for the same code values in every integer
        dtype and layout; another for one changed code or error, or for a
        transpose."""
        gen = np.random.default_rng(seed)
        values = gen.integers(0, top + 1, (rows, cols))
        errors = gen.random(rows)
        base = fingerprint_inputs(values, errors)
        for dtype in _INT_DTYPES:
            for layout in _SAME_VALUES.values():
                array = layout(values.astype(dtype))
                np.testing.assert_array_equal(array, values)
                assert fingerprint_inputs(array, errors) == base
        row, col = gen.integers(rows), gen.integers(cols)
        changed = values.copy()
        changed[row, col] = (changed[row, col] + 1) % 128
        assert fingerprint_inputs(changed, errors) != base
        other = errors.copy()
        other[row] += 1.0
        assert fingerprint_inputs(values, other) != base
        if not np.array_equal(values.T, values):
            assert fingerprint_inputs(values.T, errors) != base

    @pytest.mark.parametrize(
        "top, codes",
        [(255, "uint8"), (256, "uint16"), (65_535, "uint16"),
         (65_536, "uint32"), (2**32 - 1, "uint32"), (2**32, None)],
    )
    def test_width_boundaries(self, top, codes):
        """Codes hash in the narrowest dtype that holds their maximum; from
        2**32 on they hash by their bytes, as before."""
        x0 = np.array([[0, 1], [top, 2], [3, top]], dtype=np.int64)
        errors = np.array([0.0, 1.0, 0.5])
        fingerprint = fingerprint_inputs(x0, errors)
        assert fingerprint.get("x0_codes") == codes
        if codes is None:
            assert fingerprint == checkpoint_module._byte_fingerprint(
                x0, errors
            )
        else:
            wide = x0.astype(np.uint64)
            assert fingerprint_inputs(wide, errors) == fingerprint
        assert fingerprint_inputs(x0 - (x0 == top), errors) != fingerprint

    @pytest.mark.parametrize("case", sorted(_UNNARROWED))
    def test_other_inputs_hash_by_bytes_and_fail_as_before(self, case):
        """Inputs without narrow codes fingerprint by their bytes without
        raising, and their jobs fail with the search's own error."""
        x0, errors = _UNNARROWED[case]()
        fingerprint = fingerprint_inputs(x0, errors)
        assert fingerprint == checkpoint_module._byte_fingerprint(x0, errors)
        with pytest.raises(Exception) as raised:
            slice_line(x0, errors)
        with SliceService(num_workers=1) as service:
            record = service.submit(JobSpec(x0=x0, errors=errors))
            assert record.wait(timeout=60)
        assert record.input_fingerprint == fingerprint
        assert record.state == JobState.FAILED
        assert record.error == (
            f"{type(raised.value).__name__}: {raised.value}"
        )


def _tobytes_sha256(array) -> str:
    """The reference content hash: the same bytes through a copy."""
    arr = np.ascontiguousarray(array)
    digest = hashlib.sha256()
    digest.update(str(arr.dtype).encode())
    digest.update(str(arr.shape).encode())
    digest.update(arr.tobytes())
    return digest.hexdigest()


_LAYOUTS = {
    "c": lambda a: a,
    "fortran": np.asfortranarray,
    "strided": lambda a: a[::2, ::-1],
    "transposed": lambda a: a.T,
    "empty-rows": lambda a: a[:0],
    "empty-cols": lambda a: a[:, :0],
}


def _bundle_fields(path: str) -> tuple[dict, dict]:
    """A bundle's meta.json and arrays, less the counters' timings."""
    with open(os.path.join(path, "meta.json")) as handle:
        meta = json.load(handle)
    meta["counters"] = [
        {k: v for k, v in record.items() if k not in EXECUTION_FIELDS}
        for record in meta["counters"]
    ]
    with np.load(os.path.join(path, "arrays.npz")) as arrays:
        return meta, {name: arrays[name] for name in arrays.files}


class TestInputFingerprint:
    """One hash per job: the caller's ``fingerprint_inputs`` stands in for
    ``slice_line``'s own, and bundles and resume do not change."""

    @settings(max_examples=60, deadline=None)
    @given(
        dtype=st.sampled_from(
            [np.int8, np.int32, np.int64, np.uint16, np.float32, np.float64,
             np.bool_, ">i8"]
        ),
        layout=st.sampled_from(sorted(_LAYOUTS)),
        rows=st.integers(0, 7),
        cols=st.integers(1, 5),
        seed=st.integers(0, 2**16),
    )
    def test_no_copy_hash_equals_tobytes_hash(
        self, dtype, layout, rows, cols, seed
    ):
        values = np.random.default_rng(seed).integers(0, 100, (rows, cols))
        array = _LAYOUTS[layout](values.astype(dtype))
        assert checkpoint_module._sha256(array) == _tobytes_sha256(array)

    def test_rejects_a_fingerprint_of_another_shape(self, planted_dataset):
        x0, errors, _ = planted_dataset
        fingerprint = fingerprint_inputs(x0[:-1], errors[:-1])
        with pytest.raises(CheckpointError, match="input_fingerprint"):
            slice_line(x0, errors, input_fingerprint=fingerprint)
        fingerprint = fingerprint_inputs(x0[:, :-1], errors)
        with pytest.raises(CheckpointError, match="input_fingerprint"):
            slice_line(x0, errors, input_fingerprint=fingerprint)

    @pytest.mark.parametrize("codes", [np.int64, np.int32])
    def test_bundles_and_resume_match_without_it(
        self, planted_dataset, tmp_path, monkeypatch, codes
    ):
        """The caller's narrow hash stands for the run's: int64 codes are
        the caller's array, and validation's int64 copy of int32 codes
        keeps the code values it hashed.  Either way the bundles agree
        field for field with a run not given it, and resuming from either
        is bitwise."""
        x0, errors, _ = planted_dataset
        x0 = x0.astype(codes)
        cfg = SliceLineConfig(k=4, max_level=3)
        given_fp = fingerprint_inputs(x0, errors)
        hashes = []
        sha256 = checkpoint_module._sha256
        monkeypatch.setattr(
            checkpoint_module, "_sha256",
            lambda array: hashes.append(1) or sha256(array),
        )
        plain = slice_line(x0, errors, cfg, checkpoint_dir=str(tmp_path / "a"))
        assert len(hashes) == 2
        hashes.clear()
        given = slice_line(
            x0, errors, cfg, checkpoint_dir=str(tmp_path / "b"),
            input_fingerprint=given_fp,
        )
        assert len(hashes) == 0
        np.testing.assert_array_equal(given.top_stats, plain.top_stats)
        bundles = sorted(os.listdir(tmp_path / "a"))
        assert bundles == sorted(os.listdir(tmp_path / "b"))
        assert len(bundles) == 3
        for name in bundles:
            meta_a, arrays_a = _bundle_fields(str(tmp_path / "a" / name))
            meta_b, arrays_b = _bundle_fields(str(tmp_path / "b" / name))
            assert meta_a == meta_b
            assert sorted(arrays_a) == sorted(arrays_b)
            for key in arrays_a:
                np.testing.assert_array_equal(arrays_a[key], arrays_b[key])

        level2 = str(tmp_path / "b" / "level-0002")
        hashes.clear()
        resumed = slice_line(
            x0, errors, cfg, resume_from=level2, input_fingerprint=given_fp
        )
        assert len(hashes) == 0
        for source in (level2, str(tmp_path / "a" / "level-0002")):
            for result in (resumed, slice_line(x0, errors, cfg, resume_from=source)):
                np.testing.assert_array_equal(result.top_stats, plain.top_stats)
                np.testing.assert_array_equal(
                    result.top_slices_encoded, plain.top_slices_encoded
                )

    def test_equal_codes_in_another_dtype_or_layout_are_a_cache_hit(
        self, planted_dataset
    ):
        x0, errors, _ = planted_dataset
        with SliceService(num_workers=1) as service:
            first = service.submit(JobSpec(x0=x0, errors=errors))
            result = service.result(first.job_id, timeout=60)
            for again in (x0.astype(np.int32), np.asfortranarray(x0)):
                record = service.submit(JobSpec(x0=again, errors=errors))
                assert record.cache_hit
                assert record.fingerprint == first.fingerprint
                assert service.result(record.job_id, timeout=60) is result

    def test_resume_checks_the_given_fingerprint(
        self, planted_dataset, tmp_path
    ):
        x0, errors, _ = planted_dataset
        slice_line(x0, errors, checkpoint_dir=str(tmp_path))
        other = fingerprint_inputs(x0, 1.0 - errors)
        with pytest.raises(CheckpointError, match="fingerprint mismatch"):
            slice_line(
                x0, errors, resume_from=str(tmp_path), input_fingerprint=other
            )

    @pytest.mark.parametrize("worker_mode", ["thread", "process"])
    def test_checkpointed_served_miss_hashes_its_input_once(
        self, planted_dataset, tmp_path, monkeypatch, worker_mode
    ):
        x0, errors, _ = planted_dataset
        hashed = []
        sha256 = checkpoint_module._sha256
        monkeypatch.setattr(
            checkpoint_module, "_sha256",
            lambda array: hashed.append(array.shape) or sha256(array),
        )
        with SliceService(
            state_dir=str(tmp_path / "state"), num_workers=1,
            worker_mode=worker_mode, start=False,
        ) as service:
            tasks = []
            runner = getattr(service.scheduler, "run_find", None)
            if runner is not None:
                def recording_runner(record, task):
                    tasks.append(task)
                    return runner(record, task)

                monkeypatch.setattr(
                    service.scheduler, "run_find", recording_runner
                )
            record = service.submit(JobSpec(x0=x0, errors=errors))
            service.start()
            result = service.result(record.job_id, timeout=120)
        # x0 (its codes, column-major) and errors, once each, at submit;
        # the run reused the dict.
        assert hashed == [x0.T.shape, errors.shape]
        assert record.input_fingerprint == fingerprint_inputs(x0, errors)
        if worker_mode == "process":
            assert [task["input_fingerprint"] for task in tasks] == [
                record.input_fingerprint
            ]
            # The patch cannot see into the spawned child, so make the
            # child's call here: the task as the queue pickles it.
            child_task = pickle.loads(ForkingPickler.dumps(tasks[0]))
            child_task["checkpoint_dir"] = str(tmp_path / "child")
            hashed.clear()
            child = slice_line(**child_task)
            assert hashed == []
            np.testing.assert_array_equal(child.top_stats, result.top_stats)
        bundle = latest_checkpoint(service._checkpoint_dir(record))
        with open(os.path.join(bundle, "meta.json")) as handle:
            assert json.load(handle)["data"] == record.input_fingerprint
        np.testing.assert_array_equal(
            result.top_stats, slice_line(x0, errors).top_stats
        )


# ---------------------------------------------------------------------------
# SuspendHook + slice_line suspension


class TestSuspension:
    def test_suspend_hook_roundtrip(self):
        hook = SuspendHook()
        assert not hook.requested
        hook.request()
        assert hook.requested
        hook.clear()
        assert not hook.requested

    def test_pre_requested_hook_suspends_at_first_boundary(
        self, planted_dataset, tmp_path
    ):
        x0, errors, _ = planted_dataset
        cfg = SliceLineConfig(k=3, max_level=3)
        hook = SuspendHook()
        hook.request()
        result = slice_line(
            x0, errors, cfg, checkpoint_dir=str(tmp_path), suspend=hook
        )
        assert result.suspended
        assert not result.completed
        assert result.budget_trip is None
        assert result.counters.events.get("suspend.yield") == 1

    def test_resume_after_suspend_is_bitwise_identical(
        self, planted_dataset, tmp_path
    ):
        x0, errors, _ = planted_dataset
        cfg = SliceLineConfig(k=5, max_level=4)
        hook = SuspendHook()
        hook.request()
        partial = slice_line(
            x0, errors, cfg, checkpoint_dir=str(tmp_path), suspend=hook
        )
        assert partial.suspended
        hook.clear()
        resumed = slice_line(
            x0, errors, cfg, resume_from=str(tmp_path), suspend=hook
        )
        cold = slice_line(x0, errors, cfg)
        assert resumed.completed and not resumed.suspended
        assert np.array_equal(resumed.top_stats, cold.top_stats)
        assert np.array_equal(
            resumed.top_slices_encoded, cold.top_slices_encoded
        )

    def test_unrequested_hook_changes_nothing(self, planted_dataset):
        x0, errors, _ = planted_dataset
        cfg = SliceLineConfig(k=3)
        with_hook = slice_line(x0, errors, cfg, suspend=SuspendHook())
        without = slice_line(x0, errors, cfg)
        assert np.array_equal(with_hook.top_stats, without.top_stats)
        assert with_hook.completed


# ---------------------------------------------------------------------------
# result cache


class TestResultCache:
    def _result(self, planted, cfg):
        x0, errors, _ = planted
        return slice_line(x0, errors, cfg)

    def test_exact_hit_and_lru_eviction(self, planted_dataset):
        cache = ResultCache(capacity=2)
        result = self._result(planted_dataset, SliceLineConfig(k=2))
        cache.put("fp-a", "data", result)
        cache.put("fp-b", "data", result)
        assert cache.get("fp-a") is result
        cache.put("fp-c", "data", result)  # evicts fp-b (LRU)
        assert cache.get("fp-b") is None
        assert cache.get("fp-a") is result
        assert len(cache) == 2

    def test_partial_results_are_never_cached(self, planted_dataset):
        x0, errors, _ = planted_dataset
        partial = slice_line(
            x0, errors, SliceLineConfig(k=2),
            budgets=BudgetConfig(max_candidates_per_level=1),
        )
        assert not partial.completed
        cache = ResultCache()
        assert not cache.put("fp", "data", partial)
        assert len(cache) == 0

    def test_warm_seeds_prefers_most_recent_same_data(self, planted_dataset):
        cache = ResultCache()
        r1 = self._result(planted_dataset, SliceLineConfig(k=2))
        r2 = self._result(planted_dataset, SliceLineConfig(k=4))
        cache.put("fp-1", "data-x", r1)
        cache.put("fp-2", "data-x", r2)
        assert cache.warm_seeds("data-x") == list(r2.top_slices)
        assert cache.warm_seeds("data-unknown") == []


# ---------------------------------------------------------------------------
# declarative job files


class TestDeclarative:
    DOC = {
        "defaults": {
            "tenant": "analytics",
            "dataset": "salaries",
            "config": {"k": 4, "max_level": 3},
        },
        "jobs": [
            {"name": "baseline"},
            {"name": "deep", "config": {"max_level": 5}},
            {"name": "ops-wide", "tenant": "ops", "config": {"k": 8}},
        ],
    }

    def test_defaults_merge_key_wise(self):
        specs = load_job_document(self.DOC)
        assert [s.name for s in specs] == ["baseline", "deep", "ops-wide"]
        assert specs[0].config.k == 4 and specs[0].config.max_level == 3
        # "deep" overrides max_level but inherits k from the defaults
        assert specs[1].config.k == 4 and specs[1].config.max_level == 5
        assert specs[2].tenant == "ops"
        assert specs[2].config.k == 8 and specs[2].config.max_level == 3

    @pytest.mark.parametrize("kind", ["find", "monitor"])
    def test_kind_key_rejected(self, kind):
        """Every job is a slice-finding job: a job file or spec table that
        names a kind is rejected like any other unknown key."""
        entry = {"dataset": "salaries", "kind": kind}
        for load in (
            lambda: load_job_document({"jobs": [entry]}),
            lambda: spec_from_dict(entry),
        ):
            with pytest.raises(ConfigError, match="'kind'") as info:
                load()
            assert str(info.value).endswith(
                "allowed: ['budgets', 'config', 'dataset', 'interactive', "
                "'name', 'num_threads', 'scale', 'seed', 'tenant']"
            )

    def test_unknown_keys_rejected(self):
        doc = {"jobs": [{"dataset": "salaries", "bogus_knob": 1}]}
        with pytest.raises(ConfigError, match="bogus_knob"):
            load_job_document(doc)
        doc = {"jobs": [{"dataset": "salaries", "config": {"topk": 3}}]}
        with pytest.raises(ConfigError, match="topk"):
            load_job_document(doc)

    def test_jobs_array_required(self):
        with pytest.raises(ConfigError, match="non-empty"):
            load_job_document({"defaults": {}, "jobs": []})

    def test_json_file_roundtrip(self, tmp_path):
        path = tmp_path / "jobs.json"
        path.write_text(json.dumps(self.DOC))
        specs = load_job_file(str(path))
        assert len(specs) == 3

    def test_toml_file(self, tmp_path):
        tomllib = pytest.importorskip("tomllib")
        assert tomllib is not None
        path = tmp_path / "jobs.toml"
        path.write_text(
            "[defaults]\n"
            'tenant = "analytics"\n'
            'dataset = "salaries"\n'
            "[defaults.config]\n"
            "k = 4\n"
            "[[jobs]]\n"
            'name = "baseline"\n'
            "[[jobs]]\n"
            'name = "deep"\n'
            "[jobs.config]\n"
            "max_level = 5\n"
        )
        specs = load_job_file(str(path))
        assert len(specs) == 2
        assert specs[1].config.k == 4 and specs[1].config.max_level == 5

    def test_budgets_table(self):
        doc = {
            "jobs": [
                {"dataset": "salaries", "budgets": {"deadline_s": 2.5}}
            ]
        }
        specs = load_job_document(doc)
        assert specs[0].budgets == BudgetConfig(deadline_s=2.5)


# ---------------------------------------------------------------------------
# job spec validation


class TestJobSpec:
    def test_needs_exactly_one_data_source(self, planted_dataset):
        x0, errors, _ = planted_dataset
        with pytest.raises(ConfigError):
            JobSpec(tenant="t")  # no source
        with pytest.raises(ConfigError):
            JobSpec(tenant="t", dataset="salaries", x0=x0, errors=errors)

    def test_bad_kind_rejected(self):
        with pytest.raises(TypeError, match="kind"):
            JobSpec(kind="monitor", dataset="salaries")


# ---------------------------------------------------------------------------
# queue: admission control + one backlog


class TestJobQueue:
    def _record(self, tenant="a", interactive=False):
        return JobRecord(
            job_id=f"{tenant}/{id(object())}",
            spec=JobSpec(
                tenant=tenant,
                dataset="salaries",
                interactive=interactive,
            ),
            fingerprint="fp",
            data_digest="dd",
        )

    def test_backlog_limit_rejects_with_typed_reason(self):
        queue = JobQueue()
        queue.max_queued = 2
        assert queue.admit(self._record()).admitted
        assert queue.admit(self._record()).admitted
        decision = queue.admit(self._record())
        assert not decision.admitted
        assert decision.reason == "queue-full"

    def test_backlog_bound_spans_tenants(self):
        queue = JobQueue()
        for index in range(MAX_QUEUED):
            decision = queue.admit(self._record(("a", "b")[index % 2]))
            assert (decision.admitted, decision.reason) == (True, "queued")
        decision = queue.admit(self._record("c"))
        assert not decision.admitted
        assert decision.reason == "queue-full"
        assert queue.depth() == MAX_QUEUED

    def test_tenants_are_taken_in_submission_order(self):
        queue = JobQueue()
        batch = [self._record(tenant) for tenant in ("a", "a", "b", "a", "b")]
        for record in batch:
            queue.admit(record)
        live = self._record("b", interactive=True)
        queue.admit(live)
        taken = [queue.take(timeout=0.1) for _ in range(len(batch) + 1)]
        assert taken == [live, *batch]
        assert queue.running_count() == len(taken)
        queue.release()
        queue.requeue(taken[1])
        assert queue.running_count() == len(taken) - 2
        assert queue.take(timeout=0.1) is taken[1]

    def test_interactive_jumps_batch_jobs(self):
        queue = JobQueue()
        queue.admit(self._record("batch"))
        queue.admit(self._record("live", interactive=True))
        assert queue.take(timeout=0.1).spec.tenant == "live"

    def test_requeue_goes_to_the_front(self):
        queue = JobQueue()
        first = self._record("a")
        second = self._record("a")
        queue.admit(first)
        queue.admit(second)
        taken = queue.take(timeout=0.1)
        assert taken is first
        queue.requeue(taken)
        assert queue.take(timeout=0.1) is first

    def test_remove_withdraws_queued_job(self):
        queue = JobQueue()
        record = self._record()
        queue.admit(record)
        assert queue.remove(record)
        assert not queue.remove(record)
        assert queue.depth() == 0

    def test_interactive_behind_same_tenant_batch_still_jumps(self):
        queue = JobQueue()
        batch = self._record("t")
        live = self._record("t", interactive=True)
        queue.admit(batch)
        queue.admit(live)
        assert queue.take(timeout=0.1) is live
        assert queue.take(timeout=0.1) is batch


# ---------------------------------------------------------------------------
# service end-to-end


class TestSliceService:
    def _spec(self, planted, cfg=None, **kwargs):
        x0, errors, _ = planted
        return JobSpec(
            x0=x0, errors=errors, config=cfg or SliceLineConfig(k=3),
            **kwargs,
        )

    def test_exact_resubmission_hits_cache_without_enumeration(
        self, planted_dataset, service_workdir
    ):
        with SliceService(
            num_workers=1, workdir=service_workdir, trace=True
        ) as service:
            first = service.submit(self._spec(planted_dataset))
            result = service.result(first.job_id, timeout=60)
            second = service.submit(self._spec(planted_dataset))
            again = service.result(second.job_id, timeout=60)
            assert second.cache_hit
            assert again is result
            # zero enumeration on the hit: no evaluate spans at any level
            names = _span_names(second.tracer)
            assert not any(".evaluate" in name for name in names)
            assert service.registry.gauges["serve.cache_hits"] >= 1
            assert service.registry.events["serve.cache_hits"] == 1

    def test_cache_hit_matches_cold_run_bitwise(
        self, planted_dataset, service_workdir
    ):
        x0, errors, _ = planted_dataset
        cfg = SliceLineConfig(k=4)
        with SliceService(num_workers=1, workdir=service_workdir) as service:
            service.result(
                service.submit(self._spec(planted_dataset, cfg)).job_id,
                timeout=60,
            )
            hit = service.submit(self._spec(planted_dataset, cfg))
            cached = service.result(hit.job_id, timeout=60)
        cold = slice_line(x0, errors, cfg)
        assert np.array_equal(cached.top_stats, cold.top_stats)
        assert np.array_equal(
            cached.top_slices_encoded, cold.top_slices_encoded
        )

    def test_same_data_different_config_warm_starts_bitwise(
        self, planted_dataset, service_workdir
    ):
        x0, errors, _ = planted_dataset
        with SliceService(num_workers=1, workdir=service_workdir) as service:
            service.result(
                service.submit(
                    self._spec(planted_dataset, SliceLineConfig(k=3))
                ).job_id,
                timeout=60,
            )
            miss = service.submit(
                self._spec(planted_dataset, SliceLineConfig(k=5))
            )
            warmed = service.result(miss.job_id, timeout=60)
            assert not miss.cache_hit
            assert len(miss.warm_seeds) > 0
            assert warmed.warm_start is not None
        cold = slice_line(x0, errors, SliceLineConfig(k=5))
        assert np.array_equal(warmed.top_stats, cold.top_stats)
        assert np.array_equal(
            warmed.top_slices_encoded, cold.top_slices_encoded
        )

    def test_concurrent_duplicates_coalesce(
        self, planted_dataset, service_workdir
    ):
        service = SliceService(
            num_workers=1, workdir=service_workdir, start=False
        )
        try:
            first = service.submit(self._spec(planted_dataset))
            second = service.submit(self._spec(planted_dataset))
            assert second.coalesced
            service.start()
            r1 = service.result(first.job_id, timeout=60)
            r2 = service.result(second.job_id, timeout=60)
            assert r2 is r1
            assert second.cache_hit
        finally:
            service.shutdown()

    def test_budget_tripped_origin_does_not_settle_waiters(
        self, planted_dataset, service_workdir
    ):
        x0, errors, _ = planted_dataset
        service = SliceService(
            num_workers=1, workdir=service_workdir, start=False
        )
        try:
            origin = service.submit(
                self._spec(
                    planted_dataset,
                    budgets=BudgetConfig(max_candidates_per_level=1),
                )
            )
            # budgets are not part of the fingerprint, so this coalesces
            waiter = service.submit(self._spec(planted_dataset))
            assert waiter.coalesced
            service.start()
            partial = service.result(origin.job_id, timeout=60)
            assert not partial.completed
            # the waiter must not inherit the truncated top-K: it is
            # promoted and re-run under its own (absent) budgets
            full = service.result(waiter.job_id, timeout=60)
            assert full.completed
            assert not waiter.cache_hit
            assert len(service.cache) == 1  # only the full result is cached
        finally:
            service.shutdown()
        cold = slice_line(x0, errors, SliceLineConfig(k=3))
        assert np.array_equal(full.top_stats, cold.top_stats)
        assert np.array_equal(
            full.top_slices_encoded, cold.top_slices_encoded
        )

    def test_cancelled_pending_origin_promotes_coalesced_waiter(
        self, planted_dataset, service_workdir
    ):
        service = SliceService(
            num_workers=1, workdir=service_workdir, start=False
        )
        try:
            origin = service.submit(self._spec(planted_dataset))
            waiter = service.submit(self._spec(planted_dataset))
            assert waiter.coalesced
            assert service.cancel(origin.job_id)
            assert origin.state == JobState.CANCELLED
            service.start()
            result = service.result(waiter.job_id, timeout=60)
            assert result.completed
            assert waiter.state == JobState.COMPLETED
        finally:
            service.shutdown()

    def test_preempted_then_resumed_matches_cold_bitwise(
        self, planted_dataset, service_workdir
    ):
        x0, errors, _ = planted_dataset
        cfg = SliceLineConfig(k=5, max_level=4)
        service = SliceService(
            num_workers=1, workdir=service_workdir, start=False, trace=True
        )
        try:
            record = service.submit(self._spec(planted_dataset, cfg))
            record.suspend.request()  # suspend at the first level boundary
            service.start()
            result = service.result(record.job_id, timeout=120)
            assert record.preemptions >= 1
            assert record.resumes >= 1
            assert "suspend.yield" in _span_names(record.tracer)
        finally:
            service.shutdown()
        cold = slice_line(x0, errors, cfg)
        assert np.array_equal(result.top_stats, cold.top_stats)
        assert np.array_equal(
            result.top_slices_encoded, cold.top_slices_encoded
        )

    def _preempts_running_batch_job(self, planted, workdir, worker_mode):
        service = SliceService(
            num_workers=1, workdir=workdir, start=False,
            worker_mode=worker_mode,
        )
        try:
            batch = service.submit(
                self._spec(
                    planted, SliceLineConfig(k=5, max_level=4), tenant="batch"
                )
            )
            scheduler = service.scheduler
            assert isinstance(scheduler, Scheduler)  # one preemption rule
            scheduler._executing[batch.job_id] = batch  # simulate running
            batch.started_at = time.time()
            assert not batch.suspend.requested
            # submit() itself triggers preemption for interactive jobs
            live = service.submit(
                self._spec(planted, tenant="live", interactive=True)
            )
            assert live.spec.interactive
            assert batch.suspend.requested
            # the victim is now suspending; no second victim is picked
            assert scheduler.maybe_preempt(live) is None
        finally:
            service.shutdown()

    def test_interactive_submission_preempts_running_batch_job(
        self, planted_dataset, service_workdir
    ):
        self._preempts_running_batch_job(
            planted_dataset, service_workdir, "thread"
        )

    def test_interactive_submission_preempts_in_process_mode(
        self, planted_dataset, service_workdir
    ):
        self._preempts_running_batch_job(
            planted_dataset, service_workdir, "process"
        )

    def test_one_tenant_runs_num_workers_jobs_at_once(
        self, planted_dataset, service_workdir, monkeypatch
    ):
        import repro.serve.service as service_module

        # Every run waits until four runs are in flight at once: with
        # fewer concurrent jobs the barrier times out and the jobs fail.
        counted = []
        barrier = threading.Barrier(
            4,
            action=lambda: counted.append(service.queue.running_count()),
            timeout=10,
        )
        run = service_module.slice_line

        def gated(*args, **kwargs):
            barrier.wait()
            return run(*args, **kwargs)

        monkeypatch.setattr(service_module, "slice_line", gated)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with SliceService(
                num_workers=4, workdir=service_workdir
            ) as service:
                records = [
                    service.submit(
                        self._spec(planted_dataset, SliceLineConfig(k=k))
                    )
                    for k in range(1, 5)
                ]
                assert service.wait(timeout=60)
                assert service.queue.running_count() == 0
        finally:
            sys.setswitchinterval(interval)
        assert len({record.fingerprint for record in records}) == 4
        assert [(r.state, r.error) for r in records] == [
            (JobState.COMPLETED, None)
        ] * 4
        assert counted == [4]

    def test_rejection_carries_typed_reason(
        self, planted_dataset, service_workdir
    ):
        service = SliceService(
            num_workers=1, workdir=service_workdir, start=False
        )
        service.queue.max_queued = 1
        try:
            okay = service.submit(self._spec(planted_dataset, tenant="t"))
            assert okay.state == JobState.PENDING
            # different config -> different fingerprint -> no coalescing
            rejected = service.submit(
                self._spec(
                    planted_dataset, SliceLineConfig(k=7), tenant="t"
                )
            )
            assert rejected.state == JobState.REJECTED
            assert rejected.reason == "queue-full"
            with pytest.raises(ServeError, match="queue-full"):
                service.result(rejected.job_id, timeout=1)
        finally:
            service.shutdown()

    def test_cancelled_queued_job_releases_slot(
        self, planted_dataset, service_workdir
    ):
        service = SliceService(
            num_workers=1, workdir=service_workdir, start=False
        )
        try:
            record = service.submit(self._spec(planted_dataset))
            assert service.cancel(record.job_id)
            assert record.state == JobState.CANCELLED
            assert service.queue.depth() == 0
            assert not service.cancel(record.job_id)  # already terminal
            with pytest.raises(ServeError, match="cancelled"):
                service.result(record.job_id, timeout=1)
        finally:
            service.shutdown()

    def test_job_budgets_trip_to_an_uncached_partial_result(
        self, planted_dataset, service_workdir
    ):
        budgets = BudgetConfig(max_candidates_per_level=5, deadline_s=60.0)
        with SliceService(num_workers=1, workdir=service_workdir) as service:
            record = service.submit(
                self._spec(planted_dataset, tenant="t", budgets=budgets)
            )
            result = service.result(record.job_id, timeout=60)
            # tripped budget -> partial result, completed job, not cached
            assert not result.completed
            assert len(service.cache) == 0
            assert service.status(record.job_id)["budgets"] == {
                "deadline_s": 60.0,
                "max_candidates_per_level": 5,
                "max_memory_bytes": None,
            }

    def test_failed_job_raises_from_result(self, service_workdir):
        bad = np.array([[1, 1], [1, 2]], dtype=np.int64)
        with SliceService(num_workers=1, workdir=service_workdir) as service:
            record = service.submit(
                JobSpec(x0=bad, errors=np.array([-1.0, 1.0]))
            )
            record.wait(timeout=30)
            assert record.state == JobState.FAILED
            with pytest.raises(ServeError, match="failed"):
                service.result(record.job_id, timeout=5)
            assert service.registry.events["serve.failures"] == 1

    def test_unknown_job_id(self, service_workdir):
        service = SliceService(
            num_workers=1, workdir=service_workdir, start=False
        )
        try:
            with pytest.raises(ServeError, match="unknown job id"):
                service.status("nope")
        finally:
            service.shutdown()

    def test_status_document_schema(self, planted_dataset, service_workdir):
        with SliceService(num_workers=1, workdir=service_workdir) as service:
            record = service.submit(self._spec(planted_dataset))
            service.result(record.job_id, timeout=60)
            doc = service.status_document()
        assert doc["schema"] == "repro.serve/v1"
        assert [job["job_id"] for job in doc["jobs"]] == [record.job_id]
        assert doc["jobs"][0]["tenant"] == "default"
        assert "tenants" not in doc
        assert doc["gauges"]["serve.queue_depth"] == 0
        json.dumps(doc)


# ---------------------------------------------------------------------------
# job lifecycle: every path that ends a job, on a journaled service
#
# Each path function drives a staged (``start=False``) durable service
# and returns the jobs it is about, by role.


def _find(planted, k=3) -> JobSpec:
    x0, errors, _ = planted
    return JobSpec(x0=x0, errors=errors, config=SliceLineConfig(k=k))


def _live_completion(service, planted, monkeypatch):
    service.start()
    return {"job": service.submit(_find(planted))}


def _cache_hit_at_submit(service, planted, monkeypatch):
    service.start()
    service.result(service.submit(_find(planted)).job_id, timeout=60)
    return {"job": service.submit(_find(planted))}


def _coalesced_waiter(service, planted, monkeypatch):
    origin = service.submit(_find(planted))
    waiter = service.submit(_find(planted))
    assert waiter.coalesced
    service.start()
    return {"origin": origin, "waiter": waiter}


def _rejection(service, planted, monkeypatch):
    service.queue.max_queued = 1
    service.submit(_find(planted))
    return {"job": service.submit(_find(planted, k=4))}


def _cancel_queued(service, planted, monkeypatch):
    job = service.submit(_find(planted))
    assert service.cancel(job.job_id)
    return {"job": job}


def _cancel_running(service, planted, monkeypatch):
    started = threading.Event()
    run = service_module.slice_line

    def gated(*args, **kwargs):
        # Hold the run until cancel() has asked it to suspend; the real
        # search then yields at its first level boundary.
        started.set()
        deadline = time.monotonic() + 30
        while not kwargs["suspend"].requested and time.monotonic() < deadline:
            time.sleep(0.001)
        return run(*args, **kwargs)

    monkeypatch.setattr(service_module, "slice_line", gated)
    service.start()
    job = service.submit(_find(planted))
    assert started.wait(30)
    assert service.cancel(job.job_id)
    return {"job": job}


def _failing_runs(monkeypatch, failures: int) -> None:
    """The service's first *failures* searches raise; later ones run."""
    run = service_module.slice_line
    calls = []

    def flaky(*args, **kwargs):
        calls.append(None)
        if len(calls) <= failures:
            raise RuntimeError("injected failure")
        return run(*args, **kwargs)

    monkeypatch.setattr(service_module, "slice_line", flaky)


def _failure(service, planted, monkeypatch):
    _failing_runs(monkeypatch, failures=1)
    service.start()
    return {"job": service.submit(_find(planted))}


def _origin_fails_waiter_promoted(service, planted, monkeypatch):
    _failing_runs(monkeypatch, failures=1)
    origin = service.submit(_find(planted))
    waiter = service.submit(_find(planted))
    assert waiter.coalesced
    service.start()
    return {"origin": origin, "waiter": waiter}


def _expect(events, journal, queue_depth=0):
    return {
        "events": {"serve.submitted": 1, "serve.cache_misses": 1, **events},
        "gauges": {"serve.running": 0, "serve.queue_depth": queue_depth},
        "journal": journal,
    }


#: path -> (its path function, expected events, gauges and journal record
#: types by role)
LIFECYCLE_PATHS = {
    "live-completion": (
        _live_completion,
        _expect(
            {"serve.completed": 1},
            {"job": ["submit", "dispatch", "complete"]},
        ),
    ),
    "cache-hit-at-submit": (
        _cache_hit_at_submit,
        _expect(
            {"serve.submitted": 2, "serve.completed": 1, "serve.cache_hits": 1},
            {"job": ["submit", "complete"]},
        ),
    ),
    "coalesced-waiter": (
        _coalesced_waiter,
        _expect(
            {
                "serve.submitted": 2,
                "serve.cache_misses": 2,
                "serve.completed": 1,
                "serve.cache_hits": 1,
            },
            {
                "origin": ["submit", "dispatch", "complete"],
                "waiter": ["submit", "complete"],
            },
        ),
    ),
    "rejection": (
        _rejection,
        _expect(
            {
                "serve.submitted": 2,
                "serve.cache_misses": 2,
                "serve.rejections": 1,
            },
            {"job": ["submit", "reject"]},
            queue_depth=1,
        ),
    ),
    "cancel-queued": (
        _cancel_queued,
        _expect({"serve.cancellations": 1}, {"job": ["submit", "cancel"]}),
    ),
    "cancel-running": (
        _cancel_running,
        _expect(
            {"serve.cancellations": 1},
            {"job": ["submit", "dispatch", "cancel"]},
        ),
    ),
    "failure": (
        _failure,
        _expect({"serve.failures": 1}, {"job": ["submit", "dispatch", "fail"]}),
    ),
    "origin-fails-waiter-promoted": (
        _origin_fails_waiter_promoted,
        _expect(
            {
                "serve.submitted": 2,
                "serve.cache_misses": 2,
                "serve.failures": 1,
                "serve.completed": 1,
            },
            {
                "origin": ["submit", "dispatch", "fail"],
                "waiter": ["submit", "dispatch", "complete"],
            },
        ),
    ),
}


#: WAL record types that end a job
_TERMINAL_TYPES = {"complete", "fail", "cancel", "reject"}


class TestJobLifecycle:
    @pytest.mark.parametrize("path", list(LIFECYCLE_PATHS))
    def test_path_pins_events_gauges_and_journal(
        self, path, planted_dataset, tmp_path, monkeypatch
    ):
        service = SliceService(
            num_workers=1,
            state_dir=str(tmp_path / "state"),
            wal_fsync=False,
            start=False,
        )
        woken = []
        append = JobJournal.append

        def spy(journal, record_type, job_id, **fields):
            if (
                record_type in _TERMINAL_TYPES
                and service.jobs[job_id].done.is_set()
            ):
                woken.append((record_type, job_id))
            return append(journal, record_type, job_id, **fields)

        monkeypatch.setattr(JobJournal, "append", spy)
        run, expected = LIFECYCLE_PATHS[path]
        try:
            jobs = run(service, planted_dataset, monkeypatch)
            for job in jobs.values():
                assert job.wait(timeout=60), (job.job_id, job.state)
            # stats() takes the service lock: the transition that woke the
            # jobs has finished counting and refreshing by then.
            stats = service.stats()
        finally:
            service.shutdown()
        journal = tmp_path / "state" / "wal" / "journal.wal"
        records, _, quarantined = scan_wal(journal.read_bytes())
        assert quarantined == []
        assert stats["events"] == expected["events"]
        assert {
            name: stats["gauges"][name] for name in expected["gauges"]
        } == expected["gauges"]
        assert {
            role: [r["type"] for r in records if r["job_id"] == job.job_id]
            for role, job in jobs.items()
        } == expected["journal"]
        # Each terminal record is durable before its job wakes.
        assert woken == []


# ---------------------------------------------------------------------------
# concurrency stress


class TestSchedulerStress:
    @settings(max_examples=5, deadline=None)
    @given(
        num_tenants=st.integers(min_value=1, max_value=3),
        jobs_per_tenant=st.integers(min_value=1, max_value=3),
        num_workers=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_n_tenants_m_jobs_always_terminate(
        self, num_tenants, jobs_per_tenant, num_workers, seed, tmp_path_factory
    ):
        rng = np.random.default_rng(seed)
        x0 = np.column_stack(
            [rng.integers(1, 4, size=120) for _ in range(3)]
        ).astype(np.int64)
        errors = rng.random(120)
        workdir = str(tmp_path_factory.mktemp("stress"))
        with SliceService(num_workers=num_workers, workdir=workdir) as service:
            records = []
            for tenant_index in range(num_tenants):
                for job_index in range(jobs_per_tenant):
                    records.append(
                        service.submit(
                            JobSpec(
                                tenant=f"tenant-{tenant_index}",
                                x0=x0,
                                errors=errors,
                                # vary k so fingerprints differ across jobs
                                config=SliceLineConfig(
                                    k=1 + job_index, max_level=2
                                ),
                            )
                        )
                    )
            assert service.wait(timeout=120)
            for record in records:
                assert record.terminal
                assert record.state in (
                    JobState.COMPLETED, JobState.REJECTED
                )
            # every slot released: nothing queued or running afterwards
            assert service.queue.depth() == 0
            assert service.queue.running_count() == 0

    def test_concurrent_identical_submissions_one_enumeration(
        self, planted_dataset, service_workdir
    ):
        x0, errors, _ = planted_dataset
        service = SliceService(
            num_workers=2, workdir=service_workdir, start=False
        )
        try:
            records = []
            lock = threading.Lock()

            def submit():
                record = service.submit(
                    JobSpec(x0=x0, errors=errors, config=SliceLineConfig(k=3))
                )
                with lock:
                    records.append(record)

            threads = [
                threading.Thread(target=submit) for _ in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            service.start()
            assert service.wait(timeout=120)
            results = {id(record.result) for record in records}
            assert len(results) == 1  # every duplicate shares one result
            assert (
                sum(1 for record in records if record.coalesced)
                == len(records) - 1
            )
        finally:
            service.shutdown()

    def test_cancelled_jobs_release_slots_under_load(
        self, planted_dataset, service_workdir
    ):
        service = SliceService(
            num_workers=1, workdir=service_workdir, start=False
        )
        try:
            x0, errors, _ = planted_dataset
            records = [
                service.submit(
                    JobSpec(
                        x0=x0, errors=errors,
                        config=SliceLineConfig(k=1 + index, max_level=2),
                    )
                )
                for index in range(4)
            ]
            # cancel two while everything is still queued
            assert service.cancel(records[1].job_id)
            assert service.cancel(records[2].job_id)
            service.start()
            assert service.wait(timeout=120)
            assert records[0].state == JobState.COMPLETED
            assert records[1].state == JobState.CANCELLED
            assert records[2].state == JobState.CANCELLED
            assert records[3].state == JobState.COMPLETED
            assert service.queue.running_count() == 0
        finally:
            service.shutdown()


# ---------------------------------------------------------------------------
# CLI


class TestServeCli:
    def test_cli_runs_job_file_and_writes_status(self, tmp_path, capsys):
        from repro.cli import main

        jobs = {
            "defaults": {
                "tenant": "analytics",
                "dataset": "salaries",
                "config": {"k": 3, "max_level": 3},
            },
            "jobs": [{"name": "one"}, {"name": "one-again"}],
        }
        jobs_path = tmp_path / "jobs.json"
        jobs_path.write_text(json.dumps(jobs))
        status_path = tmp_path / "status.json"
        code = main(
            [
                "serve", str(jobs_path),
                "--workers", "1",
                "--workdir", str(tmp_path / "work"),
                "--status-json", str(status_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cache hit" in out
        doc = json.loads(status_path.read_text())
        assert doc["schema"] == "repro.serve/v1"
        assert doc["events"]["serve.cache_hits"] >= 1
        states = [job["state"] for job in doc["jobs"]]
        assert states == ["completed", "completed"]
        assert any(job["cache_hit"] for job in doc["jobs"])

    def test_cli_reports_bad_job_file(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["serve", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_cli_accepts_job_directory(self, tmp_path, capsys):
        from repro.cli import main

        jobs_dir = tmp_path / "jobs"
        jobs_dir.mkdir()
        (jobs_dir / "a.json").write_text(
            json.dumps(
                {
                    "jobs": [
                        {
                            "dataset": "salaries",
                            "config": {"k": 2, "max_level": 2},
                        }
                    ]
                }
            )
        )
        code = main(
            [
                "serve", str(jobs_dir),
                "--workers", "1",
                "--workdir", str(tmp_path / "work"),
            ]
        )
        assert code == 0
        assert "completed" in capsys.readouterr().out
