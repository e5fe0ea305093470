"""Tests for crash durability: WAL journal, durable cache, process workers.

The load-bearing guarantees:

- the ``repro.wal/v1`` journal replays any byte-prefix of itself to a
  consistent state — a torn tail (crash mid-append) or corrupt suffix is
  quarantined with a typed reason, never silently decoded, and no
  completed job in the valid prefix is duplicated or lost;
- a :class:`DurableResultCache` reloads its spill directory on
  construction: readable entries round-trip bitwise, corrupt or misnamed
  files are quarantined, eviction keeps disk and memory in sync;
- a :class:`SliceService` constructed over a ``state_dir`` recovers the
  pre-crash job table: completed results are cache hits again, in-flight
  jobs re-admit at the front and finish bitwise-identically, queued jobs
  of every tenant keep their job ids, and each registry dataset is built
  once per recovery; a recovered completed job whose result is gone
  (evicted, or its spill lost) stays completed, and ``result()`` raises
  a typed error instead of returning ``None``;
- explicit-array inputs spill once per dataset, before the first submit
  record that needs them, with the codes in the dtype their fingerprint
  hashed; recovery reads each spill once, still checks it against the
  journaled fingerprint, and still reads the per-job spills of older
  journals;
- a state dir journaled when inputs were fingerprinted by their bytes
  loses no job on restart: each keeps its old identity and bundles;
- process workers survive SIGKILL and heartbeat-timeout kills with an
  orphan requeue, and a poison-pill job fails typed, not forever.
"""

from __future__ import annotations

import json
import os
import signal
import struct
import time
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.algorithm as algorithm_module
import repro.resilience.checkpoint as checkpoint_module
import repro.serve.service as service_module
from repro.core.algorithm import slice_line
from repro.core.config import SliceLineConfig
from repro.datasets import load_dataset
from repro.exceptions import CheckpointError, ConfigError, ServeError
from repro.resilience.budgets import SuspendHook
from repro.resilience.chaos import corrupt_file, truncate_file
from repro.resilience.checkpoint import (
    fingerprint_config,
    fingerprint_digest,
    fingerprint_inputs,
    latest_checkpoint,
)
from repro.serve import (
    DurableResultCache,
    JobJournal,
    JobSpec,
    JobState,
    ResultCache,
    SliceService,
    WAL_SCHEMA,
    decode_result,
    encode_result,
    frame_record,
    scan_wal,
)
from repro.serve.declarative import spec_to_dict


def _wal_record(record_type: str, job_id: str, **fields) -> dict:
    return {
        "schema": WAL_SCHEMA,
        "type": record_type,
        "job_id": job_id,
        **fields,
    }


def _lifecycle(job_id: str, terminal: str = "complete") -> list[dict]:
    return [
        _wal_record("submit", job_id, serial=0),
        _wal_record("dispatch", job_id),
        _wal_record(terminal, job_id),
    ]


def _assert_results_equal(a, b) -> None:
    """Bitwise equality of everything a cached result is trusted for."""
    assert [s.predicates for s in a.top_slices] == [
        s.predicates for s in b.top_slices
    ]
    assert [s.score for s in a.top_slices] == [s.score for s in b.top_slices]
    assert [s.error for s in a.top_slices] == [s.error for s in b.top_slices]
    assert [s.max_error for s in a.top_slices] == [
        s.max_error for s in b.top_slices
    ]
    assert [s.size for s in a.top_slices] == [s.size for s in b.top_slices]
    np.testing.assert_array_equal(a.top_slices_encoded, b.top_slices_encoded)
    np.testing.assert_array_equal(a.top_stats, b.top_stats)
    assert a.completed == b.completed
    assert a.average_error == b.average_error
    assert a.num_rows == b.num_rows
    assert a.num_features == b.num_features


@pytest.fixture
def small_result(planted_dataset):
    x0, errors, _ = planted_dataset
    return x0, errors, slice_line(x0, errors)


# ---------------------------------------------------------------------------
# WAL framing and replay


class TestWalFraming:
    def test_round_trip(self):
        records = _lifecycle("t/j0") + _lifecycle("t/j1", terminal="fail")
        data = b"".join(frame_record(r) for r in records)
        scanned, valid, quarantined = scan_wal(data)
        assert scanned == records
        assert valid == len(data)
        assert quarantined == []

    def test_empty(self):
        assert scan_wal(b"") == ([], 0, [])

    def test_torn_tail_every_byte_boundary(self):
        """Truncating inside the last record must never invent records."""
        records = _lifecycle("t/j0")
        frames = [frame_record(r) for r in records]
        prefix = b"".join(frames[:-1])
        last = frames[-1]
        for cut in range(len(last)):
            scanned, valid, quarantined = scan_wal(prefix + last[:cut])
            assert scanned == records[:-1]
            assert valid == len(prefix)
            if cut == 0:
                assert quarantined == []
            else:
                assert len(quarantined) == 1
                assert quarantined[0].reason in (
                    "torn-header",
                    "torn-body",
                    "checksum-mismatch",
                    "bad-length",
                )

    def test_checksum_mismatch_stops_replay(self):
        records = _lifecycle("t/j0")
        data = bytearray(b"".join(frame_record(r) for r in records))
        # Flip one payload byte of the second frame.
        first_len = len(frame_record(records[0]))
        data[first_len + 8] ^= 0xFF
        scanned, valid, quarantined = scan_wal(bytes(data))
        assert scanned == records[:1]
        assert valid == first_len
        assert [q.reason for q in quarantined] == ["checksum-mismatch"]

    def test_bad_length_field(self):
        frame = struct.pack("<II", 1 << 30, 0) + b"x"
        scanned, valid, quarantined = scan_wal(frame)
        assert scanned == []
        assert [q.reason for q in quarantined] == ["bad-length"]

    def test_bad_json_and_bad_record(self):
        payload = b"not json"
        frame = struct.pack("<II", len(payload), zlib.crc32(payload)) + payload
        assert [q.reason for q in scan_wal(frame)[2]] == ["bad-json"]
        wrong = json.dumps({"schema": "other", "type": "submit"}).encode()
        frame = struct.pack("<II", len(wrong), zlib.crc32(wrong)) + wrong
        assert [q.reason for q in scan_wal(frame)[2]] == ["bad-record"]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_prefix_replay_is_consistent(self, data):
        """Property: any byte-prefix of a valid WAL replays to a state
        with no duplicated and no lost *completed* jobs.

        The scanned records must be an exact list-prefix of the full
        record stream (nothing reordered, invented, or skipped), so the
        set of jobs whose ``complete`` record survived is exactly the
        completed jobs whose frame fits the prefix — each exactly once.
        """
        n_jobs = data.draw(st.integers(min_value=1, max_value=5))
        terminals = data.draw(
            st.lists(
                st.sampled_from(["complete", "cancel", "fail"]),
                min_size=n_jobs,
                max_size=n_jobs,
            )
        )
        records = []
        for index, terminal in enumerate(terminals):
            records.extend(_lifecycle(f"t/j{index}", terminal=terminal))
        full = b"".join(frame_record(r) for r in records)
        cut = data.draw(st.integers(min_value=0, max_value=len(full)))
        scanned, valid, quarantined = scan_wal(full[:cut])
        # Exact prefix of the logical stream.
        assert scanned == records[: len(scanned)]
        assert valid <= cut
        assert len(quarantined) <= 1
        completed = [r["job_id"] for r in scanned if r["type"] == "complete"]
        assert len(completed) == len(set(completed))  # no duplicates
        expected = [
            r["job_id"]
            for r in records[: len(scanned)]
            if r["type"] == "complete"
        ]
        assert completed == expected  # none lost within the valid prefix


class TestJobJournal:
    def test_append_replay_round_trip(self, tmp_path):
        path = str(tmp_path / "wal" / "journal.wal")
        with JobJournal(path) as journal:
            journal.append("submit", "t/j0", serial=0)
            journal.append("complete", "t/j0")
        replayed = JobJournal(path)
        assert [(r["type"], r["job_id"]) for r in replayed.records] == [
            ("submit", "t/j0"),
            ("complete", "t/j0"),
        ]
        assert replayed.quarantined == []
        replayed.close()

    def test_torn_tail_truncated_and_quarantined(self, tmp_path):
        path = str(tmp_path / "journal.wal")
        with JobJournal(path) as journal:
            journal.append("submit", "t/j0", serial=0)
            journal.append("dispatch", "t/j0")
        truncate_file(path, os.path.getsize(path) - 3)
        journal = JobJournal(path)
        assert [r["type"] for r in journal.records] == ["submit"]
        assert [q.reason for q in journal.quarantined] == ["torn-body"]
        sidecar = path + ".quarantined-0"
        assert os.path.exists(sidecar)
        # New appends extend the clean prefix.
        journal.append("cancel", "t/j0")
        journal.close()
        final = JobJournal(path)
        assert [r["type"] for r in final.records] == ["submit", "cancel"]
        assert final.quarantined == []
        final.close()

    def test_rejects_unknown_record_type(self, tmp_path):
        journal = JobJournal(str(tmp_path / "j.wal"))
        with pytest.raises(ConfigError):
            journal.append("explode", "t/j0")
        journal.close()

    def test_append_after_close_raises(self, tmp_path):
        journal = JobJournal(str(tmp_path / "j.wal"))
        journal.close()
        with pytest.raises(ServeError):
            journal.append("submit", "t/j0")


# ---------------------------------------------------------------------------
# result encoding + durable cache


class TestResultEncoding:
    def test_round_trip_bitwise(self, small_result):
        _, _, result = small_result
        payload = encode_result("fp0", "dd0", result)
        fingerprint, data_digest, decoded = decode_result(payload)
        assert (fingerprint, data_digest) == ("fp0", "dd0")
        _assert_results_equal(result, decoded)
        assert decoded.total_seconds == result.total_seconds
        assert [s.level for s in decoded.level_stats] == [
            s.level for s in result.level_stats
        ]

    def test_decoded_level_stats_are_its_counters(self, small_result):
        _, _, result = small_result
        _, _, decoded = decode_result(encode_result("fp0", "dd0", result))
        assert decoded.counters.to_dict() == result.counters.to_dict()
        assert len(decoded.level_stats) == len(result.level_stats)
        for stats, level in zip(decoded.level_stats, decoded.counters.levels):
            assert stats is level

    def test_rejects_garbage(self):
        with pytest.raises(ServeError):
            decode_result(b"not an npz")


class TestSizeAwareEviction:
    def test_max_bytes_evicts_lru(self, small_result):
        _, _, result = small_result
        entry_size = len(encode_result("fp0", "dd", result))
        cache = ResultCache(capacity=64, max_bytes=2 * entry_size)
        for index in range(3):
            cache.put(f"fp{index}", "dd", result)
        stats = cache.stats()
        assert stats["entries"] == 2
        assert stats["bytes"] <= 2 * entry_size
        assert cache.peek("fp0") is None  # LRU victim
        assert cache.peek("fp2") is not None

    def test_always_keeps_one_entry(self, small_result):
        _, _, result = small_result
        cache = ResultCache(capacity=64, max_bytes=1)
        cache.put("fp0", "dd", result)
        assert len(cache) == 1

    def test_rejects_bad_bounds(self):
        with pytest.raises(ConfigError):
            ResultCache(max_bytes=0)


class TestDurableResultCache:
    def test_spill_and_reload(self, tmp_path, small_result):
        _, _, result = small_result
        directory = str(tmp_path / "cache")
        cache = DurableResultCache(directory=directory)
        cache.put("fp0", "dd0", result)
        assert os.path.exists(os.path.join(directory, "fp0.npz"))
        reloaded = DurableResultCache(directory=directory)
        recovered = reloaded.peek("fp0")
        assert recovered is not None
        _assert_results_equal(result, recovered)
        assert reloaded.quarantined == []

    def test_eviction_deletes_spill_file(self, tmp_path, small_result):
        _, _, result = small_result
        directory = str(tmp_path / "cache")
        cache = DurableResultCache(capacity=1, directory=directory)
        cache.put("fp0", "dd0", result)
        cache.put("fp1", "dd0", result)
        assert not os.path.exists(os.path.join(directory, "fp0.npz"))
        assert os.path.exists(os.path.join(directory, "fp1.npz"))

    def test_corrupt_spill_file_quarantined(self, tmp_path, small_result):
        _, _, result = small_result
        directory = str(tmp_path / "cache")
        cache = DurableResultCache(directory=directory)
        cache.put("fp0", "dd0", result)
        cache.put("fp1", "dd0", result)
        truncate_file(os.path.join(directory, "fp0.npz"), 10)
        reloaded = DurableResultCache(directory=directory)
        assert reloaded.peek("fp0") is None
        assert reloaded.peek("fp1") is not None
        assert [q.reason for q in reloaded.quarantined] == ["undecodable"]
        assert os.path.exists(
            os.path.join(directory, "quarantine", "fp0.npz")
        )

    def test_misnamed_spill_file_quarantined(self, tmp_path, small_result):
        _, _, result = small_result
        directory = str(tmp_path / "cache")
        cache = DurableResultCache(directory=directory)
        cache.put("fp0", "dd0", result)
        os.replace(
            os.path.join(directory, "fp0.npz"),
            os.path.join(directory, "stolen.npz"),
        )
        reloaded = DurableResultCache(directory=directory)
        assert len(reloaded) == 0
        assert [q.reason for q in reloaded.quarantined] == [
            "fingerprint-mismatch"
        ]

    def test_reload_preserves_lru_order(self, tmp_path, small_result):
        _, _, result = small_result
        directory = str(tmp_path / "cache")
        cache = DurableResultCache(directory=directory)
        for index in range(3):
            cache.put(f"fp{index}", "dd0", result)
            # mtime resolution on some filesystems is coarse; force
            # distinct stamps so the reload order is deterministic.
            stamp = time.time() + index
            os.utime(
                os.path.join(directory, f"fp{index}.npz"), (stamp, stamp)
            )
        reloaded = DurableResultCache(capacity=2, directory=directory)
        assert reloaded.peek("fp0") is None  # stalest entry evicted on load
        assert reloaded.peek("fp1") is not None
        assert reloaded.peek("fp2") is not None

    def test_requires_directory(self):
        with pytest.raises(ConfigError):
            DurableResultCache()


# ---------------------------------------------------------------------------
# service recovery


class TestServiceRecovery:
    def test_completed_job_recovers_and_resubmission_hits_cache(
        self, tmp_path, planted_dataset
    ):
        x0, errors, _ = planted_dataset
        state = str(tmp_path / "state")
        with SliceService(state_dir=state, num_workers=1) as service:
            record = service.submit(JobSpec(x0=x0, errors=errors))
            baseline = service.result(record.job_id, timeout=60)

        recovered = SliceService(state_dir=state, num_workers=1)
        try:
            old = recovered.jobs[record.job_id]
            assert old.recovered
            assert old.state == JobState.COMPLETED
            _assert_results_equal(old.result, baseline)

            resubmit = recovered.submit(JobSpec(x0=x0, errors=errors))
            assert resubmit.cache_hit
            assert resubmit.state == JobState.COMPLETED
            _assert_results_equal(resubmit.result, baseline)
        finally:
            recovered.shutdown()

    def test_pending_job_recovers_and_completes_bitwise(
        self, tmp_path, planted_dataset
    ):
        x0, errors, _ = planted_dataset
        state = str(tmp_path / "state")
        # start=False: the job is journaled as submitted but never runs —
        # the service "crashes" (shutdown without completing it).
        service = SliceService(state_dir=state, num_workers=1, start=False)
        record = service.submit(JobSpec(x0=x0, errors=errors))
        assert record.state == JobState.PENDING
        service.shutdown()

        recovered = SliceService(state_dir=state, num_workers=1)
        try:
            old = recovered.jobs[record.job_id]
            assert old.recovered
            result = recovered.result(record.job_id, timeout=60)
            _assert_results_equal(result, slice_line(x0, errors))
        finally:
            recovered.shutdown()

    def test_suspended_job_resumes_from_checkpoint(
        self, tmp_path, planted_dataset
    ):
        x0, errors, _ = planted_dataset
        config = SliceLineConfig(max_level=3)
        state = str(tmp_path / "state")
        service = SliceService(state_dir=state, num_workers=1, start=False)
        record = service.submit(JobSpec(x0=x0, errors=errors, config=config))
        record.suspend.request()  # suspend at the first level boundary
        # Run one execution attempt synchronously (the scheduler never
        # starts, so nothing resumes the suspended job before the "crash").
        taken = service.queue.take(timeout=5)
        assert taken is record
        service._execute(record)
        assert record.state == JobState.SUSPENDED
        service.journal.close()

        recovered = SliceService(state_dir=state, num_workers=1)
        try:
            old = recovered.jobs[record.job_id]
            assert old.recovered
            assert old.has_checkpoint
            result = recovered.result(record.job_id, timeout=60)
            assert old.resumes >= 1
            _assert_results_equal(result, slice_line(x0, errors, config=config))
        finally:
            recovered.shutdown()

    def test_recovery_survives_torn_journal_tail(
        self, tmp_path, planted_dataset
    ):
        x0, errors, _ = planted_dataset
        state = str(tmp_path / "state")
        with SliceService(state_dir=state, num_workers=1) as service:
            record = service.submit(JobSpec(x0=x0, errors=errors))
            baseline = service.result(record.job_id, timeout=60)
        wal = os.path.join(state, "wal", "journal.wal")
        truncate_file(wal, os.path.getsize(wal) - 2)
        recovered = SliceService(state_dir=state, num_workers=1)
        try:
            stats = recovered.stats()
            assert len(stats["durability"]["wal_quarantined"]) == 1
            # The torn record was this job's `complete`; the job re-admits
            # as pending, finds its result in the durable cache, and
            # completes as a hit with zero enumeration.
            old = recovered.jobs[record.job_id]
            assert old.state == JobState.COMPLETED
            assert old.cache_hit
            _assert_results_equal(old.result, baseline)
        finally:
            recovered.shutdown()

    def test_corrupt_cache_spill_forces_rerun_not_failure(
        self, tmp_path, planted_dataset
    ):
        x0, errors, _ = planted_dataset
        state = str(tmp_path / "state")
        with SliceService(state_dir=state, num_workers=1) as service:
            record = service.submit(JobSpec(x0=x0, errors=errors))
            baseline = service.result(record.job_id, timeout=60)
            spill = os.path.join(
                state, "cache", f"{record.fingerprint}.npz"
            )
        corrupt_file(spill, seed=7, nflips=8)
        recovered = SliceService(state_dir=state, num_workers=1)
        try:
            # decode may or may not survive 8 random flips of an npz; either
            # the entry was quarantined (resubmission re-runs) or it decoded
            # bitwise-identically (crc of the zip member caught nothing
            # because the flips hit padding). Both must yield the baseline.
            resubmit = recovered.submit(JobSpec(x0=x0, errors=errors))
            result = recovered.result(resubmit.job_id, timeout=60)
            _assert_results_equal(result, baseline)
        finally:
            recovered.shutdown()

    @pytest.mark.parametrize("cause", ["evicted", "spill-deleted"])
    def test_completed_job_without_its_result_raises(
        self, tmp_path, planted_dataset, cause
    ):
        """Recovery restores a job's result only from the cache.  A job
        left without one stays completed; its ``result()`` raises, and a
        resubmission runs it again."""
        x0, errors, _ = planted_dataset
        config = SliceLineConfig(k=3, max_level=2)
        spec = JobSpec(x0=x0, errors=errors, config=config)
        state = str(tmp_path / "state")
        with SliceService(
            state_dir=state, num_workers=1, cache_entries=1
        ) as service:
            record = service.submit(spec)
            live = service.result(record.job_id, timeout=60)
            if cause == "evicted":
                # The one cache entry goes to a second job: the first
                # job's spill is deleted.
                other = service.submit(
                    JobSpec(
                        x0=x0, errors=errors,
                        config=SliceLineConfig(k=4, max_level=2),
                    )
                )
                service.result(other.job_id, timeout=60)
        spill = os.path.join(state, "cache", f"{record.fingerprint}.npz")
        if cause == "spill-deleted":
            os.unlink(spill)
        assert not os.path.exists(spill)

        recovered = SliceService(
            state_dir=state, num_workers=1, cache_entries=1
        )
        try:
            old = recovered.jobs[record.job_id]
            assert old.recovered
            assert old.state == JobState.COMPLETED
            with pytest.raises(ServeError, match="not retained") as info:
                recovered.result(record.job_id, timeout=60)
            assert record.job_id in str(info.value)
            assert "resubmission" in str(info.value)
            resubmit = recovered.submit(spec)
            assert not resubmit.cache_hit
            rerun = recovered.result(resubmit.job_id, timeout=60)
        finally:
            recovered.shutdown()
        _assert_results_equal(rerun, live)
        _assert_results_equal(rerun, slice_line(x0, errors, config=config))

    def test_recovered_serials_do_not_collide(self, tmp_path, planted_dataset):
        x0, errors, _ = planted_dataset
        state = str(tmp_path / "state")
        with SliceService(state_dir=state, num_workers=1) as service:
            record = service.submit(JobSpec(x0=x0, errors=errors))
            service.result(record.job_id, timeout=60)
        recovered = SliceService(state_dir=state, num_workers=1)
        try:
            resubmit = recovered.submit(JobSpec(x0=x0, errors=errors))
            assert resubmit.job_id != record.job_id
            assert resubmit.job_id in recovered.jobs
        finally:
            recovered.shutdown()

    def test_dataset_spec_recovers_without_input_spill(self, tmp_path):
        state = str(tmp_path / "state")
        spec = JobSpec(dataset="salaries", seed=3)
        service = SliceService(state_dir=state, num_workers=1, start=False)
        record = service.submit(spec)
        service.shutdown()
        safe_dir = os.path.join(state, "jobs")
        spills = [
            name
            for _, _, names in os.walk(safe_dir)
            for name in names
            if name == "inputs.npz"
        ]
        assert spills == []  # dataset specs re-resolve by name
        assert os.listdir(os.path.join(state, "inputs")) == []
        recovered = SliceService(state_dir=state, num_workers=1)
        try:
            result = recovered.result(record.job_id, timeout=60)
            assert result.completed
        finally:
            recovered.shutdown()

    def test_registry_dataset_is_built_once_per_recovery(
        self, tmp_path, monkeypatch
    ):
        import repro.datasets.registry as registry

        state = str(tmp_path / "state")
        configs = _configs(4)
        service = SliceService(state_dir=state, num_workers=1, start=False)
        records = [
            service.submit(JobSpec(dataset="salaries", seed=3, config=config))
            for config in configs
        ]
        service.shutdown()
        load = registry.load_dataset
        loads = []

        def counting_load(*args, **kwargs):
            loads.append(args)
            return load(*args, **kwargs)

        monkeypatch.setattr(registry, "load_dataset", counting_load)
        recovered = SliceService(state_dir=state, num_workers=1, start=False)
        try:
            assert recovered.recovery_errors == []
            assert len(loads) == 1
            rebuilt = [recovered.jobs[r.job_id] for r in records]
            for record in rebuilt:
                assert record.x0 is rebuilt[0].x0
                assert record.errors is rebuilt[0].errors
                assert not record.x0.flags.writeable
                assert not record.errors.flags.writeable
            recovered.start()
            results = [
                recovered.result(r.job_id, timeout=60) for r in records
            ]
        finally:
            recovered.shutdown()
        bundle = load("salaries", seed=3)
        for config, result in zip(configs, results):
            _assert_results_equal(
                result, slice_line(bundle.x0, bundle.errors, config=config)
            )

    def test_queued_jobs_of_two_tenants_recover_with_their_ids(
        self, tmp_path, planted_dataset
    ):
        x0, errors, _ = planted_dataset
        state = str(tmp_path / "state")
        configs = _configs(4)
        tenants = ["a", "b", "a", "b"]
        service = SliceService(state_dir=state, num_workers=1, start=False)
        records = [
            service.submit(
                JobSpec(tenant=tenant, x0=x0, errors=errors, config=config)
            )
            for tenant, config in zip(tenants, configs)
        ]
        service.shutdown()
        recovered = SliceService(state_dir=state, num_workers=2, start=False)
        try:
            assert list(recovered.jobs) == [r.job_id for r in records]
            assert [job_id.split("/")[0] for job_id in recovered.jobs] == (
                tenants
            )
            assert recovered.queue.depth() == len(records)
            recovered.start()
            results = [
                recovered.result(r.job_id, timeout=60) for r in records
            ]
        finally:
            recovered.shutdown()
        for config, result in zip(configs, results):
            _assert_results_equal(result, slice_line(x0, errors, config=config))

    def test_unrebuildable_job_is_quarantined_once(self, tmp_path):
        """A submit record recovery cannot rebuild (here: a config key an
        older version wrote) is reported by the first restart only; a
        ``fail`` record in the journal keeps the reason."""
        state = str(tmp_path / "state")
        table = spec_to_dict(JobSpec(dataset="salaries", seed=3))
        table["config"]["kernel_backend"] = "auto"
        with JobJournal(os.path.join(state, "wal", "journal.wal")) as wal:
            wal.append("submit", "old-job", serial=0, spec=table)

        first = SliceService(state_dir=state, num_workers=1, start=False)
        first.shutdown()
        assert first.registry.events["serve.recovery_quarantined"] == 1
        assert [e["job_id"] for e in first.recovery_errors] == ["old-job"]
        assert "kernel_backend" in first.recovery_errors[0]["error"]

        second = SliceService(state_dir=state, num_workers=1, start=False)
        second.shutdown()
        assert second.registry.events.get("serve.recovery_quarantined", 0) == 0
        assert second.recovery_errors == []
        assert "old-job" not in second.jobs
        last = second.journal.records[-1]
        assert (last["type"], last["job_id"]) == ("fail", "old-job")
        assert last["reason"] == "recovery-failed"
        assert "kernel_backend" in last["error"]

    def test_failed_terminal_append_still_wakes_the_caller(
        self, tmp_path, planted_dataset, monkeypatch
    ):
        """A terminal append that fails (a full disk, a closed journal) is
        swallowed so that the worker survives it; the job then recovers
        from its last durable record, as an orphan."""
        x0, errors, _ = planted_dataset
        state = str(tmp_path / "state")
        append = JobJournal.append

        def full_disk(journal, record_type, job_id, **fields):
            if record_type == "complete":
                raise OSError(28, "No space left on device")
            return append(journal, record_type, job_id, **fields)

        with monkeypatch.context() as patch:
            patch.setattr(JobJournal, "append", full_disk)
            with SliceService(state_dir=state, num_workers=1) as service:
                record = service.submit(JobSpec(x0=x0, errors=errors))
                baseline = service.result(record.job_id, timeout=60)
        assert record.state == JobState.COMPLETED
        assert [entry["type"] for entry in _journaled(state)] == [
            "submit", "dispatch"
        ]
        # The lost record shows in the events and the status document.
        assert service.stats()["events"]["serve.wal_append_failures"] == 1
        document = service.status_document()
        assert document["events"]["serve.wal_append_failures"] == 1

        with SliceService(state_dir=state, num_workers=1) as recovered:
            assert recovered.registry.events["serve.recovered_orphans"] == 1
            assert "serve.wal_append_failures" not in recovered.registry.events
            again = recovered.jobs[record.job_id]
            _assert_results_equal(
                recovered.result(again.job_id, timeout=60), baseline
            )

    def test_cache_bytes_gauge(self, tmp_path, planted_dataset):
        x0, errors, _ = planted_dataset
        with SliceService(num_workers=1, cache_bytes=1 << 20) as service:
            record = service.submit(JobSpec(x0=x0, errors=errors))
            service.result(record.job_id, timeout=60)
            stats = service.stats()
        assert stats["gauges"]["serve.cache_bytes"] > 0
        assert stats["cache"]["max_bytes"] == 1 << 20

    def test_rejects_bad_worker_mode(self):
        with pytest.raises(ConfigError):
            SliceService(worker_mode="fibers", start=False)


# ---------------------------------------------------------------------------
# shared input spills (one per dataset)


def _journaled(state: str) -> list[dict]:
    with open(os.path.join(state, "wal", "journal.wal"), "rb") as handle:
        return scan_wal(handle.read())[0]


def _input_spills(state: str) -> list[str]:
    return sorted(os.listdir(os.path.join(state, "inputs")))


def _per_job_spills(state: str) -> list[str]:
    return [
        os.path.join(directory, name)
        for directory, _, names in os.walk(os.path.join(state, "jobs"))
        for name in names
        if name == "inputs.npz"
    ]


def _configs(count: int) -> list[SliceLineConfig]:
    return [SliceLineConfig(k=2 + index, max_level=3) for index in range(count)]


def _pending_jobs(state: str, x0, errors, configs, **options) -> list:
    """Journal one submit per config and "crash" before any of them runs."""
    service = SliceService(
        state_dir=state, num_workers=1, start=False, **options
    )
    records = [
        service.submit(JobSpec(x0=x0, errors=errors, config=config))
        for config in configs
    ]
    service.shutdown()
    return records


class TestSharedInputSpills:
    def test_one_spill_per_dataset(self, tmp_path, planted_dataset):
        x0, errors, _ = planted_dataset
        state = str(tmp_path / "state")
        other = errors.copy()
        other[:7] = 1.0
        with SliceService(state_dir=state, num_workers=1) as service:
            first = [
                service.submit(JobSpec(x0=x0, errors=errors, config=config))
                for config in _configs(3) * 2  # misses, then hits
            ]
            assert service.wait(timeout=120)
            assert _input_spills(state) == [f"{first[0].data_digest}.npz"]
            second = service.submit(JobSpec(x0=x0, errors=other))
            assert service.wait(timeout=120)
            assert second.data_digest != first[0].data_digest
            assert _input_spills(state) == sorted(
                f"{r.data_digest}.npz" for r in (first[0], second)
            )
            assert _per_job_spills(state) == []
        # The spill holds the codes in the dtype their fingerprint hashed.
        spill = os.path.join(state, "inputs", f"{first[0].data_digest}.npz")
        with np.load(spill) as arrays:
            assert arrays["x0"].dtype == np.uint8
            np.testing.assert_array_equal(arrays["x0"], x0)
        submits = [r for r in _journaled(state) if r["type"] == "submit"]
        # The submit record is the one it always was: no path journaled.
        assert len(submits) == 7
        for entry in submits:
            assert entry["has_inputs"] is True
            assert set(entry) == {
                "schema", "type", "job_id", "fingerprint", "data_digest",
                "serial", "spec", "has_inputs", "submitted_at",
            }

    def test_spill_is_durable_before_the_first_submit_record(
        self, tmp_path, planted_dataset, monkeypatch
    ):
        x0, errors, _ = planted_dataset
        events = []
        write = service_module.atomic_write_bytes
        append = JobJournal.append

        def recording_write(path, data, durable=True):
            events.append(("spill", os.path.basename(path), durable))
            return write(path, data, durable=durable)

        def recording_append(journal, record_type, job_id, **fields):
            events.append((record_type, job_id))
            return append(journal, record_type, job_id, **fields)

        monkeypatch.setattr(
            service_module, "atomic_write_bytes", recording_write
        )
        monkeypatch.setattr(JobJournal, "append", recording_append)
        records = _pending_jobs(
            str(tmp_path / "state"), x0, errors, _configs(3)
        )
        digest = records[0].data_digest
        assert events == [
            ("spill", f"{digest}.npz", True),
            *[("submit", r.job_id) for r in records],
        ]

    def test_legacy_per_job_spill_recovers_bitwise(
        self, tmp_path, planted_dataset
    ):
        """A journal from before shared spills: the submit record as it
        always was, and the inputs in ``jobs/<id>/inputs.npz``."""
        x0, errors, _ = planted_dataset
        config = SliceLineConfig(k=3, max_level=3)
        spec = JobSpec(x0=x0, errors=errors, config=config)
        data_fp = fingerprint_inputs(x0, errors)
        fingerprint = fingerprint_digest(data_fp, fingerprint_config(config))
        job_id = f"default/find-{fingerprint[:12]}-0"
        state = tmp_path / "state"
        with JobJournal(str(state / "wal" / "journal.wal")) as wal:
            wal.append(
                "submit", job_id, fingerprint=fingerprint,
                data_digest=fingerprint_digest(data_fp), serial=0,
                spec=spec_to_dict(spec), has_inputs=True,
                submitted_at=time.time(),
            )
        job_dir = state / "jobs" / job_id.replace("/", "_")
        job_dir.mkdir(parents=True)
        np.savez(job_dir / "inputs.npz", x0=x0, errors=errors)

        recovered = SliceService(state_dir=str(state), num_workers=1)
        try:
            assert recovered.recovery_errors == []
            result = recovered.result(job_id, timeout=60)
            assert recovered.jobs[job_id].recovered
        finally:
            recovered.shutdown()
        _assert_results_equal(result, slice_line(x0, errors, config=config))
        assert _input_spills(str(state)) == []

    @pytest.mark.parametrize("damage", ["truncate", "flip", "rewrite"])
    def test_damaged_spill_quarantines_every_job_that_needs_it(
        self, tmp_path, planted_dataset, damage
    ):
        x0, errors, _ = planted_dataset
        state = str(tmp_path / "state")
        configs = _configs(3)
        records = _pending_jobs(state, x0, errors, configs)
        spill = os.path.join(
            state, "inputs", f"{records[0].data_digest}.npz"
        )
        size = os.path.getsize(spill)
        if damage == "truncate":
            truncate_file(spill, size // 2)
        elif damage == "rewrite":
            # A well-formed file with other data: only the hash tells.
            flipped = errors.copy()
            flipped[0] = 1.0 - flipped[0]
            np.savez(spill, x0=x0, errors=flipped)
        else:
            # One flipped byte in the middle of the file.
            with open(spill, "r+b") as handle:
                handle.seek(size // 2)
                byte = handle.read(1)
                handle.seek(size // 2)
                handle.write(bytes([byte[0] ^ 0xFF]))

        recovered = SliceService(state_dir=state, num_workers=1)
        try:
            quarantined = sorted(e["job_id"] for e in recovered.recovery_errors)
            assert quarantined == sorted(r.job_id for r in records)
            # Each quarantine names the damaged spill, not the job's spec.
            for entry in recovered.recovery_errors:
                assert f"input spill {spill} " in entry["error"]
            last = {entry["job_id"]: entry for entry in _journaled(state)}
            for record in records:
                assert record.job_id not in recovered.jobs
                assert last[record.job_id]["type"] == "fail"
                assert last[record.job_id]["reason"] == "recovery-failed"
            # A fresh submit of the same data spills it again and runs.
            fresh = recovered.submit(
                JobSpec(x0=x0, errors=errors, config=configs[0])
            )
            result = recovered.result(fresh.job_id, timeout=60)
        finally:
            recovered.shutdown()
        _assert_results_equal(result, slice_line(x0, errors, config=configs[0]))
        with np.load(spill) as bundle:
            np.testing.assert_array_equal(bundle["x0"], x0)
            np.testing.assert_array_equal(bundle["errors"], errors)

    def test_recovery_reads_each_spill_once(
        self, tmp_path, planted_dataset, monkeypatch
    ):
        x0, errors, _ = planted_dataset
        state = str(tmp_path / "state")
        configs = _configs(4)
        # The crashed instance ran without fsync: its spill is not durable.
        records = _pending_jobs(state, x0, errors, configs, wal_fsync=False)
        inputs_dir = os.path.join(state, "inputs")
        loads = []
        load = np.load

        def counting_load(file, *args, **kwargs):
            if str(getattr(file, "name", file)).startswith(inputs_dir):
                loads.append(file)
            return load(file, *args, **kwargs)

        monkeypatch.setattr(np, "load", counting_load)
        expected = fingerprint_inputs(x0, errors)
        hashed = []
        sha256 = checkpoint_module._sha256
        monkeypatch.setattr(
            checkpoint_module, "_sha256",
            lambda array: hashed.append(array.dtype) or sha256(array),
        )
        recovered = SliceService(state_dir=state, num_workers=1, start=False)
        try:
            assert len(loads) == 1
            rebuilt = [recovered.jobs[r.job_id] for r in records]
            for record in rebuilt:
                assert record.x0 is rebuilt[0].x0
                assert record.errors is rebuilt[0].errors
                assert not record.x0.flags.writeable
                assert not record.errors.flags.writeable
                # The narrow spill widens once to the codes the search takes.
                assert record.x0.dtype == np.int64
                assert record.input_fingerprint == expected
            recovered.start()
            results = [
                recovered.result(r.job_id, timeout=60) for r in records
            ]
            # The spill's codes and errors, once each; no search hashed.
            assert hashed == [np.uint8, np.float64]
            # Reading the spill back does not make it durable: the first
            # submit of this data writes it again, fsync'd, before its
            # submit record, and the next one writes nothing.
            events = []
            write = service_module.atomic_write_bytes
            append = JobJournal.append

            def recording_write(path, data, durable=True):
                events.append(("spill", os.path.basename(path), durable))
                return write(path, data, durable=durable)

            def recording_append(journal, record_type, job_id, **fields):
                if record_type == "submit":
                    events.append((record_type, job_id))
                return append(journal, record_type, job_id, **fields)

            monkeypatch.setattr(
                service_module, "atomic_write_bytes", recording_write
            )
            monkeypatch.setattr(JobJournal, "append", recording_append)
            again = [
                recovered.submit(JobSpec(x0=x0, errors=errors, config=config))
                for config in _configs(6)[4:]
            ]
            assert events == [
                ("spill", f"{records[0].data_digest}.npz", True),
                *[("submit", r.job_id) for r in again],
            ]
            assert len(loads) == 1
        finally:
            recovered.shutdown()
        for config, result in zip(configs, results):
            _assert_results_equal(result, slice_line(x0, errors, config=config))


# ---------------------------------------------------------------------------
# state dirs journaled when inputs were fingerprinted by their bytes


class _SuspendAfterLevel2(SuspendHook):
    """Stops the search at its second level boundary, after level 2."""

    def __init__(self) -> None:
        super().__init__()
        self.polls = 0

    @property
    def requested(self) -> bool:
        self.polls += 1
        return self.polls >= 2


class TestByteHashedStateDir:
    """Before codes were hashed narrow, every fingerprint was the byte hash
    (``_byte_fingerprint``): submit records, spills of the codes as given,
    cache entries and bundles all carry it.  Journaling with it patched in
    writes such a state dir; a restart must lose none of its jobs."""

    @pytest.mark.parametrize("codes", [np.int64, np.int32])
    def test_every_job_recovers_under_its_old_identity(
        self, tmp_path, planted_dataset, monkeypatch, codes
    ):
        x0, errors, _ = planted_dataset
        state = str(tmp_path / "state")
        byte_hash = checkpoint_module._byte_fingerprint
        with monkeypatch.context() as patch:
            for module in (service_module, algorithm_module):
                patch.setattr(module, "fingerprint_inputs", byte_hash)
            service = SliceService(state_dir=state, num_workers=1, start=False)
            done = service.submit(JobSpec(
                x0=x0, errors=errors, config=SliceLineConfig(k=2, max_level=3)
            ))
            service._execute(service.queue.take(timeout=5))
            suspended = service.submit(JobSpec(
                x0=x0.astype(codes), errors=errors,
                config=SliceLineConfig(k=4, max_level=3),
            ))
            suspended.suspend = _SuspendAfterLevel2()
            assert service.queue.take(timeout=5) is suspended
            service._execute(suspended)
            pending = service.submit(JobSpec(
                x0=x0, errors=errors, config=SliceLineConfig(k=3, max_level=3)
            ))
            registry = service.submit(JobSpec(dataset="salaries", seed=3))
            service.shutdown()
        records = [done, suspended, pending, registry]
        assert [r.state for r in records] == [
            JobState.COMPLETED, JobState.SUSPENDED,
            JobState.PENDING, JobState.PENDING,
        ]
        assert done.data_digest == pending.data_digest
        bundle = latest_checkpoint(service._checkpoint_dir(suspended))
        assert os.path.basename(bundle) == "level-0002"
        # The bundle carries the byte hash: a plain resume refuses it.
        with pytest.raises(CheckpointError, match="input data"):
            slice_line(
                x0.astype(codes), errors, suspended.spec.config,
                resume_from=bundle,
            )

        recovered = SliceService(state_dir=state, num_workers=1, start=False)
        try:
            assert recovered.recovery_errors == []
            assert list(recovered.jobs) == [r.job_id for r in records]
            for record in records:
                again = recovered.jobs[record.job_id]
                assert again.fingerprint == record.fingerprint
                assert again.data_digest == record.data_digest
            assert recovered.jobs[done.job_id].state == JobState.COMPLETED
            assert recovered.jobs[suspended.job_id].has_checkpoint
            recovered.start()
            results = [
                recovered.result(r.job_id, timeout=60) for r in records
            ]
            assert recovered.jobs[suspended.job_id].resumes == 1
            # An old cache entry misses once: the same job hashes anew.
            fresh = recovered.submit(
                JobSpec(x0=x0, errors=errors, config=done.spec.config)
            )
            assert not fresh.cache_hit
            assert fresh.fingerprint != done.fingerprint
            _assert_results_equal(
                recovered.result(fresh.job_id, timeout=60), results[0]
            )
        finally:
            recovered.shutdown()
        salaries = load_dataset("salaries", seed=3)
        for record, result in zip(records, results):
            data = (
                (salaries.x0, salaries.errors) if record is registry
                else (x0, errors)
            )
            _assert_results_equal(
                result, slice_line(*data, config=record.spec.config)
            )


class TestRetiredMonitorJobs:
    """While the service also ran monitor replays, every submit record's
    spec carried ``kind`` and five replay keys, and a journal could hold
    monitor jobs.  Rewriting a journal that way stands in for such a state
    dir: a restart must keep every find job and quarantine each monitor
    job once."""

    #: Replay keys as a find job's spec carried them (any values).
    FIND_KEYS = {
        "kind": "find", "batch_size": 64, "window_size": 2,
        "policy": "tumbling", "warm_start": False, "tick_every": 1,
    }

    def test_find_jobs_recover_and_monitor_jobs_fail_once(
        self, tmp_path, planted_dataset
    ):
        x0, errors, _ = planted_dataset
        state = str(tmp_path / "state")
        service = SliceService(state_dir=state, num_workers=1, start=False)
        done = service.submit(JobSpec(
            x0=x0, errors=errors, config=SliceLineConfig(k=2, max_level=3)
        ))
        service._execute(service.queue.take(timeout=5))
        suspended = service.submit(JobSpec(
            x0=x0, errors=errors, config=SliceLineConfig(k=4, max_level=3)
        ))
        suspended.suspend = _SuspendAfterLevel2()
        assert service.queue.take(timeout=5) is suspended
        service._execute(suspended)
        pending = service.submit(JobSpec(
            x0=x0, errors=errors, config=SliceLineConfig(k=3, max_level=3)
        ))
        registry = service.submit(JobSpec(dataset="salaries", seed=3))
        service.shutdown()
        records = [done, suspended, pending, registry]
        assert [r.state for r in records] == [
            JobState.COMPLETED, JobState.SUSPENDED,
            JobState.PENDING, JobState.PENDING,
        ]
        assert all("/find-" in r.job_id for r in records)

        journal = _journaled(state)
        for entry in journal:
            if entry["type"] == "submit":
                entry["spec"].update(self.FIND_KEYS)
        config = SliceLineConfig(k=3, max_level=2)
        monitors = []
        for tick_every, lifecycle in ((2, "complete"), (4, None)):
            replay = {
                "kind": "monitor", "batch_size": 100, "window_size": 8,
                "policy": "sliding", "warm_start": True,
                "tick_every": tick_every,
            }
            fingerprint = fingerprint_digest(
                fingerprint_inputs(x0, errors),
                fingerprint_config(config),
                replay,
            )
            job_id = f"default/monitor-{fingerprint[:12]}-0"
            monitors.append(job_id)
            journal.append(_wal_record(
                "submit", job_id, fingerprint=fingerprint,
                data_digest=done.data_digest, serial=0,
                spec={
                    **spec_to_dict(JobSpec(x0=x0, errors=errors, config=config)),
                    **replay,
                },
                has_inputs=True, submitted_at=time.time(),
            ))
            if lifecycle is not None:
                journal.append(_wal_record("dispatch", job_id))
                journal.append(_wal_record(
                    lifecycle, job_id, reason="", cache_hit=False, error=None
                ))
        with open(os.path.join(state, "wal", "journal.wal"), "wb") as handle:
            handle.write(b"".join(frame_record(r) for r in journal))

        recovered = SliceService(state_dir=state, num_workers=1, start=False)
        try:
            assert [e["job_id"] for e in recovered.recovery_errors] == monitors
            for error in recovered.recovery_errors:
                assert "'monitor' job" in error["error"]
            assert recovered.registry.events["serve.recovery_quarantined"] == 2
            assert list(recovered.jobs) == [r.job_id for r in records]
            for record in records:
                again = recovered.jobs[record.job_id]
                assert again.fingerprint == record.fingerprint
                assert again.data_digest == record.data_digest
                assert spec_to_dict(again.spec) == spec_to_dict(record.spec)
            assert recovered.jobs[done.job_id].state == JobState.COMPLETED
            assert recovered.jobs[suspended.job_id].has_checkpoint
            recovered.start()
            results = [
                recovered.result(r.job_id, timeout=60) for r in records
            ]
            assert recovered.jobs[suspended.job_id].resumes == 1
        finally:
            recovered.shutdown()
        salaries = load_dataset("salaries", seed=3)
        for record, result in zip(records, results):
            data = (
                (salaries.x0, salaries.errors) if record is registry
                else (x0, errors)
            )
            _assert_results_equal(
                result, slice_line(*data, config=record.spec.config)
            )

        again = SliceService(state_dir=state, num_workers=1, start=False)
        try:
            assert again.recovery_errors == []
            assert list(again.jobs) == [r.job_id for r in records]
            assert all(
                r.state == JobState.COMPLETED for r in again.jobs.values()
            )
        finally:
            again.shutdown()


# ---------------------------------------------------------------------------
# process workers


@pytest.fixture
def chunky_dataset(rng):
    """Big enough that a kill lands mid-run, small enough to stay quick."""
    x0 = np.column_stack(
        [rng.integers(1, 6, size=20000) for _ in range(20)]
    ).astype(np.int64)
    errors = (rng.random(20000) < 0.3).astype(np.float64)
    return x0, errors


def _wait_for_state(service, job_id, state, timeout=30.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if service.status(job_id)["state"] == state:
            return True
        time.sleep(0.02)
    return False


class TestProcessWorkers:
    def test_completes_and_matches_thread_mode(self, planted_dataset):
        x0, errors, _ = planted_dataset
        with SliceService(num_workers=1, worker_mode="process") as service:
            record = service.submit(JobSpec(x0=x0, errors=errors))
            result = service.result(record.job_id, timeout=120)
        _assert_results_equal(result, slice_line(x0, errors))

    def test_sigkill_requeues_orphan_and_result_is_bitwise(
        self, chunky_dataset
    ):
        x0, errors = chunky_dataset
        with SliceService(num_workers=1, worker_mode="process") as service:
            record = service.submit(JobSpec(x0=x0, errors=errors))
            assert _wait_for_state(service, record.job_id, "running")
            time.sleep(0.3)
            pid = service.stats()["workers"][0]["pid"]
            os.kill(pid, signal.SIGKILL)
            result = service.result(record.job_id, timeout=180)
            status = service.status(record.job_id)
            events = service.stats()["events"]
        if status["crashes"] == 0:
            pytest.skip("job finished before the kill landed")
        assert events.get("serve.worker_crashes", 0) >= 1
        assert events.get("serve.orphan_requeues", 0) >= 1
        assert events.get("serve.worker_restarts", 0) >= 1
        _assert_results_equal(result, slice_line(x0, errors))

    def test_poison_pill_fails_typed_after_crash_budget(
        self, chunky_dataset, monkeypatch
    ):
        x0, errors = chunky_dataset
        monkeypatch.setattr(service_module, "MAX_JOB_CRASHES", 0)
        with SliceService(num_workers=1, worker_mode="process") as service:
            record = service.submit(JobSpec(x0=x0, errors=errors))
            assert _wait_for_state(service, record.job_id, "running")
            time.sleep(0.2)
            pid = service.stats()["workers"][0]["pid"]
            os.kill(pid, signal.SIGKILL)
            assert record.wait(timeout=120)
        if record.state == JobState.COMPLETED:
            pytest.skip("job finished before the kill landed")
        assert record.state == JobState.FAILED
        assert record.reason == "worker-crash"

    def test_heartbeat_timeout_kills_hung_worker(self, chunky_dataset):
        x0, errors = chunky_dataset
        with SliceService(
            num_workers=1,
            worker_mode="process",
            heartbeat_timeout_s=1.0,
        ) as service:
            record = service.submit(JobSpec(x0=x0, errors=errors))
            assert _wait_for_state(service, record.job_id, "running")
            time.sleep(0.2)
            pid = service.stats()["workers"][0]["pid"]
            os.kill(pid, signal.SIGSTOP)  # hung: alive but silent
            result = service.result(record.job_id, timeout=180)
            events = service.stats()["events"]
        if service.status(record.job_id)["crashes"] == 0:
            pytest.skip("job finished before the stop landed")
        assert events.get("serve.worker_crashes", 0) >= 1
        _assert_results_equal(result, slice_line(x0, errors))

    def test_worker_error_fails_job_not_worker(self):
        bad = JobSpec(
            x0=np.array([[1, 1], [1, 2]], dtype=np.int64),
            errors=np.array([0.5, -1.0]),  # negative error: rejected
        )
        good_x0 = np.array([[1, 1], [1, 2], [2, 1]], dtype=np.int64)
        good = JobSpec(x0=good_x0, errors=np.array([1.0, 0.0, 0.0]))
        with SliceService(num_workers=1, worker_mode="process") as service:
            record = service.submit(bad)
            assert record.wait(timeout=120)
            assert record.state == JobState.FAILED
            follow_up = service.submit(good)
            result = service.result(follow_up.job_id, timeout=120)
            assert result is not None
            # The worker survived the job failure: no crash counted.
            assert service.stats()["events"].get(
                "serve.worker_crashes", 0
            ) == 0
