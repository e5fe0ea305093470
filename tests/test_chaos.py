"""Fault-injection tests: chaos plans vs the fault-free oracle.

Two guarantees are under test.  Corrupt batches must be quarantined with
the right reason while the monitor's results match an oracle monitor that
never saw them.  A SIGKILLed service or a torn journal must recover to
results bitwise identical to a fault-free run (a deleted cache spill is
``tests/test_durability.py``'s).  Every injection decision is a pure hash
of the seed, so each fault replays.
"""

import os
import shutil
import signal
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SliceLineConfig, slice_line
from repro.datasets import replay_batches
from repro.exceptions import ConfigError
from repro.resilience import ChaosInjector, unit_hash
from repro.resilience.chaos import (
    CORRUPTION_KINDS,
    corrupt_file,
    kill_process,
    make_corrupt_batch,
    pick_kill_delay,
    truncate_file,
)
from repro.serve import JobSpec, SliceService, frame_record, scan_wal
from repro.streaming import SliceMonitor
from tests.test_resilience import dyadic_problem


# ---------------------------------------------------------------------------
# determinism of the injection primitives
# ---------------------------------------------------------------------------


class TestDeterminism:
    def test_unit_hash_range_and_stability(self):
        values = [unit_hash(7, "fail", ("p", i), 1) for i in range(200)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert values == [unit_hash(7, "fail", ("p", i), 1) for i in range(200)]
        assert unit_hash(7, "fail", 0) != unit_hash(8, "fail", 0)

    def test_fault_plan_validation(self):
        with pytest.raises(ConfigError):
            ChaosInjector(corrupt_rate=-0.1)
        with pytest.raises(ConfigError):
            ChaosInjector(corrupt_rate=1.5)

    def test_corrupt_batch_deterministic(self):
        batches = list(replay_batches(*dyadic_problem(50, n=300), 50))
        one = ChaosInjector(seed=3, corrupt_rate=0.5)
        two = ChaosInjector(seed=3, corrupt_rate=0.5)
        for batch in batches:
            a = one.corrupt_batch(batch)
            b = two.corrupt_batch(batch)
            assert (a is batch) == (b is batch)
            if a is not batch:
                assert np.array_equal(
                    np.asarray(a.errors), np.asarray(b.errors), equal_nan=True
                )
        assert one.corrupted_batches == two.corrupted_batches

    def test_zero_rate_passes_everything_through(self):
        injector = ChaosInjector(seed=1)
        batches = list(replay_batches(*dyadic_problem(51, n=200), 50))
        assert all(injector.corrupt_batch(b) is b for b in batches)
        assert injector.corrupted_batches == 0

    def test_unknown_corruption_kind_rejected(self):
        batch = next(iter(replay_batches(*dyadic_problem(52, n=100), 100)))
        with pytest.raises(ConfigError):
            make_corrupt_batch(batch, "gamma-rays")


# ---------------------------------------------------------------------------
# streaming path: corrupt batches quarantined, results match the oracle
# ---------------------------------------------------------------------------


class TestStreamingChaos:
    def run_monitors(self, data_seed, chaos_seed, corrupt_rate):
        """Feed a corrupted stream to one monitor, the healthy subset to
        another; returns (faulted tick, oracle tick, quarantine count)."""
        x0, errors = dyadic_problem(data_seed, n=600)
        batches = list(replay_batches(x0, errors, 100))
        injector = ChaosInjector(seed=chaos_seed, corrupt_rate=corrupt_rate)
        config = SliceLineConfig(k=3)
        faulted = SliceMonitor(config=config, window_size=len(batches))
        oracle = SliceMonitor(config=config, window_size=len(batches))
        for i, batch in enumerate(batches):
            # The first batch is delivered clean: it is what teaches the
            # monitor the stream's feature count (a feature-mismatch
            # corruption of the very first batch is undetectable by design —
            # there is no expectation to mismatch yet).
            delivered = batch if i == 0 else injector.corrupt_batch(batch)
            record = faulted.ingest(delivered)
            if delivered is batch:
                assert record is None
            else:
                assert record is not None
            if record is None:
                assert oracle.ingest(batch) is None
        return faulted, oracle, injector.corrupted_batches

    def test_corrupted_stream_matches_healthy_oracle(self):
        faulted, oracle, corrupted = self.run_monitors(80, 8, 0.4)
        assert corrupted > 0
        assert len(faulted.quarantine) == corrupted
        tick = faulted.tick()
        ref = oracle.tick()
        assert np.array_equal(tick.result.top_stats, ref.result.top_stats)
        assert np.array_equal(
            tick.result.top_slices_encoded, ref.result.top_slices_encoded
        )
        assert tick.num_rows == ref.num_rows

    def test_quarantine_reasons_are_vocabulary(self):
        faulted, _, corrupted = self.run_monitors(81, 3, 0.6)
        assert corrupted > 0
        for record in faulted.quarantine.records:
            assert record.reason in CORRUPTION_KINDS

    @settings(max_examples=10, deadline=None)
    @given(
        chaos_seed=st.integers(0, 10**6),
        corrupt_rate=st.floats(0.0, 0.2),
        data_seed=st.integers(0, 50),
    )
    def test_chaos_sweep_streaming(self, chaos_seed, corrupt_rate, data_seed):
        """Random corrupt-batch plans never change the monitor's answer."""
        faulted, oracle, _ = self.run_monitors(
            100 + data_seed, chaos_seed, corrupt_rate
        )
        if len(faulted.window) == 0:
            return  # everything corrupted: nothing to rank either way
        tick = faulted.tick()
        ref = oracle.tick()
        assert np.array_equal(tick.result.top_stats, ref.result.top_stats)
        assert np.array_equal(
            tick.result.top_slices_encoded, ref.result.top_slices_encoded
        )


# ---------------------------------------------------------------------------
# process- and storage-level chaos (crash durability)


class TestProcessChaos:
    """Kill -9, torn journals, and corrupt spill files vs the oracle run.

    Same exactness bar as the other chaos families: whatever the fault,
    the recovered service must end with results bitwise identical to a
    fault-free run — or a typed quarantine, never silent corruption.
    """

    def test_pick_kill_delay_deterministic_and_bounded(self):
        a = pick_kill_delay(7, ("job", 3), 0.1, 0.9)
        b = pick_kill_delay(7, ("job", 3), 0.1, 0.9)
        assert a == b
        assert 0.1 <= a <= 0.9
        assert pick_kill_delay(8, ("job", 3), 0.1, 0.9) != a
        with pytest.raises(ConfigError):
            pick_kill_delay(7, "x", 1.0, 0.5)

    def test_kill_process_handles_dead_pid(self):
        victim = subprocess.Popen([sys.executable, "-c", "pass"])
        victim.wait()
        assert kill_process(victim.pid) is False

    def test_truncate_file(self, tmp_path):
        path = str(tmp_path / "f.bin")
        with open(path, "wb") as handle:
            handle.write(b"0123456789")
        assert truncate_file(path, 4) == 6
        assert open(path, "rb").read() == b"0123"
        assert truncate_file(path, 100) == 0
        with pytest.raises(ConfigError):
            truncate_file(path, -1)

    def test_corrupt_file_deterministic(self, tmp_path):
        path = str(tmp_path / "f.bin")
        original = bytes(range(64))
        with open(path, "wb") as handle:
            handle.write(original)
        offsets = corrupt_file(path, seed=3, nflips=4)
        mangled = open(path, "rb").read()
        assert mangled != original
        assert all(0 <= off < 64 for off in offsets)
        # Replaying the same seed over the mangled bytes undoes the XOR.
        assert corrupt_file(path, seed=3, nflips=4) == offsets
        assert open(path, "rb").read() == original

    def test_wal_truncation_boundaries_recover_bitwise(
        self, tmp_path, planted_dataset
    ):
        """Service recovery over strategically torn journals stays exact."""
        x0, errors, _ = planted_dataset
        state = str(tmp_path / "state")
        with SliceService(state_dir=state, num_workers=1) as service:
            record = service.submit(JobSpec(x0=x0, errors=errors))
            baseline = service.result(record.job_id, timeout=60)
        wal = os.path.join(state, "wal", "journal.wal")
        data = open(wal, "rb").read()
        records, _, quarantined = scan_wal(data)
        assert not quarantined
        last_frame = len(frame_record(records[-1]))
        # Mid-header, mid-body, one byte short, and clean-boundary cuts.
        cuts = sorted(
            {
                len(data) - last_frame + 3,
                len(data) - last_frame // 2,
                len(data) - 1,
                len(data) - last_frame,
            }
        )
        for cut in cuts:
            trial = str(tmp_path / f"trial-{cut}")
            shutil.copytree(state, trial)
            truncate_file(os.path.join(trial, "wal", "journal.wal"), cut)
            recovered = SliceService(state_dir=trial, num_workers=1)
            try:
                assert recovered.wait(timeout=60)
                result = recovered.result(record.job_id, timeout=60)
            finally:
                recovered.shutdown()
            assert [s.predicates for s in result.top_slices] == [
                s.predicates for s in baseline.top_slices
            ]
            assert [s.score for s in result.top_slices] == [
                s.score for s in baseline.top_slices
            ]

    def test_service_sigkill_mid_run_recovers_bitwise(self, tmp_path):
        """kill -9 the whole service process; a restart finishes the job.

        The driver subprocess journals the submission and dispatch, then
        SIGKILLs itself at a fixed program point — the first call of the
        per-level evaluation, i.e. level 2, right after the level-1
        checkpoint — so the crash lands mid-enumeration however fast the
        job runs.  Recovery re-admits the orphan at the front and the
        finished result matches a fault-free in-process run.
        """
        state = str(tmp_path / "state")
        driver = tmp_path / "driver.py"
        driver.write_text(
            "import os\n"
            "import signal\n"
            "import sys\n"
            "import numpy as np\n"
            "import repro.core.algorithm as algorithm\n"
            "from repro.serve import SliceService, JobSpec\n"
            "def crash(*args, **kwargs):\n"
            "    os.kill(os.getpid(), signal.SIGKILL)\n"
            "algorithm._evaluate_level = crash\n"
            "rng = np.random.default_rng(777)\n"
            "x0 = rng.integers(1, 6, size=(20000, 20))\n"
            "errors = (rng.random(20000) < 0.3).astype(float)\n"
            "service = SliceService(state_dir=sys.argv[1], num_workers=1)\n"
            "record = service.submit(JobSpec(x0=x0, errors=errors))\n"
            "service.result(record.job_id, timeout=300)\n"
        )
        process = subprocess.Popen(
            [sys.executable, str(driver), state],
            env={**os.environ, "PYTHONPATH": "src"},
        )
        try:
            process.wait(timeout=120)
        finally:
            if process.returncode is None:
                process.kill()
                process.wait(timeout=30)
        assert process.returncode == -signal.SIGKILL
        records, _, _ = scan_wal(
            open(os.path.join(state, "wal", "journal.wal"), "rb").read()
        )
        assert any(r["type"] == "dispatch" for r in records)

        rng = np.random.default_rng(777)
        x0 = rng.integers(1, 6, size=(20000, 20))
        errors = (rng.random(20000) < 0.3).astype(float)
        recovered = SliceService(state_dir=state, num_workers=1)
        try:
            orphans = [
                record
                for record in recovered.jobs.values()
                if record.recovered
            ]
            assert len(orphans) == 1
            result = recovered.result(orphans[0].job_id, timeout=120)
        finally:
            recovered.shutdown()
        baseline = slice_line(x0, errors)
        assert [s.predicates for s in result.top_slices] == [
            s.predicates for s in baseline.top_slices
        ]
        assert [s.score for s in result.top_slices] == [
            s.score for s in baseline.top_slices
        ]
        assert np.array_equal(result.top_stats, baseline.top_stats)
