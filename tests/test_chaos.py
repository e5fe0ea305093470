"""Fault-injection tests: chaos plans vs the fault-free oracle.

The resilience guarantee under test is *exactness*, not just survival:
distributed partition tasks are pure and their partials are reduced in
partition order, so any mix of injected failures, delays, retries, and
speculative reassignment must yield statistics **bitwise identical** to the
fault-free run with the same worker/partition configuration.  (Holding the
partition count fixed matters — changing it changes float summation order,
which is a different run, not a fault.)  Streaming-side, corrupt batches
must be quarantined with the right reason while the monitor's results match
an oracle monitor that never saw them.
"""

import os
import shutil
import signal
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FeatureSpace, SliceLineConfig, slice_line
from repro.datasets import replay_batches
from repro.distributed import DistributedPForExecutor
from repro.distributed.accumulate import partitioned_slice_stats
from repro.exceptions import ConfigError, ExecutionError
from repro.obs import Tracer
from repro.resilience import (
    ChaosInjector,
    FaultPlan,
    InjectedFault,
    RetryPolicy,
    map_with_retries,
    unit_hash,
)
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


def no_sleep(_seconds):
    """Sleep stub: backoff delays add nothing to test wall-clock."""


def eval_problem(seed, n=400, num_slices=30):
    """One-hot data + random 2-predicate candidate slices for executors."""
    x0, errors = dyadic_problem(seed, n=n)
    space = FeatureSpace.from_matrix(x0)
    x = space.encode(x0)
    gen = np.random.default_rng(seed + 1)
    rows = []
    for _ in range(num_slices):
        pick = gen.choice(space.num_onehot, size=2, replace=False)
        row = np.zeros(space.num_onehot)
        row[pick] = 1
        rows.append(row)
    return x, errors, sp.csr_matrix(np.array(rows))


def tracked_slices(x0, errors, k=4):
    """A top-K slice set to broadcast through the accumulate path."""
    from repro.core import slice_line

    return slice_line(x0, errors, SliceLineConfig(k=k)).top_slices


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
            FaultPlan(failure_rate=1.5)
        with pytest.raises(ConfigError):
            FaultPlan(corrupt_rate=-0.1)
        with pytest.raises(ConfigError):
            FaultPlan(delay_s=-1.0)
        with pytest.raises(ConfigError):
            FaultPlan(max_faults_per_task=-1)

    def test_same_seed_same_failures(self):
        decisions = []
        for _ in range(2):
            injector = ChaosInjector(
                FaultPlan(seed=5, failure_rate=0.4), sleep=no_sleep
            )
            outcome = []
            for task in range(50):
                try:
                    injector.perturb(("scope", task), 1)
                    outcome.append(False)
                except InjectedFault:
                    outcome.append(True)
            decisions.append(outcome)
        assert decisions[0] == decisions[1]
        assert any(decisions[0])
        assert not all(decisions[0])

    def test_faults_capped_per_task(self):
        injector = ChaosInjector(
            FaultPlan(seed=0, failure_rate=1.0, max_faults_per_task=2),
            sleep=no_sleep,
        )
        for attempt in (1, 2):
            with pytest.raises(InjectedFault):
                injector.perturb(("t", 0), attempt)
        injector.perturb(("t", 0), 3)  # past the cap: always clean
        assert injector.injected_failures == 2

    def test_corrupt_batch_deterministic(self):
        batches = list(replay_batches(*dyadic_problem(50, n=300), 50))
        one = ChaosInjector(FaultPlan(seed=3, corrupt_rate=0.5))
        two = ChaosInjector(FaultPlan(seed=3, corrupt_rate=0.5))
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
        injector = ChaosInjector(FaultPlan(seed=1), sleep=no_sleep)
        batches = list(replay_batches(*dyadic_problem(51, n=200), 50))
        for task in range(20):
            injector.perturb(("s", task), 1)
        assert all(injector.corrupt_batch(b) is b for b in batches)
        assert injector.injected_failures == 0
        assert injector.corrupted_batches == 0

    def test_unknown_corruption_kind_rejected(self):
        batch = next(iter(replay_batches(*dyadic_problem(52, n=100), 100)))
        with pytest.raises(ConfigError):
            make_corrupt_batch(batch, "gamma-rays")


# ---------------------------------------------------------------------------
# retry machinery
# ---------------------------------------------------------------------------


class TestRetry:
    def test_policy_validation(self):
        with pytest.raises(ConfigError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigError):
            RetryPolicy(jitter=2.0)
        with pytest.raises(ConfigError):
            RetryPolicy(straggler_timeout_s=0.0)

    def test_backoff_deterministic_and_capped(self):
        policy = RetryPolicy(
            backoff_base_s=0.1, backoff_multiplier=2.0, backoff_cap_s=0.3
        )
        delays = [policy.backoff_delay(3, attempt) for attempt in (1, 2, 3, 9)]
        assert delays == [policy.backoff_delay(3, a) for a in (1, 2, 3, 9)]
        assert all(d <= 0.3 for d in delays)
        assert all(d > 0 for d in delays)

    @pytest.mark.parametrize("num_threads", [1, 4])
    def test_results_in_item_order(self, num_threads):
        results, stats = map_with_retries(
            lambda item, attempt: item * 10,
            range(17),
            num_threads=num_threads,
            sleep=no_sleep,
        )
        assert results == [i * 10 for i in range(17)]
        assert stats.attempts == 17 and stats.retries == 0

    @pytest.mark.parametrize("num_threads", [1, 4])
    def test_flaky_tasks_retried(self, num_threads):
        chaos = ChaosInjector(
            FaultPlan(seed=9, failure_rate=0.5, max_faults_per_task=2),
            sleep=no_sleep,
        )

        def task(item, attempt):
            chaos.perturb(("flaky", item), attempt)
            return item + 1

        results, stats = map_with_retries(
            task, range(20), num_threads=num_threads, sleep=no_sleep
        )
        assert results == [i + 1 for i in range(20)]
        assert stats.retries > 0
        assert stats.attempts == 20 + stats.retries

    def test_exhaustion_raises_execution_error(self):
        def always_fails(item, attempt):
            raise ValueError(f"boom {item}/{attempt}")

        with pytest.raises(ExecutionError, match="after 3 attempts"):
            map_with_retries(
                always_fails,
                [0],
                policy=RetryPolicy(max_attempts=3),
                sleep=no_sleep,
            )

    def test_straggler_reassigned(self):
        import threading

        stalled = threading.Event()

        def task(item, attempt):
            if item == 1 and attempt == 1:
                stalled.wait(5.0)  # released when the backup wins
            return item

        policy = RetryPolicy(straggler_timeout_s=0.05)
        results, stats = map_with_retries(
            task, range(3), policy=policy, num_threads=4, sleep=no_sleep
        )
        stalled.set()
        assert results == [0, 1, 2]
        assert stats.stragglers_reassigned == 1


# ---------------------------------------------------------------------------
# distributed paths: faulted == fault-free, bitwise
# ---------------------------------------------------------------------------


class TestDistributedChaos:
    def test_executor_exact_under_failures(self):
        x, errors, slices = eval_problem(60)
        baseline = DistributedPForExecutor(num_nodes=2, executors_per_node=2)
        reference = baseline.evaluate(x, errors, slices, 2, 0.95)
        faulty = DistributedPForExecutor(
            num_nodes=2,
            executors_per_node=2,
            retry=RetryPolicy(backoff_base_s=0.0, backoff_cap_s=0.0),
            chaos=ChaosInjector(
                FaultPlan(seed=13, failure_rate=0.3), sleep=no_sleep
            ),
        )
        out = faulty.evaluate(x, errors, slices, 2, 0.95)
        assert np.array_equal(out, reference)
        assert faulty.chaos.injected_failures > 0
        assert faulty.last_retry_stats.retries == faulty.chaos.injected_failures

    def test_executor_publishes_retry_span(self):
        x, errors, slices = eval_problem(61)
        tracer = Tracer()
        executor = DistributedPForExecutor(
            num_nodes=2,
            executors_per_node=2,
            retry=RetryPolicy(backoff_base_s=0.0, backoff_cap_s=0.0),
            chaos=ChaosInjector(
                FaultPlan(seed=2, failure_rate=0.5), sleep=no_sleep
            ),
        )
        executor.evaluate(x, errors, slices, 2, 0.95, tracer=tracer)
        span = tracer.find("executor.dist-pfor.evaluate")
        assert span.attrs["retries"] == executor.last_retry_stats.retries
        assert span.attrs["attempts"] == executor.last_retry_stats.attempts

    def test_executor_straggler_reassignment(self):
        x, errors, slices = eval_problem(62)
        baseline = DistributedPForExecutor(num_nodes=2, executors_per_node=2)
        reference = baseline.evaluate(x, errors, slices, 2, 0.95)
        faulty = DistributedPForExecutor(
            num_nodes=2,
            executors_per_node=2,
            retry=RetryPolicy(straggler_timeout_s=0.05),
            chaos=ChaosInjector(
                FaultPlan(seed=4, delay_rate=0.3, delay_s=0.4)
            ),
        )
        out = faulty.evaluate(x, errors, slices, 2, 0.95)
        assert np.array_equal(out, reference)
        assert faulty.chaos.injected_delays > 0
        assert faulty.last_retry_stats.stragglers_reassigned > 0

    def test_unwinnable_plan_exhausts(self):
        x, errors, slices = eval_problem(63)
        executor = DistributedPForExecutor(
            num_nodes=2,
            executors_per_node=2,
            retry=RetryPolicy(
                max_attempts=2, backoff_base_s=0.0, backoff_cap_s=0.0
            ),
            chaos=ChaosInjector(
                FaultPlan(seed=0, failure_rate=1.0, max_faults_per_task=10),
                sleep=no_sleep,
            ),
        )
        with pytest.raises(ExecutionError, match="dist-pfor partition"):
            executor.evaluate(x, errors, slices, 2, 0.95)

    def test_accumulate_exact_under_failures(self):
        x0, errors = dyadic_problem(64, n=500)
        slices = tracked_slices(x0, errors)
        reference = partitioned_slice_stats(
            x0, errors, slices, num_partitions=4, num_threads=2
        )
        faulted = partitioned_slice_stats(
            x0, errors, slices, num_partitions=4, num_threads=2,
            retry=RetryPolicy(backoff_base_s=0.0, backoff_cap_s=0.0),
            chaos=ChaosInjector(
                FaultPlan(seed=21, failure_rate=0.3), sleep=no_sleep
            ),
        )
        for name in ("sizes", "errors", "sq_errors", "max_errors"):
            assert np.array_equal(
                getattr(faulted, name), getattr(reference, name)
            )

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        failure_rate=st.floats(0.0, 0.3),
        data_seed=st.integers(0, 50),
    )
    def test_chaos_sweep_distributed(self, seed, failure_rate, data_seed):
        """Random fault plans never change distributed statistics."""
        x, errors, slices = eval_problem(70 + data_seed, n=250, num_slices=12)
        baseline = DistributedPForExecutor(num_nodes=2, executors_per_node=2)
        reference = baseline.evaluate(x, errors, slices, 2, 0.95)
        faulty = DistributedPForExecutor(
            num_nodes=2,
            executors_per_node=2,
            retry=RetryPolicy(backoff_base_s=0.0, backoff_cap_s=0.0),
            chaos=ChaosInjector(
                FaultPlan(seed=seed, failure_rate=failure_rate),
                sleep=no_sleep,
            ),
        )
        assert np.array_equal(
            faulty.evaluate(x, errors, slices, 2, 0.95), reference
        )


# ---------------------------------------------------------------------------
# streaming path: corrupt batches quarantined, results match the oracle
# ---------------------------------------------------------------------------


class TestStreamingChaos:
    def run_monitors(self, data_seed, chaos_seed, corrupt_rate):
        """Feed a corrupted stream to one monitor, the healthy subset to
        another; returns (faulted tick, oracle tick, quarantine count)."""
        x0, errors = dyadic_problem(data_seed, n=600)
        batches = list(replay_batches(x0, errors, 100))
        injector = ChaosInjector(FaultPlan(seed=chaos_seed, corrupt_rate=corrupt_rate))
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

    def test_cache_spill_deletion_forces_rerun(
        self, tmp_path, planted_dataset
    ):
        x0, errors, _ = planted_dataset
        state = str(tmp_path / "state")
        with SliceService(state_dir=state, num_workers=1) as service:
            record = service.submit(JobSpec(x0=x0, errors=errors))
            baseline = service.result(record.job_id, timeout=60)
        os.unlink(os.path.join(state, "cache", f"{record.fingerprint}.npz"))
        recovered = SliceService(state_dir=state, num_workers=1)
        try:
            # The completed job lost its result, but a fresh submission
            # re-runs and lands on the identical answer.
            resubmit = recovered.submit(JobSpec(x0=x0, errors=errors))
            result = recovered.result(resubmit.job_id, timeout=60)
        finally:
            recovered.shutdown()
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
