"""The slice-finding service façade.

:class:`SliceService` composes the serving subsystem: admission control
and job ordering over one backlog (:mod:`repro.serve.queue`), a worker
pool with checkpoint-backed preemption (:mod:`repro.serve.scheduler`), a
fingerprint-keyed result cache (:mod:`repro.serve.cache`), and the
existing resilience/obs layers behind a submit/status/result/cancel API.
Every job is one :func:`~repro.core.slice_line` search.

Correctness invariants the tests enforce:

- an exact-fingerprint resubmission is served from cache with **zero**
  enumeration (no ``level{L}.evaluate`` spans on its per-job trace);
- a same-data/different-config miss is warm-started from the cached
  top-K and still returns a top-K bitwise-identical to a cold run
  (Equation-3 pruning is exact);
- a suspended-then-resumed job completes bitwise-identically to an
  uninterrupted run (suspension lands on a level boundary, exactly the
  state ``repro.ckpt/v1`` persists).

Thread model: all job-state transitions happen under the service lock;
the enumeration itself runs outside it.  Each job gets its own tracer
(when tracing is on) touched by exactly one thread at a time — the
submitting thread closes its spans before the job is enqueued, and a
worker owns the tracer for the duration of an execution attempt.

Job lifecycle: every job enters through one admission routine
(:meth:`SliceService._admit_locked`: a cache hit, a coalesced *waiter*
riding on an identical in-flight *origin*, or the backlog), and every
path that ends a job — live completion, cache hit, a settled waiter,
rejection, cancellation, failure, worker crash, recovery replay — runs
one terminal transition (:meth:`SliceService._finish_locked`).  It
releases the worker slot, journals the terminal record, and only then
wakes ``result()``/``wait()``; an origin then hands its fingerprint over
to its waiters.

Durability (``state_dir=...``): every job-lifecycle transition is written
ahead to a ``repro.wal/v1`` journal (:mod:`repro.serve.durability`) and
every cacheable result spills to disk, so a service constructed over the
same ``state_dir`` after a crash recovers: completed jobs are cache hits
again, in-flight jobs re-admit at the front of the backlog and resume
bitwise-identically from their last ``repro.ckpt/v1`` checkpoint, and a
job whose ``result()`` returned recovers as completed from its own
terminal record (unless that append failed, which the service swallows;
see :meth:`SliceService._finish_locked`).  Explicit-array inputs spill
once per dataset (``inputs/<data_digest>.npz``), and a job's input
fingerprint, hashed once at submit, is what its checkpoints carry and
its resume checks.

Process isolation (``worker_mode="process"``): a job's ``slice_line``
call runs in a supervised spawned worker
(:mod:`repro.serve.workers`); a SIGKILL'd or hung worker raises
:class:`~repro.serve.workers.WorkerCrash` into :meth:`_execute`, which
requeues the orphaned job at the front (bounded by
:data:`MAX_JOB_CRASHES`) instead of failing it.
"""

from __future__ import annotations

import io
import os
import re
import tempfile
import threading
import time
import zipfile

import numpy as np

from repro.core.algorithm import slice_line
from repro.core.onehot import validate_encoded_matrix
from repro.exceptions import ConfigError, ReproError, ServeError
from repro.linalg.sparse import ensure_vector
from repro.obs.counters import CounterRegistry
from repro.obs.trace import NULL_TRACER, Tracer
from repro.resilience.atomic import atomic_write_bytes
from repro.resilience.checkpoint import (
    _byte_fingerprint,
    fingerprint_config,
    fingerprint_digest,
    fingerprint_inputs,
    latest_checkpoint,
)
from repro.serve.cache import ResultCache
from repro.serve.declarative import spec_from_dict, spec_to_dict
from repro.serve.durability import DurableResultCache, JobJournal
from repro.serve.queue import JobQueue
from repro.serve.scheduler import Scheduler
from repro.serve.spec import JobRecord, JobSpec, JobState
from repro.serve.workers import ProcessWorkerSupervisor, WorkerCrash

#: Version tag of the service status document.
SERVE_SCHEMA = "repro.serve/v1"

#: Worker crashes one job survives before it fails with reason
#: ``"worker-crash"`` (a job that reliably kills workers is a poison pill).
MAX_JOB_CRASHES = 3

_JOB_ID_SANITIZE = re.compile(r"[^A-Za-z0-9._-]+")

#: Terminal job state -> (its WAL record type, the event it counts).
_TERMINAL = {
    JobState.COMPLETED: ("complete", "serve.completed"),
    JobState.FAILED: ("fail", "serve.failures"),
    JobState.CANCELLED: ("cancel", "serve.cancellations"),
    JobState.REJECTED: ("reject", "serve.rejections"),
}

#: WAL record type -> the terminal state recovery restores from it.
_WAL_STATE = {wal_type: state for state, (wal_type, _) in _TERMINAL.items()}

#: ``reason`` of the ``fail`` record that recovery journals for a job it
#: cannot rebuild; later recoveries skip a job whose last record it is.
_RECOVERY_FAILED = "recovery-failed"

#: Spec keys of the retired monitor replay jobs: every spec journaled
#: while they existed carries them, a find job's with no effect.
_RETIRED_SPEC_KEYS = frozenset(
    {"kind", "batch_size", "window_size", "policy", "warm_start", "tick_every"}
)


class SliceService:
    """Submit/status/result/cancel façade over the serving subsystem.

    Every tenant's jobs share one backlog of at most
    :data:`~repro.serve.queue.MAX_QUEUED` jobs, and the worker pool is the
    only limit on how many run at once; ``tenant`` is a label on the job
    (and in its id).

    Parameters
    ----------
    num_workers:
        Worker pool width: how many jobs run at once.
    cache_entries:
        Capacity of the fingerprint-keyed result cache.
    workdir:
        Directory for per-job checkpoint trees (a temporary directory is
        created when omitted); suspended jobs resume from here.
    trace:
        When true, every job gets its own :class:`~repro.obs.Tracer`
        recording ``serve.*`` spans around the inner run's span tree.
    preemption:
        Allow interactive submissions to suspend running batch jobs.
    start:
        Start the worker pool immediately (pass ``False`` to stage
        submissions first — used by tests to make races deterministic).
    state_dir:
        Root of the durable state layout (``wal/journal.wal``, ``cache/``,
        ``inputs/``, ``jobs/``, ``workers/``).  When set, the service
        journals every job transition, spills cache entries and each
        explicit-array dataset to disk, and **recovers** the pre-crash job
        table from whatever the directory holds.
    worker_mode:
        ``"thread"`` (default: the in-process :class:`Scheduler`) or
        ``"process"`` (a :class:`ProcessWorkerSupervisor` running find
        jobs in supervised spawned workers).
    cache_bytes:
        Optional byte bound on the result cache (size-aware eviction of
        the serialized entries, on top of the entry-count capacity).
    wal_fsync:
        fsync journal appends and cache spills (disable only in tests
        that don't measure crash safety).
    """

    def __init__(
        self,
        num_workers: int = 2,
        cache_entries: int = 64,
        workdir: str | None = None,
        trace: bool = False,
        preemption: bool = True,
        start: bool = True,
        state_dir: str | None = None,
        worker_mode: str = "thread",
        cache_bytes: int | None = None,
        wal_fsync: bool = True,
        heartbeat_timeout_s: float = 30.0,
    ) -> None:
        if worker_mode not in ("thread", "process"):
            raise ConfigError(
                f'worker_mode must be "thread" or "process", got '
                f"{worker_mode!r}"
            )
        self._lock = threading.RLock()
        self.trace = trace
        self.state_dir = state_dir
        self.worker_mode = worker_mode
        self.registry = CounterRegistry()
        self.queue = JobQueue()
        self.journal: JobJournal | None = None
        #: jobs the journal held but recovery could not rebuild
        self.recovery_errors: list[dict] = []
        self._recovering = False
        #: data digests whose ``inputs/<digest>.npz`` this instance wrote
        #: (fsync'd as its journal is): later submits spill nothing
        self._spilled: set[str] = set()
        if state_dir is not None:
            os.makedirs(os.path.join(state_dir, "inputs"), exist_ok=True)
            if workdir is None:
                workdir = os.path.join(state_dir, "jobs")
            self.cache = DurableResultCache(
                cache_entries,
                cache_bytes,
                directory=os.path.join(state_dir, "cache"),
                fsync=wal_fsync,
            )
        else:
            self.cache = ResultCache(cache_entries, cache_bytes)
        if workdir is None:
            workdir = tempfile.mkdtemp(prefix="repro-serve-")
        self.workdir = workdir
        os.makedirs(self.workdir, exist_ok=True)
        if worker_mode == "process":
            self.scheduler = ProcessWorkerSupervisor(
                self.queue,
                self._execute,
                num_workers,
                preemption,
                run_dir=(
                    os.path.join(state_dir, "workers")
                    if state_dir is not None
                    else None
                ),
                heartbeat_timeout_s=heartbeat_timeout_s,
                on_event=self.registry.event,
            )
        else:
            self.scheduler = Scheduler(
                self.queue, self._execute, num_workers, preemption
            )
        self.jobs: dict[str, JobRecord] = {}
        self._order: list[str] = []
        #: fingerprint -> origin record currently pending/running/suspended
        self._inflight: dict[str, JobRecord] = {}
        #: fingerprint -> duplicate submissions waiting on the origin
        self._waiters: dict[str, list[JobRecord]] = {}
        #: fingerprint -> submission count (disambiguates job ids)
        self._submissions: dict[str, int] = {}
        if state_dir is not None:
            self.journal = JobJournal(
                os.path.join(state_dir, "wal", "journal.wal"),
                fsync=wal_fsync,
            )
            with self._lock:
                self._recover_locked()
                self._refresh_gauges_locked()
        if start:
            self.start()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        self.scheduler.start()

    def shutdown(self, wait: bool = True) -> None:
        self.scheduler.shutdown(wait=wait)
        if self.journal is not None:
            self.journal.close()

    def __enter__(self) -> "SliceService":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    # -- submission ----------------------------------------------------------

    def submit(self, spec: JobSpec) -> JobRecord:
        """Admit one job; returns its record immediately (never blocks).

        The record's terminal state may already be set on return: an
        exact-fingerprint cache hit completes synchronously, and an
        over-backlog submission is rejected with a typed reason.
        """
        x0, errors = spec.resolve_data()
        data_fp = fingerprint_inputs(x0, errors)
        data_digest, fingerprint = _identity(spec, data_fp)

        with self._lock:
            serial = self._submissions.get(fingerprint, 0)
            self._submissions[fingerprint] = serial + 1
            job_id = (
                f"{spec.tenant}/find-{fingerprint[:12]}-{serial}"
            )
            record = JobRecord(
                job_id=job_id,
                spec=spec,
                fingerprint=fingerprint,
                data_digest=data_digest,
                submitted_at=time.time(),
                tracer=Tracer() if self.trace else NULL_TRACER,
                x0=x0,
                errors=errors,
                input_fingerprint=data_fp,
            )
            self.jobs[job_id] = record
            self._order.append(job_id)
            self.registry.event("serve.submitted")
            self._journal_submit_locked(record, serial)
            queued = self._admit_locked(record)
            self._refresh_gauges_locked()
        if queued:
            self.scheduler.maybe_preempt(record)
        return record

    # -- inspection ----------------------------------------------------------

    def _record(self, job_id: str) -> JobRecord:
        record = self.jobs.get(job_id)
        if record is None:
            raise ServeError(f"unknown job id {job_id!r}")
        return record

    def status(self, job_id: str) -> dict:
        with self._lock:
            return self._record(job_id).to_dict()

    def result(self, job_id: str, timeout: float | None = None):
        """Block for the job's :class:`SliceLineResult`.

        Raises :class:`~repro.exceptions.ServeError` on timeout, when the
        job ended without a result (failed/cancelled/rejected), and when
        a completed job holds no result: recovery restores a completed
        job as completed, but its result only from the cache, so a job
        whose entry was evicted or whose spill was deleted or quarantined
        has none.  A resubmission runs such a job again.
        """
        record = self._record(job_id)
        if not record.wait(timeout):
            raise ServeError(
                f"job {job_id!r} did not finish within {timeout}s "
                f"(state={record.state})"
            )
        if record.state != JobState.COMPLETED:
            raise ServeError(
                f"job {job_id!r} ended {record.state}"
                + (f": {record.reason}" if record.reason else "")
                + (f" ({record.error})" if record.error else "")
            )
        if record.result is None:
            raise ServeError(
                f"job {job_id!r} completed, but its result was not "
                "retained; a resubmission runs it again"
            )
        return record.result

    def wait(self, timeout: float | None = None) -> bool:
        """Block until every submitted job is terminal."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            records = list(self.jobs.values())
        for record in records:
            remaining = (
                None if deadline is None else deadline - time.monotonic()
            )
            if remaining is not None and remaining <= 0:
                return False
            if not record.wait(remaining):
                return False
        return True

    def stats(self) -> dict:
        with self._lock:
            return {
                "jobs": len(self.jobs),
                "queue_depth": self.queue.depth(),
                "running": self.queue.running_count(),
                **self._summary_locked(),
            }

    def status_document(self) -> dict:
        """The full ``repro.serve/v1`` status JSON (see EXPERIMENTS.md)."""
        with self._lock:
            return {
                "schema": SERVE_SCHEMA,
                "generated_at": time.time(),
                "jobs": [
                    self.jobs[job_id].to_dict() for job_id in self._order
                ],
                **self._summary_locked(),
            }

    def _summary_locked(self) -> dict:
        """What ``stats()`` and the status document both report."""
        out = {
            "cache": self.cache.stats(),
            "events": dict(self.registry.events),
            "gauges": dict(self.registry.gauges),
        }
        if self.state_dir is not None:
            out["durability"] = {
                "state_dir": self.state_dir,
                "wal_replayed": len(self.journal.records),
                "wal_quarantined": [
                    q.to_dict() for q in self.journal.quarantined
                ],
                "cache_quarantined": [
                    q.to_dict()
                    for q in getattr(self.cache, "quarantined", ())
                ],
                "recovery_errors": list(self.recovery_errors),
            }
        worker_stats = getattr(self.scheduler, "worker_stats", None)
        if worker_stats is not None:
            out["workers"] = worker_stats()
        return out

    # -- control -------------------------------------------------------------

    def cancel(self, job_id: str) -> bool:
        """Cancel a job; True when the cancellation took (or will take).

        Queued jobs are withdrawn immediately; a running job is asked to
        suspend and is cancelled when it yields at the next level
        boundary.  Terminal jobs return False.
        """
        with self._lock:
            record = self._record(job_id)
            if record.terminal:
                return False
            waiters = self._waiters.get(record.fingerprint, [])
            if record in waiters:
                waiters.remove(record)
            elif record.state not in (
                JobState.PENDING, JobState.SUSPENDED
            ) or not self.queue.remove(record):
                # Running (or a pending record a worker is just picking
                # up): flag it; the worker finalizes the cancellation on
                # yield.
                record.cancel_requested = True
                record.suspend.request()
                return True
            self._finish_locked(
                record, JobState.CANCELLED, reason="user-cancel"
            )
            return True

    def suspend(self, job_id: str) -> bool:
        """Ask a running job to suspend at its next level boundary."""
        with self._lock:
            record = self._record(job_id)
            if record.terminal:
                return False
            record.suspend.request()
            return True

    # -- execution (worker threads) ------------------------------------------

    def _execute(self, record: JobRecord) -> None:
        with self._lock:
            if record.terminal:
                return
            if record.cancel_requested:
                self._finish_locked(
                    record, JobState.CANCELLED, reason="user-cancel",
                    running=True,
                )
                return
            resuming = record.state == JobState.SUSPENDED
            record.state = JobState.RUNNING
            record.started_at = time.time()
            if resuming:
                record.resumes += 1
                self.registry.event("serve.resumes")
            self._journal_locked(record, "dispatch", resuming=resuming)
            self._refresh_gauges_locked()
        try:
            result = self._run_find(record)
        except WorkerCrash as exc:
            self._handle_worker_crash(record, exc)
            return
        except Exception as exc:  # noqa: BLE001 — a job must never kill a worker
            with self._lock:
                self._finish_locked(
                    record,
                    JobState.FAILED,
                    reason="exception",
                    error=f"{type(exc).__name__}: {exc}",
                    running=True,
                )
            return

        with self._lock:
            if record.cancel_requested and result.suspended:
                # The job yielded on the flag at a level boundary.
                self._finish_locked(
                    record, JobState.CANCELLED, reason="user-cancel",
                    running=True,
                )
                return
            if result.suspended:
                record.state = JobState.SUSPENDED
                record.has_checkpoint = True
                record.preemptions += 1
                record.suspend.clear()
                self.registry.event("serve.preemptions")
                self._journal_locked(
                    record, "suspend", preemptions=record.preemptions
                )
                # Front of the backlog: the suspended job resumes
                # before newer submissions.
                self.queue.requeue(record)
                self._refresh_gauges_locked()
                return
            # A budget-tripped partial top-K is valid for this job's own
            # budgets, but budgets are not part of the fingerprint: the
            # cache refuses it, so waiters re-run under their own budgets.
            cached = self.cache.put(
                record.fingerprint, record.data_digest, result
            )
            self._finish_locked(
                record, JobState.COMPLETED, result=result, running=True,
                cached=cached,
            )

    def _run_find(self, record: JobRecord):
        spec = record.spec
        checkpoint_dir = self._checkpoint_dir(record)
        resume_from = (
            latest_checkpoint(checkpoint_dir) if record.has_checkpoint else None
        )
        task = dict(
            x0=record.x0,
            errors=record.errors,
            config=spec.config,
            num_threads=spec.num_threads,
            seed_slices=record.warm_seeds or None,
            budgets=spec.budgets,
            checkpoint_dir=checkpoint_dir,
            resume_from=resume_from,
            input_fingerprint=record.input_fingerprint,
        )
        with record.tracer.span(
            "serve.run",
            job_id=record.job_id,
            resumed=resume_from is not None,
            warm_seeds=len(record.warm_seeds),
        ):
            runner = getattr(self.scheduler, "run_find", None)
            if runner is not None:
                # Process mode: the enumeration crosses into the worker
                # child.  The per-job tracer stays in the parent (only
                # serve.* spans), the suspend hook is forwarded over the
                # control queue, and checkpoints land on the shared
                # filesystem either way.
                return runner(record, task)
            return slice_line(
                **task,
                trace=record.tracer if self.trace else None,
                suspend=record.suspend,
            )

    # -- internals (call with the lock held) ---------------------------------

    def _checkpoint_dir(self, record: JobRecord) -> str:
        safe = _JOB_ID_SANITIZE.sub("_", record.job_id)
        path = os.path.join(self.workdir, safe)
        os.makedirs(path, exist_ok=True)
        return path

    def _inputs_path(self, data_digest: str) -> str:
        """The one input spill of every explicit-array job on one dataset."""
        return os.path.join(self.state_dir, "inputs", f"{data_digest}.npz")

    def _admit_locked(self, record: JobRecord, front: bool = False) -> bool:
        """Admit one job; True when it was queued.

        A job whose result is cached completes as a cache hit, and one
        whose identical twin is in flight rides on it as a waiter
        instead of enumerating the same lattice twice.  A fresh submission
        takes warm seeds from a same-data cache entry; a recovered job
        takes none, since an orphan must resume from its checkpoint
        exactly as the pre-crash run would have continued.  Anything else
        is queued (at the head with ``front``) or rejected.
        """
        fingerprint = record.fingerprint
        cached = self.cache.get(fingerprint)
        if cached is not None:
            with record.tracer.span(
                "serve.cache_hit", fingerprint=fingerprint[:12]
            ):
                pass
            self._finish_locked(
                record, JobState.COMPLETED, result=cached, cache_hit=True
            )
            return False
        self.registry.event("serve.cache_misses")
        if fingerprint in self._inflight:
            record.coalesced = True
            self._waiters.setdefault(fingerprint, []).append(record)
            return False
        if not record.recovered:
            seeds = self.cache.warm_seeds(record.data_digest)
            if seeds:
                record.warm_seeds = seeds
                self.registry.event("serve.warm_starts")
        return self._queue_locked(record, front)

    def _queue_locked(self, record: JobRecord, front: bool = False) -> bool:
        """Queue *record*, or reject it with the backlog's reason.

        A queued job becomes its fingerprint's in-flight origin.
        """
        decision = self.queue.admit(record, front=front)
        record.admission = decision
        if not decision.admitted:
            self._finish_locked(
                record, JobState.REJECTED, reason=decision.reason
            )
            return False
        self._inflight[record.fingerprint] = record
        return True

    def _finish_locked(
        self,
        record: JobRecord,
        state: str,
        *,
        result=None,
        reason: str = "",
        error: str | None = None,
        cache_hit: bool = False,
        running: bool = False,
        cached: bool = False,
    ) -> None:
        """The one terminal transition: journal first, then wake the caller.

        The terminal record is durable before ``result()``/``wait()``
        return unless the append itself fails (see
        :meth:`_journal_locked`); the job then recovers from its last
        durable record.  ``running`` releases the worker slot of a job a
        worker had taken.  An in-flight origin then hands its fingerprint
        over: its waiters complete as cache hits when the cache took its
        result (``cached``); otherwise the first waiter is queued as the
        new origin, and if the backlog rejects it, the rest are rejected
        with its reason.  A waiter is never an origin, so this recurses at
        most once.
        """
        if running:
            self.queue.release()
        record.state = state
        record.reason = reason
        if result is not None:
            record.result = result
        if error is not None:
            record.error = error
        if cache_hit:
            record.cache_hit = True
        record.finished_at = time.time()
        wal_type, event = _TERMINAL[state]
        self._journal_locked(
            record,
            wal_type,
            reason=reason,
            cache_hit=record.cache_hit,
            error=record.error,
        )
        record.done.set()
        if not self._recovering:
            self.registry.event("serve.cache_hits" if cache_hit else event)
        fingerprint = record.fingerprint
        if self._inflight.get(fingerprint) is record:
            del self._inflight[fingerprint]
            waiters = self._waiters.pop(fingerprint, [])
            if cached:
                for waiter in waiters:
                    self._finish_locked(
                        waiter, JobState.COMPLETED, result=record.result,
                        cache_hit=True,
                    )
            elif waiters:
                origin, rest = waiters[0], waiters[1:]
                origin.coalesced = False
                if self._queue_locked(origin):
                    if rest:
                        self._waiters[fingerprint] = rest
                else:
                    for waiter in rest:
                        self._finish_locked(
                            waiter, JobState.REJECTED, reason=origin.reason
                        )
        self._refresh_gauges_locked()

    # -- durability (journal + recovery) -------------------------------------

    def _journal_locked(
        self, record: JobRecord, record_type: str, **fields
    ) -> None:
        """Append one WAL record (no-op without a journal or during replay).

        Replayed terminal transitions must not be re-journaled — the
        ``_recovering`` guard covers :meth:`_finish_locked` calls made
        while rebuilding the job table from the journal itself.
        """
        if self.journal is None or self._recovering:
            return
        try:
            self.journal.append(record_type, record.job_id, **fields)
        except (ServeError, OSError):
            # A failed append (a full disk, or a journal that shutdown
            # already closed) must not take down the worker finishing its
            # job; the transition goes ahead without its record, and the
            # lost durability shows in the events.
            self.registry.event("serve.wal_append_failures")

    def _journal_submit_locked(self, record: JobRecord, serial: int) -> None:
        """Write-ahead record of one submission (spec table + identity).

        Explicit-array specs spill their ``(x0, errors)`` to
        ``inputs/<data_digest>.npz`` *before* the first submit record that
        needs them, so a crash between the two leaves an unreferenced
        spill file, never a dangling reference.  The file is shared by
        every job on the same data: this instance writes it once, and the
        submit record names it by its ``data_digest`` alone.  It holds the
        codes in the dtype their fingerprint hashed (``x0_codes``).
        """
        if self.journal is None or self._recovering:
            return
        spec = record.spec
        has_inputs = spec.dataset is None
        if has_inputs and record.data_digest not in self._spilled:
            x0 = record.x0
            codes = record.input_fingerprint.get("x0_codes")
            if codes is not None:
                x0 = np.asarray(x0).astype(codes)
            buffer = io.BytesIO()
            np.savez(buffer, x0=x0, errors=record.errors)
            atomic_write_bytes(
                self._inputs_path(record.data_digest),
                buffer.getvalue(),
                durable=self.journal.fsync,
            )
            self._spilled.add(record.data_digest)
        self._journal_locked(
            record,
            "submit",
            fingerprint=record.fingerprint,
            data_digest=record.data_digest,
            serial=serial,
            spec=spec_to_dict(spec),
            has_inputs=has_inputs,
            submitted_at=record.submitted_at,
        )

    def _handle_worker_crash(self, record: JobRecord, exc: WorkerCrash) -> None:
        """A worker process died under *record*: requeue, don't fail.

        The job goes back to the **front** of the backlog and —
        when a ``repro.ckpt/v1`` checkpoint exists — resumes from its
        last level boundary, so the eventual result is bitwise-identical
        to a fault-free run.  :data:`MAX_JOB_CRASHES` bounds the
        retries: a job that reliably kills workers (a poison pill) is
        failed with the typed reason ``"worker-crash"``.
        """
        with self._lock:
            record.crashes += 1
            self.registry.event("serve.orphan_requeues")
            record.has_checkpoint = (
                latest_checkpoint(self._checkpoint_dir(record)) is not None
            )
            record.suspend.clear()
            if record.cancel_requested:
                self._finish_locked(
                    record, JobState.CANCELLED, reason="user-cancel",
                    running=True,
                )
            elif record.crashes > MAX_JOB_CRASHES:
                self._finish_locked(
                    record,
                    JobState.FAILED,
                    reason="worker-crash",
                    error=f"{type(exc).__name__}: {exc}",
                    running=True,
                )
            else:
                record.state = (
                    JobState.SUSPENDED
                    if record.has_checkpoint
                    else JobState.PENDING
                )
                self._journal_locked(
                    record, "suspend", crash=exc.kind, crashes=record.crashes
                )
                self.queue.requeue(record)
                self._refresh_gauges_locked()

    def _recover_locked(self) -> None:
        """Rebuild the job table from the journal (constructor only).

        Last record wins per job: a terminal record restores the terminal
        state (a completed job re-attaches its result from the durable
        cache); a job whose last record is ``submit`` re-admits
        in submission order; one that reached ``dispatch``/``suspend``
        is an **orphan** — it re-admits at the front of the backlog and
        resumes from its checkpoint when one exists.  A job
        the journal names but recovery cannot rebuild (its dataset or
        inputs changed or vanished, or its spec is from an older version)
        lands in :attr:`recovery_errors` instead of aborting recovery, and
        a ``fail`` record journals why; later recoveries skip the job.
        """
        by_job: dict[str, list[dict]] = {}
        for entry in self.journal.records:
            by_job.setdefault(entry["job_id"], []).append(entry)
        orphans: list[JobRecord] = []
        backlog: list[JobRecord] = []
        recovered = 0
        #: data digest or (dataset, scale, seed) -> (x0, errors,
        #: fingerprint): each intact spill is read once, each registry
        #: dataset built once
        shared: dict = {}
        self._recovering = True
        try:
            for job_id, entries in by_job.items():
                submit = next(
                    (e for e in entries if e["type"] == "submit"), None
                )
                last = entries[-1]
                if submit is None or (
                    last["type"] == "fail"
                    and last.get("reason") == _RECOVERY_FAILED
                ):
                    continue
                try:
                    record = self._rebuild_record(job_id, submit, shared)
                except Exception as exc:  # noqa: BLE001 — quarantine, don't abort
                    self.recovery_errors.append(
                        {"job_id": job_id, "error": str(exc)}
                    )
                    self.registry.event("serve.recovery_quarantined")
                    try:
                        self.journal.append(
                            "fail", job_id, reason=_RECOVERY_FAILED,
                            error=f"{type(exc).__name__}: {exc}",
                        )
                    except OSError:
                        # The next recovery quarantines the job again.
                        self.registry.event("serve.wal_append_failures")
                    continue
                record.recovered = True
                self.jobs[job_id] = record
                self._order.append(job_id)
                serial = int(submit.get("serial", 0))
                self._submissions[record.fingerprint] = max(
                    self._submissions.get(record.fingerprint, 0), serial + 1
                )
                recovered += 1
                state = _WAL_STATE.get(last["type"])
                if state is not None:
                    result = None
                    if state == JobState.COMPLETED:
                        result = self.cache.peek(record.fingerprint)
                    self._finish_locked(
                        record,
                        state,
                        result=result,
                        reason=last.get("reason") or "recovered",
                        error=last.get("error"),
                        cache_hit=bool(last.get("cache_hit")),
                    )
                    continue
                record.has_checkpoint = (
                    latest_checkpoint(self._checkpoint_dir(record))
                    is not None
                )
                if record.has_checkpoint:
                    record.state = JobState.SUSPENDED
                was_dispatched = any(
                    e["type"] in ("dispatch", "suspend") for e in entries
                )
                (orphans if was_dispatched else backlog).append(record)
        finally:
            self._recovering = False
        # Re-admission runs outside the replay guard so genuinely *new*
        # transitions (a recovered pending job that is now a cache hit,
        # a rejection) are journaled like any other.
        for record in reversed(orphans):
            # reversed + front=True preserves the original relative order
            # at the head of the backlog.
            self._admit_locked(record, front=True)
        for record in backlog:
            self._admit_locked(record)
        if recovered:
            self.registry.event("serve.recovered_jobs", recovered)
        if orphans:
            self.registry.event("serve.recovered_orphans", len(orphans))
        if self.journal.quarantined:
            self.registry.event(
                "serve.wal_quarantined", len(self.journal.quarantined)
            )

    def _rebuild_record(
        self, job_id: str, submit: dict, shared: dict
    ) -> JobRecord:
        """One :class:`JobRecord` from a journaled ``submit`` record.

        *shared* holds the :class:`_RecoveredInputs` recovery has built so
        far: each spill by its data digest (see :meth:`_recovered_inputs`),
        and each registry dataset by ``(dataset, scale, seed)``, loaded
        and hashed once and handed to every job on it as the same
        read-only arrays.  The job keeps the identity it was journaled
        with, under the current hash or the byte hash before it.  A spec
        journaled with a ``kind`` is a find job with the retired monitor
        keys dropped, or a monitor job, which cannot be rebuilt.
        """
        table = submit.get("spec")
        if not isinstance(table, dict):
            raise ServeError(
                f"journal submit record for {job_id!r} carries no spec table"
            )
        if "kind" in table:
            if table["kind"] != "find":
                raise ServeError(
                    f"job {job_id!r} is a {table['kind']!r} job, and the "
                    "service runs only slice-finding jobs; replay a stream "
                    "with `python -m repro monitor`"
                )
            table = {
                key: value
                for key, value in table.items()
                if key not in _RETIRED_SPEC_KEYS
            }
        if submit.get("has_inputs"):
            inputs = self._recovered_inputs(
                job_id, submit.get("data_digest"), shared
            )
            spec = spec_from_dict(
                table, where=f"journal:{job_id}",
                x0=inputs.x0, errors=inputs.errors,
            )
        else:
            spec = spec_from_dict(table, where=f"journal:{job_id}")
            key = (spec.dataset, spec.scale, spec.seed)
            if key not in shared:
                shared[key] = _RecoveredInputs(*spec.resolve_data())
            inputs = shared[key]
        journaled = submit.get("fingerprint")
        fingerprints = inputs.fingerprints(
            lambda data_fp: journaled in (None, _identity(spec, data_fp)[1])
        )
        if fingerprints is None:
            raise ServeError(
                f"job {job_id!r} fingerprint mismatch on recovery: the "
                "data or config behind the journaled spec changed"
            )
        data_fp, run_fp = fingerprints
        data_digest, fingerprint = _identity(spec, data_fp)
        return JobRecord(
            job_id=job_id,
            spec=spec,
            fingerprint=fingerprint,
            data_digest=data_digest,
            submitted_at=float(submit.get("submitted_at") or time.time()),
            tracer=Tracer() if self.trace else NULL_TRACER,
            x0=inputs.x0,
            errors=inputs.errors,
            input_fingerprint=run_fp,
        )

    def _recovered_inputs(
        self, job_id: str, data_digest: str | None, shared: dict
    ) -> "_RecoveredInputs":
        """The inputs of a journaled array job.

        A job journaled before spills were shared owns
        ``jobs/<id>/inputs.npz``, read for it alone.  Every other job reads
        ``inputs/<data_digest>.npz``: loaded and hashed once per recovery,
        checked against the digest that names it, and handed to each job
        that needs it as the same read-only arrays.  A file that fails to
        read or to hash to its digest fails every job that needs it (each
        such job tries it again).  Reading a file back does not make it
        durable (an earlier instance may have run without fsync), so this
        instance's first submit of that data writes it again.
        """
        legacy = os.path.join(
            self.workdir, _JOB_ID_SANITIZE.sub("_", job_id), "inputs.npz"
        )
        if os.path.exists(legacy):
            return _RecoveredInputs(*_load_inputs(legacy))
        if not isinstance(data_digest, str):
            raise ServeError(
                f"journal submit record for {job_id!r} names no data digest"
            )
        if data_digest not in shared:
            path = self._inputs_path(data_digest)
            inputs = _RecoveredInputs(*_load_inputs(path))
            if inputs.fingerprints(
                lambda data_fp: fingerprint_digest(data_fp) == data_digest
            ) is None:
                raise ServeError(
                    f"input spill {path} does not hash to its digest: the "
                    "file is damaged"
                )
            shared[data_digest] = inputs
        return shared[data_digest]

    def _refresh_gauges_locked(self) -> None:
        self.registry.gauge("serve.queue_depth", self.queue.depth())
        self.registry.gauge("serve.running", self.queue.running_count())
        cache = self.cache.stats()
        self.registry.gauge("serve.cache_entries", cache["entries"])
        self.registry.gauge("serve.cache_bytes", cache["bytes"])
        self.registry.gauge("serve.cache_hits", cache["hits"])
        self.registry.gauge("serve.cache_misses", cache["misses"])


def _identity(spec: JobSpec, data_fp: dict) -> tuple[str, str]:
    """``(data_digest, fingerprint)`` of a job on the data *data_fp* hashes.

    The data digest keys warm starts and input spills; the fingerprint
    (data and config) keys the cache, coalescing and the job id.
    """
    return fingerprint_digest(data_fp), fingerprint_digest(
        data_fp, fingerprint_config(spec.config)
    )


class _RecoveredInputs:
    """One dataset as recovery hands it to every job on it.

    The arrays are validated once into what the search takes (a spill
    holds the codes in the dtype their fingerprint hashed, and they widen
    here to int64) and shared read-only, so each job's search takes them
    as they are and hashes nothing.  Arrays the search would reject are
    kept as read: the job then fails as it would have.
    """

    def __init__(self, x0: np.ndarray, errors: np.ndarray) -> None:
        self._read = (x0, errors)
        try:
            x0 = validate_encoded_matrix(x0, allow_missing=True)
            errors = ensure_vector(errors, x0.shape[0], "errors")
        except ReproError:
            x0, errors = self._read
        x0.flags.writeable = False
        errors.flags.writeable = False
        self.x0, self.errors = x0, errors
        #: ``(identity, run)`` fingerprints under the current hash (False)
        #: and the byte hash (True), as far as they were needed
        self._hashed: dict[bool, tuple[dict, dict]] = {}

    def fingerprints(self, accepts) -> tuple[dict, dict] | None:
        """``(identity, run)`` fingerprints of the first hash whose identity
        *accepts* takes, or ``None``.

        The current hash comes first.  A job journaled before codes were
        hashed narrow has the byte hash of the inputs as read: computed at
        most once, and only when the current one is not accepted.  The run
        fingerprint is what the job's search hashes, and its bundles
        carry: the identity, unless validation copied the arrays and the
        identity depends on more than the code values.
        """
        for old in (False, True):
            if old not in self._hashed:
                hash_inputs = _byte_fingerprint if old else fingerprint_inputs
                identity = hash_inputs(*self._read)
                x0, errors = self._read
                same = errors is self.errors and (
                    x0 is self.x0 or "x0_codes" in identity
                )
                self._hashed[old] = (
                    identity,
                    identity if same else hash_inputs(self.x0, self.errors),
                )
            if accepts(self._hashed[old][0]):
                return self._hashed[old]
        return None


def _load_inputs(path: str) -> tuple[np.ndarray, np.ndarray]:
    """The ``(x0, errors)`` arrays of one input spill."""
    try:
        # Our own handle: np.load leaves a path it opened unclosed when the
        # file is not a readable zip.
        with open(path, "rb") as handle, np.load(handle) as bundle:
            return np.array(bundle["x0"]), np.array(bundle["errors"])
    except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile) as exc:
        raise ServeError(f"input spill {path} is unreadable: {exc}") from exc


__all__ = ["SERVE_SCHEMA", "SliceService"]
