"""Worker pool and checkpoint-backed preemption.

The :class:`Scheduler` owns N daemon worker threads that drain the
:class:`~repro.serve.queue.JobQueue` and hand each job to the service's
execute callback.  Preemption is cooperative: when an *interactive* job
arrives while every worker is busy, the scheduler asks the most recently
started non-interactive job to suspend via its
:class:`~repro.resilience.SuspendHook`.  The victim stops at its next
level boundary — exactly where its ``repro.ckpt/v1`` checkpoint was just
written — frees the worker, and is parked at the front of the backlog to
resume (bitwise-identically) once a worker frees up again.
"""

from __future__ import annotations

import threading

from repro.serve.queue import JobQueue
from repro.serve.spec import JobRecord


class Scheduler:
    """Runs queued jobs on a fixed pool of worker threads."""

    def __init__(
        self,
        queue: JobQueue,
        execute,
        num_workers: int = 2,
        preemption: bool = True,
    ) -> None:
        self.queue = queue
        self._execute = execute
        self.num_workers = max(1, int(num_workers))
        self.preemption = preemption
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self._lock = threading.Lock()
        self._executing: dict[str, JobRecord] = {}

    def start(self) -> None:
        if self._threads:
            return
        self._stop.clear()
        for index in range(self.num_workers):
            thread = threading.Thread(
                target=self._worker,
                args=(index,),
                name=f"repro-serve-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    @property
    def started(self) -> bool:
        return bool(self._threads)

    def _worker(self, index: int) -> None:
        """Loop of the pool's *index*-th worker thread: take, then run."""
        while not self._stop.is_set():
            record = self.queue.take(timeout=0.1)
            if record is not None:
                self._run(record)

    def _run(self, record: JobRecord) -> None:
        """Execute one taken job, counted as executing while it runs."""
        with self._lock:
            self._executing[record.job_id] = record
        try:
            self._execute(record)
        finally:
            with self._lock:
                self._executing.pop(record.job_id, None)

    def executing(self) -> list[JobRecord]:
        with self._lock:
            return list(self._executing.values())

    def maybe_preempt(self, incoming: JobRecord) -> JobRecord | None:
        """Suspend a batch job to make room for an interactive one.

        Returns the victim whose suspension was requested, or ``None``
        when no preemption was needed (a worker is free) or possible (no
        suspendable victim).  Only non-interactive jobs are eligible
        victims — they checkpoint at level boundaries, so their resumed
        result is guaranteed bitwise-identical; the most recently started
        victim is chosen to minimize lost progress.
        """
        if not self.preemption or not incoming.spec.interactive:
            return None
        with self._lock:
            if len(self._executing) < self.num_workers:
                return None
            victims = [
                record
                for record in self._executing.values()
                if not record.spec.interactive
                and not record.suspend.requested
            ]
            if not victims:
                return None
            victim = max(victims, key=lambda r: r.started_at or 0.0)
            victim.suspend.request()
            return victim

    def shutdown(self, wait: bool = True) -> None:
        self._stop.set()
        self.queue.close()
        if wait:
            for thread in self._threads:
                thread.join(timeout=10.0)
        self._threads = []


__all__ = ["Scheduler"]
