"""Admission control and job ordering: one service-wide backlog.

:class:`JobQueue` holds every queued job of the service in one backlog.
``admit`` either queues a job or rejects it with a typed
:class:`AdmissionDecision` once the backlog holds ``max_queued`` jobs;
``take`` hands workers the first interactive job, or else the head of the
backlog.  Tenants are labels here: they neither order nor limit anything,
and the worker pool is the only limit on how many jobs run at once.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass

from repro.serve.spec import JobRecord

#: Jobs the backlog holds before ``admit`` rejects with ``"queue-full"``.
MAX_QUEUED = 64


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of admission control, with a machine-readable reason.

    ``reason`` vocabulary: ``"queued"`` (admitted), ``"queue-full"``
    (rejected: the backlog holds ``max_queued`` jobs) and
    ``"service-shutdown"`` (rejected).
    """

    admitted: bool
    reason: str
    detail: str = ""


class JobQueue:
    """Thread-safe backlog: interactive jobs first, otherwise FIFO.

    The queue only orders and counts; it never runs anything.  ``take``
    counts a job as running, ``release`` stops counting one (a job left
    execution for good), and ``requeue`` stops counting a job *and* parks
    it back at the *front* of the backlog (a suspended job resumes before
    newer submissions).
    """

    def __init__(self) -> None:
        #: backlog bound (the instance holds it, so a test can lower it)
        self.max_queued = MAX_QUEUED
        self._cond = threading.Condition()
        self._pending: deque[JobRecord] = deque()
        self._running = 0
        self._closed = False

    def admit(self, record: JobRecord, front: bool = False) -> AdmissionDecision:
        """Queue *record* (or reject it with a typed decision).

        ``front=True`` parks the job at the head of the backlog — used by
        journal recovery to put orphaned (previously dispatched or
        suspended) jobs back in line before anything newer.
        """
        with self._cond:
            if self._closed:
                return AdmissionDecision(
                    False, "service-shutdown", "the service is shutting down"
                )
            if len(self._pending) >= self.max_queued:
                return AdmissionDecision(
                    False,
                    "queue-full",
                    f"the backlog already holds {len(self._pending)} "
                    f"job(s) (max_queued={self.max_queued})",
                )
            if front:
                self._pending.appendleft(record)
            else:
                self._pending.append(record)
            self._cond.notify()
            return AdmissionDecision(True, "queued", "")

    def take(self, timeout: float | None = None) -> JobRecord | None:
        """The first interactive job, else the head; ``None`` on timeout/close."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                if self._closed:
                    return None
                if self._pending:
                    record = next(
                        (job for job in self._pending if job.spec.interactive),
                        self._pending[0],
                    )
                    self._pending.remove(record)
                    self._running += 1
                    return record
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return None
                    self._cond.wait(remaining)
                else:
                    self._cond.wait()

    def requeue(self, record: JobRecord) -> None:
        """Park a suspended job at the front of the backlog."""
        with self._cond:
            self._pending.appendleft(record)
            self._running = max(0, self._running - 1)
            self._cond.notify()

    def release(self) -> None:
        """Stop counting a job that left execution for good."""
        with self._cond:
            self._running = max(0, self._running - 1)

    def remove(self, record: JobRecord) -> bool:
        """Withdraw a queued job (cancellation); False when not queued."""
        with self._cond:
            try:
                self._pending.remove(record)
            except ValueError:
                return False
            return True

    def depth(self) -> int:
        with self._cond:
            return len(self._pending)

    def running_count(self) -> int:
        with self._cond:
            return self._running

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()


__all__ = ["AdmissionDecision", "JobQueue", "MAX_QUEUED"]
