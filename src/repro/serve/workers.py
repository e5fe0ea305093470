"""Supervised multi-process workers for the serving layer.

:class:`ProcessWorkerSupervisor` is a
:class:`~repro.serve.scheduler.Scheduler` that inherits its worker-thread
pool, its ``executing`` bookkeeping and its ``maybe_preempt`` rule, so
cooperative preemption works the same in both modes.  The difference is
*where* enumeration runs: each worker slot owns a **spawned child
process**, and each job's ``slice_line`` call executes there — so a worker that is SIGKILL'd mid-level (OOM killer, operator,
chaos suite) takes down neither the service nor the other workers.

Supervision contract per worker slot:

* the child writes a **heartbeat file** (``worker-N.json``) every
  :data:`HEARTBEAT_INTERVAL_S` with its pid and current job; a child that
  is alive but silent past ``heartbeat_timeout_s`` is presumed hung,
  killed (SIGKILL) and treated as crashed;
* a dead child (``exitcode`` set — ``-9`` is the SIGKILL signature) raises
  :class:`WorkerCrash` into the service's execute callback, whose handler
  **requeues the orphaned job at the front** of the backlog; the
  job resumes from its last ``repro.ckpt/v1`` level-boundary checkpoint,
  so the recovered result is bitwise-identical to a fault-free run;
* the slot is **restarted with exponential backoff**
  (:func:`restart_delay`); after :data:`MAX_RESTARTS` consecutive crashes
  with no successful job in between the slot is retired (the pool keeps
  running on the remaining slots).

Job state transitions stay in the parent — the service's lock-guarded
state machine is untouched; the child only computes.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import threading
import time

from repro.exceptions import ServeError
from repro.resilience.atomic import atomic_write_json
from repro.resilience.budgets import SuspendHook
from repro.serve.queue import JobQueue
from repro.serve.scheduler import Scheduler
from repro.serve.spec import JobRecord

#: Seconds between two heartbeats of a worker process.
HEARTBEAT_INTERVAL_S = 0.2

#: Consecutive crashes of a worker slot after which it is retired.
MAX_RESTARTS = 4


def restart_delay(crashes: int) -> float:
    """Seconds before restarting a slot after *crashes* crashes in a row:
    0.05 s, doubling per crash, capped at 2 s."""
    return min(0.05 * 2.0 ** (crashes - 1), 2.0)


class WorkerCrash(ServeError):
    """A worker process died (or went silent) while executing a job.

    Raised out of :meth:`ProcessWorkerSupervisor.run_find` into the
    service's execute callback, which requeues the orphaned job at the
    front instead of failing it.  ``kind`` is ``"sigkill"`` (exit by
    signal 9), ``"exit"`` (any other death), or ``"heartbeat"`` (alive
    but past the heartbeat deadline; the supervisor killed it).
    """

    def __init__(self, message: str, kind: str = "exit") -> None:
        super().__init__(message)
        self.kind = kind


def read_heartbeat(path: str) -> dict | None:
    """Parse one heartbeat file (``None`` when absent or torn)."""
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None


def _heartbeat_loop(path, worker_id, state, stop) -> None:
    while not stop.is_set():
        atomic_write_json(
            path,
            {
                "worker": worker_id,
                "pid": os.getpid(),
                "ts": time.time(),
                "job_id": state.get("job_id"),
            },
            durable=False,
            indent=None,
        )
        stop.wait(HEARTBEAT_INTERVAL_S)


def _control_loop(control_q, state, stop) -> None:
    """Child-side thread: turn control messages into suspend requests."""
    while not stop.is_set():
        try:
            message = control_q.get(timeout=0.1)
        except Exception:  # noqa: BLE001 — Empty, or a closed queue at exit
            continue
        if message[0] == "suspend":
            hook = state.get("hook")
            # Stale suspends (from a job this child already finished) are
            # dropped by the job-id tag.
            if hook is not None and state.get("job_id") == message[1]:
                hook.request()


def worker_main(
    worker_id: int,
    task_q,
    result_q,
    control_q,
    heartbeat_path: str,
) -> None:
    """Entry point of one spawned worker process."""
    # Local import: the child re-imports the package under spawn; pulling
    # the heavy core in here keeps the module importable without it.
    from repro.core.algorithm import slice_line

    state: dict = {"job_id": None, "hook": None}
    stop = threading.Event()
    threading.Thread(
        target=_heartbeat_loop,
        args=(heartbeat_path, worker_id, state, stop),
        daemon=True,
    ).start()
    threading.Thread(
        target=_control_loop, args=(control_q, state, stop), daemon=True
    ).start()
    while True:
        message = task_q.get()
        if message[0] == "stop":
            break
        _, job_id, task = message
        hook = SuspendHook()
        state["hook"] = hook
        state["job_id"] = job_id
        try:
            result = slice_line(suspend=hook, **task)
            result_q.put(("ok", job_id, result))
        except Exception as exc:  # noqa: BLE001 — job errors go to the parent
            result_q.put(("error", job_id, f"{type(exc).__name__}: {exc}"))
        finally:
            state["job_id"] = None
            state["hook"] = None
    stop.set()


class _WorkerSlot:
    """Parent-side handle of one worker process and its queues."""

    def __init__(self, index: int, context, run_dir: str) -> None:
        self.index = index
        self.context = context
        self.heartbeat_path = os.path.join(run_dir, f"worker-{index}.json")
        self.process = None
        self.task_q = None
        self.result_q = None
        self.control_q = None
        #: crashes since the last successful job on this slot
        self.consecutive_crashes = 0
        self.retired = False

    def spawn(self) -> None:
        self.task_q = self.context.Queue()
        self.result_q = self.context.Queue()
        self.control_q = self.context.Queue()
        self.process = self.context.Process(
            target=worker_main,
            args=(
                self.index,
                self.task_q,
                self.result_q,
                self.control_q,
                self.heartbeat_path,
            ),
            daemon=True,
            name=f"repro-serve-proc-{self.index}",
        )
        self.process.start()

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def heartbeat_age(self) -> float | None:
        beat = read_heartbeat(self.heartbeat_path)
        if beat is None or beat.get("pid") != self.process.pid:
            return None
        return time.time() - float(beat.get("ts", 0.0))

    def kill(self) -> None:
        if self.process is not None and self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=5.0)

    def drop_queues(self) -> None:
        for q in (self.task_q, self.result_q, self.control_q):
            if q is not None:
                q.close()
                q.cancel_join_thread()
        self.task_q = self.result_q = self.control_q = None


class ProcessWorkerSupervisor(Scheduler):
    """Runs queued jobs on a supervised pool of spawned worker processes.

    Each worker thread of this :class:`~repro.serve.scheduler.Scheduler`
    owns one worker slot: it runs the service's execute callback, whose
    ``slice_line`` call is delegated to the slot's child process through
    :meth:`run_find`.
    """

    def __init__(
        self,
        queue: JobQueue,
        execute,
        num_workers: int = 2,
        preemption: bool = True,
        run_dir: str | None = None,
        heartbeat_timeout_s: float = 30.0,
        on_event=None,
    ) -> None:
        super().__init__(queue, execute, num_workers, preemption)
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self._on_event = on_event or (lambda name: None)
        if run_dir is None:
            import tempfile

            run_dir = tempfile.mkdtemp(prefix="repro-serve-workers-")
        self.run_dir = run_dir
        os.makedirs(run_dir, exist_ok=True)
        self._context = multiprocessing.get_context("spawn")
        self._slots: list[_WorkerSlot] = []
        self._local = threading.local()
        #: total worker crashes / restarts observed (exposed in stats)
        self.crashes = 0
        self.restarts = 0

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        if self.started:
            return
        self._slots = []
        for index in range(self.num_workers):
            slot = _WorkerSlot(index, self._context, self.run_dir)
            slot.spawn()
            self._slots.append(slot)
        super().start()

    def shutdown(self, wait: bool = True) -> None:
        super().shutdown(wait)
        for slot in self._slots:
            if slot.alive:
                try:
                    slot.task_q.put(("stop",))
                    slot.process.join(timeout=2.0)
                except (OSError, ValueError):
                    pass
            slot.kill()
            slot.drop_queues()
        # _slots stays populated so worker_stats() (and the status JSON
        # the CLI writes after shutdown) still reports the final fleet.

    # -- dispatch ------------------------------------------------------------

    def _worker(self, index: int) -> None:
        slot = self._local.slot = self._slots[index]
        while not self._stop.is_set():
            if not slot.retired and not slot.alive:
                self._respawn(slot)
            record = self.queue.take(timeout=0.1)
            if record is not None:
                self._run(record)

    def _respawn(self, slot: _WorkerSlot) -> None:
        """Restart a dead worker with bounded exponential backoff."""
        slot.drop_queues()
        slot.consecutive_crashes += 1
        if slot.consecutive_crashes > MAX_RESTARTS:
            slot.retired = True
            self._on_event("serve.workers_retired")
            return
        if self._stop.wait(restart_delay(slot.consecutive_crashes)):
            return
        slot.spawn()
        self.restarts += 1
        self._on_event("serve.worker_restarts")

    def run_find(self, record: JobRecord, task: dict):
        """Execute one ``slice_line`` call on the calling thread's worker.

        Blocks until the child returns a result, forwards suspend
        requests from the parent-side :class:`SuspendHook` into the
        child, and raises :class:`WorkerCrash` when the child dies or
        misses its heartbeat deadline.  Called from the service's execute
        callback on a worker thread.
        """
        slot = getattr(self._local, "slot", None)
        if slot is None:
            raise ServeError(
                "run_find must be called from a worker thread"
            )
        if slot.retired or not slot.alive:
            raise WorkerCrash(
                f"worker {slot.index} is not available", kind="exit"
            )
        slot.task_q.put(("run", record.job_id, task))
        sent_at = time.monotonic()
        suspend_sent = False
        while True:
            try:
                kind, job_id, payload = slot.result_q.get(timeout=0.1)
            except Exception:  # noqa: BLE001 — queue.Empty from mp.Queue
                self._check_worker(slot, record, sent_at)
                if record.suspend.requested and not suspend_sent:
                    slot.control_q.put(("suspend", record.job_id))
                    suspend_sent = True
                continue
            if job_id != record.job_id:
                # A reply from a job whose parent already gave up on this
                # slot (cannot happen with one worker thread per slot, but
                # cheap to be safe about).
                continue
            slot.consecutive_crashes = 0
            if kind == "ok":
                return payload
            raise ServeError(payload)

    def _check_worker(
        self, slot: _WorkerSlot, record: JobRecord, sent_at: float
    ) -> None:
        if not slot.alive:
            exitcode = slot.process.exitcode
            self.crashes += 1
            self._on_event("serve.worker_crashes")
            kind = (
                "sigkill"
                if exitcode == -int(signal.SIGKILL)
                else "exit"
            )
            raise WorkerCrash(
                f"worker {slot.index} died with exit code {exitcode} while "
                f"executing {record.job_id!r}",
                kind=kind,
            )
        age = slot.heartbeat_age()
        if age is None:
            # No heartbeat from this pid yet: a child stopped (or hung)
            # during interpreter boot never writes one, so the deadline
            # falls back to time since the task was dispatched.
            age = time.monotonic() - sent_at
        if age > self.heartbeat_timeout_s:
            slot.kill()
            self.crashes += 1
            self._on_event("serve.worker_crashes")
            raise WorkerCrash(
                f"worker {slot.index} missed its heartbeat deadline "
                f"({age:.1f}s > {self.heartbeat_timeout_s}s) while "
                f"executing {record.job_id!r}; killed",
                kind="heartbeat",
            )

    # -- introspection -------------------------------------------------------

    def worker_stats(self) -> list[dict]:
        out = []
        for slot in self._slots:
            out.append(
                {
                    "worker": slot.index,
                    "alive": slot.alive,
                    "retired": slot.retired,
                    "pid": slot.process.pid if slot.process else None,
                    "consecutive_crashes": slot.consecutive_crashes,
                }
            )
        return out


__all__ = [
    "HEARTBEAT_INTERVAL_S",
    "MAX_RESTARTS",
    "ProcessWorkerSupervisor",
    "WorkerCrash",
    "read_heartbeat",
    "restart_delay",
    "worker_main",
]
