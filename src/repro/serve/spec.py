"""Job model for the serving layer: what a job *is* and what happened to it.

A :class:`JobSpec` is the user-facing description of one unit of work —
a slice-finding run over a registry dataset or explicit ``(x0, errors)``
arrays.  The service resolves it into a :class:`JobRecord`
carrying a deterministic identity (the job fingerprint from
:func:`repro.resilience.checkpoint.fingerprint_digest` over the data and
config fingerprints), the scheduling state machine, and everything that
happened to the job (cache hit, warm seeds, preemptions, result, error).

The fingerprint is the load-bearing idea: two submissions over equal data
(equal integer codes in any dtype or layout, bitwise-equal errors) and an
equal result-affecting config share one fingerprint,
which is what keys the result cache, coalesces duplicate in-flight
submissions, and names checkpoint directories for suspend/resume.
"""

from __future__ import annotations

import dataclasses
import threading
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.config import SliceLineConfig
from repro.core.types import Slice, SliceLineResult
from repro.exceptions import ConfigError
from repro.resilience.budgets import BudgetConfig, SuspendHook


class JobState:
    """The job lifecycle vocabulary (plain strings, JSON-stable).

    ``PENDING -> RUNNING -> COMPLETED`` is the happy path; a preempted job
    bounces ``RUNNING -> SUSPENDED -> RUNNING`` (through the queue) until
    it completes; ``FAILED``/``CANCELLED``/``REJECTED`` are terminal.
    """

    PENDING = "pending"
    RUNNING = "running"
    SUSPENDED = "suspended"
    COMPLETED = "completed"
    FAILED = "failed"
    CANCELLED = "cancelled"
    REJECTED = "rejected"

    #: states a job never leaves
    TERMINAL = frozenset({COMPLETED, FAILED, CANCELLED, REJECTED})


@dataclass(eq=False)
class JobSpec:
    """Declarative description of one job (see also ``serve.declarative``).

    The data source is exactly one of a registry ``dataset`` name (plus
    optional ``scale``/``seed``) or explicit ``x0``/``errors`` arrays.

    ``interactive`` marks latency-sensitive submissions: the scheduler
    orders them ahead of batch jobs and may preempt a running batch job
    (suspending it at a level boundary) to free a worker.
    """

    tenant: str = "default"
    name: str | None = None
    dataset: str | None = None
    scale: float | None = None
    seed: int = 0
    x0: np.ndarray | None = None
    errors: np.ndarray | None = None
    config: SliceLineConfig = field(default_factory=SliceLineConfig)
    budgets: BudgetConfig | None = None
    num_threads: int = 1
    interactive: bool = False

    def __post_init__(self) -> None:
        if not self.tenant:
            raise ConfigError("tenant must be a non-empty string")
        has_arrays = self.x0 is not None or self.errors is not None
        if self.dataset is not None and has_arrays:
            raise ConfigError(
                "a job takes either a dataset name or x0/errors arrays, "
                "not both"
            )
        if self.dataset is None and (self.x0 is None or self.errors is None):
            raise ConfigError(
                "a job needs a data source: a registry dataset name, or "
                "both x0 and errors"
            )

    def resolve_data(self) -> tuple[np.ndarray, np.ndarray]:
        """The concrete ``(x0, errors)`` pair this job enumerates."""
        if self.dataset is not None:
            # Local import: repro.datasets is a leaf the serving layer only
            # needs for name-based specs.
            from repro.datasets.registry import load_dataset

            bundle = load_dataset(self.dataset, scale=self.scale, seed=self.seed)
            return bundle.x0, bundle.errors
        return self.x0, self.errors


@dataclass(eq=False)
class JobRecord:
    """One submitted job: identity, state machine, and outcome.

    Created by :meth:`SliceService.submit`; every field after ``spec`` is
    owned by the service (mutated only under its lock or by the single
    worker executing the job).
    """

    job_id: str
    spec: JobSpec
    #: full job fingerprint (data + config) — cache key
    fingerprint: str
    #: digest of the data fingerprint alone — warm-start lookup key
    data_digest: str
    state: str = JobState.PENDING
    #: typed reason for REJECTED/CANCELLED/FAILED states
    reason: str = ""
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    result: SliceLineResult | None = None
    error: str | None = None
    #: served from the result cache (exact fingerprint hit or coalesced)
    cache_hit: bool = False
    #: seeds taken from a same-data cache entry (warm start, not a hit)
    warm_seeds: list[Slice] = field(default_factory=list)
    #: times the job was preempted (suspended at a level boundary)
    preemptions: int = 0
    #: times the job resumed from its checkpoint
    resumes: int = 0
    #: times a worker process died (or went silent) while running the job
    crashes: int = 0
    #: the record was rebuilt from the job journal after a restart
    recovered: bool = False
    admission: "Any | None" = None
    #: duplicate submission riding on an identical in-flight job
    coalesced: bool = False
    cancel_requested: bool = False
    has_checkpoint: bool = False
    #: cooperative preemption/cancellation flag the running enumeration polls
    suspend: SuspendHook = field(default_factory=SuspendHook)
    #: set exactly once, on entering a terminal state
    done: threading.Event = field(default_factory=threading.Event)
    #: per-job tracer (NULL_TRACER when the service runs untraced)
    tracer: Any = None
    #: resolved data (kept so resume re-derives the identical matrices)
    x0: np.ndarray | None = None
    errors: np.ndarray | None = None
    #: ``fingerprint_inputs(x0, errors)``, hashed once at submit (or
    #: recovery); the run's checkpoints carry it and its resume checks it
    input_fingerprint: dict | None = None

    @property
    def terminal(self) -> bool:
        return self.state in JobState.TERMINAL

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job reaches a terminal state."""
        return self.done.wait(timeout)

    def to_dict(self) -> dict:
        """JSON-safe status record (the ``jobs[]`` entry of ``repro.serve/v1``)."""
        result = self.result
        return {
            "job_id": self.job_id,
            "tenant": self.spec.tenant,
            "name": self.spec.name,
            "state": self.state,
            "reason": self.reason,
            "interactive": self.spec.interactive,
            "fingerprint": self.fingerprint,
            "data_digest": self.data_digest,
            "cache_hit": self.cache_hit,
            "warm_seeds": len(self.warm_seeds),
            "preemptions": self.preemptions,
            "resumes": self.resumes,
            "crashes": self.crashes,
            "recovered": self.recovered,
            "coalesced": self.coalesced,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
            "admission": (
                {
                    "admitted": self.admission.admitted,
                    "reason": self.admission.reason,
                    "detail": self.admission.detail,
                }
                if self.admission is not None
                else None
            ),
            "budgets": (
                dataclasses.asdict(self.spec.budgets)
                if self.spec.budgets is not None
                else None
            ),
            "result": (
                {
                    "num_top_slices": len(result.top_slices),
                    "top_scores": [float(s.score) for s in result.top_slices],
                    "completed": result.completed,
                    "suspended": result.suspended,
                    "total_seconds": result.total_seconds,
                }
                if result is not None
                else None
            ),
        }


__all__ = ["JobRecord", "JobSpec", "JobState"]
