"""Slice-finding job service.

The serving layer turns the one-shot :func:`repro.core.slice_line` call
into a concurrent control plane that runs it many times on one dataset:

- :class:`JobSpec`/:class:`JobRecord` — declarative job description and
  its lifecycle record, identified by a deterministic fingerprint over
  the data and result-affecting config;
- :class:`JobQueue` — one service-wide backlog: admission control (typed
  reject/queue decisions), interactive jobs first, otherwise FIFO;
- :class:`ResultCache` — fingerprint-keyed cache (entry- and byte-bound
  LRU): exact hits skip enumeration entirely, same-data misses
  warm-start from the cached top-K (identical results, less work);
- :class:`Scheduler` — worker pool with checkpoint-backed preemption:
  interactive jobs can suspend a running batch job at a level boundary,
  which later resumes bitwise-identically;
- :class:`JobJournal`/:class:`DurableResultCache` — the ``repro.wal/v1``
  write-ahead job journal and the disk-backed cache behind
  ``SliceService(state_dir=...)``: a killed service recovers its job
  table, completed results, and in-flight progress on construction;
- :class:`ProcessWorkerSupervisor` — supervised spawned worker
  processes (``worker_mode="process"``): a SIGKILL'd worker costs one
  orphan-requeue, not the service;
- :class:`SliceService` — the submit/status/result/cancel façade, also
  behind ``python -m repro serve`` with skll-style declarative job files;
  a job enters through one admission path and ends through one terminal
  transition that journals before it wakes the caller.
"""

from repro.serve.cache import ResultCache, decode_result, encode_result
from repro.serve.declarative import (
    load_job_dir,
    load_job_document,
    load_job_file,
    spec_from_dict,
    spec_to_dict,
)
from repro.serve.durability import (
    WAL_RECORD_TYPES,
    WAL_SCHEMA,
    DurableResultCache,
    JobJournal,
    WalQuarantine,
    frame_record,
    scan_wal,
)
from repro.serve.queue import AdmissionDecision, JobQueue
from repro.serve.scheduler import Scheduler
from repro.serve.service import SERVE_SCHEMA, SliceService
from repro.serve.spec import JobRecord, JobSpec, JobState
from repro.serve.workers import ProcessWorkerSupervisor, WorkerCrash

__all__ = [
    "AdmissionDecision",
    "DurableResultCache",
    "JobJournal",
    "JobQueue",
    "JobRecord",
    "JobSpec",
    "JobState",
    "ProcessWorkerSupervisor",
    "ResultCache",
    "SERVE_SCHEMA",
    "Scheduler",
    "SliceService",
    "WAL_RECORD_TYPES",
    "WAL_SCHEMA",
    "WalQuarantine",
    "WorkerCrash",
    "decode_result",
    "encode_result",
    "frame_record",
    "load_job_dir",
    "load_job_document",
    "load_job_file",
    "scan_wal",
    "spec_from_dict",
    "spec_to_dict",
]
