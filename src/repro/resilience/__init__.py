"""Resilience layer: anytime budgets, checkpoint/resume, quarantine.

Production slice finding must degrade gracefully instead of dying: a
combinatorial level is stopped by a budget (best-so-far top-K with
``completed=False``), a killed run resumes bitwise-identically from a
``repro.ckpt/v1`` bundle, and a corrupt prediction-log batch is
quarantined with a structured reason while the monitor keeps ticking.
:mod:`repro.resilience.chaos` injects corrupt batches, process kills and
damaged files deterministically by seed so every guarantee is testable.

No module here imports :mod:`repro.core`, :mod:`repro.streaming`, or
:mod:`repro.distributed` at import time — the dependency points the other
way, which is what lets the core driver check budgets and write checkpoints
without an import cycle.
"""

from repro.resilience.atomic import (
    atomic_replace_dir,
    atomic_write_bytes,
    atomic_write_json,
    fsync_dir,
    fsync_file,
    remove_stale_tmp,
)
from repro.resilience.budgets import (
    BudgetConfig,
    BudgetTracker,
    BudgetTrip,
    SuspendHook,
    estimate_level_memory,
)
from repro.resilience.chaos import (
    ChaosInjector,
    corrupt_file,
    kill_process,
    make_corrupt_batch,
    pick_kill_delay,
    truncate_file,
    unit_hash,
)
from repro.resilience.checkpoint import (
    CKPT_SCHEMA,
    CheckpointState,
    fingerprint_config,
    fingerprint_digest,
    fingerprint_inputs,
    job_fingerprint,
    latest_checkpoint,
    load_checkpoint,
    save_checkpoint,
    verify_checkpoint,
)
from repro.resilience.quarantine import (
    BatchQuarantine,
    QuarantineRecord,
    validate_batch,
)

__all__ = [
    "atomic_replace_dir",
    "atomic_write_bytes",
    "atomic_write_json",
    "fsync_dir",
    "fsync_file",
    "remove_stale_tmp",
    "BudgetConfig",
    "BudgetTracker",
    "BudgetTrip",
    "SuspendHook",
    "estimate_level_memory",
    "ChaosInjector",
    "corrupt_file",
    "kill_process",
    "make_corrupt_batch",
    "pick_kill_delay",
    "truncate_file",
    "unit_hash",
    "CKPT_SCHEMA",
    "CheckpointState",
    "fingerprint_config",
    "fingerprint_digest",
    "fingerprint_inputs",
    "job_fingerprint",
    "latest_checkpoint",
    "load_checkpoint",
    "save_checkpoint",
    "verify_checkpoint",
    "BatchQuarantine",
    "QuarantineRecord",
    "validate_batch",
]
