"""Deterministic fault injection for testing the resilience layer.

Chaos testing is only useful when it is *reproducible*: a failure seen under
seed 7 must replay under seed 7.  Every injection decision here — is this
batch corrupt, and how? when is the worker killed? which byte flips? — is a
pure hash of ``(seed, decision kind, identity)`` via :func:`unit_hash`; no
global RNG state, no wall-clock, no ordering dependence between threads.

Two fault families, matching what the resilience layer must absorb:

* **corrupt batches** — :meth:`ChaosInjector.corrupt_batch`
  deterministically mangles a :class:`~repro.streaming.PredictionBatch`
  (NaN errors, negative errors, row misalignment, fractional codes,
  dropped feature), *bypassing* construction-time validation exactly like
  a buggy producer would, so the monitor's quarantine is what has to
  catch it;
* **process- and storage-level faults** for the crash-durability suite:
  :func:`kill_process` (the ``kill -9`` a worker or the whole service must
  survive), :func:`pick_kill_delay` (a deterministic hash-picked kill
  time, so "killed mid-level 2 under seed 7" replays),
  :func:`truncate_file` (torn-tail WAL sweeps at every byte boundary), and
  :func:`corrupt_file` (deterministic byte flips in cache spill files that
  recovery must quarantine, not trust).
"""

from __future__ import annotations

import hashlib
import os
import signal
import struct

import numpy as np

from repro.exceptions import ConfigError

#: Corruption kinds corrupt_batch cycles through (hash-picked per batch).
CORRUPTION_KINDS = (
    "nonfinite-errors",
    "negative-errors",
    "shape-mismatch",
    "encoding",
    "feature-mismatch",
)


def unit_hash(*key) -> float:
    """Deterministic hash of *key* into ``[0, 1)`` (no RNG state involved)."""
    digest = hashlib.sha256(repr(key).encode()).digest()
    (value,) = struct.unpack("<Q", digest[:8])
    return value / 2.0**64


class ChaosInjector:
    """Corrupts each batch id with probability *corrupt_rate*, by seed.

    ``corrupted_batches`` counts what was actually corrupted.
    """

    def __init__(self, seed: int = 0, corrupt_rate: float = 0.0) -> None:
        if not (0.0 <= corrupt_rate <= 1.0):
            raise ConfigError(
                f"corrupt_rate must be in [0, 1], got {corrupt_rate}"
            )
        self.seed = seed
        self.corrupt_rate = corrupt_rate
        self.corrupted_batches = 0

    def corrupt_batch(self, batch):
        """Deterministically corrupt *batch* (or pass it through unharmed).

        Returns the original batch or a mangled copy whose corruption kind
        is hash-picked from :data:`CORRUPTION_KINDS`.
        """
        batch_id = int(getattr(batch, "batch_id", 0))
        if unit_hash(self.seed, "corrupt", batch_id) >= self.corrupt_rate:
            return batch
        kind = CORRUPTION_KINDS[
            int(
                unit_hash(self.seed, "corrupt-kind", batch_id)
                * len(CORRUPTION_KINDS)
            )
        ]
        self.corrupted_batches += 1
        return make_corrupt_batch(batch, kind)


def make_corrupt_batch(batch, kind: str):
    """A copy of *batch* mangled per *kind*, bypassing validation.

    Construction-time checks are skipped on purpose (``object.__new__``):
    the corrupted object models data that went bad *after* the producer's
    own checks — exactly what the monitor-side quarantine exists to catch.
    """
    # Local import: chaos must stay importable without the streaming layer
    # (repro.streaming imports repro.core, whose driver imports resilience).
    from repro.streaming.batches import PredictionBatch

    x0 = np.array(batch.x0, copy=True)
    errors = np.array(batch.errors, dtype=np.float64, copy=True)
    if kind == "nonfinite-errors":
        errors[0] = np.nan
        if errors.shape[0] > 1:
            errors[-1] = np.inf
    elif kind == "negative-errors":
        errors[0] = -1.0
    elif kind == "shape-mismatch":
        errors = errors[:-1] if errors.shape[0] > 1 else np.zeros(0)
    elif kind == "encoding":
        x0 = x0.astype(np.float64)
        x0[0, 0] = 0.5
    elif kind == "feature-mismatch":
        x0 = x0[:, :-1] if x0.shape[1] > 1 else np.hstack([x0, x0])
    else:
        raise ConfigError(f"unknown corruption kind {kind!r}")
    corrupt = object.__new__(PredictionBatch)
    object.__setattr__(corrupt, "x0", x0)
    object.__setattr__(corrupt, "errors", errors)
    object.__setattr__(corrupt, "timestamp", getattr(batch, "timestamp", 0.0))
    object.__setattr__(corrupt, "batch_id", getattr(batch, "batch_id", 0))
    return corrupt


# -- process- and storage-level faults ---------------------------------------


def pick_kill_delay(
    seed: int, identity, min_s: float, max_s: float
) -> float:
    """A deterministic kill time in ``[min_s, max_s]`` for *identity*.

    Same hash discipline as every other injection decision: the delay is
    a pure function of ``(seed, identity)``, so a chaos run that killed a
    worker 0.37 s into job X replays exactly under the same seed.
    """
    if max_s < min_s:
        raise ConfigError(
            f"max_s must be >= min_s, got [{min_s}, {max_s}]"
        )
    return min_s + unit_hash(seed, "kill-delay", identity) * (max_s - min_s)


def kill_process(pid: int, sig: int = signal.SIGKILL) -> bool:
    """SIGKILL *pid*; True when the signal was delivered.

    A process that already exited (``ProcessLookupError``) returns False
    instead of raising — chaos races the victim by design.
    """
    try:
        os.kill(pid, sig)
    except (ProcessLookupError, PermissionError):
        return False
    return True


def truncate_file(path: str, length: int) -> int:
    """Truncate *path* to *length* bytes; returns the bytes removed.

    Models a crash mid-append: the WAL sweep truncates the journal at
    every byte boundary of its last record and asserts recovery treats
    each prefix as a torn tail, never as data.
    """
    if length < 0:
        raise ConfigError(f"length must be >= 0, got {length}")
    size = os.path.getsize(path)
    if length >= size:
        return 0
    with open(path, "r+b") as handle:
        handle.truncate(length)
    return size - length


def corrupt_file(path: str, seed: int = 0, nflips: int = 1) -> list[int]:
    """Deterministically flip *nflips* bytes of *path*; returns offsets.

    Offsets and XOR masks are hash-picked from ``(seed, flip index)``, so
    a corruption that slipped past recovery replays bit-for-bit.  Flips
    on an empty file are a no-op (nothing to corrupt).
    """
    if nflips < 1:
        raise ConfigError(f"nflips must be >= 1, got {nflips}")
    size = os.path.getsize(path)
    if size == 0:
        return []
    offsets: list[int] = []
    with open(path, "r+b") as handle:
        for index in range(nflips):
            offset = int(unit_hash(seed, "flip-at", path, index) * size)
            offset = min(offset, size - 1)
            mask = 1 + int(unit_hash(seed, "flip-mask", path, index) * 255)
            handle.seek(offset)
            byte = handle.read(1)
            handle.seek(offset)
            handle.write(bytes([byte[0] ^ mask]))
            offsets.append(offset)
    return offsets


__all__ = [
    "CORRUPTION_KINDS",
    "ChaosInjector",
    "corrupt_file",
    "kill_process",
    "make_corrupt_batch",
    "pick_kill_delay",
    "truncate_file",
    "unit_hash",
]
