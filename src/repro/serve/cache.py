"""Fingerprint-keyed result cache with same-data warm-start lookup.

An exact hit — same data fingerprint *and* same result-affecting config —
returns the cached :class:`~repro.core.types.SliceLineResult` outright:
the enumeration is deterministic, so re-running it could only reproduce
the same answer.  A miss whose *data* digest matches an earlier entry is
still worth something: the cached top-K becomes ``seed_slices`` for the
new run, which raises the score-pruning threshold early and (by the
exactness of Equation-3 pruning) returns the identical top-K with less
enumeration work.

Only completed, unsuspended results are cached; a partial (budget-tripped)
top-K is correct but not the full lattice's answer, so serving it for a
different submission would be wrong.

Eviction is *size-aware*: every entry is accounted at its serialized byte
size (the exact bytes :func:`encode_result` produces — also what the
durable subclass writes to disk), and ``max_bytes`` bounds the cache's
total footprint in addition to the ``capacity`` entry bound.  The byte
encoding (``repro.cache/v1``, an ``.npz`` with a JSON meta record and the
top-K arrays) round-trips the result's top-K bitwise:
``top_slices_encoded`` and ``top_stats`` are stored as raw arrays, and
per-slice floats survive JSON because Python serializes doubles at
shortest-round-trip precision.
"""

from __future__ import annotations

import dataclasses
import io
import json
import threading
import zipfile
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.core.types import Slice, SliceLineResult, WarmStartInfo
from repro.exceptions import ConfigError, ServeError
from repro.obs.counters import CounterRegistry

#: Version tag of the serialized cache-entry format.
CACHE_SCHEMA = "repro.cache/v1"


def encode_result(
    fingerprint: str, data_digest: str, result: SliceLineResult
) -> bytes:
    """Serialize one cache entry to its ``repro.cache/v1`` byte form.

    The same bytes serve two purposes: size accounting for eviction and
    the on-disk spill file of :class:`~repro.serve.durability.
    DurableResultCache`.  The tracer and the live counter registry are not
    persisted (a decoded result rebuilds its registry from the per-level
    records); everything bitwise-relevant — ``top_slices_encoded``,
    ``top_stats``, per-slice statistics — round-trips exactly.
    """
    meta = {
        "schema": CACHE_SCHEMA,
        "fingerprint": fingerprint,
        "data_digest": data_digest,
        "completed": bool(result.completed),
        "total_seconds": float(result.total_seconds),
        "num_rows": int(result.num_rows),
        "num_features": int(result.num_features),
        "num_onehot_columns": int(result.num_onehot_columns),
        "average_error": float(result.average_error),
        "slices": [
            {
                "predicates": {
                    str(f): int(v) for f, v in s.predicates.items()
                },
                "score": float(s.score),
                "error": float(s.error),
                "max_error": float(s.max_error),
                "size": int(s.size),
            }
            for s in result.top_slices
        ],
        "level_stats": [
            dataclasses.asdict(stats) for stats in result.level_stats
        ],
        "events": (
            dict(result.counters.events) if result.counters is not None else {}
        ),
        "warm_start": (
            dataclasses.asdict(result.warm_start)
            if result.warm_start is not None
            else None
        ),
    }
    buffer = io.BytesIO()
    np.savez(
        buffer,
        meta=np.frombuffer(
            json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8
        ),
        top_slices_encoded=np.asarray(
            result.top_slices_encoded, dtype=np.int64
        ),
        top_stats=np.asarray(result.top_stats, dtype=np.float64),
    )
    return buffer.getvalue()


def decode_result(data: bytes) -> tuple[str, str, SliceLineResult]:
    """Inverse of :func:`encode_result`.

    Returns ``(fingerprint, data_digest, result)``; raises
    :class:`~repro.exceptions.ServeError` on any malformed payload (bad
    zip, bad JSON, wrong schema, missing arrays) so callers can quarantine
    a corrupt spill file with a typed reason instead of crashing.
    """
    try:
        arrays = np.load(io.BytesIO(data), allow_pickle=False)
        meta = json.loads(bytes(arrays["meta"]).decode())
        encoded = np.asarray(arrays["top_slices_encoded"], dtype=np.int64)
        top_stats = np.asarray(arrays["top_stats"], dtype=np.float64)
    except (
        OSError,
        ValueError,
        KeyError,
        UnicodeDecodeError,
        json.JSONDecodeError,
        zipfile.BadZipFile,
    ) as exc:
        raise ServeError(f"undecodable cache entry: {exc}") from exc
    if not isinstance(meta, dict) or meta.get("schema") != CACHE_SCHEMA:
        raise ServeError(
            f"cache entry has schema {meta.get('schema')!r} "
            f"(expected {CACHE_SCHEMA!r})"
        )
    try:
        slices = [
            Slice(
                predicates={
                    int(f): int(v) for f, v in entry["predicates"].items()
                },
                score=float(entry["score"]),
                error=float(entry["error"]),
                max_error=float(entry["max_error"]),
                size=int(entry["size"]),
            )
            for entry in meta["slices"]
        ]
        registry = CounterRegistry.from_records(
            meta["level_stats"], meta.get("events")
        )
        warm = meta.get("warm_start")
        result = SliceLineResult(
            top_slices=slices,
            top_slices_encoded=encoded,
            top_stats=top_stats,
            level_stats=registry.levels,
            total_seconds=float(meta["total_seconds"]),
            num_rows=int(meta["num_rows"]),
            num_features=int(meta["num_features"]),
            num_onehot_columns=int(meta["num_onehot_columns"]),
            average_error=float(meta["average_error"]),
            counters=registry,
            warm_start=WarmStartInfo(**warm) if warm is not None else None,
            completed=bool(meta["completed"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ServeError(f"malformed cache entry: {exc}") from exc
    return str(meta["fingerprint"]), str(meta["data_digest"]), result


@dataclass
class CacheEntry:
    fingerprint: str
    data_digest: str
    result: SliceLineResult
    #: serialized size of the entry (what eviction accounts)
    nbytes: int = 0


class ResultCache:
    """Bounded LRU cache of completed runs, keyed by job fingerprint.

    Two bounds compose: ``capacity`` caps the entry count and
    ``max_bytes`` (``None`` = unbounded) caps the summed serialized size.
    Least-recently-used entries are evicted until both hold; the current
    footprint is exposed as ``stats()["bytes"]`` and surfaced by the
    service as the ``serve.cache_bytes`` gauge.
    """

    def __init__(
        self, capacity: int = 64, max_bytes: int | None = None
    ) -> None:
        if capacity < 1:
            raise ConfigError(f"cache capacity must be >= 1, got {capacity}")
        if max_bytes is not None and max_bytes < 1:
            raise ConfigError(f"max_bytes must be >= 1, got {max_bytes}")
        self.capacity = capacity
        self.max_bytes = max_bytes
        self._lock = threading.RLock()
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()
        self._total_bytes = 0
        self.hits = 0
        self.misses = 0

    def get(self, fingerprint: str) -> SliceLineResult | None:
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(fingerprint)
            self.hits += 1
            return entry.result

    def peek(self, fingerprint: str) -> SliceLineResult | None:
        """Like :meth:`get` but counts neither a hit nor a miss.

        Recovery uses this to re-attach completed jobs to their cached
        results without skewing the hit-rate statistics.
        """
        with self._lock:
            entry = self._entries.get(fingerprint)
            return entry.result if entry is not None else None

    def put(
        self, fingerprint: str, data_digest: str, result: SliceLineResult
    ) -> bool:
        """Cache *result*; refuses partial (incomplete/suspended) runs."""
        if not result.completed or result.suspended:
            return False
        payload = encode_result(fingerprint, data_digest, result)
        with self._lock:
            self._insert_locked(
                CacheEntry(
                    fingerprint=fingerprint,
                    data_digest=data_digest,
                    result=result,
                    nbytes=len(payload),
                ),
                payload,
            )
            return True

    def _insert_locked(self, entry: CacheEntry, payload: bytes) -> None:
        previous = self._entries.pop(entry.fingerprint, None)
        if previous is not None:
            self._total_bytes -= previous.nbytes
        self._entries[entry.fingerprint] = entry
        self._total_bytes += entry.nbytes
        self._spill_locked(entry, payload)
        while len(self._entries) > self.capacity or (
            self.max_bytes is not None
            and self._total_bytes > self.max_bytes
            and len(self._entries) > 1
        ):
            victim_key, victim = self._entries.popitem(last=False)
            self._total_bytes -= victim.nbytes
            self._evict_locked(victim_key, victim)

    # -- durability hooks (no-ops for the in-memory cache) -------------------

    def _spill_locked(self, entry: CacheEntry, payload: bytes) -> None:
        """Persist *entry* (payload = its encoded bytes)."""

    def _evict_locked(self, fingerprint: str, entry: CacheEntry) -> None:
        """Forget any persistent copy of an evicted entry."""

    def warm_seeds(self, data_digest: str) -> list[Slice]:
        """Top-K of the most recently used entry over the same data.

        Empty when no same-data entry exists.  Does not count as a hit or
        miss — the caller is about to run the enumeration either way.
        """
        with self._lock:
            for entry in reversed(self._entries.values()):
                if entry.data_digest == data_digest:
                    return list(entry.result.top_slices)
            return []

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def total_bytes(self) -> int:
        with self._lock:
            return self._total_bytes

    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "capacity": self.capacity,
                "bytes": self._total_bytes,
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
            }


__all__ = [
    "CACHE_SCHEMA",
    "CacheEntry",
    "ResultCache",
    "decode_result",
    "encode_result",
]
