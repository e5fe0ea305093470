"""Versioned checkpoint/resume bundles for the enumeration (``repro.ckpt/v1``).

A checkpoint captures the *level boundary* state of Algorithm 1 — exactly
the loop variables carried from one lattice level to the next — so a run
killed between levels can be resumed with::

    result = slice_line(x0, errors, cfg, resume_from=path)

and produce **bitwise-identical** top-K slices, scores, and pruning counters
to the uninterrupted run.  That guarantee holds because the enumeration is
deterministic and RNG-free by construction: given the same ``(x0, errors,
config)`` and the same level-boundary frontier, every later pair join,
kernel call, and top-K merge replays identically.  The bundle therefore only
needs the frontier (the level's evaluated slices and their statistics), the
running top-K, the per-level counters, and the compaction row/column maps —
the data matrix itself is re-derived from the caller's ``x0`` (whose
identity is enforced by content fingerprints).

Bundle layout (one directory per level)::

    <checkpoint_dir>/level-0002/
        meta.json     # version, level, fingerprints, counters, warm state
        arrays.npz    # CSR components + statistic matrices + index maps

In memory the frontier is the level's key array (``num_slices x level``
sorted projected column ids, see :mod:`repro.core.pairs`); on disk it is
stored as the CSR components of its 0/1 slice matrix, so the format is the
same whether the bundle was written from keys or from a CSR frontier.

This module imports nothing from :mod:`repro.core` at module scope so the
core can import it without cycles.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.exceptions import CheckpointError
from repro.linalg.sparse import keys_to_csr
from repro.resilience.atomic import atomic_replace_dir, remove_stale_tmp
from repro.obs.counters import CounterRegistry, LevelCounters

#: Version tag stamped on (and required of) every checkpoint bundle.
CKPT_SCHEMA = "repro.ckpt/v1"

#: LevelCounters keys that are derived properties, not fields.
_DERIVED_COUNTER_KEYS = ("dedup_removed", "pruned_total")


def _sha256(array: np.ndarray) -> str:
    """Content hash of an array (C-order bytes, dtype-tagged)."""
    arr = np.ascontiguousarray(array)
    digest = hashlib.sha256()
    digest.update(str(arr.dtype).encode())
    digest.update(str(arr.shape).encode())
    digest.update(arr.tobytes())
    return digest.hexdigest()


def fingerprint_inputs(x0: np.ndarray, errors: np.ndarray) -> dict:
    """Content fingerprint of the ``(x0, errors)`` pair a run enumerates."""
    return {
        "num_rows": int(x0.shape[0]),
        "num_features": int(x0.shape[1]),
        "x0_sha256": _sha256(np.asarray(x0)),
        "errors_sha256": _sha256(np.asarray(errors, dtype=np.float64)),
    }


def fingerprint_digest(*fingerprints: dict) -> str:
    """Stable hex digest of one or more fingerprint dicts.

    The digest is computed over the canonical (sorted-key, separator-free)
    JSON of each dict in order, so it is reproducible across processes and
    platforms.  ``fingerprint_digest(data_fp)`` identifies a dataset;
    ``fingerprint_digest(data_fp, config_fp)`` identifies a job.
    """
    digest = hashlib.sha256()
    for fingerprint in fingerprints:
        digest.update(
            json.dumps(
                fingerprint, sort_keys=True, separators=(",", ":")
            ).encode()
        )
    return digest.hexdigest()


def job_fingerprint(x0: np.ndarray, errors: np.ndarray, config) -> str:
    """Deterministic identity of one slice-finding job (stable hex digest).

    Two calls with bitwise-equal ``(x0, errors)`` and an equal
    result-affecting configuration produce the same digest — the property
    the serving layer's result cache and job ids rely on, and exactly the
    equality :func:`verify_checkpoint` enforces for resume.
    """
    return fingerprint_digest(
        fingerprint_inputs(x0, errors), fingerprint_config(config)
    )


def fingerprint_mismatch(kind: str, expected: dict, got: dict) -> str:
    """The single fingerprint-mismatch error text.

    *kind* names what disagreed (``"input data"`` or ``"configuration"``);
    the stored
    state (checkpoint bundle, cached result) is only valid for the exact
    identity it was produced from, so mismatches must fail loudly instead
    of producing silently wrong slices.
    """
    return (
        f"{kind} fingerprint mismatch: the stored state is only valid for "
        f"the exact {kind} it was produced from; expected {expected}, "
        f"got {got}"
    )


def fingerprint_config(config) -> dict:
    """JSON fingerprint of every result-affecting config field."""
    pruning = config.pruning
    return {
        "k": config.k,
        "sigma": config.sigma,
        "alpha": config.alpha,
        "max_level": config.max_level,
        "block_size": config.block_size,
        "compaction": config.compaction,
        "priority_evaluation": config.priority_evaluation,
        "priority_chunk": config.priority_chunk,
        "pruning": {
            "by_size": pruning.by_size,
            "by_score": pruning.by_score,
            "handle_missing_parents": pruning.handle_missing_parents,
            "deduplicate": pruning.deduplicate,
            "filter_input_slices": pruning.filter_input_slices,
        },
    }


@dataclass
class CheckpointState:
    """Everything ``repro.ckpt/v1`` persists at one level boundary."""

    level: int
    #: the level's evaluated slice frontier as a key array (``n x level``,
    #: projected column space) + stats
    slices: np.ndarray
    stats: np.ndarray
    #: running top-K
    top_slices: sp.csr_matrix
    top_stats: np.ndarray
    #: per-level counter records (list of plain dicts)
    counters: list[dict]
    #: projected one-hot columns (verifies the re-derived basic pass)
    selected_columns: np.ndarray
    data_fingerprint: dict
    config_fingerprint: dict
    #: compaction maps (``None`` when the run had compaction disabled)
    row_indices: np.ndarray | None = None
    col_map: np.ndarray | None = None
    row_coverage: np.ndarray | None = None
    #: warm-start carry-over (counts + projected-column seed keys)
    warm_info: dict | None = None
    seed_keys: list[list[int]] = field(default_factory=list)
    #: event counters accumulated so far (checkpoint.write etc.)
    events: dict = field(default_factory=dict)

    def restore_counters(self) -> CounterRegistry:
        """Rebuild a :class:`CounterRegistry` from the persisted records."""
        registry = CounterRegistry()
        valid = {f.name for f in dataclasses.fields(LevelCounters)}
        for record in self.counters:
            target = registry.level(int(record["level"]))
            for key, value in record.items():
                if key in valid and key != "level":
                    setattr(target, key, value)
        for name, count in self.events.items():
            registry.event(name, int(count))
        return registry


def _csr_parts(prefix: str, matrix: sp.csr_matrix) -> dict:
    matrix = matrix.tocsr()
    return {
        f"{prefix}_data": matrix.data,
        f"{prefix}_indices": matrix.indices,
        f"{prefix}_indptr": matrix.indptr,
        f"{prefix}_shape": np.asarray(matrix.shape, dtype=np.int64),
    }


def _csr_load(prefix: str, arrays) -> sp.csr_matrix:
    shape = tuple(int(v) for v in arrays[f"{prefix}_shape"])
    return sp.csr_matrix(
        (
            np.asarray(arrays[f"{prefix}_data"], dtype=np.float64),
            np.asarray(arrays[f"{prefix}_indices"]),
            np.asarray(arrays[f"{prefix}_indptr"]),
        ),
        shape=shape,
    )


def save_checkpoint(directory: str, state: CheckpointState) -> str:
    """Write one ``repro.ckpt/v1`` bundle; returns the bundle path.

    The bundle is written to a temporary directory first and renamed into
    place so a crash mid-write never leaves a half-bundle behind that
    :func:`latest_checkpoint` could pick up.
    """
    bundle = os.path.join(directory, f"level-{state.level:04d}")
    staging = bundle + ".tmp"
    remove_stale_tmp(directory)
    os.makedirs(staging, exist_ok=True)
    meta = {
        "schema": CKPT_SCHEMA,
        "level": int(state.level),
        "data": state.data_fingerprint,
        "config": state.config_fingerprint,
        "warm_info": state.warm_info,
        "seed_keys": [list(map(int, key)) for key in state.seed_keys],
        "counters": state.counters,
        "events": dict(state.events),
        "compaction": state.row_indices is not None,
        "has_row_coverage": state.row_coverage is not None,
    }
    arrays = {
        "stats": state.stats,
        "top_stats": state.top_stats,
        "selected_columns": state.selected_columns,
        **_csr_parts(
            "slices",
            keys_to_csr(state.slices, int(state.selected_columns.size)),
        ),
        **_csr_parts("top_slices", state.top_slices),
    }
    if state.row_indices is not None:
        arrays["row_indices"] = state.row_indices
        arrays["col_map"] = state.col_map
    if state.row_coverage is not None:
        arrays["row_coverage"] = state.row_coverage
    try:
        with open(os.path.join(staging, "meta.json"), "w") as handle:
            json.dump(meta, handle, indent=2, sort_keys=True)
        np.savez(os.path.join(staging, "arrays.npz"), **arrays)
        # The staging copy is complete; committing it (fsync files, swap
        # in over any previous bundle for this level, fsync the parent
        # entry) is the shared atomic-directory-replace dance.
        atomic_replace_dir(staging, bundle)
    except OSError as exc:
        raise CheckpointError(f"cannot write checkpoint bundle: {exc}") from exc
    return bundle


def load_checkpoint(path: str) -> CheckpointState:
    """Load one bundle (or the latest bundle of a checkpoint directory)."""
    bundle = path
    meta_path = os.path.join(bundle, "meta.json")
    if not os.path.exists(meta_path):
        latest = latest_checkpoint(path)
        if latest is None:
            raise CheckpointError(
                f"{path!r} is neither a checkpoint bundle nor a directory "
                "containing one"
            )
        bundle = latest
        meta_path = os.path.join(bundle, "meta.json")
    try:
        with open(meta_path) as handle:
            meta = json.load(handle)
        arrays = np.load(os.path.join(bundle, "arrays.npz"))
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"cannot read checkpoint {bundle!r}: {exc}") from exc
    if meta.get("schema") != CKPT_SCHEMA:
        raise CheckpointError(
            f"checkpoint {bundle!r} has schema {meta.get('schema')!r}, "
            f"expected {CKPT_SCHEMA!r}"
        )
    try:
        level = int(meta["level"])
        state = CheckpointState(
            level=level,
            # Every frontier row holds exactly `level` sorted column ids.
            slices=np.asarray(
                arrays["slices_indices"], dtype=np.int64
            ).reshape(-1, level),
            stats=np.asarray(arrays["stats"], dtype=np.float64),
            top_slices=_csr_load("top_slices", arrays),
            top_stats=np.asarray(arrays["top_stats"], dtype=np.float64),
            counters=meta["counters"],
            selected_columns=np.asarray(
                arrays["selected_columns"], dtype=np.int64
            ),
            data_fingerprint=meta["data"],
            config_fingerprint=meta["config"],
            row_indices=(
                np.asarray(arrays["row_indices"], dtype=np.int64)
                if meta.get("compaction")
                else None
            ),
            col_map=(
                np.asarray(arrays["col_map"], dtype=np.int64)
                if meta.get("compaction")
                else None
            ),
            row_coverage=(
                np.asarray(arrays["row_coverage"], dtype=bool)
                if meta.get("has_row_coverage")
                else None
            ),
            warm_info=meta.get("warm_info"),
            seed_keys=[
                [int(v) for v in key] for key in meta.get("seed_keys", [])
            ],
            events={
                str(k): int(v) for k, v in (meta.get("events") or {}).items()
            },
        )
    except KeyError as exc:
        raise CheckpointError(
            f"checkpoint {bundle!r} is missing field {exc}"
        ) from exc
    except ValueError as exc:  # a frontier that is not `level` ids per row
        raise CheckpointError(
            f"checkpoint {bundle!r} is malformed: {exc}"
        ) from exc
    return state


def latest_checkpoint(directory: str) -> str | None:
    """Deepest-level bundle inside *directory* (``None`` when empty)."""
    if not os.path.isdir(directory):
        return None
    bundles = sorted(
        name
        for name in os.listdir(directory)
        if name.startswith("level-")
        and not name.endswith(".tmp")
        and os.path.exists(os.path.join(directory, name, "meta.json"))
    )
    if not bundles:
        return None
    return os.path.join(directory, bundles[-1])


def verify_checkpoint(
    state: CheckpointState, x0: np.ndarray, errors: np.ndarray, config
) -> None:
    """Raise :class:`CheckpointError` unless the bundle matches this run.

    Resume equivalence is only defined against the *same* data and the same
    result-affecting configuration; both are enforced by content hash so a
    stale or foreign bundle fails loudly instead of producing silently
    wrong slices.
    """
    data = fingerprint_inputs(x0, errors)
    if data != state.data_fingerprint:
        raise CheckpointError(
            fingerprint_mismatch("input data", state.data_fingerprint, data)
        )
    cfg = fingerprint_config(config)
    if cfg != state.config_fingerprint:
        raise CheckpointError(
            fingerprint_mismatch(
                "configuration", state.config_fingerprint, cfg
            )
        )


__all__ = [
    "CKPT_SCHEMA",
    "CheckpointState",
    "fingerprint_config",
    "fingerprint_digest",
    "fingerprint_inputs",
    "fingerprint_mismatch",
    "job_fingerprint",
    "latest_checkpoint",
    "load_checkpoint",
    "save_checkpoint",
    "verify_checkpoint",
]
