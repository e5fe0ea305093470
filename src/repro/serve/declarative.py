"""Declarative job files: JSON/TOML documents describing job batches.

Modeled on skll-style experiment configs: one document declares shared
``defaults`` plus a ``jobs`` list, each entry overriding the defaults
field-by-field (nested ``config``/``pruning``/``budgets`` tables merge
key-wise rather than wholesale, so a job can override just ``k`` without
restating the whole config).  Example::

    {
      "defaults": {"tenant": "analytics", "dataset": "adult",
                   "config": {"k": 4, "max_level": 3}},
      "jobs": [
        {"name": "baseline"},
        {"name": "deep", "config": {"max_level": 5}},
        {"name": "ops-wide", "tenant": "ops", "config": {"k": 8}}
      ]
    }

TOML documents use the same shape (``[defaults]`` table, ``[[jobs]]``
array of tables).  TOML needs the stdlib ``tomllib`` (Python 3.11+); on
older interpreters a TOML file raises a clear
:class:`~repro.exceptions.ConfigError` telling the user to use JSON.
"""

from __future__ import annotations

import dataclasses
import json
import os

from repro.core.config import PruningConfig, SliceLineConfig
from repro.exceptions import ConfigError
from repro.resilience.budgets import BudgetConfig
from repro.serve.spec import JobSpec

#: Nested tables with their own key-wise merge.
_NESTED_KEYS = frozenset({"config", "budgets"})


def _field_names(cls) -> frozenset:
    return frozenset(field.name for field in dataclasses.fields(cls))


#: JobSpec fields a declarative entry may set directly (the arrays are
#: attached by the caller, never written in a table).
_SPEC_KEYS = _field_names(JobSpec) - _NESTED_KEYS - {"x0", "errors"}
_CONFIG_KEYS = _field_names(SliceLineConfig)
_PRUNING_KEYS = _field_names(PruningConfig)
_BUDGET_KEYS = _field_names(BudgetConfig)


def _check_keys(table: dict, allowed: frozenset, where: str) -> None:
    unknown = sorted(set(table) - allowed)
    if unknown:
        raise ConfigError(
            f"unknown key(s) {unknown} in {where}; allowed: "
            f"{sorted(allowed)}"
        )


def _merge_entry(defaults: dict, entry: dict) -> dict:
    """Entry over defaults; ``config``/``budgets`` tables merge key-wise."""
    merged = dict(defaults)
    for key, value in entry.items():
        if key in _NESTED_KEYS and isinstance(merged.get(key), dict):
            nested = dict(merged[key])
            if key == "config" and isinstance(value.get("pruning"), dict):
                pruning = dict(nested.get("pruning", {}))
                pruning.update(value["pruning"])
                nested.update(value)
                nested["pruning"] = pruning
            else:
                nested.update(value)
            merged[key] = nested
        else:
            merged[key] = value
    return merged


def spec_from_dict(
    entry: dict, where: str = "job", x0=None, errors=None
) -> JobSpec:
    """Build one :class:`JobSpec` from a (merged) declarative entry.

    *x0*/*errors* attach explicit data arrays to an entry with no
    ``dataset`` key — the journal-recovery path, which re-loads the arrays
    a durable service spilled at submit time.
    """
    if not isinstance(entry, dict):
        raise ConfigError(f"{where} must be a table/object, got {entry!r}")
    _check_keys(entry, _SPEC_KEYS | _NESTED_KEYS, where)
    kwargs = {key: entry[key] for key in _SPEC_KEYS if key in entry}
    if x0 is not None:
        kwargs["x0"] = x0
    if errors is not None:
        kwargs["errors"] = errors

    config_table = entry.get("config")
    if config_table is not None:
        if not isinstance(config_table, dict):
            raise ConfigError(f"{where}.config must be a table/object")
        _check_keys(config_table, _CONFIG_KEYS, f"{where}.config")
        config_kwargs = dict(config_table)
        pruning_table = config_kwargs.pop("pruning", None)
        if pruning_table is not None:
            if not isinstance(pruning_table, dict):
                raise ConfigError(f"{where}.config.pruning must be a table")
            _check_keys(
                pruning_table, _PRUNING_KEYS, f"{where}.config.pruning"
            )
            config_kwargs["pruning"] = PruningConfig(**pruning_table)
        kwargs["config"] = SliceLineConfig(**config_kwargs)

    budget_table = entry.get("budgets")
    if budget_table is not None:
        if not isinstance(budget_table, dict):
            raise ConfigError(f"{where}.budgets must be a table/object")
        _check_keys(budget_table, _BUDGET_KEYS, f"{where}.budgets")
        kwargs["budgets"] = BudgetConfig(**budget_table)

    return JobSpec(**kwargs)


def spec_to_dict(spec: JobSpec) -> dict:
    """The declarative table for *spec* (inverse of :func:`spec_from_dict`).

    Exhaustive over every result-affecting field, so
    ``spec_from_dict(spec_to_dict(s))`` rebuilds an equivalent spec with
    the same job fingerprint.  Explicit ``x0``/``errors`` arrays are *not*
    part of the table — the durable service spills them once per dataset
    (``inputs/<data_digest>.npz``) and re-attaches them on recovery.
    """
    entry: dict = {
        key: getattr(spec, key)
        for key in sorted(_SPEC_KEYS - {"dataset", "scale"})
    }
    entry["config"] = dataclasses.asdict(spec.config)
    if spec.dataset is not None:
        entry["dataset"] = spec.dataset
        if spec.scale is not None:
            entry["scale"] = spec.scale
    if spec.budgets is not None:
        entry["budgets"] = dataclasses.asdict(spec.budgets)
    return entry


def load_job_document(document: dict, where: str = "document") -> list[JobSpec]:
    """Specs from an already-parsed ``{defaults, jobs}`` document."""
    if not isinstance(document, dict):
        raise ConfigError(f"{where} must be a table/object at top level")
    _check_keys(document, frozenset({"defaults", "jobs"}), where)
    defaults = document.get("defaults", {})
    if not isinstance(defaults, dict):
        raise ConfigError(f"{where}.defaults must be a table/object")
    jobs = document.get("jobs")
    if not isinstance(jobs, list) or not jobs:
        raise ConfigError(f"{where}.jobs must be a non-empty array")
    return [
        spec_from_dict(_merge_entry(defaults, entry), f"{where}.jobs[{i}]")
        for i, entry in enumerate(jobs)
    ]


def load_job_file(path: str) -> list[JobSpec]:
    """Parse one JSON or TOML job file into :class:`JobSpec` objects."""
    if path.endswith(".toml"):
        try:
            import tomllib
        except ImportError as exc:  # Python < 3.11
            raise ConfigError(
                "TOML job files need the stdlib tomllib (Python 3.11+); "
                f"rewrite {path!r} as JSON on this interpreter"
            ) from exc
        try:
            with open(path, "rb") as handle:
                document = tomllib.load(handle)
        except (OSError, tomllib.TOMLDecodeError) as exc:
            raise ConfigError(f"cannot read job file {path!r}: {exc}") from exc
    else:
        try:
            with open(path) as handle:
                document = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read job file {path!r}: {exc}") from exc
    return load_job_document(document, where=os.path.basename(path))


def load_job_dir(path: str) -> list[JobSpec]:
    """All specs of every ``*.json``/``*.toml`` file in *path* (sorted)."""
    if not os.path.isdir(path):
        raise ConfigError(f"{path!r} is not a directory")
    names = sorted(
        name
        for name in os.listdir(path)
        if name.endswith((".json", ".toml"))
    )
    if not names:
        raise ConfigError(f"no .json/.toml job files in {path!r}")
    specs: list[JobSpec] = []
    for name in names:
        specs.extend(load_job_file(os.path.join(path, name)))
    return specs


__all__ = [
    "load_job_dir",
    "load_job_document",
    "load_job_file",
    "spec_from_dict",
    "spec_to_dict",
]
