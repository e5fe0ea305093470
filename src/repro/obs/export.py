"""Sinks for observability data: JSON documents and plain-text tables.

The JSON schema (``repro.obs/v1``) is documented in EXPERIMENTS.md; it is
what the ``--trace-json`` CLI flag writes per run and what the benchmark
suite aggregates into ``benchmarks/BENCH_obs.json`` as the perf baseline
compared PR-over-PR.
"""

from __future__ import annotations

import json
from typing import IO, Any

from repro.obs.counters import CounterRegistry
from repro.obs.trace import NullTracer, Span, Tracer

#: Version tag stamped on every exported observability document.
SCHEMA = "repro.obs/v1"

#: Per-level table columns (counter name -> short header).
_TABLE_COLUMNS = (
    ("level", "level"),
    ("input_slices", "parents"),
    ("pairs_generated", "pairs"),
    ("invalid_feature_pairs", "invalid"),
    ("dedup_removed", "dups"),
    ("pruned_by_size", "pr_size"),
    ("pruned_by_score", "pr_score"),
    ("pruned_by_parents", "pr_parents"),
    ("skipped_by_priority", "skipped"),
    ("evaluated", "evaluated"),
    ("valid", "valid"),
    ("indicator_nnz", "nnz"),
    ("elapsed_seconds", "seconds"),
)


def run_to_dict(result: Any) -> dict:
    """Serialize a :class:`~repro.core.types.SliceLineResult` to obs JSON.

    The document always carries run metadata and the per-level counters;
    the ``trace`` key is ``None`` when the run was executed untraced.
    """
    trace = getattr(result, "trace", None)
    counters = getattr(result, "counters", None)
    warm = getattr(result, "warm_start", None)
    trip = getattr(result, "budget_trip", None)
    return {
        "schema": SCHEMA,
        "run": {
            "num_rows": result.num_rows,
            "num_features": result.num_features,
            "num_onehot_columns": result.num_onehot_columns,
            "average_error": result.average_error,
            "total_seconds": result.total_seconds,
            "num_top_slices": len(result.top_slices),
            "top_scores": [s.score for s in result.top_slices],
            "completed": getattr(result, "completed", True),
            "budget_trip": trip.to_dict() if trip is not None else None,
            "suspended": getattr(result, "suspended", False),
        },
        "warm_start": (
            {
                "requested": warm.requested,
                "encoded": warm.encoded,
                "valid": warm.valid,
                "hits": warm.hits,
                "hit_rate": warm.hit_rate,
            }
            if warm is not None
            else None
        ),
        "counters": counters.to_dict() if counters is not None else None,
        "trace": trace.to_dict() if trace is not None else None,
    }


def write_json(result: Any, path_or_file: "str | IO[str]", indent: int = 2) -> dict:
    """Write the obs JSON document for *result*; returns the document."""
    doc = run_to_dict(result)
    if hasattr(path_or_file, "write"):
        json.dump(doc, path_or_file, indent=indent)
    else:
        with open(path_or_file, "w") as handle:
            json.dump(doc, handle, indent=indent)
    return doc


def counters_table(counters: CounterRegistry, title: str | None = None) -> str:
    """Render the per-level counters as an aligned monospace table."""
    records = []
    for record in counters.levels:
        as_dict = record.to_dict()
        records.append(
            {
                header: (
                    round(as_dict[name], 3)
                    if name == "elapsed_seconds"
                    else as_dict[name]
                )
                for name, header in _TABLE_COLUMNS
            }
        )
    if not records:
        return f"{title or 'trace'}: <no levels recorded>"
    # Local import: repro.experiments pulls in repro.core, which imports
    # repro.obs — importing it lazily keeps module loading acyclic.
    from repro.experiments.recorder import format_table

    return format_table(records, title=title)


def format_trace(
    tracer: "Tracer | NullTracer | Span", max_depth: int | None = None
) -> str:
    """Render a span tree as an indented text outline."""
    roots = [tracer] if isinstance(tracer, Span) else list(tracer.spans)
    lines: list[str] = []

    def walk(span: Span, depth: int) -> None:
        if max_depth is not None and depth > max_depth:
            return
        attrs = " ".join(f"{k}={v}" for k, v in span.attrs.items())
        mem = (
            f" mem_peak={span.mem_peak_bytes / 1e6:.1f}MB"
            if span.mem_peak_bytes is not None
            else ""
        )
        lines.append(
            f"{'  ' * depth}{span.name}: {span.elapsed_seconds * 1e3:.2f}ms"
            + (f" [{attrs}]" if attrs else "")
            + mem
        )
        for child in span.children:
            walk(child, depth + 1)

    for root in roots:
        walk(root, 0)
    return "\n".join(lines) if lines else "<no spans recorded>"
