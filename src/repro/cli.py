"""Command-line interface: slice finding over a CSV file.

Usage::

    python -m repro data.csv --error-column err --k 5 --alpha 0.95
    python -m repro data.csv --error-column err --drop id --numeric age,hours
    python -m repro monitor data.csv --error-column err --batch-size 256
    python -m repro serve jobs.json --workers 4 --status-json status.json

Reads a headered CSV (no pandas required), applies the paper's
preprocessing (categorical recoding, 10-bin equi-width binning of numeric
columns), runs SliceLine, and prints the decoded top-K slices.  Columns are
treated as numeric when every *non-empty* cell parses as a float unless
overridden; empty cells in numeric columns become the missing code ``0``.

``--trace`` additionally prints the per-level enumeration counters and the
span tree of the run; ``--trace-json PATH`` writes the full observability
document (``repro.obs/v1``, see EXPERIMENTS.md) for machine consumption.

The ``monitor`` subcommand replays the CSV's rows as a stream of
mini-batches through :class:`repro.streaming.SliceMonitor`, printing the
top-K slices and drift signals after every tick.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from repro.core import SliceLine, SliceLineConfig
from repro.datasets import replay_batches
from repro.exceptions import ReproError, ValidationError
from repro.obs import counters_table, format_trace, write_json
from repro.preprocessing import ColumnSpec, Preprocessor
from repro.resilience import BudgetConfig
from repro.streaming import SliceMonitor


def read_csv_table(path: str) -> dict[str, np.ndarray]:
    """Load a headered CSV into a column table of numpy arrays."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"{path} is empty") from None
        columns: list[list[str]] = [[] for _ in header]
        for row in reader:
            if len(row) != len(header):
                raise ValidationError(
                    f"{path}: row with {len(row)} cells, header has {len(header)}"
                )
            for cell, column in zip(row, columns):
                column.append(cell)
    if not columns[0]:
        raise ValidationError(f"{path} has a header but no data rows")
    return {name: np.asarray(col) for name, col in zip(header, columns)}


def is_numeric_column(values: np.ndarray) -> bool:
    """True when every *non-empty* cell parses as a float.

    Empty cells are the CSV's missing-value representation — they map to
    the encoding's missing code ``0`` downstream and must not flip an
    otherwise numeric column to categorical.  A column of only empty cells
    carries no numeric evidence and stays categorical.
    """
    present = [cell for cell in values.tolist() if str(cell).strip()]
    if not present:
        return False
    try:
        np.asarray(present, dtype=np.float64)
    except ValueError:
        return False
    return True


def build_specs(
    table: dict[str, np.ndarray],
    error_column: str,
    drop: list[str],
    numeric: list[str],
    categorical: list[str],
    num_bins: int,
) -> list[ColumnSpec]:
    """Column specs for every non-error column, inferring kinds as needed."""
    for name in [error_column, *drop, *numeric, *categorical]:
        if name and name not in table:
            raise ValidationError(f"column {name!r} not found in the CSV")
    specs = []
    for name, values in table.items():
        if name == error_column:
            continue
        if name in drop:
            specs.append(ColumnSpec(name, "drop"))
        elif name in categorical:
            specs.append(ColumnSpec(name, "categorical"))
        elif name in numeric or is_numeric_column(values):
            specs.append(ColumnSpec(name, "numeric", num_bins=num_bins))
        else:
            specs.append(ColumnSpec(name, "categorical"))
    return specs


def _add_budget_arguments(parser: argparse.ArgumentParser) -> None:
    """Anytime-budget flags shared by the batch and monitor commands."""
    parser.add_argument(
        "--deadline-s", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget; a tripped run prints the best-so-far "
        "top-K as a partial result instead of failing",
    )
    parser.add_argument(
        "--max-candidates-per-level", type=int, default=None, metavar="N",
        help="stop (with a partial result) before evaluating a level that "
        "emitted more than N candidate slices",
    )
    parser.add_argument(
        "--max-memory-mb", type=float, default=None, metavar="MB",
        help="stop (with a partial result) before an evaluation whose "
        "estimated transient memory exceeds MB megabytes",
    )


def _add_search_arguments(
    parser: argparse.ArgumentParser, sigma_help: str
) -> None:
    """Input and search flags shared by the batch and monitor commands."""
    parser.add_argument("csv", help="headered CSV file with features + errors")
    parser.add_argument(
        "--error-column", required=True,
        help="name of the non-negative per-row error column",
    )
    parser.add_argument("--k", type=int, default=4, help="top-K (default 4)")
    parser.add_argument(
        "--alpha", type=float, default=0.95,
        help="error/size weight in (0,1] (default 0.95)",
    )
    parser.add_argument("--sigma", type=int, default=None, help=sigma_help)
    parser.add_argument(
        "--max-level", type=int, default=None,
        help="lattice depth cap (default: number of features)",
    )
    parser.add_argument(
        "--drop", default="", help="comma-separated columns to ignore (IDs)"
    )
    parser.add_argument(
        "--numeric", default="",
        help="comma-separated columns to force equi-width binning on",
    )
    parser.add_argument(
        "--categorical", default="",
        help="comma-separated columns to force recoding on",
    )
    parser.add_argument(
        "--bins", type=int, default=10,
        help="bins per numeric column (default 10, as in the paper)",
    )
    parser.add_argument(
        "--no-compaction", action="store_true",
        help="disable per-level compaction of the evaluation matrix "
        "(results are identical; this only changes kernel speed)",
    )
    parser.add_argument(
        "--kernel-backend",
        choices=("auto", "sparse", "bitset", "incremental"),
        default="auto",
        help="evaluation-kernel backend; 'auto' picks per level via a cost "
        "model (results are identical; this only changes kernel speed)",
    )
    parser.add_argument(
        "--pair-parallelism", type=int, default=0,
        help="worker width of the pair-candidate pipeline; 0 follows the "
        "thread count, 1 forces serial (results are identical; this only "
        "changes enumeration speed)",
    )


def _search_options(args) -> dict:
    """``SliceLine``/``SliceLineConfig`` keywords from the shared flags."""
    return {
        "k": args.k,
        "sigma": args.sigma,
        "alpha": args.alpha,
        "max_level": args.max_level,
        "compaction": not args.no_compaction,
        "kernel_backend": args.kernel_backend,
        "pair_parallelism": args.pair_parallelism,
    }


def _budgets_from_args(args) -> BudgetConfig | None:
    if (
        args.deadline_s is None
        and args.max_candidates_per_level is None
        and args.max_memory_mb is None
    ):
        return None
    return BudgetConfig(
        deadline_s=args.deadline_s,
        max_candidates_per_level=args.max_candidates_per_level,
        max_memory_bytes=(
            int(args.max_memory_mb * 1e6)
            if args.max_memory_mb is not None
            else None
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SliceLine: find the top-K data slices where a model "
        "performs worse than overall.",
    )
    _add_search_arguments(
        parser, sigma_help="minimum slice size (default max(32, n/100))"
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="print per-level pruning counters and the timed span tree",
    )
    parser.add_argument(
        "--trace-json", metavar="PATH", default=None,
        help="write the run's observability JSON (repro.obs/v1) to PATH",
    )
    parser.add_argument(
        "--trace-memory", action="store_true",
        help="with --trace/--trace-json: also record tracemalloc "
        "allocation high-water marks per span",
    )
    _add_budget_arguments(parser)
    parser.add_argument(
        "--checkpoint-dir", metavar="DIR", default=None,
        help="write a repro.ckpt/v1 bundle after every completed level so "
        "an interrupted run can be resumed with --resume-from",
    )
    parser.add_argument(
        "--resume-from", metavar="PATH", default=None,
        help="resume from a checkpoint bundle (or the latest bundle in a "
        "checkpoint directory); requires the same CSV and parameters",
    )
    return parser


def build_monitor_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro monitor",
        description="Replay a CSV as a stream of mini-batches and monitor "
        "the top-K problematic slices tick by tick.",
    )
    _add_search_arguments(
        parser,
        sigma_help="minimum slice size (default max(32, n/100) per window)",
    )
    parser.add_argument(
        "--batch-size", type=int, default=256,
        help="rows per replayed mini-batch (default 256)",
    )
    parser.add_argument(
        "--window", type=int, default=4,
        help="batches per sliding window (default 4; ignored for tumbling)",
    )
    parser.add_argument(
        "--policy", choices=("sliding", "tumbling"), default="sliding",
        help="window policy (default sliding)",
    )
    parser.add_argument(
        "--tick-every", type=int, default=1,
        help="run a tick after every N ingested batches (default 1)",
    )
    parser.add_argument(
        "--cold", action="store_true",
        help="disable warm-started re-enumeration (results are identical; "
        "this only changes the amount of work per tick)",
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="print each tick's span tree (monitor.tick and nested runs)",
    )
    parser.add_argument(
        "--ticks-json", metavar="PATH", default=None,
        help="write every tick's repro.obs/v1 document (JSON list) to PATH",
    )
    _add_budget_arguments(parser)
    parser.add_argument(
        "--quarantine-dir", metavar="DIR", default=None,
        help="persist batches that fail validation (NaN/inf errors, shape "
        "or encoding mismatches) to DIR as .npz + .json pairs",
    )
    return parser


def monitor_main(argv: list[str]) -> int:
    args = build_monitor_parser().parse_args(argv)
    try:
        if args.batch_size < 1:
            raise ValidationError("--batch-size must be >= 1")
        if args.tick_every < 1:
            raise ValidationError("--tick-every must be >= 1")
        table = read_csv_table(args.csv)
        if args.error_column not in table:
            raise ValidationError(
                f"error column {args.error_column!r} not in the CSV"
            )
        errors = table[args.error_column].astype(np.float64)
        specs = build_specs(
            table, args.error_column, _split(args.drop),
            _split(args.numeric), _split(args.categorical), args.bins,
        )
        encoded = Preprocessor(specs).fit_transform(table)
        config = SliceLineConfig(**_search_options(args))
        monitor = SliceMonitor(
            config=config,
            window_size=args.window if args.policy == "sliding" else None,
            policy=args.policy,
            warm_start=not args.cold,
            trace=True if args.trace else None,
            quarantine_dir=args.quarantine_dir,
            budgets=_budgets_from_args(args),
        )
        pending = 0
        for batch in replay_batches(encoded.x0, errors, args.batch_size):
            record = monitor.ingest(batch)
            if record is not None:
                print(
                    f"quarantined batch {record.batch_id}: "
                    f"{record.reason} ({record.detail})"
                )
                continue
            pending += 1
            if pending % args.tick_every == 0:
                _print_tick(monitor.tick(), encoded)
                pending = 0
        if pending and len(monitor.window):
            _print_tick(monitor.tick(), encoded)
        if not monitor.ticks:
            raise ValidationError("the CSV produced no batches to monitor")
        if len(monitor.quarantine):
            print(
                f"{len(monitor.quarantine)} batch(es) quarantined: "
                + ", ".join(
                    f"{reason} x{count}"
                    for reason, count in sorted(
                        monitor.quarantine.reasons().items()
                    )
                )
            )
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        print("trace:")
        print(format_trace(monitor.tracer))
    if args.ticks_json is not None:
        try:
            with open(args.ticks_json, "w") as handle:
                json.dump(
                    [tick.to_obs_dict() for tick in monitor.ticks],
                    handle, indent=2, sort_keys=True,
                )
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"tick JSON written to {args.ticks_json}")
    return 0


def _print_tick(tick, encoded) -> None:
    warm = tick.warm_start
    warm_note = (
        f" warm={warm.hits}/{warm.requested} seed hits" if warm is not None else ""
    )
    print(
        f"tick {tick.index}: {tick.num_rows} rows in {tick.num_batches} "
        f"batch(es), {tick.seconds:.3f}s{warm_note}"
    )
    if not tick.top_slices:
        print("  no slice scores above 0 in this window")
    for rank, sl in enumerate(tick.top_slices, start=1):
        desc = sl.describe(encoded.feature_names, encoded.value_labels)
        print(
            f"  #{rank} score={sl.score:+.4f} size={sl.size} "
            f"avg_err={sl.average_error:.4f} :: {desc}"
        )
    for signal in tick.degraded_slices():
        desc = signal.slice.describe(encoded.feature_names, encoded.value_labels)
        print(
            f"  drift: {desc} mean error "
            f"{signal.baseline_mean_error:.4f} -> {signal.current_mean_error:.4f} "
            f"(p={signal.p_value:.4f})"
        )


def _split(arg: str) -> list[str]:
    return [part for part in arg.split(",") if part]


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Run declarative slice-finding job files (JSON/TOML, "
        "skll-style defaults + jobs) through the multi-tenant job service: "
        "admission control, fingerprint-keyed result caching, and "
        "suspend/resume scheduling.",
    )
    parser.add_argument(
        "jobs", nargs="+", metavar="PATH",
        help="job file(s) (.json/.toml) and/or directories of job files",
    )
    parser.add_argument(
        "--workers", type=int, default=2,
        help="worker-thread pool width (default 2)",
    )
    parser.add_argument(
        "--cache-entries", type=int, default=64,
        help="result-cache capacity in entries (default 64)",
    )
    parser.add_argument(
        "--cache-bytes", type=int, default=None, metavar="BYTES",
        help="byte bound on the result cache (size-aware eviction of the "
        "serialized entries; default: unbounded)",
    )
    parser.add_argument(
        "--workdir", metavar="DIR", default=None,
        help="directory for per-job checkpoint trees (default: a fresh "
        "temporary directory)",
    )
    parser.add_argument(
        "--state-dir", metavar="DIR", default=None,
        help="durable state root (repro.wal/v1 job journal + disk-backed "
        "result cache); restarting over the same directory recovers "
        "completed results and resumes in-flight jobs",
    )
    parser.add_argument(
        "--process-workers", action="store_true",
        help="run find jobs in supervised spawned worker processes "
        "(survives worker SIGKILL) instead of threads",
    )
    parser.add_argument(
        "--heartbeat-timeout", type=float, default=30.0, metavar="SECONDS",
        help="kill a worker process silent for this long (process "
        "workers only; default 30)",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="overall deadline for the batch (default: wait forever)",
    )
    parser.add_argument(
        "--no-preemption", action="store_true",
        help="never suspend running batch jobs for interactive ones",
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="record a per-job span tree (serve.* plus the inner run)",
    )
    parser.add_argument(
        "--status-json", metavar="PATH", default=None,
        help="write the final repro.serve/v1 status document to PATH",
    )
    return parser


def serve_main(argv: list[str]) -> int:
    # Local import: the serving layer pulls in threading machinery the
    # plain one-shot CLI paths never need.
    from repro.serve import SliceService, load_job_dir, load_job_file

    args = build_serve_parser().parse_args(argv)
    try:
        specs = []
        for path in args.jobs:
            if os.path.isdir(path):
                specs.extend(load_job_dir(path))
            else:
                specs.extend(load_job_file(path))
        service = SliceService(
            num_workers=args.workers,
            cache_entries=args.cache_entries,
            cache_bytes=args.cache_bytes,
            workdir=args.workdir,
            trace=args.trace,
            preemption=not args.no_preemption,
            state_dir=args.state_dir,
            worker_mode="process" if args.process_workers else "thread",
            heartbeat_timeout_s=args.heartbeat_timeout,
            start=False,
        )
        recovered = [
            record
            for record in service.jobs.values()
            if record.recovered and not record.terminal
        ]
        if recovered:
            print(
                f"recovered {len(recovered)} unfinished job(s) from "
                f"{args.state_dir}"
            )
        service.start()
        records = [service.submit(spec) for spec in specs]
        finished = service.wait(timeout=args.timeout)
        service.shutdown()
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not finished:
        print(
            f"error: jobs still unfinished after {args.timeout}s",
            file=sys.stderr,
        )
        return 2

    failures = 0
    for record in records:
        label = record.spec.name or record.job_id
        notes = []
        if record.cache_hit:
            notes.append("cache hit")
        if record.warm_seeds:
            notes.append(f"warm-started ({len(record.warm_seeds)} seeds)")
        if record.preemptions:
            notes.append(
                f"preempted x{record.preemptions}, "
                f"resumed x{record.resumes}"
            )
        note = f" [{', '.join(notes)}]" if notes else ""
        if record.state == "completed" and record.result is not None:
            top = record.result.top_slices
            best = f"best score {top[0].score:+.4f}" if top else "no slices"
            print(
                f"{label}: completed, {len(top)} slice(s), {best}{note}"
            )
        else:
            failures += 1
            why = record.reason or record.error or record.state
            print(f"{label}: {record.state} ({why}){note}")
    stats = service.stats()
    cache = stats["cache"]
    hits = stats["events"].get("serve.cache_hits", 0)
    print(
        f"{len(records)} job(s); cache {hits} hit(s) / "
        f"{cache['misses']} miss(es), {cache['entries']} entr(ies)"
    )
    if args.status_json is not None:
        try:
            with open(args.status_json, "w") as handle:
                json.dump(
                    service.status_document(), handle, indent=2,
                    sort_keys=True,
                )
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"status JSON written to {args.status_json}")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] == "monitor":
        return monitor_main(argv[1:])
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    args = build_parser().parse_args(argv)
    try:
        table = read_csv_table(args.csv)
        if args.error_column not in table:
            raise ValidationError(
                f"error column {args.error_column!r} not in the CSV"
            )
        errors = table[args.error_column].astype(np.float64)
        specs = build_specs(
            table, args.error_column, _split(args.drop),
            _split(args.numeric), _split(args.categorical), args.bins,
        )
        encoded = Preprocessor(specs).fit_transform(table)
        tracing = args.trace or args.trace_json is not None
        finder = SliceLine(
            **_search_options(args),
            trace=("memory" if args.trace_memory else True) if tracing else None,
            budgets=_budgets_from_args(args),
            checkpoint_dir=args.checkpoint_dir,
        )
        finder.fit(
            encoded.x0, errors, feature_names=encoded.feature_names,
            resume_from=args.resume_from,
        )
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    result = finder.result_
    if args.trace:
        print(counters_table(result.counters, title="per-level enumeration"))
        print("trace:")
        print(format_trace(result.trace))
    if args.trace_json is not None:
        try:
            write_json(result, args.trace_json)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"trace JSON written to {args.trace_json}")
    print(
        f"n={result.num_rows} rows, m={result.num_features} features, "
        f"l={result.num_onehot_columns} one-hot columns, "
        f"avg error={result.average_error:.4f}"
    )
    if not result.completed and result.budget_trip is not None:
        trip = result.budget_trip
        print(
            f"partial result: {trip.budget} budget tripped at level "
            f"{trip.level} ({trip.detail}); the top-K below is the exact "
            "best of everything evaluated before the stop"
        )
    if not result.top_slices:
        print("no slice scores above 0 — the model has no concentrated "
              "weak spots at this sigma/alpha")
        return 0
    for rank, sl in enumerate(result.top_slices, start=1):
        desc = sl.describe(encoded.feature_names, encoded.value_labels)
        print(
            f"#{rank} score={sl.score:+.4f} size={sl.size} "
            f"avg_err={sl.average_error:.4f} :: {desc}"
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
