"""One outside-in benchmark for the SliceLine reproduction.

    PYTHONPATH=src python bench/run.py [--workload NAME]... [--seed N]...
                                       [--seconds S] [--trace 0|1]

Each run (one workload, one seed) is a fresh child process; runs go one at
a time.  The child builds its inputs from the seed, does one untimed
warm-up, then repeats untraced searches (or service requests) for
``--seconds`` and reports their medians, scaled to a reference host speed
by the probes of ``bench/speed.py``; with ``--trace 1`` it follows with
one traced pass that gives the per-layer metrics.

Every metric ``BENCHMARK.json`` declares is printed by name with its unit.
``bench/out/results.json`` gets the full record with provenance, and a
traced run also writes ``bench/out/spans-<workload>-<seed>.json``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (medians over the seeds).  The
exit code is 1 if any operation failed the exactness gate or raised, and 2
if the program cannot run at all.  ``bench/README.md`` has the details.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
from host import ROOT, THREADS, provenance  # noqa: E402

SRC = ROOT / "src"
OUT = BENCH / "out"
EXPECTED = BENCH / "expected.json"
DECLARATION = ROOT / "BENCHMARK.json"

#: Set-ups per run.  The child imports the program once and then builds the
#: inputs (and, on serve-adult, the service) this often; ``setup_s`` is the
#: import time plus the median build.
SETUP_REPEATS = 5
#: Time one run may take: a run must end well inside three minutes.
RUN_BUDGET_S = 170.0


def state_root(name: str, pid: int) -> Path:
    """Where a child keeps service state; removed when the child ends."""
    return OUT / f"state-{name}-{pid}"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", action="append",
        help="workload to run (repeatable; default: every declared workload)",
    )
    parser.add_argument(
        "--seed", type=int, action="append",
        help="input seed (repeatable: one run per seed; default 0)",
    )
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="length of the timed window (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    parser.add_argument(
        "--write-expected", action="store_true",
        help="record this seed's digests in bench/expected.json instead of checking them",
    )
    # Internal: the parent starts children with these.
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- child: one workload in a fresh process ---------------------------------


def child_main(args) -> int:
    """Set up, measure, and print one JSON payload on standard output."""
    sys.path.insert(0, str(SRC))
    import workloads  # noqa: E402  (imports repro, numpy and scipy)

    imported_s = time.monotonic() - args.spawned_at
    (seed,) = args.seed
    workload = workloads.WORKLOADS.get(args.child)
    if workload is None:
        print(f"bench: unknown workload {args.child!r}", file=sys.stderr)
        return 2
    state = state_root(workload.name, os.getpid())
    try:
        probe = workloads.speed.Probe()
        meter = workloads.speed.Meter(probe)
        builds, scaled_builds = [], []
        for repeat in range(SETUP_REPEATS):
            began = time.monotonic()
            x0, errors = workloads.make_inputs(workload, seed)
            service = None
            if workload.kind == "serve":
                service = workloads.build_service(str(state), "pass-0")
            builds.append(time.monotonic() - began)
            scaled_builds.append(builds[-1] * meter.mark())
            if service is not None and repeat < SETUP_REPEATS - 1:
                workloads.discard(service)
        # The imports end just before the first probe, which scales them.
        setup_s = (
            imported_s * workloads.speed.REFERENCE_S / meter.probes[0]
            + statistics.median(scaled_builds)
        )

        pinned = None
        if not args.write_expected and EXPECTED.exists():
            pinned = json.loads(EXPECTED.read_text()).get(workload.name, {}).get(str(seed))
        gate = workloads.Gate(workload.name, pinned)
        traced = bool(args.trace) and not args.write_expected
        if workload.kind == "serve":
            measured = workloads.run_serve(
                workload, x0, errors, service, str(state),
                None if args.write_expected else args.seconds, traced, gate, probe,
            )
        else:
            measured = workloads.run_find(
                workload, x0, errors, args.seconds, traced, gate, probe
            )
    finally:
        shutil.rmtree(state, ignore_errors=True)

    payload = {
        "attempted": gate.attempted,
        "failed": gate.failed,
        "problems": gate.problems,
        "defects": sorted(gate.defects),
        "digests": gate.seen,
        "end_to_end": {
            # Times are scaled to the reference host speed (bench/speed.py).
            "setup_s": setup_s,
            "find_s": measured["find_s"],
            "jobs_per_s": measured["jobs_per_s"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        },
        "samples": {
            "import_wall_s": imported_s,
            "build_wall_s": builds,
            "setup_probe_s": meter.probes,
            **measured["samples"],
        },
    }
    if "per_layer" in measured:
        spans_file = OUT / f"spans-{workload.name}-{seed}.json"
        spans_file.write_text(
            json.dumps(
                {
                    "workload": workload.name,
                    "seed": seed,
                    "unit": "s since the traced pass began",
                    "spans": [span.to_dict() for span in measured["spans"]],
                }
            )
            + "\n"
        )
        payload["per_layer"] = measured["per_layer"]
        payload["spans_file"] = str(spans_file.relative_to(ROOT))
    print(json.dumps(payload))
    return 0


# -- parent: orchestration and reporting ------------------------------------


class ChildFailed(Exception):
    pass


def run_once(name: str, seed: int, args) -> dict:
    """One run: a fresh child measures one workload on one seed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[variable] = str(THREADS)
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--child", name, "--seed", str(seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.write_expected:
        command.append("--write-expected")
    command += ["--spawned-at", repr(time.monotonic())]
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=env)
    try:
        stdout, _ = process.communicate(timeout=RUN_BUDGET_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        shutil.rmtree(state_root(name, process.pid), ignore_errors=True)
        raise ChildFailed(f"{name} seed {seed}: child ran past the time budget")
    lines = [line for line in stdout.splitlines() if line.strip()]
    if process.returncode != 0 or not lines:
        raise ChildFailed(f"{name} seed {seed}: child exited with code {process.returncode}")
    run = json.loads(lines[-1])
    run["seed"] = seed
    return run


def summarize(runs: list[dict]) -> dict:
    """One workload over all its runs: metric medians across runs, summed counts."""
    record = {
        group: {
            metric: statistics.median(run[group][metric] for run in runs)
            for metric in runs[0][group]
        }
        for group in ("end_to_end", "per_layer")
        if group in runs[0]
    }
    record["attempted"] = sum(run["attempted"] for run in runs)
    record["failed"] = sum(run["failed"] for run in runs)
    record["failed_frac"] = record["failed"] / max(1, record["attempted"])
    record["correct"] = record["failed"] == 0
    record["runs"] = runs
    return record


def metric_lines(name: str, run: dict, declared: dict) -> list[str]:
    lines = [f"== {name} (seed {run['seed']}) =="]
    for group in ("end_to_end", "per_layer"):
        values = run.get(group)
        if values is None:
            continue
        for metric in declared[group]:
            lines.append(
                f"  {metric['name']:<26} {values[metric['name']]:>16.6g} {metric['unit']}"
            )
    samples = run["samples"]
    lines.append(
        "  unscaled: find_s {:.6g} s; median probe {:.4g} s".format(
            statistics.median(samples["find_wall_s"]),
            statistics.median(samples["probe_s"]),
        )
    )
    lines.append(f"  operations: {run['attempted']} attempted, {run['failed']} failed")
    lines.extend(f"  FAILED {problem}" for problem in run["problems"])
    lines.extend(f"  known defect: {defect}" for defect in run["defects"])
    return lines


def write_expected(records: dict) -> None:
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    for name, record in records.items():
        for run in record["runs"]:
            expected.setdefault(name, {})[str(run["seed"])] = run["digests"]
    EXPECTED.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    if not (SRC / "repro").is_dir() or not DECLARATION.is_file():
        print(
            f"bench: expected the program under {SRC} and {DECLARATION.name} "
            "at the checkout root; nothing to measure",
            file=sys.stderr,
        )
        return 2
    declaration = json.loads(DECLARATION.read_text())
    if args.seconds is None:
        args.seconds = float(declaration["run_seconds"])
    names = args.workload or [w["name"] for w in declaration["workloads"]]
    seeds = args.seed or [0]
    OUT.mkdir(exist_ok=True)

    records, failures = {}, []
    for name in names:
        runs = []
        for seed in seeds:
            try:
                run = run_once(name, seed, args)
            except (ChildFailed, json.JSONDecodeError) as exc:
                failures.append(str(exc))
                print(f"bench: {exc}", file=sys.stderr)
                continue
            runs.append(run)
            print("\n".join(metric_lines(name, run, declaration)), flush=True)
        if runs:
            records[name] = summarize(runs)

    (OUT / "results.json").write_text(
        json.dumps(
            {
                "schema": "repro.bench/v1",
                "provenance": provenance(seeds),
                "seconds": args.seconds,
                "trace": args.trace,
                "workloads": records,
                "failures": failures,
            },
            indent=2,
        )
        + "\n"
    )
    if args.write_expected and not failures:
        write_expected(records)
    if not records:
        return 1

    group = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for name, record in records.items():
        for metric in declaration[group]:
            key = metric["name"] if len(names) == 1 else f"{name}.{metric['name']}"
            metrics[key] = {"value": record[group][metric["name"]], "unit": metric["unit"]}
    failed = sum(record["failed"] for record in records.values()) + len(failures)
    attempted = sum(record["attempted"] for record in records.values()) + len(failures)
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
