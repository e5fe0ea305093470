"""The benchmark's workloads: inputs, measured loops and the exactness gate.

Each workload is one fixed dataset shape from :mod:`repro.datasets` with
the Section 5 defaults of :func:`repro.experiments.bench_config` (k=10,
alpha=0.95, sigma=ceil(n/100), block 128, the dataset's level cap).  The
seed picks one *presentation* of that dataset: the rows, the feature
columns and each feature's value codes are permuted.  A presentation is
isomorphic to the original, so every seed does the same lattice work.  The
generators' own seeds plant other slices and change the work itself: on
covtype, generator seeds 0 and 1 evaluate 49,152 and 65,536 level-3
candidates, a 27% difference in run time that no bound could absorb.

The program only ever receives the generated arrays.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import os
import shutil
import statistics
import time
from dataclasses import dataclass

import numpy as np

from repro.core.algorithm import slice_line
from repro.core.config import SliceLineConfig
from repro.datasets import load_dataset
from repro.experiments import bench_config
from repro.obs import EXECUTION_FIELDS
from repro.serve import JobSpec, SliceService

import layers
import speed
from host import THREADS

#: A find window always holds at least this many timed searches.
MIN_REPEATS = 3
#: Each serve config is submitted this often in a row: one miss, then hits.
SUBMITS_PER_CONFIG = 5
#: Configs the traced serve pass runs (the first is its warm-up).
TRACED_CONFIGS = 8
#: Longest a single serve request may take before it counts as failed.
REQUEST_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class Workload:
    """One workload; ``BENCHMARK.json`` and ``README.md`` say why each exists."""

    name: str
    kind: str  # "find" or "serve"
    dataset: str
    scale: float
    #: serve only: the (k, alpha) grid, walked in order
    configs: tuple = ()


def _grid(ks, alphas) -> tuple:
    """Every (k, alpha) pair, in one fixed shuffled order.

    A serve pass that stops early covers a prefix of the grid; shuffling
    makes every prefix a like mix of small and large k.
    """
    grid = [(k, alpha) for k in ks for alpha in alphas]
    order = np.random.default_rng(0).permutation(len(grid))
    return tuple(grid[i] for i in order)


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("kdd98-wide", "find", "kdd98", 0.01),
        Workload("covtype-deep", "find", "covtype", 0.006),
        Workload("criteo-sparse", "find", "criteod21", 0.01),
        Workload(
            "serve-adult", "serve", "adult", 1.0,
            configs=_grid(range(4, 20), (0.90, 0.93, 0.95, 0.99)),
        ),
        # Tiny inputs for the harness's own tests; not in BENCHMARK.json.
        Workload("smoke-find", "find", "salaries", 1.0),
        Workload(
            "smoke-serve", "serve", "salaries", 1.0,
            configs=_grid((4, 5), (0.90, 0.95)),
        ),
    )
}


def present(x0: np.ndarray, errors: np.ndarray, seed: int):
    """Permute rows, feature columns and each column's value codes.

    Only codes that occur are permuted among themselves, so every feature
    keeps its domain size and the missing code 0 stays 0.
    """
    rng = np.random.default_rng(seed)
    rows = rng.permutation(x0.shape[0])
    x = x0[rows][:, rng.permutation(x0.shape[1])]
    for j in range(x.shape[1]):
        codes = np.unique(x[:, j])
        codes = codes[codes > 0]
        lookup = np.zeros(int(codes[-1]) + 1, dtype=x.dtype)
        lookup[codes] = rng.permutation(codes)
        x[:, j] = lookup[x[:, j]]
    return x, errors[rows]


def make_inputs(workload: Workload, seed: int):
    bundle = load_dataset(workload.dataset, scale=workload.scale, seed=0)
    return present(bundle.x0, bundle.errors, seed)


def find_config(workload: Workload, num_rows: int, k: int = 10, alpha: float = 0.95):
    return bench_config(workload.dataset, num_rows, k=k, alpha=alpha)


def config_key(k: int, alpha: float) -> str:
    return f"k={k},alpha={alpha:.2f}"


# -- exactness gate ------------------------------------------------------------


def digest(result) -> str:
    """SHA-256 over the encoded top-K, its statistics and the counters.

    Counter fields that depend on execution shape or wall clock
    (``repro.obs.EXECUTION_FIELDS``) are left out.
    """
    hasher = hashlib.sha256()
    for array, dtype in (
        (result.top_slices_encoded, np.int64),
        (result.top_stats, np.float64),
    ):
        array = np.ascontiguousarray(array, dtype=dtype)
        hasher.update(repr(array.shape).encode())
        hasher.update(array.tobytes())
    levels = [
        {k: v for k, v in record.to_dict().items() if k not in EXECUTION_FIELDS}
        for record in result.counters.levels
    ]
    hasher.update(json.dumps(levels, sort_keys=True).encode())
    return hasher.hexdigest()


#: The counter identity priority evaluation breaks, and the (workload,
#: level) pairs where it does.  The last chunk of a priority-ordered level
#: runs past the skip cut (``repro.core.algorithm._evaluate_level`` slices
#: ``priority_chunk`` candidates and ignores ``remaining``), so candidates
#: already counted as ``skipped_by_priority`` are evaluated as well.  There,
#: and only there, an overrun of fewer than one chunk is reported as a
#: known defect; any other violation fails the operation.
OVERRUN_IDENTITY = (
    "candidates_emitted == evaluated + skipped_by_priority + skipped_by_budget"
)
KNOWN_OVERRUNS = {("kdd98-wide", 2), ("covtype-deep", 3)}
PRIORITY_CHUNK = SliceLineConfig.priority_chunk


def overrun(record) -> int:
    """Candidates of a level counted as both evaluated and skipped."""
    return (
        record.evaluated + record.skipped_by_priority + record.skipped_by_budget
        - record.candidates_emitted
    )


class Gate:
    """Counts operations and checks each result against its reference.

    A reference is the pinned digest when the seed has one, otherwise the
    first digest seen under the same key (the warm-up search, or a config's
    miss), so unpinned seeds are still checked for self-consistency.
    """

    def __init__(self, workload: str, pinned: dict | None = None) -> None:
        self.workload = workload
        self.pinned = dict(pinned or {})
        self.seen: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.defects: set[str] = set()

    def fail(self, what: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.problems.append(what)

    def check(self, key: str, result) -> None:
        self.attempted += 1
        problems = []
        if not result.completed:
            problems.append("run did not complete")
        records = {record.level: record for record in result.counters.levels}
        for violation in result.counters.reconcile():
            where, identity = violation.split(": ", 1)
            level = int(where.removeprefix("level "))
            extra = overrun(records[level])
            if (
                identity == OVERRUN_IDENTITY
                and (self.workload, level) in KNOWN_OVERRUNS
                and 0 < extra < PRIORITY_CHUNK
            ):
                self.defects.add(
                    f"{violation}: {extra} candidates evaluated past the priority cut"
                )
            else:
                problems.append(f"counters do not reconcile: {violation}")
        value = digest(result)
        reference = self.pinned.get(key) or self.seen.get(key)
        if reference is not None and value != reference:
            problems.append(f"digest {value[:12]} != expected {reference[:12]}")
        self.seen.setdefault(key, value)
        if problems:
            self.failed += 1
            self.problems.append(f"{key}: " + ", ".join(problems))


# -- find workloads ---------------------------------------------------------------


def run_find(
    workload, x0, errors, seconds: float, traced: bool, gate: Gate, probe: speed.Probe
) -> dict:
    """Warm-up, a timed window of untraced searches, then one traced search.

    Each search time is scaled to the reference host speed by the probes
    around it (:mod:`speed`).
    """
    config = find_config(workload, x0.shape[0])

    def search():
        return slice_line(x0, errors, config, num_threads=THREADS)

    gate.check("find", search())
    meter = speed.Meter(probe)
    times, scaled = [], []
    started = time.perf_counter()
    # As many whole searches as fit in the window, judged by the median so
    # far, and never fewer than MIN_REPEATS.
    while len(times) < MIN_REPEATS or (
        time.perf_counter() - started + statistics.median(times) <= seconds
    ):
        began = time.perf_counter()
        result = search()
        times.append(time.perf_counter() - began)
        scaled.append(times[-1] * meter.mark())
        gate.check("find", result)
    out = {
        "find_s": statistics.median(scaled),
        "jobs_per_s": statistics.median(1.0 / t for t in scaled),
        "samples": {"find_wall_s": times, "probe_s": meter.probes},
    }
    if traced:
        recorder = layers.Recorder()
        meter = speed.Meter(probe)
        with layers.installed(recorder):
            with recorder.span("find", job="find-traced"):
                result = search()
        factor = meter.mark()
        gate.check("find", result)
        spans = recorder.finished()
        metrics = layers.layer_metrics(spans, [result])
        traced_s = sum(span.seconds for span in spans if span.name == "find")
        metrics["trace.overhead_frac"] = traced_s * factor / out["find_s"] - 1.0
        out["per_layer"] = metrics
        out["spans"] = spans
    return out


# -- serve workload -------------------------------------------------------------


def build_service(state_root: str, name: str) -> SliceService:
    """One worker, durable state with fsync on: the configuration under test."""
    return SliceService(num_workers=1, state_dir=os.path.join(state_root, name))


def discard(service: SliceService) -> None:
    """Shut *service* down and remove its state directory."""
    service.shutdown()
    shutil.rmtree(service.state_dir, ignore_errors=True)


def serve_pass(
    workload, x0, errors, service, gate: Gate, deadline: float | None,
    configs=None, recorder=None, meter: speed.Meter | None = None,
) -> dict:
    """Submit configs in order, each once as a miss and then as hits.

    The first config finds the cache empty and enumerates cold; it is left
    out of the figures, and every later miss warm-starts from the cache.
    Each config ends with a *meter* mark, and each later config gives one
    entry of ``configs``: its key, its miss latency (``None`` if the miss
    failed), its seconds, its requests and its scale factor (1 without a
    meter).  The pass ends with the grid, or after the config during
    which the ``time.perf_counter()`` *deadline* passed.  A traced pass
    (*recorder* given) also returns the misses' job records and results.
    """
    configs = workload.configs if configs is None else configs
    out = {
        "configs": [], "hits": [], "records": [], "results": [],
        "requests": 0, "cache_hits": 0,
    }
    for index, (k, alpha) in enumerate(configs):
        config = find_config(workload, x0.shape[0], k=k, alpha=alpha)
        key = config_key(k, alpha)
        latencies = {}
        for repeat in range(SUBMITS_PER_CONFIG):
            began = time.perf_counter()
            request = (
                recorder.span("serve.request", config=key, repeat=repeat)
                if recorder is not None
                else contextlib.nullcontext()
            )
            try:
                with request as span:
                    record = service.submit(
                        JobSpec(x0=x0, errors=errors, config=config, num_threads=THREADS)
                    )
                    if span is not None:
                        span.job = record.job_id
                    result = service.result(record.job_id, timeout=REQUEST_TIMEOUT_S)
            except Exception as exc:  # noqa: BLE001 — a failed request is counted, not fatal
                gate.fail(f"{key}#{repeat}: {type(exc).__name__}: {exc}")
                continue
            latencies[repeat] = time.perf_counter() - began
            gate.check(key, result)
            out["requests"] += 1
            out["cache_hits"] += int(record.cache_hit)
            if repeat == 0 and recorder is not None:
                out["records"].append(record)
                out["results"].append(result)
        factor = meter.mark() if meter is not None else 1.0
        if index > 0 and latencies:
            out["configs"].append(
                {
                    "key": key,
                    "miss": latencies.get(0),
                    "seconds": sum(latencies.values()),
                    "requests": len(latencies),
                    "factor": factor,
                }
            )
            out["hits"] += [latencies[r] for r in latencies if r > 0]
        if deadline is not None and time.perf_counter() >= deadline:
            break
    return out


def _checkpoint_bytes(state_dir: str) -> int:
    total = 0
    for directory, _, files in os.walk(os.path.join(state_dir, "jobs")):
        if os.path.basename(directory).startswith("level-"):
            total += sum(os.path.getsize(os.path.join(directory, f)) for f in files)
    return total


def _pass_on(service, workload, x0, errors, gate: Gate, deadline=None, configs=None,
             recorder=None, meter=None) -> dict:
    """One pass on *service*, which is shut down and its state removed after."""
    try:
        passed = serve_pass(
            workload, x0, errors, service, gate, deadline, configs, recorder, meter
        )
        passed["checkpoint_bytes"] = _checkpoint_bytes(service.state_dir)
        passed["warm_starts"] = service.registry.events.get("serve.warm_starts", 0)
    finally:
        discard(service)
    return passed


def run_serve(
    workload, x0, errors, service, state_root: str, seconds: float | None,
    traced: bool, gate: Gate, probe: speed.Probe,
) -> dict:
    """Passes over the grid on fresh services, then the traced comparison.

    Each pass has a service and state directory of its own, so what the
    service keeps per job stays bounded by one pass.  The first pass runs
    the whole grid on *service* (built by the caller as ``pass-0`` under
    *state_root*); later passes run until *seconds* have passed since the
    first began.  ``seconds=None`` runs exactly one pass.  Each config's
    miss latency and cycle time are scaled to the reference host speed by
    the probes around the config (:mod:`speed`).  A config that ran in
    several passes counts once, by its median, so every run weighs the
    same configs alike however far its later passes got.  When *traced*,
    the grid's first configs run twice more on fresh services, untraced
    and then traced, and the two give the tracing overhead.
    """
    meter = speed.Meter(probe)
    measured = {"configs": [], "hits": []}
    started = time.perf_counter()
    for number in itertools.count():
        if number > 0:
            if seconds is None or time.perf_counter() - started >= seconds:
                break
            service = build_service(state_root, f"pass-{number}")
        deadline = started + seconds if number > 0 else None
        passed = _pass_on(service, workload, x0, errors, gate, deadline, meter=meter)
        for key in measured:
            measured[key] += passed[key]
    misses, cycles = {}, {}
    for c in measured["configs"]:
        if c["miss"] is not None:
            misses.setdefault(c["key"], []).append(c["miss"] * c["factor"])
        cycles.setdefault(c["key"], []).append(
            c["requests"] / (c["seconds"] * c["factor"])
        )
    out = {
        "find_s": statistics.median(map(statistics.median, misses.values())),
        "jobs_per_s": statistics.median(map(statistics.median, cycles.values())),
        "samples": {
            "find_wall_s": [c["miss"] for c in measured["configs"] if c["miss"] is not None],
            "probe_s": meter.probes,
        },
    }
    if not traced:
        return out
    configs = workload.configs[:TRACED_CONFIGS]
    untraced = _pass_on(
        build_service(state_root, "untraced"), workload, x0, errors, gate,
        configs=configs, meter=speed.Meter(probe),
    )
    recorder = layers.Recorder()
    with layers.installed(recorder):
        passed = _pass_on(
            build_service(state_root, "traced"), workload, x0, errors, gate,
            configs=configs, recorder=recorder, meter=speed.Meter(probe),
        )
    records = passed["records"]
    spans = recorder.finished()
    metrics = layers.layer_metrics(
        spans,
        passed["results"],
        serve={
            "checkpoint_bytes": passed["checkpoint_bytes"],
            "queue_wait_s": [r.started_at - r.submitted_at for r in records],
            "run_s": [r.finished_at - r.started_at for r in records],
            "hit_frac": passed["cache_hits"] / max(1, passed["requests"]),
            "warm_starts": passed["warm_starts"],
            # Hit latency comes from the timed window: more samples, no wraps.
            "hit_s": measured["hits"],
        },
    )

    def scaled_seconds(configs):
        return sum(c["seconds"] * c["factor"] for c in configs)

    metrics["trace.overhead_frac"] = (
        scaled_seconds(passed["configs"]) / scaled_seconds(untraced["configs"]) - 1.0
    )
    out["per_layer"] = metrics
    out["spans"] = spans
    return out
