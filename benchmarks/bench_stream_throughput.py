"""Streaming monitor cost: CPU seconds per drive, warm vs cold.

Drives two kinds of :class:`~repro.streaming.SliceMonitor` — one
warm-started, one cold — over the same replayed prediction-log stream
(ten ticks each) and records each kind's median process CPU seconds per
drive over :data:`REPEATS` alternating drives, after one untimed drive of
each that also supplies the per-tick work counters.  A single pass reads
too noisily to compare two versions of the code (per-tick rows/s of one
drive varied by half from run to run of unchanged code); the median CPU
time of repeated drives does not.  Every tick runs
:func:`~repro.core.slice_line`, so the figure follows the search's own
cost.  Results land in ``BENCH_stream.json``.

The stream uses constant-magnitude errors (every nonzero error is exactly
1/16): with uniform ``sm`` the Equation-3 bound discriminates by error
mass, which is the regime where seeding the previous winners actually
prunes parents before the pair join.  Warm and cold must still agree
bitwise on every tick — that is asserted, not assumed.

Run:  pytest benchmarks/bench_stream_throughput.py --benchmark-only -s
"""

import json
import pathlib
import platform
import statistics
import time

import numpy as np

from repro.core import SliceLineConfig
from repro.datasets import replay_batches
from repro.streaming import SliceMonitor

from conftest import run_once

NUM_ROWS = 40_000
BATCH_SIZE = 4_000
WINDOW = 4
#: Timed drives of each kind, alternating warm and cold.
REPEATS = 9


def _stream():
    gen = np.random.default_rng(31)
    x0 = np.column_stack(
        [gen.integers(1, 5, size=NUM_ROWS) for _ in range(8)]
    ).astype(np.int64)
    errors = (gen.random(NUM_ROWS) < 0.08).astype(np.float64) / 16.0
    for f0, v0, f1, v1 in ((0, 1, 1, 2), (2, 3, 3, 1), (4, 2, 6, 4)):
        errors[(x0[:, f0] == v0) & (x0[:, f1] == v1)] = 1.0 / 16.0
    return x0, errors


def _drive(warm_start: bool):
    x0, errors = _stream()
    monitor = SliceMonitor(
        config=SliceLineConfig(k=3, sigma=max(32, BATCH_SIZE * WINDOW // 100)),
        window_size=WINDOW,
        policy="sliding",
        warm_start=warm_start,
    )
    ticks = []
    for batch in replay_batches(x0, errors, BATCH_SIZE):
        monitor.ingest(batch)
        tick = monitor.tick()
        ticks.append(
            {
                "tick": tick.index,
                "rows": tick.num_rows,
                "evaluated_candidates": sum(
                    c.evaluated for c in tick.result.counters.levels
                ),
                "warm_hit_rate": (
                    tick.warm_start.hit_rate
                    if tick.warm_start is not None
                    else None
                ),
            }
        )
    return monitor, ticks


def _cpu_seconds(warm_start: bool) -> float:
    started = time.process_time()
    _drive(warm_start)
    return time.process_time() - started


def _summary(ticks, work, seconds) -> dict:
    quartiles = statistics.quantiles(seconds, n=4)
    median = statistics.median(seconds)
    return {
        "ticks": ticks,
        "evaluated_candidates_after_first_tick": work,
        "cpu_seconds_per_drive": seconds,
        "median_cpu_seconds_per_drive": median,
        "cpu_seconds_quartiles": [quartiles[0], quartiles[2]],
        "rows_per_cpu_second": sum(t["rows"] for t in ticks) / median,
    }


def test_stream_throughput_warm_vs_cold(benchmark):
    warm_monitor, warm_ticks = _drive(warm_start=True)
    cold_monitor, cold_ticks = run_once(benchmark, lambda: _drive(False))

    # exactness first: warm and cold tick results must be bitwise identical
    for wt, ct in zip(warm_monitor.ticks, cold_monitor.ticks):
        assert np.array_equal(wt.result.top_stats, ct.result.top_stats)

    warm_work = sum(t["evaluated_candidates"] for t in warm_ticks[1:])
    cold_work = sum(t["evaluated_candidates"] for t in cold_ticks[1:])
    assert warm_work < cold_work, (
        f"warm ticks evaluated {warm_work} candidates vs cold {cold_work}"
    )

    warm_seconds, cold_seconds = [], []
    for _ in range(REPEATS):
        warm_seconds.append(_cpu_seconds(True))
        cold_seconds.append(_cpu_seconds(False))

    summary = {
        "num_rows": NUM_ROWS,
        "batch_size": BATCH_SIZE,
        "window_batches": WINDOW,
        "repeats": REPEATS,
        "host": {
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "warm": _summary(warm_ticks, warm_work, warm_seconds),
        "cold": _summary(cold_ticks, cold_work, cold_seconds),
    }
    out = pathlib.Path(__file__).parent / "BENCH_stream.json"
    out.write_text(json.dumps(summary, indent=2) + "\n")
    print(
        f"\nwarm {summary['warm']['median_cpu_seconds_per_drive']:.3f} CPU s "
        f"per drive ({warm_work} candidates) vs cold "
        f"{summary['cold']['median_cpu_seconds_per_drive']:.3f} CPU s "
        f"({cold_work} candidates), medians of {REPEATS} -> {out.name}"
    )
