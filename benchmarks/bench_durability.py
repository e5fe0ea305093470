"""Durability overhead: journaling must cost < 5%, restarts must be fast.

The crash-durability layer (``repro.serve.durability``) is meant to be
left on for any long-lived deployment, so its fault-free cost has to be
small and its recovery path has to be cheap.  Three measurements, all
gated:

* **journaling overhead** — the same submit-to-result workload through a
  ``state_dir``-backed service (fsync'd WAL appends + durable cache
  spill) vs. the in-memory service, in ``ROUNDS`` interleaved rounds.
  The gate measures the durable work itself: inside the WAL-on arm, the
  time spent in ``JobJournal.append`` and ``DurableResultCache.put``
  (fsync on), whose median per job must stay under ``OVERHEAD_BUDGET``
  (5%) of the median WAL-off submit-to-result time.  The difference of
  the two arms' end-to-end minima is recorded too, but not gated: two
  ~50-ms totals differ by more than 5% on noise alone.  Both arms must
  stay bitwise identical to the cold :func:`repro.core.slice_line`
  oracle — durability may only *persist* work, never change it.
* **cold-restart recovery** — seconds to construct a service over a
  state dir holding a warm cache and a full journal (WAL replay + spill
  reload).  Recorded, and gated indirectly: the resubmission after
  restart must be a zero-enumeration cache hit, bitwise equal to the
  pre-crash result.
* **explicit-array submits** — the same ``(x0, errors)`` arrays
  submitted ``ARRAY_SUBMITS`` times (one miss, then cache hits), with and
  without the WAL.  Records the miss and median hit latency of each arm
  and the input-spill bytes on disk; gated on exactly one spill file
  (the input spills once per dataset, not once per submit).

Everything lands in ``benchmarks/BENCH_durability.json``
(``repro.bench_durability/v1``).
"""

import json
import pathlib
import time

import numpy as np

from repro.core import SliceLineConfig, slice_line
from repro.serve import JobSpec, SliceService

from conftest import BENCH_SCALES, bench_dataset, run_once

OUT_PATH = pathlib.Path(__file__).parent / "BENCH_durability.json"

#: durable work (journal appends + cache puts) may cost at most this
#: fraction of the median WAL-off submit->result time
OVERHEAD_BUDGET = 0.05
#: interleaved timing rounds per arm (medians gate, minima are recorded)
ROUNDS = 15
#: distinct-config jobs persisted before the restart measurement
WARM_JOBS = 6
#: submits of the same arrays in the explicit-array arm (1 miss, then hits)
ARRAY_SUBMITS = 8

WORKLOAD = "covtype"
CFG = SliceLineConfig(k=8, max_level=2)


def _spec(cfg=CFG):
    return JobSpec(
        tenant="bench",
        dataset=WORKLOAD,
        scale=BENCH_SCALES[WORKLOAD],
        config=cfg,
    )


def _timed(method, spent: list):
    """*method*, adding the seconds of every call to *spent*."""

    def timed(*args, **kwargs):
        began = time.perf_counter()
        try:
            return method(*args, **kwargs)
        finally:
            spent.append(time.perf_counter() - began)

    return timed


def _submit_and_time(service, spec):
    start = time.perf_counter()
    record = service.submit(spec)
    result = service.result(record.job_id, timeout=600)
    return time.perf_counter() - start, record, result


def _assert_bitwise_identical(oracle, served):
    assert served.completed
    assert np.array_equal(oracle.top_stats, served.top_stats)
    assert np.array_equal(
        oracle.top_slices_encoded, served.top_slices_encoded
    )


def _input_spills(root: pathlib.Path) -> list[pathlib.Path]:
    """Every input spill under a state dir: shared and per-job."""
    return sorted(root.glob("inputs/*.npz")) + sorted(
        root.glob("jobs/*/inputs.npz")
    )


def _array_submits(service, bundle, oracle):
    """Submit the same arrays ARRAY_SUBMITS times; returns the latencies."""
    seconds = []
    for _ in range(ARRAY_SUBMITS):
        spec = JobSpec(
            tenant="bench", x0=bundle.x0, errors=bundle.errors, config=CFG
        )
        elapsed, record, result = _submit_and_time(service, spec)
        seconds.append(elapsed)
        _assert_bitwise_identical(oracle, result)
        assert record.cache_hit == (len(seconds) > 1)
    return {
        "seconds_miss": seconds[0],
        "seconds_hit_median": float(np.median(seconds[1:])),
    }


def test_durability_overhead_and_recovery(benchmark, tmp_path):
    bundle = bench_dataset(WORKLOAD)
    oracle = run_once(
        benchmark, lambda: slice_line(bundle.x0, bundle.errors, CFG)
    )

    # -- journaling overhead: interleaved rounds, fresh state per round --
    seconds_off, seconds_on, seconds_durable = [], [], []
    for round_index in range(ROUNDS):
        with SliceService(
            num_workers=1,
            workdir=str(tmp_path / f"plain-{round_index}"),
        ) as service:
            seconds, _, result = _submit_and_time(service, _spec())
            seconds_off.append(seconds)
            _assert_bitwise_identical(oracle, result)
        spent: list[float] = []
        with SliceService(
            num_workers=1,
            state_dir=str(tmp_path / f"durable-{round_index}"),
        ) as service:
            assert service.journal.fsync
            service.journal.append = _timed(service.journal.append, spent)
            service.cache.put = _timed(service.cache.put, spent)
            seconds, _, result = _submit_and_time(service, _spec())
            seconds_on.append(seconds)
            _assert_bitwise_identical(oracle, result)
        # Read after shutdown: the job's last record may be appended
        # after its result is handed out.
        seconds_durable.append(sum(spent))

    min_off, min_on = min(seconds_off), min(seconds_on)
    overhead = (min_on - min_off) / min_off
    median_off = float(np.median(seconds_off))
    median_durable = float(np.median(seconds_durable))
    durable_fraction = median_durable / median_off
    assert durable_fraction < OVERHEAD_BUDGET, (
        f"durable work {durable_fraction:.2%} of a job exceeds "
        f"{OVERHEAD_BUDGET:.0%} (median {median_durable * 1e3:.2f} ms of "
        f"journal appends and cache puts per job, median WAL-off "
        f"submit->result {median_off * 1e3:.1f} ms)"
    )

    # -- cold-restart recovery over a warm cache + full journal ----------
    state = str(tmp_path / "restart-state")
    warm_cfgs = [
        SliceLineConfig(k=4 + index, max_level=2) for index in range(WARM_JOBS)
    ]
    with SliceService(num_workers=1, state_dir=state) as service:
        for cfg in warm_cfgs:
            service.submit(_spec(cfg))
        assert service.wait(timeout=600)
        pre_crash = service.cache.stats()

    start = time.perf_counter()
    recovered = SliceService(num_workers=1, state_dir=state)
    seconds_recovery = time.perf_counter() - start
    try:
        seconds_hit, record_hit, result_hit = _submit_and_time(
            recovered, _spec(warm_cfgs[0])
        )
        assert record_hit.cache_hit, "post-restart resubmission re-ran"
        stats = recovered.stats()
        assert not stats["durability"]["recovery_errors"]
        assert not stats["durability"]["wal_quarantined"]
    finally:
        recovered.shutdown()
    oracle_first = slice_line(bundle.x0, bundle.errors, warm_cfgs[0])
    _assert_bitwise_identical(oracle_first, result_hit)

    # -- explicit arrays: the input spills once per dataset ----------------
    with SliceService(
        num_workers=1, workdir=str(tmp_path / "arrays-plain")
    ) as service:
        arrays_off = _array_submits(service, bundle, oracle)
    array_state = tmp_path / "arrays-durable"
    with SliceService(num_workers=1, state_dir=str(array_state)) as service:
        arrays_on = _array_submits(service, bundle, oracle)
    spills = _input_spills(array_state)
    assert len(spills) == 1, f"{len(spills)} input spills for one dataset"
    spilled_bytes = sum(path.stat().st_size for path in spills)

    document = {
        "schema": "repro.bench_durability/v1",
        "workload": WORKLOAD,
        "num_rows": int(bundle.x0.shape[0]),
        "rounds": ROUNDS,
        "seconds_wal_off": min_off,
        "seconds_wal_on": min_on,
        "journal_overhead": overhead,
        "seconds_wal_off_median": median_off,
        "seconds_durable_median": median_durable,
        "durable_fraction": durable_fraction,
        "overhead_budget": OVERHEAD_BUDGET,
        "restart": {
            "warm_jobs": WARM_JOBS,
            "wal_records_replayed": stats["durability"]["wal_replayed"],
            "cache_entries_recovered": pre_crash["entries"],
            "seconds_recovery": seconds_recovery,
            "seconds_cache_hit_after_restart": seconds_hit,
        },
        "explicit_arrays": {
            "submits": ARRAY_SUBMITS,
            "wal_off": arrays_off,
            "wal_on": arrays_on,
            "input_spills": len(spills),
            "input_spill_bytes": spilled_bytes,
        },
    }
    OUT_PATH.write_text(json.dumps(document, indent=2) + "\n")

    print(
        f"\ndurability benchmark ({WORKLOAD}, {bundle.x0.shape[0]} rows), "
        f"written to {OUT_PATH}\n"
        f"  submit->result WAL off  {min_off * 1e3:8.1f} ms\n"
        f"  submit->result WAL on   {min_on * 1e3:8.1f} ms ({overhead:+.2%})\n"
        f"  durable work per job    {median_durable * 1e3:8.2f} ms "
        f"({durable_fraction:.2%} of the job, budget "
        f"{OVERHEAD_BUDGET:.0%})\n"
        f"  cold-restart recovery   {seconds_recovery * 1e3:8.1f} ms "
        f"({pre_crash['entries']} cached result(s), "
        f"{stats['durability']['wal_replayed']} WAL record(s))\n"
        f"  cache hit after restart {seconds_hit * 1e3:8.1f} ms\n"
        f"  {ARRAY_SUBMITS} array submits: miss WAL off/on "
        f"{arrays_off['seconds_miss'] * 1e3:.1f}/"
        f"{arrays_on['seconds_miss'] * 1e3:.1f} ms, median hit "
        f"{arrays_off['seconds_hit_median'] * 1e3:.1f}/"
        f"{arrays_on['seconds_hit_median'] * 1e3:.1f} ms, "
        f"{len(spills)} input spill(s), {spilled_bytes / 1e6:.2f} MB"
    )
