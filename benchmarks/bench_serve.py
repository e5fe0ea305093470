"""Serving-layer benchmark: cache-hit latency, warm starts, throughput.

The serving claims worth measuring (and gating):

* **exactness** — a cached exact hit and a warm-started cache miss both
  return results bitwise-identical to a cold :func:`repro.core.slice_line`
  run (the cache may only *skip* work, never change it);
* **cache-hit latency** — an exact-fingerprint resubmission skips
  enumeration entirely, so its submit-to-result latency must be a small
  fraction of the cold run;
* **throughput** — jobs/minute through the worker pool for a batch of
  distinct-fingerprint jobs, cold vs. a second identical batch that is
  served from cache.  One batch of a few jobs is noisy, so each figure
  is the median over :data:`THROUGHPUT_ROUNDS` rounds, each on a fresh
  service.

Everything lands in ``benchmarks/BENCH_serve.json``
(``repro.bench_serve/v1``).
"""

import json
import pathlib
import statistics
import time

import numpy as np

from repro.core import SliceLineConfig, slice_line
from repro.serve import JobSpec, SliceService

from conftest import bench_dataset, run_once

OUT_PATH = pathlib.Path(__file__).parent / "BENCH_serve.json"

#: a cached hit must be at least this much faster than the cold run
HIT_SPEEDUP_FLOOR = 5.0
#: distinct-config jobs per throughput batch
BATCH_JOBS = 6
#: throughput rounds (odd, so the median is one round's figure)
THROUGHPUT_ROUNDS = 9


def _spec(bundle, cfg, tenant="bench"):
    return JobSpec(tenant=tenant, x0=bundle.x0, errors=bundle.errors, config=cfg)


def _submit_and_time(service, spec):
    start = time.perf_counter()
    record = service.submit(spec)
    result = service.result(record.job_id, timeout=600)
    return time.perf_counter() - start, record, result


def _throughput_round(bundle, cfgs, workdir):
    """Seconds for one cold batch of *cfgs* on a fresh service, then for
    the same batch again, served from that service's cache."""
    with SliceService(num_workers=2, workdir=workdir) as service:
        start = time.perf_counter()
        records = [service.submit(_spec(bundle, c)) for c in cfgs]
        assert service.wait(timeout=600)
        seconds_cold = time.perf_counter() - start
        assert all(record.state == "completed" for record in records)

        start = time.perf_counter()
        records = [service.submit(_spec(bundle, c)) for c in cfgs]
        assert service.wait(timeout=600)
        seconds_cached = time.perf_counter() - start
        assert all(record.cache_hit for record in records)
    return seconds_cold, seconds_cached


def _assert_bitwise_identical(cold, served):
    assert served.completed
    assert np.array_equal(cold.top_stats, served.top_stats)
    assert np.array_equal(cold.top_slices_encoded, served.top_slices_encoded)


def test_serve_cache_and_throughput(benchmark, tmp_path):
    bundle = bench_dataset("adult")
    cfg = SliceLineConfig(k=10, max_level=3)

    cold_oracle = run_once(
        benchmark, lambda: slice_line(bundle.x0, bundle.errors, cfg)
    )

    with SliceService(
        num_workers=2, workdir=str(tmp_path / "serve")
    ) as service:
        # Cold submit, then an exact-fingerprint resubmission.
        seconds_cold, _, result_cold = _submit_and_time(
            service, _spec(bundle, cfg)
        )
        seconds_hit, record_hit, result_hit = _submit_and_time(
            service, _spec(bundle, cfg)
        )
        assert record_hit.cache_hit
        _assert_bitwise_identical(cold_oracle, result_cold)
        _assert_bitwise_identical(cold_oracle, result_hit)

        # Warm start: same data, wider config, still bitwise == cold.
        wide_cfg = SliceLineConfig(k=12, max_level=3)
        seconds_warm, record_warm, result_warm = _submit_and_time(
            service, _spec(bundle, wide_cfg)
        )
        assert not record_warm.cache_hit
        assert record_warm.warm_seeds
        _assert_bitwise_identical(
            slice_line(bundle.x0, bundle.errors, wide_cfg), result_warm
        )

        cache_stats = service.cache.stats()

    # Throughput: a fresh service per round, so every cold batch is cold;
    # its second batch is served from that round's cache.
    batch_cfgs = [
        SliceLineConfig(k=4 + index, max_level=2) for index in range(BATCH_JOBS)
    ]
    rounds = [
        _throughput_round(
            bundle, batch_cfgs, str(tmp_path / f"serve-throughput-{index}")
        )
        for index in range(THROUGHPUT_ROUNDS)
    ]
    seconds_batch_cold = statistics.median(cold for cold, _ in rounds)
    seconds_batch_cached = statistics.median(cached for _, cached in rounds)

    hit_speedup = seconds_cold / seconds_hit
    document = {
        "schema": "repro.bench_serve/v1",
        "workload": "adult",
        "num_rows": int(bundle.x0.shape[0]),
        "seconds_cold": seconds_cold,
        "seconds_cache_hit": seconds_hit,
        "cache_hit_speedup": hit_speedup,
        "seconds_warm_start": seconds_warm,
        "warm_seeds": len(record_warm.warm_seeds),
        "cache": cache_stats,
        "batch_jobs": BATCH_JOBS,
        "throughput_rounds": THROUGHPUT_ROUNDS,
        "throughput_cold_jobs_per_min": BATCH_JOBS / seconds_batch_cold * 60,
        "throughput_cached_jobs_per_min": (
            BATCH_JOBS / seconds_batch_cached * 60
        ),
        "hit_speedup_floor": HIT_SPEEDUP_FLOOR,
    }
    OUT_PATH.write_text(json.dumps(document, indent=2) + "\n")

    print(
        f"\nserving benchmark (adult, {bundle.x0.shape[0]} rows), written to "
        f"{OUT_PATH}\n"
        f"  cold submit->result   {seconds_cold * 1e3:8.1f} ms\n"
        f"  cache hit             {seconds_hit * 1e3:8.1f} ms "
        f"({hit_speedup:.0f}x)\n"
        f"  warm start            {seconds_warm * 1e3:8.1f} ms "
        f"({len(record_warm.warm_seeds)} seeds)\n"
        f"  throughput cold       "
        f"{document['throughput_cold_jobs_per_min']:8.1f} jobs/min "
        f"(median of {THROUGHPUT_ROUNDS})\n"
        f"  throughput cached     "
        f"{document['throughput_cached_jobs_per_min']:8.1f} jobs/min "
        f"(median of {THROUGHPUT_ROUNDS})"
    )
    assert hit_speedup > HIT_SPEEDUP_FLOOR
    assert (
        document["throughput_cached_jobs_per_min"]
        > document["throughput_cold_jobs_per_min"]
    )
