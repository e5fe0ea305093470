"""Slice finding as a service: submit, cache, preempt, resume.

One :class:`repro.SliceService` turns the one-shot ``slice_line`` call
into a job service: jobs wait in one backlog, results land in a
fingerprint-keyed cache, and interactive jobs can preempt running batch
jobs at a checkpointed level boundary (the victim later resumes
bitwise-identically).  A job's ``tenant`` is a label (it leads the job
id); the worker pool is the only limit on how many jobs run at once.

This script walks the full surface on a synthetic workload:

1. a batch job, labelled with the "analytics" tenant (cold run);
2. resubmitting the identical job is an exact cache hit — no
   enumeration at all;
3. a wider follow-up job on the same data warm-starts from the cached
   top-K and still matches a cold run bitwise;
4. with the one worker busy on a batch job, an interactive "oncall" job
   preempts it; the batch job resumes from its checkpoint and still
   matches a cold run bitwise;
5. the same jobs expressed as a declarative JSON document
   (``examples/serve_jobs.json`` runs the equivalent via
   ``python -m repro serve examples/serve_jobs.json``).

Run:  python examples/serve_jobs.py
"""

import os
import time

import numpy as np

from repro import JobSpec, SliceService
from repro.core import SliceLineConfig, slice_line

rng = np.random.default_rng(7)

# Allow CI to shrink the workload; the behaviour is scale-free.
num_rows = int(os.environ.get("REPRO_EXAMPLE_ROWS", 12_000))

x0 = np.column_stack(
    [
        rng.integers(1, 5, size=num_rows),  # device     (1..4)
        rng.integers(1, 4, size=num_rows),  # country    (1..3)
        rng.integers(1, 6, size=num_rows),  # app ver    (1..5)
    ]
)
errors = (rng.random(num_rows) < 0.05).astype(float)
weak = (x0[:, 0] == 2) & (x0[:, 1] == 1)
errors[weak] = (rng.random(int(weak.sum())) < 0.55).astype(float)

cfg = SliceLineConfig(k=4, max_level=3, sigma=max(32, num_rows // 200))

# One worker: an interactive job that arrives while it is busy preempts.
with SliceService(num_workers=1) as service:
    # 1. cold batch run -----------------------------------------------------
    job = service.submit(
        JobSpec(tenant="analytics", name="baseline", x0=x0, errors=errors,
                config=cfg)
    )
    result = service.result(job.job_id, timeout=300)
    print(f"[{job.job_id}] cold run: {result.total_seconds * 1e3:.0f} ms, "
          f"top score {result.top_slices[0].score:+.3f}")

    # 2. exact resubmission is a cache hit ----------------------------------
    again = service.submit(
        JobSpec(tenant="analytics", name="baseline-again", x0=x0,
                errors=errors, config=cfg)
    )
    cached = service.result(again.job_id, timeout=300)
    assert again.cache_hit and cached is result
    print(f"[{again.job_id}] exact resubmission: served from cache, "
          "zero enumeration")

    # 3. same data, wider config: warm-started, still bitwise exact --------
    wide = SliceLineConfig(k=6, max_level=3, sigma=cfg.sigma)
    deep = service.submit(
        JobSpec(tenant="analytics", name="wide", x0=x0, errors=errors,
                config=wide)
    )
    warmed = service.result(deep.job_id, timeout=300)
    cold = slice_line(x0, errors, wide)
    assert np.array_equal(warmed.top_stats, cold.top_stats)
    print(f"[{deep.job_id}] warm-started from {len(deep.warm_seeds)} cached "
          "seeds; result bitwise-identical to a cold run")

    # 4. an interactive on-call job preempts a running batch job ----------
    # A deeper scan over twelve more (noise) features keeps the worker busy.
    x_wide = np.column_stack(
        [x0] + [rng.integers(1, 4, size=num_rows) for _ in range(12)]
    )
    nightly_cfg = SliceLineConfig(k=8, max_level=4, sigma=8)
    nightly = service.submit(
        JobSpec(tenant="analytics", name="nightly", x0=x_wide,
                errors=errors, config=nightly_cfg)
    )
    while service.status(nightly.job_id)["state"] == "pending":
        time.sleep(0.001)
    live = service.submit(
        JobSpec(tenant="oncall", name="incident", x0=x0, errors=errors,
                config=SliceLineConfig(k=2, max_level=2, sigma=cfg.sigma),
                interactive=True)
    )
    service.result(live.job_id, timeout=300)
    resumed = service.result(nightly.job_id, timeout=300)
    assert np.array_equal(
        resumed.top_stats, slice_line(x_wide, errors, nightly_cfg).top_stats
    )
    print(f"[{live.job_id}] interactive job completed; "
          f"[{nightly.job_id}] preempted x{nightly.preemptions}, "
          f"resumed x{nightly.resumes}, result bitwise-identical to a cold "
          "run")

    stats = service.stats()
    print(
        f"\nservice totals: {stats['events'].get('serve.submitted', 0)} "
        f"submitted, {stats['events'].get('serve.cache_hits', 0)} cache "
        f"hit(s), {stats['events'].get('serve.warm_starts', 0)} warm "
        f"start(s)"
    )
    print(
        "same jobs, declaratively:  "
        "python -m repro serve examples/serve_jobs.json"
    )
