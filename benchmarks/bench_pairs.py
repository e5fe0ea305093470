"""Pair-candidate pipeline: measured speedup behind an exactness gate.

The chunk-local pair pipeline of :mod:`repro.core.pairs` (parallel join
chunks fusing merge/validity/pruning with chunk-local dedup, packed
distinct-parent counting, geometric accumulators) is a pure performance
optimization — it must produce *bitwise identical* top-K slices, bounds,
and counters as :func:`~repro.core.pairs.reference_pair_candidates`, the
preserved pre-pipeline implementation.  This bench asserts exactly that
(the exactness gate: any divergence fails the suite) and **reports** the
measured numbers: end-to-end seconds per arm plus the non-evaluate
(join + dedup + prune) share from the ``level{L}.pairs`` spans and the
per-stage split from the ``join/dedup/prune/keys_seconds`` counter
gauges, written to ``benchmarks/BENCH_pairs.json``.

Arms:

* ``reference`` — the driver patched to the preserved pre-pipeline
  implementation (the pre-optimization baseline);
* ``serial`` — the new pipeline at ``pair_parallelism=1``;
* ``parallel`` — the new pipeline at ``pair_parallelism=4``.

The headline number is ``pairs_speedup``: reference vs parallel on the
summed ``level{L}.pairs`` seconds (the non-evaluate share of the run).
On ``kdd98`` — feature-rich, level-2 at this bench scale emits the same
~696k-candidate shape the kernel bench exercises — the packed parent
counting alone is worth several-fold.

Workloads: ``kdd98`` and ``adult`` (the paper's canonical workload).
Override with ``BENCH_PAIRS_WORKLOADS=adult`` for the CI smoke run.
"""

import contextlib
import json
import os
import pathlib

import numpy as np

import repro.core.algorithm as algorithm_mod
from repro.core import slice_line
from repro.core.pairs import PairCandidates, reference_pair_candidates
from repro.experiments import bench_config
from repro.linalg import keys_to_csr
from repro.obs import EXECUTION_FIELDS

from conftest import bench_dataset, run_once

ARMS = ("reference", "serial", "parallel")
PARALLEL_WIDTH = 4

#: override with a comma-separated list (the CI smoke runs just ``adult``)
WORKLOADS = tuple(
    os.environ.get("BENCH_PAIRS_WORKLOADS", "kdd98,adult").split(",")
)
OUT_PATH = pathlib.Path(__file__).parent / "BENCH_pairs.json"
#: untraced timing samples per arm, interleaved so drift hits all equally
SAMPLES = 2


def _reference_entry(
    keys, stats, level, *, feature_map, workspace=None, pair_parallelism=1,
    **kwargs,
):
    """Driver-compatible wrapper over the preserved reference pipeline.

    The driver hands a level over as keys; the reference keeps the CSR
    format, so its input and output are converted at this boundary.
    """
    matrix, *rest = reference_pair_candidates(
        keys_to_csr(keys, feature_map.shape[0]), stats, level,
        feature_map=feature_map, **kwargs,
    )
    return PairCandidates(
        matrix.indices.reshape(-1, level).astype(np.int64), *rest
    )


@contextlib.contextmanager
def reference_pipeline():
    """Patch the enumeration driver onto the pre-pipeline implementation."""
    original = algorithm_mod.get_pair_candidates
    algorithm_mod.get_pair_candidates = _reference_entry
    try:
        yield
    finally:
        algorithm_mod.get_pair_candidates = original


def _assert_bitwise_identical(ref, other, name):
    """The exactness gate: any pipeline divergence fails the bench."""
    assert np.array_equal(ref.top_stats, other.top_stats), name
    assert np.array_equal(ref.top_slices_encoded, other.top_slices_encoded), name
    assert [s.predicates for s in ref.top_slices] == [
        s.predicates for s in other.top_slices
    ], name
    ref_levels = ref.counters.levels
    other_levels = other.counters.levels
    assert len(ref_levels) == len(other_levels), name
    for ref_record, other_record in zip(ref_levels, other_levels):
        ref_dict = ref_record.to_dict()
        other_dict = other_record.to_dict()
        for field in EXECUTION_FIELDS:
            ref_dict.pop(field, None)
            other_dict.pop(field, None)
        assert ref_dict == other_dict, name


def _pairs_seconds(result):
    """Summed ``level{L}.pairs`` span seconds — the non-evaluate share."""
    total = 0.0
    for record in result.counters.levels:
        if record.level < 2:
            continue
        span = result.trace.find(f"level{record.level}.pairs")
        if span is not None:
            total += span.elapsed_seconds
    return total


def _stage_split(result):
    """Per-level join/dedup/prune/keys split from the counter gauges."""
    out = {}
    for record in result.counters.levels:
        if record.level < 2 or record.pairs_generated == 0:
            continue
        out[record.level] = {
            "pairs_generated": record.pairs_generated,
            "candidates_emitted": record.candidates_emitted,
            "join_seconds": record.join_seconds,
            "dedup_seconds": record.dedup_seconds,
            "prune_seconds": record.prune_seconds,
            "keys_seconds": record.keys_seconds,
            "join_chunks": record.join_chunks,
            "join_parallelism": record.join_parallelism,
        }
    return out


def _bench_workload(name):
    bundle = bench_dataset(name)
    cfg = bench_config(name, bundle.num_rows)

    def run(arm, trace=None):
        if arm == "reference":
            with reference_pipeline():
                return slice_line(
                    bundle.x0, bundle.errors, cfg, num_threads=1, trace=trace
                )
        width = 1 if arm == "serial" else PARALLEL_WIDTH
        return slice_line(
            bundle.x0, bundle.errors,
            cfg.with_overrides(pair_parallelism=width),
            num_threads=1, trace=trace,
        )

    # Traced arms: the exactness gate + per-level pairs spans.
    traced = {arm: run(arm, trace=True) for arm in ARMS}
    for arm in ARMS[1:]:
        _assert_bitwise_identical(traced["reference"], traced[arm], f"{name}:{arm}")

    # Untraced arms, interleaved per round: end-to-end timing.  Sub-second
    # workloads get extra rounds so the min is not noise-dominated.
    samples = {arm: [] for arm in ARMS}
    for arm in ARMS:
        samples[arm].append(run(arm).total_seconds)
    rounds = SAMPLES if max(s[0] for s in samples.values()) > 2.0 else 5
    for _ in range(rounds - 1):
        for arm in ARMS:
            samples[arm].append(run(arm).total_seconds)

    reference_seconds = min(samples["reference"])
    reference_pairs = _pairs_seconds(traced["reference"])
    arms = {}
    for arm in ARMS:
        seconds = min(samples[arm])
        pairs_seconds = _pairs_seconds(traced[arm])
        arms[arm] = {
            "seconds": seconds,
            "speedup_vs_reference": (
                reference_seconds / seconds if seconds else 0.0
            ),
            "pairs_seconds": pairs_seconds,
            "pairs_speedup_vs_reference": (
                reference_pairs / pairs_seconds if pairs_seconds else 0.0
            ),
            "levels": _stage_split(traced[arm]),
        }

    level2 = traced["reference"].counters.level(2)
    return {
        "workload": name,
        "num_rows": traced["reference"].num_rows,
        "num_onehot_columns": traced["reference"].num_onehot_columns,
        "level2_pairs_generated": level2.pairs_generated,
        "level2_candidates_emitted": level2.candidates_emitted,
        "arms": arms,
        "pairs_speedup": {
            "reference_pairs_seconds": reference_pairs,
            "serial_pairs_seconds": arms["serial"]["pairs_seconds"],
            "parallel_pairs_seconds": arms["parallel"]["pairs_seconds"],
            "speedup": arms["parallel"]["pairs_speedup_vs_reference"],
        },
    }


def test_pair_pipeline_speedup(benchmark):
    records = run_once(
        benchmark, lambda: [_bench_workload(name) for name in WORKLOADS]
    )
    document = {"schema": "repro.bench_pairs/v1", "workloads": records}
    OUT_PATH.write_text(json.dumps(document, indent=2) + "\n")

    print(f"\npair pipeline (exactness-gated), written to {OUT_PATH}")
    for record in records:
        print(
            f"{record['workload']}: {record['num_rows']} rows, "
            f"{record['level2_pairs_generated']} level-2 pairs, "
            f"{record['level2_candidates_emitted']} emitted"
        )
        for arm, data in record["arms"].items():
            print(
                f"  {arm:<10} {data['seconds']:>8.3f}s e2e "
                f"({data['speedup_vs_reference']:>5.2f}x), "
                f"pairs {data['pairs_seconds']:>7.3f}s "
                f"({data['pairs_speedup_vs_reference']:>5.2f}x)"
            )
        headline = record["pairs_speedup"]
        print(
            f"  non-evaluate speedup: "
            f"{headline['reference_pairs_seconds']:.3f}s -> "
            f"{headline['parallel_pairs_seconds']:.3f}s "
            f"({headline['speedup']:.2f}x)"
        )
    assert len(records) == len(WORKLOADS)
    for record in records:
        assert record["level2_pairs_generated"] > 0, (
            f"{record['workload']} never reached the pair join"
        )
