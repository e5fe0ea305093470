"""Parallelization strategies for slice evaluation (Section 4.4 / Figure 7b).

Evaluates one lattice level of candidates under the four execution
strategies — serial, MT-Ops (barrier per operation), MT-PFor (parallel
for-loop), and simulated Dist-PFor (broadcast-S / scan-local-X over
simulated workers) — verifies they produce identical statistics, and uses
the cluster cost model to project what a 12-node cluster would do.

Run:  python examples/distributed_scaleout.py
"""

import time

import numpy as np

from repro.core import FeatureSpace, SliceLineConfig, slice_line
from repro.core.basic import create_and_score_basic_slices
from repro.core.pairs import get_pair_candidates
from repro.datasets import load_dataset
from repro.distributed import ClusterCostModel, make_executor
from repro.distributed.simulate import WorkProfile
from repro.linalg import keys_to_csr

bundle = load_dataset("uscensus", scale=0.005, seed=0)
print(f"dataset: uscensus-like, n={bundle.num_rows}, m={bundle.num_features}")

space = FeatureSpace.from_matrix(bundle.x0)
x = space.encode(bundle.x0)
sigma = max(1, bundle.num_rows // 100)
basic = create_and_score_basic_slices(x, bundle.errors, sigma, alpha=0.95)
feature_map = np.searchsorted(space.ends, basic.selected_columns, side="right")
x_projected = x[:, basic.selected_columns].tocsr()
keys = get_pair_candidates(
    basic.slices, basic.stats, 2,
    num_rows=bundle.num_rows, total_error=float(bundle.errors.sum()),
    sigma=sigma, alpha=0.95, topk_min_score=0.0, feature_map=feature_map,
).keys
# The pair stage returns key rows; the executors take the 0/1 matrix S.
candidates = keys_to_csr(keys, x_projected.shape[1])
print(f"level-2 candidates to evaluate: {candidates.shape[0]}")

reference = None
for strategy, kwargs in [
    ("serial", {"block_size": 64}),
    ("mt-ops", {"num_threads": 4}),
    ("mt-pfor", {"num_threads": 4, "block_size": 64}),
    ("dist-pfor", {"num_nodes": 4, "executors_per_node": 2}),
]:
    executor = make_executor(strategy, **kwargs)
    started = time.perf_counter()
    stats = executor.evaluate(x_projected, bundle.errors, candidates, 2, 0.95)
    elapsed = time.perf_counter() - started
    if reference is None:
        reference = stats
        agreement = "reference"
    else:
        agreement = (
            "identical" if np.allclose(stats, reference) else "MISMATCH!"
        )
    print(f"  {strategy:10s} {elapsed * 1000:8.1f} ms  ({agreement})")

# -- project onto the paper's 1+12-node cluster with the cost model --------
serial_executor = make_executor("serial", block_size=64)
started = time.perf_counter()
serial_executor.evaluate(x_projected, bundle.errors, candidates, 2, 0.95)
serial_seconds = time.perf_counter() - started

work = WorkProfile(
    serial_compute_seconds=serial_seconds * 200,  # pretend 200 such rounds
    slice_matrix_mb=candidates.data.nbytes / 1e6,
    stats_mb=candidates.shape[0] * 4 * 8 / 1e6,
    num_jobs=3,
)
projection = ClusterCostModel().compare(work, num_threads=32)
print("\nprojected elapsed seconds on the paper's cluster shape "
      "(1+12 nodes, 32 vcores):")
for strategy, seconds in projection.items():
    print(f"  {strategy:10s} {seconds:8.2f} s")
print("expected shape: MT-PFor ~2x faster than MT-Ops; "
      "Dist-PFor ~1.9x faster again (Figure 7b).")

# For completeness: the same dataset end-to-end through the public API.
result = slice_line(
    bundle.x0, bundle.errors,
    SliceLineConfig(k=4, sigma=sigma, max_level=2, block_size=64),
    num_threads=4,
)
print(f"\nend-to-end top-1 slice: {result.top_slices[0].describe()} "
      f"(score {result.top_slices[0].score:+.3f})")
