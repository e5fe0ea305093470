"""Figure 7: scalability with data size and parallelization strategy.

(a) row-wise replication of the USCensus-like dataset (1x..8x): runtime
grows near-linearly with mild deterioration (larger intermediates);
(b) MT-Ops vs MT-PFor vs simulated Dist-PFor on one evaluation round,
plus the analytic cluster cost model projecting the paper's 1+12-node
shape (MT-PFor ~2x over MT-Ops, Dist-PFor ~1.9x more).
"""

import time

import numpy as np

from repro.core import FeatureSpace, slice_line
from repro.core.basic import create_and_score_basic_slices
from repro.core.pairs import get_pair_candidates
from repro.datasets import replicate_dataset
from repro.distributed import ClusterCostModel, make_executor
from repro.distributed.simulate import WorkProfile
from repro.experiments import bench_config, format_table
from repro.linalg import keys_to_csr

from conftest import bench_dataset, run_once

REPLICATION_FACTORS = (1, 2, 4)


def test_fig7a_row_scalability(benchmark):
    bundle = bench_dataset("uscensus")
    rows = []
    base_seconds = None
    for factor in REPLICATION_FACTORS:
        x_rep, e_rep = replicate_dataset(
            bundle.x0, bundle.errors, row_factor=factor
        )
        # relative sigma preserves enumeration characteristics (paper setup)
        cfg = bench_config("uscensus", x_rep.shape[0], max_level=2)
        started = time.perf_counter()
        result = slice_line(x_rep, e_rep, cfg, num_threads=4)
        elapsed = time.perf_counter() - started
        if base_seconds is None:
            base_seconds = elapsed
        rows.append(
            {
                "replication": f"{factor}x",
                "rows": x_rep.shape[0],
                "seconds": round(elapsed, 3),
                "ideal": round(base_seconds * factor, 3),
                "evaluated": result.total_evaluated,
            }
        )
    print()
    print(format_table(rows, title="Figure 7(a): scalability with rows"))
    run_once(benchmark, lambda: None)  # keep this table in --benchmark-only runs

    # replication preserves the enumeration (same slices evaluated)
    assert len({r["evaluated"] for r in rows}) == 1
    # runtime grows with data size, within a loose factor of ideal scaling
    assert rows[-1]["seconds"] > rows[0]["seconds"]
    assert rows[-1]["seconds"] < 6 * rows[-1]["ideal"] + 1.0


def _evaluation_round(bundle):
    space = FeatureSpace.from_matrix(bundle.x0)
    x = space.encode(bundle.x0)
    sigma = max(1, bundle.num_rows // 100)
    basic = create_and_score_basic_slices(
        bundle.x0, space, bundle.errors, sigma, 0.95
    )
    fmap = np.searchsorted(space.ends, basic.selected_columns, side="right")
    keys = get_pair_candidates(
        basic.slices, basic.stats, 2,
        num_rows=bundle.num_rows, total_error=float(bundle.errors.sum()),
        sigma=sigma, alpha=0.95, topk_min_score=0.0, feature_map=fmap,
    ).keys
    # The executors take the 0/1 slice matrix S built from the keys.
    candidates = keys_to_csr(keys, basic.selected_columns.size)
    return x[:, basic.selected_columns].tocsr(), candidates


def test_fig7b_parallelization_strategies(benchmark):
    bundle = bench_dataset("uscensus")
    x_projected, candidates = _evaluation_round(bundle)
    rows = []
    reference = None
    for strategy, kwargs in [
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
        assert np.allclose(stats, reference)
        rows.append({"strategy": strategy, "seconds(local)": round(elapsed, 4)})

    # cluster-shape projection via the cost model
    work = WorkProfile(serial_compute_seconds=60.0, slice_matrix_mb=2.0,
                       stats_mb=1.0, num_jobs=3)
    projected = ClusterCostModel().compare(work, num_threads=32)
    for row in rows:
        row["seconds(cluster model)"] = round(projected[row["strategy"]], 2)
    print()
    print(format_table(rows, title="Figure 7(b): parallelization strategies"))
    run_once(benchmark, lambda: None)  # keep this table in --benchmark-only runs

    # the paper's ordering holds in the cost model
    assert projected["mt-pfor"] < projected["mt-ops"]
    assert projected["dist-pfor"] < projected["mt-pfor"]
    # and the relative factors are in the reported ballpark
    assert 1.3 < projected["mt-ops"] / projected["mt-pfor"] < 3.5
    assert 1.2 < projected["mt-pfor"] / projected["dist-pfor"] < 4.0


def test_fig7_benchmark_mt_pfor(benchmark):
    """Timed: one MT-PFor evaluation round on the USCensus-like dataset."""
    bundle = bench_dataset("uscensus")
    x_projected, candidates = _evaluation_round(bundle)
    executor = make_executor("mt-pfor", num_threads=4, block_size=64)
    out = benchmark.pedantic(
        lambda: executor.evaluate(x_projected, bundle.errors, candidates, 2, 0.95),
        rounds=2, iterations=1,
    )
    assert out.shape[0] == candidates.shape[0]
