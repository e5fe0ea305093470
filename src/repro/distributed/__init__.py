"""Simulated distributed execution for the scalability experiments.

The paper evaluates three parallelization strategies (Figure 7(b)):

* **MT-Ops** — multi-threaded operations only: each linear-algebra op is
  parallel internally but a barrier separates consecutive ops.
* **MT-PFor** — multi-threaded ops *plus* a parallel for-loop over slices,
  avoiding per-op barriers and reaching higher utilization (~2x).
* **Dist-PFor** — the parallel for-loop dispatched over cluster nodes with
  broadcast slices and data-local scans (~1.9x more), minus Spark context,
  broadcast, and aggregation overheads and a serial fraction.

We reproduce the *strategy semantics* with local executors
(:mod:`repro.distributed.executor`) over row partitions
(:mod:`repro.linalg.blocks`), and the *cluster effects* with an analytic
cost model (:mod:`repro.distributed.simulate`).  The executors run the
paper's blocked sparse kernel ``(X S^T) == L``
(:mod:`repro.distributed.sparse`), which also serves as the reference the
search's bitset kernel is checked against.
"""

from repro.distributed.executor import (
    DistributedPForExecutor,
    Executor,
    MTOpsExecutor,
    MTPForExecutor,
    SerialExecutor,
    make_executor,
)
from repro.distributed.partition import partition_work
from repro.distributed.simulate import ClusterCostModel, ClusterSpec
from repro.distributed.sparse import evaluate_block, indicator_equal

__all__ = [
    "DistributedPForExecutor",
    "Executor",
    "MTOpsExecutor",
    "MTPForExecutor",
    "SerialExecutor",
    "evaluate_block",
    "indicator_equal",
    "make_executor",
    "partition_work",
    "ClusterCostModel",
    "ClusterSpec",
]
