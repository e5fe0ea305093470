"""Executors realizing the paper's parallelization strategies locally.

Every executor exposes one method, :meth:`Executor.evaluate`, that computes
the per-slice statistics ``R`` for a set of candidate slices — the hot loop
of Algorithm 1 (lines 16-18).  The strategies differ in *how* the work is
scheduled:

* :class:`SerialExecutor` — reference single-threaded execution.
* :class:`MTOpsExecutor` — one data-parallel operation at a time over row
  partitions with a barrier per operation (SystemDS "MT-Ops").
* :class:`MTPForExecutor` — a parallel for-loop over slice blocks with no
  per-operation barriers (SystemDS "MT-PFor").
* :class:`DistributedPForExecutor` — slice blocks dispatched to simulated
  workers that own row partitions (broadcast-S, scan-local-X), surcharged
  by a :class:`~repro.distributed.simulate.ClusterCostModel` to account for
  broadcast/aggregation overheads the local simulation does not incur.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.core.scoring import score
from repro.core.types import stats_matrix
from repro.exceptions import ExecutionError, ValidationError
from repro.linalg import BlockedMatrix, as_csr, ensure_vector
from repro.distributed.partition import partition_work
from repro.distributed.sparse import evaluate_block, indicator_equal
from repro.obs import NULL_TRACER


class Executor:
    """Interface: compute the statistics matrix ``R`` for candidate slices.

    Every implementation reports one ``executor.<name>.evaluate`` span into
    the *tracer* (default: the shared no-op tracer) so scheduling strategies
    can be compared through the same observability pipeline as the driver.
    """

    name = "abstract"

    def evaluate(
        self,
        x_onehot: sp.csr_matrix,
        errors: np.ndarray,
        slices: sp.csr_matrix,
        level: int,
        alpha: float,
        tracer=NULL_TRACER,
    ) -> np.ndarray:
        raise NotImplementedError

    @staticmethod
    def _finalize(
        sizes: np.ndarray,
        slice_errors: np.ndarray,
        max_errors: np.ndarray,
        num_rows: int,
        total_error: float,
        alpha: float,
    ) -> np.ndarray:
        scores = score(sizes, slice_errors, num_rows, total_error, alpha)
        return stats_matrix(scores, slice_errors, max_errors, sizes)


@dataclass
class SerialExecutor(Executor):
    """Single-threaded reference execution (one data-parallel op)."""

    block_size: int = 16
    name = "serial"

    def evaluate(self, x_onehot, errors, slices, level, alpha, tracer=NULL_TRACER):
        errors = ensure_vector(errors, x_onehot.shape[0], "errors")
        slices = as_csr(slices)
        with tracer.span(
            "executor.serial.evaluate",
            num_slices=slices.shape[0],
            block_size=self.block_size,
        ):
            partials = [
                evaluate_block(x_onehot, errors, slices[r.start : r.stop], level)
                for r in partition_work(
                    slices.shape[0], max(1, -(-slices.shape[0] // self.block_size))
                )
            ]
            return self._concat(partials, x_onehot, errors, alpha)

    def _concat(self, partials, x_onehot, errors, alpha):
        if not partials:
            return np.zeros((0, 4))
        sizes = np.concatenate([p[0] for p in partials])
        slice_errors = np.concatenate([p[1] for p in partials])
        max_errors = np.concatenate([p[2] for p in partials])
        return self._finalize(
            sizes, slice_errors, max_errors, x_onehot.shape[0],
            float(errors.sum()), alpha,
        )


@dataclass
class MTOpsExecutor(Executor):
    """Multi-threaded *operations*: row-partition parallelism, per-op barrier.

    Each logical operation (the matmul/indicator, the size reduction, the
    error reduction, the max reduction) runs in parallel over row partitions
    of ``X`` and joins at a barrier before the next operation starts — the
    utilization loss the paper measures against MT-PFor.
    """

    num_threads: int = 4
    name = "mt-ops"

    def evaluate(self, x_onehot, errors, slices, level, alpha, tracer=NULL_TRACER):
        if self.num_threads < 1:
            raise ValidationError("num_threads must be >= 1")
        errors = ensure_vector(errors, x_onehot.shape[0], "errors")
        slices = as_csr(slices)
        blocked = BlockedMatrix.from_matrix(x_onehot, self.num_threads)
        ranges = blocked.block_row_ranges()
        st = slices.T.tocsc()

        with tracer.span(
            "executor.mt-ops.evaluate",
            num_slices=slices.shape[0],
            threads=self.num_threads,
            partitions=len(blocked.blocks),
        ), ThreadPoolExecutor(max_workers=self.num_threads) as pool:
            # Operation 1 (barrier): indicator per row partition.
            with tracer.span("mt-ops.indicator"):
                products = list(
                    pool.map(
                        lambda blk: indicator_equal(blk @ st, level), blocked.blocks
                    )
                )
            # Operation 2 (barrier): partial sizes.
            with tracer.span("mt-ops.sizes"):
                sizes = np.sum(
                    list(
                        pool.map(
                            lambda ind: np.asarray(ind.sum(axis=0)).ravel(), products
                        )
                    ),
                    axis=0,
                )
            # Operation 3 (barrier): partial errors.
            errs = [errors[start:stop] for start, stop in ranges]
            with tracer.span("mt-ops.errors"):
                slice_errors = np.sum(
                    list(
                        pool.map(
                            lambda pair: np.asarray(pair[0].T @ pair[1]).ravel(),
                            zip(products, errs),
                        )
                    ),
                    axis=0,
                )
            # Operation 4 (barrier): partial max errors.
            with tracer.span("mt-ops.max_errors"):
                max_errors = np.max(
                    list(
                        pool.map(
                            lambda pair: (
                                np.asarray(
                                    pair[0].multiply(pair[1][:, np.newaxis]).max(axis=0).todense()
                                ).ravel()
                                if pair[0].nnz
                                else np.zeros(pair[0].shape[1])
                            ),
                            zip(products, errs),
                        )
                    ),
                    axis=0,
                )
        return self._finalize(
            sizes, slice_errors, max_errors, x_onehot.shape[0],
            float(errors.sum()), alpha,
        )


@dataclass
class MTPForExecutor(Executor):
    """Multi-threaded parallel for-loop over slice blocks (no op barriers).

    Each worker owns a block of slices end to end (indicator + all three
    reductions), so there is exactly one join at the very end — the ~2x
    utilization win of Figure 7(b).
    """

    num_threads: int = 4
    block_size: int = 16
    name = "mt-pfor"

    def evaluate(self, x_onehot, errors, slices, level, alpha, tracer=NULL_TRACER):
        if self.num_threads < 1:
            raise ValidationError("num_threads must be >= 1")
        errors = ensure_vector(errors, x_onehot.shape[0], "errors")
        slices = as_csr(slices)
        num_slices = slices.shape[0]
        blocks = [
            slices[start : min(start + self.block_size, num_slices)]
            for start in range(0, num_slices, self.block_size)
        ]
        if not blocks:
            return np.zeros((0, 4))
        with tracer.span(
            "executor.mt-pfor.evaluate",
            num_slices=num_slices,
            threads=self.num_threads,
            blocks=len(blocks),
        ), ThreadPoolExecutor(max_workers=self.num_threads) as pool:
            partials = list(
                pool.map(lambda blk: evaluate_block(x_onehot, errors, blk, level), blocks)
            )
        sizes = np.concatenate([p[0] for p in partials])
        slice_errors = np.concatenate([p[1] for p in partials])
        max_errors = np.concatenate([p[2] for p in partials])
        return self._finalize(
            sizes, slice_errors, max_errors, x_onehot.shape[0],
            float(errors.sum()), alpha,
        )


@dataclass
class DistributedPForExecutor(Executor):
    """Simulated cluster execution: broadcast S, scan row partitions locally.

    ``X`` is partitioned over ``num_nodes * executors_per_node`` simulated
    workers (threads).  Every worker computes partial (size, error, max)
    vectors for *all* slices on its row partition — the broadcast-based
    distributed matmul of Section 4.4 — and partials are tree-aggregated.
    An optional :class:`ClusterCostModel` converts the measured local time
    into a simulated cluster time including broadcast/aggregation overheads
    (used by the Figure 7(b) benchmark; the returned ``R`` is exact either
    way).
    """

    num_nodes: int = 4
    executors_per_node: int = 2
    name = "dist-pfor"

    def evaluate(self, x_onehot, errors, slices, level, alpha, tracer=NULL_TRACER):
        workers = self.num_nodes * self.executors_per_node
        if workers < 1:
            raise ExecutionError("at least one simulated worker is required")
        errors = ensure_vector(errors, x_onehot.shape[0], "errors")
        slices = as_csr(slices)
        blocked = BlockedMatrix.from_matrix(x_onehot, workers)
        ranges = blocked.block_row_ranges()
        st = slices.T.tocsc()

        def worker(args):
            block, (start, stop) = args
            indicator = indicator_equal(block @ st, level)
            local_errors = errors[start:stop]
            partial_sizes = np.asarray(indicator.sum(axis=0)).ravel()
            partial_errors = np.asarray(indicator.T @ local_errors).ravel()
            if indicator.nnz:
                partial_max = np.asarray(
                    indicator.multiply(local_errors[:, np.newaxis]).max(axis=0).todense()
                ).ravel()
            else:
                partial_max = np.zeros(indicator.shape[1])
            return partial_sizes, partial_errors, partial_max

        with tracer.span(
            "executor.dist-pfor.evaluate",
            num_slices=slices.shape[0],
            workers=workers,
            num_nodes=self.num_nodes,
        ), ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(worker, zip(blocked.blocks, ranges)))
        sizes = np.sum([p[0] for p in partials], axis=0)
        slice_errors = np.sum([p[1] for p in partials], axis=0)
        max_errors = np.max([p[2] for p in partials], axis=0)
        return self._finalize(
            sizes, slice_errors, max_errors, x_onehot.shape[0],
            float(errors.sum()), alpha,
        )


def make_executor(strategy: str, **kwargs) -> Executor:
    """Factory: ``serial`` / ``mt-ops`` / ``mt-pfor`` / ``dist-pfor``."""
    registry = {
        "serial": SerialExecutor,
        "mt-ops": MTOpsExecutor,
        "mt-pfor": MTPForExecutor,
        "dist-pfor": DistributedPForExecutor,
    }
    if strategy not in registry:
        raise ExecutionError(
            f"unknown strategy {strategy!r}; expected one of {sorted(registry)}"
        )
    return registry[strategy](**kwargs)
