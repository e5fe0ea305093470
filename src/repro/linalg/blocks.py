"""Block-partitioned matrices for the simulated distributed backend.

SystemDS executes distributed operations on block-partitioned
(``1K x 1K``) matrices spread over Spark executors.  For the scalability
experiments (Figure 7, Table 2) we model the same structure: a matrix is
split into row partitions, each partition is owned by a (simulated) worker,
and data-parallel operations map over partitions and merge partial results.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro._typing import Matrix
from repro.exceptions import ValidationError
from repro.linalg.sparse import as_csr


def row_partitions(num_rows: int, num_parts: int) -> list[tuple[int, int]]:
    """Split ``[0, num_rows)`` into *num_parts* contiguous ``(start, stop)`` ranges.

    Partition sizes differ by at most one row; empty partitions are dropped,
    so fewer ranges than *num_parts* may be returned for tiny matrices.
    """
    if num_parts <= 0:
        raise ValidationError("num_parts must be positive")
    bounds = np.linspace(0, num_rows, num_parts + 1).astype(np.int64)
    return [
        (int(bounds[i]), int(bounds[i + 1]))
        for i in range(num_parts)
        if bounds[i + 1] > bounds[i]
    ]


@dataclass
class BlockedMatrix:
    """A row-partitioned sparse matrix emulating a distributed collection.

    Each block plays the role of one HDFS/Spark partition.  Operations that
    the distributed slice evaluation needs — broadcast matrix multiply and
    per-block reductions — are provided as methods that map over blocks so an
    executor can schedule them independently.
    """

    blocks: list[sp.csr_matrix] = field(default_factory=list)

    @classmethod
    def from_matrix(cls, matrix: Matrix, num_parts: int) -> "BlockedMatrix":
        """Partition *matrix* row-wise into *num_parts* CSR blocks."""
        csr = as_csr(matrix)
        parts = row_partitions(csr.shape[0], num_parts)
        return cls(blocks=[csr[start:stop] for start, stop in parts])

    @property
    def shape(self) -> tuple[int, int]:
        if not self.blocks:
            return (0, 0)
        return (sum(b.shape[0] for b in self.blocks), self.blocks[0].shape[1])

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def block_row_ranges(self) -> list[tuple[int, int]]:
        """Global ``(start, stop)`` row range of each block."""
        ranges = []
        offset = 0
        for block in self.blocks:
            ranges.append((offset, offset + block.shape[0]))
            offset += block.shape[0]
        return ranges

    def to_matrix(self) -> sp.csr_matrix:
        """Reassemble the full matrix (the inverse of :meth:`from_matrix`)."""
        if not self.blocks:
            return sp.csr_matrix((0, 0))
        return sp.vstack(self.blocks, format="csr")

    def broadcast_matmul(self, other: Matrix) -> list[sp.csr_matrix]:
        """Per-block products ``block @ other`` (broadcast-based matmul).

        This mirrors the paper's "broadcast S to all nodes and scan X in a
        data-local manner": *other* plays the broadcast side, each returned
        entry is the partial result produced on one worker.
        """
        rhs = as_csr(other)
        if self.blocks and self.blocks[0].shape[1] != rhs.shape[0]:
            raise ValidationError(
                "broadcast_matmul: inner dimensions do not match"
            )
        return [block @ rhs for block in self.blocks]

    def map_reduce(self, mapper, reducer):
        """Apply *mapper* to every block and fold partials with *reducer*."""
        partials = [mapper(block) for block in self.blocks]
        if not partials:
            raise ValidationError("map_reduce over an empty BlockedMatrix")
        result = partials[0]
        for part in partials[1:]:
            result = reducer(result, part)
        return result
