"""DML/R-style linear-algebra primitives on numpy and scipy.sparse.

The SliceLine paper expresses its enumeration algorithm in the vocabulary of
an ML system's linear-algebra language (SystemDS DML / R): ``colMaxs``,
``cumsum``, ``table(rix, cix)``, ``upper.tri`` and friends.  This subpackage
implements the ones the core algorithm in :mod:`repro.core` runs on top of
numpy / scipy.sparse, so that algorithm can be written as a near-literal
transcription of Algorithm 1 of the paper.
"""

from repro.linalg.ops import (
    col_maxs,
    col_sums,
    one_hot_encode,
    pack_rows_mixed_radix,
    row_nnz,
    unique_sorted,
)
from repro.linalg.sparse import (
    as_csr,
    ensure_vector,
    keys_to_csr,
    to_dense,
    vstack_rows,
)
from repro.linalg.blocks import (
    BlockedMatrix,
    row_partitions,
)
from repro.linalg.kernels import (
    BitsetTable,
    KernelState,
    pack_bool_rows,
    popcount_rows,
    unpack_bool_rows,
    words_block_stats,
)
from repro.linalg.workspace import KernelWorkspace, resolve_workspace

__all__ = [
    "BitsetTable",
    "KernelState",
    "pack_bool_rows",
    "popcount_rows",
    "unpack_bool_rows",
    "words_block_stats",
    "col_maxs",
    "col_sums",
    "one_hot_encode",
    "pack_rows_mixed_radix",
    "row_nnz",
    "unique_sorted",
    "as_csr",
    "ensure_vector",
    "keys_to_csr",
    "to_dense",
    "vstack_rows",
    "BlockedMatrix",
    "row_partitions",
    "KernelWorkspace",
    "resolve_workspace",
]
