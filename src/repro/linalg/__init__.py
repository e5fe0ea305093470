"""DML/R-style linear-algebra primitives on numpy and scipy.sparse.

The SliceLine paper expresses its enumeration algorithm in the vocabulary of
an ML system's linear-algebra language (SystemDS DML / R): ``colMaxs``,
``cumsum``, ``table(rix, cix)``, ``upper.tri`` and friends.  This subpackage
implements those primitives on top of numpy / scipy.sparse so the core
algorithm in :mod:`repro.core` can be written as a near-literal
transcription of Algorithm 1 of the paper.
"""

from repro.linalg.ops import (
    col_maxs,
    col_sums,
    contingency_table,
    cumsum,
    cumprod,
    iter_upper_tri_pair_chunks,
    one_hot_encode,
    pack_rows_mixed_radix,
    row_nnz,
    selection_matrix,
    unique_sorted,
    upper_tri_pairs,
    upper_tri_pairs_in_range,
)
from repro.linalg.sparse import (
    as_csr,
    density,
    ensure_vector,
    is_sparse,
    keys_to_csr,
    to_dense,
    vstack_rows,
)
from repro.linalg.blocks import (
    BlockedMatrix,
    cell_bounded_partitions,
    row_partitions,
)
from repro.linalg.kernels import (
    BACKENDS,
    BitsetTable,
    KernelState,
    choose_backend,
    pack_bool_rows,
    popcount_rows,
    unpack_bool_rows,
    words_block_stats,
)
from repro.linalg.workspace import KernelWorkspace, resolve_workspace

__all__ = [
    "BACKENDS",
    "BitsetTable",
    "KernelState",
    "choose_backend",
    "pack_bool_rows",
    "popcount_rows",
    "unpack_bool_rows",
    "words_block_stats",
    "col_maxs",
    "col_sums",
    "contingency_table",
    "cumsum",
    "cumprod",
    "iter_upper_tri_pair_chunks",
    "one_hot_encode",
    "pack_rows_mixed_radix",
    "row_nnz",
    "selection_matrix",
    "unique_sorted",
    "upper_tri_pairs",
    "upper_tri_pairs_in_range",
    "as_csr",
    "density",
    "ensure_vector",
    "is_sparse",
    "keys_to_csr",
    "to_dense",
    "vstack_rows",
    "BlockedMatrix",
    "cell_bounded_partitions",
    "row_partitions",
    "KernelWorkspace",
    "resolve_workspace",
]
