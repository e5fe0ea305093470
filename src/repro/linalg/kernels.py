"""Pluggable evaluation-kernel backends for the ``(X S^T) == L`` indicator.

The enumeration's dominant cost is materializing, per level, the boolean
indicator ``I[i, s] = row i matches all L predicates of slice s`` and
reducing it to the Equation-10 vectors ``(ss, se, sm)``.  Two backends
compute the same indicator two ways:

``sparse``
    The paper's formulation: one blocked sparse CSR x CSC product
    ``X @ S^T`` followed by ``== L`` filtering (see
    :mod:`repro.core.evaluate`).  Works for any data and is the fallback.
``bitset``
    For 0/1 data the indicator of a slice is the AND of its predicate
    columns.  Each one-hot column of ``X`` is packed into a row bitset
    (``np.packbits`` -> ``uint64`` words, :class:`BitsetTable`); a
    candidate's indicator is ``L-1`` word-wise ANDs of the table rows its
    keys name, and ``ss`` is a popcount — no ``n x b`` float intermediate,
    no sparse overhead.  :meth:`KernelState.chunk_words` takes the keys
    straight from the pair stage (remapped only by compaction), so this
    backend never builds the slice matrix ``S``.

Every level is evaluated against ``X`` alone, as in the paper (Eq. 10):
no indicator is carried from one level to the next.

Exactness.  The bitset backend is bitwise identical to the sparse path:

* ``ss`` is an exact integer (popcount) cast to float64.
* ``se``: scipy's ``indicator.T @ errors`` is a ``csc_matvec`` that
  accumulates each slice's member errors sequentially in ascending data-row
  order starting from ``0.0``.  The member ``(slice, row)`` pairs come
  from one ``np.flatnonzero`` scan of the unpacked, C-ordered indicator,
  which lists them in ``np.nonzero``'s order (slice by slice, rows
  ascending); the slice ids are the popcounts repeated, which relies on
  zero padding bits past ``num_rows`` no more than ``ss`` already does.
  ``np.bincount`` over those pairs is the same strict left-to-right C loop
  (``out[slice] += error`` in input order), and ``0.0 + e == e`` for every
  float, so the sums agree bit for bit.  ``np.sum`` or ``np.add.reduceat``
  would *not*: both reduce long runs pairwise, which rounds differently.
* ``sm`` replicates scipy's sparse column max, which includes the implicit
  zeros of any column that is not full: ``max(0, member max)`` unless the
  slice covers every row.  Max is order-independent, hence exact.

0/1 errors (the inaccuracy vector of a classifier) skip the unpacking.
When every error is exactly ``+0.0`` or ``1.0`` — checked on the float64
bit patterns, so ``-0.0``, ``0.5`` or ``2.0`` anywhere keeps the path
above — the errors are packed once into a row bitset ``E``
(:func:`pack_binary_errors`) and a slice's statistics are popcounts:

* ``se = popcount(words & E)``: csc_matvec adds the slice's members' 0/1
  errors to ``0.0`` one by one, and every partial sum is an integer below
  ``2**53``, so each addition is exact and the sum equals the count of
  members whose error is ``1.0``, in any order.
* ``sm = (se > 0)``: the members' errors lie in ``{+0.0, 1.0}``, so their
  max is ``1.0`` exactly when some member's error is ``1.0`` and ``+0.0``
  otherwise; the implicit-zero rule ``max(0, ...)`` changes neither value,
  and an empty slice has ``se = sm = 0.0`` on both paths.

Size first.  For other errors at the last level,
:mod:`repro.core.evaluate` runs :func:`words_block_sizes` over every
candidate first: ``ss`` as above, plus a popcount of ``words &
positive_words`` (``positive_words`` packs ``errors > 0``).  Only the
candidates that can still reach the top-K then go through
:func:`words_block_stats`.  Each candidate's statistics are computed in
isolation, so they do not depend on which other candidates share its
call.  The sequential sum above is also what makes the exact-size bound
float-safe: a child's rows are a subset of each parent's, so its partial
sums never pass the parent's (see
:func:`repro.core.scoring.score_at_exact_size`).

The per-level :func:`choose_backend` cost model keeps the sparse path for
non-0/1 data, tiny workloads (where packing costs more than it saves), and
whenever the packed table would exceed its byte cap, so ``auto`` never
selects a backend whose preconditions do not hold.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.exceptions import ValidationError

#: Recognized values of the ``kernel_backend`` option.
BACKENDS = ("auto", "sparse", "bitset")

#: Minimum indicator work (``num_rows * num_candidates`` cells) before
#: ``auto`` leaves the sparse path — below this, packing dominates.
MIN_BITSET_CELLS = 1 << 15
#: Minimum candidate count before ``auto`` builds a column bitset table.
MIN_BITSET_CANDIDATES = 64
#: Byte cap for the per-level packed column table (``auto``/explicit
#: requests fall back to sparse when the table would exceed it).
MAX_TABLE_BYTES = 256 * 1024 * 1024

#: Candidates per internal bitset work chunk.  Chunking is independent of
#: the caller's ``block_size`` because every candidate's statistics are
#: computed in isolation — results cannot depend on the chunk grid.
BITSET_CHUNK = 8192

_POPCOUNT_LUT = np.unpackbits(
    np.arange(256, dtype=np.uint8)[:, np.newaxis], axis=1
).sum(axis=1, dtype=np.uint8)

_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")

#: float64 bit pattern of ``1.0`` (``+0.0`` is all zero bits).
_ONE_BITS = np.float64(1.0).view(np.uint64)


def num_packed_words(num_bits: int) -> int:
    """``uint64`` words needed for a *num_bits*-wide bitset row."""
    return -(-num_bits // 64)


def popcount_rows(words: np.ndarray) -> np.ndarray:
    """Per-row population count of a 2-D ``uint64`` word matrix (int64)."""
    if words.shape[1] == 0:
        return np.zeros(words.shape[0], dtype=np.int64)
    if _HAS_BITWISE_COUNT:
        return np.bitwise_count(words).sum(axis=1, dtype=np.int64)
    return _popcount_rows_lut(words)


def _popcount_rows_lut(words: np.ndarray) -> np.ndarray:
    """Byte-LUT popcount fallback for numpy without ``np.bitwise_count``."""
    return _POPCOUNT_LUT[
        np.ascontiguousarray(words).view(np.uint8)
    ].sum(axis=1, dtype=np.int64)


def pack_bool_rows(rows: np.ndarray) -> np.ndarray:
    """Pack boolean rows into ``uint64`` words (``np.packbits`` bit order).

    The byte stream of each packed row is ``np.packbits(row)`` zero-padded
    to a multiple of 8 bytes, then viewed as ``uint64`` — AND/OR/popcount
    act bit-parallel, so the words' integer values (which depend on host
    endianness) never matter, and :func:`unpack_bool_rows` inverts the
    packing exactly by viewing the words back as bytes.
    """
    num_rows, num_bits = rows.shape
    if num_bits == 0:
        return np.zeros((num_rows, 0), dtype=np.uint64)
    packed = np.packbits(rows, axis=1)
    pad = (-packed.shape[1]) % 8
    if pad:
        packed = np.pad(packed, ((0, 0), (0, pad)))
    return np.ascontiguousarray(packed).view(np.uint64)


def unpack_bool_rows(words: np.ndarray, num_bits: int) -> np.ndarray:
    """Invert :func:`pack_bool_rows` back to a boolean ``(rows, num_bits)``."""
    if num_bits == 0 or words.shape[1] == 0:
        return np.zeros((words.shape[0], num_bits), dtype=bool)
    return np.unpackbits(
        np.ascontiguousarray(words).view(np.uint8), axis=1, count=num_bits
    ).view(np.bool_)


def pack_binary_errors(errors: np.ndarray) -> np.ndarray | None:
    """Row bitset of a 0/1 error vector, or ``None`` for any other vector.

    Returns the packed ``uint64`` words of ``errors == 1.0`` when every
    entry's bit pattern is that of ``+0.0`` or ``1.0``.  ``-0.0`` and every
    other value return ``None``, which keeps the general path (see the
    module docstring for why the popcount path is exact).
    """
    bits = np.ascontiguousarray(errors, dtype=np.float64).view(np.uint64)
    ones = bits == _ONE_BITS
    if not np.all(ones | (bits == 0)):
        return None
    return pack_bool_rows(ones[np.newaxis, :])[0]


def estimate_table_bytes(num_rows: int, num_cols: int) -> int:
    """Bytes of the packed column table for an ``num_rows x num_cols`` X."""
    return num_cols * num_packed_words(num_rows) * 8


def is_binary_matrix(matrix: sp.spmatrix) -> bool:
    """True when every stored entry equals ``1.0`` (a 0/1 matrix).

    The bitset formulation models ``(X S^T) == L`` as per-column AND only
    for 0/1 data; anything else must stay on the sparse path.
    """
    data = matrix.data
    return data.size == 0 or bool((data == 1.0).all())


class BitsetTable:
    """Packed row bitsets, one per one-hot column of the data matrix.

    ``words[c]`` is the bitset of rows where column ``c`` is set; a
    candidate slice's indicator is the AND of its predicate columns'
    bitsets.  Built per level from the (possibly compacted) evaluation
    matrix in bounded column chunks so the dense transient stays small.
    """

    def __init__(self, words: np.ndarray, num_rows: int) -> None:
        self.words = words
        self.num_rows = num_rows

    @property
    def nbytes(self) -> int:
        return int(self.words.nbytes)

    @classmethod
    def from_matrix(
        cls, matrix: sp.spmatrix, col_chunk: int = 1024
    ) -> "BitsetTable":
        num_rows, num_cols = matrix.shape
        csc = matrix.tocsc()
        blocks = []
        for start in range(0, num_cols, col_chunk):
            dense = csc[:, start : start + col_chunk].toarray()
            blocks.append(pack_bool_rows(np.ascontiguousarray(dense.T) != 0))
        if blocks:
            words = np.vstack(blocks)
        else:
            words = np.zeros((0, num_packed_words(num_rows)), dtype=np.uint64)
        return cls(words, num_rows)

    def candidate_words(self, keys: np.ndarray) -> np.ndarray:
        """AND the column bitsets of each key row (``num_cands x L``)."""
        # Fancy indexing yields a fresh array, so the ANDs run in place.
        words = self.words[keys[:, 0]]
        for column in range(1, keys.shape[1]):
            words &= self.words[keys[:, column]]
        return words


def words_block_stats(
    words: np.ndarray,
    errors: np.ndarray,
    num_rows: int,
    track_rows: bool = False,
    error_words: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """``(ss, se, sm, row-any)`` of a block of candidate indicator bitsets.

    *error_words* is :func:`pack_binary_errors` of *errors*; when given,
    ``se`` and ``sm`` are popcounts of ``words & error_words`` and no
    membership is unpacked.  Bitwise identical to the sparse
    ``_block_stats`` either way (see the module docstring for the
    exactness argument).
    """
    num_slices = words.shape[0]
    counts = popcount_rows(words)
    sizes = counts.astype(np.float64)
    slice_errors = np.zeros(num_slices, dtype=np.float64)
    max_errors = np.zeros(num_slices, dtype=np.float64)
    covered: np.ndarray | None = None
    if error_words is not None:
        error_counts = popcount_rows(words & error_words)
        slice_errors = error_counts.astype(np.float64)
        max_errors = (error_counts > 0).astype(np.float64)
    elif num_slices and counts.any():
        # One flat scan of the C-ordered indicator lists the memberships in
        # np.nonzero's order: slice by slice, rows ascending.  Padding bits
        # past num_rows are zero (as `counts` already assumes), so slice i
        # owns exactly counts[i] consecutive entries of `flat`.
        flat = np.flatnonzero(unpack_bool_rows(words, num_rows))
        slice_idx = np.repeat(np.arange(num_slices), counts)
        member_errors = errors[flat - slice_idx * num_rows]
        # bincount's C loop (`out[slice] += error` in input order) performs
        # the exact per-slice sequential additions of scipy's csc_matvec;
        # add.reduceat would round differently (pairwise) on long slices.
        slice_errors = np.bincount(
            slice_idx, weights=member_errors, minlength=num_slices
        )
        offsets = np.zeros(num_slices + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        # reduceat treats an empty segment as [start, start+1); passing only
        # the starts of non-empty segments sidesteps that — consecutive
        # non-empty starts delimit exactly the member runs.  Max is order-
        # independent, so reduceat is exact here.
        nonempty = np.flatnonzero(counts > 0)
        starts = offsets[nonempty]
        member_max = np.maximum.reduceat(member_errors, starts)
        partial = counts[nonempty] < num_rows
        max_errors[nonempty] = np.where(
            partial, np.maximum(member_max, 0.0), member_max
        )
    if track_rows:
        covered = _covered_rows(words, num_rows)
    return sizes, slice_errors, max_errors, covered


def words_block_sizes(
    words: np.ndarray,
    positive_words: np.ndarray,
    num_rows: int,
    track_rows: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """``(ss, positives, row-any)`` of a block of candidate indicator bitsets.

    The sizing pass of a size-first evaluation: ``ss`` exactly as
    :func:`words_block_stats` computes it, and per candidate the number of
    members whose error is positive, a popcount of ``words &
    positive_words`` (*positive_words* packs ``errors > 0``).  No error is
    summed.
    """
    sizes = popcount_rows(words).astype(np.float64)
    positives = popcount_rows(words & positive_words)
    covered = _covered_rows(words, num_rows) if track_rows else None
    return sizes, positives, covered


def _covered_rows(words: np.ndarray, num_rows: int) -> np.ndarray:
    """Boolean vector of the rows set in at least one bitset of *words*."""
    if not words.shape[0]:
        return np.zeros(num_rows, dtype=bool)
    return unpack_bool_rows(
        np.bitwise_or.reduce(words, axis=0)[np.newaxis, :], num_rows
    )[0]


def choose_backend(
    requested: str,
    *,
    num_rows: int,
    num_cols: int,
    num_candidates: int,
    binary_data: bool,
    max_table_bytes: int | None = None,
) -> str:
    """Resolve the backend for one level's evaluation (the cost model).

    Preconditions are enforced here, not merely preferred: non-0/1 data
    always runs sparse, and ``bitset`` needs the packed table to fit its
    byte cap.  ``auto`` additionally requires the indicator work to clear
    :data:`MIN_BITSET_CELLS` and :data:`MIN_BITSET_CANDIDATES` so tiny
    levels keep the cheap sparse path.
    """
    if requested not in BACKENDS:
        raise ValidationError(
            f"unknown kernel backend {requested!r}; expected one of {BACKENDS}"
        )
    if requested == "sparse" or not binary_data:
        return "sparse"
    cap = MAX_TABLE_BYTES if max_table_bytes is None else max_table_bytes
    fits = estimate_table_bytes(num_rows, num_cols) <= cap
    if requested == "bitset":
        return "bitset" if fits else "sparse"
    cells = num_rows * num_candidates
    if fits and cells >= MIN_BITSET_CELLS and num_candidates >= MIN_BITSET_CANDIDATES:
        return "bitset"
    return "sparse"


class KernelState:
    """Per-run backend request and the current level's packed column table.

    The enumeration driver owns one instance; per level it calls
    :meth:`begin_level` (which runs the cost model and builds the packed
    column table when needed) and :meth:`end_level` (which drops the
    table).  Between those, the evaluation kernels call :meth:`chunk_words`
    to materialize candidate indicator bitsets.
    """

    def __init__(self, backend: str = "auto") -> None:
        if backend not in BACKENDS:
            raise ValidationError(
                f"unknown kernel backend {backend!r}; expected one of {BACKENDS}"
            )
        self.requested = backend
        self.backend = "sparse"
        self.table: BitsetTable | None = None

    def begin_level(
        self, x_eval: sp.spmatrix, level: int, num_candidates: int
    ) -> str:
        """Choose and prepare the backend for one level; returns its name."""
        num_rows, num_cols = x_eval.shape
        self.backend = choose_backend(
            self.requested,
            num_rows=num_rows,
            num_cols=num_cols,
            num_candidates=num_candidates,
            binary_data=is_binary_matrix(x_eval),
        )
        self.table = (
            BitsetTable.from_matrix(x_eval) if self.backend == "bitset" else None
        )
        return self.backend

    def chunk_words(self, keys: np.ndarray) -> np.ndarray:
        """Indicator bitsets for one candidate chunk.

        *keys* are a slice of the level's key array (``num_cands x L``
        sorted predicate-column ids) exactly as the pair stage emitted it,
        remapped to the compacted columns when compaction is on.
        Read-only, so worker threads may share it.
        """
        return self.table.candidate_words(keys)

    def end_level(self) -> None:
        """Finish one level: drop its packed column table."""
        self.table = None


__all__ = [
    "BACKENDS",
    "BITSET_CHUNK",
    "MAX_TABLE_BYTES",
    "MIN_BITSET_CANDIDATES",
    "MIN_BITSET_CELLS",
    "BitsetTable",
    "KernelState",
    "choose_backend",
    "estimate_table_bytes",
    "is_binary_matrix",
    "num_packed_words",
    "pack_binary_errors",
    "pack_bool_rows",
    "popcount_rows",
    "unpack_bool_rows",
    "words_block_sizes",
    "words_block_stats",
]
