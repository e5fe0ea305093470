"""Packed row bitsets: the evaluation kernel for ``(X S^T) == L``.

The enumeration's dominant cost is materializing, per level, the boolean
indicator ``I[i, s] = row i matches all L predicates of slice s`` and
reducing it to the Equation-10 vectors ``(ss, se, sm)``.  ``X`` is a 0/1
one-hot matrix, so the indicator of a slice is the AND of its predicate
columns.  Each one-hot column of ``X`` is a row bitset (``uint64`` words in
``np.packbits`` bit order, :class:`BitsetTable`); a candidate's indicator
is ``L-1`` word-wise ANDs of the table rows its keys name, and ``ss`` is a
popcount: no ``n x b`` float intermediate, no sparse product, and no slice
matrix ``S``.  The keys come straight from the pair stage (remapped only by
compaction's column view).

:func:`pack_coordinates` packs a table from the ``(row, column)``
coordinates of its ones.  The search packs one table per run, over the
valid basic-slice columns, straight from the integer codes
(:func:`repro.core.basic.create_and_score_basic_slices`), and every level
and warm-start seed reads column views of it; ``X`` is never built.
:meth:`BitsetTable.from_matrix` packs a given sparse 0/1 matrix through the
same packer.

The paper's own formulation, one blocked sparse product ``X @ S^T``
filtered by ``== L`` (Section 4.4), is the reference kernel of the
Figure 6(b)/7 executors in :mod:`repro.distributed.sparse`.  This kernel
is bitwise identical to it.  :meth:`BitsetTable.from_matrix` rejects any
stored value other than ``0.0`` or ``1.0``, where the two would differ.

Every level is evaluated against ``X`` alone, as in the paper (Eq. 10):
no indicator is carried from one level to the next.

Exactness.  The statistics equal the sparse reference kernel's bit for bit:

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
:mod:`repro.core.evaluate` sizes every candidate first: ``ss`` as above,
plus the number of members whose error is positive, a popcount of ``words
& positive_words`` (``positive_words`` packs ``errors > 0``; when every
error is positive that count is ``ss`` itself and no second popcount
runs).  The candidates whose exact-size bound can still reach the top-K
then go through the :class:`ErrorPlanes`: the errors rounded up to integer
multiples ``q`` of a power-of-two step, packed one bit of ``q`` per row
bitset.  ``sum_b 2**b * popcount(words & plane_b)`` is the exact integer
sum ``Q`` of a candidate's ``q``, and ``Q * step`` caps its ``se``.  Only
the candidates that still can reach the top-K go through
:func:`words_block_stats`.  Each candidate's statistics are computed in
isolation, so they do not depend on which other candidates share its
call.  The sequential sum above is also what makes both bounds
float-safe: a child's rows are a subset of each parent's, so its partial
sums never pass the parent's, and each partial sum stays at or below the
exactly representable ``Q_k * step`` of the rows summed so far (see
:func:`repro.core.scoring.score_at_exact_size`).

:class:`KernelState` holds one level's whole evaluation state: the table
(or column view) it reads, the level's errors coded once (the 0/1 bitset,
or, on the level's first size-first chunk, the bitset of ``errors > 0``
and the error planes) and the level's row coverage.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from repro.exceptions import ValidationError

#: Candidates per internal bitset work chunk.  Every candidate's statistics
#: are computed in isolation, so results cannot depend on the chunk grid.
BITSET_CHUNK = 8192

#: Resolution of :class:`ErrorPlanes`: the quantum is ``2**-ERROR_PLANE_BITS``
#: of the power of two above the largest error, so a quantized error is at
#: most ``2**ERROR_PLANE_BITS`` and needs one plane more than that.
ERROR_PLANE_BITS = 8
NUM_ERROR_PLANES = ERROR_PLANE_BITS + 1
#: The ``(low, high)`` plane ranges a size-first span reads, in order: the
#: top planes bound every candidate, and only their survivors read the rest
#: (on kdd98-wide this cuts the plane popcounts' time by about 40%).
PLANE_PASSES = ((4, NUM_ERROR_PLANES), (0, 4))
#: Holds one word's weighted plane counts, at most ``64 * (2**planes - 1)``.
_PLANE_WORD_DTYPE = np.min_scalar_type(64 * ((1 << NUM_ERROR_PLANES) - 1))

_POPCOUNT_LUT = np.unpackbits(
    np.arange(256, dtype=np.uint8)[:, np.newaxis], axis=1
).sum(axis=1, dtype=np.uint8)

_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")

#: float64 bit pattern of ``1.0`` (``+0.0`` is all zero bits).
_ONE_BITS = np.float64(1.0).view(np.uint64)

#: Most table bits :func:`pack_coordinates` spells out at once, one byte
#: each; a wider table is packed in blocks of whole columns.
PACK_BLOCK_BITS = 1 << 26


def num_packed_words(num_bits: int) -> int:
    """``uint64`` words needed for a *num_bits*-wide bitset row."""
    return -(-num_bits // 64)


def popcount_rows(words: np.ndarray) -> np.ndarray:
    """Per-row population count of a 2-D ``uint64`` word matrix (int64)."""
    return _popcount_words(words).sum(axis=1, dtype=np.int64)


def _popcount_words(words: np.ndarray) -> np.ndarray:
    """Population count of every ``uint64`` word (``uint8``, same shape)."""
    if _HAS_BITWISE_COUNT:
        return np.bitwise_count(words)
    return _popcount_words_lut(words)


def _popcount_words_lut(words: np.ndarray) -> np.ndarray:
    """Byte-LUT fallback of :func:`_popcount_words` for numpy < 2.0."""
    words = np.ascontiguousarray(words)
    return _POPCOUNT_LUT[words.view(np.uint8)].reshape(
        words.shape + (8,)
    ).sum(axis=-1, dtype=np.uint8)


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


def pack_coordinates(
    rows: np.ndarray, cols: np.ndarray, num_rows: int, num_cols: int
) -> np.ndarray:
    """Packed columns of the 0/1 matrix whose ones sit at ``(rows, cols)``.

    *rows* and *cols* are integer arrays that broadcast against each other
    (say, a column of row ids against an ``n x m`` array of column ids).
    Returns the ``(num_cols, num_packed_words(num_rows))`` ``uint64``
    words of :class:`BitsetTable`: row ``c`` is column ``c``'s row bitset,
    bit for bit what :func:`pack_bool_rows` gives for the column.  Each
    coordinate sets one bit, so a repeated coordinate is one member.  The
    bits are spelled out as bytes, at most :data:`PACK_BLOCK_BITS` at a
    time, and packed with ``np.packbits``.
    """
    num_words = num_packed_words(num_rows)
    bits = 64 * num_words
    if num_cols > 1 and num_cols * bits > PACK_BLOCK_BITS:
        block = max(1, PACK_BLOCK_BITS // bits)
        rows, cols = np.broadcast_arrays(rows, cols)
        parts = []
        for start in range(0, num_cols, block):
            stop = min(start + block, num_cols)
            inside = (cols >= start) & (cols < stop)
            parts.append(
                pack_coordinates(
                    rows[inside], cols[inside] - start, num_rows, stop - start
                )
            )
        return np.vstack(parts)
    index = np.multiply(cols, bits, dtype=np.int64)
    index += rows
    flags = np.zeros(num_cols * bits, dtype=bool)
    flags[index] = True
    return np.packbits(flags).view(np.uint64).reshape(num_cols, num_words)


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


class ErrorPlanes(NamedTuple):
    """Bit planes of the errors rounded up to a power-of-two quantum.

    Row ``i``'s error ``e`` becomes the integer ``q = ceil(e / step)``, so
    ``e <= q * step`` exactly, and ``words[b]`` is the row bitset of bit
    ``b`` of ``q``.  A candidate's :meth:`sums` over every plane is then
    ``Q``, the exact sum of its members' ``q``, and ``Q * step`` bounds
    its sequential error sum (the proof is in
    :func:`repro.core.scoring.score_at_exact_size`).
    """

    words: np.ndarray
    step: float

    def sums(self, words: np.ndarray, low: int, high: int) -> np.ndarray:
        """``sum_b 2**b * popcount(words & plane_b)`` over ``low <= b < high``.

        One int64 per row of *words*.  Over every plane this is ``Q``, the
        exact sum of the members' ``q``.  The planes below *low* add at
        most ``2**low - 1`` per member whose error is positive (``q = 0``
        exactly where ``e <= 0``).  The shifted counts are added per word
        and reduced per row once.
        """
        per_word = np.zeros(words.shape, dtype=_PLANE_WORD_DTYPE)
        for plane in range(low, high):
            counts = _popcount_words(words & self.words[plane])
            per_word += counts.astype(_PLANE_WORD_DTYPE) << plane
        return per_word.sum(axis=1, dtype=np.int64)


def pack_error_planes(errors: np.ndarray) -> ErrorPlanes | None:
    """:class:`ErrorPlanes` of a non-negative error vector.

    ``step = 2**(E - ERROR_PLANE_BITS)`` for the largest error ``M = m *
    2**E`` (``0.5 <= m < 1``), so every ``q <= 2**ERROR_PLANE_BITS``.  A
    power-of-two step makes ``e / step`` and ``q * step`` exact, except
    where the quotient underflows; ``q`` is bumped by one wherever ``q *
    step < e``, which catches exactly those rows.  Returns ``None`` when
    no error is positive or when ``step`` underflows to zero.
    """
    largest = float(errors.max()) if errors.size else 0.0
    if not largest > 0.0:
        return None
    step = float(np.ldexp(1.0, int(np.frexp(largest)[1]) - ERROR_PLANE_BITS))
    if step == 0.0:
        return None
    quanta = np.ceil(errors / step)
    with np.errstate(over="ignore"):
        quanta[quanta * step < errors] += 1.0
    quanta = quanta.astype(np.int64)
    bits = np.empty((NUM_ERROR_PLANES, errors.size), dtype=bool)
    for plane in range(NUM_ERROR_PLANES):
        np.not_equal(quanta & (1 << plane), 0, out=bits[plane])
    return ErrorPlanes(pack_bool_rows(bits), step)


def is_binary_matrix(matrix: sp.spmatrix) -> bool:
    """True when every stored entry is ``0.0`` or ``1.0`` (a 0/1 matrix).

    An explicitly stored zero is not a member, exactly as in the sparse
    product; any other value would make the AND of the columns differ
    from ``(X S^T) == L``.
    """
    data = matrix.data
    return bool(((data == 1.0) | (data == 0.0)).all())


class BitsetTable:
    """Packed row bitsets, one per one-hot column of the data matrix.

    ``words[c]`` is the bitset of rows where column ``c`` is set; a
    candidate slice's indicator is the AND of its predicate columns'
    bitsets.  The search packs one table per run
    (:func:`pack_coordinates`) and hands each level a view of the columns
    it references (:meth:`columns`).  :attr:`shape` is that of the data
    matrix, so a table stands in for it wherever only its shape is read.
    """

    def __init__(self, words: np.ndarray, num_rows: int) -> None:
        self.words = words
        self.num_rows = num_rows

    @property
    def nbytes(self) -> int:
        return int(self.words.nbytes)

    @property
    def shape(self) -> tuple[int, int]:
        """``(rows, columns)`` of the matrix the table packs."""
        return self.num_rows, int(self.words.shape[0])

    def columns(self, cols: np.ndarray) -> "BitsetTable":
        """The table of columns *cols*, in that order: a row gather of
        :attr:`words`, nothing repacked."""
        return BitsetTable(self.words[cols], self.num_rows)

    @classmethod
    def from_matrix(cls, matrix: sp.spmatrix) -> "BitsetTable":
        """Pack every column of a 0/1 *matrix*.

        Raises :class:`~repro.exceptions.ValidationError` when a stored
        value (after summing duplicate entries) is anything but ``0.0`` or
        ``1.0``: the AND of the columns is ``(X S^T) == L`` only for 0/1
        data.  An explicitly stored ``0.0`` sets no bit.  The stored ones
        go to :func:`pack_coordinates`.
        """
        num_rows, num_cols = matrix.shape
        csr = matrix.tocsr()
        if not csr.has_canonical_format:
            csr = csr.copy()
            csr.sum_duplicates()
        if not is_binary_matrix(csr):
            raise ValidationError(
                "the bitset kernel needs a 0/1 data matrix: a stored value "
                "other than 0.0 or 1.0 is not a one-hot membership"
            )
        rows = np.repeat(
            np.arange(num_rows, dtype=np.int64), np.diff(csr.indptr)
        )
        ones = csr.data != 0.0
        return cls(
            pack_coordinates(rows[ones], csr.indices[ones], num_rows, num_cols),
            num_rows,
        )

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
    error_words: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(ss, se, sm)`` of a block of candidate indicator bitsets.

    *error_words* is :func:`pack_binary_errors` of *errors*; when given,
    ``se`` and ``sm`` are popcounts of ``words & error_words`` and no
    membership is unpacked.  Bitwise identical to the sparse reference
    kernel either way (see the module docstring for the exactness
    argument).
    """
    num_slices = words.shape[0]
    counts = popcount_rows(words)
    sizes = counts.astype(np.float64)
    slice_errors = np.zeros(num_slices, dtype=np.float64)
    max_errors = np.zeros(num_slices, dtype=np.float64)
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
    return sizes, slice_errors, max_errors


def covered_rows(words: np.ndarray, num_rows: int) -> np.ndarray:
    """Boolean vector of the rows set in at least one bitset of *words*."""
    if not words.shape[0]:
        return np.zeros(num_rows, dtype=bool)
    return unpack_bool_rows(
        np.bitwise_or.reduce(words, axis=0)[np.newaxis, :], num_rows
    )[0]


class KernelState:
    """One level's whole evaluation state.

    :func:`~repro.core.algorithm.slice_line` owns one instance; per level
    it calls :meth:`begin_level` and, once the level is evaluated,
    :meth:`end_level`.  A one-off instance serves every other evaluation
    (:func:`~repro.core.evaluate.evaluate_slices` without one, and
    :func:`~repro.core.evaluate.evaluate_slice_set`), so all of them run
    one path.  Between the two calls the evaluation spans read
    :attr:`table`, :attr:`errors`, :attr:`error_words` and the
    :meth:`sizing_codes` (read-only, so worker threads may share them);
    only the caller's thread packs the sizing codes and writes
    :attr:`coverage`.
    """

    def __init__(self) -> None:
        self._clear()

    def _clear(self) -> None:
        self.table: BitsetTable | None = None
        self.errors: np.ndarray | None = None
        #: :func:`pack_binary_errors` of the errors: the popcount path
        self.error_words: np.ndarray | None = None
        #: rows matching >= 1 evaluated candidate, or ``None`` untracked
        self.coverage: np.ndarray | None = None
        self._sizing: tuple[np.ndarray | None, ErrorPlanes | None] | None = None

    def begin_level(
        self,
        x_eval: "BitsetTable | sp.spmatrix",
        level: int | None,
        errors: np.ndarray,
        track_rows: bool = False,
    ) -> None:
        """Take *x_eval*'s table and code *errors* for one level.

        A :class:`BitsetTable` (the search's column view) is used as is;
        a 0/1 matrix is packed (:meth:`BitsetTable.from_matrix`).  The 0/1
        check runs once per level: :attr:`error_words` is the errors'
        bitset when :func:`pack_binary_errors` takes them.  With
        *track_rows* the level's row coverage starts all False.  *level*
        changes nothing; it names the level being evaluated (``None`` for
        a mixed-level slice set), so a profiler that wraps this method can
        attribute the time per level.
        """
        self._clear()
        self.table = (
            x_eval if isinstance(x_eval, BitsetTable)
            else BitsetTable.from_matrix(x_eval)
        )
        self.errors = errors
        self.error_words = pack_binary_errors(errors)
        if track_rows:
            self.coverage = np.zeros(self.table.num_rows, dtype=bool)

    @property
    def binary(self) -> bool:
        """True when the level's errors take the 0/1 popcount path."""
        return self.error_words is not None

    def sizing_codes(self) -> tuple[np.ndarray | None, ErrorPlanes | None]:
        """``(positive_words, planes)`` of the errors, packed on first call.

        *positive_words* is the bitset of ``errors > 0``, or ``None`` when
        every error is positive (a candidate's positive members are then
        all its members); *planes* is :func:`pack_error_planes` of the
        errors.  Only size-first spans read them, so a level or slice set
        that sizes nothing first never packs them.
        """
        if self._sizing is None:
            positive = self.errors > 0
            self._sizing = (
                None if positive.all()
                else pack_bool_rows(positive[np.newaxis, :])[0],
                pack_error_planes(self.errors),
            )
        return self._sizing

    def end_level(self) -> np.ndarray | None:
        """Finish one level: drop its state and return its row coverage."""
        coverage = self.coverage
        self._clear()
        return coverage


__all__ = [
    "BITSET_CHUNK",
    "BitsetTable",
    "ERROR_PLANE_BITS",
    "ErrorPlanes",
    "KernelState",
    "NUM_ERROR_PLANES",
    "PACK_BLOCK_BITS",
    "PLANE_PASSES",
    "covered_rows",
    "is_binary_matrix",
    "num_packed_words",
    "pack_binary_errors",
    "pack_bool_rows",
    "pack_coordinates",
    "pack_error_planes",
    "popcount_rows",
    "unpack_bool_rows",
    "words_block_stats",
]
