"""Exact dense linear algebra over the prime field GF(D), D an odd prime.

Provides ``FieldSpec``, ``MatGF`` (a read-only matrix that keeps its
echelon forms and shares them with its transposes), rank, kernel,
inverse, uniform invertible sampling, the text format, batched
ranks (``rank_batch``), the one enumeration of a span
(``line_blocks``), of the vectors of a fixed weight (``_weight_blocks``)
and of a product of row codes (``_rank_walk``, for the whole-block rank
tables and the count oracles).  Every result is exact: ranks, kernels,
inverses and products are the same integers as in exact arithmetic mod D.
Outside ``gf`` no module multiplies or reduces residues by hand, and
every caller array enters through ``_int64_entries``.

Exactness bounds, each argued where it is used:

- Field orders lie below ``ORDER_LIMIT`` = 2**16 (``FieldSpec``), so a
  sum of k < 2**31 products of two residues stays below 2**63 in int64.
- Eliminations run in ``_work_dtype``, int16 for D <= 181 and int64
  above, whose bound ``_row_reduce``, ``rank_batch`` and
  ``_gauss_jordan_batch`` keep.
- Products run in float64 only while every partial sum stays below
  2**53 (``_matmul``).
- Span sums run in the smallest unsigned type holding 2D - 2
  (``_add_residues``, for ``line_blocks``).
- Packed weights hold bit_length(D - 1) bits a coordinate in uint64
  words (``_line_weights``).
- Subspace-table indices stay below the table's cell count, in int32
  (``_table_rank``).

Factor size: ``_SMALL_CELLS`` = 150 cells is the one size rule of the
kernels, read by ``_row_reduce``, ``_matmul`` and ``_mod``; each
documents what it does on either side.

Caps, each refused with ValueError before any work:

- ``ENUMERATION_LIMIT`` = 10**7 vectors or matrices for every
  exhaustive enumeration (rank censuses, exhaustive distances and
  probabilities), counted over the whole space, p**t for a span of t
  rows, although a line walk visits (p**t - 1) / (p - 1) of them
  (``_check_enumeration``).  The Monte Carlo kernel search walks no
  span; the same cap bounds its coefficient vectors.
- ``_TABLE_CELLS_LIMIT`` = 2**22 states x codes for a subspace table
  (``_table_fits``): GF(3)^5 and GF(5)^4 fit, GF(3)^6 does not.

Format: a matrix is one header line ``D nrows ncols`` followed by
``nrows`` lines of residues.  The writer (``matrix_to_text``) emits
canonical text, single spaces, no leading zeros and ``\n`` after
every row; the reader (``matrix_from_text``) accepts any whitespace
and any token ``int()`` reads.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "FieldSpec",
    "MatGF",
    "rank",
    "kernel_basis",
    "inverse",
    "random_invertible",
    "row_weights",
    "col_weights",
    "matrix_to_text",
    "matrix_from_text",
    "rank_batch",
    "line_blocks",
]


# Field orders must lie below this bound; see the module docstring.
ORDER_LIMIT = 1 << 16


def _is_prime(v: int) -> bool:
    if v < 2:
        return False
    i = 2
    while i * i <= v:
        if v % i == 0:
            return False
        i += 1
    return True


@dataclass(frozen=True)
class FieldSpec:
    """The prime field GF(order) for an odd prime 3 <= order < 2**16.

    Orders from ``ORDER_LIMIT`` on are refused: their int64 products
    could overflow and answer wrongly.
    """

    order: int

    def __post_init__(self) -> None:
        if not isinstance(self.order, int) or self.order < 3:
            raise ValueError(f"field order must be an odd prime >= 3, got {self.order!r}")
        if self.order >= ORDER_LIMIT:
            raise ValueError(
                f"field order must be below 2^16 = {ORDER_LIMIT} for exact int64 "
                f"arithmetic, got {self.order}"
            )
        if not _is_prime(self.order):
            raise ValueError(f"field order must be an odd prime >= 3, got {self.order!r}")


def _int64_entries(data) -> np.ndarray:
    """``data`` as a new int64 array.  Raises ValueError for an entry
    that is not an integer of int64 range, so none is truncated, parsed
    from text or wrapped; an integral float is an integer."""
    arr = np.asarray(data)
    kind = arr.dtype.kind
    if kind in "biu" and (arr.dtype != np.uint64 or not arr.size or arr.max() < 1 << 63):
        return arr.astype(np.int64)
    ints = []
    for v in arr.ravel().tolist():
        try:
            i = int(v) if kind in "fuO" else None
        except (TypeError, ValueError, OverflowError):
            i = None
        if i is None or i != v or not -(1 << 63) <= i < 1 << 63:
            raise ValueError(f"entries must be integers of int64 range, got {v!r}")
        ints.append(i)
    return np.array(ints, dtype=np.int64).reshape(arr.shape)


class MatGF:
    """A dense matrix over GF(D) with entries held reduced mod D.

    The constructor takes integer entries, reduced mod D, and refuses
    any other (``_int64_entries``).  The underlying array is marked
    read-only; every operation returns a fresh matrix.  ``@`` acts mod D
    and requires matching fields; with an array on the right, read by
    the constructor's rule, it returns the int64 product mod D.
    ``_reduced=True`` is for library code holding an int64 array already
    reduced mod D: it is taken without a copy and marked read-only, so
    the caller must not write to it (or to an array it views) afterwards.

    Echelon sharing.  A matrix computes the reduced row echelon form of
    an orientation at most once, on the first ``rank`` or
    ``kernel_basis`` that needs it, and keeps its nonzero rows
    (read-only, in ``_work_dtype``).  ``_echelon`` is a two-slot list
    shared by reference with every ``.T`` of the matrix (``.T.T``
    included): slot ``_side`` holds this orientation's form and the
    other slot its transpose's.  So each orientation is eliminated at
    most once among them all, ``rank`` reads whichever slot is filled
    (rank A = rank A^T), and a block ranked as ``d.T`` yields the
    kernel of ``d.T`` with no second elimination.  The list holds
    arrays only, never another matrix, so no reference cycle keeps a
    matrix alive.
    """

    __slots__ = ("field", "_data", "_echelon", "_side")

    def __init__(self, field: FieldSpec, data, *, _reduced: bool = False):
        if _reduced:
            arr = np.asarray(data, dtype=np.int64)
        else:
            arr = _int64_entries(data) % field.order
        if arr.ndim != 2:
            raise ValueError("matrix data must be two-dimensional")
        arr.flags.writeable = False
        self.field = field
        self._data = arr
        self._echelon: list[tuple[np.ndarray, np.ndarray] | None] = [None, None]
        self._side = 0

    @classmethod
    def zeros(cls, field: FieldSpec, rows: int, cols: int) -> "MatGF":
        return cls(field, np.zeros((rows, cols), dtype=np.int64), _reduced=True)

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "MatGF":
        return cls(field, np.eye(n, dtype=np.int64), _reduced=True)

    @property
    def data(self) -> np.ndarray:
        """Read-only int64 view of the entries."""
        return self._data

    @property
    def rows(self) -> int:
        return self._data.shape[0]

    @property
    def cols(self) -> int:
        return self._data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._data.shape

    @property
    def T(self) -> "MatGF":
        t = MatGF(self.field, self._data.T, _reduced=True)
        t._echelon, t._side = self._echelon, 1 - self._side
        return t

    def _check_field(self, other: "MatGF") -> None:
        if self.field != other.field:
            raise ValueError(f"field mismatch: GF({self.field.order}) vs GF({other.field.order})")

    def __matmul__(self, other):
        p = self.field.order
        if isinstance(other, MatGF):
            self._check_field(other)
            if self.cols != other.rows:
                raise ValueError(f"shape mismatch for @: {self.shape} and {other.shape}")
            return MatGF(self.field, _matmul(self._data, other._data, p), _reduced=True)
        return _matmul(self._data, _mod(_int64_entries(other), p), p)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MatGF):
            return NotImplemented
        return (
            self.field == other.field
            and self.shape == other.shape
            and bool(np.array_equal(self._data, other._data))
        )

    __hash__ = None

    def is_zero(self) -> bool:
        return not self._data.any()

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "MatGF":
        """The given rows and columns, in the given order.  An index
        that is not an integer (``_int64_entries``) or lies outside the
        matrix, a negative one included, is refused with ValueError, not
        truncated or wrapped."""
        picks = []
        for idx, size, axis in ((row_idx, self.rows, "row"), (col_idx, self.cols, "column")):
            idx = _int64_entries(idx)
            if idx.size and not 0 <= idx.min() <= idx.max() < size:
                raise ValueError(f"{axis} indices must lie in [0, {size}), got {idx.tolist()}")
            picks.append(idx)
        return MatGF(self.field, self._data[np.ix_(*picks)], _reduced=True)

    def __repr__(self) -> str:
        return f"MatGF(GF({self.field.order}), {self.rows}x{self.cols})"

    def _rref(self) -> tuple[np.ndarray, np.ndarray]:
        """(rref, pivots) of this orientation: the nonzero rows of
        :func:`_row_reduce`'s form and its pivot columns as an intp
        array, both read-only, computed once and kept in this
        orientation's slot (see the class docstring)."""
        echelon = self._echelon[self._side]
        if echelon is None:
            rref, pivots = _row_reduce(self._data, self.field.order)
            echelon = self._echelon[self._side] = (
                _read_only(rref[: len(pivots)]),
                _read_only(np.array(pivots, dtype=np.intp)),
            )
        return echelon


# Factor size: on an array of at most this many cells numpy's fixed cost
# per call exceeds the arithmetic, so _row_reduce eliminates it as
# Python-int rows, _matmul multiplies it in int64 and _mod takes one %.
_SMALL_CELLS = 150


def _row_reduce(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of ``a`` mod p, in :func:`_work_dtype`,
    and the pivot column list.

    Pivots are the first nonzero entry scanning down each column.  Two
    loops apply this rule, and the rref is unique, so both return the
    same C-contiguous array.  A matrix of at most ``_SMALL_CELLS`` cells
    is eliminated as a list of Python-int rows, exact for every p
    (:func:`_row_reduce_small`), in place of the numpy loop's some 15
    calls per pivot.  A larger one is eliminated in numpy, in
    :func:`_work_dtype`, each step subtracting a residue times a
    residue from a residue.  A pivot at
    column c touches only columns c.. of the pivot row and of the rows
    nonzero there, in a C-contiguous work array whatever the layout of
    ``a``, so every row update is a contiguous slice.
    """
    a = np.asarray(a, dtype=np.int64)
    if a.size <= _SMALL_CELLS:
        return _row_reduce_small(a, p)
    m = _mod(a, p).astype(_work_dtype(p), order="C", copy=False)
    nrows, ncols = m.shape
    inv = _inverse_table(p)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = m[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        if nz[0]:
            pr = r + int(nz[0])
            m[r, c:], m[pr, c:] = m[pr, c:], m[r, c:].copy()
        lead = int(m[r, c])
        if lead != 1:
            m[r, c:] = _mod(m[r, c:] * int(inv[lead]), p)
        col = m[:, c].copy()
        col[r] = 0
        others = col.nonzero()[0]
        if others.size:
            upd = np.multiply.outer(col[others], m[r, c:])
            m[others, c:] = _mod(np.subtract(m[others, c:], upd, out=upd), p)
        pivots.append(c)
        r += 1
    return m, pivots


def _row_reduce_small(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """:func:`_row_reduce` of a small int64 matrix, on Python-int rows:
    exact for every p, with the same pivot rule, rref and pivots.  Rows
    are replaced whole, since slicing costs more than it saves here."""
    nrows, ncols = a.shape
    m = [[v % p for v in row] for row in a.tolist()]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        for pr in range(r, nrows):
            if m[pr][c]:
                break
        else:
            continue
        row = m[pr]
        m[pr] = m[r]
        lead = row[c]
        if lead != 1:
            inv = pow(lead, -1, p)
            row = [v * inv % p for v in row]
        m[r] = row
        for i in range(nrows):
            f = m[i][c]
            if f and i != r:
                m[i] = [(v - f * w) % p for v, w in zip(m[i], row)]
        pivots.append(c)
        r += 1
    return np.array(m, dtype=_work_dtype(p)).reshape(nrows, ncols), pivots


def rank(m: MatGF) -> int:
    """Rank of ``m`` over its field, read off a kept echelon form of
    either orientation (see ``MatGF``), else computed and kept."""
    kept = m._echelon[m._side] or m._echelon[1 - m._side] or m._rref()
    return len(kept[1])


def kernel_basis(m: MatGF) -> np.ndarray:
    """Basis of the right kernel {v : m v = 0}, one row per vector of a
    (t, cols) int64 array.

    Computed from the reduced row echelon form: each non-pivot column f
    contributes the vector with 1 at f and -rref[i, f] at the i-th pivot
    column.  Rows are ordered by free-column index, so the basis is
    deterministic for a fixed input.
    """
    p = m.field.order
    rref, pivots = m._rref()
    is_free = np.ones(m.cols, dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
    basis = np.zeros((len(free), m.cols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = (-rref[:, free].T) % p
    return basis


def inverse(m: MatGF) -> MatGF:
    """Inverse of a square invertible matrix; raises ValueError if singular."""
    if m.rows != m.cols:
        raise ValueError("only square matrices can be inverted")
    p = m.field.order
    aug = np.concatenate([m.data, np.eye(m.rows, dtype=np.int64)], axis=1)
    rref, pivots = _row_reduce(aug, p)
    if pivots[: m.rows] != list(range(m.rows)):
        raise ValueError("matrix is singular")
    return MatGF(m.field, rref[:, m.cols :].astype(np.int64, copy=False), _reduced=True)


def random_invertible(field: FieldSpec, n: int, rng: np.random.Generator) -> MatGF:
    """A uniformly random element of GL(n, D) by rejection sampling.

    Uniform entries are drawn until the sample is invertible; every
    invertible matrix is kept with equal probability, so the output is
    uniform on GL(n, D).  The acceptance probability is
    prod_{i>=1} (1 - D^-i) > 0.43 for every D >= 3, so the expected
    number of draws is below 2.4.
    """
    p = field.order
    while True:
        cand = rng.integers(0, p, size=(n, n), dtype=np.int64)
        if len(_row_reduce(cand, p)[1]) == n:
            return MatGF(field, cand, _reduced=True)


def row_weights(m: MatGF) -> np.ndarray:
    return np.count_nonzero(m.data, axis=1)


def col_weights(m: MatGF) -> np.ndarray:
    return np.count_nonzero(m.data, axis=0)


def matrix_to_text(m: MatGF) -> str:
    """Serialize to the ``D nrows ncols`` text format, one row per line.

    Each entry is laid out in a slot of w + 1 bytes, w the digit count
    of D - 1: its digits right-aligned, one pass of ``// 10`` per digit
    on a narrow unsigned copy, then a space or, after a row's last
    entry, a newline.  For w > 1 the leading-zero bytes of the short
    entries are dropped by one boolean compress."""
    p = m.field.order
    head = f"{p} {m.rows} {m.cols}\n"
    if m.data.size == 0:
        return head + "\n" * m.rows
    w = len(str(p - 1))
    vals = m.data.astype(np.min_scalar_type(p - 1))
    slots = np.empty((m.rows, m.cols, w + 1), dtype=np.uint8)
    slots[:, :, w] = ord(" ")
    slots[:, -1, w] = ord("\n")
    high = vals
    for k in range(w - 1, -1, -1):
        low, high = high, high // 10
        slots[:, :, k] = low - 10 * high + ord("0")
    if w == 1:
        return head + slots.tobytes().decode("ascii")
    # Slot k < w - 1 holds a leading zero where the entry is below 10**(w - 1 - k).
    keep = np.ones(slots.shape, dtype=bool)
    for k in range(w - 1):
        np.greater_equal(vals, 10 ** (w - 1 - k), out=keep[:, :, k])
    return head + slots[keep].tobytes().decode("ascii")


def _digit_block(block: Sequence[str], ncols: int) -> np.ndarray | None:
    """The (rows, ncols) int64 entries of ``block``, one row per line,
    when every token is a run of ASCII digits and every row holds ncols
    of them; else None.

    A block in the single-digit canonical layout, rows * 2 ncols - 1
    bytes with a digit at every even offset, a space at every odd one
    and a newline after each row, is decoded by one reshape.  In any
    other block tokens are found in the bytes of the joined lines and
    decoded by Horner's rule, leading zeros included.  Values are capped
    at ``ORDER_LIMIT``, above every field order, so no token overflows."""
    text = "\n".join(block)
    if not text.isascii():
        return None
    if len(text) == 2 * len(block) * ncols - 1:
        # The lines hold no newline, so the rows - 1 joins are the only
        # newlines: with digits at even offsets and a space after every
        # entry but a row's last, they fall at the row ends.
        cells = np.frombuffer(f"{text}\n".encode("ascii"), dtype=np.uint8)
        cells = cells.reshape(len(block), ncols, 2)
        digits = cells[:, :, 0] - np.uint8(ord("0"))
        if (digits < 10).all() and (cells[:, :-1, 1] == ord(" ")).all():
            return digits.astype(np.int64)
    b = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    d = b - np.uint8(ord("0"))
    digit = d < 10
    # The other bytes must be what str.split() splits at: 9-13, 28-32.
    if not (digit | (b - np.uint8(9) < 5) | (b - np.uint8(28) < 5)).all():
        return None
    edges = np.diff(digit, prepend=False, append=False).nonzero()[0]
    starts, ends = edges[::2], edges[1::2]
    # Every row holds ncols tokens when ncols * i of them precede line break i.
    breaks = np.flatnonzero(b == ord("\n"))
    if len(starts) != len(block) * ncols or not np.array_equal(
        np.searchsorted(starts, breaks), ncols * np.arange(1, len(block))
    ):
        return None
    vals = np.zeros(len(starts), dtype=np.int64)
    for k in range(int((ends - starts).max(initial=0)) - 1, -1, -1):
        # ends - 1 - k >= -len(b) is a valid index; before a token's
        # start it reads a byte that is masked out.
        at = ends - 1 - k
        vals *= 10
        vals += d.take(at) * (at >= starts)
        np.minimum(vals, ORDER_LIMIT, out=vals)
    return vals.reshape(len(block), ncols)


def _matrix_from_lines(lines: Sequence[str], pos: int) -> tuple[MatGF, int]:
    if pos >= len(lines):
        raise ValueError("missing matrix header line")
    head = lines[pos].split()
    if len(head) != 3:
        raise ValueError(f"bad matrix header {lines[pos]!r}")
    try:
        d, nrows, ncols = (int(t) for t in head)
    except ValueError as exc:
        raise ValueError(f"bad matrix header {lines[pos]!r}") from exc
    if nrows < 0 or ncols < 0:
        raise ValueError("negative matrix dimensions")
    field = FieldSpec(d)
    if pos + 1 + nrows > len(lines):
        raise ValueError("truncated matrix text")
    block = lines[pos + 1 : pos + 1 + nrows]
    data = _digit_block(block, ncols)
    if data is None:
        rows = []
        for i, line in enumerate(block):
            vals = line.split()
            if len(vals) != ncols:
                raise ValueError(f"row {i} has {len(vals)} entries, expected {ncols}")
            try:
                rows.append([int(t) for t in vals])
            except ValueError as exc:
                raise ValueError(f"row {i} has a non-integer entry") from exc
            if not all(0 <= v < d for v in rows[-1]):
                raise ValueError(f"matrix entry out of range for GF({d})")
        data = np.array(rows, dtype=np.int64).reshape(nrows, ncols)
    if data.size and (data.min() < 0 or data.max() >= d):
        raise ValueError(f"matrix entry out of range for GF({d})")
    return MatGF(field, data, _reduced=True), pos + 1 + nrows


def matrix_from_text(text: str) -> MatGF:
    """Parse the text format produced by :func:`matrix_to_text`."""
    lines = text.splitlines()
    m, pos = _matrix_from_lines(lines, 0)
    if any(line.strip() for line in lines[pos:]):
        raise ValueError("trailing content after matrix rows")
    return m


@functools.lru_cache(maxsize=32)
def _inverse_table(p: int) -> np.ndarray:
    """Read-only table of the inverses mod p, indexed by residue; entry 0
    is 0.  Shared by the batched elimination and the subspace table."""
    return _read_only(np.array([0] + [pow(v, -1, p) for v in range(1, p)], dtype=np.int64))


def _mod(a: np.ndarray, p: int) -> np.ndarray:
    """A new array a mod p, for an integer array a.  An array of at most
    ``_SMALL_CELLS`` entries takes one ``%``; on a larger one numpy runs
    floor division several times faster than ``%``, so it is computed
    through ``//`` with one temporary."""
    if a.size <= _SMALL_CELLS:
        return a % p
    q = a // p
    q *= p
    return np.subtract(a, q, out=q)


def _work_dtype(p: int) -> type:
    """The elimination dtype for GF(p): the smallest signed integer type
    holding (p - 1) * p, so int16 for p <= 181 and int64 above.

    During an elimination step entries stay within
    [-(p-1)**2, (p-1)**2], and ``_mod``'s temporaries within (p - 1) * p
    in magnitude; int16 moves a quarter of int64's bytes.
    """
    return np.int16 if (p - 1) * p < 1 << 15 else np.int64


# float64 holds every integer of magnitude below 2**53 exactly.
_FLOAT_EXACT = 1 << 53


def _matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """``a @ b`` mod p, as int64, for integer arrays with entries in
    0..p-1.

    When either operand has more than ``_SMALL_CELLS`` cells and
    k * (p - 1)**2 < 2**53, k the inner dimension, the product runs in
    float64 through BLAS: every product and partial sum is then a
    nonnegative integer below 2**53, so each is exact in float64
    whatever order BLAS adds in.  Otherwise it runs in int64, which at
    factor size costs less than the float64 round trip, on operands
    widened first: a product of narrow residues wraps (uint8 from
    p = 17 on).
    """
    k = a.shape[-1]
    if max(a.size, b.size) > _SMALL_CELLS and k * (p - 1) ** 2 < _FLOAT_EXACT:
        prod = (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)
    else:
        prod = a.astype(np.int64, copy=False) @ b.astype(np.int64, copy=False)
    return _mod(prod, p)


def _lead_rows(nonzero: np.ndarray) -> np.ndarray:
    """The one-hot (rows, N) mask of each matrix's first True row in a
    (rows, N) mask, all False where a matrix has none.

    Row by row, a row leads where it is True and no row above it is
    (row > seen, for booleans): one pass along the contiguous batch axis
    per row, faster than ``np.logical_or.accumulate`` down the rows.
    The pivot and lead row are then read as masked sums, no gather."""
    first = nonzero.copy()
    seen = np.zeros(first.shape[1:], dtype=bool)
    for row in first:
        np.greater(row, seen, out=row)
        seen |= row
    return first


def _masked_rows(rows: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """sum_i mask[i] rows[i] of a (rows, cols, N) stack and a one-hot
    (rows, N) mask: each matrix's masked row, zero where the mask has
    none, in the stack's dtype (one term per sum, so it cannot wrap).
    One ``einsum``, which multiplies and sums without the (rows, cols, N)
    temporary of a product and a reduction."""
    return np.einsum("ikn,in->kn", rows, mask.astype(rows.dtype))


# Most codes, p**w, of the subspace table rank_batch finishes in: a
# wider table, such as GF(3)^5's 1.3 MB, costs more memory than the
# elimination steps it saves are worth.
_TAIL_CODES = 125


def _tail_width(p: int) -> int:
    """The widest w with p**w <= ``_TAIL_CODES``: 4 for GF(3), 3 for
    GF(5), 2 for GF(7) and GF(11), 1 for 13 <= p <= 113, 0 above."""
    w = 0
    while p ** (w + 1) <= _TAIL_CODES:
        w += 1
    return w


def rank_batch(mats: np.ndarray, p: int) -> np.ndarray:
    """The (N,) ranks of a stack (N, rows, cols) over GF(p), int64.

    A wide stack is transposed first, so cols <= rows, and held as a
    contiguous (rows, cols, N) array in :func:`_work_dtype`, reduced in
    the promotion of an integer input's dtype and that type, never first
    widened; any other input, uint64 included, is read by ``_int64_entries``.

    Forward elimination runs over the leading cols - w columns, w =
    min(cols, :func:`_tail_width`).  At column c each matrix's lead row
    is its first row nonzero there (:func:`_lead_rows`), read with its
    pivot as a masked sum over rows, and a nonzero pivot adds one to its
    rank.  The update is fraction-free: every row i becomes
    pivot * row_i - col[i] * lead over columns c+1.., so the lead row
    clears itself, and a nonzero multiple of a row keeps the rank.  A
    matrix with no pivot takes pivot 1 and col = 0, and is left as it
    was.  All factors are residues, so entries stay within
    [-(p-1)**2, (p-1)**2] until they are reduced.  After those steps the
    rank is the pivots found plus the rank of the rows x w block of live
    columns, which :func:`_table_rank` reads in a few gathers per row,
    where an elimination step takes some 28 numpy calls.
    """
    dtype = _work_dtype(p)
    m = np.asarray(mats)
    if m.ndim != 3:
        raise ValueError("expected a (N, rows, cols) array")
    if m.dtype.kind not in "biu" or m.dtype == np.uint64:
        m = _int64_entries(m)
    if m.shape[2] > m.shape[1]:
        m = m.transpose(0, 2, 1)
    nmat, nrows, ncols = m.shape
    ranks = np.zeros(nmat, dtype=np.int64)
    if ncols == 0:
        return ranks
    wide = np.array(m.transpose(1, 2, 0), dtype=np.promote_types(m.dtype, dtype), order="C")
    m = _mod(wide, p).astype(dtype, copy=False)
    w = min(ncols, _tail_width(p))
    for c in range(ncols - w):
        col = m[:, c]
        lead = _masked_rows(m[:, c:], _lead_rows(col != 0))
        ranks += lead[0] != 0
        upd = m[:, c + 1 :] * np.maximum(lead[0], 1)
        upd -= col[:, None] * lead[1:]
        m[:, c + 1 :] = _mod(upd, p)
    if w:
        ranks += _table_rank(m[:, ncols - w :].transpose(2, 0, 1), p)
    return ranks


def _gauss_jordan_batch(m: np.ndarray, p: int) -> np.ndarray:
    """Gauss-Jordan elimination of a (rows, cols, N) stack of residues
    mod p, the batch on the last axis: a new array in
    :func:`_work_dtype`, each matrix row-equivalent to its input, in
    which each pivot row has a 1 at its pivot column and that column is
    zero in every other row.  Rows that never lead end zero.

    Rows stay where they are and need no swap.  A row is free until it
    leads; at column c each matrix's lead row is its first free row
    nonzero there (:func:`_lead_rows`), read as a masked sum and scaled
    by its pivot's inverse.  Every row i has col[i] - [i leads] times
    the scaled lead row subtracted over columns c.. (which hold all of a
    free row), so the lead row becomes the scaled row and column c
    clears elsewhere.  Factors lie in [-1, p-1] and the scaled row in
    0..p-1, so entries stay within [-(p-1)**2, 2(p-1)] until reduced.
    """
    dtype = _work_dtype(p)
    m = np.array(m, dtype=dtype, order="C")
    nrows, ncols, nmat = m.shape
    inv = _inverse_table(p).astype(dtype, copy=False)
    free = np.ones((nrows, nmat), dtype=bool)
    for c in range(ncols):
        if not free.any():
            break
        col = m[:, c].copy()
        first = _lead_rows((col != 0) & free)
        free &= ~first
        rest = m[:, c:]
        lead = _masked_rows(rest, first)
        lead = _mod(lead * inv[lead[0]], p)
        col -= first
        upd = col[:, None] * lead
        m[:, c:] = _mod(np.subtract(rest, upd, out=upd), p)
    return m


# Most vectors (or matrices) any exhaustive enumeration may walk: every
# span, census and exhaustive search is refused above it.
ENUMERATION_LIMIT = 10**7


def _check_enumeration(p: int, t: int) -> None:
    """Refuse an enumeration of p**t vectors above ``ENUMERATION_LIMIT``,
    which is read at each call."""
    if p**t > ENUMERATION_LIMIT:
        raise ValueError(
            f"enumeration needs {p}^{t} vectors, above the limit of {ENUMERATION_LIMIT}"
        )


def _add_residues(a: np.ndarray, b: np.ndarray, p: int, out: np.ndarray) -> None:
    """(a + b) mod p into ``out``, for residue arrays a and b of an
    unsigned dtype that holds 2p - 2.

    The sum s lies in 0..2p-2.  Where s < p, s - p wraps past the
    dtype's maximum to at least p; so min(s, s - p) is s mod p exactly,
    with no division and no mask.
    """
    s = np.add(a, b)
    np.subtract(s, s.dtype.type(p), out=out)
    np.minimum(out, s, out=out)


# Most rows of one block of line_blocks, and ranks of one of _rank_walk.
_LINE_ROWS = 1 << 16
# Most int64 cells of one decode of trailing-row combinations in
# line_blocks: with a one-row low table (p >= 17) a block is all decode.
_DECODE_CELLS = 1 << 13


def line_blocks(basis: np.ndarray, p: int, start: int = 0) -> Iterator[np.ndarray]:
    """One vector of every line of GF(p) combinations sum_i c_i basis[i]
    of the rows of a (t, width) basis: the combinations whose last
    nonzero coefficient is 1 and sits at an index >= ``start``,
    (p**t - p**start) / (p - 1) rows, in blocks of at most
    ``_LINE_ROWS`` = 2**16 rows of residues in the dtype their sums run
    in.  Rows come in the order of the index sum_i c_i p**i: the indices
    [p**k, 2 p**k) for k = start .. t - 1.  Refused with ValueError,
    before any block is built, when an entry of the basis is not an
    integer of int64 range (``_int64_entries``), start lies outside 0..t
    or p**t exceeds ``ENUMERATION_LIMIT``, although the walk is shorter.

    Every nonzero combination is a nonzero multiple of exactly one of
    them, and the zero combination is walked by none, so a count of a
    scale-invariant property (rank, weight, "weight <= w") over the
    span is the zero vector's plus p - 1 times the count over these rows.

    The vectors are built by adding rows, not decoded.  A low table
    holds the span of the leading j rows in index order, j the largest
    with p**(2j + 2) <= ``_LINE_ROWS`` (at most t), so it has at most
    max(1, sqrt(``_LINE_ROWS``) / p) rows; level k is p copies of level
    k - 1, copy c being copy c - 1 plus basis[k].  Lines whose top digit
    sits below j are rows of the table, yielded first as one block.
    Every other line is a high index h in [p**(k - j), 2 p**(k - j))
    over the trailing t - j rows, decoded and multiplied in parts of at
    most ``_DECODE_CELLS`` int64 cells, then added to the whole low
    table by :func:`_add_residues`.  A block takes the next
    ``_LINE_ROWS`` // p**j high indices, so no range is held whole, and
    costs two arrays in the smallest unsigned dtype holding 2p - 2 (one
    byte for p <= 127), itself and its sums; from p = 17 on, j = 0 and
    the decoded rows are the block.
    """
    low, head, tops = _line_walk(basis, p, start)

    def blocks() -> Iterator[np.ndarray]:
        if head:
            yield low[head]
        for top in tops:
            if len(low) == 1:  # the low table is the zero row alone
                yield top
                continue
            out = np.empty((len(top), *low.shape), dtype=low.dtype)
            _add_residues(top[:, None, :], low, p, out)
            yield out.reshape(len(top) * len(low), low.shape[1])

    return blocks()


def _line_walk(
    basis: np.ndarray, p: int, start: int
) -> tuple[np.ndarray, list[int], Iterator[np.ndarray]]:
    """The parts of :func:`line_blocks`'s walk, checked and refused as it
    documents before anything is built: (low, head, tops).  ``low`` is
    the low table, ``head`` the indices of its rows that form the first
    block (empty when there is none), and ``tops`` yields, for every
    later block in order, the decoded combinations of the trailing rows
    for its high indices; the block is each of them plus every row of
    ``low``, top-major."""
    basis = _int64_entries(basis)
    t, width = basis.shape
    _check_enumeration(p, t)
    if not 0 <= start <= t:
        raise ValueError(f"need 0 <= start <= {t}, got {start}")
    basis = _mod(basis, p)
    j = 0
    while j < t and p ** (2 * j + 4) <= _LINE_ROWS:
        j += 1
    small = np.min_scalar_type(2 * p - 2)
    low = np.zeros((p**j, width), dtype=small)
    for k in range(j):
        size, row = p**k, basis[k].astype(small)
        for c in range(1, p):
            _add_residues(low[(c - 1) * size : c * size], row, p, low[c * size : (c + 1) * size])
    high = basis[j:]
    powers = p ** np.arange(t - j, dtype=np.int64)
    m = _LINE_ROWS // len(low)
    head = [i for k in range(start, j) for i in range(p**k, 2 * p**k)]
    per = max(1, _DECODE_CELLS // max(width, t - j, 1))

    def decode(idx: np.ndarray) -> np.ndarray:
        tops = np.empty((len(idx), width), dtype=small)
        for at in range(0, len(idx), per):
            part = idx[at : at + per]
            tops[at : at + per] = _mod(_mod(part[:, None] // powers, p) @ high, p)
        return tops

    def walk() -> Iterator[np.ndarray]:
        parts, room = [], m
        for k in range(max(start, j), t):
            lo, hi = p ** (k - j), 2 * p ** (k - j)
            while lo < hi:
                take = min(hi - lo, room)
                parts.append(np.arange(lo, lo + take, dtype=np.int64))
                lo, room = lo + take, room - take
                if room == 0:
                    yield decode(np.concatenate(parts))
                    parts, room = [], m
        if parts:
            yield decode(np.concatenate(parts))

    return low, head, walk()


def _pack(a: np.ndarray, bits: int) -> np.ndarray:
    """The (words, n) uint64 packing of the rows of a (n, width) array of
    residues below 2**bits: coordinate i of a row sits in field i % per
    of word i // per, per = 64 // bits fields of ``bits`` bits a word,
    and unused fields and bits are zero.  Built by Horner's rule over
    the field positions, a shift and an OR of every word per position."""
    per = 64 // bits
    n, width = a.shape
    words = -(-width // per)
    fields = np.zeros((words * per, n), dtype=a.dtype)
    fields[:width] = a.T
    fields = fields.reshape(words, per, n)
    packed = np.zeros((words, n), dtype=np.uint64)
    for f in range(per - 1, -1, -1):
        packed <<= np.uint64(bits)
        packed |= fields[:, f]
    return packed


def _line_weights(basis: np.ndarray, p: int, start: int = 0) -> Iterator[np.ndarray]:
    """The Hamming weights of the rows :func:`line_blocks` yields for the
    same arguments, one intp array per block, in the same blocks and
    order, refused as it is; the rows themselves are never formed.

    Residues are packed bits = bit_length(p - 1) bits a coordinate
    (:func:`_pack`): the negated low table, -x mod p, once, and each
    block's decoded tops y.  A row x + y is nonzero at i exactly when
    y_i != (-x)_i mod p, that is, when the two bits-wide fields of
    coordinate i differ; so its weight is the number of nonzero fields
    of (-x) XOR y.  That XOR and its shifts by 1 .. bits - 1, each by
    less than a field (a shift by bits or more would carry the next
    field's bits), are ORed onto each field's low bit, a mask keeps
    those bits, and ``np.bitwise_count`` (numpy >= 2.0) counts them,
    word by word.  Words lead the axes, so each XOR runs along a
    block's low-table rows."""
    low, head, tops = _line_walk(basis, p, start)
    bits = (p - 1).bit_length()
    table = _pack((p - low) % p, bits)
    field_lows = np.uint64(sum(1 << i for i in range(0, 64 // bits * bits, bits)))

    def weights(diff: np.ndarray) -> np.ndarray:
        fold = diff.copy()
        for s in range(1, bits):
            fold |= diff >> np.uint64(s)
        fold &= field_lows
        return np.bitwise_count(fold).sum(axis=0, dtype=np.intp).reshape(-1)

    def blocks() -> Iterator[np.ndarray]:
        if head:
            yield weights(table[:, head, None])
        for top in tops:
            yield weights(_pack(top, bits)[:, :, None] ^ table[:, None, :])

    return blocks()


def _weight_blocks(
    n: int, p: int, j: int, rows: int, *, lead: bool, dtype: type
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Every vector of GF(p)^n of weight exactly j (for j = 0 the zero
    vector), in pairs (supports, values) of at most ``rows`` (>= 1)
    vectors: a (b, j) intp array of supports in ``itertools.combinations``
    order and a (v, j) array, of the caller's ``dtype`` (which holds
    p - 1), of nonzero values in ``itertools.product`` order, standing
    for the b v vectors that put each row of values on each support,
    support-major.  With ``lead`` the first value is 1: one vector of
    each line, C(n, j) (p - 1)**(j - 1) in all.  A pair holds rows // m
    whole supports of m value rows each, or a run of at most ``rows`` of
    one support's rows when m > rows, decoded from their indices one
    digit base p - 1 at a time; so no array outgrows ``rows`` rows,
    whatever p."""
    free = max(j - lead, 0)
    count = (p - 1) ** free
    supports = itertools.combinations(range(n), j)
    while batch := list(itertools.islice(supports, max(1, rows // count))):
        idx = np.array(batch, dtype=np.intp).reshape(len(batch), j)
        for lo in range(0, count, rows):
            rest = np.arange(lo, min(lo + rows, count), dtype=np.intp)
            values = np.ones((len(rest), j), dtype=dtype)
            for i in range(j - 1, j - free - 1, -1):
                values[:, i] += (rest % (p - 1)).astype(dtype)
                rest //= p - 1
            yield idx, values


# Largest subspace-transition table built, in cells (states x codes).
# GF(3)^5 needs 647k and GF(5)^4 700k; GF(3)^6 would need 41M.
_TABLE_CELLS_LIMIT = 1 << 22


def _subspace_count(p: int, w: int) -> int:
    """The number of subspaces of GF(p)^w: the sum over k of the
    Gaussian binomials [w, k]_p, each the previous one times
    (p**(w - k) - 1) / (p**(k + 1) - 1)."""
    total, term = 0, 1
    for k in range(w + 1):
        total += term
        term = term * (p ** (w - k) - 1) // (p ** (k + 1) - 1)
    return total


def _table_fits(p: int, w: int) -> bool:
    """Whether the subspace table of GF(p)^w, states x codes, holds at
    most ``_TABLE_CELLS_LIMIT`` cells, which is read at each call."""
    return _subspace_count(p, w) * p**w <= _TABLE_CELLS_LIMIT


@functools.lru_cache(maxsize=16)
def _subspace_table(p: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Transition table of the subspaces of GF(p)^w under adding a row.

    A state is a subspace, held as its canonical reduced row echelon
    form; state 0 is the zero subspace.  A code is a row vector v
    written as the integer sum_j v_j p^j.  ``step[s, code]`` is the
    state spanned by subspace s and that row, and ``dim[s]`` is the
    dimension of s, uint8 (w <= 5 under the cap), so the rank of a
    matrix is ``dim`` of the state reached by stepping from 0 through
    its rows.

    Built by row reduction alone: each state reduces every code against
    its echelon basis at once, and each new residual extends the basis
    by one more echelon row.  ``step`` is allocated at its exact size,
    :func:`_subspace_count` states in the smallest unsigned type that
    numbers them, and each state's row is written in place.  Both arrays
    are read-only and shared by every caller.  The cache keeps the last
    16 tables, under 100 MB: the largest table under the cap, GF(17)^3's,
    is 6.1 MB.  Raises ValueError, before any row is built, when the
    table does not fit (:func:`_table_fits`).
    """
    if w == 0:  # the zero space alone, stepped by the empty row
        return _read_only(np.zeros((1, 1), dtype=np.uint8)), _read_only(np.zeros(1, dtype=np.uint8))
    if not _table_fits(p, w):
        raise ValueError(f"subspace table of GF({p})^{w} exceeds {_TABLE_CELLS_LIMIT} cells")
    ncodes, nstates = p**w, _subspace_count(p, w)
    step = np.empty((nstates, ncodes), dtype=np.min_scalar_type(nstates - 1))
    dim = np.empty(nstates, dtype=np.uint8)
    weights = p ** np.arange(w, dtype=np.int64)
    vecs = (np.arange(ncodes, dtype=np.int64)[:, None] // weights) % p
    inv = _inverse_table(p)
    every = np.arange(ncodes)
    # A state's key is the sorted codes of its echelon rows.
    keys: list[tuple[int, ...]] = [()]
    index = {(): 0}
    for s, key in enumerate(keys):  # grows while it is walked: a breadth-first search
        basis = vecs[list(key)]
        pivots = np.argmax(basis != 0, axis=1)
        resid = (vecs - vecs[:, pivots] @ basis) % p
        lead = np.argmax(resid != 0, axis=1)
        resid = (resid * inv[resid[every, lead]][:, None]) % p
        uniq, back = np.unique(resid @ weights, return_inverse=True)
        # uniq[0] is 0, the codes already in the span; every other
        # residual r has leading entry 1 in a non-pivot column c, so the
        # new echelon rows are r and each basis row with column c cleared.
        new = vecs[uniq[1:]]
        cols = np.argmax(new != 0, axis=1)
        cleared = (basis[None, :, :] - basis[:, cols].T[:, :, None] * new[:, None, :]) % p
        new_keys = np.sort(np.concatenate([cleared @ weights, uniq[1:, None]], axis=1), axis=1)
        targets = [s]
        for nk in map(tuple, new_keys.tolist()):
            if nk not in index:
                index[nk] = len(keys)
                keys.append(nk)
            targets.append(index[nk])
        np.take(np.array(targets, dtype=step.dtype), back.ravel(), out=step[s])
        dim[s] = len(key)
    return _read_only(step), _read_only(dim)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# Most codes, p**(rows * w), of a whole-block rank table (see
# _table_rank).
_BLOCK_CODES = 1 << 16


@functools.lru_cache(maxsize=64)
def _block_table(p: int, rows: int, w: int) -> np.ndarray:
    """The rank, uint8, of every rows x w matrix over GF(p), indexed by
    its code sum_ij m[i, j] p**(i w + j); read-only and shared.  The
    cache keeps the last 64 shapes, at most 4 MiB under the cap.  Over
    GF(3) the shapes under the cap are those up to 10 x 1, 5 x 2 and
    3 x 3 (59049 bytes at most), over GF(5) up to 6 x 1 and 3 x 2, then
    fewer rows as p grows, down to single entries from GF(257) on.

    :func:`_rank_walk` over every code of every row, so built by row
    reduction alone.  The walk varies row 0 slowest, not fastest, but a
    matrix's rank does not depend on the order of its rows."""
    return _read_only(np.concatenate([*_rank_walk(p, w, [slice(None)] * rows)]))


def _rank_walk(p: int, w: int, codes: Sequence[np.ndarray | slice]) -> Iterator[np.ndarray]:
    """The rank, uint8, of every matrix of width w over GF(p) whose row i
    has a code sum_j m[i, j] p**j in ``codes[i]``, in blocks, in
    ``itertools.product`` order over the rows (row 0 slowest); with no
    rows, one rank 0.  A row's codes are an index array or every code as
    ``slice(None)``, a view of the step table that an index array would
    copy at each call.

    The states of :func:`_subspace_table` step through each row's codes,
    the last row through ``dim`` of its step, straight to the rank.  The
    trailing rows are the longest suffix whose code counts multiply to
    at most ``_LINE_ROWS``; the leading ones are stepped once, and a
    block of at most ``_LINE_ROWS`` ranks steps the trailing ones from
    the next ``_LINE_ROWS`` // (that product) leading states.  Under the
    table cap a row has fewer than 2**16 codes; so where counts never
    fall along the rows, as in every caller, that product exceeds 2**8
    if a row leads, and a walk of at most ``ENUMERATION_LIMIT`` matrices
    has fewer than 2**16 leading states."""
    step, dim = _subspace_table(p, w)
    moves = [step[:, c] for c in codes[:-1]] + [dim[step[:, c]] for c in codes[-1:]]
    split, block = len(moves), 1
    while split and block * moves[split - 1].shape[1] <= _LINE_ROWS:
        split -= 1
        block *= moves[split].shape[1]
    leading = np.zeros(1, dtype=np.uint8)
    for move in moves[:split]:
        leading = move[leading].ravel()
    per = max(1, _LINE_ROWS // block)
    for start in range(0, leading.size, per):
        state = leading[start : start + per]
        for move in moves[split:]:
            state = move[state].ravel()
        yield state


def _table_rank(mats: np.ndarray, p: int) -> np.ndarray:
    """Ranks, uint8, of a batch (N, rows, cols) of reduced matrices over
    GF(p), of any integer dtype.  A wide batch is walked along its
    columns, so the table width w is min(rows, cols).

    A block with p**(rows * w) <= ``_BLOCK_CODES`` = 2**16 codes is
    ranked in one lookup: its code, built by Horner's rule over all its
    entries in the smallest unsigned type that holds it, indexes its
    :func:`_block_table`.  A larger block steps through
    :func:`_subspace_table` one row at a time: row codes are built by
    Horner's rule, and each step is one gather from the flattened table
    at state * ncodes + code.  That index is below the table's cell
    count, at most ``_TABLE_CELLS_LIMIT`` = 2**22, so codes and states
    are held in int32; the table's own narrow dtype would wrap."""
    m = np.asarray(mats)
    if m.shape[2] > m.shape[1]:
        m = m.transpose(0, 2, 1)
    nmat, rows, w = m.shape
    if p ** (rows * w) <= _BLOCK_CODES:
        table = _block_table(p, rows, w)
        code = np.zeros(nmat, dtype=np.min_scalar_type(len(table) - 1))
        for i in range(rows - 1, -1, -1):
            for j in range(w - 1, -1, -1):
                code *= p
                np.add(code, m[:, i, j], out=code, dtype=code.dtype, casting="unsafe")
        return table.take(code)
    step, dim = _subspace_table(p, w)
    codes = np.zeros((nmat, rows), dtype=np.int32)
    for j in range(w - 1, -1, -1):
        codes *= p
        codes += m[:, :, j]
    flat, ncodes = step.ravel(), step.shape[1]
    state = np.zeros(nmat, dtype=np.int32)
    for i in range(rows):
        state *= ncodes
        state += codes[:, i]
        state = flat.take(state).astype(np.int32)
    return dim[state]
