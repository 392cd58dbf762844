"""Exact dense linear algebra over the prime field GF(D), D an odd prime.

Matrices are stored as numpy int64 arrays with every entry reduced to
the range 0..D-1.  All arithmetic is integer arithmetic followed by
reduction mod D, so ranks, kernels and solves are exact; no floating
point enters anywhere in this module.

The field order is bounded by ``ORDER_LIMIT`` = 2**16, so every
product this library forms stays exact in int64: a sum of k products
of two residues is below (D - 1)**2 * k < 2**63 for every inner
dimension k < 2**31.

The text wire format for a matrix is one header line ``D nrows ncols``
followed by ``nrows`` lines of space-separated residues.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "FieldSpec",
    "MatGF",
    "rank",
    "kernel_basis",
    "solve",
    "inverse",
    "random_invertible",
    "weight",
    "row_weights",
    "col_weights",
    "kron",
    "matrix_to_text",
    "matrix_from_text",
    "rank_batch",
    "span_blocks",
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

    def inv(self, a: int) -> int:
        """Multiplicative inverse of a nonzero residue."""
        a %= self.order
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return pow(a, -1, self.order)


class MatGF:
    """A dense matrix over GF(D) with entries held reduced mod D.

    The underlying array is marked read-only; every operation returns a
    fresh matrix.  ``@``, ``+``, ``-`` and scalar ``*`` act mod D and
    require matching fields.

    ``_reduced=True`` is for library code holding an int64 array already
    reduced mod D: the array is taken without a copy and marked
    read-only, so the caller must not write to it (or to an array it is
    a view of) afterwards.
    """

    __slots__ = ("field", "_data")

    def __init__(self, field: FieldSpec, data, *, _reduced: bool = False):
        if _reduced:
            arr = np.asarray(data, dtype=np.int64)
        else:
            arr = np.array(data, dtype=np.int64) % field.order
        if arr.ndim != 2:
            raise ValueError("matrix data must be two-dimensional")
        arr.flags.writeable = False
        self.field = field
        self._data = arr

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
        return MatGF(self.field, self._data.T, _reduced=True)

    def _check_field(self, other: "MatGF") -> None:
        if self.field != other.field:
            raise ValueError(f"field mismatch: GF({self.field.order}) vs GF({other.field.order})")

    def __matmul__(self, other):
        p = self.field.order
        if isinstance(other, MatGF):
            self._check_field(other)
            if self.cols != other.rows:
                raise ValueError(f"shape mismatch for @: {self.shape} and {other.shape}")
            return MatGF(self.field, (self._data @ other._data) % p, _reduced=True)
        vec = np.asarray(other, dtype=np.int64) % p
        return (self._data @ vec) % p

    def __add__(self, other: "MatGF") -> "MatGF":
        self._check_field(other)
        return MatGF(self.field, (self._data + other._data) % self.field.order, _reduced=True)

    def __sub__(self, other: "MatGF") -> "MatGF":
        self._check_field(other)
        return MatGF(self.field, (self._data - other._data) % self.field.order, _reduced=True)

    def __neg__(self) -> "MatGF":
        return MatGF(self.field, (-self._data) % self.field.order, _reduced=True)

    def __mul__(self, scalar: int) -> "MatGF":
        p = self.field.order
        return MatGF(self.field, (self._data * (int(scalar) % p)) % p, _reduced=True)

    __rmul__ = __mul__

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
        sub = self._data[np.ix_(np.asarray(row_idx, dtype=np.intp), np.asarray(col_idx, dtype=np.intp))]
        return MatGF(self.field, sub, _reduced=True)

    def __repr__(self) -> str:
        return f"MatGF(GF({self.field.order}), {self.rows}x{self.cols})"


def _row_reduce(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of ``a`` mod p and the pivot column list.

    Pivots are chosen as the first nonzero entry scanning down each
    column, so the result is deterministic for a fixed input.
    """
    m = np.array(a, dtype=np.int64, copy=True) % p
    nrows, ncols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
        m[r] = (m[r] * pow(int(m[r, c]), -1, p)) % p
        others = np.nonzero(m[:, c])[0]
        others = others[others != r]
        if others.size:
            m[others] = (m[others] - np.outer(m[others, c], m[r])) % p
        pivots.append(c)
        r += 1
    return m, pivots


def rank(m: MatGF) -> int:
    """Rank of ``m`` over its field."""
    return len(_row_reduce(m.data, m.field.order)[1])


def kernel_basis(m: MatGF) -> list[np.ndarray]:
    """Basis of the right kernel {v : m v = 0}, one 1-D array per vector.

    Computed from the reduced row echelon form: each non-pivot column
    contributes one basis vector.  The list is ordered by free-column
    index and is deterministic for a fixed input.
    """
    p = m.field.order
    rref, pivots = _row_reduce(m.data, p)
    pivot_set = set(pivots)
    basis: list[np.ndarray] = []
    for f in range(m.cols):
        if f in pivot_set:
            continue
        v = np.zeros(m.cols, dtype=np.int64)
        v[f] = 1
        for i, c in enumerate(pivots):
            v[c] = (-rref[i, f]) % p
        basis.append(v)
    return basis


def solve(m: MatGF, b) -> np.ndarray | None:
    """One solution x of m x = b with free variables set to 0, else None.

    Returns None exactly when the system is inconsistent.  ``b`` must
    have length ``m.rows``.
    """
    p = m.field.order
    rhs = np.asarray(b, dtype=np.int64) % p
    if rhs.shape != (m.rows,):
        raise ValueError(f"right-hand side has shape {rhs.shape}, expected ({m.rows},)")
    aug = np.concatenate([m.data, rhs.reshape(-1, 1)], axis=1)
    rref, pivots = _row_reduce(aug, p)
    if m.cols in pivots:
        return None
    x = np.zeros(m.cols, dtype=np.int64)
    for i, c in enumerate(pivots):
        x[c] = rref[i, -1]
    return x


def inverse(m: MatGF) -> MatGF:
    """Inverse of a square invertible matrix; raises ValueError if singular."""
    if m.rows != m.cols:
        raise ValueError("only square matrices can be inverted")
    p = m.field.order
    aug = np.concatenate([m.data, np.eye(m.rows, dtype=np.int64)], axis=1)
    rref, pivots = _row_reduce(aug, p)
    if pivots[: m.rows] != list(range(m.rows)):
        raise ValueError("matrix is singular")
    return MatGF(m.field, rref[:, m.cols :], _reduced=True)


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


def weight(m: MatGF) -> int:
    """Largest number of nonzero entries in any single row or column."""
    if m.rows == 0 or m.cols == 0:
        return 0
    return int(max(row_weights(m).max(initial=0), col_weights(m).max(initial=0)))


def kron(a: MatGF, b: MatGF) -> MatGF:
    """Kronecker product over the common field; fields must match."""
    a._check_field(b)
    return MatGF(a.field, np.kron(a.data, b.data) % a.field.order, _reduced=True)


def matrix_to_text(m: MatGF) -> str:
    """Serialize to the ``D nrows ncols`` text format, one row per line."""
    lines = [f"{m.field.order} {m.rows} {m.cols}"]
    for row in m.data:
        lines.append(" ".join(str(int(v)) for v in row))
    return "\n".join(lines) + "\n"


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
    # Rows are checked as Python ints, so no header or entry size reaches numpy.
    entries = []
    for i in range(nrows):
        vals = lines[pos + 1 + i].split()
        if len(vals) != ncols:
            raise ValueError(f"row {i} has {len(vals)} entries, expected {ncols}")
        try:
            row = [int(t) for t in vals]
        except ValueError as exc:
            raise ValueError(f"row {i} has a non-integer entry") from exc
        if row and (min(row) < 0 or max(row) >= d):
            raise ValueError(f"matrix entry out of range for GF({d})")
        entries.append(row)
    data = np.array(entries, dtype=np.int64).reshape(nrows, ncols)
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
    """A new array a mod p, for an integer array a: computed through floor
    division, which numpy runs several times faster than ``%`` on
    integers, with one temporary."""
    q = a // p
    q *= p
    return np.subtract(a, q, out=q)


def rank_batch(mats: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss-Jordan elimination of a stack (N, rows, cols) over GF(p).

    Returns ``(rref, pivots, ranks)``: the int64 reduced row echelon
    forms (N, rows, cols), the (N, cols) boolean mask of pivot columns,
    and the (N,) ranks.  Every matrix is eliminated column by column at
    once, choosing the pivot as :func:`_row_reduce` does (the first
    nonzero entry at or below the current row, swapped into place), so
    ``rref[i]`` and the pivot columns of ``pivots[i]`` are exactly what
    ``_row_reduce(mats[i], p)`` returns.  A matrix with no pivot in a
    column takes the same steps with a zero multiplier.
    """
    m = np.asarray(mats, dtype=np.int64)
    if m.ndim != 3:
        raise ValueError("expected a (N, rows, cols) array")
    # Entries stay within [-(p-1)**2, p-1] during a step, so small
    # fields run in int16: a quarter of the memory traffic.
    dtype = np.int16 if (p - 1) * p <= np.iinfo(np.int16).max else np.int64
    m = _mod(m, p).astype(dtype, copy=False)
    nmat, nrows, ncols = m.shape
    pivots = np.zeros((nmat, ncols), dtype=bool)
    cursor = np.zeros(nmat, dtype=np.int64)
    inv = _inverse_table(p)
    k = np.arange(nmat)
    row_index = np.arange(nrows)
    for c in range(ncols):
        nz = (m[:, :, c] != 0) & (row_index >= cursor[:, None])
        has = nz.any(axis=1)
        if not has.any():
            continue
        cur = np.minimum(cursor, nrows - 1)
        lead = np.where(has, nz.argmax(axis=1), cur)
        row = m[k, lead]
        m[k, lead] = m[k, cur]
        row = _mod(row * np.where(has, inv[row[:, c]], 1)[:, None], p).astype(dtype, copy=False)
        m[k, cur] = row
        fac = m[:, :, c] * has[:, None]
        fac[k, cur] = 0
        # Live rows are zero left of c, so only columns c.. change.
        upd = fac[:, :, None] * row[:, None, c:]
        m[:, :, c:] = _mod(np.subtract(m[:, :, c:], upd, out=upd), p)
        pivots[:, c] = has
        cursor += has
    return m.astype(np.int64, copy=False), pivots, cursor


def _random_invertible_batch(
    field: FieldSpec, n: int, rngs: Sequence[np.random.Generator]
) -> np.ndarray:
    """:func:`random_invertible` for every generator in lockstep: a
    (len(rngs), n, n) stack.

    Generator i makes exactly the draws ``random_invertible(field, n,
    rngs[i])`` makes, so entry i is the matrix that call returns and the
    generator ends in the same state.  Each rejection round draws one
    candidate from every generator still drawing and ranks them all in
    one elimination.
    """
    p = field.order
    mats = np.empty((len(rngs), n, n), dtype=np.int64)
    todo = np.arange(len(rngs))
    while todo.size:
        # n*n draws in a flat call give the same entries as the (n, n)
        # call of random_invertible, with less overhead per call.
        cand = np.stack([rngs[i].integers(0, p, size=n * n, dtype=np.int64) for i in todo])
        cand = cand.reshape(len(todo), n, n)
        ok = rank_batch(cand, p)[2] == n
        mats[todo[ok]] = cand[ok]
        todo = todo[~ok]
    return mats


def _inverse_batch(mats: np.ndarray, p: int) -> np.ndarray:
    """Inverses of a stack (N, n, n) of invertible matrices over GF(p),
    from one elimination of the stack augmented by the identity."""
    n = mats.shape[1]
    aug = np.concatenate([mats, np.broadcast_to(np.eye(n, dtype=np.int64), mats.shape)], axis=2)
    return rank_batch(aug, p)[0][:, :, n:]


def span_blocks(basis: np.ndarray, p: int, rows: int = 1 << 16) -> Iterator[np.ndarray]:
    """Every GF(p) combination sum_i c_i basis[i] of the rows of a
    (t, width) basis, in blocks of at most ``rows`` rows.

    Rows come in the order of the index sum_i c_i p**i, so the first row
    is the zero combination; a basis with t = 0 yields that one zero row.
    The caller bounds p**t: every combination is produced.
    """
    basis = np.asarray(basis, dtype=np.int64)
    t = basis.shape[0]
    powers = p ** np.arange(t, dtype=np.int64)
    total = p**t
    for start in range(0, total, rows):
        idx = np.arange(start, min(start + rows, total), dtype=np.int64)
        yield ((idx[:, None] // powers) % p) @ basis % p


# Largest subspace-transition table built, in cells (states x codes).
# GF(3)^5 needs 647k and GF(5)^4 700k; GF(3)^6 would need 41M.
_TABLE_CELLS_LIMIT = 1 << 22


@functools.lru_cache(maxsize=None)
def _subspace_table(p: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Transition table of the subspaces of GF(p)^w under adding a row.

    A state is a subspace, held as its canonical reduced row echelon
    form; state 0 is the zero subspace.  A code is a row vector v
    written as the integer sum_j v_j p^j.  ``step[s, code]`` is the
    state spanned by subspace s and that row, and ``dim[s]`` is the
    dimension of s, so the rank of a matrix is ``dim`` of the state
    reached by stepping from 0 through its rows.

    Built by row reduction alone: each state reduces every code against
    its echelon basis at once, and each new residual extends the basis
    by one more echelon row.  Both arrays are read-only and shared by
    every caller.  Raises ValueError above ``_TABLE_CELLS_LIMIT`` cells.
    """
    if w == 0:  # the zero space alone, stepped by the empty row
        return _read_only(np.zeros((1, 1), dtype=np.uint8)), _read_only(np.zeros(1, dtype=np.int64))
    ncodes = p**w
    too_big = f"subspace table of GF({p})^{w} exceeds {_TABLE_CELLS_LIMIT} cells"
    if ncodes > _TABLE_CELLS_LIMIT:
        raise ValueError(too_big)
    weights = p ** np.arange(w, dtype=np.int64)
    vecs = (np.arange(ncodes, dtype=np.int64)[:, None] // weights) % p
    inv = _inverse_table(p)
    every = np.arange(ncodes)
    # A state's key is the sorted codes of its echelon rows.
    keys: list[tuple[int, ...]] = [()]
    index = {(): 0}
    rows_out: list[np.ndarray] = []
    for key in keys:  # grows while it is walked: a breadth-first search
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
        targets = [index[key]]
        for nk in map(tuple, new_keys.tolist()):
            if nk not in index:
                index[nk] = len(keys)
                keys.append(nk)
                if len(keys) * ncodes > _TABLE_CELLS_LIMIT:
                    raise ValueError(too_big)
            targets.append(index[nk])
        rows_out.append(np.array(targets)[back.ravel()])
    step = np.array(rows_out, dtype=np.min_scalar_type(len(keys) - 1))
    return _read_only(step), _read_only(np.array([len(k) for k in keys], dtype=np.int64))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _table_rank(mats: np.ndarray, p: int) -> np.ndarray:
    """Ranks of a batch (N, rows, cols) of reduced matrices over GF(p),
    read from :func:`_subspace_table` one row at a time.  A wide batch
    is walked along its columns, so the table width is min(rows, cols)."""
    m = np.asarray(mats, dtype=np.int64)
    if m.shape[2] > m.shape[1]:
        m = m.transpose(0, 2, 1)
    w = m.shape[2]
    step, dim = _subspace_table(p, w)
    codes = m @ p ** np.arange(w, dtype=np.int64)
    state = np.zeros(m.shape[0], dtype=step.dtype)
    for i in range(m.shape[1]):
        state = step[state, codes[:, i]]
    return dim[state]
