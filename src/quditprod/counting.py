"""Exact rank-enumeration counts over GF(D), with brute-force oracles.

Every count here is an exact Python integer; nothing is ever truncated
to machine precision.  The closed forms are validated against direct
enumeration of the full matrix space on every instance small enough to
enumerate.  The oracles rank each enumerated matrix on its own, through
the subspace tables of ``gf`` (``gf._table_rank``), which are built by
row reduction and share nothing with the closed forms.  Every oracle is
refused above ``gf.ENUMERATION_LIMIT`` matrices or vectors, the one cap
on enumeration in the library, and above the subspace-table cap
(``gf._table_fits``).

The headline identity: the number of pairs of reduced cycles with
prescribed block ranks factors through the rank distribution of the
kernel of a standard product complex (count_cycles_by_rank) and the
rank-extension counts (count_rank_extensions).  enumerate_reduced_cycles
recomputes the same map by brute force on an actual product complex.
"""

from __future__ import annotations

import numpy as np

from .complexes import InvolutiveComplex, is_good
from .gf import (
    FieldSpec, MatGF, _check_enumeration, _subspace_table, _table_rank, kernel_basis, line_blocks,
)
from .product import ProductComplex, product, product_chain_map
from .reduction import ReductionParams, reduce

__all__ = [
    "gaussian_binomial",
    "count_rank_matrices",
    "count_rank_extensions",
    "count_cycles_by_rank",
    "count_reduced_cycles",
    "enumerate_reduced_cycles",
    "enumerate_plus_cycle_ranks",
    "brute_count_rank_matrices",
    "brute_count_rank_extensions",
]


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """The q-binomial coefficient: number of k-dim subspaces of GF(q)^n."""
    if k < 0 or k > n:
        return 0
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


def count_rank_matrices(rows: int, cols: int, r: int, field: FieldSpec) -> int:
    """Number of rank-r matrices of size rows x cols over the field.

    Zero outside 0 <= r <= min(rows, cols).  The formula picks the
    column space (a Gaussian binomial) and then a surjection onto it.
    """
    if rows < 0 or cols < 0:
        raise ValueError("matrix dimensions must be nonnegative")
    if r < 0 or r > min(rows, cols):
        return 0
    d = field.order
    count = gaussian_binomial(rows, r, d)
    for i in range(r):
        count *= d**cols - d**i
    return count


def count_rank_extensions(
    a: int, b: int, r: int, A: int, B: int, R: int, field: FieldSpec
) -> int:
    """Number of rank-R A x B matrices whose top-left a x b block is a
    fixed rank-r matrix.

    The count is the same for every rank-r representative: first extend
    to the right (a x B, intermediate rank s), then downward.  At each
    stage the count splits as (shifts into the known span) x (a fresh
    rank-(s - r) quotient matrix), giving

        sum_s  D^{r(B-b)} N(a-r, B-b, s-r) D^{s(A-a)} N(A-a, B-s, R-s)

    with N = count_rank_matrices.  Zero when R is infeasible.
    """
    if not (0 <= a <= A and 0 <= b <= B):
        raise ValueError(f"corner block {a}x{b} does not fit in {A}x{B}")
    if not (0 <= r <= min(a, b)):
        raise ValueError(f"corner rank {r} invalid for a {a}x{b} block")
    d = field.order
    total = 0
    for s in range(r, min(a, B, R) + 1):
        right = d ** (r * (B - b)) * count_rank_matrices(a - r, B - b, s - r, field)
        down = d ** (s * (A - a)) * count_rank_matrices(A - a, B - s, R - s, field)
        total += right * down
    return total


def count_cycles_by_rank(H: int, L: int, r_plus: int, r_minus: int, field: FieldSpec) -> int:
    """Number of plus-sector cycles of a product of two standard-shape
    factors (sector dim n = H + 2L each) whose blocks have the given
    ranks.

    The count depends only on (H, L, r_plus, r_minus), not on which
    conjugate of the standard boundary is used.  Block ranks can reach
    H + L + L; the count is zero beyond that.
    """
    if H < 0 or L < 0:
        raise ValueError("H and L must be nonnegative")
    if r_plus < 0 or r_minus < 0:
        raise ValueError("ranks must be nonnegative")
    d = field.order
    total = 0
    for f in range(L + 1):
        for g in range(L + 1):
            if f + g > min(r_plus, r_minus):
                continue
            term = count_rank_matrices(L, L, f, field)
            term *= count_rank_matrices(L, L, g, field)
            term *= d ** (2 * (f + g) * (H + L) - 2 * f * g)
            term *= count_rank_matrices(H + L - f, H + L - g, r_plus - f - g, field)
            term *= count_rank_matrices(H + L - g, H + L - f, r_minus - f - g, field)
            total += term
    return total


def count_reduced_cycles(
    n: int, n_prime: int, H: int, L: int, R_plus: int, R_minus: int, field: FieldSpec
) -> int:
    """Number of reduced cycles (g_plus, g_minus), both n' x n', with
    block ranks (R_plus, R_minus), for a product of two good factors of
    shape (n, H, L).

    Splits over the rank pair of the image in the quotient product,
    whose factors have shape (K, H, L - (n - n')) with K = 2n' - n; each
    image extends to full reduced cycles counted by
    count_rank_extensions.
    """
    if n != H + 2 * L:
        raise ValueError(f"shape mismatch: n = {n} but H + 2L = {H + 2 * L}")
    gap = n - n_prime
    K = 2 * n_prime - n
    if K < 0:
        raise ValueError("need n_prime >= n/2")
    if gap < 0:
        raise ValueError("need n_prime <= n")
    if L < gap:
        raise ValueError(f"need L >= n - n_prime, got L = {L}, gap = {gap}")
    ext_m = [
        count_rank_extensions(K, K, r_m, n_prime, n_prime, R_minus, field)
        for r_m in range(min(K, R_minus) + 1)
    ]
    total = 0
    for r_p in range(min(K, R_plus) + 1):
        ext_p = count_rank_extensions(K, K, r_p, n_prime, n_prime, R_plus, field)
        for r_m, e_m in enumerate(ext_m):
            z = count_cycles_by_rank(H, L - gap, r_p, r_m, field)
            total += z * ext_p * e_m
    return total


def enumerate_reduced_cycles(
    pc: ProductComplex, params: ReductionParams
) -> dict[tuple[int, int], int]:
    """Brute-force rank census of reduced cycles of a product complex.

    A reduced cycle is a pair (g_plus, g_minus) of n' x n' matrices,
    embedded into the leading coordinates of the product's plus sector,
    whose image under the tensor square of the factor quotient maps is
    a cycle of the quotient product.  Both factors must be good for n'.
    The census enumerates the kernel of the composite map (size D^dim),
    and is refused when D^dim exceeds ``gf.ENUMERATION_LIMIT``.
    """
    c1, c2 = pc.factor1, pc.factor2
    n = params.n
    if c1.dim_plus != n or c1.dim_minus != n or c2.dim_plus != n or c2.dim_minus != n:
        raise ValueError(f"factors must have sector dimension {n}")
    for i, c in enumerate((c1, c2), start=1):
        if not is_good(c, params.n_prime):
            raise ValueError(f"factor {i} is not good for n' = {params.n_prime}")
    p = pc.field.order
    np1 = params.n_prime

    rc1 = reduce(c1, params)
    rc2 = reduce(c2, params)
    qprod = product(rc1.quotient, rc2.quotient)
    phi_plus, _ = product_chain_map(rc1.phi, rc2.phi, source=pc, target=qprod)

    # Column positions of the embedded pair inside the plus sector:
    # psi_plus occupies the first n*n coordinates (row major), psi_minus
    # the next n*n, and g_pm sits in the leading n' x n' corner of each.
    corner = np.array(
        [i * n + j for i in range(np1) for j in range(np1)], dtype=np.intp
    )
    embed_cols = np.concatenate([corner, n * n + corner])

    constraint = (qprod.complex.d_mp.data @ phi_plus.data) % p
    basis = kernel_basis(MatGF(pc.field, constraint[:, embed_cols], _reduced=True))
    return _block_rank_census(basis, p, (np1, np1), (np1, np1))


def enumerate_plus_cycle_ranks(pc: ProductComplex) -> dict[tuple[int, int], int]:
    """Brute-force rank census of the full plus-sector cycle space,
    bucketed by the ranks of the two blocks.

    Oracle for count_cycles_by_rank: on a product of standard-shape
    factors the bucket sizes must match it exactly.  Refused when the
    cycle space exceeds ``gf.ENUMERATION_LIMIT`` vectors.
    """
    cx = pc.complex
    plus_shape, minus_shape = pc.block_shapes
    return _block_rank_census(kernel_basis(cx.d_mp), cx.field.order, plus_shape, minus_shape)


def _block_rank_census(
    basis: np.ndarray, p: int, plus_shape: tuple[int, int], minus_shape: tuple[int, int]
) -> dict[tuple[int, int], int]:
    """Count every GF(p) combination of the basis rows by the ranks of
    its two blocks: the leading plus_shape entries (row major), then the
    minus_shape entries.  Only nonzero buckets are returned.

    Each vector ``gf.line_blocks`` walks is ranked once and counted
    p - 1 times, and the zero combination has both ranks 0; the counts
    are of combinations, so this holds for a dependent basis too.  Each
    block is ranked by ``gf._table_rank`` from its column slice of the
    walked rows.
    """
    (p1, p2), (m1, m2) = plus_shape, minus_shape
    counts = np.zeros((min(p1, p2) + 1, min(m1, m2) + 1), dtype=np.int64)
    for vecs in line_blocks(basis, p):
        r_plus = _table_rank(vecs[:, : p1 * p2].reshape(len(vecs), p1, p2), p)
        r_minus = _table_rank(vecs[:, p1 * p2 :].reshape(len(vecs), m1, m2), p)
        # uint8 codes: the table cap keeps ranks <= 5, so codes <= 35.
        flat = r_plus * counts.shape[1] + r_minus
        counts += np.bincount(flat, minlength=counts.size).reshape(counts.shape)
    counts *= p - 1
    counts[0, 0] += 1
    return {(int(i), int(j)): int(counts[i, j]) for i, j in zip(*np.nonzero(counts))}


# Largest batch of matrices ranked in one array.
_CHUNK = 1 << 20


def _enumerate_ranks(
    field: FieldSpec,
    rows: int,
    cols: int,
    fixed: np.ndarray | None,
) -> dict[int, int]:
    """Rank histogram over all matrices with an optional fixed top-left
    block, by direct enumeration of the free entries.

    Every matrix is ranked on its own: the states of the subspace table
    are stepped through the Cartesian product of each row's codes (a row
    in the fixed corner has its fixed part plus every value of its free
    digits).  The last row steps through ``dim`` of its move, straight
    to the rank reached, so the final array holds one uint8 rank per
    matrix (with no rows, state 0 is the zero subspace, of rank 0).  A
    wide space is walked along its columns.  The trailing rows are
    enumerated in blocks from each state of the leading rows, so no
    array outgrows _CHUNK entries.  Refused when the free entries span
    more than ``gf.ENUMERATION_LIMIT`` matrices.
    """
    p = field.order
    corner = np.zeros((0, 0), dtype=np.int64) if fixed is None else np.asarray(fixed) % p
    fr, fc = corner.shape
    _check_enumeration(p, rows * cols - fr * fc)
    if cols > rows:
        rows, cols, fr, fc, corner = cols, rows, fc, fr, corner.T
    step, dim = _subspace_table(p, cols)
    free = p**fc * np.arange(p ** (cols - fc))
    fixed_codes = corner @ p ** np.arange(fc)
    moves = [step[:, fixed_codes[i] + free if i < fr else slice(None)] for i in range(rows)]
    if moves:
        moves[-1] = dim[moves[-1]]

    # The trailing rows are the longest suffix, of at least one row,
    # whose code counts multiply to at most _CHUNK.
    split, block = rows, 1
    while split and (split == rows or block * moves[split - 1].shape[1] <= _CHUNK):
        split -= 1
        block *= moves[split].shape[1]
    leading = np.zeros(1, dtype=step.dtype)
    for move in moves[:split]:
        leading = move[leading].ravel()

    hist = np.zeros(cols + 1, dtype=np.int64)
    per = max(1, _CHUNK // block)
    for start in range(0, leading.size, per):
        state = leading[start : start + per]
        for move in moves[split:]:
            state = move[state].ravel()
        # Every rank is at most cols, so the last bucket is what the
        # others leave: one compare pass fewer.
        counts = [np.count_nonzero(state == r) for r in range(cols)]
        hist += [*counts, state.size - sum(counts)]
    return {r: int(c) for r, c in enumerate(hist) if c}


def brute_count_rank_matrices(field: FieldSpec, rows: int, cols: int) -> dict[int, int]:
    """Rank histogram of the full rows x cols matrix space.

    Refused when D^(rows*cols) exceeds ``gf.ENUMERATION_LIMIT``.  Oracle
    for count_rank_matrices.
    """
    return _enumerate_ranks(field, rows, cols, None)


def brute_count_rank_extensions(
    field: FieldSpec, fixed: MatGF, rows: int, cols: int
) -> dict[int, int]:
    """Rank histogram of all rows x cols matrices extending the given
    top-left block.  Oracle for count_rank_extensions."""
    if fixed.rows > rows or fixed.cols > cols:
        raise ValueError("fixed block does not fit")
    return _enumerate_ranks(field, rows, cols, fixed.data)
