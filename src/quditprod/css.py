"""CSS codes read off a two-sector complex.

Physical qudits are the basis of C+.  The columns of d_pm are the
Z-type stabilizer generators and the rows of d_mp are the X-type
generators; d_mp @ d_pm = 0 is exactly the CSS orthogonality
condition.  The number of logical qudits equals the plus-sector
homology dimension.

Distances are computed exactly by two batched searches, which can be
played against each other as independent oracles.  Both rest on a
coset basis: a basis of a kernel whose first r rows span the image
(the stabilizers) and whose last k rows represent the logical classes,
picked by one row reduction.

- Exhaustive mode enumerates the kernel over that basis with
  ``gf.span_blocks`` (refused above ``gf.ENUMERATION_LIMIT`` kernel
  vectors).  The logicals are exactly the combinations of span index
  sum_i c_i p**i at least p**r, so only their weights are computed.
- Bounded mode scans weights 1..w_max.  It multiplies blocks of
  supports and value tuples against the dual coset basis at once: a
  vector is a logical when its syndromes vanish on the row space of
  the checks and not on the k dual representatives.  It has no
  enumeration cap; weight w costs C(n, w) (p-1)**(w-1) syndromes.

Both need the X and Z generators to commute, which ``min_distance``
checks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .complexes import InvolutiveComplex
from .gf import (
    FieldSpec, MatGF, _mod, _row_reduce, col_weights, kernel_basis, rank, row_weights, solve,
    span_blocks,
)

__all__ = [
    "CssCode",
    "DistanceReport",
    "extract_css",
    "min_distance",
    "vanishing_reduced_implies_boundary",
]


@dataclass(frozen=True, eq=False)
class CssCode:
    """A qudit CSS code with explicit generator matrices.

    z_gens holds one Z generator per column (length n_phys each) and
    x_gens one X generator per row.  stab_weight is the largest support
    of any single generator.
    """

    field: FieldSpec
    z_gens: MatGF
    x_gens: MatGF
    n_phys: int
    k: int
    stab_weight: int


def _check_commute(x_gens: MatGF, z_gens: MatGF) -> None:
    if not (x_gens @ z_gens).is_zero():
        raise ValueError("X and Z generators do not commute; boundary does not square to zero")


def extract_css(c: InvolutiveComplex) -> CssCode:
    """Read the CSS code off a complex; raises if the generator families
    fail to commute (i.e. if the complex is not a complex)."""
    z_gens = c.d_pm
    x_gens = c.d_mp
    _check_commute(x_gens, z_gens)
    n_phys = c.dim_plus
    k = (n_phys - rank(x_gens)) - rank(z_gens)
    gen_weights = [0]
    if z_gens.cols:
        gen_weights.append(int(col_weights(z_gens).max()))
    if x_gens.rows:
        gen_weights.append(int(row_weights(x_gens).max()))
    return CssCode(
        field=c.field,
        z_gens=z_gens,
        x_gens=x_gens,
        n_phys=n_phys,
        k=k,
        stab_weight=max(gen_weights),
    )


@dataclass(frozen=True)
class DistanceReport:
    """Outcome of a distance computation.

    d_z / d_x are exact when set.  In bounded mode a side where no
    logical operator of weight <= search_bound exists reports None with
    the corresponding lower bound search_bound + 1.
    """

    d_z: int | None
    d_x: int | None
    d_z_lower: int
    d_x_lower: int
    method: str
    search_bound: int | None


# Cells (supports x value tuples x checks) in one syndrome block of the
# bounded search, so its memory stays flat as the code grows.
_BLOCK_CELLS = 1 << 17


def _coset_basis(kernel_of: MatGF, image_of: MatGF) -> tuple[np.ndarray, int]:
    """A basis of ker kernel_of as rows, and r = rank image_of: the first
    r rows span im image_of and the remaining k represent the classes of
    ker / im.

    One row reduction of [columns of image_of; a kernel basis], stacked
    as columns, picks the first maximal independent subset: the r
    independent image columns, then k kernel vectors.  This needs
    im image_of inside ker kernel_of, which ``min_distance`` checks.
    Raises when k = 0.
    """
    stacked = np.concatenate([image_of.data.T, kernel_basis(kernel_of)])
    _, picked = _row_reduce(stacked.T, kernel_of.field.order)
    r = sum(1 for i in picked if i < image_of.cols)
    if r == len(picked):
        raise ValueError("code has no logical operators")
    return stacked[picked], r


def _min_weight_logical_exhaustive(kernel_of: MatGF, image_of: MatGF) -> int:
    """Minimum weight over (ker kernel_of) \\ (im image_of), by exhausting
    the kernel over the basis [r image rows; k logical representatives].

    A combination is a logical exactly when one of its k logical
    coefficients is nonzero, that is when its span index sum_i c_i p**i
    (the order ``span_blocks`` yields rows in) is at least p**r; only
    weights are computed.
    """
    p = kernel_of.field.order
    basis, r = _coset_basis(kernel_of, image_of)
    first_logical = p**r
    best = kernel_of.cols
    start = 0
    for vecs in span_blocks(basis, p):
        skip = max(first_logical - start, 0)
        start += len(vecs)
        if skip < len(vecs):
            best = min(best, int(np.count_nonzero(vecs[skip:], axis=1).min()))
    return best


def _min_weight_logical_bounded(
    kernel_of: MatGF, image_of: MatGF, w_max: int
) -> tuple[int | None, int]:
    """First weight w <= w_max carrying a logical operator.

    The checks are [a basis of the row space of kernel_of; k
    representatives of ker image_of^T modulo that row space].  Since
    im image_of is the annihilator of ker image_of^T, a vector is a
    logical exactly when its first r syndromes vanish and one of its
    last k does not.  A logical times a nonzero scalar is one of the same
    weight, so value tuples start with 1: each weight costs
    C(n, w) (p-1)**(w-1) syndromes, computed in blocks of supports of at
    most ``_BLOCK_CELLS`` cells.

    Returns (d, lower): d is the exact distance when found, otherwise
    None with lower = w_max + 1.
    """
    p = kernel_of.field.order
    n = kernel_of.cols
    checks, r = _coset_basis(image_of.T, kernel_of.T)
    for w in range(1, min(w_max, n) + 1):
        # The smallest dtype holding a sum of w products of residues: a
        # syndrome block then moves a fraction of the int64 bytes.
        dtype = np.min_scalar_type(w * (p - 1) ** 2)
        values = np.array(
            [(1, *rest) for rest in itertools.product(range(1, p), repeat=w - 1)], dtype=dtype
        )
        cols = checks.T.astype(dtype)
        block = max(1, _BLOCK_CELLS // (len(values) * len(checks)))
        supports = itertools.combinations(range(n), w)
        while True:
            flat = itertools.chain.from_iterable(itertools.islice(supports, block))
            chunk = np.fromiter(flat, dtype=np.intp).reshape(-1, w)
            if not len(chunk):
                break
            syn = _mod(np.einsum("vw,bwc->bvc", values, cols[chunk]), p)
            logical = ~syn[:, :, :r].any(axis=2) & syn[:, :, r:].any(axis=2)
            if logical.any():
                return w, w
    return None, w_max + 1


def min_distance(
    code: CssCode,
    mode: str = "exhaustive",
    w_max: int | None = None,
) -> DistanceReport:
    """Exact minimum distances of both logical operator types.

    d_z is the minimum weight over ker(x_gens) outside the column space
    of z_gens; d_x is the same with the roles transposed.  Exhaustive
    mode enumerates the full kernels, takes no w_max, and is refused
    when a kernel holds more than ``gf.ENUMERATION_LIMIT`` vectors.
    Bounded mode scans weights 1..w_max and reports a lower bound for a
    side where nothing is found.  A code with k = 0 has no logical
    operators and raises, and so does a code whose generators do not
    commute.
    """
    if code.k == 0:
        raise ValueError("code has no logical operators (k = 0)")
    _check_commute(code.x_gens, code.z_gens)
    if mode == "exhaustive":
        if w_max is not None:
            raise ValueError("exhaustive mode takes no w_max")
        d_z = _min_weight_logical_exhaustive(code.x_gens, code.z_gens)
        d_x = _min_weight_logical_exhaustive(code.z_gens.T, code.x_gens.T)
        return DistanceReport(
            d_z=d_z, d_x=d_x, d_z_lower=d_z, d_x_lower=d_x, method="exhaustive", search_bound=None
        )
    if mode == "bounded":
        if w_max is None or w_max < 1:
            raise ValueError("bounded mode needs w_max >= 1")
        d_z, z_lower = _min_weight_logical_bounded(code.x_gens, code.z_gens, w_max)
        d_x, x_lower = _min_weight_logical_bounded(code.z_gens.T, code.x_gens.T, w_max)
        return DistanceReport(
            d_z=d_z, d_x=d_x, d_z_lower=z_lower, d_x_lower=x_lower,
            method="bounded", search_bound=w_max,
        )
    raise ValueError(f"unknown distance mode {mode!r}")


def vanishing_reduced_implies_boundary(
    pc,
    h: np.ndarray,
    rows_plus: Sequence[int],
    cols_plus: Sequence[int],
    rows_minus: Sequence[int],
    cols_minus: Sequence[int],
) -> bool:
    """Whether a plus-sector cycle with vanishing reduced matrix is a
    boundary; decided exactly by solving d_pm x = h.

    The index sets pick the reduced submatrix of each block, and h must
    vanish there.  When both factor codes (for either sign of the
    involution) have distance at least 2(n - n_prime) + 1, the answer
    is always True.
    """
    cx = pc.complex
    p = cx.field.order
    vec = np.asarray(h, dtype=np.int64) % p
    if vec.shape != (cx.dim_plus,):
        raise ValueError(f"expected a C+ vector of length {cx.dim_plus}")
    if (cx.d_mp @ vec).any():
        raise ValueError("h is not a cycle")
    psi_plus, psi_minus = pc.vector_to_blocks(vec)
    if psi_plus.submatrix(rows_plus, cols_plus).data.any():
        raise ValueError("reduced matrix of the plus block does not vanish")
    if psi_minus.submatrix(rows_minus, cols_minus).data.any():
        raise ValueError("reduced matrix of the minus block does not vanish")
    return solve(cx.d_pm, vec) is not None
