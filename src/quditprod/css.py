"""CSS codes read off a two-sector complex.

Physical qudits are the basis of C+.  The columns of d_pm are the
Z-type stabilizer generators and the rows of d_mp are the X-type
generators; d_mp @ d_pm = 0 is exactly the CSS orthogonality
condition.  The number of logical qudits equals the plus-sector
homology dimension.

Distances are computed exactly, either by exhausting the relevant
kernel (coefficient enumeration over a kernel basis, refused above
``gf.ENUMERATION_LIMIT`` kernel vectors) or by a bounded search over
all vectors of weight <= w_max.  Both searches are deterministic, so
they can be played against each other as independent oracles.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .complexes import InvolutiveComplex
from .gf import (
    FieldSpec, MatGF, _row_reduce, col_weights, kernel_basis, rank, row_weights, solve, span_blocks,
)

__all__ = [
    "CssCode",
    "DistanceReport",
    "extract_css",
    "min_distance",
    "clean_cocycle",
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


def extract_css(c: InvolutiveComplex) -> CssCode:
    """Read the CSS code off a complex; raises if the generator families
    fail to commute (i.e. if the complex is not a complex)."""
    z_gens = c.d_pm
    x_gens = c.d_mp
    if not (x_gens @ z_gens).is_zero():
        raise ValueError("X and Z generators do not commute; boundary does not square to zero")
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

    def as_dict(self) -> dict:
        return {
            "d_z": self.d_z,
            "d_x": self.d_x,
            "d_z_lower": self.d_z_lower,
            "d_x_lower": self.d_x_lower,
            "method": self.method,
            "search_bound": self.search_bound,
        }


def _span_rref(m: MatGF) -> tuple[np.ndarray, list[int]]:
    """Row echelon data for the column space of m (rows span im m)."""
    return _row_reduce(m.data.T, m.field.order)


def _outside_span(vectors: np.ndarray, rref: np.ndarray, pivots: list[int], p: int) -> np.ndarray:
    """Boolean mask of rows of ``vectors`` not lying in the given span."""
    rem = vectors % p
    if pivots:
        rem = (rem - rem[:, pivots] @ rref[: len(pivots)]) % p
    return rem.any(axis=1)


def _min_weight_logical_exhaustive(kernel_of: MatGF, image_of: MatGF) -> int:
    """Minimum weight over (ker kernel_of) \\ (im image_of), by exhausting
    the kernel via coefficient tuples over a kernel basis."""
    p = kernel_of.field.order
    kernel = span_blocks(kernel_basis(kernel_of), p)
    rref, pivots = _span_rref(image_of)
    best: int | None = None
    # The zero combination lies in the image, so _outside_span drops it.
    for vecs in kernel:
        logical = _outside_span(vecs, rref, pivots, p)
        if logical.any():
            weights = np.count_nonzero(vecs[logical], axis=1)
            cand = int(weights.min())
            if best is None or cand < best:
                best = cand
    if best is None:
        raise ValueError("code has no logical operators")
    return best


def _colex_supports(n: int, w: int) -> Iterator[tuple[int, ...]]:
    """Size-w subsets of range(n) in colexicographic order."""
    if w == 0:
        yield ()
        return
    for top in range(w - 1, n):
        for rest in itertools.combinations(range(top), w - 1):
            yield rest + (top,)


def _min_weight_logical_bounded(
    kernel_of: MatGF, image_of: MatGF, w_max: int
) -> tuple[int | None, int]:
    """First weight w <= w_max carrying a logical operator, searching
    supports in colex order and nonzero value tuples per support.

    Returns (d, lower): d is the exact distance when found, otherwise
    None with lower = w_max + 1.
    """
    p = kernel_of.field.order
    n = kernel_of.cols
    rref, pivots = _span_rref(image_of)
    stab = kernel_of.data
    nonzero_vals = np.arange(1, p, dtype=np.int64)
    for w in range(1, w_max + 1):
        value_tuples = np.array(list(itertools.product(nonzero_vals, repeat=w)), dtype=np.int64)
        for support in _colex_supports(n, w):
            cols = stab[:, support]
            syndromes = (value_tuples @ cols.T) % p
            in_kernel = ~syndromes.any(axis=1)
            if not in_kernel.any():
                continue
            vecs = np.zeros((int(in_kernel.sum()), n), dtype=np.int64)
            vecs[:, support] = value_tuples[in_kernel]
            if _outside_span(vecs, rref, pivots, p).any():
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
    mode enumerates the full kernels and is refused when a kernel holds
    more than ``gf.ENUMERATION_LIMIT`` vectors.  Bounded mode scans
    weights 1..w_max and reports a lower bound for a side where nothing
    is found.  A code with k = 0 has no logical operators and raises.
    """
    if code.k == 0:
        raise ValueError("code has no logical operators (k = 0)")
    if mode == "exhaustive":
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


def clean_cocycle(
    c: InvolutiveComplex, side: str, hbar: np.ndarray, support: Sequence[int]
) -> np.ndarray:
    """A coboundary omega with (hbar + omega) vanishing on ``support``.

    For side "plus" the cocycle lives in the C- coordinate space
    (ker d_mp^T) and coboundaries are im d_pm^T; side "minus" swaps the
    roles.  Solves the restricted system (T x)|_S = -hbar|_S for the
    appropriate transposed block T and returns omega = T x.  Raises if
    hbar is not a cocycle or if the system is unsolvable, which signals
    a support at least as large as the relevant distance.
    """
    p = c.field.order
    if side == "plus":
        cocycle_test = c.d_mp.T
        cobound = c.d_pm.T
    elif side == "minus":
        cocycle_test = c.d_pm.T
        cobound = c.d_mp.T
    else:
        raise ValueError(f"side must be 'plus' or 'minus', got {side!r}")
    vec = np.asarray(hbar, dtype=np.int64) % p
    if vec.shape != (cobound.rows,):
        raise ValueError(f"cocycle has shape {vec.shape}, expected ({cobound.rows},)")
    if (cocycle_test @ vec).any():
        raise ValueError("hbar is not a cocycle")
    idx = sorted(set(int(i) for i in support))
    if idx and not (0 <= idx[0] and idx[-1] < cobound.rows):
        raise ValueError("support index out of range")
    restricted = MatGF(c.field, cobound.data[idx, :], _reduced=True)
    x = solve(restricted, (-vec[idx]) % p)
    if x is None:
        raise ValueError("cleaning system unsolvable; support too large for this complex")
    omega = cobound @ x
    if ((vec + omega) % p)[idx].any():
        raise AssertionError("cleaned cocycle still meets the support")
    return omega


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
