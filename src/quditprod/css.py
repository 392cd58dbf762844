"""CSS codes read off a two-sector complex, and their exact distances.

Physical qudits are the basis of C+.  The columns of d_pm are the
Z-type stabilizer generators and the rows of d_mp are the X-type
generators; d_mp @ d_pm = 0 is exactly the CSS orthogonality
condition, which a ``CssCode`` checks once, when it is built.  The
number of logical qudits equals the plus-sector homology dimension.
Both families are ranked as rows, z_gens^T and x_gens, in the
orientation of ``complexes._block_ranks``, so one elimination per
family serves the complex's ranks, the code's and its coset bases
(``_coset_bases``).

``min_distance`` runs one of two exact searches, which can be played
against each other as independent oracles:

- exhaustive (``_min_weight_logical_exhaustive``), refused above
  ``gf.ENUMERATION_LIMIT`` kernel vectors, p**(r + k) for r stabilizers
  and k logical qudits;
- bounded (``_min_weight_logical_bounded``), weights 1..w_max by meet
  in the middle, with no enumeration cap and flat memory in n and p:
  both halves take their vectors from ``gf._weight_blocks``, syndromes
  come in blocks of ``_BLOCK_CELLS`` and tables in chunks of
  ``_TABLE_CELLS`` cells.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .complexes import InvolutiveComplex
from .gf import (
    FieldSpec, MatGF, _check_enumeration, _line_weights, _matmul, _mod, _read_only, _row_reduce,
    _weight_blocks, col_weights, kernel_basis, rank, row_weights,
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
    x_gens one X generator per row.  The rest is computed from them
    when the code is built, which refuses generators that do not
    commute: field, n_phys, k = n_phys - rank x_gens - rank z_gens^T,
    and stab_weight, the largest support of any single generator.  The
    coset bases of the distance searches are built on first use, from
    the echelon forms those ranks keep, and kept.
    """

    z_gens: MatGF
    x_gens: MatGF
    field: FieldSpec = dataclasses.field(init=False)
    n_phys: int = dataclasses.field(init=False)
    k: int = dataclasses.field(init=False)
    stab_weight: int = dataclasses.field(init=False)

    def __post_init__(self) -> None:
        z_gens, x_gens = self.z_gens, self.x_gens
        _check_commute(x_gens, z_gens)
        weight = max(col_weights(z_gens).max(initial=0), row_weights(x_gens).max(initial=0))
        object.__setattr__(self, "field", z_gens.field)
        object.__setattr__(self, "n_phys", z_gens.rows)
        object.__setattr__(self, "k", z_gens.rows - rank(x_gens) - rank(z_gens.T))
        object.__setattr__(self, "stab_weight", int(weight))

    @functools.cached_property
    def _cosets(self) -> tuple[tuple[np.ndarray, int], tuple[np.ndarray, int]]:
        """:func:`_coset_bases` of this code, read-only."""
        return tuple((_read_only(basis), r) for basis, r in _coset_bases(self))


def _check_commute(x_gens: MatGF, z_gens: MatGF) -> None:
    if not (x_gens @ z_gens).is_zero():
        raise ValueError("X and Z generators do not commute; boundary does not square to zero")


def extract_css(c: InvolutiveComplex) -> CssCode:
    """Read the CSS code off a complex; raises if the generator families
    fail to commute (i.e. if the complex is not a complex)."""
    return CssCode(z_gens=c.d_pm, x_gens=c.d_mp)


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


# Cells (vectors x checks) in one block of syndromes streamed by the
# bounded search, and in one chunk of its table: a larger table is met
# against the whole stream one chunk at a time.  Memory stays flat as
# the code grows.
_BLOCK_CELLS = 1 << 17
_TABLE_CELLS = 1 << 21


def _coset_bases(code: CssCode) -> tuple[tuple[np.ndarray, int], tuple[np.ndarray, int]]:
    """Coset bases of both sides, ((z_basis, r_z), (x_basis, r_x)).

    z_basis is a basis of ker x_gens as rows whose first r_z = rank
    z_gens rows span im z_gens and whose last k represent the classes of
    ker / im; x_basis is the same for ker z_gens^T and the row space of
    x_gens.  Everything of rank above k is read from the echelon forms
    the code's ranks keep: the stabilizer rows are the rows of
    rref(z_gens^T) and of rref(x_gens), and the kernels come from the
    same two forms.  The only eliminations are of the rank-k pairing.

    The logical rows come from the pairing P = K_x K_z^T, where K_x and
    K_z are kernel bases of x_gens and z_gens^T.  The generators
    commute, so im z_gens = (ker z_gens^T)^perp: a combination of rows
    of K_x lies in im z_gens exactly when its row of P vanishes.  So P
    has rank k, and any k rows of K_x with independent rows of P
    represent the Z classes; by symmetry, k rows of K_z with independent
    columns of P represent the X classes.
    """
    p = code.field.order
    z_gens, x_gens = code.z_gens, code.x_gens
    k_x, k_z = kernel_basis(x_gens), kernel_basis(z_gens.T)
    pairing = _matmul(k_x, k_z.T, p)
    z_logical = _row_reduce(pairing.T, p)[1]
    x_logical = _row_reduce(pairing, p)[1]
    z_stabilizers = z_gens.T._rref()[0]
    x_stabilizers = x_gens._rref()[0]
    return (
        (np.concatenate([z_stabilizers, k_x[z_logical]]), len(z_stabilizers)),
        (np.concatenate([x_stabilizers, k_z[x_logical]]), len(x_stabilizers)),
    )


def _min_weight_logical_exhaustive(basis: np.ndarray, r: int, p: int) -> int:
    """Minimum weight over a kernel outside an image, by walking the
    kernel over its coset basis [r image rows; k logical
    representatives] (``_coset_bases``).

    A logical times a nonzero scalar is a logical of the same weight, so
    one vector per line of logicals is weighed: the rows
    ``gf.line_blocks`` yields from index r, p**r (p**k - 1) / (p - 1) in
    all, whose weights ``gf._line_weights`` counts without forming them.
    It refuses a kernel of more than ``gf.ENUMERATION_LIMIT`` vectors.
    """
    best = basis.shape[1]
    for weights in _line_weights(basis, p, start=r):
        best = min(best, int(weights.min()))
    return best


def _keys(syn: np.ndarray, r: int) -> np.ndarray:
    """One exact key per row of a (m, c) syndrome array: the bytes of its
    first r entries, as a void scalar.  Keys are equal exactly when
    those entries are, and sort and search like any scalar.  With r = 0
    every row gets the same empty key."""
    if not r:
        return np.empty(len(syn), dtype="V0")
    head = np.ascontiguousarray(syn[:, :r])
    return head.view(np.dtype((np.void, head.itemsize * r)))[:, 0]


def _syndromes(
    cols: np.ndarray, h: int, p: int, cells: int, *, lead: bool
) -> Iterator[np.ndarray]:
    """Syndromes of every weight-h vector, with first value 1 when
    ``lead`` is set, in the order and blocks of ``gf._weight_blocks``:
    (vectors, checks) residues of at most max(cells, one vector) cells.
    cols[i] is column i of the checks, held in a dtype that holds a sum
    of h products of residues.

    A vector counts as at least 8 cells, however few checks there are:
    beside its syndrome, a block holds each vector's run of value
    indices and a decode temporary, whatever c is.
    """
    n, c = cols.shape
    rows = max(1, cells // max(c, 8))
    for supports, values in _weight_blocks(n, p, h, rows, lead=lead, dtype=cols.dtype):
        syn = np.einsum("vw,bwc->bvc", values, cols[supports])
        yield _mod(syn, p).reshape(-1, c)


def _group_table(syn: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows of a table of syndromes, grouped by their first r entries:
    (keys, duals, mixed), one entry per group, sorted by key.  duals
    holds the last entries of one row of the group, and mixed marks the
    groups whose rows do not all share them."""
    keys = _keys(syn, r)
    # numpy's stable argsort of void keys beats its default quicksort here.
    order = np.argsort(keys, kind="stable")
    keys, duals = keys[order], syn[order, r:]
    new = np.ones(len(keys), dtype=bool)
    new[1:] = keys[1:] != keys[:-1]
    starts = np.flatnonzero(new)
    differs = (duals != duals[starts][np.cumsum(new) - 1]).any(axis=1)
    return keys[starts], duals[starts], np.logical_or.reduceat(differs, starts)


def _meets_logical(
    table: tuple[np.ndarray, np.ndarray, np.ndarray], syn: np.ndarray, r: int
) -> bool:
    """Whether some row of ``syn`` shares its first r entries with a table
    group, and differs from the group's dual entries or the group is
    mixed: then some table row minus it is a logical.  Keys are exact,
    so one lookup finds the only group a row can match."""
    keys, duals, mixed = table
    wanted = _keys(syn, r)
    at = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
    hit = keys[at] == wanted
    at = at[hit]
    return bool((mixed[at] | (duals[at] != syn[hit, r:]).any(axis=1)).any())


def _min_weight_logical_bounded(
    checks: np.ndarray, r: int, p: int, w_max: int
) -> tuple[int | None, int]:
    """First weight w <= w_max carrying a logical operator.

    ``checks`` and r are the other side's coset basis (``_coset_bases``)
    for the logicals of ker kernel_of outside im image_of: r rows
    spanning the row space of kernel_of, then k representatives of
    ker image_of^T modulo that row space.  Since im image_of is the
    annihilator of ker image_of^T, a vector is a logical exactly when
    its first r syndromes vanish and one of its last k does not.

    Meet in the middle.  Scale a weight-w logical v so that its first
    value is -1 (a logical times a nonzero scalar is one of the same
    weight), and split it as v = x - u: u is -v on the first ceil(w/2)
    positions of its support, so its first value is 1, and x is v on the
    rest, of weight floor(w/2).  Then x and u share their stabilizer
    syndrome but not all of their dual syndromes.  So:

    - the table holds the syndromes of every weight-floor(w/2) vector
      over all nonzero values, grouped by their exact stabilizer
      syndrome; a group keeps one dual syndrome and a mark when its
      vectors hold several (``_group_table``);
    - the stream is every weight-ceil(w/2) vector u whose first value
      is 1, in blocks;
    - u meets a logical when its group is marked or holds a dual
      syndrome other than u's (``_meets_logical``).

    A hit x - u has zero stabilizer syndrome and a nonzero dual one, so
    it is a logical of weight at most w.  Where the supports of x and u
    overlap its weight is below w, which the search has ruled out
    already; so the first w with a hit is the distance.

    Both halves are built from columns of the checks over the vectors
    of ``gf._weight_blocks``, the stream in blocks of ``_BLOCK_CELLS``
    cells and the table in chunks of ``_TABLE_CELLS``, each chunk met
    against the whole stream.

    Returns (d, lower): d is the exact distance when found, otherwise
    None with lower = w_max + 1.
    """
    n = checks.shape[1]
    for w in range(1, min(w_max, n) + 1):
        low, high = w // 2, w - w // 2
        # The smallest dtype holding a sum of high products of residues:
        # a syndrome block then moves a fraction of the int64 bytes.
        dtype = np.min_scalar_type(high * (p - 1) ** 2)
        cols = checks.T.astype(dtype)
        for chunk in _syndromes(cols, low, p, _TABLE_CELLS, lead=False):
            table = _group_table(chunk, r)
            stream = _syndromes(cols, high, p, _BLOCK_CELLS, lead=True)
            if any(_meets_logical(table, syn, r) for syn in stream):
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
    when a kernel holds more than ``gf.ENUMERATION_LIMIT`` vectors,
    before any basis is built.  Bounded mode scans weights 1..w_max and
    reports a lower bound for a side where nothing is found.  A code
    with k = 0 has no logical operators and raises.
    """
    if code.k == 0:
        raise ValueError("code has no logical operators (k = 0)")
    p = code.field.order
    if mode == "exhaustive":
        if w_max is not None:
            raise ValueError("exhaustive mode takes no w_max")
        # The kernels of x_gens and z_gens^T, from the ranks the code keeps.
        _check_enumeration(p, code.n_phys - rank(code.x_gens))
        _check_enumeration(p, code.n_phys - rank(code.z_gens))
        z_side, x_side = code._cosets
        d_z = _min_weight_logical_exhaustive(*z_side, p)
        d_x = _min_weight_logical_exhaustive(*x_side, p)
        return DistanceReport(
            d_z=d_z, d_x=d_x, d_z_lower=d_z, d_x_lower=d_x, method="exhaustive", search_bound=None
        )
    if mode == "bounded":
        if w_max is None or w_max < 1:
            raise ValueError("bounded mode needs w_max >= 1")
        # A coset basis of one side's kernel is the other side's checks.
        z_side, x_side = code._cosets
        d_z, z_lower = _min_weight_logical_bounded(*x_side, p, w_max)
        d_x, x_lower = _min_weight_logical_bounded(*z_side, p, w_max)
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
    boundary.

    Decided exactly by the rule of ``_coset_bases``, im d_pm =
    (ker d_pm^T)^perp: h is a boundary exactly when it is orthogonal to
    every kernel vector of d_pm^T, the orientation whose echelon form
    the complex keeps (``complexes._block_ranks``).

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
    return not _matmul(kernel_basis(cx.d_pm.T), vec, p).any()
