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
- Bounded mode scans weights 1..w_max by meet in the middle.  Weight
  w splits into ceil(w/2) + floor(w/2): a table holds the syndromes of
  every weight-floor(w/2) vector, grouped by its stabilizer syndrome,
  and the weight-ceil(w/2) vectors are streamed against it.  A streamed
  vector meets a logical when some table vector cancels its stabilizer
  syndrome but not its k dual syndromes.  It has no enumeration cap;
  weight w tabulates C(n, floor(w/2)) (p-1)**floor(w/2) syndromes and
  streams C(n, ceil(w/2)) (p-1)**(ceil(w/2)-1), both in blocks of
  bounded size.

Both need the X and Z generators to commute, which ``min_distance``
checks.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .complexes import InvolutiveComplex
from .gf import (
    _FLOAT_EXACT, FieldSpec, MatGF, _mod, _read_only, _row_reduce, col_weights, kernel_basis, rank,
    row_weights, solve, span_blocks,
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


# Cells (vectors x checks) in one block of syndromes streamed by the
# bounded search, and in one chunk of its table: a larger table is met
# against the whole stream one chunk at a time.  Memory stays flat as
# the code grows.
_BLOCK_CELLS = 1 << 17
_TABLE_CELLS = 1 << 21


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


def _min_weight_logical_exhaustive(basis: np.ndarray, r: int, p: int) -> int:
    """Minimum weight over a kernel outside an image, by exhausting the
    kernel over its coset basis [r image rows; k logical
    representatives] (``_coset_basis``).

    A combination is a logical exactly when one of its k logical
    coefficients is nonzero, that is when its span index sum_i c_i p**i
    (the order ``span_blocks`` yields rows in) is at least p**r; only
    weights are computed.
    """
    first_logical = p**r
    best = basis.shape[1]
    start = 0
    for vecs in span_blocks(basis, p):
        skip = max(first_logical - start, 0)
        start += len(vecs)
        if skip < len(vecs):
            best = min(best, int(np.count_nonzero(vecs[skip:], axis=1).min()))
    return best


@functools.lru_cache(maxsize=64)
def _key_weights(width: int, p: int) -> np.ndarray:
    """Fixed pseudo-random float64 weights below 2**53 / (width (p-1)):
    a weighted sum of ``width`` residues is then an integer float64
    holds exactly, whatever order BLAS adds in."""
    bound = _FLOAT_EXACT // max(1, width * (p - 1))
    rng = np.random.default_rng(width)
    return _read_only(rng.integers(1, bound, size=width).astype(np.float64))


def _syndrome_keys(syn: np.ndarray, p: int) -> np.ndarray:
    """int64 hash keys of the rows of a (m, r) residue array.  Equal rows
    get equal keys; different rows rarely share one, and the bounded
    search decides every candidate on the exact rows."""
    return (syn.astype(np.float64) @ _key_weights(syn.shape[1], p)).astype(np.int64)


def _syndromes(
    cols: np.ndarray, h: int, values: np.ndarray, p: int, cells: int
) -> Iterator[np.ndarray]:
    """Syndromes of every weight-h vector whose values on its support are
    a row of ``values``, in blocks of (vectors, checks) residues of at
    most max(cells, one support) cells.  cols[i] is column i of the
    checks, held in a dtype that holds a sum of h products of residues.
    """
    n, c = cols.shape
    block = max(1, cells // (len(values) * c))
    supports = itertools.combinations(range(n), h)
    while batch := list(itertools.islice(supports, block)):
        idx = np.fromiter(itertools.chain.from_iterable(batch), np.intp, len(batch) * h)
        syn = np.einsum("vw,bwc->bvc", values, cols[idx.reshape(len(batch), h)])
        yield _mod(syn, p).reshape(-1, c)


def _group_table(syn: np.ndarray, r: int, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows of a table of syndromes, grouped by their exact first r
    entries: (keys, rows, mixed), sorted by key.  rows holds one full
    row per group, and mixed marks the groups whose rows do not all
    share that row's last entries.

    Rows sorted by key fall into runs of equal key; a group is a
    maximal stretch of one run with equal first r entries.  Two groups
    share a key only where keys collide.
    """
    keys = _syndrome_keys(syn[:, :r], p)
    order = np.argsort(keys)
    keys, syn = keys[order], syn[order]
    new = np.ones(len(syn), dtype=bool)
    new[1:] = (keys[1:] != keys[:-1]) | (syn[1:, :r] != syn[:-1, :r]).any(axis=1)
    starts = np.flatnonzero(new)
    rows = syn[starts]
    differs = (syn[:, r:] != rows[np.cumsum(new) - 1, r:]).any(axis=1)
    return keys[starts], rows, np.logical_or.reduceat(differs, starts)


def _meets_logical(
    table: tuple[np.ndarray, np.ndarray, np.ndarray], syn: np.ndarray, r: int, p: int
) -> bool:
    """Whether some row of ``syn`` equals a table group's row on the first
    r entries, and differs from it on the rest or the group is mixed:
    then some table row minus it is a logical.

    Every group whose key equals a row's key is a candidate; each is
    decided on the exact entries, so a key collision costs a comparison
    and never changes the answer.  Rows whose candidates would gather
    more than ``_BLOCK_CELLS`` cells are met in halves.
    """
    keys, rows, mixed = table
    wanted = _syndrome_keys(syn[:, :r], p)
    lo = np.searchsorted(keys, wanted, "left")
    count = np.searchsorted(keys, wanted, "right") - lo
    total = int(count.sum())
    if not total:
        return False
    if total * syn.shape[1] > _BLOCK_CELLS and len(syn) > 1:
        half = len(syn) // 2
        return _meets_logical(table, syn[:half], r, p) or _meets_logical(table, syn[half:], r, p)
    query = np.repeat(np.arange(len(syn)), count)
    group = lo[query] + np.arange(total) - np.repeat(np.cumsum(count) - count, count)
    same = (rows[group, :r] == syn[query, :r]).all(axis=1)
    differs = mixed[group] | (rows[group, r:] != syn[query, r:]).any(axis=1)
    return bool((same & differs).any())


def _min_weight_logical_bounded(
    checks: np.ndarray, r: int, p: int, w_max: int
) -> tuple[int | None, int]:
    """First weight w <= w_max carrying a logical operator.

    ``checks`` and r are ``_coset_basis(image_of.T, kernel_of.T)`` for
    the logicals of ker kernel_of outside im image_of: r rows spanning
    the row space of kernel_of, then k representatives of
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

    Both halves are built from columns of the checks, the stream in
    blocks of ``_BLOCK_CELLS`` cells and the table in chunks of
    ``_TABLE_CELLS``, each chunk met against the whole stream.

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
        every = np.array(list(itertools.product(range(1, p), repeat=low)), dtype=dtype)
        led = np.array(
            [(1, *rest) for rest in itertools.product(range(1, p), repeat=high - 1)], dtype=dtype
        )
        for chunk in _syndromes(cols, low, every, p, _TABLE_CELLS):
            table = _group_table(chunk, r, p)
            stream = _syndromes(cols, high, led, p, _BLOCK_CELLS)
            if any(_meets_logical(table, syn, r, p) for syn in stream):
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
    p = code.field.order
    if mode == "exhaustive":
        if w_max is not None:
            raise ValueError("exhaustive mode takes no w_max")
        d_z = _min_weight_logical_exhaustive(*_coset_basis(code.x_gens, code.z_gens), p)
        d_x = _min_weight_logical_exhaustive(*_coset_basis(code.z_gens.T, code.x_gens.T), p)
        return DistanceReport(
            d_z=d_z, d_x=d_x, d_z_lower=d_z, d_x_lower=d_x, method="exhaustive", search_bound=None
        )
    if mode == "bounded":
        if w_max is None or w_max < 1:
            raise ValueError("bounded mode needs w_max >= 1")
        # A coset basis of one side's kernel is the other side's checks.
        d_z, z_lower = _min_weight_logical_bounded(
            *_coset_basis(code.z_gens.T, code.x_gens.T), p, w_max
        )
        d_x, x_lower = _min_weight_logical_bounded(*_coset_basis(code.x_gens, code.z_gens), p, w_max)
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
