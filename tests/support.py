"""Shared builders and reference oracles for the test suite.

The distance-3 factor construction conjugates the standard boundary by
matrices whose leading columns are Vandermonde evaluations over GF(5):
columns 1,2 span the degree<=1 evaluation space and column 0 adds the
degree-2 row.  The kernel of one sector block is then the full degree<=2
space (an MDS [5,3,3] code) and the dual-side kernel is the dual of the
degree<=1 space (also [5,3,3]), so every logical class on every side has
weight exactly 3.
"""

from __future__ import annotations

import importlib
import itertools
import pkgutil
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

import quditprod
from quditprod import gf
from quditprod import (
    ComplexShape,
    FieldSpec,
    InvolutiveComplex,
    ReducedComplex,
    is_good,
    random_boundary,
    standard_boundary,
    trial_rng,
)
from quditprod.gf import MatGF, inverse, kernel_basis, rank

FIELD3 = FieldSpec(3)
FIELD5 = FieldSpec(5)

SHAPE3 = ComplexShape(3, 1, 1)
SHAPE5 = ComplexShape(5, 1, 2)

_PTS = np.arange(5)
_ROW_CONST = np.ones(5, dtype=np.int64)
_ROW_LIN = _PTS % 5
_ROW_QUAD = (_PTS * _PTS) % 5


def vandermonde_conjugator(rng: np.random.Generator) -> MatGF:
    """Invertible 5x5 over GF(5) whose columns 0..2 span the degree<=2
    evaluation space, with columns 1,2 spanning the degree<=1 subspace."""
    while True:
        u = np.zeros((5, 5), dtype=np.int64)
        u[:, 0] = _ROW_QUAD
        u[:, 1] = _ROW_CONST
        u[:, 2] = _ROW_LIN
        u[:, 3] = rng.integers(0, 5, 5)
        u[:, 4] = rng.integers(0, 5, 5)
        m = MatGF(FIELD5, u)
        if rank(m) == 5:
            return m


def distance3_complex(rng: np.random.Generator) -> InvolutiveComplex:
    """A random n=5, H=1 complex over GF(5) whose code has distance 3 on
    both sides for both involution signs."""
    std = standard_boundary(SHAPE5, FIELD5)
    u_plus = vandermonde_conjugator(rng)
    u_minus = vandermonde_conjugator(rng)
    d_pm = u_plus @ std.d_pm @ inverse(u_minus)
    d_mp = u_minus @ std.d_mp @ inverse(u_plus)
    return InvolutiveComplex(FIELD5, d_pm, d_mp)


def good_complexes(
    shape: ComplexShape,
    field: FieldSpec,
    n_prime: int,
    master_seed: int,
    count: int,
    max_attempts: int = 2000,
) -> list[InvolutiveComplex]:
    """The first `count` good complexes from a seeded rejection search."""
    out: list[InvolutiveComplex] = []
    for i in range(max_attempts):
        c, _, _ = random_boundary(shape, field, trial_rng(master_seed, i))
        if is_good(c, n_prime):
            out.append(c)
            if len(out) == count:
                return out
    raise AssertionError(
        f"only {len(out)} good complexes in {max_attempts} attempts"
    )


@dataclass(frozen=True)
class Elimination:
    """One recorded ``gf._row_reduce`` call: a copy of its input, the
    rank it found and the array it returned."""

    matrix: np.ndarray
    rank: int
    rref: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape


def record_eliminations(monkeypatch) -> list[Elimination]:
    """Record every ``gf._row_reduce`` call, in order, into the list
    returned, until ``monkeypatch`` is undone.

    Every ``quditprod`` module is imported (``__main__`` aside, which
    would run the CLI), and each one that binds the name to
    ``gf._row_reduce`` is patched, so no import site hides an
    elimination.  Calls inside gf itself go through gf's binding."""
    modules = [
        importlib.import_module(f"quditprod.{info.name}")
        for info in pkgutil.iter_modules(quditprod.__path__)
        if info.name != "__main__"
    ]
    reduce = gf._row_reduce
    calls: list[Elimination] = []

    def recording(a, p):
        rref, pivots = reduce(a, p)
        calls.append(Elimination(np.array(a), len(pivots), rref))
        return rref, pivots

    sites = [module for module in modules if getattr(module, "_row_reduce", None) is reduce]
    assert gf in sites
    for module in sites:
        monkeypatch.setattr(module, "_row_reduce", recording)
    return calls


def reference_row_reduce(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reference for gf._row_reduce: the plain int64 elimination, whole
    rows at a time, reduced with %.  The reduced row echelon form is
    unique, so the library's must equal it entry for entry.

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


def reference_span(basis: np.ndarray, p: int) -> Iterator[np.ndarray]:
    """Every GF(p) combination of the basis rows, in index order: decode
    each span index idx into its coefficients (idx // p**i) % p and
    multiply by the basis, in blocks of 2^16 indices, reduced with %."""
    basis = np.asarray(basis, dtype=np.int64)
    powers = p ** np.arange(basis.shape[0], dtype=np.int64)
    total = p ** basis.shape[0]
    for start in range(0, total, 1 << 16):
        idx = np.arange(start, min(start + (1 << 16), total), dtype=np.int64)
        yield (idx[:, None] // powers % p) @ basis % p


def reference_lines(basis: np.ndarray, p: int, start: int = 0) -> Iterator[np.ndarray]:
    """Reference for gf.line_blocks: the rows of ``reference_span`` whose
    index idx has its top nonzero base-p digit equal to 1, at a position
    >= start, decoded as there, block by block.  The top digit of idx >
    0 sits at the largest k with p**k <= idx and is idx // p**k."""
    basis = np.asarray(basis, dtype=np.int64)
    powers = p ** np.arange(basis.shape[0], dtype=np.int64)
    total = p ** basis.shape[0]
    for first in range(0, total, 1 << 16):
        idx = np.arange(max(first, 1), min(first + (1 << 16), total), dtype=np.int64)
        top = np.searchsorted(powers, idx, side="right") - 1
        idx = idx[(top >= start) & (idx // powers[top] == 1)]
        yield (idx[:, None] // powers % p) @ basis % p


def reference_rank_batch(mats: np.ndarray, p: int) -> np.ndarray:
    """Reference batch rank, by elimination alone: no subspace table, so
    it stays independent of the table oracles it checks.  Every matrix
    of an (N, rows, cols) stack is eliminated at once in int64, whole
    rows at a time, reduced with %.  At column c each matrix's lead row,
    its first row nonzero there, is gathered, and every row i becomes
    pivot * row_i - m[i, c] * lead, which clears the lead row itself; a
    matrix with no nonzero entry in column c is left as it was."""
    m = np.array(mats, dtype=np.int64) % p
    nmat, nrows, ncols = m.shape
    ranks = np.zeros(nmat, dtype=np.int64)
    every = np.arange(nmat)
    for c in range(ncols if nrows else 0):
        nz = m[:, :, c] != 0
        has = nz.any(axis=1)
        lead = m[every, nz.argmax(axis=1)] * has[:, None]
        pivot = np.where(has, lead[:, c], 1)
        m = (pivot[:, None, None] * m - m[:, :, c : c + 1] * lead[:, None, :]) % p
        ranks += has
    return ranks


def reference_block_rank_census(
    basis: np.ndarray, p: int, plus_shape: tuple[int, int], minus_shape: tuple[int, int]
) -> dict[tuple[int, int], int]:
    """Reference for counting._block_rank_census: every combination of
    ``reference_span``, both blocks ranked by ``reference_rank_batch``."""
    (p1, p2), (m1, m2) = plus_shape, minus_shape
    counts: dict[tuple[int, int], int] = {}
    for vecs in reference_span(basis, p):
        r_plus = reference_rank_batch(vecs[:, : p1 * p2].reshape(len(vecs), p1, p2), p)
        r_minus = reference_rank_batch(vecs[:, p1 * p2 :].reshape(len(vecs), m1, m2), p)
        for key in zip(r_plus.tolist(), r_minus.tolist()):
            counts[key] = counts.get(key, 0) + 1
    return counts


def reference_rank_histogram(
    p: int, rows: int, cols: int, fixed: np.ndarray | None = None
) -> dict[int, int]:
    """Reference for counting._enumerate_ranks: every rows x cols matrix
    over GF(p) whose top-left block is ``fixed``, built one at a time
    from its free entries and ranked by ``reference_row_reduce``."""
    corner = np.zeros((0, 0), dtype=np.int64) if fixed is None else np.asarray(fixed) % p
    fr, fc = corner.shape
    free = [(i, j) for i in range(rows) for j in range(cols) if i >= fr or j >= fc]
    hist: dict[int, int] = {}
    for values in itertools.product(range(p), repeat=len(free)):
        m = np.zeros((rows, cols), dtype=np.int64)
        m[:fr, :fc] = corner
        for (i, j), v in zip(free, values):
            m[i, j] = v
        r = len(reference_row_reduce(m, p)[1])
        hist[r] = hist.get(r, 0) + 1
    return hist


def reference_ulw_probability(p: int, n_prime: int, rank: int, bound: Fraction) -> Fraction:
    """Reference for experiments.exhaustive_ulw_probability: every
    n' x n' matrix of ``reference_span`` ranked by
    ``reference_rank_batch``, its row and column weights compared with
    the bound c'n'."""
    hits = stratum = 0
    for vecs in reference_span(np.eye(n_prime * n_prime, dtype=np.int64), p):
        mats = vecs.reshape(-1, n_prime, n_prime)
        in_stratum = reference_rank_batch(mats, p) == rank
        light = (np.count_nonzero(mats, axis=1).max(axis=1) <= bound) & (
            np.count_nonzero(mats, axis=2).max(axis=1) <= bound
        )
        stratum += int(in_stratum.sum())
        hits += int((in_stratum & light).sum())
    return Fraction(hits, stratum)


def has_light_kernel_vector(basis: np.ndarray, p: int, w_max: int) -> bool:
    """Reference for experiments._light_kernel_hits, one basis at a time:
    whether the span of the rows of ``basis`` holds a nonzero vector of
    weight <= w_max, walking the span of ``reference_span``."""
    if w_max < 1:
        return False
    for vecs in reference_span(basis, p):
        weights = np.count_nonzero(vecs, axis=1)
        if ((weights > 0) & (weights <= w_max)).any():
            return True
    return False


def reference_light_kernel_vector(basis: np.ndarray, p: int, w_max: int) -> bool:
    """Reference for experiments._light_kernel_hits past a walkable span,
    one basis at a time: the r nonzero rows of ``reference_row_reduce``,
    and every combination of j <= min(w_max, r) of them whose first
    coefficient is 1 and the others nonzero, j by j.

    In reduced row echelon form the coefficient of row i is the entry
    at its pivot column, so a vector of weight <= w_max is a nonzero
    multiple of one of these combinations."""
    rref, pivots = reference_row_reduce(basis, p)
    rows = rref[: len(pivots)]
    for j in range(1, min(w_max, len(pivots)) + 1):
        coeffs = []
        for support in itertools.combinations(range(len(pivots)), j):
            for tail in itertools.product(range(1, p), repeat=j - 1):
                c = [0] * len(pivots)
                for i, v in zip(support, (1, *tail)):
                    c[i] = v
                coeffs.append(c)
        if (np.count_nonzero(np.array(coeffs) @ rows % p, axis=1) <= w_max).any():
            return True
    return False


def reference_matrix_to_text(m: MatGF) -> str:
    """Reference for gf.matrix_to_text: one str() per residue and one
    join per row."""
    lines = [f"{m.field.order} {m.rows} {m.cols}"]
    lines.extend(" ".join(map(str, row)) for row in m.data.tolist())
    return "\n".join(lines) + "\n"


def reference_matrix_from_lines(lines: Sequence[str], pos: int) -> tuple[MatGF, int]:
    """Reference for gf._matrix_from_lines: every entry parsed with
    int() and range-checked one row at a time, in Python."""
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


def reference_coset_basis(kernel_of: MatGF, image_of: MatGF) -> tuple[np.ndarray, int]:
    """Reference for css._coset_bases, one side at a time: a basis of
    ker kernel_of as rows, and r = rank image_of; the first r rows span
    im image_of and the remaining k represent the classes of ker / im.

    One row reduction of [columns of image_of; a kernel basis], stacked
    as columns, picks the first maximal independent subset: the r
    independent image columns, then k kernel vectors.  This needs
    im image_of inside ker kernel_of, which holds for the generators of
    every ``CssCode``: they commute.
    """
    stacked = np.concatenate([image_of.data.T, kernel_basis(kernel_of)])
    _, picked = reference_row_reduce(stacked.T, kernel_of.field.order)
    r = sum(1 for i in picked if i < image_of.cols)
    return stacked[picked], r


def bounded_logical_weight(kernel_of: MatGF, image_of: MatGF, w_max: int) -> int | None:
    """Reference for the bounded distance search: the first weight
    w <= w_max carrying a vector of ker kernel_of outside im image_of,
    else None.

    One support at a time, every nonzero value tuple, each kernel
    vector tested against the row echelon form of im image_of.
    """
    p = kernel_of.field.order
    n = kernel_of.cols
    rref, pivots = reference_row_reduce(image_of.data.T, p)
    for w in range(1, w_max + 1):
        values = np.array(list(itertools.product(range(1, p), repeat=w)), dtype=np.int64)
        for support in itertools.combinations(range(n), w):
            in_kernel = ~((values @ kernel_of.data[:, support].T) % p).any(axis=1)
            if not in_kernel.any():
                continue
            vecs = np.zeros((int(in_kernel.sum()), n), dtype=np.int64)
            vecs[:, support] = values[in_kernel]
            if pivots:
                vecs = (vecs - vecs[:, pivots] @ rref[: len(pivots)]) % p
            if vecs.any():
                return w
    return None


def _sector_orders(c1: InvolutiveComplex, c2: InvolutiveComplex) -> np.ndarray:
    """Raw tensor index (C1-major / C2-minor) of each product basis
    position: C1+ (x) C2+, C1- (x) C2-, then C1+ (x) C2-, C1- (x) C2+."""
    p1, m1 = c1.dim_plus, c1.dim_minus
    p2, m2 = c2.dim_plus, c2.dim_minus
    t2 = p2 + m2
    return np.array(
        [i * t2 + j for i in range(p1) for j in range(p2)]
        + [(p1 + i) * t2 + (p2 + j) for i in range(m1) for j in range(m2)]
        + [i * t2 + (p2 + j) for i in range(p1) for j in range(m2)]
        + [(p1 + i) * t2 + j for i in range(m1) for j in range(p2)],
        dtype=np.intp,
    )


def full_boundary(c: InvolutiveComplex) -> MatGF:
    """The boundary on C+ (+) C- with the plus block first."""
    dp, dm = c.dim_plus, c.dim_minus
    zp, zm = np.zeros((dp, dp), dtype=np.int64), np.zeros((dm, dm), dtype=np.int64)
    return MatGF(c.field, np.block([[zp, c.d_pm.data], [c.d_mp.data, zm]]))


def sector_map(pair: tuple[MatGF, MatGF]) -> MatGF:
    """The full block-diagonal matrix of a (plus, minus) chain map pair."""
    fp, fm = pair
    zero_pm = np.zeros((fp.rows, fm.cols), dtype=np.int64)
    zero_mp = np.zeros((fm.rows, fp.cols), dtype=np.int64)
    return MatGF(fp.field, np.block([[fp.data, zero_pm], [zero_mp, fm.data]]))


def reference_product_boundary(c1: InvolutiveComplex, c2: InvolutiveComplex) -> np.ndarray:
    """Reference for product(): the full raw boundary d1 (x) I + P1 (x) d2
    on C1 (x) C2, reordered into the product's sector coordinates."""
    p = c1.field.order
    d1, d2 = full_boundary(c1).data, full_boundary(c2).data
    eye2 = np.eye(c2.dim_plus + c2.dim_minus, dtype=np.int64)
    p1 = np.diag(np.array([1] * c1.dim_plus + [-1] * c1.dim_minus, dtype=np.int64))
    raw = (np.kron(d1, eye2) + np.kron(p1, d2)) % p
    order = _sector_orders(c1, c2)
    return raw[np.ix_(order, order)]


def reference_product_chain_map(
    f1: tuple[MatGF, MatGF], f2: tuple[MatGF, MatGF],
    source: tuple[InvolutiveComplex, InvolutiveComplex],
    target: tuple[InvolutiveComplex, InvolutiveComplex],
) -> np.ndarray:
    """Reference for product_chain_map(): the raw f1 (x) f2 of the full
    block-diagonal factor maps, reordered from the source factors'
    sector coordinates to the target's."""
    raw = np.kron(sector_map(f1).data, sector_map(f2).data) % f1[0].field.order
    return raw[np.ix_(_sector_orders(*target), _sector_orders(*source))]


def reference_kernel(a: np.ndarray, p: int) -> np.ndarray:
    """A basis of the right kernel of ``a`` mod p as the columns of a
    (cols, t) array, read off ``reference_row_reduce``: each non-pivot
    column f gives the vector with 1 at f and -rref[i, f] at pivot i."""
    rref, pivots = reference_row_reduce(a, p)
    cols = np.shape(a)[1]
    free = [f for f in range(cols) if f not in pivots]
    basis = np.zeros((cols, len(free)), dtype=np.int64)
    for j, f in enumerate(free):
        basis[f, j] = 1
        basis[pivots, j] = -rref[: len(pivots), f] % p
    return basis


def reference_rank(a: np.ndarray, p: int) -> int:
    return len(reference_row_reduce(a, p)[1])


def reference_same_column_space(a: np.ndarray, b: np.ndarray, p: int) -> bool:
    """Whether a and b span the same columns mod p: they have as many
    rows, and rank a = rank b = rank [a | b]."""
    if a.shape[0] != b.shape[0]:
        return False
    both = reference_rank(np.concatenate([a, b], axis=1), p)
    return reference_rank(a, p) == reference_rank(b, p) == both


def reference_kerim_check(rc: ReducedComplex) -> list[str]:
    """Reference for reduced_kerim_check(): the same identities checked
    once on the full space C+ (+) C-, with the block-diagonal phi and
    the full boundaries of base and quotient, by ``reference_row_reduce``
    alone: no kernel, rank or column-space test of the library.

    Checks ker d' = phi(d^{-1}(V>)) and im d' = phi(im d) as subspace
    equalities, phi d = d' phi, and, when the base is good for n', that
    each boundary block of the quotient loses exactly n - n' kernel and
    image dimensions.  phi P = P' phi is not checked: a block-diagonal
    phi commutes with P.
    """
    problems: list[str] = []
    c = rc.base
    p = c.field.order
    n, np1 = rc.params.n, rc.params.n_prime
    phi = sector_map(rc.phi).data
    dfull, d_q = full_boundary(c).data, full_boundary(rc.quotient).data

    if not np.array_equal(phi @ dfull % p, d_q @ phi % p):
        problems.append("chain map fails: phi d != d' phi")

    # d^{-1}(V>) is the kernel of d with its V-coordinate rows kept.
    v_idx = np.concatenate([np.arange(np1), n + np.arange(np1)])
    preimage = reference_kernel(dfull[v_idx, :], p)
    if not reference_same_column_space(reference_kernel(d_q, p), phi @ preimage % p, p):
        problems.append("ker d' != phi(d^{-1}(V>))")
    if not reference_same_column_space(d_q, phi @ dfull % p, p):
        problems.append("im d' != phi(im d)")

    if rc.good:
        gap = n - np1
        pairs = [("+- block", c.d_pm, rc.quotient.d_pm), ("-+ block", c.d_mp, rc.quotient.d_mp)]
        for label, base_block, q_block in pairs:
            base_rank, q_rank = reference_rank(base_block.data, p), reference_rank(q_block.data, p)
            if q_rank != base_rank - gap:
                problems.append(f"{label}: expected image dim {base_rank - gap}, got {q_rank}")
            base_ker, q_ker = base_block.cols - base_rank, q_block.cols - q_rank
            if q_ker != base_ker - gap:
                problems.append(f"{label}: expected kernel dim {base_ker - gap}, got {q_ker}")
    return problems
