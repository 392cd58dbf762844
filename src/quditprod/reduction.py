"""Quotients of a complex by the boundary image of its trailing coordinates.

For a complex with equal sector dimensions n, fix 1 <= n' <= n and let
V be the span of the first n' basis vectors in each sector, V> the span
of the rest, and W the coordinate projection onto V.  The subspace
S> = W d(V>) sits inside V, and the quotient V' = V / S> inherits a
boundary d'(x + S>) = phi(d x), where phi: full space -> V' is
projection followed by the quotient map.  Well-definedness is not
assumed; reduce() checks it on the generators of S>.

Because d swaps sectors and W preserves them, S> splits as a direct sum
of sector pieces, and each sector is quotiented on its own: the plus
piece is the column span of d_pm[:n', n':] and the minus piece that of
d_mp[:n', n':], each with canonical coset representatives
(``_sector_quotient``).  So phi is a pair of sector matrices
(phi+, phi-), the quotient is again a two-sector complex, and every
identity is checked exactly, one boundary block at a time
(``reduced_kerim_check``).  The complex is called good for
n' when both pieces have the largest possible dimension n - n'; then
each quotient sector has dimension K = 2n' - n.

For a complex this is ``complexes.is_good``, which asks only that d be
injective on the trailing coordinates V> of each sector: W d is then
injective there too, since W d v = 0 puts d v on the trailing
coordinates of the other sector, where it is a cycle (d d v = 0), so
d v = 0 and v = 0.  So ``ReducedComplex.good`` decides goodness, with
no separate rank of the trailing blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexes import InvolutiveComplex, validate
from .gf import MatGF, _row_reduce, kernel_basis, rank

__all__ = [
    "ReductionParams",
    "ReducedComplex",
    "reduce",
    "reduced_kerim_check",
]


@dataclass(frozen=True)
class ReductionParams:
    """Reduction size n' for ambient sector dimension n, n/2 < n' <= n."""

    n: int
    n_prime: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be positive")
        if not (2 * self.n_prime > self.n and self.n_prime <= self.n):
            raise ValueError(f"need n/2 < n_prime <= n, got n={self.n}, n_prime={self.n_prime}")


@dataclass(frozen=True, eq=False)
class ReducedComplex:
    """Output of reduce(): the quotient complex together with the maps
    relating it to the base.

    phi and embed are chain maps given by their (plus, minus) sector
    blocks.  phi sends a base sector (length n) to quotient coordinates;
    embed sends quotient coordinates back to the canonical coset
    representative (a base sector vector supported on V).
    """

    base: InvolutiveComplex
    params: ReductionParams
    quotient: InvolutiveComplex
    phi: tuple[MatGF, MatGF]
    embed: tuple[MatGF, MatGF]

    @property
    def good(self) -> bool:
        """Whether both quotient sectors have dimension 2n' - n, that is
        whether both parts of S> reach the maximal dimension n - n'."""
        k = 2 * self.params.n_prime - self.params.n
        return self.quotient.dim_plus == self.quotient.dim_minus == k


def _sector_quotient(gens: np.ndarray, n: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """One sector of the quotient by the column span S of ``gens``, an
    n' x t matrix in the sector's V coordinates.

    Returns (phi, embed): phi (q x n) projects the sector onto V and
    reduces modulo S to the non-pivot coordinates of the row echelon
    basis of S, and embed (n x q) sends those coordinates back to their
    coset representatives.
    """
    np1 = gens.shape[0]
    s_rref, piv = _row_reduce(gens.T, p)
    sel_v = np.eye(np1, n, dtype=np.int64)
    canon = (sel_v - s_rref[: len(piv)].T @ sel_v[piv]) % p
    rep = sorted(set(range(np1)) - set(piv))
    embed = np.zeros((n, len(rep)), dtype=np.int64)
    embed[rep, np.arange(len(rep))] = 1
    return canon[rep], embed


def reduce(c: InvolutiveComplex, params: ReductionParams) -> ReducedComplex:
    """Quotient of c by S> = W d(V>), with V the leading n' coordinates
    of each sector.

    Each sector is quotiented on its own.  A non-complex is refused with
    ValueError; goodness only affects the dimensions, never the
    construction.  Raises AssertionError, under ``python -O`` too, if the
    quotient maps fail the identities they are constructed to satisfy.
    """
    n = c.dim_plus
    if c.dim_minus != n:
        raise ValueError("reduction requires equal sector dimensions")
    np1 = params.n_prime
    if params.n != n:
        raise ValueError(f"params built for n = {params.n}, complex has n = {n}")
    problems = validate(c)
    if problems:
        raise ValueError(f"cannot reduce a non-complex: {problems}")
    p = c.field.order
    gens_p = c.d_pm.data[:np1, np1:]
    gens_m = c.d_mp.data[:np1, np1:]
    phi_p, embed_p = _sector_quotient(gens_p, n, p)
    phi_m, embed_m = _sector_quotient(gens_m, n, p)

    # phi kills S> by construction, and the boundary descends when d
    # sends S> into ker(phi): d_mp takes the plus part of S> to C-, and
    # d_pm the minus part to C+.  Checked, not assumed.
    sectors = ((phi_p, gens_p, phi_m, c.d_mp.data), (phi_m, gens_m, phi_p, c.d_pm.data))
    for phi_s, gens, phi_t, d in sectors:
        if (phi_s[:, :np1] @ gens % p).any():
            raise AssertionError("phi does not kill S>")
        descent = (phi_t @ d[:, :np1] % p) @ gens % p
        if descent.any():
            raise AssertionError("boundary does not descend to the quotient")

    quotient = InvolutiveComplex(
        field=c.field,
        d_pm=MatGF(c.field, (phi_p @ c.d_pm.data % p) @ embed_m, _reduced=True),
        d_mp=MatGF(c.field, (phi_m @ c.d_mp.data % p) @ embed_p, _reduced=True),
    )
    problems = validate(quotient)
    if problems:
        raise AssertionError(f"quotient fails complex axioms: {problems}")

    return ReducedComplex(
        base=c,
        params=params,
        quotient=quotient,
        phi=(MatGF(c.field, phi_p, _reduced=True), MatGF(c.field, phi_m, _reduced=True)),
        embed=(MatGF(c.field, embed_p, _reduced=True), MatGF(c.field, embed_m, _reduced=True)),
    )


def _same_column_space(a: MatGF, b: MatGF, rank_a: int) -> bool:
    """Whether a, of rank ``rank_a``, and b span the same columns:
    rank a = rank b = rank [b | a].  The caller knows rank a (a kernel
    basis has full column rank), so only [b | a] is eliminated; its
    pivots left of b.cols are those of b."""
    if a.rows != b.rows:
        return False
    pivots = _row_reduce(np.concatenate([b.data, a.data], axis=1), a.field.order)[1]
    return rank_a == sum(c < b.cols for c in pivots) == len(pivots)


def _kernel_matrix(m: MatGF) -> MatGF:
    """The kernel basis of m as the columns of a matrix."""
    return MatGF(m.field, kernel_basis(m).T, _reduced=True)


def reduced_kerim_check(rc: ReducedComplex) -> list[str]:
    """Exact verification of the quotient's kernel/image description.

    Every identity splits by sector, so each boundary block d of the
    base is checked against its quotient block d', with phi_s the phi
    block on the source sector of d and phi_t the one on its target:
    the chain-map identity phi_t d = d' phi_s, and as subspace
    equalities ker d' = phi_s(ker d[:n']), the source part of
    phi(d^{-1}(V>)), and im d' = phi_t(im d).  When the base is good
    for n', also checks that d' loses exactly n - n' kernel and image
    dimensions relative to d.  Returns a list of violated properties,
    empty when everything holds.
    """
    problems: list[str] = []
    c, q = rc.base, rc.quotient
    np1 = rc.params.n_prime
    gap = rc.params.n - np1
    phi_p, phi_m = rc.phi
    blocks = (
        ("+- block", c.d_pm, q.d_pm, phi_m, phi_p),
        ("-+ block", c.d_mp, q.d_mp, phi_p, phi_m),
    )
    for label, d, d_q, phi_s, phi_t in blocks:
        image = phi_t @ d
        if image != d_q @ phi_s:
            problems.append(f"{label}: chain map fails, phi d != d' phi")
        preimage = _kernel_matrix(MatGF(c.field, d.data[:np1], _reduced=True))
        kernel = _kernel_matrix(d_q)
        if not _same_column_space(kernel, phi_s @ preimage, kernel.cols):
            problems.append(f"{label}: ker d' != phi(d^-1(V>))")
        if not _same_column_space(d_q, image, rank(d_q)):
            problems.append(f"{label}: im d' != phi(im d)")
        if rc.good:
            base_rank = rank(d)
            q_rank = rank(d_q)
            if q_rank != base_rank - gap:
                problems.append(
                    f"{label}: expected image dim {base_rank - gap}, got {q_rank}"
                )
            base_ker = d.cols - base_rank
            q_ker = d_q.cols - q_rank
            if q_ker != base_ker - gap:
                problems.append(
                    f"{label}: expected kernel dim {base_ker - gap}, got {q_ker}"
                )
    return problems
