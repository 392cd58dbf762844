"""Two-sector chain complexes with involution over GF(D).

A complex here is C = C+ (+) C- with a boundary map that exchanges the
two sectors and squares to zero, together with the involution P acting
as +1 on C+ and -1 on C-.  Only the two off-diagonal blocks of the
boundary are stored:

    d_pm : C- -> C+   (rows indexed by C+, columns by C-)
    d_mp : C+ -> C-   (rows indexed by C-, columns by C+)

With this representation P is implicit in the sector split, P**2 = I,
the anticommutation of P with the boundary and the vanishing of the
sector-diagonal blocks hold by construction, and the
boundary-squares-to-zero condition becomes the two block checks of
``validate``.

The shape family used throughout has sector dimension n = H + 2L: the
standard boundary has an L x L identity coupling the middle block of
rows to the trailing block of columns, its kernel has dimension H + L
per sector, and its homology has dimension H per sector.  Random
members of the family conjugate the standard boundary by independent
uniform invertible matrices, one per sector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gf import (
    FieldSpec,
    MatGF,
    _matrix_from_lines,
    inverse,
    matrix_to_text,
    random_invertible,
    rank,
)

__all__ = [
    "ComplexShape",
    "InvolutiveComplex",
    "standard_boundary",
    "random_boundary",
    "validate",
    "homology_dimensions",
    "is_good",
    "flip_sectors",
    "complex_to_text",
    "complex_from_text",
]


@dataclass(frozen=True)
class ComplexShape:
    """Sector dimension n split as n = H + 2L.

    H is the homology dimension per sector and L the rank of each
    boundary block.
    """

    n: int
    H: int
    L: int

    def __post_init__(self) -> None:
        if self.n < 1 or self.H < 0 or self.L < 0:
            raise ValueError("shape dimensions must be nonnegative with n >= 1")
        if self.n != self.H + 2 * self.L:
            raise ValueError(f"shape requires n = H + 2L, got n={self.n}, H={self.H}, L={self.L}")

    @classmethod
    def from_rho(cls, n: int, rho) -> "ComplexShape":
        """Shape with H = floor(rho * n); n - H must be even."""
        if not 0 <= rho <= 1:
            raise ValueError(f"rho must lie in [0, 1], got {rho}")
        H = math.floor(rho * n)
        if (n - H) % 2 != 0:
            raise ValueError(
                f"floor(rho*n) = {H} leaves n - H = {n - H} odd; "
                f"choose a compatible rho or build the shape from an explicit H"
            )
        return cls(n=n, H=H, L=(n - H) // 2)

    @classmethod
    def from_hom_dim(cls, n: int, H: int) -> "ComplexShape":
        """Shape with the homology dimension given directly."""
        if (n - H) % 2 != 0 or H < 0 or H > n:
            raise ValueError(f"need 0 <= H <= n with n - H even, got n={n}, H={H}")
        return cls(n=n, H=H, L=(n - H) // 2)


@dataclass(frozen=True, eq=False)
class InvolutiveComplex:
    """The pair of boundary blocks; the involution is the sector split."""

    field: FieldSpec
    d_pm: MatGF
    d_mp: MatGF

    def __post_init__(self) -> None:
        if self.d_pm.field != self.field or self.d_mp.field != self.field:
            raise ValueError("boundary blocks must live over the complex's field")
        if self.d_pm.rows != self.d_mp.cols or self.d_pm.cols != self.d_mp.rows:
            raise ValueError(
                f"incompatible block shapes {self.d_pm.shape} and {self.d_mp.shape}"
            )

    @property
    def dim_plus(self) -> int:
        return self.d_pm.rows

    @property
    def dim_minus(self) -> int:
        return self.d_mp.rows


def standard_boundary(shape: ComplexShape, field: FieldSpec) -> InvolutiveComplex:
    """The canonical complex for a shape: both blocks carry the same
    matrix, zero everywhere except an L x L identity linking row block
    H..H+L to column block H+L..n."""
    n, H, L = shape.n, shape.H, shape.L
    d0 = np.zeros((n, n), dtype=np.int64)
    d0[H : H + L, H + L :] = np.eye(L, dtype=np.int64)
    block = MatGF(field, d0, _reduced=True)
    return InvolutiveComplex(field, block, block)


def random_boundary(
    shape: ComplexShape, field: FieldSpec, rng: np.random.Generator
) -> tuple[InvolutiveComplex, MatGF, MatGF]:
    """A random member of the shape family, plus the conjugating pair.

    Draws u_plus then u_minus uniformly from GL(n, D) and forms
    d_pm = u_plus @ d0 @ u_minus^-1 and d_mp = u_minus @ d0 @ u_plus^-1,
    where d0 is the standard block.  Squaring to zero is inherited from
    d0 @ d0 = 0.
    """
    base = standard_boundary(shape, field)
    u_plus = random_invertible(field, shape.n, rng)
    u_minus = random_invertible(field, shape.n, rng)
    d_pm = u_plus @ base.d_pm @ inverse(u_minus)
    d_mp = u_minus @ base.d_mp @ inverse(u_plus)
    return InvolutiveComplex(field, d_pm, d_mp), u_plus, u_minus


def validate(c: InvolutiveComplex) -> list[str]:
    """Check that the boundary squares to zero; returns a list of violations.

    Two exact block products: d_pm @ d_mp = 0 on C+ and d_mp @ d_pm = 0
    on C-.  The other identities of a complex with involution hold by
    the two-block representation, so no full matrix is built.  An empty
    list means the complex is valid.

    Run where a complex enters from outside or ends a long computation:
    complex_from_text, product() on its factors, reduce() on its input
    and quotient.  Standard and random boundaries and products square to
    zero algebraically; the tests check them, not every draw.
    """
    problems: list[str] = []
    if not (c.d_pm @ c.d_mp).is_zero():
        problems.append("boundary does not square to zero on C+ (d_pm @ d_mp != 0)")
    if not (c.d_mp @ c.d_pm).is_zero():
        problems.append("boundary does not square to zero on C- (d_mp @ d_pm != 0)")
    return problems


def _block_ranks(c: InvolutiveComplex) -> tuple[int, int]:
    """(rank d_pm, rank d_mp).  d_pm is ranked as d_pm^T, the Z
    generators as rows, so the echelon form it keeps is the one the CSS
    coset bases read (``css._coset_bases``)."""
    return rank(c.d_pm.T), rank(c.d_mp)


def homology_dimensions(c: InvolutiveComplex) -> tuple[int, int]:
    """dim(ker/im) per sector: (h_plus, h_minus), from
    :func:`_block_ranks`.  Cycles in C+ are ker d_mp and boundaries in
    C+ are im d_pm, and symmetrically for C-."""
    rk_pm, rk_mp = _block_ranks(c)
    h_plus = (c.dim_plus - rk_mp) - rk_pm
    h_minus = (c.dim_minus - rk_pm) - rk_mp
    return h_plus, h_minus


def is_good(c: InvolutiveComplex, n_prime: int) -> bool:
    """True iff no nonzero kernel vector is supported entirely on the
    trailing n - n_prime coordinates of either sector.

    Decided exactly: the restriction of each boundary block to its last
    n - n_prime columns must have a trivial kernel.
    """
    n = c.dim_plus
    if c.dim_minus != n:
        raise ValueError("goodness is defined for equal sector dimensions")
    if not 0 <= n_prime <= n:
        raise ValueError(f"n_prime must lie in [0, {n}], got {n_prime}")
    tail = n - n_prime
    if tail == 0:
        return True
    sub_mp = MatGF(c.field, c.d_mp.data[:, n_prime:], _reduced=True)
    sub_pm = MatGF(c.field, c.d_pm.data[:, n_prime:], _reduced=True)
    return rank(sub_mp) == tail and rank(sub_pm) == tail


def flip_sectors(c: InvolutiveComplex) -> InvolutiveComplex:
    """The same complex with the roles of C+ and C- exchanged, i.e. the
    complex whose involution is -P."""
    return InvolutiveComplex(c.field, d_pm=c.d_mp, d_mp=c.d_pm)


def _header_shape(c: InvolutiveComplex) -> tuple[int, int, int]:
    """(n, H, L) of a complex with equal sector dimensions and block
    ranks (:func:`_block_ranks`)."""
    n = c.dim_plus
    if c.dim_minus != n:
        raise ValueError("serialization requires equal sector dimensions")
    rk, rk_mp = _block_ranks(c)
    if rk_mp != rk:
        raise ValueError("serialization requires equal boundary block ranks")
    # Equal sector dimensions and block ranks give h+ = h- = n - 2 rk.
    return n, n - 2 * rk, rk


def complex_to_text(c: InvolutiveComplex) -> str:
    """Serialize as a ``D n H L`` header followed by both blocks in the
    matrix text format, d_pm first."""
    n, H, L = _header_shape(c)
    header = f"{c.field.order} {n} {H} {L}\n"
    return header + matrix_to_text(c.d_pm) + matrix_to_text(c.d_mp)


def complex_from_text(text: str) -> InvolutiveComplex:
    """Parse and re-validate the format written by :func:`complex_to_text`.

    Blank lines after the second block are accepted, any other trailing
    line is refused, as in ``gf.matrix_from_text``.  The header must be
    the one the writer gives the blocks; a valid complex whose block
    ranks differ has none and is refused like any other mismatch."""
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty complex text")
    head = lines[0].split()
    if len(head) != 4:
        raise ValueError(f"bad complex header {lines[0]!r}")
    try:
        d, n, H, L = (int(t) for t in head)
    except ValueError as exc:
        raise ValueError(f"bad complex header {lines[0]!r}") from exc
    field = FieldSpec(d)
    d_pm, pos = _matrix_from_lines(lines, 1)
    d_mp, pos = _matrix_from_lines(lines, pos)
    if any(line.strip() for line in lines[pos:]):
        raise ValueError("trailing content after the complex blocks")
    if d_pm.field != field or d_mp.field != field:
        raise ValueError("matrix blocks disagree with the header field")
    if d_pm.shape != (n, n) or d_mp.shape != (n, n):
        raise ValueError("matrix blocks disagree with the header dimension")
    c = InvolutiveComplex(field, d_pm, d_mp)
    problems = validate(c)
    if problems:
        raise ValueError(f"complex text fails validation: {problems}")
    # The writer's header: h+ = h- = n - 2L, both blocks of rank L.
    rk, rk_mp = _block_ranks(c)
    if rk_mp != rk or (H, L) != (n - 2 * rk, rk):
        raise ValueError("header shape disagrees with the matrices")
    return c
