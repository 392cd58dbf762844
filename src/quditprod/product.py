"""Tensor products of two-sector complexes.

The product of complexes (C1, d1, P1) and (C2, d2, P2) lives on
C1 (x) C2 with boundary d1 (x) I + P1 (x) d2 and involution P1 (x) P2.
The raw tensor basis is ordered C1-major / C2-minor; the product
complex then re-sorts it into the plus sector followed by the minus
sector, keeping the raw order within each (a stable partition).  With
that ordering a plus-sector vector splits into two contiguous matrix
blocks:

    psi_plus  on  C1+ (x) C2+   (dim C1+ rows, dim C2+ columns)
    psi_minus on  C1- (x) C2-

which is what every rank and support argument downstream works with.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexes import InvolutiveComplex, homology_dimensions, validate
from .gf import FieldSpec, MatGF, kernel_basis

__all__ = [
    "ProductComplex",
    "KunnethReport",
    "product",
    "cycle_space_plus",
    "kunneth_check",
    "product_chain_map",
]


@dataclass(frozen=True, eq=False)
class ProductComplex:
    """A product complex plus the index bookkeeping linking its sorted
    basis back to the raw tensor basis of the factors."""

    factor1: InvolutiveComplex
    factor2: InvolutiveComplex
    complex: InvolutiveComplex
    plus_raw: np.ndarray
    minus_raw: np.ndarray

    @property
    def field(self) -> FieldSpec:
        return self.complex.field

    @property
    def block_shapes(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """Shapes of the (psi_plus, psi_minus) views of a C+ vector."""
        return (
            (self.factor1.dim_plus, self.factor2.dim_plus),
            (self.factor1.dim_minus, self.factor2.dim_minus),
        )

    def sorted_raw(self) -> np.ndarray:
        """Raw tensor index of each sorted basis position."""
        return np.concatenate([self.plus_raw, self.minus_raw])

    def vector_to_blocks(self, v: np.ndarray) -> tuple[MatGF, MatGF]:
        """Split a C+ vector into its two matrix blocks."""
        (p1, p2), (m1, m2) = self.block_shapes
        vec = np.asarray(v, dtype=np.int64) % self.field.order
        if vec.shape != (self.complex.dim_plus,):
            raise ValueError(f"expected a C+ vector of length {self.complex.dim_plus}")
        psi_plus = MatGF(self.field, vec[: p1 * p2].reshape(p1, p2), _reduced=True)
        psi_minus = MatGF(self.field, vec[p1 * p2 :].reshape(m1, m2), _reduced=True)
        return psi_plus, psi_minus

    def blocks_to_vector(self, psi_plus: MatGF, psi_minus: MatGF) -> np.ndarray:
        (p1, p2), (m1, m2) = self.block_shapes
        if psi_plus.shape != (p1, p2) or psi_minus.shape != (m1, m2):
            raise ValueError("block shapes do not match the product sectors")
        return np.concatenate([psi_plus.data.reshape(-1), psi_minus.data.reshape(-1)])


def _sector_orders(c1: InvolutiveComplex, c2: InvolutiveComplex) -> tuple[np.ndarray, np.ndarray]:
    p1, m1 = c1.dim_plus, c1.dim_minus
    p2, m2 = c2.dim_plus, c2.dim_minus
    t2 = p2 + m2
    plus_raw = np.array(
        [i * t2 + j for i in range(p1) for j in range(p2)]
        + [(p1 + i) * t2 + (p2 + j) for i in range(m1) for j in range(m2)],
        dtype=np.intp,
    )
    minus_raw = np.array(
        [i * t2 + (p2 + j) for i in range(p1) for j in range(m2)]
        + [(p1 + i) * t2 + j for i in range(m1) for j in range(p2)],
        dtype=np.intp,
    )
    return plus_raw, minus_raw


def product(c1: InvolutiveComplex, c2: InvolutiveComplex) -> ProductComplex:
    """The product complex, validated on construction."""
    if c1.field != c2.field:
        raise ValueError("factors must share a field")
    field = c1.field
    p = field.order
    d1 = c1.full_boundary().data
    d2 = c2.full_boundary().data
    p1 = c1.involution().data
    eye2 = np.eye(c2.dim_total, dtype=np.int64)
    raw = (np.kron(d1, eye2) + np.kron(p1, d2)) % p
    plus_raw, minus_raw = _sector_orders(c1, c2)
    order = np.concatenate([plus_raw, minus_raw])
    full = raw[np.ix_(order, order)]
    dp = len(plus_raw)
    if full[:dp, :dp].any() or full[dp:, dp:].any():
        raise AssertionError("product boundary has sector-diagonal entries")
    cx = InvolutiveComplex(
        field,
        d_pm=MatGF(field, full[:dp, dp:], _reduced=True),
        d_mp=MatGF(field, full[dp:, :dp], _reduced=True),
    )
    problems = validate(cx)
    if problems:
        raise AssertionError(f"product complex failed validation: {problems}")
    plus_raw.flags.writeable = False
    minus_raw.flags.writeable = False
    return ProductComplex(factor1=c1, factor2=c2, complex=cx, plus_raw=plus_raw, minus_raw=minus_raw)


def cycle_space_plus(pc: ProductComplex) -> np.ndarray:
    """Basis of the cycles lying in the plus sector (ker of d_mp), one
    row per vector."""
    return kernel_basis(pc.complex.d_mp)


@dataclass(frozen=True)
class KunnethReport:
    """Comparison of sector homology dimensions against the product of
    the factor homologies."""

    h_plus: int
    expected_plus: int
    h_minus: int
    expected_minus: int
    cocycle_h_plus: int
    cocycle_h_minus: int

    @property
    def ok(self) -> bool:
        return (
            self.h_plus == self.expected_plus == self.cocycle_h_plus
            and self.h_minus == self.expected_minus == self.cocycle_h_minus
        )


def kunneth_check(pc: ProductComplex) -> KunnethReport:
    """Check dim ker - dim im per sector against the factor homologies.

    For factors with sector homology (h1+, h1-) and (h2+, h2-) the
    product satisfies h+ = h1+ h2+ + h1- h2- and
    h- = h1+ h2- + h1- h2+; for the equal-sector shape family both
    reduce to 2 H1 H2.  The transposed (cocycle) dimensions are checked
    as well.
    """
    h1p, h1m = homology_dimensions(pc.factor1)
    h2p, h2m = homology_dimensions(pc.factor2)
    hp, hm = homology_dimensions(pc.complex)
    transposed = InvolutiveComplex(pc.field, d_pm=pc.complex.d_mp.T, d_mp=pc.complex.d_pm.T)
    cp, cm = homology_dimensions(transposed)
    return KunnethReport(
        h_plus=hp,
        expected_plus=h1p * h2p + h1m * h2m,
        h_minus=hm,
        expected_minus=h1p * h2m + h1m * h2p,
        cocycle_h_plus=cp,
        cocycle_h_minus=cm,
    )


def product_chain_map(
    f1: MatGF, f2: MatGF, source: ProductComplex, target: ProductComplex
) -> MatGF:
    """Matrix of f1 (x) f2 between two product complexes, in sorted coords.

    ``f1`` maps source.factor1 to target.factor1 (full sector-sorted
    coordinates, plus block first) and ``f2`` likewise for the second
    factors.  Both must preserve sectors, i.e. be block diagonal with
    respect to the sector splits; the tensor map then preserves the
    product sectors and its sorted matrix is block diagonal as well.
    """
    if f1.field != source.field or f2.field != source.field or target.field != source.field:
        raise ValueError("chain map factors must share the product field")
    if f1.shape != (target.factor1.dim_total, source.factor1.dim_total):
        raise ValueError(f"f1 has shape {f1.shape}, incompatible with the factors")
    if f2.shape != (target.factor2.dim_total, source.factor2.dim_total):
        raise ValueError(f"f2 has shape {f2.shape}, incompatible with the factors")
    for f, src, tgt in ((f1, source.factor1, target.factor1), (f2, source.factor2, target.factor2)):
        if f.data[: tgt.dim_plus, src.dim_plus :].any() or f.data[tgt.dim_plus :, : src.dim_plus].any():
            raise ValueError("chain map factor does not preserve sectors")
    raw = np.kron(f1.data, f2.data) % source.field.order
    rows = target.sorted_raw()
    cols = source.sorted_raw()
    return MatGF(source.field, raw[np.ix_(rows, cols)], _reduced=True)
