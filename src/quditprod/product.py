"""Tensor products of two-sector complexes.

The product of complexes (C1, d1, P1) and (C2, d2, P2) lives on
C1 (x) C2 with boundary d1 (x) I + P1 (x) d2 and involution P1 (x) P2.
Its sectors are

    C+ = (C1+ (x) C2+) (+) (C1- (x) C2-)
    C- = (C1+ (x) C2-) (+) (C1- (x) C2+)

each part ordered C1-major / C2-minor, and its two boundary blocks are
built directly from the factor blocks:

    d_pm = [[I (x) d2_pm, d1_pm (x) I], [d1_mp (x) I, -I (x) d2_mp]]
    d_mp = [[I (x) d2_mp, d1_pm (x) I], [d1_mp (x) I, -I (x) d2_pm]]

With that ordering a plus-sector vector splits into two contiguous
matrix blocks (``ProductComplex.vector_to_blocks``), psi_plus on
C1+ (x) C2+ (dim C1+ rows, dim C2+ columns) and psi_minus on
C1- (x) C2-, which every rank and support argument downstream uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexes import InvolutiveComplex, homology_dimensions, validate
from .gf import FieldSpec, MatGF, _block_diag

__all__ = [
    "ProductComplex",
    "KunnethReport",
    "product",
    "kunneth_check",
    "product_chain_map",
]


@dataclass(frozen=True, eq=False)
class ProductComplex:
    """A product complex together with its two factors."""

    factor1: InvolutiveComplex
    factor2: InvolutiveComplex
    complex: InvolutiveComplex

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

    def vector_to_blocks(self, v: np.ndarray) -> tuple[MatGF, MatGF]:
        """Split a C+ vector into its two matrix blocks."""
        (p1, p2), (m1, m2) = self.block_shapes
        vec = np.asarray(v, dtype=np.int64) % self.field.order
        if vec.shape != (self.complex.dim_plus,):
            raise ValueError(f"expected a C+ vector of length {self.complex.dim_plus}")
        psi_plus = MatGF(self.field, vec[: p1 * p2].reshape(p1, p2), _reduced=True)
        psi_minus = MatGF(self.field, vec[p1 * p2 :].reshape(m1, m2), _reduced=True)
        return psi_plus, psi_minus


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of two 2-d arrays as one broadcast multiply and a
    reshape: the same entries, without ``np.kron``'s general-rank
    set-up, which costs more than the product on small blocks."""
    (m, n), (k, l) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(m * k, n * l)


def product(c1: InvolutiveComplex, c2: InvolutiveComplex) -> ProductComplex:
    """The product complex of two complexes.

    The factors are validated, not the product: (d1 (x) I + P1 (x) d2)**2
    = d1**2 (x) I + (d1 P1 + P1 d1) (x) d2 + I (x) d2**2, which vanishes
    whenever both factors square to zero, since d1 anticommutes with P1
    by the two-block form.  A factor that is not a complex is refused
    with ValueError.
    """
    if c1.field != c2.field:
        raise ValueError("factors must share a field")
    for i, c in enumerate((c1, c2), start=1):
        problems = validate(c)
        if problems:
            raise ValueError(f"factor {i} is not a complex: {problems}")
    field = c1.field
    p = field.order
    eye1p, eye1m, eye2p, eye2m = (
        np.eye(k, dtype=np.int64) for k in (c1.dim_plus, c1.dim_minus, c2.dim_plus, c2.dim_minus)
    )
    d1_pm, d1_mp = c1.d_pm.data, c1.d_mp.data
    d2_pm, d2_mp = c2.d_pm.data, c2.d_mp.data
    d_pm = np.block([
        [_kron(eye1p, d2_pm), _kron(d1_pm, eye2p)],
        [_kron(d1_mp, eye2m), -_kron(eye1m, d2_mp)],
    ])
    d_mp = np.block([
        [_kron(eye1p, d2_mp), _kron(d1_pm, eye2m)],
        [_kron(d1_mp, eye2p), -_kron(eye1m, d2_pm)],
    ])
    cx = InvolutiveComplex(
        field,
        d_pm=MatGF(field, d_pm % p, _reduced=True),
        d_mp=MatGF(field, d_mp % p, _reduced=True),
    )
    return ProductComplex(factor1=c1, factor2=c2, complex=cx)


@dataclass(frozen=True)
class KunnethReport:
    """Comparison of sector homology dimensions against the product of
    the factor homologies."""

    h_plus: int
    expected_plus: int
    h_minus: int
    expected_minus: int

    @property
    def ok(self) -> bool:
        return self.h_plus == self.expected_plus and self.h_minus == self.expected_minus


def kunneth_check(pc: ProductComplex) -> KunnethReport:
    """Check dim ker - dim im per sector against the factor homologies.

    For factors with sector homology (h1+, h1-) and (h2+, h2-) the
    product satisfies h+ = h1+ h2+ + h1- h2- and
    h- = h1+ h2- + h1- h2+; for the equal-sector shape family both
    reduce to 2 H1 H2.
    """
    h1p, h1m = homology_dimensions(pc.factor1)
    h2p, h2m = homology_dimensions(pc.factor2)
    hp, hm = homology_dimensions(pc.complex)
    return KunnethReport(
        h_plus=hp,
        expected_plus=h1p * h2p + h1m * h2m,
        h_minus=hm,
        expected_minus=h1p * h2m + h1m * h2p,
    )


def product_chain_map(
    f1: tuple[MatGF, MatGF],
    f2: tuple[MatGF, MatGF],
    source: ProductComplex,
    target: ProductComplex,
) -> tuple[MatGF, MatGF]:
    """The (plus, minus) blocks of f1 (x) f2 between two product complexes.

    ``f1`` is the (plus, minus) pair of sector blocks of a map from
    source.factor1 to target.factor1, and ``f2`` likewise for the second
    factors.  The tensor map preserves the two parts of each product
    sector, so its blocks are

        plus:  block-diag(f1+ (x) f2+, f1- (x) f2-)
        minus: block-diag(f1+ (x) f2-, f1- (x) f2+)
    """
    field = source.field
    if target.field != field:
        raise ValueError("source and target products must share a field")
    pairs = ((f1, source.factor1, target.factor1), (f2, source.factor2, target.factor2))
    for i, ((fp, fm), src, tgt) in enumerate(pairs, start=1):
        if fp.field != field or fm.field != field:
            raise ValueError("chain map factors must share the product field")
        if fp.shape != (tgt.dim_plus, src.dim_plus) or fm.shape != (tgt.dim_minus, src.dim_minus):
            raise ValueError(
                f"f{i} has block shapes {fp.shape} and {fm.shape}, incompatible with the factors"
            )
    (f1p, f1m), (f2p, f2m) = ((f.data for f in pair) for pair in (f1, f2))
    p = field.order
    plus = _block_diag(_kron(f1p, f2p), _kron(f1m, f2m)) % p
    minus = _block_diag(_kron(f1p, f2m), _kron(f1m, f2p)) % p
    return MatGF(field, plus, _reduced=True), MatGF(field, minus, _reduced=True)
