from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditprod import (
    ComplexShape,
    FieldSpec,
    InvolutiveComplex,
    extract_css,
    flip_sectors,
    homology_dimensions,
    kunneth_check,
    product,
    product_chain_map,
    random_boundary,
    standard_boundary,
    trial_rng,
    validate,
)
from quditprod import gf
from quditprod.gf import MatGF, inverse, random_invertible
from support import (
    FIELD3,
    FIELD5,
    SHAPE3,
    full_boundary,
    reference_product_boundary,
    reference_product_chain_map,
)


def _standard_product():
    std = standard_boundary(SHAPE3, FIELD3)
    return product(std, std)


def test_product_dimensions_and_validity() -> None:
    pc = _standard_product()
    assert pc.complex.dim_plus == 18
    assert pc.complex.dim_minus == 18
    assert validate(pc.complex) == []
    assert pc.block_shapes == ((3, 3), (3, 3))


def test_product_rejects_mixed_fields() -> None:
    a = standard_boundary(SHAPE3, FIELD3)
    b = standard_boundary(SHAPE3, FIELD5)
    with pytest.raises(ValueError):
        product(a, b)


def test_vector_block_round_trip() -> None:
    pc = _standard_product()
    rng = np.random.default_rng(0)
    v = rng.integers(0, 3, pc.complex.dim_plus)
    psi_plus, psi_minus = pc.vector_to_blocks(v)
    assert psi_plus.shape == (3, 3) and psi_minus.shape == (3, 3)
    assert psi_plus.data.tolist() == v[:9].reshape(3, 3).tolist()
    assert psi_minus.data.tolist() == v[9:].reshape(3, 3).tolist()
    with pytest.raises(ValueError):
        pc.vector_to_blocks(np.zeros(7, dtype=np.int64))


def test_product_boundary_matches_raw_tensor_formula() -> None:
    """The block-built boundary must be the raw d1 (x) I + P1 (x) d2
    matrix reordered into sector coordinates."""
    c1, _, _ = random_boundary(SHAPE3, FIELD3, trial_rng(30, 0))
    c2, _, _ = random_boundary(ComplexShape(4, 2, 1), FIELD3, trial_rng(30, 1))
    pc = product(c1, c2)
    assert (full_boundary(pc.complex).data == reference_product_boundary(c1, c2)).all()


def _factor(data, field: FieldSpec) -> InvolutiveComplex:
    """A random factor: a member of the shape family, or a hand-built
    complex with unequal sectors (possibly empty), optionally flipped."""
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    if data.draw(st.booleans(), label="shape family"):
        n = data.draw(st.integers(1, 4), label="n")
        L = data.draw(st.integers(0, n // 2), label="L")
        c, _, _ = random_boundary(ComplexShape(n, n - 2 * L, L), field, rng)
    else:
        a = data.draw(st.integers(0, 3), label="dim C+")
        b = data.draw(st.integers(0 if a else 1, 3), label="dim C-")
        k = data.draw(st.integers(0, min(a, b)), label="rank d_pm")
        j = data.draw(st.integers(0, min(a, b) - k), label="rank d_mp")
        c = _two_sector_complex(field, a, b, k, j, rng)
    return flip_sectors(c) if data.draw(st.booleans(), label="flip") else c


def _two_sector_complex(field: FieldSpec, a: int, b: int, k: int, j: int, rng) -> InvolutiveComplex:
    """A complex with dim C+ = a and dim C- = b whose blocks have ranks k
    and j, k + j <= min(a, b), conjugated by random invertibles."""
    # d_pm sends the first k C- coordinates to the first k of C+, d_mp
    # the next j C+ coordinates to the next j of C-: both products vanish.
    e_pm = np.zeros((a, b), dtype=np.int64)
    e_mp = np.zeros((b, a), dtype=np.int64)
    e_pm[range(k), range(k)] = 1
    e_mp[range(k, k + j), range(k, k + j)] = 1
    u_plus = random_invertible(field, a, rng)
    u_minus = random_invertible(field, b, rng)
    return InvolutiveComplex(
        field,
        u_plus @ MatGF(field, e_pm) @ inverse(u_minus),
        u_minus @ MatGF(field, e_mp) @ inverse(u_plus),
    )


@settings(max_examples=80, deadline=None)
@given(order=st.sampled_from([3, 5, 7]), data=st.data())
def test_product_of_complexes_is_a_complex(order: int, data) -> None:
    """product validates only its factors: the product of two valid
    complexes squares to zero by algebra, and this checks it."""
    field = FieldSpec(order)
    c1, c2 = (_factor(data, field) for _ in range(2))
    assert validate(c1) == validate(c2) == []
    assert validate(product(c1, c2).complex) == []


@pytest.mark.parametrize("position", [1, 2])
def test_product_refuses_a_factor_that_is_not_a_complex(position: int) -> None:
    """A factor whose boundary does not square to zero is refused by
    name, with ValueError and the factor's violations."""
    one = MatGF(FIELD3, [[1]])
    bad = InvolutiveComplex(FIELD3, one, one)
    good = standard_boundary(SHAPE3, FIELD3)
    factors = (bad, good) if position == 1 else (good, bad)
    expected = (
        f"factor {position} is not a complex: "
        "['boundary does not square to zero on C+ (d_pm @ d_mp != 0)', "
        "'boundary does not square to zero on C- (d_mp @ d_pm != 0)']"
    )
    with pytest.raises(ValueError) as info:
        product(*factors)
    assert str(info.value) == expected


def _block_formula(c1: InvolutiveComplex, c2: InvolutiveComplex) -> tuple[np.ndarray, np.ndarray]:
    """The module docstring's two boundary blocks, assembled by np.kron
    and np.block and reduced mod p afterwards."""
    p = c1.field.order
    e1p, e1m, e2p, e2m = (
        np.eye(k, dtype=np.int64) for k in (c1.dim_plus, c1.dim_minus, c2.dim_plus, c2.dim_minus)
    )
    (a_pm, a_mp), (b_pm, b_mp) = ((c.d_pm.data, c.d_mp.data) for c in (c1, c2))
    d_pm = np.block([[np.kron(e1p, b_pm), np.kron(a_pm, e2p)], [np.kron(a_mp, e2m), -np.kron(e1m, b_mp)]])
    d_mp = np.block([[np.kron(e1p, b_mp), np.kron(a_pm, e2m)], [np.kron(a_mp, e2p), -np.kron(e1m, b_pm)]])
    return d_pm % p, d_mp % p


@settings(max_examples=80, deadline=None)
@given(order=st.sampled_from([3, 5, 7]), data=st.data())
def test_product_blocks_match_kron_and_block(order: int, data) -> None:
    """product's in-place blocks are the np.kron / np.block formula's
    arrays, int64 and C-contiguous, for factors with unequal or empty
    sectors and flipped ones, on either side of ``_SMALL_CELLS``."""
    field = FieldSpec(order)
    c1, c2 = (_factor(data, field) for _ in range(2))
    want = _block_formula(c1, c2)
    for small_cells in (-1, 1 << 62):
        with mock.patch.object(gf, "_SMALL_CELLS", small_cells):
            cx = product(c1, c2).complex
        for got, ref in zip((cx.d_pm.data, cx.d_mp.data), want):
            assert got.dtype == np.int64 and got.flags.c_contiguous
            assert got.shape == ref.shape and np.array_equal(got, ref)


def test_product_blocks_match_kron_and_block_at_factor_size() -> None:
    """Factors with dim C+ != dim C-, flipped and not, whose negated
    blocks fall on both sides of ``_SMALL_CELLS`` (3 x 5 and 16 x 10)."""
    rng = np.random.default_rng(41)
    for a, b, k, j in ((3, 5, 1, 2), (16, 10, 4, 5)):
        c = _two_sector_complex(FIELD5, a, b, k, j, rng)
        for c1, c2 in ((c, flip_sectors(c)), (flip_sectors(c), c), (c, c)):
            cx = product(c1, c2).complex
            want = _block_formula(c1, c2)
            assert np.array_equal(cx.d_pm.data, want[0]) and np.array_equal(cx.d_mp.data, want[1])


def _sector_map(rng, field: FieldSpec, src: InvolutiveComplex, tgt: InvolutiveComplex):
    """A random sector-preserving map from src to tgt, as its (plus, minus) blocks."""
    return (
        MatGF(field, rng.integers(0, field.order, (tgt.dim_plus, src.dim_plus))),
        MatGF(field, rng.integers(0, field.order, (tgt.dim_minus, src.dim_minus))),
    )


@settings(max_examples=80, deadline=None)
@given(order=st.sampled_from([3, 5, 7]), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_product_and_chain_map_match_raw_reference(order: int, seed: int, data) -> None:
    """product and product_chain_map, built from the sector blocks, equal
    the raw tensor construction reordered into sector coordinates: the
    chain map pair is the reference's diagonal blocks, and the
    reference is zero off them."""
    field = FieldSpec(order)
    c1, c2, t1, t2 = (_factor(data, field) for _ in range(4))
    pc = product(c1, c2)
    assert (full_boundary(pc.complex).data == reference_product_boundary(c1, c2)).all()
    target = product(t1, t2)
    rng = np.random.default_rng(seed)
    f1 = _sector_map(rng, field, c1, t1)
    f2 = _sector_map(rng, field, c2, t2)
    plus, minus = product_chain_map(f1, f2, pc, target)
    ref = reference_product_chain_map(f1, f2, (c1, c2), (t1, t2))
    tp, sp = target.complex.dim_plus, pc.complex.dim_plus
    assert (plus.data == ref[:tp, :sp]).all() and (minus.data == ref[tp:, sp:]).all()
    assert not ref[:tp, sp:].any() and not ref[tp:, :sp].any()


@pytest.mark.parametrize("h1,h2", [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2)])
def test_kunneth_on_random_factors(h1: int, h2: int) -> None:
    n_for = {0: 2, 1: 3, 2: 4}
    s1 = ComplexShape.from_hom_dim(n_for[h1], h1)
    s2 = ComplexShape.from_hom_dim(n_for[h2], h2)
    for i in range(5):
        c1, _, _ = random_boundary(s1, FIELD3, trial_rng(31 + h1, i))
        c2, _, _ = random_boundary(s2, FIELD3, trial_rng(31 + h2, 100 + i))
        pc = product(c1, c2)
        rep = kunneth_check(pc)
        assert rep.ok
        assert rep.h_plus == 2 * h1 * h2
        assert rep.h_minus == 2 * h1 * h2
        assert homology_dimensions(pc.complex) == (2 * h1 * h2, 2 * h1 * h2)


def test_kunneth_mixed_sector_homologies() -> None:
    """Factors whose plus and minus homologies differ still satisfy
    h+(product) = h1+ h2+ + h1- h2-."""
    c1, _, _ = random_boundary(SHAPE3, FIELD3, trial_rng(32, 0))
    c2, _, _ = random_boundary(ComplexShape(4, 2, 1), FIELD3, trial_rng(32, 1))
    pc = product(c1, c2)
    rep = kunneth_check(pc)
    assert rep.ok
    h1p, h1m = homology_dimensions(c1)
    h2p, h2m = homology_dimensions(c2)
    assert rep.expected_plus == h1p * h2p + h1m * h2m
    assert rep.expected_minus == h1p * h2m + h1m * h2p


def test_product_code_parameters_at_desk_scale() -> None:
    pc = _standard_product()
    code = extract_css(pc.complex)
    assert code.n_phys == 18
    assert code.k == 2
    assert code.stab_weight <= 6


def test_product_chain_map_of_identities_is_identity() -> None:
    pc = _standard_product()
    eye = (MatGF.identity(FIELD3, 3), MatGF.identity(FIELD3, 3))
    plus, minus = product_chain_map(eye, eye, pc, pc)
    assert plus == minus == MatGF.identity(FIELD3, 18)


def test_product_chain_map_rejects_bad_blocks() -> None:
    """A sector block of the wrong shape or over another field is refused."""
    pc = _standard_product()
    eye = (MatGF.identity(FIELD3, 3), MatGF.identity(FIELD3, 3))
    short = (MatGF.identity(FIELD3, 3), MatGF.identity(FIELD3, 2))
    with pytest.raises(ValueError, match="f2 has block shapes"):
        product_chain_map(eye, short, pc, pc)
    mixed = (MatGF.identity(FIELD5, 3), MatGF.identity(FIELD3, 3))
    with pytest.raises(ValueError, match="field"):
        product_chain_map(mixed, eye, pc, pc)


def test_product_chain_map_commutes_with_boundaries() -> None:
    """Sector-preserving factor chain maps induce a product map that
    intertwines the product boundaries, block by block."""
    c1, _, _ = random_boundary(SHAPE3, FIELD3, trial_rng(33, 0))
    c2, _, _ = random_boundary(SHAPE3, FIELD3, trial_rng(33, 1))
    pc1 = product(c1, c1)
    pc2 = product(c2, c2)
    # f = u2 u1^-1 per sector takes the conjugates of the standard
    # boundary in c1 to those in c2, so it is a chain map c1 -> c2
    _, u1p, u1m = random_boundary(SHAPE3, FIELD3, trial_rng(33, 0))
    _, u2p, u2m = random_boundary(SHAPE3, FIELD3, trial_rng(33, 1))
    f = (u2p @ inverse(u1p), u2m @ inverse(u1m))
    plus, minus = product_chain_map(f, f, pc1, pc2)
    assert plus @ pc1.complex.d_pm == pc2.complex.d_pm @ minus
    assert minus @ pc1.complex.d_mp == pc2.complex.d_mp @ plus
