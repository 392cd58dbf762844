from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditprod import (
    ComplexShape,
    InvolutiveComplex,
    complex_from_text,
    complex_to_text,
    flip_sectors,
    homology_dimensions,
    is_good,
    random_boundary,
    standard_boundary,
    trial_rng,
    validate,
)
from quditprod.complexes import _random_boundary_batch
from quditprod.experiments import _CHUNK
from quditprod.gf import FieldSpec, MatGF, inverse, rank
from support import FIELD3, FIELD5, SHAPE3


def test_shape_parity_invariant() -> None:
    s = ComplexShape(5, 1, 2)
    assert (s.n, s.H, s.L) == (5, 1, 2)
    with pytest.raises(ValueError):
        ComplexShape(5, 2, 1)
    with pytest.raises(ValueError):
        ComplexShape(0, 0, 0)


def test_shape_from_hom_dim() -> None:
    assert ComplexShape.from_hom_dim(7, 3) == ComplexShape(7, 3, 2)
    with pytest.raises(ValueError):
        ComplexShape.from_hom_dim(6, 1)
    with pytest.raises(ValueError):
        ComplexShape.from_hom_dim(4, 6)


def test_shape_from_rho() -> None:
    from fractions import Fraction

    s = ComplexShape.from_rho(6, Fraction(1, 3))
    assert (s.n, s.H, s.L) == (6, 2, 2)
    # floor(rho*n) odd against even n has no valid L
    with pytest.raises(ValueError, match="odd"):
        ComplexShape.from_rho(6, Fraction(1, 5))
    with pytest.raises(ValueError):
        ComplexShape.from_rho(6, 2)


def test_standard_boundary_block_layout() -> None:
    std = standard_boundary(ComplexShape(5, 1, 2), FIELD3)
    expected = np.zeros((5, 5), dtype=np.int64)
    expected[1:3, 3:5] = np.eye(2, dtype=np.int64)
    assert std.d_pm.data.tolist() == expected.tolist()
    assert std.d_mp.data.tolist() == expected.tolist()
    assert validate(std) == []
    assert homology_dimensions(std) == (1, 1)


def test_full_boundary_squares_to_zero_and_anticommutes() -> None:
    c, _, _ = random_boundary(SHAPE3, FIELD3, trial_rng(0, 0))
    full = c.full_boundary()
    p = c.involution()
    assert (full @ full).is_zero()
    assert (p @ p) == MatGF.identity(FIELD3, 6)
    assert (full @ p + p @ full).is_zero()


def test_random_boundary_conjugates_the_standard_one() -> None:
    c, u_plus, u_minus = random_boundary(SHAPE3, FIELD3, trial_rng(1, 0))
    std = standard_boundary(SHAPE3, FIELD3)
    assert c.d_pm == u_plus @ std.d_pm @ inverse(u_minus)
    assert c.d_mp == u_minus @ std.d_mp @ inverse(u_plus)


def test_random_boundary_is_deterministic_per_seed() -> None:
    a, _, _ = random_boundary(SHAPE3, FIELD3, trial_rng(2, 5))
    b, _, _ = random_boundary(SHAPE3, FIELD3, trial_rng(2, 5))
    assert a.d_pm == b.d_pm and a.d_mp == b.d_mp


@pytest.mark.parametrize("field", [FIELD3, FIELD5])
@pytest.mark.parametrize("n,H", [(3, 1), (4, 0), (4, 2), (5, 1)])
def test_random_boundary_validates_and_has_expected_homology(field, n: int, H: int) -> None:
    shape = ComplexShape.from_hom_dim(n, H)
    for i in range(20):
        c, _, _ = random_boundary(shape, field, trial_rng(10 * n + H, i))
        assert validate(c) == []
        assert homology_dimensions(c) == (H, H)
        assert rank(c.d_pm) == shape.L
        assert rank(c.d_mp) == shape.L


@settings(max_examples=60, deadline=None)
@given(
    order=st.sampled_from([3, 5, 7]),
    n=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_constructed_complexes_validate(order: int, n: int, seed: int, data) -> None:
    """The standard boundary and its random conjugates are complexes
    with homology H per sector; the constructors do not check it."""
    L = data.draw(st.integers(0, n // 2), label="L")
    H = n - 2 * L
    shape = ComplexShape(n, H, L)
    field = FieldSpec(order)
    std = standard_boundary(shape, field)
    c, _, _ = random_boundary(shape, field, trial_rng(seed, 0))
    for cx in (std, c):
        assert validate(cx) == []
        assert homology_dimensions(cx) == (H, H)


@settings(max_examples=20, deadline=None)
@given(
    order=st.sampled_from([3, 5, 7]),
    n=st.integers(1, 6),
    count=st.integers(1, _CHUNK + 1),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_lockstep_boundaries_match_random_boundary(order, n, count, seed, data) -> None:
    """Each trial generator yields random_boundary's blocks and ends in
    the same state: its next draw is equal."""
    L = data.draw(st.integers(0, n // 2), label="L")
    shape = ComplexShape(n, n - 2 * L, L)
    field = FieldSpec(order)
    rngs = [trial_rng(seed, i) for i in range(count)]
    d_pm, d_mp = _random_boundary_batch(shape, field, rngs)
    for i, rng in enumerate(rngs):
        ref = trial_rng(seed, i)
        c, _, _ = random_boundary(shape, field, ref)
        assert (d_pm[i] == c.d_pm.data).all() and (d_mp[i] == c.d_mp.data).all()
        assert rng.integers(0, 2**62) == ref.integers(0, 2**62)


def test_validate_reports_broken_square_and_shape() -> None:
    std = standard_boundary(SHAPE3, FIELD3)
    # d_mp = d_pm.T of the standard complex breaks d_pm @ d_mp = 0
    broken = InvolutiveComplex(FIELD3, std.d_pm, std.d_pm.T)
    problems = validate(broken)
    assert problems
    assert any("square" in p or "zero" in p for p in problems)
    # Broken on one sector only: d_pm @ d_mp != 0 but d_mp @ d_pm = 0.
    e00 = MatGF(FIELD3, [[1, 0], [0, 0]])
    e01 = MatGF(FIELD3, [[0, 1], [0, 0]])
    assert validate(InvolutiveComplex(FIELD3, e00, e01)) == [
        "boundary does not square to zero on C+ (d_pm @ d_mp != 0)"
    ]
    assert validate(InvolutiveComplex(FIELD3, e01, e00)) == [
        "boundary does not square to zero on C- (d_mp @ d_pm != 0)"
    ]


def test_mismatched_blocks_rejected_at_construction() -> None:
    with pytest.raises(ValueError):
        InvolutiveComplex(FIELD3, MatGF.zeros(FIELD3, 2, 3), MatGF.zeros(FIELD3, 2, 3))
    with pytest.raises(ValueError):
        InvolutiveComplex(FIELD3, MatGF.zeros(FIELD3, 2, 2), MatGF.zeros(FIELD5, 2, 2))


def test_flip_sectors_is_an_involution_and_swaps_homology() -> None:
    c, _, _ = random_boundary(ComplexShape(4, 2, 1), FIELD3, trial_rng(3, 0))
    flipped = flip_sectors(c)
    assert validate(flipped) == []
    assert flipped.d_pm == c.d_mp and flipped.d_mp == c.d_pm
    again = flip_sectors(flipped)
    assert again.d_pm == c.d_pm and again.d_mp == c.d_mp
    hp, hm = homology_dimensions(c)
    assert homology_dimensions(flipped) == (hm, hp)


def test_standard_complex_is_good_at_n_prime_2() -> None:
    std = standard_boundary(SHAPE3, FIELD3)
    assert is_good(std, 2)
    assert is_good(std, 3)  # n' = n is vacuously good


def test_goodness_seeded_examples() -> None:
    # frozen search: at master seed 900 the first non-good complex is
    # trial 0 and the first good one is trial 1
    c0, _, _ = random_boundary(SHAPE3, FIELD3, trial_rng(900, 0))
    c1, _, _ = random_boundary(SHAPE3, FIELD3, trial_rng(900, 1))
    assert not is_good(c0, 2)
    assert is_good(c1, 2)


def test_is_good_definition_matches_tail_kernel() -> None:
    """Good means no nonzero kernel vector supported on the trailing
    n - n' coordinates, for either sector block."""
    n_prime = 2
    for i in range(10):
        c, _, _ = random_boundary(SHAPE3, FIELD3, trial_rng(903, i))
        tails = []
        for block in (c.d_mp, c.d_pm):
            tail = block.submatrix(range(block.rows), range(n_prime, block.cols))
            tails.append(rank(tail) == block.cols - n_prime)
        assert is_good(c, n_prime) == all(tails)


def test_is_good_rejects_bad_n_prime() -> None:
    std = standard_boundary(SHAPE3, FIELD3)
    with pytest.raises(ValueError):
        is_good(std, 4)
    with pytest.raises(ValueError):
        is_good(std, -1)


def test_complex_text_round_trip() -> None:
    for field in (FIELD3, FIELD5):
        c, _, _ = random_boundary(SHAPE3, field, trial_rng(4, 0))
        text = complex_to_text(c)
        back = complex_from_text(text)
        assert back.d_pm == c.d_pm and back.d_mp == c.d_mp
        assert back.field == c.field


@pytest.mark.parametrize(
    "text",
    [
        "",
        "3 3 1\n",  # header too short
        "3 3 1 1\n3 3 3\n0 0 0\n0 0 1\n0 0 0\n",  # missing second block
    ],
)
def test_complex_text_rejects_malformed_input(text: str) -> None:
    with pytest.raises(ValueError):
        complex_from_text(text)


def test_complex_text_header_consistency() -> None:
    c, _, _ = random_boundary(SHAPE3, FIELD3, trial_rng(5, 0))
    text = complex_to_text(c)
    # corrupt the declared homology dimension
    lines = text.splitlines()
    lines[0] = "3 3 0 1"
    with pytest.raises(ValueError):
        complex_from_text("\n".join(lines) + "\n")
