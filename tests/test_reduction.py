from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditprod import (
    ComplexShape,
    FieldSpec,
    InvolutiveComplex,
    ReductionParams,
    is_good,
    random_boundary,
    reduce,
    reduced_kerim_check,
    reduced_matrix,
    select_reduced_support,
    standard_boundary,
    trial_rng,
    uniform_low_weight,
    validate,
    weights_within,
)
from quditprod.gf import MatGF, kernel_basis
from support import FIELD3, SHAPE3, good_complexes


def test_params_invariants() -> None:
    p = ReductionParams(n=10, n_prime=8, c=Fraction(1, 10))
    assert p.r == Fraction(1, 5)
    assert p.K == 6
    assert p.c_prime == Fraction(1, 10) / (Fraction(1, 5) * Fraction(4, 5))
    assert p.row_col_threshold == Fraction(1, 10) * 10 / Fraction(1, 5)
    assert p.ulw_threshold == p.c_prime * 8


def test_params_rejects_bad_values() -> None:
    with pytest.raises(ValueError):
        ReductionParams(n=10, n_prime=5)  # n' must exceed n/2
    with pytest.raises(ValueError):
        ReductionParams(n=10, n_prime=11)
    with pytest.raises(ValueError):
        ReductionParams(n=10, n_prime=8, c=Fraction(1, 5))  # c = r
    with pytest.raises(ValueError):
        ReductionParams(n=10, n_prime=8, c=Fraction(0))


def test_params_without_c_has_no_thresholds() -> None:
    p = ReductionParams(n=5, n_prime=4)
    with pytest.raises(ValueError):
        p.c_prime
    with pytest.raises(ValueError):
        p.row_col_threshold


def test_reduce_standard_complex() -> None:
    std = standard_boundary(SHAPE3, FIELD3)
    rc = reduce(std, ReductionParams(n=3, n_prime=2))
    assert rc.good
    assert rc.s_plus == rc.s_minus == 1
    assert rc.quotient.dim_plus == rc.quotient.dim_minus == 1
    assert validate(rc.quotient) == []
    assert reduced_kerim_check(rc) == []


def test_reduce_with_n_prime_equal_n_is_identity() -> None:
    c, _, _ = random_boundary(SHAPE3, FIELD3, trial_rng(60, 0))
    rc = reduce(c, ReductionParams(n=3, n_prime=3))
    assert rc.good
    assert rc.s_plus == rc.s_minus == 0
    assert rc.quotient.d_pm == c.d_pm
    assert rc.quotient.d_mp == c.d_mp


@pytest.mark.parametrize("n,H,n_prime", [(3, 1, 2), (4, 2, 3), (5, 1, 3)])
def test_reduce_good_complexes_identities(n: int, H: int, n_prime: int) -> None:
    shape = ComplexShape.from_hom_dim(n, H)
    for c in good_complexes(shape, FIELD3, n_prime, master_seed=61 + n, count=10):
        rc = reduce(c, ReductionParams(n=n, n_prime=n_prime))
        assert rc.good
        # quotient dimension corollary: dim V' = 2n' - n per sector
        assert rc.quotient.dim_plus == 2 * n_prime - n
        assert rc.quotient.dim_minus == 2 * n_prime - n
        assert validate(rc.quotient) == []
        assert reduced_kerim_check(rc) == []
        # kernel dimension corollary, recomputed directly
        base_ker = len(kernel_basis(c.d_mp))
        quot_ker = len(kernel_basis(rc.quotient.d_mp))
        assert quot_ker == base_ker - (n - n_prime)


def test_reduce_non_good_complex_reports_not_good() -> None:
    # frozen: master seed 900 trial 0 is not good for n' = 2
    c, _, _ = random_boundary(SHAPE3, FIELD3, trial_rng(900, 0))
    assert not is_good(c, 2)
    rc = reduce(c, ReductionParams(n=3, n_prime=2))
    assert not rc.good
    assert validate(rc.quotient) == []
    # chain-map and subspace identities hold for any complex
    assert reduced_kerim_check(rc) == []


def test_reduce_chain_maps_explicitly() -> None:
    c, _, _ = random_boundary(SHAPE3, FIELD3, trial_rng(900, 1))
    rc = reduce(c, ReductionParams(n=3, n_prime=2))
    phi = rc.phi
    assert (phi @ c.full_boundary()) == (rc.quotient.full_boundary() @ phi)
    assert (phi @ c.involution()) == (rc.quotient.involution() @ phi)
    # embed is a section of phi
    assert (phi @ rc.embed) == MatGF.identity(FIELD3, rc.quotient.dim_total)


def test_reduce_refuses_a_non_complex() -> None:
    """Pairs of random blocks with d_pm @ d_mp != 0 are refused before
    any quotient is built."""
    rng = np.random.default_rng(0)
    refused = 0
    while refused < 200:
        d_pm, d_mp = (MatGF(FIELD3, rng.integers(0, 3, (3, 3))) for _ in range(2))
        c = InvolutiveComplex(FIELD3, d_pm, d_mp)
        if validate(c) == []:
            continue
        with pytest.raises(ValueError, match="cannot reduce a non-complex"):
            reduce(c, ReductionParams(n=3, n_prime=2))
        refused += 1


@settings(max_examples=60, deadline=None)
@given(
    order=st.sampled_from([3, 5, 7]),
    n=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_reduce_properties(order: int, n: int, seed: int, data) -> None:
    """For every n' in (n/2, n], good or not (L = 0 is never good below
    n' = n): the kernel/image description holds, phi is block diagonal
    by sector, and embed is a section of phi."""
    L = data.draw(st.integers(0, n // 2), label="L")
    field = FieldSpec(order)
    c, _, _ = random_boundary(ComplexShape(n, n - 2 * L, L), field, trial_rng(seed, 0))
    for n_prime in range(n // 2 + 1, n + 1):
        rc = reduce(c, ReductionParams(n=n, n_prime=n_prime))
        assert reduced_kerim_check(rc) == []
        q_plus = rc.quotient.dim_plus
        assert not rc.phi.data[:q_plus, n:].any() and not rc.phi.data[q_plus:, :n].any()
        assert rc.phi @ rc.embed == MatGF.identity(field, rc.quotient.dim_total)


def test_select_reduced_support_hand_case() -> None:
    params = ReductionParams(n=3, n_prime=2, c=Fraction(1, 4))
    # row/col weight cap is c*n/r = 9/4, so weight <= 2 qualifies
    assert params.row_col_threshold == Fraction(9, 4)
    psi_plus = MatGF(FIELD3, [[1, 0, 0], [1, 1, 1], [0, 2, 0]])
    psi_minus = MatGF(FIELD3, [[0, 0, 0], [0, 1, 0], [0, 0, 2]])
    sel = select_reduced_support(psi_plus, psi_minus, params)
    assert sel is not None
    # row 1 of psi_plus has weight 3 and is skipped
    assert sel.rows_plus == (0, 2) and sel.cols_plus == (0, 1)
    assert sel.rows_minus == (0, 1) and sel.cols_minus == (0, 1)
    red_p, red_m = reduced_matrix(psi_plus, psi_minus, sel)
    assert red_p.data.tolist() == [[1, 0], [0, 2]]
    assert red_m.data.tolist() == [[0, 0], [0, 1]]


def test_select_reduced_support_returns_none_when_too_heavy() -> None:
    # threshold c*n/r = 1 here, and two rows of psi_plus have weight 2
    params = ReductionParams(n=3, n_prime=2, c=Fraction(1, 9))
    heavy = MatGF(FIELD3, [[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    light = MatGF.zeros(FIELD3, 3, 3)
    assert select_reduced_support(heavy, light, params) is None
    assert select_reduced_support(light, heavy, params) is None
    sel = select_reduced_support(light, light, params)
    assert sel is not None


def test_select_reduced_support_shape_mismatch() -> None:
    params = ReductionParams(n=3, n_prime=2, c=Fraction(1, 4))
    with pytest.raises(ValueError):
        select_reduced_support(MatGF.zeros(FIELD3, 2, 3), MatGF.zeros(FIELD3, 3, 3), params)


def test_weights_within_boundary_is_exact() -> None:
    m = MatGF(FIELD3, [[1, 1, 0], [0, 1, 0], [0, 0, 0]])
    assert weights_within(m, Fraction(2))
    assert not weights_within(m, Fraction(3, 2))  # max weight 2 > 3/2
    assert weights_within(m, Fraction(2, 1))
    assert weights_within(MatGF.zeros(FIELD3, 0, 3), Fraction(0))


def test_uniform_low_weight_threshold() -> None:
    params = ReductionParams(n=4, n_prime=3, c=Fraction(1, 8))
    # c' = (1/8) / ((1/4)(3/4)) = 2/3, so the cap is c'*n' = 2
    assert params.ulw_threshold == Fraction(2)
    ok = MatGF(FIELD3, [[1, 1, 0], [0, 1, 0], [1, 0, 1]])
    assert uniform_low_weight(ok, params)
    heavy = MatGF(FIELD3, [[1, 1, 1], [0, 1, 0], [1, 0, 1]])
    assert not uniform_low_weight(heavy, params)
    with pytest.raises(ValueError):
        uniform_low_weight(MatGF.zeros(FIELD3, 2, 2), params)


def test_selected_support_satisfies_ulw_when_density_holds() -> None:
    """When every selected row and column meets the c*n/r cap, the
    reduced matrix satisfies the uniform low weight condition, since
    c'n' = cn/r exactly at n' = (1-r)n."""
    params = ReductionParams(n=4, n_prime=3, c=Fraction(3, 16))
    assert params.row_col_threshold == params.ulw_threshold
    rng = trial_rng(62, 0)
    found = 0
    for _ in range(100):
        psi_plus = MatGF(FIELD3, (rng.integers(0, 3, (4, 4)) * (rng.random((4, 4)) < 0.3)))
        psi_minus = MatGF(FIELD3, (rng.integers(0, 3, (4, 4)) * (rng.random((4, 4)) < 0.3)))
        sel = select_reduced_support(psi_plus, psi_minus, params)
        if sel is None:
            continue
        red_p, red_m = reduced_matrix(psi_plus, psi_minus, sel)
        assert uniform_low_weight(red_p, params)
        assert uniform_low_weight(red_m, params)
        found += 1
    assert found > 10
