from __future__ import annotations

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
    standard_boundary,
    trial_rng,
    validate,
)
from quditprod.gf import MatGF, kernel_basis
from support import FIELD3, SHAPE3, good_complexes


def test_params_rejects_bad_values() -> None:
    with pytest.raises(ValueError):
        ReductionParams(n=10, n_prime=5)  # n' must exceed n/2
    with pytest.raises(ValueError):
        ReductionParams(n=10, n_prime=11)


def test_reduce_standard_complex() -> None:
    std = standard_boundary(SHAPE3, FIELD3)
    rc = reduce(std, ReductionParams(n=3, n_prime=2))
    assert rc.good
    assert rc.quotient.dim_plus == rc.quotient.dim_minus == 1
    assert validate(rc.quotient) == []
    assert reduced_kerim_check(rc) == []


def test_reduce_with_n_prime_equal_n_is_identity() -> None:
    c, _, _ = random_boundary(SHAPE3, FIELD3, trial_rng(60, 0))
    rc = reduce(c, ReductionParams(n=3, n_prime=3))
    assert rc.good
    assert rc.quotient.dim_plus == rc.quotient.dim_minus == 3
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
    by sector, embed is a section of phi, and rc.good is is_good."""
    L = data.draw(st.integers(0, n // 2), label="L")
    field = FieldSpec(order)
    c, _, _ = random_boundary(ComplexShape(n, n - 2 * L, L), field, trial_rng(seed, 0))
    for n_prime in range(n // 2 + 1, n + 1):
        rc = reduce(c, ReductionParams(n=n, n_prime=n_prime))
        assert reduced_kerim_check(rc) == []
        # W d injective on the tail makes d injective there.  Conversely,
        # if W d_pm y = 0 with y != 0 on the tail, x = d_pm y != 0 lies on
        # the tail with d_mp x = 0, against goodness; likewise swapped.
        assert rc.good == is_good(c, n_prime)
        q_plus = rc.quotient.dim_plus
        assert not rc.phi.data[:q_plus, n:].any() and not rc.phi.data[q_plus:, :n].any()
        assert rc.phi @ rc.embed == MatGF.identity(field, rc.quotient.dim_total)
