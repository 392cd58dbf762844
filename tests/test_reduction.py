from __future__ import annotations

import subprocess
import sys
import textwrap
from dataclasses import replace

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
from quditprod.gf import MatGF, kernel_basis, random_invertible
from quditprod.reduction import _kernel_matrix, _same_column_space
from support import FIELD3, SHAPE3, good_complexes, reference_kerim_check, reference_row_reduce


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


def test_reduce_refuses_a_wrong_quotient_under_python_O() -> None:
    """reduce raises AssertionError, not a bare assert that ``python -O``
    strips, when phi fails to kill S>: here phi is patched to the plain
    projection onto V, which keeps the nonzero generator of S>."""
    script = textwrap.dedent(
        """
        import sys
        import numpy as np
        from quditprod import ComplexShape, FieldSpec, ReductionParams, reduction
        from quditprod import standard_boundary

        if not sys.flags.optimize:
            sys.exit("assert statements are live: not run under -O")
        real = reduction._sector_quotient
        reduction._sector_quotient = lambda gens, n, p: (
            np.eye(gens.shape[0], n, dtype=np.int64), real(gens, n, p)[1]
        )
        c = standard_boundary(ComplexShape.from_hom_dim(3, 1), FieldSpec(3))
        try:
            reduction.reduce(c, ReductionParams(n=3, n_prime=2))
        except AssertionError as exc:
            print(f"refused: {exc}")
        """
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, check=True
    )
    assert proc.stdout == "refused: phi does not kill S>\n"


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
    (phi_p, phi_m), q = rc.phi, rc.quotient
    assert phi_m @ c.d_mp == q.d_mp @ phi_p
    assert phi_p @ c.d_pm == q.d_pm @ phi_m
    # embed is a section of phi, sector by sector
    for phi_s, embed_s in zip(rc.phi, rc.embed):
        assert phi_s @ embed_s == MatGF.identity(FIELD3, phi_s.rows)


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
    n' = n): the kernel/image description holds, each sector block of
    phi maps the n base coordinates onto its quotient sector, embed is a
    section of phi per sector, and rc.good is is_good (the reduced-cycle
    census decides goodness by rc.good alone)."""
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
        q_dims = (rc.quotient.dim_plus, rc.quotient.dim_minus)
        for q_dim, phi_s, embed_s in zip(q_dims, rc.phi, rc.embed):
            assert phi_s.shape == (q_dim, n) and embed_s.shape == (n, q_dim)
            assert phi_s @ embed_s == MatGF.identity(field, q_dim)


def _tamper(m: MatGF, i: int, j: int, delta: int) -> MatGF:
    data = m.data.copy()
    data[i, j] += delta
    return MatGF(m.field, data)


@settings(max_examples=120, deadline=None)
@given(
    order=st.sampled_from([3, 5, 7]),
    n=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    target=st.sampled_from([None, "phi+", "phi-", "d'_pm", "d'_mp"]),
    data=st.data(),
)
def test_kerim_check_flags_exactly_when_full_space_reference_does(
    order: int, n: int, seed: int, target, data
) -> None:
    """The per-sector check and the full-space reference agree on
    every reduction, untouched or with one entry of phi or of a
    quotient boundary block changed, and an untouched one passes."""
    L = data.draw(st.integers(0, n // 2), label="L")
    n_prime = data.draw(st.integers(n // 2 + 1, n), label="n_prime")
    field = FieldSpec(order)
    c, _, _ = random_boundary(ComplexShape(n, n - 2 * L, L), field, trial_rng(seed, 0))
    rc = reduce(c, ReductionParams(n=n, n_prime=n_prime))
    if target is not None:
        q = rc.quotient
        m = {"phi+": rc.phi[0], "phi-": rc.phi[1], "d'_pm": q.d_pm, "d'_mp": q.d_mp}[target]
        i = data.draw(st.integers(0, m.rows - 1), label="row")
        j = data.draw(st.integers(0, m.cols - 1), label="col")
        bad = _tamper(m, i, j, data.draw(st.integers(1, order - 1), label="delta"))
        rc = {
            "phi+": lambda: replace(rc, phi=(bad, rc.phi[1])),
            "phi-": lambda: replace(rc, phi=(rc.phi[0], bad)),
            "d'_pm": lambda: replace(rc, quotient=replace(q, d_pm=bad)),
            "d'_mp": lambda: replace(rc, quotient=replace(q, d_mp=bad)),
        }[target]()
    problems = reduced_kerim_check(rc)
    assert bool(problems) == bool(reference_kerim_check(rc))
    if target is None:
        assert problems == []


def _m(rows) -> MatGF:
    return MatGF(FIELD3, rows)


# The standard n = 3 complex sends e2 to e1 in both blocks.
_D0 = [[0, 0, 0], [0, 0, 1], [0, 0, 0]]
_KER = "ker d' != phi(d^-1(V>))"
_IM = "im d' != phi(im d)"


@pytest.mark.parametrize(
    "base, n_prime, phi, d_pm, d_mp, expected",
    [
        pytest.param(
            # d'_mp = 2 d0 has the kernel and image of d0 but is not phi d phi^-1
            SHAPE3, 3, None, None, _m([[0, 0, 0], [0, 0, 2], [0, 0, 0]]),
            ["-+ block: chain map fails, phi d != d' phi"], id="chain map",
        ),
        pytest.param(
            # phi+ kills the cycle e0 of d_mp, so phi+(ker d_mp) misses it
            SHAPE3, 3, (_m([[0, 0, 0], [0, 1, 0], [0, 0, 1]]), _m(np.eye(3, dtype=int))),
            None, None, ["-+ block: " + _KER], id="ker",
        ),
        pytest.param(
            # over the zero complex, each quotient block sends e1 to e0,
            # which phi(im 0) = 0 cannot reach; the base is not good
            ComplexShape(1, 1, 0), 1, (_m([[1], [0]]), _m([[1], [0]])),
            _m([[0, 1], [0, 0]]), _m([[0, 1], [0, 0]]),
            ["+- block: " + _IM, "-+ block: " + _IM], id="im",
        ),
        pytest.param(
            # a chain map onto a quotient whose d'_mp keeps the rank of
            # d_mp: every identity holds but the good-case rank deltas
            SHAPE3, 2, (_m([[0, 0, 1]]), _m([[0, 1, 0]])), _m([[0]]), _m([[1]]),
            ["-+ block: expected image dim 0, got 1", "-+ block: expected kernel dim 1, got 0"],
            id="rank deltas",
        ),
    ],
)
def test_kerim_check_names_each_failure(base, n_prime, phi, d_pm, d_mp, expected) -> None:
    std = standard_boundary(base, FIELD3)
    rc = reduce(std, ReductionParams(n=base.n, n_prime=n_prime))
    q = rc.quotient
    rc = replace(
        rc,
        phi=phi or rc.phi,
        quotient=InvolutiveComplex(FIELD3, d_pm or q.d_pm, d_mp or q.d_mp),
    )
    assert reduced_kerim_check(rc) == expected
    assert reference_kerim_check(rc) != []


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([3, 5, 65521]),
    st.integers(0, 6),
    st.integers(0, 6),
    st.integers(0, 6),
    st.sampled_from(["random", "inside", "same", "other rows"]),
    st.integers(0, 2**32 - 1),
)
def test_same_column_space_matches_three_ranks(order, rows, cols_a, cols_b, kind, seed) -> None:
    """_same_column_space agrees with its definition, equal row counts
    and rank a = rank b = rank [a | b], each rank by the reference
    elimination.  b is random, inside the span of a, a generator set of
    the same span (a times an invertible matrix, with cols_b more
    columns from that span) or of another row count; zero columns come
    up as any of the three sizes 0."""
    field = FieldSpec(order)
    rng = np.random.default_rng(seed)
    r = int(rng.integers(0, min(rows, cols_a) + 1))
    a = rng.integers(0, order, (rows, r)) @ rng.integers(0, order, (r, cols_a)) % order
    if kind == "random":
        b = rng.integers(0, order, (rows, cols_b))
    elif kind == "inside":
        b = a @ rng.integers(0, order, (cols_a, cols_b)) % order
    elif kind == "same":
        u = random_invertible(field, cols_a, rng).data
        b = np.concatenate([a @ u, a @ rng.integers(0, order, (cols_a, cols_b))], axis=1) % order
    else:
        b = rng.integers(0, order, (rows + 1, cols_b))

    def ref_rank(x):
        return len(reference_row_reduce(x, order)[1])

    want = a.shape[0] == b.shape[0] and ref_rank(a) == ref_rank(b) == ref_rank(np.hstack([a, b]))
    assert _same_column_space(MatGF(field, a), MatGF(field, b), ref_rank(a)) == want
    if kind in ("same", "other rows"):
        assert want == (kind == "same")


def test_kerim_check_eliminates_no_kernel_basis(eliminations) -> None:
    """Each block's check passes _same_column_space the rank of a kernel
    basis, its column count, and the kept rank of d', so it eliminates
    d[:n'] and d' for their kernels, [phi_s preimage | ker d'],
    [phi_t d | d'] and, for the good case's ranks, d: five matrices a
    block, and never the kernel basis of d'."""
    base, _, _ = random_boundary(ComplexShape(5, 1, 2), FIELD3, trial_rng(1, 0))
    rc = reduce(base, ReductionParams(n=5, n_prime=4))
    assert rc.good
    eliminations.clear()
    assert reduced_kerim_check(rc) == []
    calls = list(eliminations)
    phi_p, phi_m = rc.phi
    expected = []
    for d, d_q, phi_s, phi_t in (
        (base.d_pm, rc.quotient.d_pm, phi_m, phi_p),
        (base.d_mp, rc.quotient.d_mp, phi_p, phi_m),
    ):
        preimage = _kernel_matrix(MatGF(FIELD3, d.data[:4]))
        kernel = _kernel_matrix(d_q).data
        expected += [
            d.data[:4],
            d_q.data,
            np.hstack([(phi_s @ preimage).data, kernel]),
            np.hstack([(phi_t @ d).data, d_q.data]),
            d.data,
        ]
    assert len(calls) == len(expected) == 10
    for call, matrix in zip(calls, expected):
        assert np.array_equal(call.matrix, matrix)
