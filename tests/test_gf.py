from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from quditprod.counting import gaussian_binomial
from quditprod.experiments import _CHUNK
from quditprod.gf import (
    ORDER_LIMIT,
    FieldSpec,
    MatGF,
    _inverse_table,
    _random_invertible_batch,
    _row_reduce,
    _subspace_table,
    _table_rank,
    col_weights,
    inverse,
    kernel_basis,
    kron,
    matrix_from_text,
    matrix_to_text,
    random_invertible,
    rank,
    rank_batch,
    row_weights,
    solve,
    span_blocks,
    weight,
)
from support import FIELD3, FIELD5


@pytest.mark.parametrize("order", [3, 5, 7, 11])
def test_field_inverse_table(order: int) -> None:
    f = FieldSpec(order)
    for a in range(1, order):
        assert (a * f.inv(a)) % order == 1


@pytest.mark.parametrize("order", [1, 2, 4, 9, 15])
def test_field_rejects_non_odd_primes(order: int) -> None:
    with pytest.raises(ValueError):
        FieldSpec(order)


def test_field_order_bound_keeps_int64_products_exact() -> None:
    """The largest prime below 2^16 is accepted and its products are
    exact; the first prime above is refused, as is 10^9+7, where a 1x40
    by 40x1 product of (D-1) entries would overflow int64."""
    assert ORDER_LIMIT == 1 << 16
    top = FieldSpec(65521)
    row = MatGF(top, np.full((1, 40), top.order - 1))
    assert (row @ row.T).data.tolist() == [[40]]
    assert (MatGF(top, [[top.order - 1]]) * 10**30).data.tolist() == [[(-(10**30)) % top.order]]
    for order in (65537, 10**9 + 7):
        with pytest.raises(ValueError, match="below 2\\^16"):
            FieldSpec(order)


def test_inverse_table_is_cached_and_read_only() -> None:
    table = _inverse_table(7)
    assert table is _inverse_table(7)
    assert table.tolist() == [0, 1, 4, 5, 2, 3, 6]
    assert not table.flags.writeable


def test_reduced_data_is_taken_without_a_copy() -> None:
    arr = np.array([[1, 2], [0, 1]], dtype=np.int64)
    m = MatGF(FIELD3, arr, _reduced=True)
    assert np.shares_memory(m.data, arr) and not m.data.flags.writeable
    raw = np.array([[4, 2], [0, 1]], dtype=np.int64)
    assert not np.shares_memory(MatGF(FIELD3, raw).data, raw)
    assert raw.flags.writeable and raw[0, 0] == 4


def test_matrix_reduces_entries_mod_p() -> None:
    m = MatGF(FIELD3, [[4, -1], [6, 2]])
    assert m.data.tolist() == [[1, 2], [0, 2]]


def test_matrix_data_is_read_only() -> None:
    m = MatGF(FIELD3, [[1, 2], [0, 1]])
    with pytest.raises(ValueError):
        m.data[0, 0] = 0


def test_matrix_arithmetic_mod_p() -> None:
    a = MatGF(FIELD3, [[1, 2], [0, 1]])
    b = MatGF(FIELD3, [[2, 2], [1, 0]])
    assert (a + b).data.tolist() == [[0, 1], [1, 1]]
    assert (a - b).data.tolist() == [[2, 0], [2, 1]]
    assert (-a).data.tolist() == [[2, 1], [0, 2]]
    assert (a * 2).data.tolist() == [[2, 1], [0, 2]]
    assert (a @ b).data.tolist() == [[1, 2], [1, 0]]
    assert a.T.data.tolist() == [[1, 0], [2, 1]]


def test_matmul_with_plain_array_returns_array() -> None:
    a = MatGF(FIELD3, [[1, 2], [0, 1]])
    v = a @ np.array([1, 1])
    assert isinstance(v, np.ndarray)
    assert v.tolist() == [0, 1]


def test_matrix_submatrix() -> None:
    m = MatGF(FIELD3, [[0, 1, 2], [1, 0, 1], [2, 2, 0]])
    sub = m.submatrix([0, 2], [1, 2])
    assert sub.data.tolist() == [[1, 2], [2, 0]]


def test_rank_known_singular_matrix() -> None:
    # det = 1*1 - 2*2 = -3 = 0 mod 3
    assert rank(MatGF(FIELD3, [[1, 2], [2, 1]])) == 1
    # the same matrix is invertible mod 5
    assert rank(MatGF(FIELD5, [[1, 2], [2, 1]])) == 2


def test_rank_extremes() -> None:
    assert rank(MatGF.identity(FIELD3, 4)) == 4
    assert rank(MatGF.zeros(FIELD3, 3, 5)) == 0


def test_kernel_basis_annihilates_and_has_right_dimension() -> None:
    rng = np.random.default_rng(3)
    for _ in range(30):
        m = MatGF(FIELD3, rng.integers(0, 3, (4, 6)))
        basis = kernel_basis(m)
        assert len(basis) == 6 - rank(m)
        for v in basis:
            assert not (m @ v).any()
        if basis:
            stacked = MatGF(FIELD3, np.array(basis))
            assert rank(stacked) == len(basis)


def test_kernel_of_invertible_matrix_is_trivial() -> None:
    u = random_invertible(FIELD5, 4, np.random.default_rng(0))
    assert kernel_basis(u) == []


def test_solve_consistent_and_inconsistent() -> None:
    m = MatGF(FIELD3, [[1, 2], [2, 1], [0, 0]])
    b = np.array([1, 2, 0])
    x = solve(m, b)
    assert x is not None
    assert ((m @ x) % 3 == b).all()
    assert solve(m, np.array([0, 0, 1])) is None


def test_solve_underdetermined_sets_free_vars_to_zero() -> None:
    m = MatGF(FIELD3, [[1, 0, 2]])
    x = solve(m, np.array([2]))
    assert x is not None
    assert (m @ x).tolist() == [2]
    assert np.count_nonzero(x) == 1


def test_inverse_round_trip_and_singular_error() -> None:
    rng = np.random.default_rng(7)
    for order in (3, 7):
        f = FieldSpec(order)
        u = random_invertible(f, 5, rng)
        assert (u @ inverse(u)) == MatGF.identity(f, 5)
    with pytest.raises(ValueError, match="singular"):
        inverse(MatGF(FIELD3, [[1, 2], [2, 1]]))


def test_random_invertible_is_deterministic_per_seed() -> None:
    a = random_invertible(FIELD3, 4, np.random.default_rng(11))
    b = random_invertible(FIELD3, 4, np.random.default_rng(11))
    assert a == b


def test_random_invertible_uniform_over_gl_2_3() -> None:
    """Chi-square against the uniform distribution on all 48 elements
    of GL(2,3), at a 0.1% false-failure level."""
    samples = 100_000
    rng = np.random.default_rng(12345)
    counts: dict[bytes, int] = {}
    for _ in range(samples):
        u = random_invertible(FIELD3, 2, rng)
        key = u.data.tobytes()
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 48
    expected = samples / 48
    stat = sum((c - expected) ** 2 / expected for c in counts.values())
    assert stat < chi2.ppf(0.999, 47)


def test_weights() -> None:
    m = MatGF(FIELD3, [[1, 0, 2], [0, 0, 0]])
    assert row_weights(m).tolist() == [2, 0]
    assert col_weights(m).tolist() == [1, 0, 1]
    assert weight(m) == 2


def test_kron_known_product_and_weight_multiplicativity() -> None:
    a = MatGF(FIELD3, [[1, 2], [0, 1]])
    b = MatGF(FIELD3, [[0, 1], [1, 1]])
    k = kron(a, b)
    assert k.data.tolist() == [
        [0, 1, 0, 2],
        [1, 1, 2, 2],
        [0, 0, 0, 1],
        [0, 0, 1, 1],
    ]
    # products of nonzero field elements are nonzero, so row and column
    # weights multiply exactly
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = MatGF(FIELD5, rng.integers(0, 5, (3, 2)))
        y = MatGF(FIELD5, rng.integers(0, 5, (2, 4)))
        kxy = kron(x, y)
        assert np.count_nonzero(kxy.data) == np.count_nonzero(x.data) * np.count_nonzero(y.data)
        assert row_weights(kxy).max() == row_weights(x).max() * row_weights(y).max()
        assert col_weights(kxy).max() == col_weights(x).max() * col_weights(y).max()
        assert weight(kxy) == max(
            row_weights(x).max() * row_weights(y).max(),
            col_weights(x).max() * col_weights(y).max(),
        )


def test_matrix_text_round_trip() -> None:
    rng = np.random.default_rng(9)
    for f in (FIELD3, FIELD5):
        for shape in ((1, 1), (3, 4), (5, 2)):
            m = MatGF(f, rng.integers(0, f.order, shape))
            text = matrix_to_text(m)
            assert matrix_from_text(text) == m
            assert text.endswith("\n")


@pytest.mark.parametrize(
    "text",
    [
        "",
        "3 2\n1 2\n",  # header too short
        "4 2 2\n1 0\n0 1\n",  # not an odd prime
        "3 2 2\n1 0\n",  # missing row
        "3 2 2\n1 0\n0 3\n",  # entry out of range
        "3 2 2\n1 0\n0 -1\n",  # negative entry
        "3 2 2\n1 0\n0 x\n",  # non-integer
        "3 2 2\n1 0 2\n0 1\n",  # row too long
        "3 2 2\n1 0\n0 1\n1 1\n",  # trailing row
        "3 1 2\n1 100000000000000000000\n",  # entry beyond int64
        "3 1 100000000000\n1\n",  # huge column count, short row
    ],
)
def test_matrix_text_rejects_malformed_input(text: str) -> None:
    with pytest.raises(ValueError):
        matrix_from_text(text)


@pytest.mark.parametrize(
    "order, t, width", [(3, 3, 5), (5, 2, 4), (7, 2, 3), (3, 11, 12), (5, 0, 4)]
)
def test_span_blocks_enumerates_the_span_in_index_order(order: int, t: int, width: int) -> None:
    """All order**t combinations, row idx being the combination with
    coefficients (idx // order**i) % order; 3^11 rows take three blocks."""
    basis = np.random.default_rng(order + t).integers(0, order, (t, width))
    blocks = list(span_blocks(basis, order))
    assert len(blocks) == -(-order**t // (1 << 16))
    assert all(len(b) <= 1 << 16 for b in blocks)
    got = np.concatenate(blocks)
    assert got.shape == (order**t, width)
    idx = np.arange(order**t)[:, None]
    coeffs = (idx // order ** np.arange(t)) % order
    assert (got == coeffs @ basis % order).all()
    if t == 0:
        assert got.tolist() == [[0] * width]
    small = list(span_blocks(basis, order, rows=1000))
    assert all(len(b) <= 1000 for b in small)
    assert (np.concatenate(small) == got).all()


@pytest.mark.parametrize("order", [3, 5, 7, 11])
def test_rank_batch_matches_scalar_rank(order: int) -> None:
    """rank_batch and the subspace-table rank against scalar rank on
    tall, square and wide shapes (wide ones take the transposed walk),
    including shapes with no rows or no columns."""
    f = FieldSpec(order)
    rng = np.random.default_rng(order)
    for shape in ((2, 2), (3, 4), (4, 3), (3, 3), (1, 3), (3, 1), (0, 3), (3, 0)):
        mats = rng.integers(0, order, (200, *shape))
        expected = [rank(MatGF(f, m)) for m in mats]
        assert rank_batch(mats, order)[2].tolist() == expected
        assert _table_rank(mats, order).tolist() == expected


@pytest.mark.parametrize("order, width, states", [(3, 4, 212), (5, 3, 64), (7, 2, 10), (3, 0, 1)])
def test_subspace_table_has_one_state_per_subspace(order: int, width: int, states: int) -> None:
    step, dim = _subspace_table(order, width)
    assert step.shape == (states, order**width)
    assert states == sum(gaussian_binomial(width, k, order) for k in range(width + 1))
    for k in range(width + 1):
        assert np.count_nonzero(dim == k) == gaussian_binomial(width, k, order)
    # a row adds at most one dimension, and code 0 adds none
    grow = dim[step] - dim[:, None]
    assert ((grow == 0) | (grow == 1)).all()
    assert (step[:, 0] == np.arange(states)).all()
    assert not step.flags.writeable and not dim.flags.writeable


def test_subspace_table_refuses_oversized_width() -> None:
    with pytest.raises(ValueError, match="exceeds"):
        _subspace_table(3, 6)  # 729 codes, but 56k states
    with pytest.raises(ValueError, match="exceeds"):
        _subspace_table(11, 9)  # 2.4e9 codes


@st.composite
def small_matrices(draw):
    order = draw(st.sampled_from([3, 5, 7, 11]))
    side = 4 if order <= 5 else 3
    rows = draw(st.integers(0, 5))
    cols = draw(st.integers(0, side if rows > side else 5))
    cells = draw(st.lists(st.integers(0, order - 1), min_size=rows * cols, max_size=rows * cols))
    return order, np.array(cells, dtype=np.int64).reshape(rows, cols)


@settings(max_examples=200, deadline=None)
@given(small_matrices())
def test_table_rank_equals_rank(case) -> None:
    order, m = case
    assert _table_rank(m[None], order).tolist() == [rank(MatGF(FieldSpec(order), m))]


@st.composite
def matrix_stacks(draw):
    """Stacks of 0 to 5 matrices over GF(3/5/7), GF(181) (the largest
    order eliminated in int16), and GF(191) and GF(65521) (in int64):
    tall, wide, square, and with no rows or no columns."""
    order = draw(st.sampled_from([3, 5, 7, 181, 191, 65521]))
    count, rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 6)), draw(st.integers(0, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    mats = np.random.default_rng(seed).integers(0, order, (count, rows, cols))
    if draw(st.booleans()):  # the largest residues make the largest products
        mats = order - 1 - mats % 3
    # Low-rank rows make pivot-free columns and rank deficits common.
    if rows > 1 and draw(st.booleans()):
        mats[:, -1] = mats[:, 0] * 2 % order
    return order, mats


@settings(max_examples=200, deadline=None)
@given(matrix_stacks())
def test_rank_batch_equals_row_reduce(case) -> None:
    order, mats = case
    rref, pivots, ranks = rank_batch(mats, order)
    assert rref.shape == mats.shape and pivots.shape == (len(mats), mats.shape[2])
    for i, m in enumerate(mats):
        want, want_pivots = _row_reduce(m, order)
        assert (rref[i] == want).all()
        assert np.nonzero(pivots[i])[0].tolist() == want_pivots
        assert ranks[i] == len(want_pivots)


@settings(max_examples=30, deadline=None)
@given(
    order=st.sampled_from([3, 5, 7]),
    n=st.integers(0, 6),
    count=st.integers(1, _CHUNK + 1),
    seed=st.integers(0, 2**32 - 1),
)
def test_lockstep_invertible_draws_match_random_invertible(order, n, count, seed) -> None:
    """Each generator yields random_invertible's matrix and ends in the
    same state: its next draw is equal."""
    field = FieldSpec(order)
    rngs = [np.random.default_rng([seed, i]) for i in range(count)]
    mats = _random_invertible_batch(field, n, rngs)
    for i, rng in enumerate(rngs):
        ref = np.random.default_rng([seed, i])
        assert (mats[i] == random_invertible(field, n, ref).data).all()
        assert rng.integers(0, 2**62) == ref.integers(0, 2**62)
