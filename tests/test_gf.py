from __future__ import annotations

import gc
import itertools
import re
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from quditprod import counting, experiments, gf
from quditprod.complexes import complex_from_text
from quditprod.counting import brute_count_rank_matrices, gaussian_binomial
from quditprod.gf import (
    ORDER_LIMIT,
    FieldSpec,
    MatGF,
    _inverse_table,
    _line_weights,
    _matmul,
    _matrix_from_lines,
    _row_reduce,
    _subspace_table,
    _table_rank,
    _weight_blocks,
    col_weights,
    inverse,
    kernel_basis,
    line_blocks,
    matrix_from_text,
    matrix_to_text,
    random_invertible,
    rank,
    rank_batch,
    row_weights,
)
from support import (
    FIELD3,
    FIELD5,
    record_eliminations,
    reference_block_rank_census,
    reference_matrix_from_lines,
    reference_matrix_to_text,
    reference_lines,
    reference_rank_batch,
    reference_rank_histogram,
    reference_row_reduce,
    reference_ulw_probability,
)


@pytest.mark.parametrize("order", [3, 5, 7, 11])
def test_field_inverse_table(order: int) -> None:
    inv = _inverse_table(order)
    for a in range(1, order):
        assert (a * int(inv[a])) % order == 1


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


@pytest.mark.parametrize(
    "data, expected",
    [
        ([[1.5, 2]], None),
        ([["2"]], None),
        (np.array([[b"1"]]), None),
        ([[float("nan")]], None),
        ([[float("inf")]], None),
        ([[1 + 0j]], None),
        ([[None]], None),
        ([[10**30]], None),
        ([[2**63]], None),
        (np.array([[2**63]], dtype=np.uint64), None),
        ([[-(2**63) - 1]], None),
        ([[4.0, -1.0]], [[1, 2]]),
        (np.array([], dtype=np.float64).reshape(2, 0), [[], []]),
        ([[2**63 - 1, -(2**63)]], [[(2**63 - 1) % 3, -(2**63) % 3]]),
        (np.array([[7]], dtype=np.uint64), [[1]]),
        (np.array([[7]], dtype=np.uint8), [[1]]),
        ([[True, False]], [[1, 0]]),
    ],
    ids=[
        "fraction", "text", "bytes", "nan", "inf", "complex", "none", "10^30", "2^63",
        "uint64-2^63", "below-int64", "integral-float", "empty-float", "int64-ends",
        "uint64", "uint8", "bool",
    ],
)
def test_matrix_refuses_entries_that_are_not_int64_integers(data, expected) -> None:
    """The constructor reduces integers of int64 range, an integral
    float included, and refuses every other entry with ValueError: a
    fraction is not truncated, a string not parsed, a wide integer not
    wrapped."""
    if expected is None:
        with pytest.raises(ValueError, match="integers of int64 range"):
            MatGF(FIELD3, data)
    else:
        assert MatGF(FIELD3, data).data.tolist() == expected


def test_matrix_data_is_read_only() -> None:
    m = MatGF(FIELD3, [[1, 2], [0, 1]])
    with pytest.raises(ValueError):
        m.data[0, 0] = 0


def test_matrix_arithmetic_mod_p() -> None:
    a = MatGF(FIELD3, [[1, 2], [0, 1]])
    b = MatGF(FIELD3, [[2, 2], [1, 0]])
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
        assert rank(MatGF(FIELD3, basis)) == len(basis)


def test_kernel_of_invertible_matrix_is_trivial() -> None:
    u = random_invertible(FIELD5, 4, np.random.default_rng(0))
    assert kernel_basis(u).shape == (0, 4)


def test_echelon_form_is_computed_once_and_kept_read_only(eliminations) -> None:
    """rank then kernel_basis on one matrix run one elimination, whose
    nonzero rows are kept read-only in the elimination dtype, not
    copied.  rank of the transpose reads the same form.  The matrix
    holds no other MatGF, also after .T, so reference counting alone
    frees it."""
    m = MatGF(FIELD3, np.random.default_rng(4).integers(0, 3, (5, 7)))
    r = rank(m)
    basis = kernel_basis(m)
    assert [e.shape for e in eliminations] == [(5, 7)]
    assert len(basis) == 7 - r and not (m @ basis.T).any()
    basis[:] = 0  # the caller's own array
    assert rank(m) == r and not (m @ kernel_basis(m).T).any() and len(kernel_basis(m)) == 7 - r
    assert [e.shape for e in eliminations] == [(5, 7)]
    rref, pivots = m._rref()
    assert not rref.flags.writeable and not pivots.flags.writeable
    assert rref.shape == (r, 7) and rref.dtype == gf._work_dtype(3)
    assert np.shares_memory(rref, eliminations[0].rref)  # kept without a copy
    assert rank(m.T) == r and [e.shape for e in eliminations] == [(5, 7)]
    held = gc.get_referents(m) + gc.get_referents(m.T)
    for _ in range(2):  # the shared list, then the tuples in it
        held += [x for h in held if isinstance(h, (list, tuple)) for x in gc.get_referents(h)]
    assert not any(isinstance(h, MatGF) for h in held)


@st.composite
def _low_rank_matrices(draw) -> tuple[int, np.ndarray]:
    """(order, array): an empty, wide, tall or square matrix over GF(3),
    GF(5) or GF(65521), of any rank up to full, as a product of random
    rows x r and r x cols factors.  Up to 14 x 14, so both of
    _row_reduce's loops run."""
    order = draw(st.sampled_from([3, 5, 65521]))
    rows, cols = draw(st.integers(0, 14)), draw(st.integers(0, 14))
    r = draw(st.integers(0, min(rows, cols)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.integers(0, order, (rows, r)) @ rng.integers(0, order, (r, cols)) % order
    return order, a


@settings(max_examples=200, deadline=None)
@given(
    _low_rank_matrices(),
    st.lists(st.tuples(st.sampled_from(["m", "m.T", "m.T.T"]), st.booleans()), min_size=1, max_size=8),
)
def test_transposes_share_echelon_forms(case, calls) -> None:
    """Any order of rank and kernel_basis calls on m, m.T and m.T.T
    returns what a fresh MatGF of the same array returns, and each
    orientation is eliminated at most once: rank reads either kept form,
    and a kernel eliminates its own orientation only if that form is
    not kept yet.  Each access makes a new .T object."""
    order, a = case
    field = FieldSpec(order)
    arrays = {0: a, 1: a.T.copy()}
    want = {s: (rank(MatGF(field, x)), kernel_basis(MatGF(field, x))) for s, x in arrays.items()}
    m = MatGF(field, a)
    views = {"m": (lambda: m, 0), "m.T": (lambda: m.T, 1), "m.T.T": (lambda: m.T.T, 0)}
    kept, expected = set(), []
    with pytest.MonkeyPatch.context() as mp:
        eliminations = record_eliminations(mp)
        for name, kernel in calls:
            view, side = views[name]
            if kernel:
                assert np.array_equal(kernel_basis(view()), want[side][1])
            else:
                assert rank(view()) == want[side][0]
            if side not in kept and (kernel or not kept):
                kept.add(side)
                expected.append(side)
    assert len(eliminations) == len(expected) <= 2
    for e, side in zip(eliminations, expected):
        assert np.array_equal(e.matrix, arrays[side])


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


# The span walk, gf.line_blocks: one vector per line of a span.
def _line_count(order: int, t: int, start: int) -> int:
    return (order**t - order**start) // (order - 1)


def _stacked(blocks: list[np.ndarray], width: int) -> np.ndarray:
    return np.concatenate(blocks) if blocks else np.zeros((0, width), dtype=np.int64)


@pytest.mark.parametrize(
    "order, t, width",
    [(3, 3, 5), (5, 2, 4), (7, 2, 3), (3, 11, 12), (5, 0, 4), (181, 2, 6), (65521, 1, 4)],
)
def test_line_blocks_enumerates_the_span_in_index_order(order: int, t: int, width: int) -> None:
    """From every start, the combinations whose coefficients
    (idx // order**i) % order have their last nonzero entry 1 at i >=
    start, in increasing idx; every block but the first and the last
    holds more than half its room, so the short ranges share blocks."""
    basis = np.random.default_rng(order + t).integers(0, order, (t, width))
    idx = np.arange(order**t)[:, None]
    coeffs = (idx // order ** np.arange(t)) % order
    top = np.where(coeffs != 0, np.arange(t), -1).max(axis=1, initial=-1)
    top_digit = (coeffs * (np.arange(t) == top[:, None])).sum(axis=1)
    for start in range(t + 1):
        blocks = list(line_blocks(basis, order, start=start))
        assert all(len(b) <= 1 << 16 for b in blocks)
        assert all(len(b) > 1 << 15 for b in blocks[1:-1])
        got = _stacked(blocks, width)
        assert got.shape == (_line_count(order, t, start), width)
        lead = (top >= start) & (top_digit == 1)
        assert (got == coeffs[lead] @ basis % order).all()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gf, "_LINE_ROWS", 1000)
            small = list(line_blocks(basis, order, start=start))
        assert all(len(b) <= 1000 for b in small)
        assert np.array_equal(_stacked(small, width), got)


def test_enumeration_limit_boundary(monkeypatch) -> None:
    """p^t equal to the limit is walked and p^(t+1) is refused at the
    call, by line_blocks and by the count oracles alike: the cap counts
    the whole span, not its (p^t - 1) / (p - 1) lines."""
    assert gf.ENUMERATION_LIMIT == 10**7
    monkeypatch.setattr(gf, "ENUMERATION_LIMIT", 3**5)
    assert sum(len(b) for b in line_blocks(np.eye(5, dtype=np.int64), 3)) == (3**5 - 1) // 2
    assert sum(brute_count_rank_matrices(FIELD3, 1, 5).values()) == 3**5
    refusal = r"^enumeration needs 3\^6 vectors, above the limit of 243$"
    with pytest.raises(ValueError, match=refusal):
        line_blocks(np.eye(6, dtype=np.int64), 3)
    with pytest.raises(ValueError, match=refusal):
        line_blocks(np.eye(6, dtype=np.int64), 3, start=6)
    with pytest.raises(ValueError, match=refusal):
        _line_weights(np.eye(6, dtype=np.int64), 3, start=6)
    with pytest.raises(ValueError, match=refusal):
        brute_count_rank_matrices(FIELD3, 2, 3)


_SPAN_ORDERS = [3, 5, 7, 181, 65521]


@st.composite
def span_cases(draw):
    """A (t, width) basis over GF(3/5/7/181/65521) with entries negative
    or >= p, width 0..20, and a block size of 1, 2, p - 1, p, p + 1, an
    odd value, 2^16, p^6 or p^8 (so that every order builds a table of
    one or more levels, in uint8, uint16 or uint32).  Spans hold at most
    2^16 rows in 2000 blocks."""
    order = draw(st.sampled_from(_SPAN_ORDERS))
    odd = st.integers(0, 3000).map(lambda r: 2 * r + 1)
    sizes = [1, 2, order - 1, order, order + 1, 1 << 16, order**6, order**8]
    rows = draw(st.sampled_from(sizes) | odd)
    t = 0
    while order ** (t + 1) <= min(1 << 16, 2000 * rows):
        t += 1
    t = draw(st.integers(0, t))
    width = draw(st.integers(0, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shift = rng.integers(-3, 4, (t, width)) * draw(st.sampled_from([0, 1, order]))
    return order, rng.integers(0, order, (t, width)) + shift * order, rows


@settings(max_examples=200, deadline=None)
@given(span_cases())
def test_line_blocks_matches_reference(case) -> None:
    """The built lines are the decoded ones, row for row in index order,
    for every block size and every start 0..t; each block holds 1..rows
    rows of residues in the unsigned dtype its sums run in, the smallest
    holding 2p - 2 (uint8, uint16 at 181, uint32 at 65521)."""
    order, basis, rows = case
    t, width = basis.shape
    for start in range(t + 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gf, "_LINE_ROWS", rows)
            blocks = list(line_blocks(basis, order, start))
        for b in blocks:
            assert b.dtype == np.min_scalar_type(2 * order - 2)
            assert 1 <= len(b) <= rows
            assert ((b >= 0) & (b < order)).all()
        expected = np.concatenate(list(reference_lines(basis, order, start)))
        assert expected.shape == (_line_count(order, t, start), width)
        got = _stacked(blocks, width)
        assert np.array_equal(got, expected)


@pytest.mark.parametrize("order", _SPAN_ORDERS)
def test_line_blocks_matches_reference_at_the_enumeration_cap(order: int) -> None:
    """The largest span the cap allows (3^14, 5^10, 7^8, 181^3, 65521^1
    combinations): the walk from 0 equals the reference block by block,
    and the walk from each start is its tail from row
    (p^start - 1) / (p - 1)."""
    t = 0
    while order ** (t + 1) <= gf.ENUMERATION_LIMIT:
        t += 1
    basis = np.random.default_rng(order).integers(-order, 2 * order, (t, 2))
    expected = reference_lines(basis, order)
    pending = np.empty((0, 2), dtype=np.int64)
    walked = []
    for block in line_blocks(basis, order):
        while len(pending) < len(block):
            pending = np.concatenate([pending, next(expected)])
        assert np.array_equal(block, pending[: len(block)])
        pending = pending[len(block) :]
        walked.append(block)
    assert len(pending) == 0 and all(len(rest) == 0 for rest in expected)
    walked = np.concatenate(walked)
    for start in range(1, t + 1):
        tail = _stacked(list(line_blocks(basis, order, start=start)), 2)
        assert np.array_equal(tail, walked[_line_count(order, start, 0) :])


@pytest.mark.parametrize("start", [-1, 3])
def test_line_blocks_refuses_a_start_outside_the_basis(start: int) -> None:
    for walk in (line_blocks, _line_weights):
        with pytest.raises(ValueError, match=rf"^need 0 <= start <= 2, got {start}$"):
            walk(np.eye(2, dtype=np.int64), 3, start=start)


@st.composite
def weight_cases(draw):
    """A (t, width) basis over GF(2/3/5/7/17/131/181/65521), independent
    or of lower rank, as wide as one word of packed fields, one field
    either side of it, or two words and a field (per = 64 // bits fields
    a word: 64 for GF(2), 32 for GF(3), 21 for GF(5) and GF(7), 12 for
    GF(17), 8 for GF(131) and GF(181), 4 for GF(65521)), and a block
    size of 1, 2, p or 2^16.  Spans hold at most 2^16 rows in 300
    blocks.  GF(2), which ``FieldSpec`` refuses, packs one bit a field:
    no shift of the XOR is needed."""
    order = draw(st.sampled_from([2, 3, 5, 7, 17, 131, 181, 65521]))
    per = 64 // (order - 1).bit_length()
    width = draw(st.sampled_from([0, 1, per - 1, per, per + 1, 2 * per + 1]))
    rows = draw(st.sampled_from([1, 2, order, 1 << 16]))
    t = 0
    while order ** (t + 1) <= min(1 << 16, 300 * rows):
        t += 1
    t = draw(st.integers(0, t))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    r = draw(st.integers(0, t))
    if r == t:
        return order, rng.integers(0, order, (t, width)), rows
    return order, rng.integers(0, order, (t, r)) @ rng.integers(0, order, (r, width)) % order, rows


@settings(max_examples=200, deadline=None)
@given(weight_cases())
def test_line_weights_are_the_weights_of_line_blocks(case) -> None:
    """From every start, _line_weights yields the Hamming weights of the
    rows line_blocks yields, block by block, for widths on either side
    of a word boundary of the packed fields."""
    order, basis, rows = case
    for start in range(len(basis) + 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gf, "_LINE_ROWS", rows)
            blocks = list(line_blocks(basis, order, start))
            weights = list(_line_weights(basis, order, start))
        assert len(weights) == len(blocks)
        for block, got in zip(blocks, weights):
            assert np.array_equal(got, np.count_nonzero(block, axis=1))


@pytest.mark.parametrize("order, t, decoded_mib", [(3, 10, 16.67), (5, 8, 27.50)])
def test_line_blocks_memory_peak(order: int, t: int, decoded_mib: float) -> None:
    """Walking the lines of a t x 18 basis stays below the traced peak of
    decoding every index of the span and multiplying by the basis
    (16.67 MiB for GF(3) 10x18, 27.50 MiB for GF(5) 8x18): no
    block-sized temporaries beyond the block and one narrow array of its
    sums."""
    basis = np.random.default_rng(order).integers(0, order, (t, 18))
    tracemalloc.start()
    try:
        for _ in line_blocks(basis, order):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < decoded_mib * 2**20


@pytest.mark.parametrize("order, t", [(17, 5), (127, 3), (131, 3)])
def test_line_blocks_memory_peak_without_a_low_table(order: int, t: int) -> None:
    """From p = 17 on the low table is the zero row alone, so every line
    is decoded from its index, in parts of at most ``_DECODE_CELLS``
    int64 cells.  Walking the largest span the cap allows of a t x 18
    basis (17^5, 127^3, 131^3) peaks at 4 traced bytes per entry of its
    largest block, with the block held while the next is built (one byte
    per entry, two for GF(131)); decoding a whole block at once peaked
    at 16.9."""
    assert order**t <= gf.ENUMERATION_LIMIT < order ** (t + 1)
    basis = np.random.default_rng(order).integers(0, order, (t, 18))
    largest = 0
    tracemalloc.start()
    try:
        for block in line_blocks(basis, order):
            largest = max(largest, block.size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * largest


@pytest.mark.parametrize("order, n", [(3, 3), (5, 3), (17, 3), (257, 2), (65521, 1)])
def test_weight_blocks_yield_every_weight_j_vector_once_in_order(order: int, n: int) -> None:
    """Against a filter of all of GF(p)^n: for j = 0, 1, n and n + 1,
    with and without ``lead``, and blocks of 1, p - 2, p - 1 and 2^16
    vectors, the vectors of weight j (with first nonzero value 1 under
    ``lead``) come once each, ordered by support and then by values,
    in blocks of 1..rows vectors, values of the dtype asked for.  At
    GF(257), p - 1 = 256 is one past a byte."""
    keyed = []
    for v in itertools.product(range(order), repeat=n):
        support = tuple(i for i, x in enumerate(v) if x)
        keyed.append(((support, tuple(v[i] for i in support)), v))
    keyed.sort()
    for j in sorted({0, 1, n, n + 1}):
        for lead in (False, True):
            want = [
                v for (support, vals), v in keyed
                if len(support) == j and (not lead or vals[:1] in ((), (1,)))
            ]
            for rows in (1, order - 2, order - 1, 1 << 16):
                got = []
                blocks = _weight_blocks(n, order, j, rows, lead=lead, dtype=np.uint16)
                for supports, values in blocks:
                    assert supports.dtype == np.intp and supports.shape[1:] == (j,)
                    assert values.dtype == np.uint16 and values.shape[1:] == (j,)
                    assert 1 <= len(supports) * len(values) <= rows
                    for support in supports.tolist():
                        for vals in values.tolist():
                            v = [0] * n
                            for i, x in zip(support, vals):
                                v[i] = x
                            got.append(tuple(v))
                assert got == want, (j, lead, rows)


def test_weight_blocks_build_no_table_of_values() -> None:
    """The first block of the weight-2 vectors of GF(65521)^30, of 2^16
    vectors, is yielded within 2 MiB traced: no table of the
    65520^2 = 4.3e9 value pairs of one support is built."""
    tracemalloc.start()
    try:
        supports, values = next(_weight_blocks(30, 65521, 2, 1 << 16, lead=False, dtype=np.uint32))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert supports.tolist() == [[0, 1]] and values.shape == (1 << 16, 2)
    assert values[-1].tolist() == [2, 16]
    assert peak < 2 << 20


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
    assert dim.dtype == np.uint8
    assert not step.flags.writeable and not dim.flags.writeable


def test_subspace_table_refuses_oversized_width() -> None:
    with pytest.raises(ValueError, match="exceeds"):
        _subspace_table(3, 6)  # 729 codes, but 56k states
    with pytest.raises(ValueError, match="exceeds"):
        _subspace_table(11, 9)  # 2.4e9 codes


@pytest.mark.parametrize("order", [3, 5, 7, 163, 181, 65521])
def test_table_fits_agrees_with_the_subspace_table_refusal(order: int) -> None:
    """_table_fits(p, w) holds exactly when the table's states x codes
    cells are within the cap; a table that does not fit is refused with
    its message, and one that fits is built when it is small (at most
    2^16 cells)."""
    limit = gf._TABLE_CELLS_LIMIT
    for width in range(6):
        states = sum(gaussian_binomial(width, k, order) for k in range(width + 1))
        cells = states * order**width
        assert gf._table_fits(order, width) == (cells <= limit)
        if cells > limit:
            refusal = rf"^subspace table of GF\({order}\)\^{width} exceeds {limit} cells$"
            with pytest.raises(ValueError, match=refusal):
                _subspace_table(order, width)
        elif cells <= 1 << 16:
            step, _ = _subspace_table(order, width)
            assert step.size == cells


@pytest.mark.parametrize("order, width", [(3, 5), (5, 4)])
def test_subspace_table_build_memory_peak(order: int, width: int) -> None:
    """The largest tables under the cap build within 2 MiB traced: the
    uint16 table itself (1.23 MiB for GF(3)^5, 2664 states x 243 codes;
    1.34 MiB for GF(5)^4, 1120 x 625) and one state's temporaries.  A
    build that collects int64 rows and converts them at the end peaks
    at 6.75 and 7.00 MiB."""
    tracemalloc.start()
    try:
        step, _ = _subspace_table.__wrapped__(order, width)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert step.dtype == np.uint16
    assert peak < 2 * 2**20


def test_subspace_table_cache_stays_at_its_bound() -> None:
    """A walk over more fields than the cache holds, each oracle call
    building a table, leaves exactly the bound's number of tables."""
    bound = _subspace_table.cache_info().maxsize
    assert bound is not None
    orders = [p for p in range(3, 200, 2) if all(p % q for q in range(3, p, 2))]
    assert len(orders) > bound
    for order in orders:
        brute_count_rank_matrices(FieldSpec(order), 1, 1)
        assert _subspace_table.cache_info().currsize <= bound
    assert _subspace_table.cache_info().currsize == bound


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


_BLOCK_ORDERS = [3, 5, 7, 11, 13]


def _block_shapes(order: int) -> list[tuple[int, int]]:
    """Every block shape rows x w, rows >= w >= 1, whose whole-block
    table the cap admits: order**(rows * w) <= ``gf._BLOCK_CODES``."""
    return [
        (rows, w)
        for w in range(1, 17)
        for rows in range(w, 17)
        if order ** (rows * w) <= gf._BLOCK_CODES
    ]


def _every_matrix(order: int, rows: int, w: int) -> np.ndarray:
    """Every rows x w matrix over GF(order), in code order: entry (i, j)
    is digit i * w + j of the code in base order."""
    codes = np.arange(order ** (rows * w), dtype=np.int64)
    digits = codes[:, None] // order ** np.arange(rows * w, dtype=np.int64) % order
    return digits.reshape(len(codes), rows, w)


@pytest.mark.parametrize("order", _BLOCK_ORDERS)
def test_block_tables_hold_the_rank_of_every_code(order: int) -> None:
    """Every whole-block table the cap admits, and those of blocks with
    no entries, holds the elimination rank of every matrix at its code,
    read-only in uint8.  The largest, of the largest power of p up to
    2**16 codes (3^10 for GF(3) 10 x 1 and 5 x 2), is among them."""
    assert gf._BLOCK_CODES == 1 << 16
    shapes = _block_shapes(order)
    largest = max(order ** (rows * w) for rows, w in shapes)
    assert largest <= gf._BLOCK_CODES < largest * order
    for rows, w in shapes + [(0, 0), (3, 0), (0, 2)]:
        table = gf._block_table(order, rows, w)
        assert table.dtype == np.uint8 and not table.flags.writeable
        want = reference_rank_batch(_every_matrix(order, rows, w), order)
        assert table.tolist() == want.tolist()


@pytest.mark.parametrize("order, w", [(3, 3), (5, 2)])
@pytest.mark.parametrize("block", [1, 7, gf._LINE_ROWS])
def test_rank_walk_yields_ranks_in_product_order(order: int, w: int, block: int) -> None:
    """The walk's blocks, concatenated, are the elimination ranks of the
    matrices whose rows run through each row's codes in
    ``itertools.product`` order, row 0 slowest, for rows of different
    code counts: a fixed-corner row (first entry 1, the rest free), a
    single code, every code, and no rows at all.  A block size of 1
    leaves every row of more than one code leading, a small odd size
    splits the rows, and the default keeps them trailing."""
    corner = 1 + order * np.arange(order ** (w - 1))
    single = np.array([order**w - 2])
    every = slice(None)
    cases = [[], [single], [every], [corner, single, every], [every, corner, single, every]]
    for codes in cases:
        rows = [range(order**w) if isinstance(c, slice) else c.tolist() for c in codes]
        combos = np.array(list(itertools.product(*rows)), dtype=np.int64)
        mats = combos[:, :, None] // order ** np.arange(w) % order
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gf, "_LINE_ROWS", block)
            blocks = list(gf._rank_walk(order, w, codes))
        assert all(b.dtype == np.uint8 and 1 <= len(b) <= block for b in blocks)
        assert np.concatenate(blocks).tolist() == reference_rank_batch(mats, order).tolist()


@pytest.mark.parametrize("order", _BLOCK_ORDERS)
def test_table_rank_steps_the_rows_of_blocks_above_the_cap(order: int) -> None:
    """For every table width, the tallest block under the cap is looked
    up in its whole-block table, and the next taller one, like the
    smallest square above the cap, steps its rows through the subspace
    table without building one; all give the elimination ranks."""
    shapes = _block_shapes(order)
    tallest = {w: rows for rows, w in shapes}
    square = len(tallest) + 1
    cases = [(rows, w, True) for w, rows in tallest.items()]
    cases += [(rows + 1, w, False) for w, rows in tallest.items()]
    cases.append((square, square, False))
    rng = np.random.default_rng(order)
    for rows, w, looked_up in cases:
        assert (order ** (rows * w) <= gf._BLOCK_CODES) == looked_up
        mats = rng.integers(0, order, (200, rows, w))
        with mock.patch.object(gf, "_block_table", wraps=gf._block_table) as spy:
            ranks = _table_rank(mats, order)
        assert spy.call_count == looked_up
        assert ranks.tolist() == reference_rank_batch(mats, order).tolist()


# Values of _BLOCK_CODES that send every block down one path of
# _table_rank: 0 steps its rows through the subspace table, and 2**62
# looks it up in its whole-block table.
_RANK_PATHS = {"rows": 0, "block": 1 << 62}


def _laid_out(mats: np.ndarray, dtype: str, layout: str, extra: int) -> np.ndarray:
    """A (N, rows, cols) stack of residues in ``dtype``: C-contiguous, a
    transposed view, or as ``counting._block_rank_census`` passes its
    blocks, a column slice of wider rows reshaped (the slice starting
    ``extra`` columns in, with as many columns after it)."""
    count, rows, cols = mats.shape
    mats = mats.astype(dtype)
    if layout == "transposed":
        return np.ascontiguousarray(mats.transpose(0, 2, 1)).transpose(0, 2, 1)
    if layout == "census":
        vecs = np.zeros((count, rows * cols + 2 * extra), dtype=dtype)
        vecs[:, extra : extra + rows * cols] = mats.reshape(count, rows * cols)
        return vecs[:, extra : extra + rows * cols].reshape(count, rows, cols)
    return mats


@st.composite
def rank_path_cases(draw):
    """A stack of up to 64 reduced blocks over GF(3/5/7/11/13), tall,
    wide or square, in uint8, uint16 or int64 and any layout of
    ``_laid_out``, each table either path builds holding at most 2**18
    codes (so GF(5) 7 x 1 and GF(11) 1 x 5 lie above the cap)."""
    order = draw(st.sampled_from(_BLOCK_ORDERS))
    rows = draw(st.integers(0, 8))
    cols = 0
    while cols < 8 and order ** (rows * (cols + 1)) <= 1 << 18:
        cols += 1
    shape = (rows, draw(st.integers(0, cols)))
    if draw(st.booleans()):
        shape = shape[::-1]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mats = rng.integers(0, order, (draw(st.integers(0, 64)), *shape))
    if draw(st.booleans()) and shape[0] > 1:  # a rank deficit
        mats[:, -1] = mats[:, 0] * 2 % order
    dtype = draw(st.sampled_from(["uint8", "uint16", "int64"]))
    layout = draw(st.sampled_from(["contiguous", "transposed", "census"]))
    return order, _laid_out(mats, dtype, layout, draw(st.integers(0, 9)))


def _check_rank_paths(mats: np.ndarray, order: int) -> None:
    want = reference_rank_batch(mats, order).tolist()
    for block_codes in _RANK_PATHS.values():
        with mock.patch.object(gf, "_BLOCK_CODES", block_codes):
            ranks = _table_rank(mats, order)
        assert ranks.dtype == np.uint8 and ranks.tolist() == want


@settings(max_examples=200, deadline=None)
@given(rank_path_cases())
def test_table_rank_paths_agree(case) -> None:
    """Row stepping and whole-block lookup both give the elimination
    ranks, in uint8, whatever the input's dtype and layout."""
    order, mats = case
    _check_rank_paths(mats, order)


@pytest.mark.parametrize("dtype", ["uint8", "uint16", "int64"])
@pytest.mark.parametrize("layout", ["contiguous", "transposed", "census"])
@pytest.mark.parametrize("shape", [(5, 0, 0), (5, 3, 0), (5, 0, 3), (0, 2, 2)])
def test_table_rank_paths_of_empty_stacks(dtype: str, layout: str, shape) -> None:
    """Blocks with no entries have rank 0 on both paths, and a stack of
    no blocks has no ranks."""
    mats = _laid_out(np.zeros(shape, dtype=np.int64), dtype, layout, 2)
    for order in (3, 13):
        _check_rank_paths(mats, order)


@pytest.mark.parametrize("order, rows, width", [(3, 3, 3), (3, 10, 1), (3, 5, 2), (5, 3, 2), (13, 2, 2)])
def test_block_table_build_memory_peak(order: int, rows: int, width: int) -> None:
    """A whole-block table builds within 5 traced bytes per code: the
    uint8 table, the states one row short of it and their gather index.
    Decoding the 3^9 codes of GF(3) 3 x 3 into int64 digits alone would
    take 1.35 MiB, 72 bytes per code."""
    _subspace_table(order, width)
    tracemalloc.start()
    try:
        table = gf._block_table.__wrapped__(order, rows, width)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.size == order ** (rows * width)
    assert peak < 5 * table.size


def test_support_references_rank_by_elimination_alone(monkeypatch) -> None:
    """The rank references of support.py answer with every subspace
    table, whole-block table and batched rank of the library replaced by
    a failure, so they stay independent of the oracles they check."""

    def used(*args, **kwargs):
        raise AssertionError("a library rank table was used")

    for module in (gf, counting, experiments):
        for name in ("_subspace_table", "_block_table", "_table_rank", "rank_batch"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, used)
    mats = np.random.default_rng(3).integers(0, 3, (50, 3, 3))
    assert reference_rank_batch(mats, 3).tolist() == [
        len(reference_row_reduce(m, 3)[1]) for m in mats
    ]
    assert reference_rank_histogram(3, 2, 2) == {0: 1, 1: 32, 2: 48}
    census = reference_block_rank_census(np.eye(8, dtype=np.int64), 3, (2, 2), (2, 2))
    assert sum(census.values()) == 3**8 and census[(2, 2)] == 48 * 48
    assert reference_ulw_probability(3, 2, 2, Fraction(2)) == 1


@settings(max_examples=200, deadline=None)
@given(small_matrices())
def test_kernel_basis_rank_nullity(case) -> None:
    """Rank-nullity, rank(m.T) = rank(m), m @ kernel^T = 0, and the
    basis is the identity on the free columns (so its rows are fixed,
    in free-column order)."""
    order, data = case
    m = MatGF(FieldSpec(order), data)
    basis = kernel_basis(m)
    assert rank(m.T) == rank(m)
    assert basis.shape == (m.cols - rank(m), m.cols)
    assert not (data @ basis.T % order).any()
    free = sorted(set(range(m.cols)) - set(_row_reduce(data, order)[1]))
    assert (basis[:, free] == np.eye(len(free), dtype=np.int64)).all()


_TOKENS = ["3", "5", "0", "1", "2", "4", "-1", "9", "65537", "100000000000", "x", "1/2", ""]


@settings(max_examples=200, deadline=None)
@given(
    parse=st.sampled_from([matrix_from_text, complex_from_text]),
    text=st.one_of(
        st.text(max_size=60),
        st.lists(st.lists(st.sampled_from(_TOKENS), max_size=5).map(" ".join), max_size=9).map(
            "\n".join
        ),
    ),
)
def test_parsers_raise_only_value_error(parse, text) -> None:
    """Arbitrary text parses or raises ValueError, never anything else."""
    try:
        parse(text)
    except ValueError:
        pass


# Entries out of range, entries int() reads in full (a sign,
# underscores, a non-ASCII digit, leading zeros, also past 18 digits),
# entries beyond int64, and entries int() refuses.
_ENTRIES = ["9", "-1", "1_0", "+1", "\u0661", str(10**30), "-" + str(10**30), "x", "1.0", "0x1",
            "0", "2", "007", "00", "0" * 25 + "1"]


@st.composite
def matrix_lines(draw):
    """Lines of a valid nonempty matrix text over GF(3/5/11/181), tokens
    separated by spaces or tabs, after up to two corruptions of its rows
    (an entry replaced, a row shortened or an entry appended), and the
    number of corruptions."""
    order = draw(st.sampled_from([3, 5, 11, 181]))
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    cells = draw(st.lists(st.integers(0, order - 1), min_size=rows * cols, max_size=rows * cols))
    lines = [[str(order), str(rows), str(cols)]]
    lines += [list(map(str, cells[i * cols : (i + 1) * cols])) for i in range(rows)]
    faults = draw(st.integers(0, 2))
    for _ in range(faults):
        tokens = lines[draw(st.integers(1, rows))]
        kind = draw(st.sampled_from(["replace", "replace", "shorten", "append"]))
        if kind == "append":
            tokens.append(draw(st.sampled_from(_ENTRIES)))
        elif tokens and kind == "shorten":
            tokens.pop()
        elif tokens:
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(_ENTRIES))
    sep = draw(st.sampled_from([" ", "\t", "   ", " \t "]))
    return [sep.join(tokens) for tokens in lines], faults


@st.composite
def single_digit_lines(draw):
    """Lines of a canonical single-digit GF(3) matrix text, 1 x 1, 1 x n,
    n x 1 or any shape up to 5 x 5, after at most one near miss of the
    canonical layout: a trailing space, a tab or a comma for a space, a
    two-digit or a letter token, a row one entry short, an empty row, or
    a row's last entry moved to the start of the next row (the same
    length)."""
    rows, cols = draw(
        st.sampled_from([(1, 1), (1, 5), (5, 1)]) | st.tuples(st.integers(1, 5), st.integers(1, 5))
    )
    cells = draw(st.lists(st.sampled_from("012"), min_size=rows * cols, max_size=rows * cols))
    body = [cells[i * cols : (i + 1) * cols] for i in range(rows)]
    i = draw(st.integers(0, rows - 1))
    miss = draw(st.sampled_from(
        ["none", "trailing space", "tab", "comma", "two digits", "letter", "short", "empty",
         "moved"]
    ))
    lines = [" ".join(row) for row in body]
    if miss == "trailing space":
        lines[i] += " "
    elif miss in ("tab", "comma") and cols > 1:
        lines[i] = lines[i].replace(" ", "\t" if miss == "tab" else ",", 1)
    elif miss in ("two digits", "letter"):
        token = st.sampled_from(["10", "12", "00", "02"] if miss == "two digits" else "x!")
        body[i][draw(st.integers(0, cols - 1))] = draw(token)
        lines[i] = " ".join(body[i])
    elif miss == "short":
        lines[i] = " ".join(body[i][:-1])
    elif miss == "empty":
        lines[i] = ""
    elif miss == "moved" and i + 1 < rows:
        lines[i] = " ".join(body[i][:-1])
        lines[i + 1] = " ".join([body[i][-1], *body[i + 1]])
    return [f"3 {rows} {cols}", *lines]


@settings(max_examples=300, deadline=None)
@given(single_digit_lines())
def test_single_digit_reader_matches_reference(lines) -> None:
    """Canonical single-digit blocks are decoded by one reshape; every
    near miss of that layout gives the reference's matrix or, with the
    same message, its ValueError."""
    try:
        want = reference_matrix_from_lines(lines, 0)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            _matrix_from_lines(lines, 0)
        return
    assert _matrix_from_lines(lines, 0) == want


@settings(max_examples=300, deadline=None)
@given(matrix_lines())
def test_matrix_from_lines_matches_reference(case) -> None:
    """The vectorised parser and the row-by-row reference return equal
    matrices and end positions, or both raise ValueError; on a text with
    one fault, with the same message."""
    lines, faults = case
    try:
        want = reference_matrix_from_lines(lines, 0)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            _matrix_from_lines(lines, 0)
        if faults == 1:
            assert str(got.value) == str(exc)
        return
    assert _matrix_from_lines(lines, 0) == want


_ORDERS = [3, 5, 7, 181, 191, 65521]


# Every tail width of rank_batch's subspace table: 4 for GF(3), 3 for
# GF(5), 2 for GF(7) and GF(11), 1 for GF(13), none from GF(127) on.
@pytest.mark.parametrize("order", [3, 5, 7, 11, 13, 127, 181, 191, 65521])
@settings(max_examples=40, deadline=None)
@given(
    count=st.integers(0, 64),
    # Every shape up to 6 x 6, and the Monte Carlo harnesses' squares up to 9 x 9.
    shape=st.one_of(
        st.tuples(st.integers(0, 6), st.integers(0, 6)),
        st.integers(7, 9).map(lambda k: (k, k)),
    ),
    largest=st.booleans(),
    low_rank=st.booleans(),
    entries=st.sampled_from(
        ["reduced", "unreduced", "int8", "int32", "uint8", "uint16", "uint32", "uint64", "bool"]
    ),
    planted=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_rank_batch_matches_scalar_rank(
    order, count, shape, largest, low_rank, entries, planted, seed
) -> None:
    """Every rank of a stack is the pivot count of the plain int64
    elimination, over GF(3/5/7/11/13/127/181) (eliminated in int16) and
    GF(191/65521) (in int64), whatever width of subspace table finishes
    it: tall, wide and square stacks, with no rows or no columns, and of
    no matrices.  Entries may be int64 residues, int64 negative or >= p,
    or int8, int32, uint8, uint16, uint32 or uint64 (below 2^63) holding
    values >= p, each reduced in the promotion of its dtype and the
    elimination dtype (uint64 read as int64), or bool; a stack may hold
    an all-zero matrix and one whose first column is zero beside
    matrices with pivots there.  The subspace-table rank agrees wherever its table
    (up to GF(3)^5 or GF(5)^4) is built; wide stacks take its
    transposed walk."""
    rows, cols = shape
    rng = np.random.default_rng(seed)
    mats = rng.integers(0, order, (count, rows, cols))
    if largest:  # the largest residues make the largest products
        mats = order - 1 - mats % 3
    # Low-rank rows make pivot-free columns and rank deficits common.
    if low_rank and rows > 1:
        mats[:, -1] = mats[:, 0] * 2 % order
    if planted and count >= 2:
        mats[0] = 0
        mats[1, :, :1] = 0
    if entries == "unreduced":  # the same residues, shifted by multiples of p
        mats = mats + rng.integers(-3, 4, mats.shape) * order
    elif entries == "bool":
        mats = mats.astype(bool)
    elif entries != "reduced":
        # Entries the type holds, each shifted by a multiple of p it has room for.
        top = min(np.iinfo(entries).max, 2**63 - 1)
        mats = np.minimum(mats, top)
        room = (top - mats) // order + 1
        mats = (mats + rng.integers(0, 1 << 16, mats.shape) % room * order).astype(entries)
    ranks = rank_batch(mats, order)
    assert ranks.dtype == np.int64 and ranks.shape == (count,)
    want = [len(reference_row_reduce(m, order)[1]) for m in mats]
    assert ranks.tolist() == want
    assert reference_rank_batch(mats, order).tolist() == want
    if order ** min(rows, cols) <= 5**4:
        assert _table_rank(mats.astype(np.int64) % order, order).tolist() == want


@pytest.mark.parametrize("order", [3, 5, 181, 191])
@settings(max_examples=40, deadline=None)
@given(
    count=st.integers(0, 16),
    shape=st.tuples(st.integers(0, 6), st.integers(0, 7)),
    largest=st.booleans(),
    low_rank=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_gauss_jordan_batch_gives_the_reduced_echelon_rows(
    order, count, shape, largest, low_rank, seed
) -> None:
    """Each matrix's nonzero rows, ordered by pivot column, are the rows
    of the plain int64 reduced row echelon form, over GF(3/5/181) (in
    int16) and GF(191) (in int64); the rest are zero."""
    rows, cols = shape
    rng = np.random.default_rng(seed)
    mats = rng.integers(0, order, (count, rows, cols))
    if largest:
        mats = order - 1 - mats % 3
    if low_rank and rows > 1:
        mats[:, -1] = mats[:, 0] * 2 % order
    out = gf._gauss_jordan_batch(mats.transpose(1, 2, 0), order)
    assert out.shape == (rows, cols, count)
    for k, m in enumerate(mats):
        led = [row for row in out[:, :, k].tolist() if any(row)]
        led.sort(key=lambda row: next(j for j, v in enumerate(row) if v))
        rref, pivots = reference_row_reduce(m, order)
        assert led == rref[: len(pivots)].tolist()


def test_rank_batch_reads_uint64_entries_without_wrapping() -> None:
    """uint64 entries are read as integers, not wrapped into int64: over
    GF(3), [[2^64 - 1, 0], [0, 1]] (of rank 1, as 2^64 - 1 = 0 mod 3) is
    refused, not ranked 2 as [[-1, 0], [0, 1]], and an entry below 2^63
    is reduced exactly."""
    with pytest.raises(ValueError, match="integers of int64 range, got 18446744073709551615"):
        rank_batch(np.array([[[2**64 - 1, 0], [0, 1]]], dtype=np.uint64), 3)
    assert rank_batch(np.array([[[2**63 - 2, 0], [0, 1]]], dtype=np.uint64), 3).tolist() == [1]


def test_rank_batch_refuses_a_stack_that_is_not_3d() -> None:
    with pytest.raises(ValueError, match=r"^expected a \(N, rows, cols\) array$"):
        rank_batch(np.zeros((3, 3), dtype=np.int64), 3)


@st.composite
def unreduced_matrices(draw):
    """Matrices over GF(3/5/7/181) (eliminated in int16) and
    GF(191/65521) (in int64), 0 to 40 rows and columns: empty, wide and
    tall, of any rank up to full, with entries negative or >= p."""
    order = draw(st.sampled_from(_ORDERS))
    rows, cols = draw(st.integers(0, 40)), draw(st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rank_cap = draw(st.integers(0, min(rows, cols)))
    data = rng.integers(0, order, (rows, rank_cap)) @ rng.integers(0, order, (rank_cap, cols))
    if draw(st.booleans()):  # full support, usually full rank
        data = rng.integers(0, order, (rows, cols))
    # Unreduced representatives: the same residues, shifted by multiples of p.
    shift = rng.integers(-3, 4, (rows, cols)) * draw(st.sampled_from([0, 1, order]))
    return order, data % order + shift * order


# Values of _SMALL_CELLS that force each of _row_reduce's two loops for
# every matrix: -1 sends every matrix, empty ones included, to the numpy
# loop, and 2**62 every matrix to the Python-int loop.
_LOOPS = {"numpy": -1, "python-ints": 1 << 62}


def _check_row_reduce(data: np.ndarray, order: int) -> None:
    """_row_reduce gives the reference's rref and pivots, as a
    C-contiguous array of the input's shape in the work dtype."""
    rref, pivots = _row_reduce(data, order)
    want, want_pivots = reference_row_reduce(data, order)
    assert rref.dtype == gf._work_dtype(order) and rref.shape == data.shape
    assert rref.flags.c_contiguous
    assert pivots == want_pivots
    assert (rref == want).all()


@settings(max_examples=300, deadline=None)
@given(unreduced_matrices())
def test_row_reduce_matches_reference(case) -> None:
    """Each elimination loop, the numpy one in its small dtype and the
    Python-int one, gives the plain int64 elimination's rref and pivots,
    in the work dtype."""
    order, data = case
    for small_cells in _LOOPS.values():
        with mock.patch.object(gf, "_SMALL_CELLS", small_cells):
            _check_row_reduce(data, order)


@settings(max_examples=100, deadline=None)
@given(unreduced_matrices())
def test_row_reduce_of_a_transposed_view_matches_its_contiguous_copy(case) -> None:
    """In each elimination loop, the F-ordered data of a ``MatGF.T``
    gives the rref and pivots of its C-ordered copy, and is eliminated
    in a C-contiguous array."""
    order, data = case
    view = MatGF(FieldSpec(order), data).T.data
    for small_cells in _LOOPS.values():
        with mock.patch.object(gf, "_SMALL_CELLS", small_cells):
            rref, pivots = _row_reduce(view, order)
            want, want_pivots = _row_reduce(np.ascontiguousarray(view), order)
        assert rref.flags.c_contiguous
        assert pivots == want_pivots
        assert np.array_equal(rref, want)


@pytest.mark.parametrize("small_cells", _LOOPS.values(), ids=_LOOPS.keys())
@pytest.mark.parametrize("order", [3, 181, 191, 65521])
@pytest.mark.parametrize("shape", [(0, 4), (4, 0), (0, 0), (1, 1)])
def test_row_reduce_of_empty_and_one_by_one_matrices(small_cells, order, shape) -> None:
    """Empty matrices reduce to themselves with no pivot; a 1 x 1 matrix
    to [[1]] or [[0]]."""
    with mock.patch.object(gf, "_SMALL_CELLS", small_cells):
        _check_row_reduce(np.zeros(shape, dtype=np.int64), order)
        if shape == (1, 1):
            _check_row_reduce(np.array([[order - 1]]), order)
            _check_row_reduce(np.array([[-order]]), order)


@pytest.mark.parametrize("order", [3, 65521])
@pytest.mark.parametrize("shape,small", [((10, 15), True), ((1, 151), False), ((151, 1), False)])
def test_row_reduce_switches_loops_above_small_cells(order, shape, small) -> None:
    """A matrix of exactly ``_SMALL_CELLS`` = 150 cells takes the
    Python-int loop and one of 151 cells the numpy loop, and both give
    the reference's rref."""
    assert gf._SMALL_CELLS == 150 and shape[0] * shape[1] == 150 + (not small)
    data = np.random.default_rng(shape[1]).integers(-order, 2 * order, shape)
    with mock.patch.object(gf, "_row_reduce_small", wraps=gf._row_reduce_small) as spy:
        _check_row_reduce(data, order)
    assert spy.call_count == small


@pytest.mark.parametrize("float_exact", [gf._FLOAT_EXACT, 0], ids=["float64", "int64"])
@settings(max_examples=100, deadline=None)
@given(
    order=st.sampled_from(_ORDERS),
    shape=st.tuples(st.integers(0, 12), st.integers(0, 300), st.integers(0, 12)),
    largest=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_matmul_matches_int64(float_exact, order, shape, largest, seed) -> None:
    """_matmul is (a @ b) % p in int64, through float64 below 2**53 and
    through int64 when the bound is patched to 0."""
    rows, k, cols = shape
    rng = np.random.default_rng(seed)
    a, b = rng.integers(0, order, (rows, k)), rng.integers(0, order, (k, cols))
    if largest:  # the largest residues make the largest partial sums
        a, b = order - 1 - a % 2, order - 1 - b % 2
    with mock.patch.object(gf, "_FLOAT_EXACT", float_exact):
        got = _matmul(a, b, order)
        vec = _matmul(a, b[:, 0], order) if cols else None
    assert got.dtype == np.int64
    assert (got == (a @ b) % order).all()
    if cols:
        assert (vec == (a @ b[:, 0]) % order).all()


# Values of _SMALL_CELLS that send every array to one side of the
# factor-size rule of _matmul and _mod: -1 makes every array large,
# empty ones included, and 2**62 every array small.
_SIDES = {"large": -1, "small": 1 << 62}

# Operand shapes around 150 cells: both small, both at the rule, one
# on each side, both large, and empty.
_MATMUL_SHAPES = [
    ((3, 3), (3, 3)),
    ((10, 15), (15, 10)),
    ((12, 12), (12, 13)),
    ((1, 151), (151, 1)),
    ((151, 2), (2, 76)),
    ((0, 5), (5, 7)),
]


@pytest.mark.parametrize("dtype", [np.uint8, np.int16])
@pytest.mark.parametrize("order", [3, 5, 17, 251, 65521])
@pytest.mark.parametrize("shapes", _MATMUL_SHAPES, ids=str)
def test_matmul_is_exact_on_both_sides_of_small_cells(dtype, order, shapes) -> None:
    """_matmul of narrow residues, MatGF @ MatGF and MatGF @ a narrow
    array all give the exact product mod p, as int64, on either side of
    ``_SMALL_CELLS``: uint8 products wrap from p = 17 on unless they are
    widened first."""
    top = min(order, np.iinfo(dtype).max + 1)
    rng = np.random.default_rng(order)
    a, b = (rng.integers(0, top, shape).astype(dtype) for shape in shapes)
    if a.size and b.size:  # the largest residues make the largest sums
        a[0], b[:, 0] = top - 1, top - 1
    want = (a.astype(object) @ b.astype(object)) % order
    field = FieldSpec(order)
    for small_cells in _SIDES.values():
        with mock.patch.object(gf, "_SMALL_CELLS", small_cells):
            got = _matmul(a, b, order)
            of_matrices = MatGF(field, a) @ MatGF(field, b)
            of_array = MatGF(field, a) @ b
        assert got.dtype == of_array.dtype == np.int64
        assert np.array_equal(got, want.astype(np.int64))
        assert np.array_equal(of_matrices.data, got) and np.array_equal(of_array, got)


@pytest.mark.parametrize("dtype,order", [(np.int16, 3), (np.int16, 181), (np.int64, 3), (np.int64, 65521)])
@pytest.mark.parametrize("shape", [(0,), (150,), (151,), (10, 15), (3, 51)], ids=str)
def test_mod_is_exact_on_both_sides_of_small_cells(dtype, order, shape) -> None:
    """_mod of negative and positive int16 and int64 arrays is a new
    array of Python's residues, in the input dtype, on either side of
    ``_SMALL_CELLS``."""
    info = np.iinfo(dtype)
    a = np.random.default_rng(order).integers(info.min, info.max, shape, endpoint=True).astype(dtype)
    a.reshape(-1)[:3] = [info.min, -1, info.max][: a.size]
    want = np.array([v % order for v in a.reshape(-1).tolist()], dtype=dtype).reshape(shape)
    for small_cells in _SIDES.values():
        with mock.patch.object(gf, "_SMALL_CELLS", small_cells):
            got = gf._mod(a, order)
        assert got.dtype == dtype and np.array_equal(got, want)
        assert not np.shares_memory(got, a)


@settings(max_examples=100, deadline=None)
@given(
    order=st.sampled_from(_ORDERS),
    n=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_inverse_undoes_random_invertible(order, n, seed) -> None:
    """inverse(u) @ u is the identity."""
    field = FieldSpec(order)
    u = random_invertible(field, n, np.random.default_rng(seed))
    assert inverse(u) @ u == MatGF.identity(field, n)


@st.composite
def text_matrices(draw):
    """Matrices over every order of ``_ORDERS``, empty shapes included,
    whose residues include p - 1, 10, 100 and 10000 where they are
    below p."""
    order = draw(st.sampled_from(_ORDERS))
    side = st.integers(1, 12)
    rows, cols = draw(st.one_of(
        st.just((0, 0)), st.tuples(st.just(0), side), st.tuples(side, st.just(0)),
        st.tuples(side, side),
    ))
    edges = [v for v in (0, 1, 9, 10, 99, 100, 9999, 10000, order - 1) if v < order]
    cell = st.one_of(st.sampled_from(edges), st.integers(0, order - 1))
    cells = draw(st.lists(cell, min_size=rows * cols, max_size=rows * cols))
    return MatGF(FieldSpec(order), np.array(cells, dtype=np.int64).reshape(rows, cols))


@settings(max_examples=300, deadline=None)
@given(text_matrices())
def test_matrix_to_text_matches_reference(m) -> None:
    """The byte-buffer writer gives the row-join writer's text, byte for byte."""
    assert matrix_to_text(m) == reference_matrix_to_text(m)


@settings(max_examples=200, deadline=None)
@given(small_matrices())
def test_matrix_text_round_trip_property(case) -> None:
    order, data = case
    m = MatGF(FieldSpec(order), data)
    text = matrix_to_text(m)
    assert matrix_from_text(text) == m
    assert matrix_to_text(matrix_from_text(text)) == text
