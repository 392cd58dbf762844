"""Closed-form count tests: frozen goldens, partition identities, and
brute-force enumeration oracles."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditprod import (
    ComplexShape,
    FieldSpec,
    MatGF,
    ReductionParams,
    brute_count_rank_extensions,
    brute_count_rank_matrices,
    count_cycles_by_rank,
    count_rank_extensions,
    count_rank_matrices,
    count_reduced_cycles,
    enumerate_plus_cycle_ranks,
    enumerate_reduced_cycles,
    gaussian_binomial,
    is_good,
    kernel_basis,
    product,
    random_boundary,
    standard_boundary,
    trial_rng,
)
import quditprod.counting as counting
import quditprod.gf as gf
from quditprod.gf import random_invertible

from support import (
    FIELD3,
    FIELD5,
    SHAPE3,
    reference_block_rank_census,
    reference_rank_histogram,
)

# Rank census of the plus-sector cycle space for a product of two
# standard (n=3, H=1, L=1) factors over GF(3), keyed by block rank
# pair.  Frozen from a direct kernel enumeration (3^10 vectors).
Z_CENSUS_311 = {
    (0, 0): 1,
    (0, 1): 32,
    (0, 2): 48,
    (1, 0): 32,
    (1, 1): 1348,
    (1, 2): 4128,
    (2, 0): 48,
    (2, 1): 4128,
    (2, 2): 25956,
    (2, 3): 5832,
    (3, 2): 5832,
    (3, 3): 11664,
}

# Reduced-cycle census for n=3, n'=2 good factor pairs over GF(3),
# frozen from an independent enumeration before the closed form was
# trusted.  Total is 3^8.
GAMMA_CENSUS_32 = {
    (0, 0): 1,
    (0, 1): 32,
    (0, 2): 48,
    (1, 0): 32,
    (1, 1): 1024,
    (1, 2): 1536,
    (2, 0): 48,
    (2, 1): 1536,
    (2, 2): 2304,
}


def first_good_pair(shape, field, n_prime, seed_a, seed_b):
    """First index i where both streams produce a good complex."""
    for i in range(200):
        c1, _, _ = random_boundary(shape, field, trial_rng(seed_a, i))
        c2, _, _ = random_boundary(shape, field, trial_rng(seed_b, i))
        if is_good(c1, n_prime) and is_good(c2, n_prime):
            return c1, c2
    raise AssertionError("no good pair in 200 attempts")


class TestGaussianBinomial:
    def test_goldens(self):
        assert gaussian_binomial(2, 1, 3) == 4
        assert gaussian_binomial(4, 2, 3) == 130
        assert gaussian_binomial(3, 1, 5) == 31

    def test_edges(self):
        for n in range(5):
            assert gaussian_binomial(n, 0, 3) == 1
            assert gaussian_binomial(n, n, 3) == 1
        assert gaussian_binomial(3, -1, 3) == 0
        assert gaussian_binomial(3, 4, 3) == 0

    def test_symmetry(self):
        for q in (3, 5, 7):
            for n in range(1, 7):
                for k in range(n + 1):
                    assert gaussian_binomial(n, k, q) == gaussian_binomial(n, n - k, q)

    def test_pascal_recurrence(self):
        for q in (3, 5):
            for n in range(1, 7):
                for k in range(1, n):
                    lhs = gaussian_binomial(n, k, q)
                    rhs = gaussian_binomial(n - 1, k - 1, q) + q**k * gaussian_binomial(
                        n - 1, k, q
                    )
                    assert lhs == rhs


class TestCountRankMatrices:
    def test_goldens_2x2_gf3(self):
        assert count_rank_matrices(2, 2, 0, FIELD3) == 1
        assert count_rank_matrices(2, 2, 1, FIELD3) == 32
        assert count_rank_matrices(2, 2, 2, FIELD3) == 48

    def test_out_of_range_rank_is_zero(self):
        assert count_rank_matrices(2, 2, 3, FIELD3) == 0
        assert count_rank_matrices(2, 2, -1, FIELD3) == 0
        assert count_rank_matrices(2, 5, 4, FIELD3) == 0

    def test_empty_shapes(self):
        assert count_rank_matrices(0, 3, 0, FIELD3) == 1
        assert count_rank_matrices(3, 0, 0, FIELD3) == 1
        assert count_rank_matrices(0, 0, 0, FIELD3) == 1

    def test_negative_dimension_raises(self):
        with pytest.raises(ValueError, match="nonnegative"):
            count_rank_matrices(-1, 2, 0, FIELD3)

    def test_brute_enumeration_of_empty_shapes(self):
        assert brute_count_rank_matrices(FIELD3, 0, 3) == {0: 1}
        assert brute_count_rank_matrices(FIELD3, 3, 0) == {0: 1}

    def test_partition_of_full_space(self):
        # Every matrix has exactly one rank.
        for d in (3, 5, 7):
            field = FieldSpec(d)
            for rows in range(1, 6):
                for cols in range(1, 6):
                    total = sum(
                        count_rank_matrices(rows, cols, r, field)
                        for r in range(min(rows, cols) + 1)
                    )
                    assert total == d ** (rows * cols)

    @pytest.mark.parametrize(
        "d, rows, cols",
        [(3, 2, 2), (3, 2, 3), (3, 3, 3), (5, 2, 2), (7, 2, 2)],
    )
    def test_matches_brute_enumeration(self, d, rows, cols):
        field = FieldSpec(d)
        hist = brute_count_rank_matrices(field, rows, cols)
        for r in range(min(rows, cols) + 1):
            assert hist.get(r, 0) == count_rank_matrices(rows, cols, r, field)

    @pytest.mark.parametrize("d", [3, 5, 7, 65521])
    def test_one_product_equals_the_column_space_form(self, d):
        """The one-product count equals a column space (a Gaussian
        binomial) times the surjections onto it, for every shape up to
        6 x 6 and every rank, out-of-range ones included; and the
        enumerated histogram wherever the enumeration and its subspace
        table are allowed."""
        field = FieldSpec(d)
        for rows in range(7):
            for cols in range(7):
                top = min(rows, cols)
                for r in range(-1, top + 2):
                    want = gaussian_binomial(rows, r, d)
                    for i in range(r):
                        want *= d**cols - d**i
                    assert count_rank_matrices(rows, cols, r, field) == want
                if d ** (rows * cols) <= gf.ENUMERATION_LIMIT and gf._table_fits(d, top):
                    hist = brute_count_rank_matrices(field, rows, cols)
                    assert hist == {
                        r: count_rank_matrices(rows, cols, r, field) for r in range(top + 1)
                    }


class TestCountRankExtensions:
    def test_goldens(self):
        assert count_rank_extensions(1, 1, 1, 2, 2, 1, FIELD3) == 9
        assert count_rank_extensions(1, 1, 0, 2, 2, 1, FIELD3) == 14

    def test_empty_corner_reduces_to_rank_count(self):
        for R in range(4):
            assert count_rank_extensions(0, 0, 0, 3, 3, R, FIELD3) == count_rank_matrices(
                3, 3, R, FIELD3
            )

    def test_no_free_cells(self):
        # With A = a and B = b the only extension is the corner itself.
        assert count_rank_extensions(2, 2, 1, 2, 2, 1, FIELD3) == 1
        assert count_rank_extensions(2, 2, 1, 2, 2, 2, FIELD3) == 0

    def test_partition_over_full_rank_range(self):
        # Summed over R, the extensions fill the free cells freely.
        for d in (3, 5):
            field = FieldSpec(d)
            for a in range(0, 3):
                for b in range(0, 3):
                    for r in range(0, min(a, b) + 1):
                        for A in range(a, 4):
                            for B in range(b, 4):
                                total = sum(
                                    count_rank_extensions(a, b, r, A, B, R, field)
                                    for R in range(min(A, B) + 1)
                                )
                                assert total == d ** (A * B - a * b)

    def test_invalid_arguments_raise(self):
        with pytest.raises(ValueError, match="does not fit"):
            count_rank_extensions(3, 1, 1, 2, 2, 1, FIELD3)
        with pytest.raises(ValueError, match="corner rank"):
            count_rank_extensions(2, 2, 3, 3, 3, 3, FIELD3)

    def test_independent_of_corner_representative(self):
        """The extension count must be the same for every rank-r corner,
        not just the canonical one the formula implicitly uses."""
        canon = np.zeros((2, 2), dtype=np.int64)
        canon[0, 0] = 1
        reference = brute_count_rank_extensions(FIELD3, MatGF(FIELD3, canon), 3, 3)
        for R in range(4):
            assert reference.get(R, 0) == count_rank_extensions(2, 2, 1, 3, 3, R, FIELD3)
        rng = np.random.default_rng(314)
        for _ in range(5):
            u = random_invertible(FIELD3, 2, rng)
            v = random_invertible(FIELD3, 2, rng)
            corner = u @ MatGF(FIELD3, canon) @ v
            hist = brute_count_rank_extensions(FIELD3, corner, 3, 3)
            assert hist == reference

    def test_corner_in_wide_matrix_gf5(self):
        """A fixed 1x2 corner in a 2x3 matrix: the oracle walks the
        transposed space, with the corner as a fixed column."""
        for corner, r in (([[0, 0]], 0), ([[2, 3]], 1), ([[0, 4]], 1)):
            hist = brute_count_rank_extensions(FIELD5, MatGF(FIELD5, corner), 2, 3)
            assert sum(hist.values()) == 5**4
            for R in range(3):
                assert hist.get(R, 0) == count_rank_extensions(1, 2, r, 2, 3, R, FIELD5)

    def test_over_limit_raises_before_building_anything(self, monkeypatch):
        def untouched(*args):
            raise AssertionError("the subspace table was built")

        monkeypatch.setattr(counting, "_subspace_table", untouched)
        # 15 free cells: 3^15 is above the 10^7 limit
        with pytest.raises(ValueError, match=r"3\^15 vectors, above the limit"):
            brute_count_rank_extensions(FIELD3, MatGF.zeros(FIELD3, 1, 1), 4, 4)
        with pytest.raises(ValueError, match="above the limit"):
            brute_count_rank_matrices(FIELD3, 10, 10)
        # 3^10000 has more digits than int-to-str conversion allows
        with pytest.raises(ValueError, match=r"3\^10000 vectors, above the limit"):
            brute_count_rank_matrices(FIELD3, 100, 100)

    def test_brute_extension_rejects_oversized_corner(self):
        with pytest.raises(ValueError, match="does not fit"):
            brute_count_rank_extensions(FIELD3, MatGF.zeros(FIELD3, 3, 3), 2, 2)

    def test_brute_extension_rejects_a_corner_over_another_field(self):
        """A GF(5) corner is refused, not reduced mod 3: the corner 4
        would be counted as the corner 1, {1: 9, 2: 18}."""
        with pytest.raises(ValueError, match=r"field mismatch: GF\(3\) vs GF\(5\)"):
            brute_count_rank_extensions(FIELD3, MatGF(FIELD5, [[4]]), 2, 2)
        assert brute_count_rank_extensions(FIELD3, MatGF(FIELD3, [[1]]), 2, 2) == {1: 9, 2: 18}


class TestCountCyclesByRank:
    def test_frozen_census_h1_l1_gf3(self):
        for rp in range(5):
            for rm in range(5):
                expected = Z_CENSUS_311.get((rp, rm), 0)
                assert count_cycles_by_rank(1, 1, rp, rm, FIELD3) == expected

    def test_census_total_is_cycle_space_size(self):
        std = standard_boundary(SHAPE3, FIELD3)
        pc = product(std, std)
        t = len(kernel_basis(pc.complex.d_mp))
        total = sum(count_cycles_by_rank(1, 1, rp, rm, FIELD3) for rp in range(4) for rm in range(4))
        assert total == 3**t == 3**10

    def test_symmetry_in_block_ranks(self):
        for H in range(3):
            for L in range(3):
                n = H + 2 * L
                for rp in range(n + 1):
                    for rm in range(n + 1):
                        assert count_cycles_by_rank(H, L, rp, rm, FIELD5) == count_cycles_by_rank(
                            H, L, rm, rp, FIELD5
                        )

    def test_zero_boundary_factorises(self):
        # With L = 0 the boundary vanishes, so every vector is a cycle
        # and the census is a product of independent rank counts.
        for rp in range(3):
            for rm in range(3):
                expected = count_rank_matrices(2, 2, rp, FIELD3) * count_rank_matrices(
                    2, 2, rm, FIELD3
                )
                assert count_cycles_by_rank(2, 0, rp, rm, FIELD3) == expected

    def test_zero_beyond_sector_dimension(self):
        assert count_cycles_by_rank(1, 1, 4, 0, FIELD3) == 0
        assert count_cycles_by_rank(1, 1, 0, 4, FIELD3) == 0

    def test_negative_arguments_raise(self):
        with pytest.raises(ValueError, match="nonnegative"):
            count_cycles_by_rank(-1, 1, 0, 0, FIELD3)
        with pytest.raises(ValueError, match="nonnegative"):
            count_cycles_by_rank(1, 1, -1, 0, FIELD3)

    def test_matches_enumeration_on_standard_product(self):
        std = standard_boundary(SHAPE3, FIELD3)
        census = enumerate_plus_cycle_ranks(product(std, std))
        assert census == {k: v for k, v in Z_CENSUS_311.items() if v}
        assert sum(census.values()) == 3**10

    def test_matches_enumeration_h0_l1_gf5(self):
        shape = ComplexShape(2, 0, 1)
        std = standard_boundary(shape, FIELD5)
        census = enumerate_plus_cycle_ranks(product(std, std))
        for rp in range(3):
            for rm in range(3):
                assert census.get((rp, rm), 0) == count_cycles_by_rank(0, 1, rp, rm, FIELD5)

    def test_enumeration_respects_limit(self, monkeypatch):
        std = standard_boundary(SHAPE3, FIELD3)
        monkeypatch.setattr(gf, "ENUMERATION_LIMIT", 100)
        with pytest.raises(ValueError, match=r"3\^10 vectors, above the limit of 100"):
            enumerate_plus_cycle_ranks(product(std, std))


class TestCountReducedCycles:
    def test_frozen_census_n3(self):
        for rp in range(3):
            for rm in range(3):
                expected = GAMMA_CENSUS_32.get((rp, rm), 0)
                assert count_reduced_cycles(3, 2, 1, 1, rp, rm, FIELD3) == expected

    def test_census_total(self):
        total = sum(
            count_reduced_cycles(3, 2, 1, 1, rp, rm, FIELD3)
            for rp in range(3)
            for rm in range(3)
        )
        assert total == 3**8

    def test_degenerate_reduction_recovers_cycle_census(self):
        # n' = n leaves nothing to extend; the reduced census must be
        # the plain cycle census.
        for rp in range(4):
            for rm in range(4):
                assert count_reduced_cycles(3, 3, 1, 1, rp, rm, FIELD3) == count_cycles_by_rank(
                    1, 1, rp, rm, FIELD3
                )

    def test_invalid_shapes_raise(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            count_reduced_cycles(4, 3, 1, 1, 0, 0, FIELD3)
        with pytest.raises(ValueError, match="n/2"):
            count_reduced_cycles(6, 2, 0, 3, 0, 0, FIELD3)
        with pytest.raises(ValueError, match="n_prime <= n"):
            count_reduced_cycles(3, 4, 1, 1, 0, 0, FIELD3)
        with pytest.raises(ValueError, match="L >="):
            count_reduced_cycles(3, 2, 3, 0, 0, 0, FIELD3)

    def test_matches_enumeration_on_good_pair(self):
        c1, c2 = first_good_pair(SHAPE3, FIELD3, 2, 620, 621)
        census = enumerate_reduced_cycles(product(c1, c2), ReductionParams(n=3, n_prime=2))
        assert census == GAMMA_CENSUS_32

    def test_matches_enumeration_with_nonzero_quotient_boundary(self):
        """n = 4, H = 0, L = 2, n' = 3 leaves a quotient with L' = 1, so
        the quotient cycle condition genuinely constrains the census."""
        shape = ComplexShape(4, 0, 2)
        c1, c2 = first_good_pair(shape, FIELD3, 3, 610, 611)
        census = enumerate_reduced_cycles(product(c1, c2), ReductionParams(n=4, n_prime=3))
        assert sum(census.values()) == 3**14
        for rp in range(4):
            for rm in range(4):
                assert census.get((rp, rm), 0) == count_reduced_cycles(
                    4, 3, 0, 2, rp, rm, FIELD3
                )

    def test_enumeration_rejects_non_good_factor(self):
        # trial_rng(900, 0) is a frozen non-good draw for n' = 2.
        bad, _, _ = random_boundary(SHAPE3, FIELD3, trial_rng(900, 0))
        assert not is_good(bad, 2)
        good, _, _ = random_boundary(SHAPE3, FIELD3, trial_rng(900, 1))
        assert is_good(good, 2)
        with pytest.raises(ValueError, match="not good"):
            enumerate_reduced_cycles(product(bad, good), ReductionParams(n=3, n_prime=2))

    def test_enumeration_rejects_wrong_sector_dimension(self):
        std = standard_boundary(SHAPE3, FIELD3)
        with pytest.raises(ValueError, match="sector dimension"):
            enumerate_reduced_cycles(product(std, std), ReductionParams(n=5, n_prime=4))

    def test_enumeration_respects_limit(self, monkeypatch):
        c1, c2 = first_good_pair(SHAPE3, FIELD3, 2, 620, 621)
        monkeypatch.setattr(gf, "ENUMERATION_LIMIT", 10)
        with pytest.raises(ValueError, match="above the limit of 10$"):
            enumerate_reduced_cycles(product(c1, c2), ReductionParams(n=3, n_prime=2))



@st.composite
def census_cases(draw):
    """A (t, width) basis over GF(3/5/7) of at most 3^7 combinations,
    its rows drawn from a space of dimension 0..t so that many bases are
    dependent, and two block shapes of width entries in all."""
    p = draw(st.sampled_from([3, 5, 7]))
    t = draw(st.integers(0, {3: 7, 5: 4, 7: 3}[p]))
    p1, p2, m1, m2 = (draw(st.integers(1, 3)) for _ in range(4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(0, t))
    basis = rng.integers(0, p, (t, dim)) @ rng.integers(0, p, (dim, p1 * p2 + m1 * m2)) % p
    return p, basis, (p1, p2), (m1, m2)


@settings(max_examples=100, deadline=None)
@given(census_cases())
def test_block_rank_census_matches_a_full_span_reference(case) -> None:
    """Ranking one vector per line, counted p - 1 times, plus the zero
    combination, gives the census of every combination: the identity
    counts combinations, so it holds for dependent bases too."""
    p, basis, plus_shape, minus_shape = case
    census = counting._block_rank_census(basis, p, plus_shape, minus_shape)
    assert census == reference_block_rank_census(basis, p, plus_shape, minus_shape)
    assert sum(census.values()) == p ** len(basis)


@pytest.mark.parametrize(
    "plus_shape, minus_shape",
    [((0, 0), (2, 2)), ((0, 3), (1, 2)), ((2, 0), (2, 1)), ((2, 2), (3, 0))],
)
def test_block_rank_census_of_an_empty_block(plus_shape, minus_shape) -> None:
    """A block with no entries has rank 0 in every combination."""
    p = 3
    width = plus_shape[0] * plus_shape[1] + minus_shape[0] * minus_shape[1]
    basis = np.random.default_rng(width).integers(0, p, (3, width))
    census = counting._block_rank_census(basis, p, plus_shape, minus_shape)
    assert census == reference_block_rank_census(basis, p, plus_shape, minus_shape)
    assert sum(census.values()) == p**3
    empty = 0 if 0 in plus_shape else 1
    assert all(key[empty] == 0 for key in census)


def test_block_rank_census_at_the_widest_table() -> None:
    """Two 5 x 5 blocks over GF(3), the widest subspace table: ranks up
    to 5 on both sides, so the bucket codes reach 5 * 6 + 5 = 35."""
    p, shape = 3, (5, 5)
    basis = np.random.default_rng(55).integers(0, p, (7, 50))
    census = counting._block_rank_census(basis, p, shape, shape)
    assert census == reference_block_rank_census(basis, p, shape, shape)
    assert (5, 5) in census
    assert sum(census.values()) == p**7


@st.composite
def enumeration_cases(draw):
    """A rows x cols space over GF(3/5/7), tall, wide or empty, narrow
    enough for its subspace table (5, 4 or 3), with a fixed top-left
    corner of random residues (or none), of at most 3^6, 5^4 or 7^3
    free entries, and a chunk of 1, a small odd size or the default."""
    p = draw(st.sampled_from([3, 5, 7]))
    widest, most = {3: (5, 6), 5: (4, 4), 7: (3, 3)}[p]
    rows = draw(st.integers(0, 5))
    cols = draw(st.integers(0, widest if rows > widest else 5))
    # rows * cols - fr * fc <= most: fr so that fc = cols fits, then fc.
    fr = draw(st.integers(min(f for f in range(rows + 1) if (rows - f) * cols <= most), rows))
    fc = draw(st.integers(max(0, -(-(rows * cols - most) // fr)) if fr else 0, cols))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fixed = rng.integers(0, p, (fr, fc)) if draw(st.booleans()) or fr * fc else None
    chunk = draw(st.sampled_from([1, counting._CHUNK]) | st.integers(1, 20).map(lambda c: 2 * c + 1))
    return p, rows, cols, fixed, chunk


@settings(max_examples=250, deadline=None)
@given(enumeration_cases())
def test_enumerate_ranks_matches_a_per_matrix_reference(case) -> None:
    """The walk's histogram is that of ranking every matrix on its own
    by plain row reduction, for every chunk size: a chunk of 1 steps
    one leading state at a time, a small odd chunk splits the rows
    between leading and trailing, and the default keeps them trailing."""
    p, rows, cols, fixed, chunk = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(counting, "_CHUNK", chunk)
        hist = counting._enumerate_ranks(FieldSpec(p), rows, cols, fixed)
    assert hist == reference_rank_histogram(p, rows, cols, fixed)


@pytest.mark.parametrize("order, shape", [(3, ComplexShape(3, 1, 1)), (5, ComplexShape(2, 0, 1))])
def test_census_ranks_one_vector_per_line(monkeypatch, order, shape) -> None:
    """A census of a t-dimensional cycle space ranks (p^t - 1) / (p - 1)
    vectors."""
    blocks, walked = counting.line_blocks, []
    monkeypatch.setattr(
        counting, "line_blocks", lambda *a: [walked.append(len(v)) or v for v in blocks(*a)]
    )
    std = standard_boundary(shape, FieldSpec(order))
    pc = product(std, std)
    census = enumerate_plus_cycle_ranks(pc)
    t = len(kernel_basis(pc.complex.d_mp))
    assert sum(census.values()) == order**t
    assert sum(walked) == (order**t - 1) // (order - 1)
