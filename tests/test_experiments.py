"""Monte Carlo harness tests.

Every experiment is seeded, so success counts are frozen exactly; the
statistical content (uniformity of the rank sampler, agreement with an
exhaustively computed ground truth) is tested against fixed thresholds
rather than resampled."""

from __future__ import annotations

import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from quditprod import (
    ComplexShape,
    TrialConfig,
    emit_csv,
    exhaustive_ulw_probability,
    mc_goodness,
    mc_low_weight_kernel,
    mc_uniform_low_weight,
    sample_uniform_rank,
    trial_rng,
    wilson_interval,
)
from quditprod import experiments, gf, is_good, random_boundary
from quditprod.experiments import _CHUNK, CSV_COLUMNS
from quditprod.gf import FieldSpec, MatGF, kernel_basis, random_invertible, rank

from support import (
    FIELD3,
    FIELD5,
    has_light_kernel_vector,
    reference_light_kernel_vector,
    reference_ulw_probability,
)


class TestWilsonInterval:
    def test_contains_point_estimate(self):
        for s, n in [(0, 10), (3, 10), (10, 10), (41, 100), (999, 1000)]:
            low, high = wilson_interval(s, n)
            # endpoints can land on the estimate up to rounding
            assert low <= s / n + 1e-12
            assert s / n - 1e-12 <= high

    def test_degenerate_endpoints(self):
        low, high = wilson_interval(0, 50)
        assert low == pytest.approx(0.0, abs=1e-12)
        assert 0 < high < 0.1
        low, high = wilson_interval(50, 50)
        assert 0.9 < low < 1
        assert high == pytest.approx(1.0, abs=1e-12)

    def test_symmetry(self):
        lo1, hi1 = wilson_interval(13, 40)
        lo2, hi2 = wilson_interval(27, 40)
        assert lo1 == pytest.approx(1 - hi2)
        assert hi1 == pytest.approx(1 - lo2)

    def test_width_shrinks_with_trials(self):
        widths = []
        for n in (10, 100, 1000, 10000):
            low, high = wilson_interval(n // 2, n)
            widths.append(high - low)
        assert widths == sorted(widths, reverse=True)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError, match="positive"):
            wilson_interval(0, 0)
        with pytest.raises(ValueError, match="out of range"):
            wilson_interval(-1, 10)
        with pytest.raises(ValueError, match="out of range"):
            wilson_interval(11, 10)


class TestTrialRng:
    def test_reproducible(self):
        a = trial_rng(42, 7).integers(0, 1000, 20)
        b = trial_rng(42, 7).integers(0, 1000, 20)
        assert (a == b).all()

    def test_streams_disjoint_across_index_and_seed(self):
        base = trial_rng(42, 0).integers(0, 1000, 20)
        assert not (trial_rng(42, 1).integers(0, 1000, 20) == base).all()
        assert not (trial_rng(43, 0).integers(0, 1000, 20) == base).all()


class TestTrialConfig:
    def test_shape_from_h_and_from_rho(self):
        cfg = TrialConfig(field=FIELD3, n=5, trials=1, master_seed=0, H=1)
        shape = cfg.shape()
        assert (shape.n, shape.H, shape.L) == (5, 1, 2)
        cfg = TrialConfig(field=FIELD3, n=6, trials=1, master_seed=0, rho=Fraction(1, 3))
        shape = cfg.shape()
        assert (shape.n, shape.H, shape.L) == (6, 2, 2)

    def test_validation(self):
        with pytest.raises(ValueError, match="trial"):
            TrialConfig(field=FIELD3, n=3, trials=0, master_seed=0, H=1)
        with pytest.raises(ValueError, match="one of H or rho must"):
            TrialConfig(field=FIELD3, n=3, trials=1, master_seed=0)
        with pytest.raises(ValueError, match="only one of H or rho"):
            TrialConfig(field=FIELD3, n=3, trials=1, master_seed=0, H=1, rho=Fraction(1, 3))
        # c must stay strictly below 1 - 1/D
        with pytest.raises(ValueError, match="1 - 1/D"):
            TrialConfig(field=FIELD3, n=3, trials=1, master_seed=0, H=1, c=Fraction(2, 3))
        cfg = TrialConfig(field=FIELD5, n=3, trials=1, master_seed=0, H=1, c=Fraction(2, 3))
        assert cfg.c == Fraction(2, 3)

    def test_run_refused_before_any_draw(self, monkeypatch):
        """A negative master seed and a trial index of 2**32 are refused
        by name, at construction; 2**32 trials is the most accepted."""
        monkeypatch.setattr(experiments, "_pcg64_states", _no_streams)
        with pytest.raises(ValueError, match="master seed must be non-negative, got -1"):
            TrialConfig(field=FIELD3, n=3, trials=1, master_seed=-1, H=1)
        with pytest.raises(ValueError, match=r"trials must be at most 2\^32"):
            TrialConfig(field=FIELD3, n=3, trials=2**32 + 1, master_seed=0, H=1)
        assert TrialConfig(field=FIELD3, n=3, trials=2**32, master_seed=0, H=1).trials == 2**32

    def test_c_coerced_to_fraction(self):
        cfg = TrialConfig(field=FIELD3, n=3, trials=1, master_seed=0, H=1, c="1/2")
        assert cfg.c == Fraction(1, 2)


class TestGoodness:
    def test_frozen_estimate(self):
        cfg = TrialConfig(field=FIELD3, n=4, trials=2000, master_seed=11, H=0)
        rep = mc_goodness(cfg, 3)
        assert (rep.successes, rep.trials) == (1648, 2000)
        assert rep.estimate == pytest.approx(0.824)
        assert rep.wilson_low < 0.824 < rep.wilson_high
        assert rep.params["n_prime"] == 3
        assert rep.params["L"] == 2

    def test_trivial_reduction_always_good(self):
        cfg = TrialConfig(field=FIELD3, n=3, trials=40, master_seed=5, H=1)
        rep = mc_goodness(cfg, 3)
        assert rep.successes == 40

    def test_out_of_range_nprime_raises_before_any_draw(self, monkeypatch):
        monkeypatch.setattr(experiments, "_pcg64_states", _no_streams)
        cfg = TrialConfig(field=FIELD3, n=3, trials=5, master_seed=0, H=1)
        for n_prime in (-1, 4):
            with pytest.raises(ValueError, match="n_prime"):
                mc_goodness(cfg, n_prime)


class TestLowWeightKernel:
    def test_frozen_estimate(self):
        cfg = TrialConfig(
            field=FIELD3, n=3, trials=300, master_seed=7, H=1, c=Fraction(1, 2)
        )
        rep = mc_low_weight_kernel(cfg)
        assert (rep.successes, rep.trials) == (273, 300)
        assert rep.experiment == "kernel"

    def test_requires_density(self):
        cfg = TrialConfig(field=FIELD3, n=3, trials=1, master_seed=0, H=1)
        with pytest.raises(ValueError, match="density"):
            mc_low_weight_kernel(cfg)

    def test_budget_guard(self, monkeypatch):
        # n=3, H=1 kernels have t = H + L = 2 rows and w_max = 1, so the
        # search takes C(2, 1) = 2 coefficient vectors.
        cfg = TrialConfig(
            field=FIELD3, n=3, trials=1, master_seed=7, H=1, c=Fraction(1, 2)
        )
        monkeypatch.setattr(gf, "ENUMERATION_LIMIT", 1)
        with pytest.raises(ValueError, match=r"needs 2 coefficient vectors, above the limit of 1$"):
            mc_low_weight_kernel(cfg)
        monkeypatch.setattr(gf, "ENUMERATION_LIMIT", 2)
        assert mc_low_weight_kernel(cfg).trials == 1

    def test_refused_before_any_draw(self, monkeypatch):
        """The candidate count depends on t, D and w_max alone, so an
        oversized search is refused before any trial is drawn: here
        n = 201, H = 1 and c = 1/2, 1000 trials."""
        monkeypatch.setattr(experiments, "_invertible_pairs", _no_streams)
        cfg = TrialConfig(
            field=FIELD3, n=201, trials=1000, master_seed=1, H=1, c=Fraction(1, 2)
        )
        with pytest.raises(ValueError, match=r"^light-vector search needs \d+ coefficient vectors, "
                           r"above the limit of 10000000$"):
            mc_low_weight_kernel(cfg)
        small = TrialConfig(field=FIELD3, n=3, trials=1, master_seed=7, H=1, c=Fraction(1, 2))
        monkeypatch.setattr(gf, "ENUMERATION_LIMIT", 1)
        with pytest.raises(ValueError, match=r"needs 2 coefficient vectors, above the limit of 1$"):
            mc_low_weight_kernel(small)

    def test_answers_past_a_walkable_span(self):
        """GF(5), n = 25, H = 1: kernels of t = 13 rows, whose 5^13
        vectors are above the enumeration limit; w_max = 2 takes
        13 + 78 * 4 = 325 coefficient vectors.  The harness gives the
        successes of a per-trial loop over the scalar reference."""
        shape = ComplexShape.from_hom_dim(25, 1)
        cfg = TrialConfig(field=FIELD5, n=25, trials=8, master_seed=11, H=1, c=Fraction(3, 25))
        expected = 0
        for i in range(cfg.trials):
            c, _, _ = random_boundary(shape, FIELD5, trial_rng(11, i))
            expected += any(
                reference_light_kernel_vector(kernel_basis(d), 5, 2) for d in (c.d_mp, c.d_pm)
            )
        assert mc_low_weight_kernel(cfg).successes == expected


@pytest.mark.parametrize("trials", [1, _CHUNK + 1])
def test_lockstep_harnesses_match_a_per_trial_loop(trials: int) -> None:
    """One trial and one chunk plus one: the same successes as a loop
    over the single-draw API, each trial on its own generator.  The
    kernel test runs at w_max = 1 and 2; goodness at n' = 0 and t - 1
    (never good), t, and n (always good)."""
    shape = ComplexShape(5, 1, 2)  # t = H + L = 3
    w_max_of = {Fraction(2, 5): 1, Fraction(3, 5): 2}  # w_max = ceil(c n) - 1
    n_primes = (0, 2, 3, 5)
    kernel = dict.fromkeys(w_max_of.values(), 0)
    goodness = dict.fromkeys(n_primes, 0)
    ulw = 0
    for i in range(trials):
        c, _, _ = random_boundary(shape, FIELD5, trial_rng(3, i))
        for w_max in kernel:
            kernel[w_max] += any(
                has_light_kernel_vector(kernel_basis(d), FIELD5.order, w_max)
                for d in (c.d_mp, c.d_pm)
            )
        for n_prime in n_primes:
            goodness[n_prime] += is_good(c, n_prime)
        m = sample_uniform_rank(FIELD3, 4, 2, trial_rng(3, i))
        ulw += max(gf.row_weights(m).max(), gf.col_weights(m).max()) <= 2
    for density, w_max in w_max_of.items():
        cfg = TrialConfig(field=FIELD5, n=5, trials=trials, master_seed=3, H=1, c=density)
        assert mc_low_weight_kernel(cfg).successes == kernel[w_max]
    cfg = TrialConfig(field=FIELD5, n=5, trials=trials, master_seed=3, H=1)
    for n_prime in n_primes:
        assert mc_goodness(cfg, n_prime).successes == goodness[n_prime]
    assert goodness[0] == goodness[2] == 0 and goodness[5] == trials
    assert mc_uniform_low_weight(FIELD3, 4, 2, Fraction(1, 2), trials, 3).successes == ulw
    if trials > 1:
        assert 0 < kernel[1] < trials and 0 < goodness[3] < trials and 0 < ulw < trials


def _has_light_kernel_vector_by_supports(d: MatGF, w_max: int) -> bool:
    """Whether ker d holds a nonzero vector of weight <= w_max, for
    0 <= w_max <= d.cols: exactly when d restricted to some w_max of its
    columns has a nontrivial kernel.  No walk over the span, so it
    answers at any field order."""
    return any(
        rank(MatGF(d.field, d.data[:, list(cols)])) < w_max
        for cols in itertools.combinations(range(d.cols), w_max)
    )


@pytest.mark.parametrize("trials", [1, _CHUNK + 1])
@pytest.mark.parametrize("order", [191, 65521])
def test_lockstep_harnesses_match_a_per_trial_loop_at_large_orders(
    monkeypatch, order: int, trials: int
) -> None:
    """The loop above over GF(191), whose uint8 draws overflow uint8
    products, and GF(65521), whose draws are uint16: the same successes
    from all three harnesses, and the ulw harness forms each trial's
    matrix exactly, which the weight test alone would rarely show
    at these orders.  GF(65521) runs the kernel test at w_max = 1 alone:
    w_max = 2 takes 3 * 65520 candidates per basis, seconds of work."""
    field = FieldSpec(order)
    shape = ComplexShape(5, 1, 2)  # t = H + L = 3
    w_max_of = {Fraction(2, 5): 1}  # w_max = ceil(c n) - 1
    if order < 256:
        w_max_of[Fraction(3, 5)] = 2
    n_primes = (0, 2, 3, 5)
    kernel = dict.fromkeys(w_max_of.values(), 0)
    goodness = dict.fromkeys(n_primes, 0)
    ulw, matrices = 0, []
    for i in range(trials):
        c, _, _ = random_boundary(shape, field, trial_rng(3, i))
        for w_max in kernel:
            kernel[w_max] += any(
                _has_light_kernel_vector_by_supports(d, w_max) for d in (c.d_mp, c.d_pm)
            )
        for n_prime in n_primes:
            goodness[n_prime] += is_good(c, n_prime)
        m = sample_uniform_rank(field, 4, 2, trial_rng(3, i))
        matrices.append(m.data)
        ulw += max(gf.row_weights(m).max(), gf.col_weights(m).max()) <= 2
    for density, w_max in w_max_of.items():
        cfg = TrialConfig(field=field, n=5, trials=trials, master_seed=3, H=1, c=density)
        assert mc_low_weight_kernel(cfg).successes == kernel[w_max]
    cfg = TrialConfig(field=field, n=5, trials=trials, master_seed=3, H=1)
    for n_prime in n_primes:
        assert mc_goodness(cfg, n_prime).successes == goodness[n_prime]
    assert goodness[0] == goodness[2] == 0 and goodness[5] == trials

    seen = []

    def weights_of(mats, bound):
        seen.append(mats)
        return uniform_low_weight(mats, bound)

    uniform_low_weight = experiments._uniform_low_weight
    monkeypatch.setattr(experiments, "_uniform_low_weight", weights_of)
    assert mc_uniform_low_weight(field, 4, 2, Fraction(1, 2), trials, 3).successes == ulw
    assert np.concatenate(seen).tolist() == np.array(matrices).tolist()
    if trials > 1 and order == 191:
        assert 0 < kernel[2] < trials and 0 < goodness[3] < trials


# (p, t, largest n): spans walkable a row at a time, and past the
# enumeration limit (191^4 and 5^13 vectors).
_LIGHT_SIZES = [(p, t, 9) for p in (3, 5, 7, 191) for t in range(5) if p**t <= 7**4]
_LIGHT_SIZES += [(191, 4, 9), (5, 13, 15)]


@st.composite
def light_kernel_cases(draw):
    """A (N, t, n) stack of bases over GF(3/5/7/191), some sparse so that
    light vectors are common, and a weight bound w_max: any in 0..n for
    a walkable span, and in 0..2 past the limit, where the scalar
    reference takes every candidate in Python."""
    p, t, n_max = draw(st.sampled_from(_LIGHT_SIZES))
    n = draw(st.integers(t, n_max))
    count = draw(st.integers(0, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bases = rng.integers(0, p, (count, t, n))
    bases *= rng.random((count, t, n)) < draw(st.sampled_from([0.2, 0.5, 1.0]))
    return p, bases, draw(st.integers(0, n if p**t <= 7**4 else 2))


@pytest.mark.parametrize("cells", [1, 999, experiments._LIGHT_CELLS])
@settings(max_examples=100, deadline=None)
@given(case=light_kernel_cases())
# e_0 = r_0 - r_1 is the one light vector: found only once the
# reduction clears column 1 above its pivot.
@example(case=(3, np.array([[[1, 1, 1], [0, 1, 1]]]), 1))
# r_0 - r_1 = (1, 2, 0, 0, 0, 0) is the one vector of weight <= 2: found
# only by the candidate whose tail is the last nonzero value.
@example(case=(3, np.array([[[1, 0, 0, 1, 1, 1], [0, 1, 0, 1, 1, 1], [0, 0, 1, 2, 0, 1]]]), 2))
# Over GF(257) r_0 - r_1 = (1, 256, 0, 0) is the one vector of weight
# <= 2: found at j = 2 by the last value, 256, one past a byte.
@example(case=(257, np.array([[[1, 0, 5, 7], [0, 1, 5, 7]]]), 2))
def test_light_kernel_hits_match_a_per_basis_oracle(cells, case) -> None:
    """The batched light-vector test gives each basis the answer of the
    scalar reference, with blocks of one candidate, of 999 // (n N)
    (one or more, so several blocks that split supports) and of the
    default size; bases drop out at their first hit.  Where the span is
    walkable, the reference gives the answer of a walk over it."""
    p, bases, w_max = case
    nmat, t, _ = bases.shape
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "_LIGHT_CELLS", cells)
        hits = experiments._light_kernel_hits(bases, p, w_max)
    assert hits.dtype == bool and hits.shape == (nmat,)
    expected = [reference_light_kernel_vector(b, p, w_max) for b in bases]
    assert hits.tolist() == expected
    if p**t <= 7**4:
        assert expected == [has_light_kernel_vector(b, p, w_max) for b in bases]


def test_light_kernel_hits_refuse_above_the_candidate_limit(monkeypatch) -> None:
    """The refusal counts coefficient vectors, not the span: the n=3,
    H=1 kernels (t = 2) at w_max = 1 take 2 of them."""
    bases = next(experiments._kernel_bases(ComplexShape(3, 1, 1), FIELD3, 1, 7))
    monkeypatch.setattr(gf, "ENUMERATION_LIMIT", 1)
    with pytest.raises(ValueError, match=r"needs 2 coefficient vectors, above the limit of 1$"):
        experiments._light_kernel_hits(bases, 3, 1)
    monkeypatch.setattr(gf, "ENUMERATION_LIMIT", 2)
    hits = experiments._light_kernel_hits(bases, 3, 1)
    assert hits.tolist() == [has_light_kernel_vector(b, 3, 1) for b in bases]


@settings(max_examples=20, deadline=None)
@given(
    order=st.sampled_from([3, 5, 7]),
    n=st.integers(1, 6),
    count=st.integers(1, _CHUNK + 1),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_kernel_bases_span_the_boundary_kernels(order, n, count, seed, data) -> None:
    """Each trial's two bases are the leading t = H + L columns of the
    u_plus and u_minus that random_boundary draws from the trial's
    generator, have rank t and span the kernels of its d_mp and d_pm."""
    L = data.draw(st.integers(0, n // 2), label="L")
    shape = ComplexShape(n, n - 2 * L, L)
    field, t = FieldSpec(order), n - L
    chunks = list(experiments._kernel_bases(shape, field, count, seed))
    assert [len(bases) for bases in chunks] == [2 * len(r) for r in _chunk_ranges(count)]
    for bases, trials in zip(chunks, _chunk_ranges(count)):
        for j, i in enumerate(trials):
            c, u_plus, u_minus = random_boundary(shape, field, trial_rng(seed, i))
            plus, minus = bases[j], bases[len(trials) + j]
            assert (plus == u_plus.data[:, :t].T).all() and (minus == u_minus.data[:, :t].T).all()
            for basis, block in ((plus, c.d_mp), (minus, c.d_pm)):
                assert rank(MatGF(field, basis)) == t
                assert rank(MatGF(field, np.concatenate([basis, kernel_basis(block)]))) == t


def _chunk_ranges(trials: int) -> list[range]:
    return [range(s, min(s + _CHUNK, trials)) for s in range(0, trials, _CHUNK)]


def _no_streams(*args):
    raise AssertionError("a trial stream was built")


def _numpy_lemire(words: list[int], p: int) -> list[int]:
    """numpy's buffered_bounded_lemire_uint32 with range p - 1, applied
    to a sequence of 32-bit words, transcribed line by line."""
    rng_excl, out, it = p, [], iter(words)
    for word in it:
        m = word * rng_excl
        leftover = m & 0xFFFFFFFF
        if leftover < rng_excl:
            threshold = (0xFFFFFFFF - (p - 1)) % rng_excl
            while leftover < threshold:
                word = next(it, None)
                if word is None:
                    return out
                m = word * rng_excl
                leftover = m & 0xFFFFFFFF
        out.append(m >> 32)
    return out


class TestTrialStreams:
    """The vectorized trial streams against numpy's own seeding, bounded
    draw and random_invertible."""

    @staticmethod
    def assert_numpy_seeding(master: int, start: int, stop: int) -> None:
        words = experiments._pcg64_states(master, start, stop)
        assert words.shape == (stop - start, 4) and words.dtype == np.uint64
        for i, row in enumerate(words, start):
            ref = np.random.SeedSequence(master, spawn_key=(i,)).generate_state(4, np.uint64)
            assert row.tolist() == ref.tolist()

    @pytest.mark.parametrize("master", [0, 2**32 - 1, 2**32, 2**64 + 7, 2**128 + 3])
    def test_seeding_equals_numpy(self, master):
        # 2**128 + 3 has five entropy words, more than the pool: no padding.
        self.assert_numpy_seeding(master, 0, _CHUNK + 1)
        self.assert_numpy_seeding(master, 2**32 - 2, 2**32)

    @settings(max_examples=50, deadline=None)
    @given(master=st.integers(0, 2**160), start=st.integers(0, 2**32 - 3))
    def test_seeding_equals_numpy_property(self, master, start):
        self.assert_numpy_seeding(master, start, start + 3)

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 181, 65521])
    def test_decode_equals_numpy_lemire(self, p):
        """Crafted words around the rejection threshold 2**32 mod p,
        including word 0, which every odd p rejects."""
        threshold = (1 << 32) % p
        inverse = pow(p, -1, 1 << 32)
        # w p mod 2**32 = r for w = r p^-1: rejected below the threshold.
        leftovers = sorted({0, 1, threshold - 1, threshold, threshold + 1, p, 2**32 - 1})
        crafted = [r * inverse % (1 << 32) for r in leftovers]
        random_words = np.random.default_rng(p).integers(0, 1 << 32, 64).tolist()
        words = crafted + random_words + crafted[::-1]
        raw = np.array([[lo | hi << 32 for lo, hi in zip(words[::2], words[1::2])]],
                       dtype=np.uint64)
        values, kept = experiments._bounded_values(raw, p)
        assert values.shape == kept.shape == (1, len(words))
        assert values.dtype == np.min_scalar_type(p - 1)
        assert values[kept].tolist() == _numpy_lemire(words, p)
        assert kept.tolist()[0] == [(w * p) % (1 << 32) >= threshold for w in words]
        assert not kept[0, leftovers.index(0)]

    @pytest.mark.parametrize("p", [3, 65521])
    def test_decode_memory_peak(self, p):
        """Decoding a (100, 243) array of outputs peaks at 12 traced bytes
        per 32-bit word at most: the kept mask, the values and one uint64
        product per word (17.0 with the products and their low halves
        both held in uint64)."""
        raw = np.random.default_rng(p).integers(0, 2**64, (100, 243), dtype=np.uint64)
        tracemalloc.start()
        try:
            experiments._bounded_values(raw, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * 2 * raw.size

    @settings(max_examples=200, deadline=None)
    @given(
        p=st.sampled_from([3, 5, 7, 11, 13, 181, 65521]),
        count=st.integers(0, 40),
        master=st.integers(0, 2**64),
        index=st.integers(0, 2**32 - 5),
        rows=st.integers(1, 5),
    )
    def test_stream_values_equal_integers(self, p, count, master, index, rows):
        """Consecutive trials in one call, each row against its own
        generator: the one seed holder carries nothing between rows."""
        seeds = experiments._pcg64_states(master, index, index + rows)
        values = experiments._stream_values(seeds, p, count)
        assert values.shape == (rows, count)
        for i, row in enumerate(values):
            rng = trial_rng(master, index + i)
            # Split into two calls, so that numpy's carried half word is crossed.
            half = count // 2
            ref = np.concatenate([rng.integers(0, p, half), rng.integers(0, p, count - half)])
            assert row.tolist() == ref.tolist()

    @pytest.mark.parametrize("p", [3, 65521])
    def test_rejected_output_matches_random_invertible(self, monkeypatch, p):
        """Seed words whose PCG64's first output is 0: the state it steps
        to has equal 128-bit halves, so both of its words are rejected.
        numpy's pcg64_set_seed reads the words as 128-bit s and q, high
        half first, and sets inc = 2q + 1 and state = (inc + s) M + inc;
        a draw steps the state to state M + inc first.  So the state
        ``stepped`` comes from s = ((stepped - inc) / M - inc) / M - inc
        mod 2**128.  The crafted row sits between trials 0 and 1 of
        master seed 5, so a draw of the three rows keeps fewer words in
        one row than in the others and is reordered row by row."""
        mult = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's multiplier M
        inverse, mask = pow(mult, -1, 1 << 128), (1 << 128) - 1
        q = 0x0FEDCBA987654321_0123456789ABCDEF
        inc = 2 * q + 1 & mask
        stepped = (0x0123456789ABCDEF << 64) | 0x0123456789ABCDEF
        s = (((stepped - inc) * inverse - inc) * inverse - inc) & mask
        crafted = [s >> 64, s & (2**64 - 1), q >> 64, q & (2**64 - 1)]
        ordinary = experiments._pcg64_states(5, 0, 2)
        seeds = np.array([ordinary[0], crafted, ordinary[1]], dtype=np.uint64)

        def generators():
            crafted_rng = np.random.Generator(np.random.PCG64(experiments._seed_words()(seeds[1])))
            return [trial_rng(5, 0), crafted_rng, trial_rng(5, 1)]

        assert generators()[1].bit_generator.state["state"]["inc"] == inc
        assert generators()[1].bit_generator.random_raw() == 0
        values = experiments._stream_values(seeds, p, 9)
        assert values.tolist() == [rng.integers(0, p, 9).tolist() for rng in generators()]
        monkeypatch.setattr(experiments, "_pcg64_states", lambda *args: seeds)
        ((u, v),) = experiments._invertible_pairs(FieldSpec(p), 3, 3, 0)
        field = FieldSpec(p)
        for i, rng in enumerate(generators()):
            assert (u[i] == random_invertible(field, 3, rng).data).all()
            assert (v[i] == random_invertible(field, 3, rng).data).all()


@settings(max_examples=30, deadline=None)
@given(
    order=st.sampled_from([3, 5, 7, 191, 65521]),
    # Up to the Monte Carlo harnesses' 9 x 9, where most elimination
    # steps come before rank_batch's table tail.
    n=st.integers(0, 9),
    count=st.integers(1, _CHUNK + 1),
    seed=st.integers(0, 2**32 - 1),
)
def test_lockstep_invertible_draws_match_random_invertible(order, n, count, seed) -> None:
    """Each trial's pair is what two successive random_invertible calls
    return from the trial's generator, in the draw dtype: uint8 up to
    GF(191), uint16 for GF(65521)."""
    field = FieldSpec(order)
    chunks = list(experiments._invertible_pairs(field, n, count, seed))
    for (u, v), trials in zip(chunks, _chunk_ranges(count), strict=True):
        assert u.shape == v.shape == (len(trials), n, n)
        assert u.dtype == v.dtype == (np.uint8 if order < 256 else np.uint16)
        for j, i in enumerate(trials):
            rng = trial_rng(seed, i)
            assert (u[j] == random_invertible(field, n, rng).data).all()
            assert (v[j] == random_invertible(field, n, rng).data).all()


@pytest.mark.parametrize("candidates, cells", [(1, 1 << 18), (6, 1), (2, 200)])
def test_round_sizes_leave_the_pairs_unchanged(monkeypatch, candidates, cells) -> None:
    """One candidate per round, the cell cap forcing one per round, and
    a cap that shrinks rounds as they redraw longer prefixes: the same
    pairs as the default rounds."""
    field = FieldSpec(3)
    want = list(experiments._invertible_pairs(field, 4, 40, 8))
    monkeypatch.setattr(experiments, "_ROUND_CANDIDATES", candidates)
    monkeypatch.setattr(experiments, "_ROUND_CELLS", cells)
    ((u, v),) = experiments._invertible_pairs(field, 4, 40, 8)
    assert (u == want[0][0]).all() and (v == want[0][1]).all()


def test_harnesses_build_no_generator(monkeypatch) -> None:
    """The harnesses draw through the trial streams alone: no Generator,
    no trial_rng and no scalar random_invertible."""

    def refused(*args, **kwargs):
        raise AssertionError("a per-trial generator or draw")

    for module, name in ((np.random, "Generator"), (experiments, "trial_rng"),
                         (experiments, "random_invertible")):
        monkeypatch.setattr(module, name, refused)
    cfg = TrialConfig(field=FIELD3, n=5, trials=30, master_seed=2, H=1, c=Fraction(2, 5))
    assert mc_low_weight_kernel(cfg).trials == 30
    assert mc_goodness(cfg, 3).trials == 30
    assert mc_uniform_low_weight(FIELD3, 3, 1, Fraction(1, 2), 30, 2).trials == 30


class TestUniformRankSampler:
    def test_rank_is_exact(self):
        rng = np.random.default_rng(3)
        for n_prime in (2, 3):
            for r in range(n_prime + 1):
                for _ in range(20):
                    m = sample_uniform_rank(FIELD3, n_prime, r, rng)
                    assert m.shape == (n_prime, n_prime)
                    assert rank(m) == r

    def test_deterministic_given_seed(self):
        a = sample_uniform_rank(FIELD5, 3, 2, np.random.default_rng(9))
        b = sample_uniform_rank(FIELD5, 3, 2, np.random.default_rng(9))
        assert a == b

    def test_invalid_rank(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="rank"):
            sample_uniform_rank(FIELD3, 2, 3, rng)
        with pytest.raises(ValueError, match="rank"):
            sample_uniform_rank(FIELD3, 2, -1, rng)

    def test_uniform_over_rank_one_stratum(self):
        """Chi-square against the uniform distribution on all 32 rank-1
        matrices of size 2x2 over GF(3); seeded, so the statistic is a
        constant 46.93, well under the 0.1% point of chi2(31)."""
        rng = np.random.default_rng(777)
        counts: dict[tuple, int] = {}
        draws = 32000
        for _ in range(draws):
            m = sample_uniform_rank(FIELD3, 2, 1, rng)
            key = tuple(m.data.ravel().tolist())
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 32
        expected = draws / 32
        stat = sum((c - expected) ** 2 / expected for c in counts.values())
        assert stat < chi2.ppf(0.999, 31)


class TestUniformLowWeight:
    def test_frozen_estimate_brackets_ground_truth(self):
        rep = mc_uniform_low_weight(FIELD3, 2, 1, Fraction(1, 2), 400, 21)
        assert (rep.successes, rep.trials) == (90, 400)
        truth = exhaustive_ulw_probability(FIELD3, 2, 1, Fraction(1, 2))
        assert truth == Fraction(1, 4)
        assert rep.wilson_low < float(truth) < rep.wilson_high

    def test_trials_validation(self):
        with pytest.raises(ValueError, match="trial"):
            mc_uniform_low_weight(FIELD3, 2, 1, Fraction(1, 2), 0, 0)

    def test_run_refused_before_any_draw(self, monkeypatch):
        monkeypatch.setattr(experiments, "_pcg64_states", _no_streams)
        with pytest.raises(ValueError, match="master seed must be non-negative, got -3"):
            mc_uniform_low_weight(FIELD3, 2, 1, Fraction(1, 2), 10, -3)
        with pytest.raises(ValueError, match=r"trials must be at most 2\^32"):
            mc_uniform_low_weight(FIELD3, 2, 1, Fraction(1, 2), 2**32 + 1, 0)


class TestExhaustiveUlw:
    def test_rank_zero_is_certain(self):
        assert exhaustive_ulw_probability(FIELD3, 2, 0, Fraction(1, 2)) == 1

    def test_threshold_floor_semantics(self):
        # bound 2/3 floors to 0, and no rank-1 matrix is all zero
        assert exhaustive_ulw_probability(FIELD3, 2, 1, Fraction(1, 3)) == 0
        # the predicate itself: max weight 2 passes c'n' = 2 but not 3/2,
        # and a matrix with no rows passes any bound
        m = np.array([[[1, 1, 0], [0, 1, 0], [0, 0, 0]]])
        assert experiments._uniform_low_weight(m, Fraction(2)).all()
        assert not experiments._uniform_low_weight(m, Fraction(3, 2)).any()
        assert experiments._uniform_low_weight(np.zeros((1, 0, 3)), Fraction(0)).all()

    @staticmethod
    def _reference_low_weight(mats: np.ndarray, bound: Fraction) -> list[bool]:
        """Per matrix, in Python ints: every row and column weight <= bound."""
        out = []
        for m in mats.tolist():
            rows, cols = mats.shape[1:]
            row_w = [sum(m[i][j] != 0 for j in range(cols)) for i in range(rows)]
            col_w = [sum(m[i][j] != 0 for i in range(rows)) for j in range(cols)]
            out.append(all(w <= bound for w in row_w + col_w))
        return out

    @settings(max_examples=150, deadline=None)
    @given(
        shape=st.tuples(st.integers(0, 40), st.integers(0, 6), st.integers(0, 6)),
        order=st.sampled_from([3, 5, 251]),
        bound=st.fractions(-1, 7, max_denominator=3),
        dtype=st.sampled_from([np.uint8, np.int64]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_weights_match_a_per_matrix_reference(self, shape, order, bound, dtype, seed):
        """The batch-last weight test agrees with a per-matrix count on
        every stack: none (N = 0), no rows or columns (n' = 0), square
        and rectangular, sparse and dense."""
        rng = np.random.default_rng(seed)
        mats = rng.integers(0, order, shape) * (rng.random(shape) < rng.random())
        mats = mats.astype(dtype)
        got = experiments._uniform_low_weight(mats, bound)
        assert got.dtype == bool and got.shape == (shape[0],)
        assert got.tolist() == self._reference_low_weight(mats, bound)

    @pytest.mark.parametrize("width", [255, 256, 300])
    def test_weights_above_255_do_not_wrap(self, width):
        """Weights are summed in a type that holds the width: a full row of
        300 entries has weight 300, not 300 - 256 = 44."""
        mats = np.zeros((3, 2, width), dtype=np.uint8)
        mats[1, 0] = 1
        mats[2, 1, : width // 2] = 2
        for bound in (1, width // 2, width - 1, width):
            want = self._reference_low_weight(mats, Fraction(bound))
            assert experiments._uniform_low_weight(mats, Fraction(bound)).tolist() == want
        assert experiments._uniform_low_weight(mats, Fraction(width - 1)).tolist() == [True, False, True]

    def test_full_rank_case(self):
        # 2x2 invertible with row/col weights <= 1: the 4 diagonal and
        # 4 antidiagonal invertibles out of 48.
        got = exhaustive_ulw_probability(FIELD3, 2, 2, Fraction(1, 2))
        assert got == Fraction(8, 48)

    def test_empty_stratum_raises(self):
        with pytest.raises(ValueError, match="no matrices of rank"):
            exhaustive_ulw_probability(FIELD3, 2, 3, Fraction(1, 2))

    @pytest.mark.parametrize("rank", [4, -1])
    def test_rank_refused_before_enumerating(self, monkeypatch, rank):
        def walked(*args, **kwargs):
            raise AssertionError("enumerated a rank that has no matrices")

        monkeypatch.setattr(experiments, "line_blocks", walked)
        with pytest.raises(ValueError, match=rf"no matrices of rank {rank}: rank must lie in \[0, 3\]"):
            exhaustive_ulw_probability(FIELD5, 3, rank, Fraction(1, 2))

    @pytest.mark.parametrize(
        "order, n_prime", [(3, 1), (3, 2), (5, 2), (7, 2), (3, 3)]
    )
    def test_matches_a_full_span_reference(self, order, n_prime):
        """Every rank 0..n' and bounds c'n' below 0, at 0, between and at
        n': one matrix per line, counted p - 1 times, and the zero
        matrix give the fraction of the whole matrix space."""
        for rank in range(n_prime + 1):
            for c_prime in (Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(2, 3), Fraction(1)):
                got = exhaustive_ulw_probability(FieldSpec(order), n_prime, rank, c_prime)
                assert got == reference_ulw_probability(order, n_prime, rank, c_prime * n_prime)

    @pytest.mark.parametrize("c_prime", [Fraction(0), Fraction(1, 2)])
    def test_empty_matrix_agrees_with_the_harness(self, c_prime):
        """n' = 0: the one 0 x 0 matrix has rank 0 and no rows or
        columns, so the oracle and the harness both find the event
        certain."""
        assert exhaustive_ulw_probability(FIELD3, 0, 0, c_prime) == 1
        report = mc_uniform_low_weight(FIELD3, 0, 0, c_prime, 5, 1)
        assert report.successes == report.trials == 5

    def test_limit_guard(self, monkeypatch):
        with pytest.raises(ValueError, match=r"3\^10000 vectors, above the limit"):
            exhaustive_ulw_probability(FIELD3, 100, 1, Fraction(1, 2))
        monkeypatch.setattr(gf, "ENUMERATION_LIMIT", 100)
        with pytest.raises(ValueError, match=r"5\^9 vectors, above the limit of 100$"):
            exhaustive_ulw_probability(FIELD5, 3, 1, Fraction(1, 2))


class TestCsvEmission:
    def test_header_and_determinism(self, tmp_path):
        reports = [
            mc_uniform_low_weight(FIELD3, 2, 1, Fraction(1, 2), 50, 21),
            mc_goodness(TrialConfig(field=FIELD3, n=3, trials=20, master_seed=5, H=1), 2),
        ]
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        emit_csv(reports, str(p1))
        emit_csv(reports, str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 3

    def test_rows_round_trip_key_fields(self, tmp_path):
        rep = mc_uniform_low_weight(FIELD3, 2, 1, Fraction(1, 2), 50, 21)
        path = tmp_path / "r.csv"
        emit_csv([rep], str(path))
        header, row = path.read_text().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["experiment"] == "ulw"
        assert cells["successes"] == str(rep.successes)
        assert cells["trials"] == "50"
        assert cells["c_prime"] == "1/2"
        assert cells["master_seed"] == "21"
        # columns that do not apply stay empty
        assert cells["H"] == ""
        assert float(cells["estimate"]) == rep.estimate
