"""Monte Carlo harness tests.

Every experiment is seeded, so success counts are frozen exactly; the
statistical content (uniformity of the rank sampler, agreement with an
exhaustively computed ground truth) is tested against fixed thresholds
rather than resampled."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import chi2

from quditprod import (
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
from quditprod import experiments, is_good, random_boundary
from quditprod.experiments import _CHUNK, CSV_COLUMNS
from quditprod.gf import kernel_basis, rank, span_blocks
from quditprod.reduction import weights_within

from support import FIELD3, FIELD5


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
        with pytest.raises(ValueError, match="H or rho"):
            TrialConfig(field=FIELD3, n=3, trials=1, master_seed=0)
        # c must stay strictly below 1 - 1/D
        with pytest.raises(ValueError, match="1 - 1/D"):
            TrialConfig(field=FIELD3, n=3, trials=1, master_seed=0, H=1, c=Fraction(2, 3))
        cfg = TrialConfig(field=FIELD5, n=3, trials=1, master_seed=0, H=1, c=Fraction(2, 3))
        assert cfg.c == Fraction(2, 3)

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
        def no_draws(*args):
            raise AssertionError("a trial generator was built")

        monkeypatch.setattr(experiments, "trial_rng", no_draws)
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

    def test_budget_guard(self):
        # n=3, H=1 kernels are nonempty, so a budget of 2 cannot hold
        # even one kernel's worth of vectors.
        cfg = TrialConfig(
            field=FIELD3, n=3, trials=1, master_seed=7, H=1, c=Fraction(1, 2)
        )
        with pytest.raises(ValueError, match="budget"):
            mc_low_weight_kernel(cfg, budget=2)
        # the kernels have dimension H + L = 2: exactly 3^2 vectors
        assert mc_low_weight_kernel(cfg, budget=9).trials == 1


def _has_light_kernel_vector(m, w_max: int) -> bool:
    basis = kernel_basis(m)
    if w_max < 1 or not basis:
        return False
    for vecs in span_blocks(np.array(basis), m.field.order):
        weights = np.count_nonzero(vecs, axis=1)
        if ((weights > 0) & (weights <= w_max)).any():
            return True
    return False


@pytest.mark.parametrize("trials", [1, _CHUNK + 1])
def test_lockstep_harnesses_match_a_per_trial_loop(trials: int) -> None:
    """One trial and one chunk plus one: the same successes as a loop
    over the single-draw API, each trial on its own generator."""
    cfg = TrialConfig(field=FIELD5, n=5, trials=trials, master_seed=3, H=1, c=Fraction(2, 5))
    shape, w_max = cfg.shape(), 1  # c n = 2: weights up to 1 are light
    kernel = goodness = ulw = 0
    for i in range(trials):
        c, _, _ = random_boundary(shape, FIELD5, trial_rng(3, i))
        kernel += _has_light_kernel_vector(c.d_mp, w_max) or _has_light_kernel_vector(c.d_pm, w_max)
        goodness += is_good(c, 3)
        m = sample_uniform_rank(FIELD3, 4, 2, trial_rng(3, i))
        ulw += weights_within(m, Fraction(2))
    assert mc_low_weight_kernel(cfg).successes == kernel
    assert mc_goodness(cfg, 3).successes == goodness
    assert mc_uniform_low_weight(FIELD3, 4, 2, Fraction(1, 2), trials, 3).successes == ulw
    if trials > 1:
        assert 0 < kernel < trials and 0 < goodness < trials and 0 < ulw < trials


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


class TestExhaustiveUlw:
    def test_rank_zero_is_certain(self):
        assert exhaustive_ulw_probability(FIELD3, 2, 0, Fraction(1, 2)) == 1

    def test_threshold_floor_semantics(self):
        # bound 2/3 floors to 0, and no rank-1 matrix is all zero
        assert exhaustive_ulw_probability(FIELD3, 2, 1, Fraction(1, 3)) == 0

    def test_full_rank_case(self):
        # 2x2 invertible with row/col weights <= 1: the 4 diagonal and
        # 4 antidiagonal invertibles out of 48.
        got = exhaustive_ulw_probability(FIELD3, 2, 2, Fraction(1, 2))
        assert got == Fraction(8, 48)

    def test_empty_stratum_raises(self):
        with pytest.raises(ValueError, match="no matrices of rank"):
            exhaustive_ulw_probability(FIELD3, 2, 3, Fraction(1, 2))

    def test_limit_guard(self):
        with pytest.raises(ValueError, match="limit"):
            exhaustive_ulw_probability(FIELD5, 3, 1, Fraction(1, 2), limit=100)
        with pytest.raises(ValueError, match=r"3\^10000 matrices, above the limit"):
            exhaustive_ulw_probability(FIELD3, 100, 1, Fraction(1, 2))


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
