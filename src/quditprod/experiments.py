"""Seeded Monte Carlo harnesses for the rare-event probabilities.

Each experiment draws its per-trial randomness from
SeedSequence(master_seed, spawn_key=(trial_index,)), so estimates are
independent of execution order and can be reproduced from the master
seed alone.  Every per-trial decision is exact (rank computation or
weight-bounded kernel enumeration); only the trial sampling is random.

Estimates ship with 95% Wilson score intervals, which behave sanely for
probabilities near 0 where most of these events live.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .complexes import ComplexShape, is_good, random_boundary
from .gf import FieldSpec, MatGF, _table_rank, kernel_basis, random_invertible, span_blocks
from .reduction import weights_within

__all__ = [
    "TrialConfig",
    "EstimateReport",
    "wilson_interval",
    "trial_rng",
    "mc_low_weight_kernel",
    "mc_goodness",
    "sample_uniform_rank",
    "mc_uniform_low_weight",
    "exhaustive_ulw_probability",
    "emit_csv",
    "CSV_COLUMNS",
]

WILSON_Z95 = 1.959963984540054


@dataclass(frozen=True)
class TrialConfig:
    """Shared knobs for the complex-sampling experiments.

    The shape comes from H when given, otherwise from rho.  The weight
    density c, when set, must satisfy c < 1 - 1/D; beyond that point
    even a uniformly random kernel vector is likely to be light and the
    decay regime being probed does not exist.
    """

    field: FieldSpec
    n: int
    trials: int
    master_seed: int
    H: int | None = None
    rho: Fraction | None = None
    c: Fraction | None = None

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.H is None and self.rho is None:
            raise ValueError("one of H or rho must be given")
        if self.c is not None:
            object.__setattr__(self, "c", Fraction(self.c))
            if not 0 < self.c < 1 - Fraction(1, self.field.order):
                raise ValueError(f"need 0 < c < 1 - 1/D, got c = {self.c}")
        if self.rho is not None:
            object.__setattr__(self, "rho", Fraction(self.rho))

    def shape(self) -> ComplexShape:
        if self.H is not None:
            return ComplexShape.from_hom_dim(self.n, self.H)
        return ComplexShape.from_rho(self.n, self.rho)


@dataclass(frozen=True)
class EstimateReport:
    """A Bernoulli estimate with its 95% Wilson interval and enough
    parameters to reproduce it."""

    experiment: str
    successes: int
    trials: int
    estimate: float
    wilson_low: float
    wilson_high: float
    master_seed: int
    params: dict

    def as_row(self) -> list[str]:
        cells = []
        for col in CSV_COLUMNS:
            if col == "experiment":
                cells.append(self.experiment)
            elif col in ("trials", "successes", "master_seed"):
                cells.append(str(getattr(self, col)))
            elif col in ("estimate", "wilson_low", "wilson_high"):
                cells.append(repr(getattr(self, col)))
            elif col in self.params and self.params[col] is not None:
                val = self.params[col]
                cells.append(repr(val) if isinstance(val, float) else str(val))
            else:
                cells.append("")
        return cells


CSV_COLUMNS = [
    "experiment",
    "order",
    "n",
    "H",
    "L",
    "n_prime",
    "rank",
    "c",
    "c_prime",
    "r",
    "epsilon",
    "trials",
    "successes",
    "estimate",
    "wilson_low",
    "wilson_high",
    "master_seed",
]


def wilson_interval(successes: int, trials: int, z: float = WILSON_Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes out of range")
    phat = successes / trials
    z2 = z * z
    denom = 1 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials * trials)) / denom
    return center - half, center + half


def trial_rng(master_seed: int, index: int) -> np.random.Generator:
    """The generator for one trial; disjoint streams across indices."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=master_seed, spawn_key=(index,)))
    )


def _report(
    experiment: str, successes: int, cfg_trials: int, master_seed: int, params: dict
) -> EstimateReport:
    low, high = wilson_interval(successes, cfg_trials)
    return EstimateReport(
        experiment=experiment,
        successes=successes,
        trials=cfg_trials,
        estimate=successes / cfg_trials,
        wilson_low=low,
        wilson_high=high,
        master_seed=master_seed,
        params=params,
    )


def _kernel_has_light_vector(m: MatGF, w_max: int, budget: int) -> bool:
    """Whether ker m contains a nonzero vector of weight <= w_max.

    Exact: enumerates the kernel through coefficient tuples over a
    kernel basis.  The kernel size D^dim must stay within the budget.
    """
    if w_max < 1:
        return False
    p = m.field.order
    basis = kernel_basis(m)
    t = len(basis)
    if t == 0:
        return False
    if p**t > budget:
        raise ValueError(f"kernel enumeration needs {p}^{t} vectors, above the budget {budget}")
    for vecs in span_blocks(np.array(basis, dtype=np.int64), p):
        weights = np.count_nonzero(vecs, axis=1)
        if ((0 < weights) & (weights <= w_max)).any():
            return True
    return False


def mc_low_weight_kernel(cfg: TrialConfig, budget: int = 10**6) -> EstimateReport:
    """Probability that the kernel of a random boundary operator
    contains a nonzero vector of weight below c*n.

    The kernel of the full operator is the direct sum of the two sector
    kernels, so the lightest nonzero vector lives entirely in one
    sector; both sector kernels are enumerated exactly per trial.
    """
    if cfg.c is None:
        raise ValueError("this experiment needs the weight density c")
    shape = cfg.shape()
    field = cfg.field
    w_max = math.ceil(cfg.c * cfg.n) - 1
    successes = 0
    for i in range(cfg.trials):
        rng = trial_rng(cfg.master_seed, i)
        c, _, _ = random_boundary(shape, field, rng)
        hit = _kernel_has_light_vector(c.d_mp, w_max, budget) or _kernel_has_light_vector(
            c.d_pm, w_max, budget
        )
        successes += int(hit)
    return _report(
        "kernel",
        successes,
        cfg.trials,
        cfg.master_seed,
        {
            "order": field.order,
            "n": cfg.n,
            "H": shape.H,
            "L": shape.L,
            "c": cfg.c,
            "rho": cfg.rho,
        },
    )


def mc_goodness(cfg: TrialConfig, n_prime: int) -> EstimateReport:
    """Probability that a random boundary operator is good for n'."""
    shape = cfg.shape()
    field = cfg.field
    successes = 0
    for i in range(cfg.trials):
        rng = trial_rng(cfg.master_seed, i)
        c, _, _ = random_boundary(shape, field, rng)
        successes += int(is_good(c, n_prime))
    return _report(
        "goodness",
        successes,
        cfg.trials,
        cfg.master_seed,
        {
            "order": field.order,
            "n": cfg.n,
            "H": shape.H,
            "L": shape.L,
            "n_prime": n_prime,
        },
    )


def sample_uniform_rank(
    field: FieldSpec, n_prime: int, rank: int, rng: np.random.Generator
) -> MatGF:
    """A uniformly random n' x n' matrix of the given rank.

    Conjugates the rank indicator by independent uniform invertible
    matrices (u drawn first, then v).  The two-sided orbit of the
    indicator is exactly the rank-r stratum and every point has the
    same number of (u, v) preimages, so the output is uniform.
    """
    if not 0 <= rank <= n_prime:
        raise ValueError(f"rank must lie in [0, {n_prime}]")
    u = random_invertible(field, n_prime, rng)
    v = random_invertible(field, n_prime, rng)
    core = np.zeros((n_prime, n_prime), dtype=np.int64)
    core[:rank, :rank] = np.eye(rank, dtype=np.int64)
    return u @ MatGF(field, core, _reduced=True) @ v


def mc_uniform_low_weight(
    field: FieldSpec,
    n_prime: int,
    rank: int,
    c_prime: Fraction,
    trials: int,
    master_seed: int,
) -> EstimateReport:
    """Probability that a uniform rank-R matrix has all row and column
    weights at most c'*n'."""
    if trials < 1:
        raise ValueError("need at least one trial")
    c_prime = Fraction(c_prime)
    bound = c_prime * n_prime
    successes = 0
    for i in range(trials):
        rng = trial_rng(master_seed, i)
        m = sample_uniform_rank(field, n_prime, rank, rng)
        successes += int(weights_within(m, bound))
    return _report(
        "ulw",
        successes,
        trials,
        master_seed,
        {
            "order": field.order,
            "n_prime": n_prime,
            "rank": rank,
            "c_prime": c_prime,
        },
    )


def exhaustive_ulw_probability(
    field: FieldSpec, n_prime: int, rank: int, c_prime: Fraction, limit: int = 10**7
) -> Fraction:
    """Exact P[uniform rank-R matrix has all row/col weights <= c'*n'],
    by enumerating the whole matrix space.  Ground truth for
    mc_uniform_low_weight at tiny sizes."""
    p = field.order
    cells = n_prime * n_prime
    if p**cells > limit:
        raise ValueError(f"enumeration needs {p}^{cells} matrices, above the limit {limit}")
    bound = Fraction(c_prime) * n_prime
    # Weights are integers, so w <= bound is w <= floor(bound) exactly.
    ibound = math.floor(bound)
    hits = 0
    stratum = 0
    for vecs in span_blocks(np.eye(cells, dtype=np.int64), p):
        mats = vecs.reshape(-1, n_prime, n_prime)
        in_stratum = _table_rank(mats, p) == rank
        stratum += int(in_stratum.sum())
        if not in_stratum.any():
            continue
        sel = mats[in_stratum]
        row_ok = (np.count_nonzero(sel, axis=2) <= ibound).all(axis=1)
        col_ok = (np.count_nonzero(sel, axis=1) <= ibound).all(axis=1)
        hits += int((row_ok & col_ok).sum())
    if stratum == 0:
        raise ValueError(f"no matrices of rank {rank}")
    return Fraction(hits, stratum)


def emit_csv(reports: Iterable[EstimateReport], path: str) -> None:
    """Write one row per report with a fixed column order.

    Pure function of the reports, so identical inputs produce identical
    files byte for byte.
    """
    lines = [",".join(CSV_COLUMNS)]
    for rep in reports:
        lines.append(",".join(rep.as_row()))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
