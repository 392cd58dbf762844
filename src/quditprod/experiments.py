"""Seeded Monte Carlo harnesses for the rare-event probabilities.

Each experiment draws its per-trial randomness from
SeedSequence(master_seed, spawn_key=(trial_index,)), so estimates are
independent of execution order and can be reproduced from the master
seed alone.  Every per-trial decision is exact (rank computation or
weight-bounded kernel enumeration); only the trial sampling is random.

Trials run in lockstep chunks of ``_CHUNK``.  A chunk builds every
trial's own generator, and each rejection round draws one candidate
from every generator whose matrix is not yet accepted, then tests all
of them with one batched elimination.  A generator still makes exactly
the draws the single-trial samplers (``random_boundary``,
``sample_uniform_rank``) make, in the same order, so each trial sees
the same matrices as a trial-by-trial loop and every estimate is
unchanged; only the linear algebra is batched: inverses, conjugations,
kernels and ranks.

Estimates ship with 95% Wilson score intervals, which behave sanely for
probabilities near 0 where most of these events live.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

from .complexes import ComplexShape, _random_boundary_batch
from .gf import (
    FieldSpec,
    MatGF,
    _mod,
    _random_invertible_batch,
    _table_rank,
    rank_batch,
    random_invertible,
    span_blocks,
)

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

# Trials per lockstep chunk.
_CHUNK = 256
# Most span rows (kernel vectors) the light-kernel test holds at once.
_SPAN_ROWS = 1 << 12


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


def _trial_chunks(trials: int, master_seed: int) -> Iterator[list]:
    """The trials' generators, ``_CHUNK`` at a time, in trial order."""
    for start in range(0, trials, _CHUNK):
        yield [trial_rng(master_seed, i) for i in range(start, min(start + _CHUNK, trials))]


def _light_kernel_hits(mats: np.ndarray, p: int, w_max: int, budget: int) -> np.ndarray:
    """For each matrix of an (N, rows, n) stack of equal rank, whether
    its kernel holds a nonzero vector of weight <= w_max.

    Exact, from the batched reduced form R of rank r: a kernel vector is
    fixed by its free coordinates c, any vector of GF(p)^t, and its
    pivot coordinates are then -R[:r, free] c.  Every c comes from
    ``span_blocks`` in blocks of ``_SPAN_ROWS // N`` rows (at least
    one), and a matrix drops out at its first hit.  The kernel size p^t
    must stay within the budget.
    """
    hits = np.zeros(len(mats), dtype=bool)
    if w_max < 1 or len(mats) == 0:
        return hits
    rref, pivots, ranks = rank_batch(mats, p)
    nmat, n = pivots.shape
    r = int(ranks[0])
    t = n - r
    if t == 0:
        return hits
    if p**t > budget:
        raise ValueError(f"kernel enumeration needs {p}^{t} vectors, above the budget {budget}")
    free = np.nonzero(~pivots)[1].reshape(nmat, t)
    mat_idx = np.arange(nmat)
    # gens[j, i, k] = -R_i[k, free_i[j]]: the pivot part is c @ gens[:, i].
    gens = (-rref[mat_idx, :r, free.T]) % p
    live = mat_idx
    for block in span_blocks(np.eye(t, dtype=np.int64), p, max(1, _SPAN_ROWS // nmat)):
        pivot_part = _mod(block @ gens[:, live].reshape(t, -1), p)
        weights = np.count_nonzero(block, axis=1)[:, None] + np.count_nonzero(
            pivot_part.reshape(len(block), len(live), r), axis=2
        )
        found = ((weights > 0) & (weights <= w_max)).any(axis=0)
        hits[live[found]] = True
        live = live[~found]
        if live.size == 0:
            break
    return hits


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
    for rngs in _trial_chunks(cfg.trials, cfg.master_seed):
        d_pm, d_mp = _random_boundary_batch(shape, field, rngs)
        # Both blocks are conjugates of the standard block: equal ranks.
        hits = _light_kernel_hits(np.concatenate([d_mp, d_pm]), field.order, w_max, budget)
        successes += int((hits[: len(rngs)] | hits[len(rngs) :]).sum())
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
    """Probability that a random boundary operator is good for n'.

    Decided as ``is_good`` does: both blocks restricted to their last
    n - n' columns must have full column rank.
    """
    shape = cfg.shape()
    field = cfg.field
    n = shape.n
    if not 0 <= n_prime <= n:
        raise ValueError(f"n_prime must lie in [0, {n}], got {n_prime}")
    tail = n - n_prime
    successes = 0
    for rngs in _trial_chunks(cfg.trials, cfg.master_seed):
        d_pm, d_mp = _random_boundary_batch(shape, field, rngs)
        _, _, ranks = rank_batch(np.concatenate([d_mp, d_pm])[:, :, n_prime:], field.order)
        successes += int(((ranks[: len(rngs)] == tail) & (ranks[len(rngs) :] == tail)).sum())
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


def _check_rank(n_prime: int, rank: int) -> None:
    if not 0 <= rank <= n_prime:
        raise ValueError(f"rank must lie in [0, {n_prime}]")


def _weights_within(mats: np.ndarray, bound: int) -> np.ndarray:
    """Per matrix of an (N, rows, cols) stack: all row and column
    weights at most the integer bound."""
    row_ok = (np.count_nonzero(mats, axis=2) <= bound).all(axis=1)
    col_ok = (np.count_nonzero(mats, axis=1) <= bound).all(axis=1)
    return row_ok & col_ok


def sample_uniform_rank(
    field: FieldSpec, n_prime: int, rank: int, rng: np.random.Generator
) -> MatGF:
    """A uniformly random n' x n' matrix of the given rank.

    Conjugates the rank indicator by independent uniform invertible
    matrices (u drawn first, then v).  The two-sided orbit of the
    indicator is exactly the rank-r stratum and every point has the
    same number of (u, v) preimages, so the output is uniform.
    """
    _check_rank(n_prime, rank)
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
    weights at most c'*n'.

    Each trial's matrix is the one ``sample_uniform_rank`` draws from
    the trial's generator (u, then v), drawn in lockstep.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    _check_rank(n_prime, rank)
    c_prime = Fraction(c_prime)
    # Weights are integers, so w <= c'n' is w <= floor(c'n') exactly.
    ibound = math.floor(c_prime * n_prime)
    p = field.order
    successes = 0
    for rngs in _trial_chunks(trials, master_seed):
        u = _random_invertible_batch(field, n_prime, rngs)
        v = _random_invertible_batch(field, n_prime, rngs)
        mats = u[:, :, :rank] @ v[:, :rank, :] % p
        successes += int(_weights_within(mats, ibound).sum())
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
        hits += int(_weights_within(mats[in_stratum], ibound).sum())
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
