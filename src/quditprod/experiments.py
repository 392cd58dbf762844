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
unchanged.

The complex experiments build no boundary block and no inverse.
``random_boundary`` forms d_mp = u_minus d0 u_plus^-1 and
d_pm = u_plus d0 u_minus^-1 from the standard block d0, whose kernel is
spanned by e_0 .. e_{t-1}, t = H + L.  So ker d_mp = u_plus ker d0 is
spanned by the first t columns of u_plus, and ker d_pm by those of
u_minus: each trial's two kernel bases are read off its conjugating
matrices, and only the draws, kernel enumerations and ranks are
batched.

Estimates ship with 95% Wilson score intervals, which behave sanely for
probabilities near 0 where most of these events live.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

from .complexes import ComplexShape
from .gf import (
    FieldSpec,
    MatGF,
    _check_enumeration,
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

    The shape comes from exactly one of H and rho.  The weight
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
        if self.H is not None and self.rho is not None:
            raise ValueError("give only one of H or rho")
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


def _kernel_bases(
    shape: ComplexShape, field: FieldSpec, rngs: list[np.random.Generator]
) -> np.ndarray:
    """The kernel bases of ``random_boundary``'s blocks for every
    generator in lockstep: a (2 len(rngs), t, n) stack, t = H + L, whose
    rows span ker d_mp for each generator and then ker d_pm.

    Draws u_plus, then u_minus, as ``random_boundary`` does, so each
    generator ends in that call's state.  The bases are the transposed
    leading t columns of u_plus (for d_mp) and of u_minus (for d_pm).
    """
    t = shape.H + shape.L
    u_plus = _random_invertible_batch(field, shape.n, rngs)
    u_minus = _random_invertible_batch(field, shape.n, rngs)
    return np.concatenate([u_plus, u_minus])[:, :, :t].transpose(0, 2, 1)


def _light_kernel_hits(bases: np.ndarray, p: int, w_max: int) -> np.ndarray:
    """For each basis of an (N, t, n) stack of t independent rows,
    whether its span holds a nonzero vector of weight <= w_max.

    Exact: every coefficient vector c comes from ``span_blocks`` in
    blocks of ``_SPAN_ROWS // N`` rows (at least one), c @ basis is
    nonzero exactly when c is, and a basis drops out at its first hit.
    Refused when the span size p^t exceeds ``gf.ENUMERATION_LIMIT``.
    """
    nmat, t, n = bases.shape
    hits = np.zeros(nmat, dtype=bool)
    if w_max < 1 or nmat == 0:
        return hits
    # gens[k, i] is row k of basis i, so block @ gens[:, live] spans every live basis.
    gens = bases.transpose(1, 0, 2)
    live = np.arange(nmat)
    for block in span_blocks(np.eye(t, dtype=np.int64), p, max(1, _SPAN_ROWS // nmat)):
        vecs = _mod(block @ gens[:, live].reshape(t, -1), p)
        weights = np.count_nonzero(vecs.reshape(len(block), len(live), n), axis=2)
        found = ((weights > 0) & (weights <= w_max)).any(axis=0)
        hits[live[found]] = True
        live = live[~found]
        if live.size == 0:
            break
    return hits


def mc_low_weight_kernel(cfg: TrialConfig) -> EstimateReport:
    """Probability that the kernel of a random boundary operator
    contains a nonzero vector of weight below c*n.

    The kernel of the full operator is the direct sum of the two sector
    kernels, so the lightest nonzero vector lives entirely in one
    sector; both sector kernels are enumerated exactly per trial, and
    the run is refused when a kernel exceeds ``gf.ENUMERATION_LIMIT``
    vectors.
    """
    if cfg.c is None:
        raise ValueError("this experiment needs the weight density c")
    shape = cfg.shape()
    field = cfg.field
    w_max = math.ceil(cfg.c * cfg.n) - 1
    successes = 0
    for rngs in _trial_chunks(cfg.trials, cfg.master_seed):
        hits = _light_kernel_hits(_kernel_bases(shape, field, rngs), field.order, w_max)
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

    Decides what ``is_good`` decides, from the kernel bases: with U the
    (n, t) matrix whose columns span a sector's kernel, the kernel
    vector U c lies on the trailing n - n' coordinates exactly when
    U[:n'] c = 0.  So a trial is good when rank U[:n', :t] = t in both
    sectors.
    """
    shape = cfg.shape()
    field = cfg.field
    n = shape.n
    if not 0 <= n_prime <= n:
        raise ValueError(f"n_prime must lie in [0, {n}], got {n_prime}")
    t = shape.H + shape.L
    successes = 0
    for rngs in _trial_chunks(cfg.trials, cfg.master_seed):
        ranks = rank_batch(_kernel_bases(shape, field, rngs)[:, :, :n_prime], field.order)
        successes += int(((ranks[: len(rngs)] == t) & (ranks[len(rngs) :] == t)).sum())
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
        raise ValueError(f"no matrices of rank {rank}: rank must lie in [0, {n_prime}]")


def _uniform_low_weight(mats: np.ndarray, bound: Fraction) -> np.ndarray:
    """The uniform low weight condition per matrix of an (N, rows, cols)
    stack: every row and column weight at most ``bound`` = c'n'."""
    # Weights are integers, so w <= bound is w <= floor(bound) exactly.
    ibound = math.floor(bound)
    row_ok = (np.count_nonzero(mats, axis=2) <= ibound).all(axis=1)
    col_ok = (np.count_nonzero(mats, axis=1) <= ibound).all(axis=1)
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
    p = field.order
    successes = 0
    for rngs in _trial_chunks(trials, master_seed):
        u = _random_invertible_batch(field, n_prime, rngs)
        v = _random_invertible_batch(field, n_prime, rngs)
        mats = u[:, :, :rank] @ v[:, :rank, :] % p
        successes += int(_uniform_low_weight(mats, c_prime * n_prime).sum())
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
    field: FieldSpec, n_prime: int, rank: int, c_prime: Fraction
) -> Fraction:
    """Exact P[uniform rank-R matrix has all row/col weights <= c'*n'],
    by enumerating the whole matrix space.  Ground truth for
    mc_uniform_low_weight at tiny sizes; refused when the space exceeds
    ``gf.ENUMERATION_LIMIT`` matrices."""
    _check_rank(n_prime, rank)
    p = field.order
    cells = n_prime * n_prime
    # Checked before the cells x cells identity basis is built.
    _check_enumeration(p, cells)
    bound = Fraction(c_prime) * n_prime
    hits = 0
    stratum = 0
    for vecs in span_blocks(np.eye(cells, dtype=np.int64), p):
        mats = vecs.reshape(-1, n_prime, n_prime)
        in_stratum = _table_rank(mats, p) == rank
        stratum += int(in_stratum.sum())
        if not in_stratum.any():
            continue
        hits += int(_uniform_low_weight(mats[in_stratum], bound).sum())
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
