"""Seeded Monte Carlo harnesses for the rare-event probabilities.

Trial i of a run uses the stream of ``trial_rng(master_seed, i)``, so
estimates do not depend on execution order and are reproducible from
the master seed alone.  Every per-trial decision is exact (a rank, or a
weight-bounded kernel search); only the sampling is random.  Estimates
ship with 95% Wilson score intervals, which behave sanely near 0, where
most of these events live.

The harnesses build no per-trial Generator.  Trials run in chunks of
``_CHUNK``, whose streams are reproduced in numpy arrays: seeded by
``_pcg64_states``, decoded by ``_bounded_values`` and
``_stream_values``, and cut into invertible pairs by
``_invertible_pairs``.  So each trial sees exactly the matrices that
the single-draw samplers (``random_boundary``, ``sample_uniform_rank``)
draw from its generator, and every estimate equals that of a
trial-by-trial loop.  The tests pin the seeding, decoding and matrices
to numpy's own SeedSequence, PCG64 and bounded draws, so a change there
fails them instead of silently moving estimates.

The complex experiments read each trial's kernels off its conjugating
matrices (``_kernel_bases``), with no boundary block and no inverse,
and the kernel test searches them without walking a span
(``_light_kernel_hits``).  Draws are held in the smallest unsigned type
holding D - 1; a product of them is widened first
(``mc_uniform_low_weight``) or summed in a type that holds its bound
(``_light_kernel_hits``).  Caps: at most 2**32 trials per run
(``_check_run``), and at most ``gf.ENUMERATION_LIMIT`` coefficient
vectors per kernel search (``_check_light_search``).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

from . import gf
from .complexes import ComplexShape
from .gf import (
    FieldSpec,
    MatGF,
    _check_enumeration,
    _gauss_jordan_batch,
    _mod,
    _table_rank,
    line_blocks,
    rank_batch,
    random_invertible,
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
# Candidates a rejection round cuts per live trial, and the most
# candidate entries a round holds, its redrawn prefixes included; a
# round always cuts at least one candidate per live trial.
_ROUND_CANDIDATES = 6
_ROUND_CELLS = 1 << 18
# Spawn keys are hashed as one 32-bit word, so trial indices stay below
# 2**32.
_TRIALS_LIMIT = 1 << 32
# Most cells (candidates x n x bases) in one block of the light-kernel
# test's products.
_LIGHT_CELLS = 1 << 20


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
        _check_run(self.trials, self.master_seed)
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
        """The cells of ``CSV_COLUMNS``, from the fields and then the
        params, empty where unset; str of a float is its repr."""
        values = {**self.params, **vars(self)}
        return ["" if values.get(col) is None else str(values[col]) for col in CSV_COLUMNS]


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


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes out of range")
    phat = successes / trials
    z = WILSON_Z95
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


def _check_run(trials: int, master_seed: int) -> None:
    """Refuse, before any draw, a run whose trial streams cannot be
    built: no trials, a trial index of 2**32 or more, or a negative
    master seed."""
    if trials < 1:
        raise ValueError("need at least one trial")
    if trials > _TRIALS_LIMIT:
        raise ValueError(f"trials must be at most 2^32 = {_TRIALS_LIMIT}, got {trials}")
    if operator.index(master_seed) < 0:
        raise ValueError(f"master seed must be non-negative, got {master_seed}")


# SeedSequence's hash constants and pool size, as numpy defines them
# (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_MASK32 = (1 << 32) - 1


def _pcg64_states(master_seed: int, start: int, stop: int) -> np.ndarray:
    """The words that seed the PCG64 of ``trial_rng(master_seed, i)`` for
    each i in [start, stop), for master_seed >= 0 and stop <= 2**32: an
    (stop - start, 4) uint64 array whose row for i is
    ``SeedSequence(master_seed, spawn_key=(i,)).generate_state(4, uint64)``.

    SeedSequence(master_seed, spawn_key=(i,)) hashes its entropy words
    into a pool of four uint32: master_seed's w 32-bit words, zero-padded
    to the pool size, then the spawn word i.  Every word before the
    spawn word is the same for each trial, and mixing them leaves the
    pool of SeedSequence(master_seed), which numpy exposes as ``pool``,
    after 4 max(4, w) steps of the hash constant.  Only the spawn word
    and what follows run per trial, for every trial at once in uint32
    arrays: the spawn word is hashed and mixed into each pool word, and
    ``generate_state`` hashes the pool into eight words, which pair into
    four uint64, low word first, as numpy pairs them.
    """
    master_seed = operator.index(master_seed)
    pool = np.random.SeedSequence(master_seed).pool.tolist()
    run_words = max(_POOL_SIZE, -(-master_seed.bit_length() // 32))
    hash_const = _INIT_A * pow(_MULT_A, 4 * run_words, 1 << 32) & _MASK32
    spawn = np.arange(start, stop).astype(np.uint32)
    for dst in range(_POOL_SIZE):
        hashed = spawn ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        hashed *= hash_const
        hashed ^= hashed >> 16
        mixed = (_MIX_MULT_L * pool[dst] & _MASK32) - _MIX_MULT_R * hashed
        pool[dst] = mixed ^ (mixed >> 16)
    hash_const = _INIT_B
    words = np.empty((len(spawn), 8), dtype="<u4")
    for k in range(8):
        value = pool[k % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value *= hash_const
        words[:, k] = value ^ (value >> 16)
    return words.view("<u8").astype(np.uint64, copy=False)


@functools.cache
def _seed_words() -> type:
    """An ``ISeedSequence`` that hands PCG64 the words it holds, defined
    on first use: importing the package leaves numpy.random unloaded."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return SeedWords


def _bounded_values(raw: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's bounded draw in 0..p-1, p < 2**32, on each 32-bit word of
    an (N, k) array of PCG64 outputs: an (N, 2k) array of values, in
    the smallest unsigned type holding p - 1 (uint8 for p <= 256), and a
    same-shape mask of the words kept.

    The words of an output are its low and then its high half, the
    order of PCG64's ``next_uint32``, so they are the uint32 view of the
    outputs.  As in numpy's ``buffered_bounded_lemire_uint32`` (Lemire,
    arXiv:1805.10941), word w gives (w p) >> 32 and is dropped where
    (w p) mod 2**32 is below 2**32 mod p; a word is dropped with
    probability below p / 2**32.  The wrapped uint32 product w p is
    that remainder, and the value is the high half of one uint64
    product, shifted in place, so a word costs one uint64, one bool and
    one narrow value beside the input.
    """
    words = raw.astype("<u8", copy=False).view("<u4")
    kept = np.multiply(words, p, dtype=np.uint32) >= (1 << 32) % p
    high = words.astype(np.uint64)
    high *= p
    high >>= 32
    return high.astype(np.min_scalar_type(p - 1)), kept


def _stream_values(seeds: np.ndarray, p: int, count: int) -> np.ndarray:
    """The first ``count`` values of each stream, as a (len(seeds),
    count) array in the draw dtype of :func:`_bounded_values`, decoded
    from the 32-bit halves of the streams' outputs.

    A stream is what ``Generator.integers(0, p)`` draws from a PCG64
    seeded by a row of ``seeds`` (:func:`_seed_words`), however the
    draws are split into calls: the kept values of
    :func:`_bounded_values` on its outputs, in order.  Each stream's
    outputs come from one ``random_raw`` call;
    when a row keeps fewer than ``count`` values, every stream is drawn
    again with more outputs.
    """
    words = -(-count // 2)
    while True:
        raw = np.empty((len(seeds), words), dtype=np.uint64)
        for row, state in zip(raw, seeds):
            row[:] = np.random.PCG64(_seed_words()(state)).random_raw(words)
        values, kept = _bounded_values(raw, p)
        short = count - int(kept.sum(axis=1).min())
        if short <= 0:
            break
        words += -(-short // 2)
    if not kept.all():
        # Kept values first, each row in stream order.
        values = np.take_along_axis(values, np.argsort(~kept, axis=1, kind="stable"), axis=1)
    return values[:, :count]


def _invertible_pairs(
    field: FieldSpec, n: int, trials: int, master_seed: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """For each chunk of ``_CHUNK`` trials, in trial order, two
    (chunk, n, n) stacks in the draw dtype of :func:`_bounded_values`:
    for trial i, the matrices that two successive
    ``random_invertible(field, n, trial_rng(master_seed, i))`` calls
    return, its first two invertible candidates.  Candidate k of a trial
    is its stream's values k n^2 .. (k + 1) n^2 - 1 in row-major order.

    A round redraws every live stream from its start and cuts the next
    ``_ROUND_CANDIDATES`` candidates (fewer, but at least one, when the
    redraw would pass ``_ROUND_CELLS`` entries), and ranks them all in
    one ``rank_batch``, which takes the narrow values as they are.
    """
    p, cells = field.order, n * n
    for start in range(0, trials, _CHUNK):
        seeds = _pcg64_states(master_seed, start, min(start + _CHUNK, trials))
        pair = np.empty((2, len(seeds), n, n), dtype=np.min_scalar_type(p - 1))
        found = np.zeros(len(seeds), dtype=np.int64)
        live = np.arange(len(seeds))
        lo = 0
        while live.size:
            room = _ROUND_CELLS // (live.size * max(cells, 1)) - lo
            hi = lo + max(1, min(_ROUND_CANDIDATES, room))
            values = _stream_values(seeds[live], p, hi * cells)
            cand = values[:, lo * cells :].reshape(live.size, hi - lo, n, n)
            ranks = rank_batch(cand.reshape(live.size * (hi - lo), n, n), p)
            ok = (ranks == n).reshape(live.size, hi - lo)
            # slot[j, k]: how many invertible candidates trial live[j] has
            # found up to candidate lo + k, minus one.
            slot = found[live, None] + np.cumsum(ok, axis=1) - 1
            row, col = np.nonzero(ok & (slot < 2))
            pair[slot[row, col], live[row]] = cand[row, col]
            found[live] = slot[:, -1] + 1
            live = live[found[live] < 2]
            lo = hi
        yield pair[0], pair[1]


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


def _kernel_bases(
    shape: ComplexShape, field: FieldSpec, trials: int, master_seed: int
) -> Iterator[np.ndarray]:
    """For each chunk of trials, the kernel bases of ``random_boundary``'s
    blocks from each trial's generator: a (2 chunk, t, n) stack, t = H + L,
    whose rows span ker d_mp for each trial and then ker d_pm.

    ``random_boundary`` draws u_plus, then u_minus, with
    ``random_invertible``, and forms d_mp = u_minus d0 u_plus^-1 and
    d_pm = u_plus d0 u_minus^-1 from the standard block d0, whose kernel
    is spanned by e_0 .. e_{t-1}.  So ker d_mp = u_plus ker d0 is spanned
    by the leading t columns of u_plus, and ker d_pm by those of
    u_minus: the bases are those columns, transposed.
    """
    t = shape.H + shape.L
    for u_plus, u_minus in _invertible_pairs(field, shape.n, trials, master_seed):
        yield np.concatenate([u_plus, u_minus])[:, :, :t].transpose(0, 2, 1)


def _coefficient_blocks(
    t: int, p: int, j: int, rows: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Every coefficient vector c in GF(p)^t of weight j whose leading
    nonzero entry is 1, C(t, j) (p - 1)**(j - 1) in all, as pairs
    (supports, values) of at most ``rows`` (>= 1) vectors: a (b, j)
    intp array of supports in ``itertools.combinations`` order and a
    (v, j) int64 array of the values on them, each a 1 and then a tail
    of j - 1 nonzero residues, standing for the b v vectors that put
    each row of values on each support.  A pair holds
    rows // (p - 1)**(j - 1) whole supports, or a run of one support's
    tails when it holds fewer than one."""
    ntails = (p - 1) ** (j - 1)
    powers = (p - 1) ** np.arange(j - 1, dtype=np.int64)
    supports = itertools.combinations(range(t), j)
    while batch := list(itertools.islice(supports, max(1, rows // ntails))):
        idx = np.array(batch, dtype=np.intp)
        for lo in range(0, ntails, rows):
            tails = np.arange(lo, min(lo + rows, ntails), dtype=np.int64)
            values = np.ones((len(tails), j), dtype=np.int64)
            values[:, 1:] += tails[:, None] // powers % (p - 1)
            yield idx, values


def _check_light_search(t: int, p: int, w_max: int) -> None:
    """Refuse a light-vector search over t-row bases whose coefficient
    vectors of weight <= w_max number more than ``gf.ENUMERATION_LIMIT``."""
    count = sum(math.comb(t, j) * (p - 1) ** (j - 1) for j in range(1, min(w_max, t) + 1))
    if count > gf.ENUMERATION_LIMIT:
        raise ValueError(
            f"light-vector search needs {count} coefficient vectors, "
            f"above the limit of {gf.ENUMERATION_LIMIT}"
        )


def _light_kernel_hits(bases: np.ndarray, p: int, w_max: int) -> np.ndarray:
    """For each basis of an (N, t, n) stack of t rows, whether its span
    holds a nonzero vector of weight <= w_max.

    Exact, and with no walk over the span.  ``gf._gauss_jordan_batch``
    reduces every basis once to R, in which the pivot column of each
    nonzero row i is zero outside row i, so c @ R holds c_i at that
    column and wt(c @ R) >= wt(c) over the nonzero rows.  A vector of
    weight <= w_max is therefore c @ R for a c of weight <= w_max, and a
    nonzero multiple of it for a c with leading entry 1: the candidates
    of :func:`_coefficient_blocks` for weights j = 1 .. min(w_max, t).
    A zero c @ R, which only dependent rows give, is no hit.

    Each block of at most ``_LIGHT_CELLS`` // (n N) candidates (at least
    one) is formed for every live basis by one ``einsum``, which sums
    the j support rows of R times their values: j products of residues,
    exact in the smallest unsigned dtype holding w (p - 1)**2,
    w = min(w_max, t), and no multiplication by the zero coefficients.
    A basis drops out at its first hit.  Refused by
    :func:`_check_light_search`.
    """
    nmat, t, n = bases.shape
    hits = np.zeros(nmat, dtype=bool)
    w = min(w_max, t)
    if w < 1 or nmat == 0:
        return hits
    _check_light_search(t, p, w)
    dtype = np.min_scalar_type(w * (p - 1) ** 2)
    # gens[k, :, i] is row k of reduced basis i, so a candidate's vector
    # for every live basis is one sum of rows; weights are counted over
    # the n axis.
    gens = _gauss_jordan_batch(bases.transpose(1, 2, 0), p).astype(dtype)
    live = np.arange(nmat)
    rows = max(1, _LIGHT_CELLS // max(1, n * nmat))
    for j in range(1, w + 1):
        for supports, values in _coefficient_blocks(t, p, j, rows):
            vecs = _mod(np.einsum("vj,bjkl->bvkl", values.astype(dtype), gens[supports]), p)
            weights = np.count_nonzero(vecs, axis=2)
            found = ((weights > 0) & (weights <= w_max)).any(axis=(0, 1))
            if found.any():
                hits[live[found]] = True
                live, gens = live[~found], gens[:, :, ~found]
                if live.size == 0:
                    return hits
    return hits


def mc_low_weight_kernel(cfg: TrialConfig) -> EstimateReport:
    """Probability that the kernel of a random boundary operator
    contains a nonzero vector of weight below c*n.

    The kernel of the full operator is the direct sum of the two sector
    kernels, so the lightest nonzero vector lives entirely in one
    sector; both sector kernels are searched exactly per trial, for
    w_max = ceil(c n) - 1 (:func:`_light_kernel_hits`).  The run is
    refused, before any draw, by :func:`_check_light_search`.
    """
    if cfg.c is None:
        raise ValueError("this experiment needs the weight density c")
    shape = cfg.shape()
    field = cfg.field
    w_max = math.ceil(cfg.c * cfg.n) - 1
    _check_light_search(shape.H + shape.L, field.order, w_max)
    successes = 0
    for bases in _kernel_bases(shape, field, cfg.trials, cfg.master_seed):
        hits = _light_kernel_hits(bases, field.order, w_max).reshape(2, -1)
        successes += int((hits[0] | hits[1]).sum())
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
    for bases in _kernel_bases(shape, field, cfg.trials, cfg.master_seed):
        good = (rank_batch(bases[:, :, :n_prime], field.order) == t).reshape(2, -1)
        successes += int((good[0] & good[1]).sum())
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
    _check_run(trials, master_seed)
    _check_rank(n_prime, rank)
    c_prime = Fraction(c_prime)
    p = field.order
    successes = 0
    for u, v in _invertible_pairs(field, n_prime, trials, master_seed):
        # Widened first: draws are as narrow as uint8, whose products
        # overflow from p = 17 on.
        mats = u[:, :, :rank].astype(np.int64) @ v[:, :rank, :] % p
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
    ``gf.ENUMERATION_LIMIT`` matrices.

    The zero matrix is classified once, and each matrix
    ``gf.line_blocks`` walks stands for its p - 1 multiples."""
    _check_rank(n_prime, rank)
    p = field.order
    cells = n_prime * n_prime
    # Checked before the cells x cells identity basis is built.
    _check_enumeration(p, cells)
    bound = Fraction(c_prime) * n_prime
    hits = stratum = 0
    zero = np.zeros((1, cells), dtype=np.int64)
    lines = line_blocks(np.eye(cells, dtype=np.int64), p)
    for scale, vecs in itertools.chain([(1, zero)], ((p - 1, v) for v in lines)):
        mats = vecs.reshape(len(vecs), n_prime, n_prime)
        in_stratum = _table_rank(mats, p) == rank
        stratum += scale * int(in_stratum.sum())
        if not in_stratum.any():
            continue
        hits += scale * int(_uniform_low_weight(mats[in_stratum], bound).sum())
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
