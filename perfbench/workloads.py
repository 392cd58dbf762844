"""The three workloads of the quditprod benchmark.

A workload is an ordered list of units.  A unit is one closed-loop call
sequence into the library followed by the exact check of its output; it
returns the value that ``freeze.py`` stores as a golden, and raises when
the output is wrong.  ``work`` is the exact amount of work one run of
the unit does, in the workload's own measure: matrices or cycle vectors
rank-classified (census), Monte Carlo trials (mc), or codes built and
checked (codes).  ``calls`` counts the library calls one run of the unit
makes itself, by the span name ``tracing.py`` gives them; the traced run
checks that it saw exactly these calls at the top of its span tree.

Every library function is looked up on its module at call time
(``counting.enumerate_plus_cycle_ranks(...)``), so the tracer in
``tracing.py`` sees each call once it has rebound the module attributes.

Seeds: every sampled input comes from ``master(seed, k)``.  Goldens are
frozen for the seeds listed in ``goldens.json``; under any other seed
(a hold-out seed) the checks that need no frozen value still run.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

# Units per Monte Carlo experiment call in the mc workload.
MC_TRIALS = 100
# Trials of the README's `mc --experiment ulw` step in the codes CLI unit.
CLI_MC_TRIALS = 400
# Factor pairs of the codes workload: (field order, sector dimension n), H = 1.
# Two seeded pairs of each: whether the bounded distance search stops
# early depends on the pair, so one pair per size would make the pass
# time swing with the seed.
CODE_PAIRS = ((3, 3), (3, 5), (5, 5), (3, 7), (3, 9))
PAIRS_PER_CODE = 2
# Seeded good n=3 GF(3) pairs enumerated by the census workload.
CENSUS_PAIRS = 5
# exhaustive_ulw_probability parameters, picked from the seed.
ULW_RANKS = (1, 2, 3)
ULW_CPRIMES = (Fraction(1, 3), Fraction(2, 3))


class CheckFailed(Exception):
    """A unit's output disagrees with its oracle or golden."""


def check(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def master(seed: int, k: int) -> int:
    """Master seed of the k-th sampled input under the benchmark seed."""
    return 1000 * seed + k


@dataclass
class Unit:
    name: str
    work: int
    run: Callable[[], object]
    calls: dict[str, int]


@dataclass
class Workload:
    name: str
    units: list[Unit]
    # Whole passes made by a traced run; fixed so that trace counts repeat.
    trace_passes: int


class Lib:
    """The library's modules, imported by dotted name: the package
    re-exports functions under some module names (``quditprod.product``
    is the function), so attribute access on the package would not
    reach the modules."""

    def __init__(self) -> None:
        import importlib

        for name in ("gf", "complexes", "product", "css", "reduction", "counting", "experiments", "cli"):
            setattr(self, name, importlib.import_module(f"quditprod.{name}"))


def build(name: str, lib: Lib, seed: int, goldens: dict, workdir: str) -> Workload:
    if name == "census":
        return build_census(lib, seed, goldens)
    if name == "mc":
        return build_mc(lib, seed, goldens)
    if name == "codes":
        return build_codes(lib, seed, goldens, workdir)
    raise ValueError(f"unknown workload {name!r}")


def _frozen(goldens: dict, workload: str, seed: int) -> dict | None:
    return goldens.get(workload, {}).get("seeds", {}).get(str(seed))


# --------------------------------------------------------------- census


def ulw_params(seed: int) -> tuple[int, Fraction]:
    return ULW_RANKS[seed % len(ULW_RANKS)], ULW_CPRIMES[(seed // len(ULW_RANKS)) % len(ULW_CPRIMES)]


def build_census(lib: Lib, seed: int, goldens: dict) -> Workload:
    gf, complexes, product, counting, experiments = (
        lib.gf, lib.complexes, lib.product, lib.counting, lib.experiments
    )
    f3, f5 = gf.FieldSpec(3), gf.FieldSpec(5)
    units: list[Unit] = []

    # exhaustive_ulw_probability: 3x3 GF(3), rank and c' chosen by the seed.
    rank, cprime = ulw_params(seed)
    ulw_golden = goldens.get("census", {}).get("ulw", {}).get(f"{rank},{cprime}")
    stratum = counting.count_rank_matrices(3, 3, rank, f3)

    def run_ulw():
        prob = experiments.exhaustive_ulw_probability(f3, 3, rank, cprime)
        check((prob * stratum).denominator == 1, f"ulw probability {prob} not a multiple of 1/{stratum}")
        if ulw_golden is not None:
            check(str(prob) == ulw_golden, f"ulw probability {prob} != golden {ulw_golden}")
        return str(prob)

    units.append(Unit(f"ulw-r{rank}", 3**9, run_ulw, {"experiments.exhaustive_ulw_probability": 1}))

    # enumerate_reduced_cycles on seeded good n=3 GF(3) pairs (3^8 each).
    shape3 = complexes.ComplexShape(3, 1, 1)
    params = lib.reduction.ReductionParams(n=3, n_prime=2)
    pairs = []
    for i in range(2000):
        c1, _, _ = complexes.random_boundary(shape3, f3, experiments.trial_rng(master(seed, 1), i))
        c2, _, _ = complexes.random_boundary(shape3, f3, experiments.trial_rng(master(seed, 2), i))
        if complexes.is_good(c1, 2) and complexes.is_good(c2, 2):
            pairs.append(product.product(c1, c2))
            if len(pairs) == CENSUS_PAIRS:
                break
    check(len(pairs) == CENSUS_PAIRS, f"only {len(pairs)} good pairs in 2000 draws")

    def reduced_unit(pc):
        def run():
            census = counting.enumerate_reduced_cycles(pc, params)
            check(sum(census.values()) == 3**8, "reduced-cycle census does not cover 3^8 vectors")
            for rp in range(3):
                for rm in range(3):
                    want = counting.count_reduced_cycles(3, 2, 1, 1, rp, rm, f3)
                    check(census.get((rp, rm), 0) == want, f"reduced bucket ({rp},{rm}) != {want}")
        return run

    for j, pc in enumerate(pairs):
        units.append(Unit(f"reduced-pair{j}", 3**8, reduced_unit(pc),
                          {"counting.enumerate_reduced_cycles": 1, "counting.closed_form": 9}))

    # enumerate_plus_cycle_ranks on standard products.
    def plus_unit(H, L, field):
        shape = complexes.ComplexShape(H + 2 * L, H, L)
        std = complexes.standard_boundary(shape, field)
        pc = product.product(std, std)
        space = field.order ** len(gf.kernel_basis(pc.complex.d_mp))

        def run():
            census = counting.enumerate_plus_cycle_ranks(pc)
            check(sum(census.values()) == space, "cycle census does not cover the cycle space")
            for rp in range(shape.n + 1):
                for rm in range(shape.n + 1):
                    want = counting.count_cycles_by_rank(H, L, rp, rm, field)
                    check(census.get((rp, rm), 0) == want, f"cycle bucket ({rp},{rm}) != {want}")

        return Unit(f"plus-H{H}L{L}-GF{field.order}", space, run,
                    {"counting.enumerate_plus_cycle_ranks": 1, "counting.closed_form": (shape.n + 1) ** 2})

    # The criterion-5 extension family: identity cores of rank r in the
    # a x b corner, every A x B extension up to 3 x 3.
    def extension_unit(field):
        cases = []
        for a in (1, 2):
            for b in (1, 2):
                for r in range(min(a, b) + 1):
                    core = np.zeros((a, b), dtype=np.int64)
                    core[:r, :r] = np.eye(r, dtype=np.int64)
                    fixed = gf.MatGF(field, core)
                    for big_a in range(a, 4):
                        for big_b in range(b, 4):
                            cases.append((a, b, r, fixed, big_a, big_b))
        work = sum(field.order ** (A * B - a * b) for a, b, _, _, A, B in cases)
        calls = {"counting.brute_count_rank_extensions": len(cases),
                 "counting.closed_form": sum(min(A, B) + 1 for _, _, _, _, A, B in cases)}

        def run():
            for a, b, r, fixed, big_a, big_b in cases:
                hist = counting.brute_count_rank_extensions(field, fixed, big_a, big_b)
                for big_r in range(min(big_a, big_b) + 1):
                    want = counting.count_rank_extensions(a, b, r, big_a, big_b, big_r, field)
                    check(hist.get(big_r, 0) == want,
                          f"extension ({a},{b},{r})->({big_a},{big_b},{big_r}) != {want}")

        return Unit(f"ext-GF{field.order}", work, run, calls)

    # Full matrix spaces through the uncached extension oracle with an
    # empty corner; brute_count_rank_matrices would memoise the histogram.
    def full_unit(field, rows, cols):
        empty = gf.MatGF(field, np.zeros((0, 0), dtype=np.int64))
        space = field.order ** (rows * cols)

        def run():
            hist = counting.brute_count_rank_extensions(field, empty, rows, cols)
            check(sum(hist.values()) == space, "rank census does not cover the matrix space")
            for r in range(min(rows, cols) + 1):
                want = counting.count_rank_matrices(rows, cols, r, field)
                check(hist.get(r, 0) == want, f"rank bucket {r} of {rows}x{cols} != {want}")

        return Unit(f"full-{rows}x{cols}-GF{field.order}", space, run,
                    {"counting.brute_count_rank_extensions": 1, "counting.closed_form": min(rows, cols) + 1})

    units += [
        plus_unit(1, 1, f3),
        extension_unit(f3),
        full_unit(f3, 3, 4),
        plus_unit(2, 0, f5),
        extension_unit(f5),
        full_unit(f5, 3, 3),
    ]
    return Workload("census", units, trace_passes=2)


# ------------------------------------------------------------------- mc


def build_mc(lib: Lib, seed: int, goldens: dict) -> Workload:
    experiments, gf = lib.experiments, lib.gf
    f3 = gf.FieldSpec(3)
    frozen = _frozen(goldens, "mc", seed)
    reference = goldens.get("mc", {}).get("reference_rate", {})
    units: list[Unit] = []

    def mc_unit(name, k, experiment, call):
        first: list[int] = []

        def run():
            rep = call(master(seed, k))
            check(rep.trials == MC_TRIALS and 0 <= rep.successes <= MC_TRIALS,
                  f"{name}: report of {rep.successes}/{rep.trials}")
            if frozen is not None:
                check(rep.successes == frozen[name], f"{name}: {rep.successes} != golden {frozen[name]}")
            elif name in reference:
                # Hold-out seed: the count must lie within six binomial
                # standard deviations of the rate pooled over the frozen seeds.
                p = reference[name]
                band = 6 * math.sqrt(MC_TRIALS * p * (1 - p)) + 1
                check(abs(rep.successes - MC_TRIALS * p) <= band,
                      f"{name}: {rep.successes} outside {MC_TRIALS * p:.1f} +- {band:.1f}")
            if first:
                check(rep.successes == first[0], f"{name}: {rep.successes} differs from first pass {first[0]}")
            else:
                first.append(rep.successes)
            return rep.successes

        return Unit(name, MC_TRIALS, run, {f"experiments.{experiment}": 1})

    for k, n in enumerate((3, 5, 7, 9)):
        def kernel(ms, n=n):
            cfg = experiments.TrialConfig(field=f3, n=n, trials=MC_TRIALS, master_seed=ms, H=1,
                                          c=Fraction(3, 2 * n))
            return experiments.mc_low_weight_kernel(cfg)
        units.append(mc_unit(f"kernel-n{n}", 10 + k, "mc_low_weight_kernel", kernel))

    def goodness(ms):
        cfg = experiments.TrialConfig(field=f3, n=9, trials=MC_TRIALS, master_seed=ms, H=1)
        return experiments.mc_goodness(cfg, 6)

    def ulw(ms):
        return experiments.mc_uniform_low_weight(f3, 4, 2, Fraction(1, 2), MC_TRIALS, ms)

    units.append(mc_unit("goodness-n9", 20, "mc_goodness", goodness))
    units.append(mc_unit("ulw-n4", 21, "mc_uniform_low_weight", ulw))
    return Workload("mc", units, trace_passes=4)


# ---------------------------------------------------------------- codes


def build_codes(lib: Lib, seed: int, goldens: dict, workdir: str) -> Workload:
    gf, complexes, product, css, reduction, experiments = (
        lib.gf, lib.complexes, lib.product, lib.css, lib.reduction, lib.experiments
    )
    frozen = _frozen(goldens, "codes", seed)
    units: list[Unit] = []

    def pair_unit(j, d, n):
        field = gf.FieldSpec(d)
        shape = complexes.ComplexShape.from_hom_dim(n, 1)
        rng_seed = master(seed, 100 + 10 * j + n)
        c1, _, _ = complexes.random_boundary(shape, field, experiments.trial_rng(rng_seed, 0))
        c2, _, _ = complexes.random_boundary(shape, field, experiments.trial_rng(rng_seed, 1))
        params = reduction.ReductionParams(n=n, n_prime=n - 1)
        name = f"pair{j}-GF{d}-n{n}"
        first: list[list] = []

        def run():
            pc = product.product(c1, c2)
            text = complexes.complex_to_text(pc.complex)
            back = complexes.complex_from_text(text)
            check(back.d_pm == pc.complex.d_pm and back.d_mp == pc.complex.d_mp,
                  f"{name}: text round trip changed the complex")
            code = css.extract_css(back)
            check(code.n_phys == 2 * n * n and code.k == 2 and code.stab_weight <= 2 * n,
                  f"{name}: code [[{code.n_phys},{code.k}]] weight {code.stab_weight}")
            check(product.kunneth_check(pc).ok, f"{name}: Kunneth check failed")
            if d == 3 and n == 3:
                rep = css.min_distance(code, mode="exhaustive")
                bounded = css.min_distance(code, mode="bounded", w_max=2)
                for exact, got, lower in ((rep.d_z, bounded.d_z, bounded.d_z_lower),
                                          (rep.d_x, bounded.d_x, bounded.d_x_lower)):
                    agree = got == exact if exact <= 2 else (got is None and lower == 3)
                    check(agree, f"{name}: exhaustive {exact} vs bounded {got}")
            else:
                rep = css.min_distance(code, mode="bounded", w_max=2)
            found = [rep.d_z, rep.d_x, rep.d_z_lower, rep.d_x_lower]
            if frozen is not None:
                check(found == frozen[name], f"{name}: distances {found} != golden {frozen[name]}")
            if first:
                check(found == first[0], f"{name}: distances {found} differ from first pass")
            else:
                first.append(found)
            for c in (c1, c2):
                rc = reduction.reduce(c, params)
                problems = reduction.reduced_kerim_check(rc)
                check(problems == [], f"{name}: reduction check {problems}")
            return found

        calls = {"product.product": 1, "gf.text": 2, "css.extract_css": 1, "product.kunneth_check": 1,
                 "css.min_distance.bounded": 1, "reduction.reduce": 2, "reduction.reduced_kerim_check": 2}
        if d == 3 and n == 3:
            calls["css.min_distance.exhaustive"] = 1
        return Unit(name, 1, run, calls)

    for j in range(PAIRS_PER_CODE):
        units += [pair_unit(j, d, n) for d, n in CODE_PAIRS]
    units.insert(1, cli_unit(lib, seed, frozen, workdir))
    return Workload("codes", units, trace_passes=2)


def cli_unit(lib: Lib, seed: int, frozen: dict | None, workdir: str) -> Unit:
    """The README pipeline, run in-process through ``cli.main``.

    ``count --verify`` is left out: it goes through the memoised
    ``brute_count_rank_matrices``, so every pass after the first would
    time a dict lookup, and the census workload covers those oracles.
    """
    cli, counting, gf, complexes = lib.cli, lib.counting, lib.gf, lib.complexes
    path = {name: os.path.join(workdir, name)
            for name in ("c1.txt", "c2.txt", "prod.txt", "code.json", "dist.json", "red.txt", "ulw.csv")}
    # `reduce` writes its quotient in the text format, which needs equal
    # sector dimensions, i.e. a c1 that is good for n' = 2.  Take the first
    # seed whose sample (drawn as sample-complex draws it) is good.
    f3, shape3 = gf.FieldSpec(3), complexes.ComplexShape(3, 1, 1)
    s1 = master(seed, 40) * 100
    while not complexes.is_good(complexes.random_boundary(shape3, f3, lib.experiments.trial_rng(s1, 0))[0], 2):
        s1 += 1
    s2, s3 = master(seed, 41), master(seed, 42)
    steps = [
        ["sample-complex", "--dim", "3", "--n", "3", "--H", "1", "--seed", str(s1), "--out", path["c1.txt"]],
        ["sample-complex", "--dim", "3", "--n", "3", "--H", "1", "--seed", str(s2), "--out", path["c2.txt"]],
        ["product", "--in1", path["c1.txt"], "--in2", path["c2.txt"], "--out", path["prod.txt"]],
        ["css-extract", "--in", path["prod.txt"], "--out", path["code.json"]],
        ["distance", "--in", path["c1.txt"], "--mode", "exhaustive", "--out", path["dist.json"]],
        ["reduce", "--in", path["c1.txt"], "--nprime", "2", "--out", path["red.txt"], "--check"],
        ["count", "--what", "Z", "--dim", "3", "--H", "1", "--L", "1", "--rplus", "1", "--rminus", "1"],
        ["mc", "--experiment", "ulw", "--dim", "3", "--nprime", "2", "--rank", "1", "--cprime", "1/2",
         "--trials", str(CLI_MC_TRIALS), "--seed", str(s3), "--csv", path["ulw.csv"]],
    ]
    z_count = counting.count_cycles_by_rank(1, 1, 1, 1, f3)
    first: list[str] = []

    def run():
        stdout = {}
        for argv in steps:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                status = cli.main(argv)
            check(status == 0, f"cli {argv[0]} exited {status}: {err.getvalue().strip()}")
            stdout[argv[0]] = out.getvalue()
        code = json.loads(_read(path["code.json"]))
        check((code["n_phys"], code["k"]) == (18, 2) and code["stab_weight"] <= 6,
              f"cli css-extract gave [[{code['n_phys']},{code['k']}]]")
        check(json.loads(stdout["count"])["count"] == z_count, "cli count disagrees with count_cycles_by_rank")
        mc = json.loads(stdout["mc"])
        check(mc["trials"] == CLI_MC_TRIALS and 0 <= mc["successes"] <= CLI_MC_TRIALS, "cli mc report")
        digest = hashlib.sha256()
        for name in sorted(path):
            digest.update(_read(path[name]).encode())
        digest.update(stdout["count"].encode())
        found = digest.hexdigest()
        if frozen is not None:
            check(found == frozen["cli"], "cli outputs differ from the frozen digest")
        if first:
            check(found == first[0], "cli outputs differ from the first pass")
        else:
            first.append(found)
        return found

    return Unit("cli", 1, run, dict(Counter(f"cli.main.{argv[0]}" for argv in steps)))


def _read(p: str) -> str:
    with open(p, encoding="utf-8") as fh:
        return fh.read()
