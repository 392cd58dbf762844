"""Acceptance suite: one test per criterion, one summary line each.

Each test computes its verdict, records it in RESULTS (the conftest
summary hook prints one line per criterion after the run), and then
asserts it.  Every random draw is seeded, so all recorded numbers are
exact reproducible constants, frozen here after being computed by
independent means first.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction

import numpy as np

from quditprod import (
    ComplexShape,
    FieldSpec,
    MatGF,
    ReductionParams,
    TrialConfig,
    brute_count_rank_extensions,
    brute_count_rank_matrices,
    count_cycles_by_rank,
    count_rank_extensions,
    count_rank_matrices,
    count_reduced_cycles,
    enumerate_plus_cycle_ranks,
    enumerate_reduced_cycles,
    extract_css,
    flip_sectors,
    is_good,
    kernel_basis,
    kunneth_check,
    mc_low_weight_kernel,
    mc_uniform_low_weight,
    min_distance,
    product,
    random_boundary,
    reduce,
    reduced_kerim_check,
    standard_boundary,
    trial_rng,
    validate,
    vanishing_reduced_implies_boundary,
)
from quditprod import gf
from quditprod.cli import main as cli_main

from support import FIELD3, FIELD5, SHAPE3, distance3_complex, good_complexes

RESULTS: dict[int, tuple[str, bool, str]] = {}


def _record(num: int, name: str, ok: bool, detail: str = "") -> None:
    RESULTS[num] = (name, ok, detail)
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"criterion {num:2d} [{name}]: {status}{suffix}")
    assert ok, f"criterion {num} [{name}] failed: {detail}"


def test_criterion_01_sampler_validity():
    """Random complexes and their products satisfy every structural
    invariant across dimensions and field orders."""
    started = time.perf_counter()
    shapes = {3: ComplexShape(3, 1, 1), 4: ComplexShape(4, 2, 1), 5: ComplexShape(5, 1, 2)}
    factors_checked = 0
    products_checked = 0
    ok = True
    for di, d in enumerate((3, 5, 7)):
        field = FieldSpec(d)
        for n, shape in shapes.items():
            seed = 1000 + 10 * di + n
            drawn = []
            for i in range(100):
                c, _, _ = random_boundary(shape, field, trial_rng(seed, i))
                ok = ok and validate(c) == []
                drawn.append(c)
                factors_checked += 1
            for i in range(50):
                pc = product(drawn[2 * i], drawn[2 * i + 1])
                ok = ok and validate(pc.complex) == []
                products_checked += 1
    elapsed = time.perf_counter() - started
    _record(
        1,
        "sampler-validity",
        ok,
        f"{factors_checked} factors and {products_checked} products valid, {elapsed:.1f}s",
    )


def test_criterion_02_code_parameters():
    """Products of two n=3, H=1 factors give [[18, 2]] codes with
    stabiliser weight at most 6, independent of the field order."""
    ok = True
    weights = []
    for d in (3, 5):
        field = FieldSpec(d)
        std = standard_boundary(SHAPE3, field)
        c1, _, _ = random_boundary(SHAPE3, field, trial_rng(2100 + d, 0))
        c2, _, _ = random_boundary(SHAPE3, field, trial_rng(2100 + d, 1))
        for pc in (product(std, std), product(c1, c2)):
            code = extract_css(pc.complex)
            ok = ok and code.n_phys == 18 and code.k == 2 and code.stab_weight <= 6
            weights.append(code.stab_weight)
    _record(
        2,
        "code-parameters",
        ok,
        f"[[18, 2]] over GF(3) and GF(5), stab weights {sorted(set(weights))}",
    )


def test_criterion_03_kunneth_rank():
    """Sector homology of a product obeys the rank formula
    h+ = h1+h2+ + h1-h2- on a grid of factor homology dimensions."""
    n_for = {0: 2, 1: 3, 2: 4}
    checked = 0
    ok = True
    for h1 in range(3):
        for h2 in range(3):
            shape1 = ComplexShape.from_hom_dim(n_for[h1], h1)
            shape2 = ComplexShape.from_hom_dim(n_for[h2], h2)
            seed = 3000 + 10 * h1 + h2
            for i in range(20):
                c1, _, _ = random_boundary(shape1, FIELD3, trial_rng(seed, 2 * i))
                c2, _, _ = random_boundary(shape2, FIELD3, trial_rng(seed, 2 * i + 1))
                rep = kunneth_check(product(c1, c2))
                ok = ok and rep.ok and rep.h_plus == 2 * h1 * h2
                checked += 1
    _record(3, "kunneth-rank", ok, f"{checked} products over a 3x3 homology grid")


def test_criterion_04_reduction_identities():
    """Reduction of good complexes: the quotient is a valid involutive
    complex of sector dimension 2n' - n and the kernel/image identities
    hold on every instance."""
    cases = [(ComplexShape(3, 1, 1), 2, 34), (ComplexShape(4, 2, 1), 3, 33),
             (ComplexShape(5, 1, 2), 3, 33)]
    checked = 0
    ok = True
    for shape, n_prime, count in cases:
        for c in good_complexes(shape, FIELD3, n_prime, 4000 + shape.n, count):
            rc = reduce(c, ReductionParams(n=shape.n, n_prime=n_prime))
            k = 2 * n_prime - shape.n
            ok = ok and rc.quotient.dim_plus == k and rc.quotient.dim_minus == k
            ok = ok and validate(rc.quotient) == []
            ok = ok and reduced_kerim_check(rc) == []
            checked += 1
    _record(4, "reduction-identities", ok, f"{checked} good complexes across three shapes")


def test_criterion_05_count_oracles(monkeypatch):
    """Closed-form counts equal brute-force enumeration on every
    instance within the enumeration limit, including the full 4x4
    census over GF(3), and rank counts partition the matrix space."""
    started = time.perf_counter()
    ok = True
    instances = 0

    for d in (3, 5, 7, 11):
        field = FieldSpec(d)
        for a in range(1, 9):
            for b in range(1, 9):
                total = sum(count_rank_matrices(a, b, r, field) for r in range(min(a, b) + 1))
                ok = ok and total == d ** (a * b)
                instances += 1

    for d in (3, 5, 7, 11):
        field = FieldSpec(d)
        for a in range(1, 5):
            for b in range(1, 5):
                space = d ** (a * b)
                if space > gf.ENUMERATION_LIMIT and (d, a, b) != (3, 4, 4):
                    continue
                # the 4x4 GF(3) census (3^16 matrices) is the largest
                # instance run, with the enumeration limit raised for it
                with monkeypatch.context() as mp:
                    mp.setattr(gf, "ENUMERATION_LIMIT", max(space, gf.ENUMERATION_LIMIT))
                    hist = brute_count_rank_matrices(field, a, b)
                for r in range(min(a, b) + 1):
                    ok = ok and hist.get(r, 0) == count_rank_matrices(a, b, r, field)
                    instances += 1

    for d in (3, 5):
        field = FieldSpec(d)
        for a in (1, 2):
            for b in (1, 2):
                for r in range(min(a, b) + 1):
                    core = np.zeros((a, b), dtype=np.int64)
                    core[:r, :r] = np.eye(r, dtype=np.int64)
                    fixed = MatGF(field, core)
                    for big_a in range(a, 4):
                        for big_b in range(b, 4):
                            hist = brute_count_rank_extensions(field, fixed, big_a, big_b)
                            for big_r in range(min(big_a, big_b) + 1):
                                expected = hist.get(big_r, 0)
                                got = count_rank_extensions(a, b, r, big_a, big_b, big_r, field)
                                ok = ok and got == expected
                                instances += 1

    census_cases = [(1, 1, 3), (0, 1, 3), (2, 0, 3), (0, 1, 5), (1, 1, 5)]
    for h, l, d in census_cases:
        field = FieldSpec(d)
        shape = ComplexShape(h + 2 * l, h, l)
        census = enumerate_plus_cycle_ranks(product(standard_boundary(shape, field),
                                                    standard_boundary(shape, field)))
        n = shape.n
        for rp in range(n + 1):
            for rm in range(n + 1):
                ok = ok and census.get((rp, rm), 0) == count_cycles_by_rank(h, l, rp, rm, field)
                instances += 1
    elapsed = time.perf_counter() - started
    _record(5, "count-oracles", ok, f"{instances} instances agree, {elapsed:.0f}s")


def test_criterion_06_reduced_cycle_census():
    """The reduced-cycle count matches brute-force enumeration bucket by
    bucket on products of independently drawn good factor pairs."""
    ok = True
    pairs = 0
    i = 0
    while pairs < 5 and i < 200:
        c1, _, _ = random_boundary(SHAPE3, FIELD3, trial_rng(500, i))
        c2, _, _ = random_boundary(SHAPE3, FIELD3, trial_rng(501, i))
        i += 1
        if not (is_good(c1, 2) and is_good(c2, 2)):
            continue
        census = enumerate_reduced_cycles(product(c1, c2), ReductionParams(n=3, n_prime=2))
        ok = ok and sum(census.values()) == 3**8
        for rp in range(3):
            for rm in range(3):
                expected = count_reduced_cycles(3, 2, 1, 1, rp, rm, FIELD3)
                ok = ok and census.get((rp, rm), 0) == expected
        pairs += 1
    ok = ok and pairs == 5
    _record(6, "reduced-cycle-census", ok, f"{pairs} good pairs, all 9 buckets each")


def test_criterion_07_cycle_space_totals():
    """Summed over all rank pairs, the cycle count equals the size of
    the plus-sector cycle space computed by linear algebra."""
    ok = True
    cases = []
    for d in (3, 5):
        field = FieldSpec(d)
        for h, l in ((1, 1), (0, 1), (2, 1)):
            shape = ComplexShape(h + 2 * l, h, l)
            pc = product(standard_boundary(shape, field), standard_boundary(shape, field))
            t = len(kernel_basis(pc.complex.d_mp))
            n = shape.n
            total = sum(
                count_cycles_by_rank(h, l, rp, rm, field)
                for rp in range(n + 1)
                for rm in range(n + 1)
            )
            ok = ok and total == d**t
            cases.append(f"D={d},H={h},L={l}:D^{t}")
    _record(7, "cycle-space-totals", ok, "; ".join(cases))


def test_criterion_08_distance_agreement():
    """Exhaustive and weight-bounded distance searches agree on seeded
    [[18, 2]] product codes, with frozen exact distances."""
    ok = True
    found = []
    std = standard_boundary(SHAPE3, FIELD3)
    expected = {None: (1, 1), 41: (1, 1), 42: (2, 1), 43: (1, 2)}
    for seed, want in expected.items():
        if seed is None:
            pc = product(std, std)
        else:
            c1, _, _ = random_boundary(SHAPE3, FIELD3, trial_rng(seed, 0))
            c2, _, _ = random_boundary(SHAPE3, FIELD3, trial_rng(seed, 1))
            pc = product(c1, c2)
        code = extract_css(pc.complex)
        ok = ok and (code.x_gens @ code.z_gens).is_zero()
        rep = min_distance(code, mode="exhaustive")
        repb = min_distance(code, mode="bounded", w_max=3)
        got = (rep.d_z, rep.d_x)
        ok = ok and got == want == (repb.d_z, repb.d_x)
        found.append(got)
    _record(8, "distance-agreement", ok, f"distances {found} in both modes")


def test_criterion_09_vanishing_reduced_lemma():
    """Factor pairs whose codes have distance 3 on every side: each
    cycle vanishing on seeded n'-support blocks is a boundary.  20
    pairs, 10 support choices each, full joint kernel every time."""
    started = time.perf_counter()
    ok = True
    instances = 0
    cycles_checked = 0
    for i in range(20):
        c1 = distance3_complex(trial_rng(300, i))
        c2 = distance3_complex(trial_rng(400, i))
        for c in (c1, c2):
            for cc in (c, flip_sectors(c)):
                rep = min_distance(extract_css(cc), mode="exhaustive")
                ok = ok and min(rep.d_z, rep.d_x) >= 3
        pc = product(c1, c2)
        cx = pc.complex
        for j in range(10):
            srng = trial_rng(302, 10 * i + j)
            rows_p, cols_p, rows_m, cols_m = (
                np.sort(srng.permutation(5)[:4]) for _ in range(4)
            )
            sel = []
            for r in rows_p:
                for c_ in cols_p:
                    row = np.zeros(50, dtype=np.int64)
                    row[r * 5 + c_] = 1
                    sel.append(row)
            for r in rows_m:
                for c_ in cols_m:
                    row = np.zeros(50, dtype=np.int64)
                    row[25 + r * 5 + c_] = 1
                    sel.append(row)
            stacked = MatGF(FIELD5, np.vstack([cx.d_mp.data, np.array(sel)]))
            joint = kernel_basis(stacked)
            ok = ok and len(joint) >= 1
            for h in joint:
                ok = ok and vanishing_reduced_implies_boundary(
                    pc, h, rows_p, cols_p, rows_m, cols_m
                )
                cycles_checked += 1
            combo = sum((k + 2) * v for k, v in enumerate(joint)) % 5
            ok = ok and vanishing_reduced_implies_boundary(
                pc, combo, rows_p, cols_p, rows_m, cols_m
            )
            instances += 1
    elapsed = time.perf_counter() - started
    _record(
        9,
        "vanishing-reduced-lemma",
        ok,
        f"{instances} instances, {cycles_checked} kernel cycles, {elapsed:.1f}s",
    )


def test_criterion_10_rare_event_experiments():
    """Monte Carlo harnesses recover ground truth: Wilson intervals
    cover the exact low-weight probability, and the light-kernel
    probability decays in n with separated intervals."""
    started = time.perf_counter()
    truth = 0.25
    covered = 0
    for seed in range(100):
        rep = mc_uniform_low_weight(FIELD3, 2, 1, Fraction(1, 2), 200, seed)
        if rep.wilson_low <= truth <= rep.wilson_high:
            covered += 1
    ok = covered >= 93

    sweep = []
    for n in (3, 5, 7, 9):
        cfg = TrialConfig(
            field=FIELD3, n=n, trials=10**4, master_seed=2024, H=1, c=Fraction(3, 2 * n)
        )
        sweep.append(mc_low_weight_kernel(cfg))
    successes = [r.successes for r in sweep]
    ok = ok and successes == [9113, 6864, 4129, 1963]
    for hi, lo in zip(sweep, sweep[1:]):
        # decay must be resolved: intervals strictly separated
        ok = ok and hi.wilson_low > lo.wilson_high
    elapsed = time.perf_counter() - started
    _record(
        10,
        "rare-event-experiments",
        ok,
        f"coverage {covered}/100, sweep {successes}, {elapsed:.0f}s",
    )


def test_criterion_11_cli_reproducibility(tmp_path):
    """The full CLI pipeline, run twice, produces byte-identical primary
    outputs; only the manifests carry timestamps."""

    def pipeline(root):
        root.mkdir()
        c1 = root / "c1.txt"
        c2 = root / "c2.txt"
        prod = root / "prod.txt"
        code = root / "code.json"
        dist = root / "dist.json"
        red = root / "red.txt"
        csv = root / "ulw.csv"
        steps = [
            ["sample-complex", "--dim", "3", "--n", "3", "--H", "1",
             "--seed", "5", "--out", str(c1)],
            ["sample-complex", "--dim", "3", "--n", "3", "--H", "1",
             "--seed", "0", "--out", str(c2)],
            ["product", "--in1", str(c1), "--in2", str(c2), "--out", str(prod)],
            ["css-extract", "--in", str(prod), "--out", str(code)],
            ["distance", "--in", str(c1), "--out", str(dist)],
            ["reduce", "--in", str(c2), "--nprime", "2", "--out", str(red), "--check"],
            ["mc", "--experiment", "ulw", "--dim", "3", "--nprime", "2", "--rank", "1",
             "--cprime", "1/2", "--trials", "50", "--seed", "21", "--csv", str(csv)],
        ]
        for step in steps:
            if cli_main(step) != 0:
                return None
        return [c1, c2, prod, code, dist, red, csv]

    first = pipeline(tmp_path / "run1")
    second = pipeline(tmp_path / "run2")
    ok = first is not None and second is not None
    compared = 0
    if ok:
        for f1, f2 in zip(first, second):
            ok = ok and f1.read_bytes() == f2.read_bytes()
            manifest = f1.parent / (f1.name + ".manifest.json")
            ok = ok and json.loads(manifest.read_text())["tool"] == "quditprod"
            compared += 1
    _record(11, "cli-reproducibility", ok, f"{compared} outputs byte-identical across runs")
