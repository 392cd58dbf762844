"""Command line entry point.

Subcommands cover the full pipeline.  Every file-producing invocation
also writes ``<out>.manifest.json`` (tool version, subcommand,
parameters, outputs); re-running with the same parameters reproduces
the primary outputs byte for byte (the manifest carries the only
timestamp).  ``count``, ``mc`` and ``distance`` have modes (``--what``
or ``--verify``, ``--experiment``, ``--mode``); ``MODE_FLAGS`` lists the
flags each mode reads, and any flag of another mode is refused.

Exit codes: 0 success; 1 failed verification, bad input data (output
paths and seeds are checked before any work), a size the machine
cannot allocate or a stdout closed early (silently); 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
import time
from dataclasses import asdict
from datetime import datetime, timezone
from fractions import Fraction

import numpy as np

from . import __version__
from .complexes import (
    ComplexShape,
    InvolutiveComplex,
    _shape_of,
    complex_from_text,
    complex_to_text,
    random_boundary,
    standard_boundary,
)
from .counting import (
    brute_count_rank_extensions,
    brute_count_rank_matrices,
    count_cycles_by_rank,
    count_rank_extensions,
    count_rank_matrices,
    count_reduced_cycles,
    enumerate_plus_cycle_ranks,
    enumerate_reduced_cycles,
)
from .css import extract_css, min_distance
from .experiments import (
    TrialConfig,
    csv_text,
    mc_goodness,
    mc_low_weight_kernel,
    mc_uniform_low_weight,
    trial_rng,
)
from .gf import FieldSpec, MatGF, matrix_to_text
from .product import product
from .reduction import ReductionParams, reduce, reduced_kerim_check


def _json(obj: dict) -> str:
    """Every JSON the CLI writes or prints: sorted keys, indent 2 and a
    trailing newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _save(out: str, text: str, subcommand: str, params: dict) -> None:
    """Write ``text``, the output rendered in full, to ``out`` and then
    ``<out>.manifest.json`` naming it.  No other function of the package
    opens a file for writing."""
    manifest = {
        "tool": "quditprod",
        "version": __version__,
        "subcommand": subcommand,
        "parameters": params,
        "outputs": [out],
        "created": datetime.now(timezone.utc).isoformat(),
    }
    for path, body in ((out, text), (out + ".manifest.json", _json(manifest))):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(body)


def _check_args(args) -> None:
    """Refuse, by name and before any work, a negative ``--seed`` and an
    ``--out`` or ``--csv`` that is empty, a directory, or in a directory
    that does not exist."""
    if getattr(args, "seed", 0) < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    for flag in ("out", "csv"):
        path = getattr(args, flag, None)
        if path is None:
            continue
        folder = os.path.dirname(path) or "."
        if not path or os.path.isdir(path) or not os.path.isdir(folder):
            raise ValueError(f"--{flag} {path!r} is not a file in an existing directory")


def _fraction(flag: str, text: str | None) -> Fraction | None:
    """The value of a fraction flag such as ``--rho 1/3``, or None when
    the flag is not given; an empty or zero-denominator value is bad
    input like any other, so it raises ValueError."""
    if text is None:
        return None
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ValueError(f"{flag} {text!r} has a zero denominator") from exc


def _read_complex(path: str) -> InvolutiveComplex:
    with open(path, encoding="utf-8") as fh:
        return complex_from_text(fh.read())


def cmd_sample_complex(args) -> int:
    shape = _shape_of(args.n, args.H, _fraction("--rho", args.rho))
    c, _, _ = random_boundary(shape, FieldSpec(args.dim), trial_rng(args.seed, 0))
    params = {"dim": args.dim, "n": args.n, "H": args.H, "rho": args.rho, "seed": args.seed}
    _save(args.out, complex_to_text(c), "sample-complex", params)
    return 0


def cmd_product(args) -> int:
    pc = product(_read_complex(args.in1), _read_complex(args.in2))
    _save(args.out, complex_to_text(pc.complex), "product", {"in1": args.in1, "in2": args.in2})
    return 0


def cmd_css_extract(args) -> int:
    code = extract_css(_read_complex(args.infile))
    payload = {
        "dim": code.field.order,
        "n_phys": code.n_phys,
        "k": code.k,
        "stab_weight": code.stab_weight,
        "z_gens": matrix_to_text(code.z_gens),
        "x_gens": matrix_to_text(code.x_gens),
    }
    _save(args.out, _json(payload), "css-extract", {"in": args.infile})
    return 0


def cmd_distance(args) -> int:
    given = _mode_flags(args, args.mode, f"distance --mode {args.mode}")
    code = extract_css(_read_complex(args.infile))
    started = time.perf_counter()
    report = min_distance(code, mode=args.mode, w_max=args.wmax)
    elapsed = time.perf_counter() - started
    payload = {
        "n_phys": code.n_phys,
        "k": code.k,
        "stab_weight": code.stab_weight,
        **asdict(report),
    }
    if args.out is not None:
        # The saved report is deterministic; timing goes to stdout only.
        _save(args.out, _json(payload), "distance", {"in": args.infile, "mode": args.mode, **given})
    if args.json or args.out is None:
        print(_json({**payload, "elapsed": elapsed}), end="")
    return 0


def cmd_reduce(args) -> int:
    c = _read_complex(args.infile)
    params = ReductionParams(n=c.dim_plus, n_prime=args.nprime)
    rc = reduce(c, params)
    if args.check:
        problems = reduced_kerim_check(rc)
        if problems:
            for item in problems:
                print(f"check failed: {item}", file=sys.stderr)
            return 1
    params = {"in": args.infile, "nprime": args.nprime, "check": bool(args.check)}
    _save(args.out, complex_to_text(rc.quotient), "reduce", params)
    return 0


def _verify_counts(field: FieldSpec) -> tuple[list[str], int]:
    """Closed forms vs brute-force enumeration at smoke-test sizes: the
    mismatches, and how many instances an oracle refused.  Each oracle
    refuses with ValueError, before any enumeration, above the
    enumeration cap or the subspace-table cap."""
    failures: list[str] = []
    skipped = 0

    def compare(label: str, census, form, keys) -> None:
        # form(key) against the histogram census() returns, at each key;
        # both are called here, before the caller's loop moves on.
        nonlocal skipped
        try:
            hist = census()
        except ValueError:
            skipped += 1
            return
        for key in keys:
            got, expected = form(key), hist.get(key, 0)
            if got != expected:
                failures.append(f"{label.format(key)}: {got} != {expected}")

    for A in range(1, 4):
        for B in range(1, 4):
            compare(f"rank count ({A},{B},{{}})", lambda: brute_count_rank_matrices(field, A, B),
                    lambda R: count_rank_matrices(A, B, R, field), range(min(A, B) + 1))
    for a, b in itertools.product(range(1, 3), repeat=2):
        for r in range(0, min(a, b) + 1):
            core = np.zeros((a, b), dtype=np.int64)
            core[:r, :r] = np.eye(r, dtype=np.int64)
            fixed = MatGF(field, core, _reduced=True)
            for A, B in itertools.product(range(a, 4), range(b, 4)):
                compare(f"extension count ({a},{b},{r})->({A},{B},{{}})",
                        lambda: brute_count_rank_extensions(field, fixed, A, B),
                        lambda R: count_rank_extensions(a, b, r, A, B, R, field),
                        range(min(A, B) + 1))
    # The standard (3, 1, 1) product: its plus-sector cycles, and its
    # reduced cycles at n' = 2.
    std = standard_boundary(ComplexShape(n=3, H=1, L=1), field)
    pc = product(std, std)
    compare("cycle count (1,1,{0[0]},{0[1]})", lambda: enumerate_plus_cycle_ranks(pc),
            lambda key: count_cycles_by_rank(1, 1, *key, field),
            itertools.product(range(4), repeat=2))
    compare("reduced cycle count (3,2,1,1,{0[0]},{0[1]})",
            lambda: enumerate_reduced_cycles(pc, ReductionParams(n=3, n_prime=2)),
            lambda key: count_reduced_cycles(3, 2, 1, 1, *key, field),
            itertools.product(range(3), repeat=2))
    return failures, skipped


# The flags each mode reads, besides the subcommand's common flags:
# (required, optional).  A flag another mode of the same subcommand
# reads is refused.  count passes its flags to the closed form in this
# order, with the field last.
MODE_FLAGS = {
    "count": {
        "E": (("A", "B", "R"), ()),
        "Eext": (("a", "b", "r", "A", "B", "R"), ()),
        "Z": (("H", "L", "rplus", "rminus"), ()),
        "Gamma": (("n", "nprime", "H", "L", "Rplus", "Rminus"), ()),
        "verify": ((), ()),
    },
    "mc": {
        "kernel": (("n", "c"), ("H", "rho")),
        "goodness": (("n", "nprime"), ("H", "rho")),
        "ulw": (("nprime", "rank", "cprime"), ()),
    },
    "distance": {
        "exhaustive": ((), ()),
        "bounded": (("wmax",), ()),
    },
}

_COUNTS = {
    "E": count_rank_matrices,
    "Eext": count_rank_extensions,
    "Z": count_cycles_by_rank,
    "Gamma": count_reduced_cycles,
}


def _mode_flags(args, mode: str, label: str) -> dict:
    """The flags of ``mode`` given in args, in table order.  Raises
    ValueError, naming them, for a flag of another mode or a missing
    required flag; ``label`` names the mode in the message."""
    modes = MODE_FLAGS[args.command]
    required, optional = modes[mode]
    every = {flag for flags in modes.values() for group in flags for flag in group}
    extra = sorted(f for f in every - {*required, *optional} if getattr(args, f) is not None)
    if extra:
        raise ValueError(f"{label} does not take {', '.join(f'--{f}' for f in extra)}")
    missing = [f for f in required if getattr(args, f) is None]
    if missing:
        raise ValueError(f"{label} needs {', '.join(f'--{f}' for f in missing)}")
    return {f: getattr(args, f) for f in (*required, *optional) if getattr(args, f) is not None}


def cmd_count(args) -> int:
    field = FieldSpec(args.dim)
    if args.verify:
        if args.what is not None:
            raise ValueError("count --verify does not take --what")
        _mode_flags(args, "verify", "count --verify")
        failures, skipped = _verify_counts(field)
        if failures:
            for item in failures:
                print(f"mismatch: {item}", file=sys.stderr)
            return 1
        note = f" ({skipped} enumerations over the enumeration or subspace-table cap skipped)"
        print("all count oracles agree" + (note if skipped else ""))
        return 0
    if args.what is None:
        raise ValueError(f"--what is required (one of {', '.join(_COUNTS)})")
    params = _mode_flags(args, args.what, f"count --what {args.what}")
    value = _COUNTS[args.what](*params.values(), field)
    # An exact count can pass Python's int-to-str digit limit (3.11+),
    # so the limit is lifted for this print only.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        print(_json({"what": args.what, "dim": args.dim, "params": params, "count": value}), end="")
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    return 0


def cmd_mc(args) -> int:
    field = FieldSpec(args.dim)
    given = _mode_flags(args, args.experiment, f"{args.experiment} experiment")
    if args.experiment == "ulw":
        report = mc_uniform_low_weight(
            field, args.nprime, args.rank, _fraction("--cprime", args.cprime), args.trials,
            args.seed,
        )
    else:
        # MODE_FLAGS refuses --c for goodness, so c is None there.
        cfg = TrialConfig(
            field=field, n=args.n, trials=args.trials, master_seed=args.seed, H=args.H,
            rho=_fraction("--rho", args.rho), c=_fraction("--c", args.c),
        )
        if args.experiment == "kernel":
            report = mc_low_weight_kernel(cfg)
        else:
            report = mc_goodness(cfg, args.nprime)
    if args.csv is not None:
        # Every flag given, as its command-line string: the manifest's
        # parameters are the argv that re-runs this CSV.
        params = {"experiment": args.experiment, "dim": args.dim, "trials": args.trials,
                  "seed": args.seed, **{f: str(v) for f, v in given.items()}}
        _save(args.csv, csv_text([report]), "mc", params)
    payload = asdict(report)
    payload["params"] = {k: str(v) for k, v in report.params.items() if v is not None}
    print(_json(payload), end="")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quditprod",
        description="Homological product CSS codes for prime-dimensional qudits",
    )
    parser.add_argument("--version", action="version", version=f"quditprod {__version__}")
    sub = parser.add_subparsers(dest="command")

    def add_mode_flags(command_parser: argparse.ArgumentParser, command: str) -> None:
        # Each flag of MODE_FLAGS[command] once, in table order: the
        # fractions as text, the rest as int.
        modes = MODE_FLAGS[command].values()
        for flag in dict.fromkeys(f for flags in modes for group in flags for f in group):
            kind = str if flag in ("rho", "c", "cprime") else int
            command_parser.add_argument(f"--{flag}", type=kind, default=None)

    sc = sub.add_parser("sample-complex", help="sample a random complex and write it to a file")
    sc.add_argument("--dim", type=int, required=True, help="field order (odd prime)")
    sc.add_argument("--n", type=int, required=True, help="sector dimension")
    sc.add_argument("--H", type=int, default=None, help="homology dimension per sector")
    sc.add_argument("--rho", default=None, help="homology fraction, e.g. 1/3")
    sc.add_argument("--seed", type=int, required=True)
    sc.add_argument("--out", required=True)
    sc.set_defaults(func=cmd_sample_complex)

    pr = sub.add_parser("product", help="product of two complexes")
    pr.add_argument("--in1", required=True)
    pr.add_argument("--in2", required=True)
    pr.add_argument("--out", required=True)
    pr.set_defaults(func=cmd_product)

    ce = sub.add_parser("css-extract", help="extract the CSS code of a complex")
    ce.add_argument("--in", dest="infile", required=True)
    ce.add_argument("--out", required=True)
    ce.set_defaults(func=cmd_css_extract)

    di = sub.add_parser("distance", help="exact code distances")
    di.add_argument("--in", dest="infile", required=True)
    di.add_argument("--mode", choices=list(MODE_FLAGS["distance"]), default="exhaustive")
    add_mode_flags(di, "distance")
    di.add_argument("--json", action="store_true", help="print the report to stdout")
    di.add_argument("--out", default=None, help="write the deterministic report here")
    di.set_defaults(func=cmd_distance)

    re_ = sub.add_parser("reduce", help="reduce a complex to its leading n' coordinates")
    re_.add_argument("--in", dest="infile", required=True)
    re_.add_argument("--nprime", type=int, required=True)
    re_.add_argument("--out", required=True)
    re_.add_argument("--check", action="store_true", help="verify kernel/image identities")
    re_.set_defaults(func=cmd_reduce)

    co = sub.add_parser("count", help="exact rank-enumeration counts")
    co.add_argument("--what", choices=list(_COUNTS), default=None)
    co.add_argument("--dim", type=int, default=3)
    co.add_argument("--verify", action="store_true",
                    help="compare closed forms against brute force and exit")
    add_mode_flags(co, "count")
    co.set_defaults(func=cmd_count)

    mc = sub.add_parser("mc", help="seeded Monte Carlo experiments")
    mc.add_argument("--experiment", choices=list(MODE_FLAGS["mc"]), required=True)
    mc.add_argument("--dim", type=int, required=True)
    add_mode_flags(mc, "mc")
    mc.add_argument("--trials", type=int, required=True)
    mc.add_argument("--seed", type=int, required=True)
    mc.add_argument("--csv", default=None)
    mc.set_defaults(func=cmd_mc)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help()
        return 2
    try:
        _check_args(args)
        code = args.func(args)
        # Flushed here so that a closed stdout is caught below.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early, which is not bad input.  Point
        # stdout at devnull so the interpreter's final flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError, MemoryError) as exc:
        # A MemoryError raised by Python itself carries no message.
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
