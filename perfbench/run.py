"""quditprod benchmark: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload census|mc|codes --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``.  The lines before it
are a human-readable summary and the environment record.

``--trace 0`` repeats whole passes over the workload's units until
``--seconds`` have passed and reports the end-to-end metrics:

- ``work_per_s``: the work of one pass (matrices or cycle vectors
  rank-classified on census, trials on mc, codes on codes) over the
  pass's time at the host's usual speed.  The host's speed moves by up
  to 2x within seconds, so a reference kernel of ``reference.py`` is
  timed before every unit and once at the end; each unit's time is
  divided by the mean of the kernel times on either side of it, the
  pass time is the sum of each unit's median ratio times the kernels'
  nominal time (README.md has the measured spreads);
- ``setup_s``: the import of the library and the benchmark's own modules
  (numpy is imported first and timed apart: it is the same for every
  commit and was the noisiest part), plus the median of nine set-ups
  (inputs, goldens and one warm-up unit), each scaled by the reference
  kernel in the same way;
- ``peak_rss_mb``: ``getrusage`` maximum resident set of this process.

``--trace 1`` runs the workload's fixed number of passes, each once
untraced and once with the tracer of ``tracing.py`` installed, reports the
per-layer metrics listed in BENCHMARK.json and writes every span and
every per-layer figure to ``.perfbench/trace-<workload>-seed<N>.json``.
A traced pass counts a failure when the library calls it saw at the top
of the span tree differ from the calls the workload's units make, and
the run stops with exit 2 when BENCHMARK.json lists a per-layer name the
tracer cannot produce.
"""

import argparse
import collections
import hashlib
import json
import os
import resource
import shutil
import sys
import tempfile
import time

# Before numpy is imported: one BLAS thread, and the default distance budget.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("QUDITPROD_BUDGET", None)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_REPS = 9


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("census", "mc", "codes"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


class Runner:
    """Runs units, keeps per-unit durations and counts failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.times: dict[str, list[float]] = {}

    def run(self, unit) -> float:
        self.attempted += 1
        started = time.perf_counter()
        try:
            unit.run()
        except Exception as exc:  # a unit that raises counts as failed
            self.failed += 1
            print(f"unit {unit.name} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        elapsed = time.perf_counter() - started
        self.times.setdefault(unit.name, []).append(elapsed)
        return elapsed

    def run_pass(self, units) -> float:
        started = time.perf_counter()
        for unit in units:
            self.run(unit)
        return time.perf_counter() - started


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read from .git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """sha256 over the library sources, which names the code measured
    when the checkout is not a git work tree."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "quditprod")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def environment(args, numpy, load_start) -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "load1_start": load_start,
        "load1_end": os.getloadavg()[0],
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    load_start = os.getloadavg()[0]
    if not os.path.isfile(os.path.join(SRC, "quditprod", "__init__.py")):
        print(f"error: no quditprod sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(1, HERE)
    started = time.perf_counter()
    import numpy

    numpy_s = time.perf_counter() - started
    started = time.perf_counter()
    import quditprod
    import reference
    import workloads

    if os.path.dirname(os.path.abspath(quditprod.__file__)) != os.path.join(SRC, "quditprod"):
        print(f"error: quditprod imported from {quditprod.__file__}, not {SRC}", file=sys.stderr)
        return 2
    lib = workloads.Lib()
    with open(os.path.join(HERE, "goldens.json"), encoding="utf-8") as fh:
        goldens_text = fh.read()
    import_s = time.perf_counter() - started

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    runner = Runner()
    try:
        if args.trace:
            goldens = json.loads(goldens_text)
            wl = workloads.build(args.workload, lib, args.seed, goldens, workdir)
            runner.run(wl.units[0])
            return traced(args, lib, quditprod, wl, runner, numpy, load_start)
        ref = reference.Reference(args.workload)
        ref_before = ref_first = ref.time()
        setups, setup_ratios = [], []
        for _ in range(SETUP_REPS):
            started = time.perf_counter()
            goldens = json.loads(goldens_text)
            wl = workloads.build(args.workload, lib, args.seed, goldens, workdir)
            runner.run(wl.units[0])
            setups.append(time.perf_counter() - started)
            ref_after = ref.time()
            setup_ratios.append(setups[-1] / ((ref_before + ref_after) / 2))
            ref_before = ref_after
        raw_setup_s = import_s + median(setups)
        setup_s = ref.nominal_s * (import_s / ref_first + median(setup_ratios))
        # (unit name, seconds, reference seconds right before the unit)
        samples: list[tuple[str, float, float]] = []
        deadline = time.perf_counter() + args.seconds
        runner.times.clear()
        i = 0
        while i < len(wl.units) or time.perf_counter() < deadline:
            before = ref.time()
            unit = wl.units[i % len(wl.units)]
            samples.append((unit.name, runner.run(unit), before))
            i += 1
        refs = [r for _, _, r in samples] + [ref.time()]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ratios: dict[str, list[float]] = {}
    for k, (name, seconds, before) in enumerate(samples):
        ratios.setdefault(name, []).append(seconds / ((before + refs[k + 1]) / 2))
    pass_work = sum(u.work for u in wl.units)
    pass_s = ref.nominal_s * sum(median(ratios[u.name]) for u in wl.units)
    raw_pass_s = sum(median(runner.times[u.name]) for u in wl.units)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "work_per_s": {"value": pass_work / pass_s, "unit": "1/s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    measure = {"census": "matrices_per_s", "mc": "trials_per_s", "codes": "codes_per_s"}[args.workload]
    print(
        f"{args.workload} seed {args.seed}: {measure} {pass_work / pass_s:.6g} 1/s "
        f"(unscaled {pass_work / raw_pass_s:.6g}; reference kernel median {median(refs):.5f} s, "
        f"nominal {ref.nominal_s:.5f} s), "
        f"setup_s {setup_s:.4f} s (unscaled {raw_setup_s:.4f} s: imports {import_s:.4f} s, "
        f"numpy import {numpy_s:.4f} s apart, set-ups {', '.join(f'{t:.4f}' for t in setups)}), "
        f"peak_rss_mb {peak_rss_mb:.1f} MB, "
        f"failed_ratio {runner.failed / runner.attempted:.6g} ({runner.failed}/{runner.attempted}), "
        f"{i} units timed"
    )
    print(json.dumps({"env": environment(args, numpy, load_start)}, sort_keys=True))
    print(json.dumps(result(runner, metrics)))
    return 0


def result(runner, metrics) -> dict:
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }


def traced(args, lib, package, wl, runner, numpy, load_start) -> int:
    import tracing

    # Untraced and traced passes alternate, so both see the same host;
    # the overhead compares each unit's fastest time in the two modes.
    plain: dict[str, list[float]] = {}
    spanned: dict[str, list[float]] = {}
    tracer = tracing.Tracer(lib, package)
    origin = time.perf_counter()
    wall_s = 0.0
    for _ in range(wl.trace_passes):
        runner.times = plain
        runner.run_pass(wl.units)
        runner.times = spanned
        tracer.install()
        try:
            wall_s += runner.run_pass(wl.units)
        finally:
            tracer.uninstall()
    overhead = sum(min(spanned[u.name]) for u in wl.units) / sum(min(plain[u.name]) for u in wl.units)
    full = tracer.metrics(wall_s)
    full["trace.overhead_ratio"] = overhead
    # A call the tracer did not rebind would run without a span: the
    # calls seen at the top of the span tree must be exactly the units'.
    expected: collections.Counter = collections.Counter()
    for unit in wl.units:
        for name, count in unit.calls.items():
            expected[name] += count * wl.trace_passes
    seen = tracer.top_calls()
    if seen != expected:
        runner.failed += 1
        diff = {name: (seen[name], expected[name]) for name in sorted(set(seen) | set(expected))
                if seen[name] != expected[name]}
        print(f"trace: top-level calls (seen, expected) differ: {diff}", file=sys.stderr)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        per_layer = json.load(fh)["per_layer"]
    unknown = [m["name"] for m in per_layer if m["name"] not in full]
    if unknown:
        print(f"error: the tracer produces no metric named {', '.join(unknown)}", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": full[m["name"]], "unit": m["unit"]} for m in per_layer}
    env = environment(args, numpy, load_start)
    path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"env": env, "passes": wl.trace_passes, "metrics": dict(sorted(full.items())),
                   "spans": tracer.spans(origin)}, fh)
    print(f"{args.workload} seed {args.seed}: {wl.trace_passes} traced passes in {wall_s:.3f} s, "
          f"overhead {overhead:.3f}x; "
          f"spans written to {os.path.relpath(path, ROOT)}")
    for name, value in sorted(full.items()):
        if value:
            print(f"  {name} {value:.6g}")
    print(json.dumps({"env": env}, sort_keys=True))
    print(json.dumps(result(runner, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
