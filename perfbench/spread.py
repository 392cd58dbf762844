"""Run every workload over ten seeds and report each metric's spread.

    python3 perfbench/spread.py [workload ...]

Runs ``run.py`` once per (workload, seed) for seeds 11-20, one process
at a time, for BENCHMARK.json's ``run_seconds``, and prints for every
end-to-end metric its median, its quartiles and the distance between
them as a share of the median, next to the metric's bound.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(11, 21)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in sys.argv[1:] or [w["name"] for w in bench["workloads"]]:
        values: dict[str, list[float]] = {}
        for seed in SEEDS:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                ok = False
                continue
            res = json.loads(lines[-1])
            ok = ok and res["correct"]
            for name, metric in res["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(lines[0], flush=True)
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            print(f"  {workload:7s} {name:12s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {(q3 - q1) / med:.4f}  bound {bounds[name]}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
