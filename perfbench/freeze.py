"""Regenerate perfbench/goldens.json from the library as it stands.

    python3 perfbench/freeze.py

Run it only at a commit whose outputs are trusted (the goldens were
frozen at the commit that added the benchmark): every later run of the
benchmark compares against these values.  For each frozen seed (0 to
63) it builds the mc and codes workloads without goldens, runs each unit
once and stores what the unit returned; for census it stores the exact
exhaustive_ulw_probability of every (rank, c') the seed can pick.
"""

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import workloads  # noqa: E402

FROZEN_SEEDS = 64


def main() -> int:
    lib = workloads.Lib()
    f3 = lib.gf.FieldSpec(3)
    goldens = {
        "frozen_seeds": [0, FROZEN_SEEDS - 1],
        "census": {"ulw": {
            f"{r},{c}": str(lib.experiments.exhaustive_ulw_probability(f3, 3, r, c))
            for r in workloads.ULW_RANKS for c in workloads.ULW_CPRIMES
        }},
        "mc": {"seeds": {}},
        "codes": {"seeds": {}},
    }
    with tempfile.TemporaryDirectory(dir=ROOT) as workdir:
        for seed in range(FROZEN_SEEDS):
            for name in ("mc", "codes"):
                wl = workloads.build(name, lib, seed, {}, workdir)
                goldens[name]["seeds"][str(seed)] = {u.name: u.run() for u in wl.units}
            print(f"seed {seed} frozen", file=sys.stderr)
    per_unit = {}
    for counts in goldens["mc"]["seeds"].values():
        for name, successes in counts.items():
            per_unit.setdefault(name, []).append(successes)
    goldens["mc"]["reference_rate"] = {
        name: sum(v) / (len(v) * workloads.MC_TRIALS) for name, v in sorted(per_unit.items())
    }
    with open(os.path.join(HERE, "goldens.json"), "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
