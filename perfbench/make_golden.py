"""Write the committed goldens for the default seed (0).

    python3 perfbench/make_golden.py

exact_enum-seed0.json  lhs by the package's ``lhs_statistic`` reference
                       route over all n! orderings (about half a minute
                       per call at n=9), rhs by ``rhs_value``
mc_sample-seed0.json   the benchmark's independent Monte Carlo estimate
cli_small-seed0.json   sha256 of each call's stdout

Other seeds get their reference at run time from reference.py, whose
exact route the self-test checks against exact_enum-seed0.json.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from fractions import Fraction
from itertools import permutations
from math import factorial

HERE = os.path.dirname(os.path.abspath(__file__))
SEED = 0


def exact_by_lhs_statistic(specs: list[dict]) -> dict:
    from permartingale import lhs_statistic, make_population, rhs_value

    out = {}
    for s in specs:
        pop = make_population(s["values"])
        n = pop.n
        stats = (
            lhs_statistic(s["id"], pop, [i + 1 for i in p], weights=s["weights"])
            for p in permutations(range(n))
        )
        if s["id"] == "hardy":
            lhs = max(stats)
        else:
            lhs = sum(stats, Fraction(0)) / factorial(n)
        rhs = rhs_value(s["id"], pop, weights=s["weights"])
        out[s["name"]] = {"lhs": str(lhs), "rhs": str(rhs)}
        print(f"{s['name']}: lhs {lhs}", file=sys.stderr)
    return out


def main() -> int:
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    sys.path.insert(0, HERE)
    import random

    import workloads

    golden = {}
    for name in ("exact_enum", "mc_sample", "cli_small"):
        d = os.path.join(".perfbench_run", "inputs", f"{name}-seed{SEED}")
        os.makedirs(d, exist_ok=True)
        rng = random.Random(f"{name}:{SEED}")
        if name == "exact_enum":
            golden[name] = exact_by_lhs_statistic(workloads.exact_inputs(rng, d))
        elif name == "mc_sample":
            golden[name] = workloads.mc_golden(workloads.mc_inputs(rng, d))
        else:
            digests = {}
            for i in range(workloads.CLI_CALLS):
                args = workloads._cli_args(i, rng, d)
                rc, out = workloads.cli_expected(args)
                if rc != 0:
                    raise SystemExit(f"cli_small call {i} exits {rc}")
                digests[f"{i:03d}.{args[0]}"] = hashlib.sha256(out).hexdigest()
            golden[name] = digests
    for name, data in golden.items():
        with open(os.path.join(workloads.GOLDEN_DIR, f"{name}-seed{SEED}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
