"""Library calls that have no CLI subcommand, one per process.

    python perfbench/libcall.py vector --basis B --population F [--multipliers F]
    python perfbench/libcall.py controls --population F

``vector`` runs ``check_vector_martingale``; ``controls`` runs the
negative-control library (``counterexample_suite``) plus one
``check_sequence`` with a wrong compensation, through the generic
``Fraction`` walker.  Prints one JSON object; exit 0 when the result is
the expected one, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction


def _read(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return [line.strip() for line in fh if line.strip()]


def vector(pm, args) -> dict:
    pop = pm.load_population(args.population)
    mult = _read(args.multipliers) if args.multipliers else None
    check = pm.check_vector_martingale(pop, args.basis, multipliers=mult)
    return {"holds": check.holds, "states_checked": check.states_checked}


def controls(pm, args) -> dict:
    pop = pm.load_population(args.population)
    n, b = pop.n, pop.square_sum
    failures = []
    suite = pm.counterexample_suite(pop)
    for e in suite.entries:
        if not e.ok or (not e.expected_to_hold and e.witness is None):
            failures.append(e.name)

    def wrong(prefix):
        # the compensated square with (n-k)^2 in place of (n-k)(n-k-1)
        k = len(prefix)
        s = sum(prefix, Fraction(0))
        t = sum((x * x for x in prefix), Fraction(0))
        return ((n - 1) * s * s - k * (b - t)) / Fraction((n - k) ** 2)

    check = pm.check_sequence(pop, wrong, 1, n - 2)
    if check.holds or check.worst_history is None:
        failures.append("wrong_compensation")
    return {"failures": failures, "entries": len(suite.entries) + 1}


def main(argv=None, pm=None) -> int:
    parser = argparse.ArgumentParser(prog="libcall.py")
    sub = parser.add_subparsers(dest="op", required=True)
    v = sub.add_parser("vector")
    v.add_argument("--basis", required=True, choices=("quadratic", "weighted"))
    v.add_argument("--population", required=True)
    v.add_argument("--multipliers")
    c = sub.add_parser("controls")
    c.add_argument("--population", required=True)
    args = parser.parse_args(argv)
    if pm is None:
        import permartingale as pm
    result = vector(pm, args) if args.op == "vector" else controls(pm, args)
    sys.stdout.write(json.dumps(result, sort_keys=True) + "\n")
    ok = result.get("holds", True) and not result.get("failures")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
