"""Self-test of the benchmark itself (stdlib unittest, about a minute).

    python3 perfbench/selftest.py

Checks that the fast reference route agrees with the committed
``lhs_statistic`` golden, that a planted wrong golden and a call
exiting 2 are counted as failed calls, that one command prints every
declared metric by name and unit, and that the benchmark refuses to
run where the program is missing.
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import subprocess
import sys
import unittest
from fractions import Fraction
from math import factorial

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SCRATCH = os.path.join(run.RUN_DIR, "selftest")


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


class ReferenceRoute(unittest.TestCase):
    def test_fast_route_matches_committed_lhs_statistic_golden(self):
        d = os.path.join(SCRATCH, "exact")
        os.makedirs(d, exist_ok=True)
        specs = workloads.exact_inputs(random.Random("exact_enum:0"), d)
        path = os.path.join(workloads.GOLDEN_DIR, "exact_enum-seed0.json")
        with open(path, encoding="utf-8") as fh:
            golden = json.load(fh)
        fast = workloads.exact_golden(specs)
        self.assertEqual(set(fast), set(golden))
        for name, want in golden.items():
            self.assertEqual(fast[name], want, name)


class FailureAccounting(unittest.TestCase):
    def setUp(self):
        os.makedirs(SCRATCH, exist_ok=True)
        self.runner = run.Runner(run.child_env(ROOT), SCRATCH)
        vals = workloads.centered(random.Random(5), 5, 9, 4)
        self.pop = workloads.write_values(os.path.join(SCRATCH, "pop5.txt"), vals)
        self.lhs = reference.exact_lhs("max_averages", vals)
        from permartingale import make_population, rhs_value

        self.rhs = rhs_value("max_averages", make_population(vals))
        self.argv = ["-m", "permartingale", "check-inequality", "--id", "max_averages",
                     "--mode", "exact", "--population", self.pop]

    def golden(self, lhs: Fraction) -> dict:
        return {"lhs": str(lhs), "rhs": str(self.rhs)}

    def test_planted_wrong_golden_is_a_failed_call(self):
        ok = self.runner.run("right", self.argv, workloads.exact_check(self.golden(self.lhs)))
        self.assertTrue(ok["ok"])
        bad = self.golden(self.lhs + Fraction(1, factorial(5)))
        res = self.runner.run("planted", self.argv, workloads.exact_check(bad))
        self.assertFalse(res["ok"])
        self.assertEqual((self.runner.attempted, self.runner.failed), (2, 1))
        self.assertIn("planted", self.runner.reasons[0])

    def test_exit_two_is_a_failed_call(self):
        argv = self.argv[:-1] + [os.path.join(SCRATCH, "missing.txt")]
        for check in (workloads.exact_check(self.golden(self.lhs)),
                      workloads.bytes_check(b"", None), workloads._holds_check):
            res = self.runner.run("missing", argv, check)
            self.assertEqual(res["rc"], 2)
            self.assertFalse(res["ok"])
        self.assertEqual(self.runner.failed, self.runner.attempted)

    def test_mc_check_rejects_an_estimate_far_from_the_reference(self):
        spec = {"id": "garsia_unweighted", "samples": 10000, "seed": 1}
        golden = {"mean": 10.0, "se": 0.1, "max": 50.0, "rhs": "1000"}
        check = workloads.mc_check(spec, golden)

        def out(est):
            return json.dumps({"lhs": est, "stderr": 0.1, "rhs": "1000", "status": "consistent",
                               "samples": 10000, "seed": 1}).encode()

        self.assertIsNone(check(0, out(10.2)))
        self.assertIsNotNone(check(0, out(12.0)))
        self.assertIsNotNone(check(1, out(10.2)))


class ResultLine(unittest.TestCase):
    def declared(self, key: str) -> dict:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            return {m["name"]: m["unit"] for m in json.load(fh)[key]}

    def check_line(self, trace: int, key: str):
        proc = bench("--workload", "mc_sample", "--seed", "3", "--seconds", "0",
                     "--trace", str(trace))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout)
        self.assertEqual(result["failed"], 0)
        want = self.declared(key)
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, want)
        for name, unit in want.items():
            self.assertRegex(proc.stdout, rf"\n# {re.escape(name)} +\S+ {re.escape(unit)}\n")

    def test_end_to_end_metrics_by_name_and_unit(self):
        self.check_line(0, "end_to_end")

    def test_per_layer_metrics_by_name_and_unit(self):
        self.check_line(1, "per_layer")

    def test_refuses_without_the_program(self):
        bare = os.path.join(SCRATCH, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "cli_small", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")
        shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
