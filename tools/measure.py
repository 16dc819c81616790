"""Print the measurements CI takes of this tree: ``PYTHONPATH=src python tools/measure.py``.

First the python and numpy versions (Monte Carlo bits come from numpy's
generator), then one section each of the SECTIONS table below.  Inputs
are seeded, so every run prints the same labels and states_checked
counts.  Each section runs in a fresh interpreter, so no cache carries
into the next.  A case fails only by raising, which exits nonzero.
"""

import glob
import importlib.metadata
import multiprocessing
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
import tokenize
import tracemalloc
from fractions import Fraction
from functools import partial
from pathlib import Path

import permartingale
from permartingale import (InequalityId, MartingaleKind, Population, build_transition_system,
                           check_martingale, check_sequence, check_vector_martingale,
                           counterexample_suite, evaluate_prefix, make_bridge_population,
                           make_spec, moment_report, random_centered_population,
                           vector_martingale_value, verify)

ROOT = Path(__file__).resolve().parents[1]
GIVEN_WEIGHTS = ("vna_weighted", "garsia_weighted")
ORDER_FREE = ("max_averages", "garsia_unweighted", "quadratic", "hardy")


def timed(label, fn, *args, **kwargs):
    """A case that times one call, with its states_checked if it has one."""
    def run():
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        line = f"{label}: {time.perf_counter() - start:.4f} s"
        states = getattr(result, "states_checked", None)
        return line if states is None else f"{line}, states_checked {states}"
    return label, run


def seeded_weights(rng, n, numerators=(-3, -2, -1, 1, 2, 3), denominators=(1, 2)):
    """n p/q values from ``rng``; by default the benchmark's weights."""
    return [Fraction(rng.choice(numerators), rng.choice(denominators)) for _ in range(n)]


def inequality_kwargs(iid, population, bridge, weights):
    """verify's inputs for ``iid``: ``bridge`` in place of the population
    for the bridge, and ``weights`` for the given-weight ids."""
    kw = dict(bridge) if iid is InequalityId.BRIDGE else {"population": population}
    if iid.value in GIVEN_WEIGHTS:
        kw["weights"] = weights
    return kw


def source_lines():
    """wc -l and tokenize NEWLINE counts (which joining lines leaves alone) of
    src/ and tests/, so that code moved into the tests shows; the public names."""
    modules = sorted(glob.glob("src/permartingale/*.py", root_dir=ROOT))
    out = [subprocess.run(["wc", "-l", *modules], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.rstrip()]
    for pattern, each in (("src/permartingale/*.py", True), ("tests/*.py", False)):
        total = physical = 0
        for path in sorted(glob.glob(pattern, root_dir=ROOT)):
            with open(ROOT / path, encoding="utf-8") as fh:
                lines = fh.readlines()
            count = sum(t.type == tokenize.NEWLINE
                        for t in tokenize.generate_tokens(iter(lines).__next__))
            total += count
            physical += len(lines)
            if each:
                out.append(f"{count:6d} {path}")
        out.append(f"{total:6d} logical lines, {physical} physical, in {pattern}")
    return "\n".join([*out, f"{len(permartingale.__all__)} public names"])


def import_cost(call):
    """The package's cumulative import time under -X importtime (the sum of
    its top-level module lines), and whether dataclasses or inspect loaded."""
    err = subprocess.run([sys.executable, "-X", "importtime", "-m", "permartingale",
                          *call.split()], stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                         text=True, check=True).stderr
    rows = [line.split("|") for line in err.splitlines() if line.count("|") == 2]
    us = sum(int(row[1]) for row in rows if row[2].startswith(" permartingale"))
    loaded = {row[2].strip() for row in rows}
    flags = ["yes" if name in loaded else "no" for name in ("dataclasses", "inspect")]
    return "{:6.1f} ms  dataclasses {:<3}  inspect {:<3}  {}".format(us / 1000, *flags, call)


def process_time(label, argv):
    """Median wall time of 9 fresh processes, start-up and exit included."""
    times = []
    for _ in range(9):
        start = time.perf_counter()
        subprocess.run(argv, stdout=subprocess.DEVNULL, check=True)
        times.append(time.perf_counter() - start)
    return f"{label}: median {statistics.median(times) * 1000:.1f} ms of 9"


def cli_calls():
    calls = ("--help", "check-inequality --id quadratic --mode exact --population four.txt",
             "verify-martingale --kind m2 --population four.txt", "moments --population four.txt",
             "dump-matrices --basis quadratic --population four.txt", "sweep rows.json")
    return [(call, partial(import_cost, call)) for call in calls]


def cli_processes():
    cli = [sys.executable, "-m", "permartingale"]
    check = [*cli, "check-inequality", "--id", "quadratic", "--mode"]
    argvs = {"python -c pass": [sys.executable, "-c", "pass"], "--help": [*cli, "--help"],
             "exact quadratic n=4": [*check, "exact", "--population", "four.txt"],
             "mc quadratic n=40, 20000 samples": [*check, "mc", "--population", "forty.txt",
                                                  "--samples", "20000", "--seed", "0"]}
    return [(label, partial(process_time, label, argv)) for label, argv in argvs.items()]


def working_set():
    """tracemalloc peak of one Monte Carlo verify, numpy imported first."""
    label = "MC quadratic n=160, 65536 samples"
    pop = random_centered_population(160, random.Random(0))

    def run():
        import numpy  # noqa: F401
        tracemalloc.start()
        verify("quadratic", population=pop, mode="mc", samples=65536, seed=0)
        return f"{label}: traced peak {tracemalloc.get_traced_memory()[1] / 2**20:.2f} MiB"
    return [(label, run)]


def monte_carlo():
    """Every id at mc_sample's sizes, n=40 (k-major chunks) and n=160; then
    quadratic and hardy either side of the layout cut-over: n=512 (k-major)
    and n=2,000 (131-ordering chunks, each ordering contiguous)."""
    rng = random.Random(0)
    for n, samples in ((40, 196_608), (160, 65_536)):
        pop = random_centered_population(n, rng, 9, 4)
        ws = seeded_weights(rng, n)
        bridge = {"population": make_bridge_population(n // 2)}
        for iid in InequalityId:
            yield timed(f"mc {iid.value} n={n}, {samples} samples", verify, iid, mode="mc",
                        seed=0, samples=samples, **inequality_kwargs(iid, pop, bridge, ws))
    for n in (512, 2000):
        pop = random_centered_population(n, rng, 9, 4)
        for iid in ("quadratic", "hardy"):
            yield timed(f"mc {iid} n={n}, 2000 samples", verify, iid, mode="mc", seed=0,
                        samples=2000, population=pop)


def exact():
    """Every id at n=10; the split walk on wide values, ±1 weights and the
    benchmark's weights at n=10 and 12; the chain-count engine at exact_enum's
    sizes (n=9, the bridge at m=4) and at its largest (n=12, m=6)."""
    pop = random_centered_population(10, random.Random(0))
    for iid in InequalityId:
        yield timed(f"exact {iid.value} n=10", verify, iid,
                    **inequality_kwargs(iid, pop, {"bridge_m": 5}, [1] * 10))
    wide = random_centered_population(10, random.Random(0), max_numerator=99, max_denominator=7)
    yield timed("exact alternating n=10, |p| <= 99, q <= 7", verify, "alternating", population=wide)
    rng = random.Random(1)
    signs = [rng.choice((-1, 1)) for _ in range(10)]
    for iid in GIVEN_WEIGHTS:
        yield timed(f"exact {iid} n=10, ±1 weights", verify, iid, population=pop, weights=signs)
    rng = random.Random(2)
    for n, cutoff in ((10, None), (12, 12)):
        values = random_centered_population(n, rng)
        ws = seeded_weights(rng, n)
        for iid in GIVEN_WEIGHTS:
            yield timed(f"exact {iid} n={n}, p/q weights", verify, iid, population=values,
                        weights=ws, cutoff=cutoff)
    pop9 = random_centered_population(9, random.Random(0))
    for iid in ORDER_FREE:
        yield timed(f"exact {iid} n=9", verify, iid, population=pop9)
    yield timed("exact bridge m=4", verify, "bridge", bridge_m=4)
    wide = random_centered_population(12, random.Random(0), max_numerator=99, max_denominator=7)
    for iid in ORDER_FREE:
        yield timed(f"exact {iid} n=12, |p| <= 99, q <= 7", verify, iid, population=wide, cutoff=12)
    yield timed("exact bridge m=6", verify, "bridge", bridge_m=6, cutoff=12)


def checkers():
    """martingale_walk's checks at n=10 and 7, the drawn-set route at n=12, the
    ordered walk at n=7, the k = n-1 product block at n=3, the moments report
    at n=8 and 10 (a fifth of cli_small's calls), Population's sums."""
    rng = random.Random(0)
    multipliers = partial(seeded_weights, rng, numerators=range(-9, 10), denominators=range(1, 5))
    pop = random_centered_population(10, rng)
    mult = multipliers(10)
    for kind in MartingaleKind:
        spec = make_spec(kind, pop, mult if kind is MartingaleKind.WEIGHTED else None)
        yield timed(f"check_martingale {kind.value} n=10", check_martingale, spec)
    yield timed("check_vector_martingale quadratic n=10", check_vector_martingale, pop, "quadratic")
    pop7 = random_centered_population(7, rng)
    yield timed("check_vector_martingale weighted n=7", check_vector_martingale, pop7,
                "weighted", multipliers(7))
    yield timed("counterexample_suite n=7", counterexample_suite, pop7)
    yield timed("check_vector_martingale weighted n=10", check_vector_martingale, pop,
                "weighted", mult)
    pop12 = random_centered_population(12, rng)
    mult12 = multipliers(12)
    for kind in ("weighted", "chain_quadratic"):
        spec = make_spec(kind, pop12, mult12 if kind == "weighted" else None)
        yield timed(f"check_martingale {kind} n=12", check_martingale, spec, 12)
    yield timed("check_vector_martingale quadratic n=12", check_vector_martingale, pop12,
                "quadratic", None, 12)
    for kind in ("m2", "m3", "mtilde"):
        yield timed(f"check_martingale {kind} n=12", check_martingale, make_spec(kind, pop12), 12)
    yield timed("counterexample_suite n=12", counterexample_suite, pop12, 12)
    for kind, k_max in (("mtilde", 5), ("m2", 6)):
        spec = make_spec(kind, pop7)
        yield timed(f"check_sequence {kind} n=7", check_sequence, pop7,
                    partial(evaluate_prefix, spec), 1, k_max)
    system7 = build_transition_system("quadratic", population=pop7)
    yield timed("check_sequence quadratic vector n=7", check_sequence, pop7,
                partial(vector_martingale_value, system7), 1, system7.max_product_index)
    pop3 = random_centered_population(3, random.Random(3))
    for kind in ("m2", "m3"):
        yield timed(f"check_martingale {kind} n=3", check_martingale, make_spec(kind, pop3))
    for n in (8, 10):
        yield timed(f"moment_report n={n}", moment_report,
                    random_centered_population(n, random.Random(n)))
    big = Population(random_centered_population(20_000, rng).values)
    yield timed("Population total, square_sum and fourth_sum n=20000",
                lambda: (big.total, big.square_sum, big.fourth_sum))


# the case table: each section's builder returns (label, run) pairs, drawing
# the seeded inputs; run() takes the measurement and returns the text to print
SECTIONS = {
    "Source line count": lambda: [("source lines", source_lines)],
    "Package import cost": cli_calls,
    "CLI process times": cli_processes,
    "Monte Carlo working set": working_set,
    "Monte Carlo times": monte_carlo,
    "Exact engine times": exact,
    "Martingale checker times": checkers,
}


def run_section(name):
    for _, run in SECTIONS[name]():
        print(run(), flush=True)


def main():
    print("python", sys.version)
    print("numpy", importlib.metadata.version("numpy"), flush=True)
    if "PYTHONPATH" in os.environ:  # the CLI processes run in a scratch directory
        os.environ["PYTHONPATH"] = os.pathsep.join(
            map(os.path.abspath, os.environ["PYTHONPATH"].split(os.pathsep)))
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        Path("four.txt").write_text("1\n-1\n2\n-2\n")
        Path("forty.txt").write_text("".join(
            f"{v}\n" for v in random_centered_population(40, random.Random(0)).values))
        Path("rows.json").write_text(
            '[{"id": "max_averages", "mode": "exact", "population": [1, -1, 2, -2]}]\n')
        for name in SECTIONS:
            print(f"## {name}", flush=True)
            worker = multiprocessing.get_context("spawn").Process(target=run_section, args=(name,))
            worker.start()
            worker.join()
            if worker.exitcode:
                sys.exit(f"{name} failed with exit code {worker.exitcode}")


if __name__ == "__main__":
    main()
