"""The four workloads: seeded inputs, the call sequence, and the check
each call's output must pass.

Every input is drawn from ``random.Random("<workload>:<seed>")`` and
written to files under the run directory; every Monte Carlo call gets
an explicit ``--seed``.  So the program sees only files and flags, and
nothing depends on the package's own seed derivation.

A check takes ``(exit_code, stdout_bytes)`` and returns None when the
output is right, or a one-line reason when it is not.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, sqrt
from typing import Callable

import reference

CLI = ("-m", "permartingale")
LIBCALL = "perfbench/libcall.py"
GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

Check = Callable[[int, bytes], "str | None"]


@dataclass
class Call:
    """One process the workload starts: ``python <argv...>``."""

    name: str
    argv: list[str]
    work: int
    check: Check = field(repr=False)


# -- input generation -------------------------------------------------------


def centered(rng: random.Random, n: int, num: int, den: int) -> list[Fraction]:
    """n values p/q (|p| <= num, q <= den) with total exactly 0 and
    non-constant squares."""
    while True:
        head = [Fraction(rng.randint(-num, num), rng.randint(1, den)) for _ in range(n - 1)]
        vals = head + [-sum(head, Fraction(0))]
        if len({v * v for v in vals}) > 1:
            return vals


def multipliers(rng: random.Random, n: int) -> list[Fraction]:
    return [Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 2)) for _ in range(n)]


def write_values(path: str, values) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{v}\n" for v in values))
    return path


def load_golden(workload: str, seed: int, cache_dir: str, compute: Callable[[], dict]) -> dict:
    """Committed golden for this seed if there is one, else the cached
    or freshly computed reference (computed outside any timed region)."""
    name = f"{workload}-seed{seed}.json"
    for d in (GOLDEN_DIR, cache_dir):
        path = os.path.join(d, name)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return json.load(fh)
    data = compute()
    os.makedirs(cache_dir, exist_ok=True)
    with open(os.path.join(cache_dir, name), "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
    return data


def _parse_json(out: bytes):
    try:
        return json.loads(out)
    except ValueError:
        return None


# -- exact_enum -------------------------------------------------------------

WEIGHTED = ("vna_weighted", "garsia_weighted")
NON_BRIDGE = tuple(i for i in reference.ALL_IDS if i != "bridge")
EXACT_N = 9
BRIDGE_M = 4


def exact_inputs(rng: random.Random, d: str) -> list[dict]:
    """The calls of exact_enum as plain data: name, id, values, weights,
    and the argument list."""
    pops = {
        "int": centered(rng, EXACT_N, 9, 1),
        "rat": centered(rng, EXACT_N, 9, 4),
    }
    ws = multipliers(rng, EXACT_N)
    wfile = write_values(os.path.join(d, "weights9.txt"), ws)
    specs = []
    for tag, vals in pops.items():
        pfile = write_values(os.path.join(d, f"pop9_{tag}.txt"), vals)
        for iid in NON_BRIDGE:
            args = ["check-inequality", "--id", iid, "--mode", "exact", "--population", pfile]
            w = None
            if iid in WEIGHTED:
                args += ["--weights", wfile]
                w = ws
            specs.append(dict(name=f"{iid}.{tag}", id=iid, values=vals, weights=w, args=args))
    bridge = [1] * BRIDGE_M + [-1] * BRIDGE_M
    specs.append(
        dict(
            name="bridge.m4",
            id="bridge",
            values=bridge,
            weights=None,
            args=["check-inequality", "--id", "bridge", "--mode", "exact",
                  "--bridge-m", str(BRIDGE_M)],
        )
    )
    return specs


def exact_golden(specs: list[dict]) -> dict:
    """Reference lhs by the benchmark's own enumeration, rhs by the
    package's ``rhs_value``."""
    from permartingale import make_population, rhs_value

    tables = {}
    out = {}
    for s in specs:
        n = len(s["values"])
        if n not in tables:
            tables[n] = reference.permutation_table(n)
        lhs = reference.exact_lhs(s["id"], s["values"], s["weights"], tables[n])
        rhs = rhs_value(s["id"], make_population(s["values"]), weights=s["weights"])
        out[s["name"]] = {"lhs": str(lhs), "rhs": str(rhs)}
    return out


def exact_check(golden: dict) -> Check:
    lhs = Fraction(golden["lhs"])
    rhs = Fraction(golden["rhs"])
    holds = lhs <= rhs

    def check(rc: int, out: bytes):
        rd = _parse_json(out)
        if rd is None:
            return f"exit {rc}, output is not JSON"
        got = (rd.get("lhs"), rd.get("rhs"), rd.get("holds"), rd.get("status"))
        want = (str(lhs), str(rhs), holds, "holds" if holds else "fails")
        if got != want:
            return f"(lhs, rhs, holds, status) = {got}, expected {want}"
        if rc != (0 if holds else 1):
            return f"exit {rc} for status {rd['status']}"
        return None

    return check


def build_exact_enum(rng, seed, d, cache_dir) -> list[Call]:
    specs = exact_inputs(rng, d)
    golden = load_golden("exact_enum", seed, cache_dir, lambda: exact_golden(specs))
    return [
        Call(
            name=s["name"],
            argv=[*CLI, *s["args"]],
            work=factorial(len(s["values"])),
            check=exact_check(golden[s["name"]]),
        )
        for s in specs
    ]


# -- mc_sample --------------------------------------------------------------

# (n, samples per call): 3 blocks of 65,536 orderings at n=40 and one
# block at n=160, so the per-block working set goes from ~21 MB to ~84 MB
MC_SIZES = ((40, 3 << 16), (160, 1 << 16))
MC_GOLDEN_SAMPLES = 1 << 16


def mc_inputs(rng: random.Random, d: str) -> list[dict]:
    specs = []
    for n, samples in MC_SIZES:
        vals = centered(rng, n, 9, 4)
        ws = multipliers(rng, n)
        pfile = write_values(os.path.join(d, f"pop{n}.txt"), vals)
        wfile = write_values(os.path.join(d, f"weights{n}.txt"), ws)
        for iid in reference.ALL_IDS:
            args = ["check-inequality", "--id", iid, "--mode", "mc"]
            v, w = vals, None
            if iid == "bridge":
                args += ["--bridge-m", str(n // 2)]
                v = [1] * (n // 2) + [-1] * (n // 2)
            else:
                args += ["--population", pfile]
            if iid in WEIGHTED:
                args += ["--weights", wfile]
                w = ws
            call_seed = rng.randrange(1 << 31)
            args += ["--samples", str(samples), "--seed", str(call_seed)]
            specs.append(
                dict(name=f"{iid}.n{n}", id=iid, values=v, weights=w, args=args,
                     samples=samples, seed=call_seed)
            )
    return specs


def mc_golden(specs: list[dict]) -> dict:
    """Independent estimate (argsort sampling, its own stream) and the
    package's exact rhs."""
    from permartingale import make_population, rhs_value

    out = {}
    for s in specs:
        mean, se, top = reference.mc_estimate(
            s["id"], s["values"], s["weights"], MC_GOLDEN_SAMPLES, s["seed"] ^ 0x5EED
        )
        rhs = rhs_value(s["id"], make_population(s["values"]), weights=s["weights"])
        out[s["name"]] = {"mean": mean, "se": se, "max": top, "rhs": str(rhs)}
    return out


def mc_check(spec: dict, golden: dict) -> Check:
    rhs = Fraction(golden["rhs"])
    rhs_f = float(rhs)
    mean_g, se_g = golden["mean"], golden["se"]
    hardy = spec["id"] == "hardy"
    se_call = se_g * sqrt(MC_GOLDEN_SAMPLES / spec["samples"])
    if hardy:
        want_status = "consistent" if golden["max"] <= rhs_f else "violation-suspected"
    elif mean_g + 4 * se_call <= rhs_f:
        want_status = "consistent"
    elif mean_g - 4 * se_call > rhs_f:
        want_status = "violation-suspected"
    else:
        want_status = "inconclusive"

    def check(rc: int, out: bytes):
        rd = _parse_json(out)
        if rd is None:
            return f"exit {rc}, output is not JSON"
        if rd.get("status") != want_status or rd.get("rhs") != str(rhs):
            return f"status {rd.get('status')} rhs {rd.get('rhs')}, expected {want_status} {rhs}"
        if rd.get("samples") != spec["samples"] or rd.get("seed") != spec["seed"]:
            return "samples or seed not echoed"
        est = rd.get("lhs")
        if not isinstance(est, float):
            return f"estimate {est!r} is not a float"
        if hardy:
            # a sampled maximum: at least the mean, at most the true maximum
            if not mean_g <= est <= rhs_f:
                return f"sampled maximum {est} outside [{mean_g}, {rhs_f}]"
        else:
            se = rd.get("stderr")
            if not isinstance(se, float):
                return f"stderr {se!r} is not a float"
            tol = 4 * sqrt(se * se + se_g * se_g)
            if abs(est - mean_g) > tol:
                return f"estimate {est} differs from reference {mean_g} by more than {tol}"
        if rc != (0 if want_status == "consistent" else 1):
            return f"exit {rc} for status {want_status}"
        return None

    return check


def build_mc_sample(rng, seed, d, cache_dir) -> list[Call]:
    specs = mc_inputs(rng, d)
    golden = load_golden("mc_sample", seed, cache_dir, lambda: mc_golden(specs))
    return [
        Call(
            name=s["name"],
            argv=[*CLI, *s["args"]],
            work=s["samples"],
            check=mc_check(s, golden[s["name"]]),
        )
        for s in specs
    ]


# -- martingale_walk --------------------------------------------------------

WALK_N = 10
VECTOR_WEIGHTED_N = 7
KINDS = ("m2", "m3", "mtilde", "weighted", "chain_quadratic")


def histories(n: int, k_min: int, k_max: int) -> int:
    """Ordered prefixes at which the one-step identity is asserted:
    sum over k_min <= k < k_max of n!/(n-k)!."""
    return sum(factorial(n) // factorial(n - k) for k in range(k_min, k_max))


def _holds_check(rc: int, out: bytes):
    rd = _parse_json(out)
    if rd is None:
        return f"exit {rc}, output is not JSON"
    if rd.get("holds") is not True or rc != 0:
        return f"exit {rc}, holds={rd.get('holds')}, expected a holding check"
    return None


def _controls_check(rc: int, out: bytes):
    rd = _parse_json(out)
    if rd is None:
        return f"exit {rc}, output is not JSON"
    if rc != 0 or rd.get("failures"):
        return f"exit {rc}, negative controls went soft: {rd.get('failures')}"
    return None


def build_martingale_walk(rng, seed, d, cache_dir) -> list[Call]:
    pop = write_values(os.path.join(d, "pop10.txt"), centered(rng, WALK_N, 9, 3))
    mult = write_values(os.path.join(d, "mult10.txt"), multipliers(rng, WALK_N))
    pop7 = write_values(os.path.join(d, "pop7.txt"), centered(rng, VECTOR_WEIGHTED_N, 9, 3))
    mult7 = write_values(os.path.join(d, "mult7.txt"), multipliers(rng, VECTOR_WEIGHTED_N))
    calls = []
    for kind in KINDS:
        args = ["verify-martingale", "--kind", kind, "--population", pop]
        if kind == "weighted":
            args += ["--multipliers", mult]
        k_max = WALK_N - 2 if kind == "mtilde" else WALK_N - 1
        calls.append(
            Call(kind, [*CLI, *args], histories(WALK_N, 1, k_max), _holds_check)
        )
    calls.append(
        Call("vector.quadratic", [LIBCALL, "vector", "--basis", "quadratic", "--population", pop],
             histories(WALK_N, 1, WALK_N - 2), _holds_check)
    )
    calls.append(
        Call("vector.weighted",
             [LIBCALL, "vector", "--basis", "weighted", "--population", pop7,
              "--multipliers", mult7],
             histories(VECTOR_WEIGHTED_N, 1, VECTOR_WEIGHTED_N - 1), _holds_check)
    )
    calls.append(
        Call("controls", [LIBCALL, "controls", "--population", pop7], 0, _controls_check)
    )
    return calls


# -- cli_small --------------------------------------------------------------

CLI_CALLS = 100
CLI_MC_SAMPLES = 20000
FORMATS = {
    "verify-martingale": ("json", "text"),
    "check-inequality": ("json", "csv", "text"),
    "moments": ("json", "csv", "text"),
    "dump-matrices": ("json", "text"),
    "sweep": ("json", "csv", "text"),
}


def _cli_args(i: int, rng: random.Random, d: str) -> list[str]:
    """Call i of cli_small: the five subcommands in turn, n cycling over
    4..6, each subcommand cycling over its output formats."""
    n = 4 + i % 3
    rnd, sub = divmod(i, 5)
    vals = centered(rng, n, 9, 4)
    pop = write_values(os.path.join(d, f"c{i}_pop.txt"), vals)
    if sub == 0:
        cmd = "verify-martingale"
        kind = KINDS[rnd % len(KINDS)]
        args = [cmd, "--kind", kind, "--population", pop]
        if kind == "weighted":
            args += ["--multipliers", write_values(os.path.join(d, f"c{i}_w.txt"),
                                                   multipliers(rng, n))]
    elif sub == 1:
        cmd = "check-inequality"
        iid = reference.ALL_IDS[(rnd // 2) % len(reference.ALL_IDS)]
        mode = "exact" if rnd % 2 == 0 else "mc"
        args = [cmd, "--id", iid, "--mode", mode]
        if iid == "bridge":
            args += ["--bridge-m", str(2 + rnd % 2)]
        else:
            args += ["--population", pop]
        if iid in WEIGHTED:
            args += ["--weights", write_values(os.path.join(d, f"c{i}_w.txt"),
                                               multipliers(rng, n))]
        if mode == "mc":
            args += ["--samples", str(CLI_MC_SAMPLES), "--seed", str(rng.randrange(1 << 31))]
    elif sub == 2:
        cmd = "moments"
        args = [cmd, "--population", pop]
    elif sub == 3:
        cmd = "dump-matrices"
        if rnd % 3 == 0:
            args = [cmd, "--basis", "quadratic", "--population", pop]
        elif rnd % 3 == 1:
            b = sum(v * v for v in vals)
            args = [cmd, "--basis", "quadratic", "--n", str(n), "--total", "0",
                    "--square-sum", str(b)]
        else:
            w = write_values(os.path.join(d, f"c{i}_w.txt"), multipliers(rng, n))
            args = [cmd, "--basis", "weighted", "--n", str(n), "--multipliers", w]
    else:
        cmd = "sweep"
        rows = [
            {"id": "max_averages", "mode": "exact", "population": [str(v) for v in vals]},
            {"id": "garsia_unweighted", "mode": "mc", "population_file": pop,
             "samples": 5000, "seed": rng.randrange(1 << 31)},
            {"id": "bridge", "mode": "exact", "bridge_m": 2},
        ]
        spec = os.path.join(d, f"c{i}_sweep.json")
        with open(spec, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)
        args = [cmd, spec]
    fmts = FORMATS[cmd]
    return args + ["--format", fmts[rnd % len(fmts)]]


def cli_expected(args: list[str]) -> tuple[int, bytes]:
    """Exit code and stdout of the call, run in this process."""
    from permartingale import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(args)
    return rc, out.getvalue().encode("utf-8")


def bytes_check(want: bytes, digest: str | None) -> Check:
    """Exit 0 and stdout identical to the in-process run of the same
    code, and to the committed digest where one exists."""
    if digest is not None and hashlib.sha256(want).hexdigest() != digest:
        mismatch = "in-process output differs from the committed golden digest"
    else:
        mismatch = None

    def check(rc: int, out: bytes):
        if rc != 0:
            return f"exit {rc}"
        if out != want:
            return "stdout differs from the expected bytes"
        return mismatch

    return check


def build_cli_small(rng, seed, d, cache_dir) -> list[Call]:
    path = os.path.join(GOLDEN_DIR, f"cli_small-seed{seed}.json")
    digests = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            digests = json.load(fh)
    calls = []
    for i in range(CLI_CALLS):
        args = _cli_args(i, rng, d)
        name = f"{i:03d}.{args[0]}"
        rc, want = cli_expected(args)
        check = bytes_check(want, digests.get(name)) if rc == 0 else (
            lambda rc_, out_, rc=rc: f"in-process run exits {rc}")
        calls.append(Call(name, [*CLI, *args], 1, check))
    return calls


BUILDERS = {
    "exact_enum": build_exact_enum,
    "martingale_walk": build_martingale_walk,
    "mc_sample": build_mc_sample,
    "cli_small": build_cli_small,
}


def build(workload: str, seed: int, run_dir: str) -> list[Call]:
    d = os.path.join(run_dir, "inputs", f"{workload}-seed{seed}")
    os.makedirs(d, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    return BUILDERS[workload](rng, seed, d, os.path.join(run_dir, "cache"))
