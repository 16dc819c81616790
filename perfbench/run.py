"""permartingale benchmark: four CLI workloads, checked outputs, and an
outside-in per-layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every call is a fresh interpreter with
``PYTHONPATH=src`` (``python -m permartingale ...``, or
``perfbench/libcall.py`` where no subcommand exists), started by one
client in a closed loop: a call starts when the previous one exits.
The workload's call sequence (a "pass") repeats until S seconds have
passed and at least one whole pass is done.  Each call's output is
checked against a reference computed before timing starts.

Workloads (the layer each isolates is in BENCHMARK.json):

  exact_enum       exact check-inequality, all eight ids at n=9 on two
                   populations, plus bridge at m=4
  martingale_walk  verify-martingale for all five kinds at n=10, the
                   vector checks (quadratic n=10, weighted n=7) and the
                   negative controls
  mc_sample        Monte Carlo check-inequality, all eight ids at n=40
                   and n=160
  cli_small        100 short calls over all five subcommands at n=4..6
                   in json, csv and text

Times are normalized to a reference host speed.  On a shared host the
speed available to one process can drift by a third within seconds,
for any process, the package's or not.  So every PROBE_EVERY_S seconds,
between calls, the run starts a probe process that does not touch the
package: ``import numpy`` (start-up and library loading), then a fixed
pure-Python loop whose time the probe prints.  Each call is rescaled by
the mean of the PROBE_WINDOW probes before it and the PROBE_WINDOW
after it: its first seconds, up to the probes' start-up time, by
SPAWN_REF_S over that time, and the rest by LOOP_REF_S over the
probes' loop time.  On a host where the probe takes
the reference times, a normalized second is a wall second.  Raw wall
times and every probe are kept in the results file.  (Timing the loop
inside this process, taking the run's median probe, or only the one
probe on each side tracked the calls less well.)

With ``--trace 0`` the result line holds the end-to-end metrics:

  setup_s      median time of ``python -m permartingale --help`` over
               SETUP_PROBES processes spread over the run
  wall_s       one pass: the sum over its calls of each call's median
               time
  work_per_s   work of one pass over wall_s.  Work is orderings
               decided (sum of n!) on exact_enum, ordered prefixes at
               which the one-step identity is asserted on
               martingale_walk, Monte Carlo samples on mc_sample, and
               calls on cli_small
  peak_rss_mb  largest max-RSS of any of the workload's calls

The report lines also give the median and p90 of the per-call median
times, with their sample count (one per call of the pass).  They are
not result metrics: with 8 to 16 unlike calls per pass they are the
time of one or two calls, too unsteady from run to run to gate on.

With ``--trace 1`` each call runs once plain and once through
perfbench/traced.py, and the result line holds the per-layer metrics:
self time per layer in raw wall seconds and work counts, summed over
one pass.  Besides the layers it reports the tracing overhead (traced
minus plain raw wall time of a pass), interpreter start-up and
shutdown, and the share of traced wall time that no layer span
accounts for.

The last line of standard output is the JSON result; the lines before
it are a readable report.  Artifacts (inputs, the per-seed reference
cache, full results with the environment stamp) go to .perfbench_run/.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import threading
import time
from math import factorial

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_DIR = ".perfbench_run"
SETUP_PROBES = 9
# the probe process: start-up with numpy, then a fixed pure-Python loop
# whose time it prints
SPEED_PROBE = (
    "-c",
    "import time, numpy\n"
    "t = time.perf_counter()\n"
    "acc = 0\n"
    "for k in range(1_500_000):\n"
    "    acc += k * k\n"
    "print(time.perf_counter() - t)",
)
SPAWN_REF_S = 0.2
LOOP_REF_S = 0.17
PROBE_EVERY_S = 3.0
PROBE_WINDOW = 3
CALL_TIMEOUT_S = 60
WORKLOADS = ("exact_enum", "martingale_walk", "mc_sample", "cli_small")


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env.pop("PERMARTINGALE_SEED", None)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONIOENCODING"] = "utf-8"
    return env


class Runner:
    """Starts one call at a time, counts attempts and failures, and
    probes the host's speed between calls."""

    def __init__(self, env: dict, trace_dir: str) -> None:
        self.env = env
        self.trace_dir = trace_dir
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        # speed probes as (time, start-up seconds, loop seconds)
        self.probes: list[tuple[float, float, float]] = []

    def _spawn(self, argv: list[str]):
        """Run ``argv`` to completion; its output goes through files in the
        run directory so that ``wait4`` can report the child's own max-RSS."""
        killed = []

        def kill() -> None:
            killed.append(True)
            proc.kill()

        out_path = os.path.join(self.trace_dir, "stdout")
        err_path = os.path.join(self.trace_dir, "stderr")
        with open(out_path, "w+b") as out_f, open(err_path, "w+b") as err_f:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out_f, stderr=err_f, env=self.env)
            timer = threading.Timer(CALL_TIMEOUT_S, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            t1 = time.perf_counter()
            proc.returncode = os.waitstatus_to_exitcode(status)
            out_f.seek(0)
            err_f.seek(0)
            out, err = out_f.read(), err_f.read()
        rc = None if killed else proc.returncode
        return rc, out, err, t0, t1, usage.ru_maxrss

    def sample_speed(self) -> None:
        rc, out, err, t0, t1, _ = self._spawn([sys.executable, *SPEED_PROBE])
        if rc != 0:
            fail(f"speed probe exits {rc}: {err.decode(errors='replace')}")
        loop = float(out)
        self.probes.append(((t0 + t1) / 2, t1 - t0 - loop, loop))

    def run(self, name: str, argv: list[str], check, traced: bool = False) -> dict:
        """Run one call; returns its raw wall time, exit code, stdout
        size and, when traced, its spans and import-time lines.
        ``normalize`` adds the normalized time."""
        if not self.probes or time.perf_counter() - self.probes[-1][0] >= PROBE_EVERY_S:
            self.sample_speed()
        self.attempted += 1
        span_file = None
        cmd = [sys.executable, *argv]
        if traced:
            span_file = os.path.join(self.trace_dir, "spans.json")
            if os.path.exists(span_file):
                os.remove(span_file)
            cmd = [sys.executable, "-X", "importtime",
                   os.path.join("perfbench", "traced.py"), span_file, *argv]
        rc, out, err, t0, t1, rss_kib = self._spawn(cmd)
        if rc is None:
            reason = f"timed out after {CALL_TIMEOUT_S} s"
        else:
            reason = check(rc, out)
        res = {"raw": t1 - t0, "t0": t0, "t1": t1, "rc": rc, "bytes": len(out),
               "rss_kib": rss_kib, "ok": reason is None}
        if reason is not None:
            self.failed += 1
            tag = " (traced)" if traced else ""
            self.reasons.append(f"{name}{tag}: {reason}")
        if traced and os.path.exists(span_file):
            with open(span_file, encoding="utf-8") as fh:
                res["trace"] = json.load(fh)
            res["importtime"] = err.decode("utf-8", "replace")
        return res

    def normalize(self, res: dict) -> None:
        """Set ``res["wall"]``, the call's time at the reference speed,
        from the mean of the PROBE_WINDOW probes before the call and the
        PROBE_WINDOW after it."""
        times = [p[0] for p in self.probes]
        before = bisect.bisect_right(times, res["t0"])
        after = bisect.bisect_left(times, res["t1"])
        near = (self.probes[max(0, before - PROBE_WINDOW):before]
                + self.probes[after:after + PROBE_WINDOW])
        spawn = statistics.mean(p[1] for p in near)
        loop = statistics.mean(p[2] for p in near)
        head = min(res["raw"], spawn)
        res["wall"] = head * SPAWN_REF_S / spawn + (res["raw"] - head) * LOOP_REF_S / loop


def setup_probe_check(rc: int, out: bytes):
    if rc != 0 or b"usage: permartingale" not in out:
        return f"--help exits {rc}"
    return None


# -- per-layer attribution --------------------------------------------------

_IMPORT_LINE = re.compile(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)")


def numpy_import_s(importtime: str) -> float:
    """Cumulative import time of the top-level numpy package."""
    for m in _IMPORT_LINE.finditer(importtime):
        if m.group(2) == "numpy":
            return int(m.group(1)) / 1e6
    return 0.0


def attribute(res: dict) -> dict:
    """Layer self times (raw wall seconds) and counts of one traced call."""
    spans = res["trace"]["spans"]
    self_s = {s[0]: s[4] - s[3] for s in spans}
    for s in spans:
        if s[1] is not None:
            self_s[s[1]] -= s[4] - s[3]
    out: dict[str, float] = {}

    def add(key: str, v: float) -> None:
        out[key] = out.get(key, 0.0) + v

    fixed = {
        "call": "trace.unaccounted_s",
        "cli.import": "cli.import_s",
        "cli.main": "cli.self_s",
        "cli.serialize": "cli.serialize_s",
        "population.load": "population.load_s",
        "inequalities.rhs": "inequalities.rhs_s",
        "martingales.controls": "martingales.controls_s",
        "moments.report": "moments.report_s",
    }
    for sid, parent, name, start, end, attrs in spans:
        t = self_s[sid]
        if name in fixed:
            add(fixed[name], t)
        if name == "population.load":
            add("population.values_parsed", attrs["values"])
        elif name == "inequalities.verify":
            iid = attrs["id"]
            if attrs["mode"] == "exact":
                add(f"inequalities.exact_s.{iid}", t)
                add(f"inequalities.orderings.{iid}", factorial(attrs["n"]))
            else:
                add(f"inequalities.mc_s.{iid}", t)
                add(f"inequalities.mc_samples.{iid}", attrs["samples"])
                add("inequalities.mc_blocks", attrs["blocks"] or 0)
        elif name == "martingales.check":
            add(f"martingales.check_s.{attrs['kind']}", t)
            add(f"martingales.states_checked.{attrs['kind']}", attrs["states"])
        elif name == "martingales.vector_check":
            add(f"martingales.vector_check_s.{attrs['basis']}", t)
            add(f"martingales.vector_states_checked.{attrs['basis']}", attrs["states"])
        elif name == "construction.build":
            add(f"construction.build_s.{attrs['basis']}", t)
    for key, v in res["trace"]["counters"].items():
        add(key, v)
    root = spans[0]
    add("trace.interpreter_s", res["raw"] - (root[4] - root[3]))
    add("trace.wall_s", res["raw"])
    add("cli.import_numpy_s", numpy_import_s(res["importtime"]))
    add("cli.output_bytes", res["bytes"])
    return out


def sum_of_medians(per_call: list[list[dict]]) -> dict:
    """Median over repetitions of each call, summed over the pass."""
    total: dict[str, float] = {}
    for reps in per_call:
        keys = set().union(*reps) if reps else set()
        for k in keys:
            total[k] = total.get(k, 0.0) + statistics.median(r.get(k, 0.0) for r in reps)
    return total


def layer_metrics(untraced: list[list[float]], traced: list[list[dict]]) -> dict:
    m = sum_of_medians(traced)
    plain = sum(statistics.median(t) for t in untraced)
    m["trace.overhead_s"] = m["trace.wall_s"] - plain
    m["trace.unaccounted_share"] = m["trace.unaccounted_s"] / m["trace.wall_s"]
    for key in list(m):
        if key.startswith("inequalities.mc_samples."):
            iid = key.rsplit(".", 1)[1]
            busy = m.get(f"inequalities.mc_s.{iid}", 0.0)
            m[f"inequalities.mc_samples_per_s.{iid}"] = m[key] / busy if busy else 0.0
    return m


# -- environment stamp ------------------------------------------------------


def env_stamp(root: str) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "none"
    try:
        top = subprocess.run(["git", "-C", root, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(root):
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames.sort()
        for f in sorted(filenames):
            if f.endswith(".py"):
                p = os.path.join(dirpath, f)
                digest.update(os.path.relpath(p, src).encode())
                with open(p, "rb") as fh:
                    digest.update(fh.read())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


# -- main -------------------------------------------------------------------


def declared_metrics(root: str, trace: bool) -> dict:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "permartingale", "__init__.py")):
        fail("run from the repository root: src/permartingale is missing")
    if not os.path.isfile(os.path.join(root, "BENCHMARK.json")):
        fail("BENCHMARK.json is missing")
    sys.path.insert(0, os.path.join(root, "src"))
    sys.path.insert(0, HERE)
    import workloads

    units = declared_metrics(root, bool(args.trace))
    trace_dir = os.path.join(RUN_DIR, "trace")
    os.makedirs(trace_dir, exist_ok=True)
    stamp = env_stamp(root)

    t_build = time.perf_counter()
    calls = workloads.build(args.workload, args.seed, RUN_DIR)
    build_s = time.perf_counter() - t_build

    runner = Runner(child_env(root), trace_dir)

    def probe() -> dict:
        return runner.run("setup", ["-m", "permartingale", "--help"], setup_probe_check)

    probe()  # warm-up: byte-code and page caches, as a user's repeated runs have them
    probes: list[dict] = []
    plain: list[list[dict]] = [[] for _ in calls]
    traced: list[list[dict]] = [[] for _ in calls]
    start = time.perf_counter()
    deadline = start + args.seconds
    i = 0
    while i < len(calls) or time.perf_counter() < deadline:
        # set-up probes are spread over the run, so that their median
        # sees the same machine conditions as the calls
        due = start + len(probes) * args.seconds / SETUP_PROBES
        if len(probes) < SETUP_PROBES and time.perf_counter() >= due:
            probes.append(probe())
        c = calls[i % len(calls)]
        plain[i % len(calls)].append(runner.run(c.name, c.argv, c.check))
        if args.trace:
            traced[i % len(calls)].append(runner.run(c.name, c.argv, c.check, traced=True))
        i += 1
    while len(probes) < SETUP_PROBES:
        probes.append(probe())
    runner.sample_speed()
    for res in [*probes, *(r for reps in plain for r in reps)]:
        runner.normalize(res)
    passes = i / len(calls)

    times = [[r["wall"] for r in reps] for reps in plain]
    raw_times = [[r["raw"] for r in reps] for reps in plain]
    medians = [statistics.median(t) for t in times]
    wall = sum(medians)
    if args.trace:
        traces = [[attribute(r) for r in reps if "trace" in r] for reps in traced]
        metrics = layer_metrics(raw_times, traces) if all(traces) else {}
    else:
        metrics = {
            "setup_s": statistics.median(r["wall"] for r in probes),
            "wall_s": wall,
            "work_per_s": sum(c.work for c in calls) / wall,
            "peak_rss_mb": max(r["rss_kib"] for reps in plain for r in reps) / 1024,
        }
    unknown = sorted(k for k in metrics if k not in units)
    if unknown:
        fail(f"metrics missing from BENCHMARK.json: {unknown}")
    result = {
        "correct": runner.failed == 0 and bool(metrics),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics.get(k, 0.0), "unit": u} for k, u in units.items()},
    }

    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print(f"# env {json.dumps(stamp, sort_keys=True)}")
    print(f"# {len(calls)} calls per pass, {i} timed ({passes:.2f} passes), "
          f"{SETUP_PROBES} set-up probes, reference build {build_s:.2f} s")
    raw = sum(statistics.median(r) for r in raw_times)
    print(f"# per-call median time: p50 {statistics.median(medians):.4f} s, p90 "
          f"{statistics.quantiles(medians, n=10)[8]:.4f} s over {len(medians)} calls")
    print(f"# raw wall per pass {raw:.3f} s, normalized {wall:.3f} s; start-up index "
          f"{statistics.median(p[1] for p in runner.probes):.3f} s, loop index "
          f"{statistics.median(p[2] for p in runner.probes):.3f} s")
    for reason in runner.reasons[:20]:
        print(f"# FAILED {reason}")
    if args.trace and metrics:
        w = metrics["trace.wall_s"]
        print(f"# traced wall per pass {w:.3f} s; interpreter start-up and shutdown "
              f"{metrics['trace.interpreter_s'] / w:.1%}; unaccounted "
              f"{metrics['trace.unaccounted_share']:.1%}; overhead "
              f"{metrics['trace.overhead_s']:+.3f} s")
    width = max(map(len, units))
    for k, u in units.items():
        print(f"# {k:<{width}}  {result['metrics'][k]['value']:.6g} {u}")

    os.makedirs(os.path.join(RUN_DIR, "results"), exist_ok=True)
    with open(os.path.join(RUN_DIR, "results",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"env": stamp, "args": vars(args), "result": result,
                   "calls": [{"name": c.name, "argv": c.argv, "work": c.work,
                              "walls": t, "raw_walls": r}
                             for c, t, r in zip(calls, times, raw_times)],
                   "probes": runner.probes,
                   "call_times": [[(r["t0"], r["t1"]) for r in reps] for reps in plain],
                   "failures": runner.reasons}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
