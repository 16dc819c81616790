"""Run one benchmark call with spans around the package's layers.

    python -X importtime perfbench/traced.py SPANS.json -m permartingale ARGS...
    python -X importtime perfbench/traced.py SPANS.json perfbench/libcall.py ARGS...

The package is not changed: public entry points are rebound, from
outside, to wrappers that record a span (name, start, end, parent,
attributes) with ``time.perf_counter``.  Spans stay in memory and are
written to SPANS.json when the call ends.  On Linux ``perf_counter``
reads CLOCK_MONOTONIC, which all processes share, so the parent can
place the spans on its own timeline.
"""

from __future__ import annotations

import time

T_ENTRY = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

_dumps = json.dumps


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}

    def span(self, name: str, fn, attrs=None):
        """Wrap ``fn`` so every call records a span; ``attrs`` maps the
        call's arguments and result to a dict of attributes."""

        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            parent = self.stack[-1] if self.stack else None
            rec = [sid, parent, name, time.perf_counter(), None, None]
            self.spans.append(rec)
            self.stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                rec[4] = time.perf_counter()
            if attrs is not None:
                rec[5] = attrs(args, kwargs, result)
            return result

        return wrapper

    def count(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self.counters[name] = self.counters.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper


def _install(tr: Tracer) -> None:
    import permartingale as pm
    from permartingale import cli, construction, inequalities, martingales

    block = getattr(inequalities, "MC_BLOCK_SIZE", None)

    def verify_attrs(args, kwargs, report):
        blocks = -(-report.samples // block) if report.samples and block else None
        return {"id": report.id.value, "mode": report.mode.value, "n": report.n,
                "samples": report.samples, "blocks": blocks}

    def check_attrs(args, kwargs, check):
        return {"kind": args[0].kind.value, "states": check.states_checked}

    def vector_attrs(args, kwargs, check):
        return {"basis": str(getattr(args[1], "value", args[1])),
                "states": check.states_checked}

    def build_attrs(args, kwargs, system):
        return {"basis": system.basis.value}

    def load_attrs(args, kwargs, pop):
        return {"values": pop.n}

    cli.verify = tr.span("inequalities.verify", cli.verify, verify_attrs)
    cli.check_martingale = tr.span("martingales.check", cli.check_martingale, check_attrs)
    load = tr.span("population.load", pm.load_population, load_attrs)
    cli.load_population = load
    pm.load_population = load
    cli.moment_report = tr.span("moments.report", cli.moment_report)
    build = tr.span("construction.build", construction.build_transition_system, build_attrs)
    martingales.build_transition_system = build
    cli.build_transition_system = build
    inequalities.rhs_value = tr.span("inequalities.rhs", inequalities.rhs_value)
    inequalities.InequalityReport.to_dict = tr.span(
        "cli.serialize", inequalities.InequalityReport.to_dict)
    json.dumps = tr.span("cli.serialize", json.dumps)
    construction.TransitionSystem.inverse_product = tr.count(
        "construction.inverse_product_calls", construction.TransitionSystem.inverse_product)
    pm.check_vector_martingale = tr.span(
        "martingales.vector_check", pm.check_vector_martingale, vector_attrs)
    pm.counterexample_suite = tr.span("martingales.controls", pm.counterexample_suite)
    pm.check_sequence = tr.span("martingales.controls", pm.check_sequence)


def main(argv: list[str]) -> int:
    out_path, target = argv[0], argv[1:]
    tr = Tracer()
    # the root span opens at interpreter entry, before this module's imports
    rec = [0, None, "call", T_ENTRY, None, None]
    tr.spans.append(rec)
    tr.stack.append(0)
    rc = 2
    try:
        tr.span("cli.import", _install)(tr)
        if target[:2] == ["-m", "permartingale"]:
            from permartingale import cli

            rc = tr.span("cli.main", cli.main)(target[2:])
        else:
            sys.path.insert(0, os.path.dirname(os.path.abspath(target[0])))
            import libcall

            rc = tr.span("cli.main", libcall.main)(target[1:])
        sys.stdout.flush()
    finally:
        rec[4] = time.perf_counter()
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(_dumps({"spans": tr.spans, "counters": tr.counters,
                             "exit": rc}))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
