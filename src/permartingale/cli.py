"""Command-line front end.

Subcommands
-----------
verify-martingale   exhaustive conditional-expectation check of one kind
check-inequality    exact or Monte Carlo check of one inequality id
moments             formula-versus-oracle moment table
dump-matrices       transition matrices and inverse products
sweep               batch of inequality checks from a JSON spec file

A sweep row is a ``check-inequality`` call written in JSON: both run
through ``_run_inequality``, which refuses the run by its size, loads the
population and weights, and verifies.  A row adds only its own checks (an
object, known keys, an ``id``, one population and one weights source, lists
where lists are due), its ``cutoff``, and a Monte Carlo seed it may derive.

Exit codes: 0 when every requested check passed; 1 when at least one
check failed, was inconclusive, or a sweep row errored; 2 on usage,
input, file or limit errors, and on output that cannot be written.

Start-up: this module imports only ``choices`` (the parser's enums) and
``errors``, so ``--help`` and usage errors load no engine.  Each handler
binds the engine names it calls: beside ``population`` and
``rationals``, ``check-inequality`` and ``sweep`` load ``inequalities``,
``verify-martingale`` ``construction`` and ``martingales``, ``moments``
those and ``moments``, and ``dump-matrices`` ``construction``.  numpy
loads only for Monte Carlo sampling and sweep seeds, csv only for csv
output.  No call loads ``dataclasses``, nor
``inspect`` unless numpy imports it.  A name bound from outside first (a
tracer's wrapper, a test's stand-in) is kept.  At exit, the ``gc.freeze``
this module registers with ``atexit`` spares the final cyclic collections
a walk over what the OS frees anyway; ``main`` itself freezes nothing, and
``import permartingale`` alone exits as before.

Output is deterministic for fixed flags and seed: JSON is emitted with
sorted keys, exact scalars as "p/q" strings, and floats in shortest
round-trip form.  The environment variable PERMARTINGALE_SEED supplies
a default seed where --seed is omitted.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import io
import math
import os
import sys
from functools import partial
from typing import TYPE_CHECKING, Sequence

from .choices import Basis, InequalityId, MartingaleKind, VerifyMode
from .errors import Error, InvalidInputError, coerce_enum

# at exit, the final garbage collections skip frozen objects: the OS frees them
atexit.register(gc.freeze)

if TYPE_CHECKING:
    from fractions import Fraction

    from .inequalities import InequalityReport

# the engine names the handlers call, by module; each handler binds those
# of the modules it runs (_bind), keeping any name bound from outside
_ENGINE_NAMES = {
    "population": "load_population make_population random_centered_population "
    "read_text_file read_values",
    "rationals": "ensure_weight_count format_rational parse_rational parse_scalar",
    "inequalities": "ensure_runnable needs_weights verify",
    "martingales": "check_martingale ensure_checkable make_spec",
    "moments": "ensure_reportable moment_report",
    "construction": "build_transition_system ensure_matrix_count matrix_as_strings",
}
_HOME = {n: m for m, names in _ENGINE_NAMES.items() for n in names.split()}


def __getattr__(name: str):
    # PEP 562: an engine name read from outside before a handler bound it;
    # loaded by __import__, which -X importtime logs, as importlib is not
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(__import__(_HOME[name], globals(), None, (name,), 1), name)


def _bind(*modules: str) -> None:
    for module in modules:
        for name in _ENGINE_NAMES[module].split():
            globals().setdefault(name, __getattr__(name))


_CSV_REPORT_FIELDS = ("id", "n", "mode", "lhs", "rhs", "holds", "seed", "samples")


class _Parser(argparse.ArgumentParser):  # a failed write raises, for main; argparse drops it
    def _print_message(self, message, file=None):
        file = file or sys.stderr
        if message and file is not None:
            file.write(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="permartingale",
        description=(
            "Martingales from sampling without replacement: exact and "
            "Monte Carlo verification of permutation maximal inequalities."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(formats: tuple[str, ...], cutoff: bool = True):
        parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument(
            "--format",
            choices=formats,
            default="json",
            help="output format (default json)",
        )
        parent.add_argument("--output", metavar="PATH", help="write output to a file")
        if cutoff:
            parent.add_argument(
                "--cutoff",
                type=int,
                default=None,
                metavar="N",
                help="exact-enumeration size cutoff (default 10, hard maximum 12)",
            )
        return parent

    all_formats = common(("json", "csv", "text"))

    vm = sub.add_parser(
        "verify-martingale",
        parents=[common(("json", "text"))],
        help="exhaustively check the martingale property of one kind",
    )
    vm.add_argument(
        "--kind", required=True, choices=tuple(k.value for k in MartingaleKind)
    )
    vm.add_argument("--population", required=True, metavar="FILE")
    vm.add_argument(
        "--multipliers",
        metavar="FILE",
        help="one multiplier per line (kind 'weighted' only)",
    )
    vm.set_defaults(handler=_cmd_verify_martingale)

    ci = sub.add_parser(
        "check-inequality",
        parents=[all_formats],
        help="check one permutation inequality exactly or by Monte Carlo",
    )
    ci.add_argument(
        "--id", required=True, choices=tuple(i.value for i in InequalityId)
    )
    ci.add_argument("--population", metavar="FILE")
    ci.add_argument("--bridge-m", type=int, dest="bridge_m", metavar="M")
    ci.add_argument("--weights", metavar="FILE")
    ci.add_argument("--mode", required=True, choices=("exact", "mc"))
    ci.add_argument("--samples", type=int, metavar="N")
    ci.add_argument("--seed", type=int, metavar="S")
    ci.set_defaults(handler=_cmd_check_inequality)

    mo = sub.add_parser(
        "moments",
        parents=[all_formats],
        help="print the moment formula-versus-oracle table",
    )
    mo.add_argument("--population", required=True, metavar="FILE")
    mo.add_argument(
        "--partial-sum-size",
        type=int,
        dest="partial_sum_size",
        metavar="M",
        help="prefix length for the partial-sum second moment (default n//2)",
    )
    mo.set_defaults(handler=_cmd_moments)

    dm = sub.add_parser(
        "dump-matrices",
        parents=[common(("json", "text"), cutoff=False)],
        help="dump transition matrices and inverse products",
    )
    dm.add_argument("--basis", required=True, choices=tuple(b.value for b in Basis))
    dm.add_argument("--population", metavar="FILE")
    dm.add_argument("--n", type=int, metavar="N")
    dm.add_argument("--total", metavar="P/Q")
    dm.add_argument("--square-sum", dest="square_sum", metavar="P/Q")
    dm.add_argument("--multipliers", metavar="FILE")
    dm.set_defaults(handler=_cmd_dump_matrices)

    sw = sub.add_parser(
        "sweep",
        parents=[all_formats],
        help="run a batch of inequality checks from a JSON spec file",
    )
    sw.add_argument("specfile", metavar="SPECFILE")
    sw.add_argument(
        "--seed",
        type=int,
        metavar="S",
        help="master seed for random rows and Monte Carlo defaults",
    )
    sw.set_defaults(handler=_cmd_sweep)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            rc = exc.code
        else:
            rc = args.handler(args)
        if sys.stdout is not None:  # else --output, or argparse's stderr, took it
            _write(sys.stdout)
        return rc
    except (Error, OSError) as exc:
        if sys.stderr is not None:
            try:
                _write(sys.stderr, f"error: {exc}\n")
            except OSError:  # a report that cannot be written still exits 2
                pass
        return 2


def _emit(args, payload: dict, lines: Sequence[str], table=None) -> None:
    """Write a command's result in ``args.format``: ``payload`` as JSON,
    ``table`` = (header, rows) as CSV, or ``lines`` as text."""
    if args.format == "json":
        import json

        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif args.format == "csv":
        text = _csv_text(*table)
    else:
        text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    elif sys.stdout is None:
        raise OSError("standard output is closed")
    else:
        _write(sys.stdout, text)


def _write(stream, text: str | None = None) -> None:
    """Write ``text``, if any, to ``stream`` and flush; a stream that fails
    is closed, so that the interpreter does not retry the write at exit."""
    try:
        if text is not None:
            stream.write(text)
        stream.flush()
    except OSError:
        stream.close()  # flushes again, and raises from here if that fails
        raise


def _csv_text(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(["" if v is None else v for v in row])
    return buf.getvalue()


def _csv_cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    return value


def _report_csv_row(rd: dict) -> list:
    return [_csv_cell(rd[field]) for field in _CSV_REPORT_FIELDS]


def _default_seed(explicit: int | None) -> int | None:
    if explicit is not None:
        return explicit
    env = os.environ.get("PERMARTINGALE_SEED")
    if env is None:
        return None
    try:
        return int(env)
    except ValueError:
        raise InvalidInputError(
            f"PERMARTINGALE_SEED must be an integer, got {env!r}"
        ) from None


def _optional(fn, value):
    """fn(value), or None when no value is given."""
    return None if value is None else fn(value)


def _rationals(values) -> list[str] | None:
    """The values as 'p/q' strings, or None when none are given."""
    return _optional(lambda vs: [format_rational(v) for v in vs], values)


def _read_scalars(path: str | None, lenient: bool = False,
                  n: int | None = None) -> tuple[Fraction, ...] | None:
    """One scalar per line; '#' comments and blank lines ignored.  None
    when no file is given, and () unread when no run reads it (``n``
    None), so that the run's own refusal names the fault.  A file that
    does not hold the ``n`` values a run needs is refused before any value
    is parsed."""
    if path is None:
        return None
    if n is None:
        return ()
    return read_values(path, "scalar", lenient, partial(ensure_weight_count, n=n))


def _cmd_verify_martingale(args) -> int:
    _bind("population", "rationals", "martingales")
    pop = load_population(args.population,
                          refuse=partial(ensure_checkable, cutoff=args.cutoff))
    weighted = args.kind == MartingaleKind.WEIGHTED
    multipliers = _read_scalars(args.multipliers, n=pop.n if weighted else None)
    spec = make_spec(args.kind, pop, multipliers)
    check = check_martingale(spec, cutoff=args.cutoff)
    payload = {
        "command": "verify-martingale",
        "kind": spec.kind.value,
        "n": pop.n,
        "population": _rationals(pop.values),
        "multipliers": _rationals(spec.multipliers),
    }
    payload.update(check.to_dict())
    lines = [
        f"kind: {spec.kind.value}",
        f"n: {pop.n}",
        f"holds: {'yes' if check.holds else 'no'}",
        f"states checked: {check.states_checked}",
    ]
    w = payload["worst_history"]
    if w is not None:
        lines.append(
            f"violation at k={w['k']} after prefix "
            f"({', '.join(w['prefix'])}): value {w['value']}, "
            f"conditional mean {w['conditional_mean']}"
        )
    _emit(args, payload, lines)
    return 0 if check.holds else 1


def _report_text_lines(rd: dict) -> list[str]:
    """One line per report field, skipping the fields that are None."""
    fields = ("id", "mode", "n", "lhs", "rhs", "stderr", "samples", "seed", "status")
    return [f"{f}: {rd[f]}" for f in fields if rd[f] is not None]


def _run_inequality(id, mode, population, weights, bridge_m, samples, seed, cutoff):
    """One inequality run, for ``check-inequality`` and each sweep row:
    ``population(refuse)`` gives the population, refused by its size before
    it is built (None for a bridge_m run), and ``weights(n)`` the weights,
    n being the population's size where the id needs given weights."""
    refuse = partial(ensure_runnable, id, mode=mode, samples=samples, seed=seed, cutoff=cutoff)
    pop = population(refuse)
    n = pop.n if pop is not None and needs_weights(id) else None
    return verify(id, population=pop, weights=weights(n), bridge_m=bridge_m, mode=mode,
                  samples=samples, seed=seed, cutoff=cutoff)


def _cmd_check_inequality(args) -> int:
    _bind("population", "rationals", "inequalities")
    mode = VerifyMode(args.mode)
    lenient = mode is VerifyMode.MONTE_CARLO
    seed = _default_seed(args.seed) if lenient else args.seed
    report = _run_inequality(
        args.id, mode,
        lambda refuse: _optional(lambda path: load_population(path, lenient, refuse),
                                 args.population),
        partial(_read_scalars, args.weights, lenient),
        args.bridge_m, args.samples, seed, args.cutoff,
    )
    rd = report.to_dict()
    _emit(
        args,
        {"command": "check-inequality", **rd},
        _report_text_lines(rd),
        (_CSV_REPORT_FIELDS, [_report_csv_row(rd)]),
    )
    return 0 if report.holds else 1


def _cmd_moments(args) -> int:
    _bind("population", "rationals", "moments")
    pop = load_population(args.population,
                          refuse=partial(ensure_reportable, cutoff=args.cutoff))
    rows = moment_report(
        pop, partial_sum_size=args.partial_sum_size, cutoff=args.cutoff
    )
    all_equal = all(r.equal for r in rows)
    payload = {
        "command": "moments",
        "n": pop.n,
        "population": _rationals(pop.values),
        "rows": [r.to_dict() for r in rows],
        "all_equal": all_equal,
    }
    width = max(len(r.name) for r in rows)
    lines = [
        f"{r['name']:<{width}}  formula {r['formula']}  oracle {r['oracle']}"
        f"  {'ok' if r['equal'] else 'MISMATCH'}"
        for r in payload["rows"]
    ]
    lines.append(f"all equal: {'yes' if all_equal else 'no'}")
    table = [
        [r["name"], r["formula"], r["oracle"], _csv_cell(r["equal"])]
        for r in payload["rows"]
    ]
    _emit(args, payload, lines, (("name", "formula", "oracle", "equal"), table))
    return 0 if all_equal else 1


def _cmd_dump_matrices(args) -> int:
    _bind("population", "rationals", "construction")
    weighted = args.basis == Basis.WEIGHTED
    if weighted and (args.total is not None or args.square_sum is not None):
        raise InvalidInputError("the weighted matrices do not involve --total/--square-sum")
    pop = _optional(partial(load_population, refuse=ensure_matrix_count), args.population)
    n = args.n if pop is None else pop.n
    multipliers = _read_scalars(args.multipliers, n=n if weighted else None)
    system = build_transition_system(
        args.basis,
        multipliers=multipliers,
        population=pop,
        n=args.n,
        total=_optional(parse_rational, args.total),
        square_sum=_optional(parse_rational, args.square_sum),
    )
    transitions = [
        matrix_as_strings(system.step_matrix(k))
        for k in range(0, system.max_step_state + 1)
    ]
    products = [
        matrix_as_strings(system.inverse_product(k))
        for k in range(1, system.max_product_index + 1)
    ]
    payload = {
        "command": "dump-matrices",
        "basis": system.basis.value,
        "n": system.n,
        "total": _optional(format_rational, system.total),
        "square_sum": _optional(format_rational, system.square_sum),
        "multipliers": _rationals(system.multipliers),
        # transitions[k] maps the state after k draws to the expected
        # state after k+1 draws; inverse_products[k-1] is the product of
        # the first k inverted step matrices
        "transitions_first_state": 0,
        "transitions": transitions,
        "inverse_products_first_index": 1,
        "inverse_products": products,
    }
    lines = [f"basis: {system.basis.value}", f"n: {system.n}"]
    for k, mat in enumerate(transitions):
        lines.append(f"step matrix after {k} draws:")
        lines.extend("  [" + "  ".join(row) + "]" for row in mat)
    for k, mat in enumerate(products, start=1):
        lines.append(f"inverse product through step {k}:")
        lines.extend("  [" + "  ".join(row) + "]" for row in mat)
    _emit(args, payload, lines)
    return 0


_SWEEP_ROW_KEYS = frozenset(
    {"id", "mode", "population", "population_file", "random", "bridge_m",
     "weights", "weights_file", "samples", "seed", "cutoff"}
)
_SWEEP_RANDOM_KEYS = frozenset({"n", "seed", "max_numerator", "max_denominator"})


def _sweep_population(row: dict, index: int, master_seed: int, mode, refuse):
    """The row's population, refused by its size (``refuse(n)``) before it
    is parsed or drawn; None for a bridge_m row, which ``verify`` builds."""
    sources = [
        k for k in ("population", "population_file", "random", "bridge_m") if k in row
    ]
    if len(sources) > 1:
        raise InvalidInputError(f"more than one population source: {sources}")
    if "population" in row:
        values = row["population"]
        if not isinstance(values, list):
            raise InvalidInputError("'population' must be a list")
        refuse(len(values))
        return make_population(_row_scalars(values, mode))
    if "population_file" in row:
        return load_population(row["population_file"], mode is VerifyMode.MONTE_CARLO, refuse)
    if "random" in row:
        spec = row["random"]
        if not isinstance(spec, dict):
            raise InvalidInputError("'random' must be an object")
        unknown = set(spec) - _SWEEP_RANDOM_KEYS
        if unknown:
            raise InvalidInputError(f"unknown random keys {sorted(unknown)}")
        if "n" not in spec:
            raise InvalidInputError("'random' needs 'n'")
        seed = spec.get("seed")
        if not isinstance(seed, (int, str, type(None))) and not (
            isinstance(seed, float) and math.isfinite(seed)
        ):
            raise InvalidInputError("'seed' must be a finite number or string")
        if isinstance(spec["n"], int):
            refuse(spec["n"])
        import random

        rng = random.Random(
            seed if seed is not None else f"{master_seed}:{index}"
        )
        bounds = {k: spec[k] for k in ("max_numerator", "max_denominator") if k in spec}
        return random_centered_population(spec["n"], rng, **bounds)
    return None  # bridge_m rows build their population inside verify


def _sweep_weights(row: dict, mode, n: int | None):
    """The row's weights, inline or from a file, counted against n; None
    without either key, and () unread when no run reads them (``n`` None),
    as in _read_scalars, so that the run's own refusal names the fault."""
    if "weights" in row and "weights_file" in row:
        raise InvalidInputError("both 'weights' and 'weights_file'")
    if "weights" in row and not isinstance(row["weights"], list):
        raise InvalidInputError("'weights' must be a list")
    if "weights" not in row and "weights_file" not in row:
        return None
    if n is None:
        return ()
    if "weights" in row:  # counted before any value is parsed, as a file is
        ensure_weight_count(len(row["weights"]), n)
        return _row_scalars(row["weights"], mode)
    # a null path is refused, not read as no file
    return read_values(row["weights_file"], "scalar", mode is VerifyMode.MONTE_CARLO,
                       partial(ensure_weight_count, n=n))


def _row_scalars(values: list, mode) -> list:
    """An inline list, whose strings a Monte Carlo row reads as a file row."""
    mc = mode is VerifyMode.MONTE_CARLO
    return [parse_scalar(v, lenient=True) if mc and isinstance(v, str) else v for v in values]


def _sweep_row_seed(master_seed: int, index: int) -> int:
    """Monte Carlo seed of a sweep row that gives none: a 64-bit word
    hashed from SeedSequence((master, index)), unlike an affine mix of
    the two, which maps distinct (master, index) pairs to one seed."""
    import numpy as np

    seq = np.random.SeedSequence((master_seed, index))
    return int(seq.generate_state(1, np.uint64)[0])


def _run_sweep_row(
    row, index: int, master_seed: int, cutoff: int | None
) -> InequalityReport:
    if not isinstance(row, dict):
        raise InvalidInputError("must be a JSON object")
    unknown = set(row) - _SWEEP_ROW_KEYS
    if unknown:
        raise InvalidInputError(f"unknown keys {sorted(unknown)}")
    if "id" not in row:
        raise InvalidInputError("missing 'id'")
    mode = coerce_enum(VerifyMode, row.get("mode", "exact"), "verification mode")
    cutoff = row.get("cutoff", cutoff)
    seed = row.get("seed")
    if mode is VerifyMode.MONTE_CARLO and seed is None:
        seed = _sweep_row_seed(master_seed, index)
    return _run_inequality(
        row["id"], mode, partial(_sweep_population, row, index, master_seed, mode),
        partial(_sweep_weights, row, mode), row.get("bridge_m"), row.get("samples"),
        seed, cutoff,
    )


def _cmd_sweep(args) -> int:
    import json

    _bind("population", "rationals", "inequalities")
    text = read_text_file(args.specfile, "spec")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"spec file is not valid JSON: {exc}") from None
    except ValueError:
        raise InvalidInputError(
            "spec file holds a number past the interpreter's limit on integer digits"
        ) from None
    except RecursionError:
        raise InvalidInputError("spec file nests its JSON too deeply to parse") from None
    rows = data["rows"] if isinstance(data, dict) and set(data) == {"rows"} else data
    if not isinstance(rows, list):
        raise InvalidInputError(
            "spec file must be a JSON list of rows or {\"rows\": [...]}"
        )
    master_seed = _default_seed(args.seed)
    if master_seed is None:
        master_seed = 0
    elif master_seed < 0:
        raise InvalidInputError(
            f"the sweep master seed must be a nonnegative int, got {master_seed}"
        )
    entries = []
    passed = failed = errored = 0
    for i, row in enumerate(rows):
        try:
            rd = _run_sweep_row(row, i, master_seed, args.cutoff).to_dict()
        except Error as exc:
            entries.append({"row": i, "error": str(exc)})
            errored += 1
            continue
        entries.append({"row": i, "report": rd})
        if rd["holds"]:
            passed += 1
        else:
            failed += 1
    payload = {
        "command": "sweep",
        "total": len(rows),
        "passed": passed,
        "failed": failed,
        "errors": errored,
        "rows": entries,
    }
    lines = []
    for e in entries:
        if "error" in e:
            lines.append(f"row {e['row']}: error: {e['error']}")
        else:
            rd = e["report"]
            lines.append(
                f"row {e['row']}: id={rd['id']} mode={rd['mode']} "
                f"n={rd['n']} lhs={rd['lhs']} rhs={rd['rhs']} "
                f"status={rd['status']}"
            )
    lines.append(
        f"total {len(rows)}, passed {passed}, failed {failed}, errors {errored}"
    )
    table = [_report_csv_row(e["report"]) for e in entries if "report" in e]
    _emit(args, payload, lines, (_CSV_REPORT_FIELDS, table))
    if args.format == "csv" and sys.stderr is not None:
        for e in entries:
            if "error" in e:
                print(f"row {e['row']}: error: {e['error']}", file=sys.stderr)
    return 0 if failed == 0 and errored == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
