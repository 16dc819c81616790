"""The command line's exit-code contract, as a property.

Whatever the arguments and files, ``cli.main`` returns 0, 1 or 2, lets
no exception escape and prints no traceback; exit 2 comes with an
``error:`` line or an argparse usage message, and exit 1 with a report
that shows a failed check.  Valid sizes stay small (exact n <= 8,
samples <= 2,000, ``dump-matrices --n`` <= 60, random sweep rows n <= 8),
so every example ends quickly.  Huge sizes are drawn everywhere: each
is refused with exit 2 before any work, ``--samples``, a sweep row's
samples and a Monte Carlo row's random n by their count of floats, and
``dump-matrices --n`` by its count of matrices.
"""

import contextlib
import csv
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from permartingale import Basis, InequalityId, MartingaleKind
from permartingale.cli import main

DIR = "<tmp>"  # stands for each example's own temporary directory
BIG = "9" * 5000  # past the interpreter's 4,300-digit conversion limit
HUGE = str(10**30)

# hostile scalars: non-finite, malformed, unicode, huge and negative
HOSTILE = st.sampled_from(
    ("nan", "inf", "-inf", "", " ", "1/0", "1e3", "0x10", "é", "½", "٣",
     "--", "-1", "0", HUGE, "-" + HUGE, BIG, "-" + BIG, "1/" + BIG, "1e99999999")
)
SMALL = st.integers(-9, 9).map(str) | st.builds(
    "{}/{}".format, st.integers(-9, 9), st.integers(1, 4)
)
SCALAR = st.one_of(SMALL, SMALL, SMALL, HOSTILE)
# centered values, so that most inequalities and kinds accept them
CENTERED = st.lists(st.integers(-9, 9), min_size=1, max_size=7).map(
    lambda xs: xs + [-sum(xs)]
)


def ints(low, high):
    """Mostly a valid int option in [low, high], else a hostile value,
    ints far past any valid size included."""
    valid = st.integers(low, high).map(str)
    bad = ("0", "-1", "-7", "", "x", "nan", "2.5", "½", BIG, HUGE, "-" + HUGE)
    return st.one_of(valid, valid, valid, st.sampled_from(bad))


def choice(values):
    """One of ``values``, or one of three values outside them."""
    return st.sampled_from(tuple(values) * 3 + ("", "nope", "é"))


@st.composite
def file_bytes(draw):
    """Centered values or any value lines, with blanks, comments and
    very long lines, up to 8 values; or random bytes, a bridge file, or
    200 values, which only Monte Carlo mode takes."""
    kind = draw(st.sampled_from(
        ("centered", "centered", "centered", "lines", "bytes", "bridge", "long")
    ))
    if kind == "bytes":
        return draw(st.binary(max_size=40))
    if kind == "bridge":
        return b"1\n-1\n" * draw(st.integers(1, 4))
    if kind == "long":
        return b"1\n-1\n" * 100
    if kind == "centered":
        values = [str(x) for x in draw(CENTERED)]
    else:
        values = draw(st.lists(SCALAR, max_size=8))
    noise = st.sampled_from(("", "# note", "  ", "# " + BIG))
    lines = []
    for value in values:
        lines += draw(st.lists(noise, max_size=1)) + [value]
    return "\n".join(lines).encode()


@st.composite
def sweep_row(draw, files):
    keys = {
        "mode": choice(("exact", "mc")),
        "population": st.one_of(
            CENTERED, CENTERED, st.lists(SCALAR | st.just(int(HUGE)), max_size=8),
            st.just("1"),
        ),
        "population_file": st.sampled_from(files) | st.just(7),
        "random": st.fixed_dictionaries(
            {"n": st.integers(-1, 8) | st.sampled_from(("3", 2.5, None, int(HUGE)))},
            optional={"seed": st.integers() | st.text(max_size=3) | st.just(1e400),
                      "max_numerator": st.integers(-2, 10**30),
                      "max_denominator": st.integers(-2, 9),
                      "extra": st.just(1)},
        ) | st.just([]),
        "bridge_m": st.integers(-1, 4) | st.sampled_from((int(HUGE), "2", 1.5)),
        "weights": st.lists(st.integers(-3, 3) | SCALAR, max_size=8),
        "weights_file": st.sampled_from(files),
        "samples": st.integers(-1, 2_000) | st.sampled_from(("9", 1.5, int(HUGE))),
        "seed": st.integers(-1, 10**30) | st.just("s"),
        "cutoff": st.integers(-1, 13) | st.just(int(HUGE)),
        "unknown": st.just(1),
    }
    row = {"id": draw(choice([i.value for i in InequalityId]))}
    if not draw(st.integers(0, 9)):
        del row["id"]
    chosen = draw(st.lists(st.sampled_from(sorted(keys)), max_size=4, unique=True))
    row.update({k: draw(keys[k]) for k in chosen})
    return row


@st.composite
def spec_bytes(draw, files):
    kind = draw(st.sampled_from(("rows", "rows", "rows", "wrapped", "bytes", "big")))
    if kind == "bytes":
        return draw(st.binary(max_size=40))
    if kind == "big":
        return f'[{{"id": "hardy", "population": [{BIG}, 1]}}]'.encode()
    rows = draw(st.lists(sweep_row(files) | st.just(3), max_size=4))
    return json.dumps({"rows": rows} if kind == "wrapped" else rows).encode()


FORMATS = choice(("json", "csv", "text"))

# the flags each subcommand is given before its extra ones
CORE = {
    "verify-martingale": ("--kind", "--population"),
    "check-inequality": ("--id", "--mode", "--population"),
    "moments": ("--population",),
    "dump-matrices": ("--basis",),
    "sweep": (),
    "no-such-command": (),
}
COMMANDS = tuple(c for c in sorted(CORE) if c != "no-such-command") * 3 + (
    "no-such-command",
)
NEEDS = {
    "mc": ("--samples", "--seed"), "vna_weighted": ("--weights",),
    "garsia_weighted": ("--weights",), "weighted": ("--multipliers",),
    "quadratic": ("--n", "--total", "--square-sum"),
}
LIKELY = st.sampled_from((True,) * 9 + (False,))


def options(files):
    """Each subcommand's options, each flag with its value strategy."""
    file = st.sampled_from(files * 3 + [os.path.join(DIR, "missing.txt"), DIR])
    out = os.path.join(DIR, "out.txt")
    common = {"--format": FORMATS, "--output": st.sampled_from((out, out + "/x")),
              "--cutoff": ints(2, 12)}
    return {
        "verify-martingale": {
            "--kind": choice([k.value for k in MartingaleKind]),
            "--population": file, "--multipliers": file, **common,
        },
        "check-inequality": {
            "--id": choice([i.value for i in InequalityId]),
            "--population": file, "--weights": file,
            "--bridge-m": ints(1, 4), "--mode": choice(("exact", "mc", "mc")),
            "--samples": ints(1, 2_000),
            "--seed": ints(0, 2**64), **common,
        },
        "moments": {
            "--population": file, "--partial-sum-size": ints(1, 8), **common,
        },
        "dump-matrices": {
            "--basis": choice([b.value for b in Basis]),
            "--population": file, "--multipliers": file,
            "--n": ints(0, 60),
            "--total": SCALAR, "--square-sum": SCALAR,
            "--format": FORMATS, "--output": common["--output"],
        },
        "sweep": {"--seed": ints(0, 2**64), **common},
        "no-such-command": {"--format": FORMATS},
    }


@st.composite
def invocation(draw):
    """(argv, files): a subcommand with its core flags, the flags its
    inputs need, and extra flags, some duplicated; then the contents of
    its files, each under the placeholder directory DIR."""
    names = [os.path.join(DIR, f"f{i}.txt") for i in range(3)]
    files = {name: draw(file_bytes()) for name in names}
    spec = os.path.join(DIR, "spec.json")
    files[spec] = draw(spec_bytes(names))
    command = draw(st.sampled_from(COMMANDS))
    flags = options(names)[command]
    argv = [command]
    if command == "sweep" and draw(LIKELY):
        argv.append(spec)
    for flag in CORE[command]:
        if draw(LIKELY):
            argv += [flag, draw(flags[flag])]
    # the inputs that the core's values ask for
    for value in argv[1:]:
        for flag in NEEDS.get(value, ()):
            if flag in flags and draw(LIKELY):
                argv += [flag, draw(flags[flag])]
    extra = draw(st.lists(st.sampled_from(sorted(flags)), max_size=3))
    for flag in extra:
        argv += [flag, draw(flags[flag])]
    if not draw(LIKELY):
        argv.append(draw(st.sampled_from(("extra", "--no-such-flag", BIG))))
    return argv, files


def failed_check(command, fmt, text, err):
    """Whether a report in ``fmt`` shows a failed check."""
    if fmt == "json":
        payload = json.loads(text)
        if command == "sweep":
            return payload["failed"] + payload["errors"] > 0
        return payload["all_equal" if command == "moments" else "holds"] is False
    if fmt == "csv":
        rows = list(csv.DictReader(io.StringIO(text)))
        key = "equal" if command == "moments" else "holds"
        return any(r[key] == "false" for r in rows) or (
            command == "sweep" and ": error: " in err
        )
    if command == "sweep":
        tail = text.splitlines()[-1]  # "total T, passed P, failed F, errors E"
        failed, errors = (int(part.split()[-1]) for part in tail.split(", ")[2:])
        return failed + errors > 0
    passed = ("status: holds", "status: consistent")
    return any(
        line in ("holds: no", "all equal: no")
        or line.startswith("status: ") and line not in passed
        for line in text.splitlines()
    )


# refusals that random draws seldom reach: a bridge of more items than
# an index holds; a weight past float range on a population whose bound
# is 0, so that the bound itself is in range; and the huge sizes that
# ran without end before their ceilings
@example((["check-inequality", "--id", "bridge", "--mode", "mc", "--bridge-m",
           HUGE, "--samples", "3", "--seed", "1"], {}))
@example((["check-inequality", "--id", "garsia_weighted", "--mode", "mc",
           "--population", os.path.join(DIR, "p"), "--weights",
           os.path.join(DIR, "w"), "--samples", "3", "--seed", "1"],
          {os.path.join(DIR, "p"): b"0\n0\n0\n",
           os.path.join(DIR, "w"): b"1" + b"0" * 400 + b"\n1\n1\n"}))
@example((["check-inequality", "--id", "quadratic", "--mode", "mc", "--population",
           os.path.join(DIR, "p"), "--samples", HUGE, "--seed", "1"],
          {os.path.join(DIR, "p"): b"1\n-1\n2\n-2\n"}))
@example((["dump-matrices", "--basis", "quadratic", "--n", HUGE, "--total", "0",
           "--square-sum", "1"], {}))
@example((["sweep", os.path.join(DIR, "s")],
          {os.path.join(DIR, "s"): json.dumps(
              [{"id": "quadratic", "mode": "mc", "random": {"n": int(HUGE)},
                "samples": 10}]).encode()}))
@settings(max_examples=300, derandomize=True, database=None, deadline=5_000,
          suppress_health_check=[HealthCheck.too_slow])
@given(invocation())
def test_every_invocation_keeps_the_exit_code_contract(case):
    argv, files = case
    with tempfile.TemporaryDirectory() as tmp:
        argv = [arg.replace(DIR, tmp) for arg in argv]
        for name, data in files.items():
            with open(name.replace(DIR, tmp), "wb") as fh:
                fh.write(data)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = main(argv)
        text, err = stdout.getvalue(), stderr.getvalue()
        out = os.path.join(tmp, "out.txt")
        if "--output" in argv and os.path.isfile(out):
            with open(out, encoding="utf-8") as fh:
                text = fh.read()
    assert rc in (0, 1, 2), (argv, rc)
    assert "Traceback" not in err, argv
    if rc == 2:
        assert "error:" in err or "usage:" in err, (argv, err)
    elif rc == 1:
        fmt = "json"  # the last --format given wins
        for flag, value in zip(argv, argv[1:]):
            if flag == "--format":
                fmt = value
        assert failed_check(argv[0], fmt, text, err), (argv, text, err)
