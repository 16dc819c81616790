"""How a ``python -m permartingale`` process ends.

Importing ``permartingale.cli`` registers ``gc.freeze`` with ``atexit``,
so the interpreter's final collections skip what is still alive; the
package import alone and in-process ``main`` calls must not freeze.
Output that cannot be written ends with an ``error:`` line and exit 2,
never with the interpreter's exit status 120 or a traceback; so does an
error whose report cannot be written, without the line.
"""

import contextlib
import gc
import io
import json
import os
import subprocess
import sys

import pytest

from permartingale.cli import main

from conftest import pop_file

# an atexit hook registered before anything else runs last, after the
# front end's hook, and reports how many objects were frozen
FREEZE_PROBE = (
    "import atexit, gc, os\n"
    "atexit.register(lambda: os.write(2, b'frozen %d' % gc.get_freeze_count()))\n"
)


def _python(*args):
    return subprocess.run(
        [sys.executable, *args], stdin=subprocess.DEVNULL, capture_output=True
    )


def _in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue().encode(), err.getvalue().encode()


@pytest.fixture()
def files(tmp_path):
    spec = tmp_path / "rows.json"
    spec.write_text(json.dumps(
        [{"id": "max_averages", "mode": "exact", "population": [1, -1, 2, -2]},
         {"id": "quadratic", "mode": "mc", "population": [1, -1, 2, -2], "samples": 50}]
    ), encoding="utf-8")
    return pop_file(tmp_path, [1, -1, 2, -2], name="four.txt"), str(spec)


def test_the_freeze_reaches_only_processes_that_import_the_front_end(files):
    four, _ = files
    cli = FREEZE_PROBE + (
        "from permartingale.cli import main\n"
        f"main(['check-inequality', '--id', 'quadratic', '--mode', 'exact',"
        f" '--population', {four!r}])\n"
    )
    library = FREEZE_PROBE + (
        "import permartingale as pm\n"
        "pop = pm.make_population([1, -1, 2, -2])\n"
        "pm.verify('quadratic', population=pop)\n"
        "pm.verify('quadratic', population=pop, mode='mc', samples=50, seed=1)\n"
    )
    frozen = {}
    for name, code in (("cli", cli), ("library", library)):
        result = _python("-c", code)
        assert result.returncode == 0, result.stderr
        assert b"Traceback" not in result.stderr, result.stderr
        frozen[name] = int(result.stderr.rsplit(b"frozen ", 1)[1])
    assert frozen["cli"] > 0
    assert frozen["library"] == 0


def test_in_process_calls_keep_collecting(files):
    four, spec = files
    for argv in (["--help"], ["moments", "--population", four], ["sweep", spec]):
        _in_process(argv)
    assert gc.get_freeze_count() == 0
    assert gc.isenabled()


def test_output_survives_the_exit_path(tmp_path, files):
    # each subcommand in json, a Monte Carlo csv and a text call, an
    # --output file and a refusal: the process's bytes and exit code
    # are those of the same call in process
    four, spec = files
    out = tmp_path / "out.txt"
    calls = [
        ["verify-martingale", "--kind", "m2", "--population", four],
        ["check-inequality", "--id", "quadratic", "--mode", "exact", "--population", four],
        ["moments", "--population", four],
        ["dump-matrices", "--basis", "quadratic", "--population", four],
        ["sweep", spec],
        ["check-inequality", "--id", "hardy", "--mode", "mc", "--samples", "100",
         "--seed", "3", "--population", four, "--format", "csv"],
        ["verify-martingale", "--kind", "mtilde", "--population", four, "--format", "text"],
        ["moments", "--population", four, "--output", str(out)],
        ["check-inequality", "--id", "quadratic", "--mode", "exact",
         "--population", str(tmp_path / "missing.txt")],
    ]
    for argv in calls:
        expected = _in_process(argv)
        written = out.read_bytes() if "--output" in argv else None
        result = _python("-m", "permartingale", *argv)
        assert (result.returncode, result.stdout, result.stderr) == expected, argv
        if written is not None:
            assert expected[1] == b"" and out.read_bytes() == written
    assert expected[0] == 2 and expected[2].startswith(b"error: ")  # the refusal


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True])
def test_output_that_cannot_be_written_exits_2(files, unbuffered):
    four, spec = files
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    calls = [
        ["check-inequality", "--id", "quadratic", "--mode", "exact", "--population", four],
        ["sweep", spec, "--format", "csv"],
        ["--help"],
    ]
    for argv in calls:
        with open("/dev/full", "wb") as full:
            result = subprocess.run(
                [sys.executable, "-m", "permartingale", *argv],
                stdin=subprocess.DEVNULL, stdout=full, stderr=subprocess.PIPE, env=env,
            )
        assert result.returncode == 2, (argv, result.stderr)
        assert result.stderr == b"error: [Errno 28] No space left on device\n", argv


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True])
def test_an_error_that_cannot_be_reported_still_exits_2(tmp_path, unbuffered):
    # stderr on /dev/full: a usage error, which argparse reports, and a
    # missing file, which main reports, keep exit 2 with nothing written
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    for argv in (["--bogus"], ["check-inequality", "--id", "quadratic", "--mode", "exact",
                               "--population", str(tmp_path / "missing.txt")]):
        with open("/dev/full", "wb") as full:
            result = subprocess.run(
                [sys.executable, "-m", "permartingale", *argv],
                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=full, env=env,
            )
        assert (result.returncode, result.stdout) == (2, b""), argv


def test_a_missing_stdout_exits_2(monkeypatch, tmp_path, files):
    four, _ = files
    check = ["check-inequality", "--id", "quadratic", "--mode", "exact", "--population", four]
    monkeypatch.setattr(sys, "stdout", None)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(check) == 2
    assert err.getvalue() == "error: standard output is closed\n"
    # a call that writes no standard output still runs, and argparse
    # sends its help to standard error
    out = tmp_path / "out.json"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main([*check, "--output", str(out)]) == 0
        assert main(["--help"]) == 0
    assert json.loads(out.read_text())["holds"] is True
    assert err.getvalue().startswith("usage: permartingale")


def _errored_sweep(tmp_path):
    # a csv sweep whose first row is refused (the population is not
    # centered) and whose second runs
    spec = tmp_path / "errored.json"
    spec.write_text(json.dumps(
        [{"id": "quadratic", "population": [1, 2]},
         {"id": "max_averages", "population": [1, -1]}]
    ), encoding="utf-8")
    return ["sweep", str(spec), "--format", "csv"]


def test_a_missing_stderr_drops_the_sweep_row_errors(monkeypatch, tmp_path):
    # a csv sweep writes its row errors to standard error; with none, they
    # are dropped, as main's own error line is, and stdout is the CSV alone
    argv = _errored_sweep(tmp_path)
    rc, csv_text, err = _in_process(argv)
    assert rc == 1 and err.startswith(b"row 0: error: ") and b"error" not in csv_text
    monkeypatch.setattr(sys, "stderr", None)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 1
    assert out.getvalue().encode() == csv_text


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_sweep_row_errors_that_cannot_be_written_exit_2(tmp_path):
    with open("/dev/full", "wb") as full:
        result = subprocess.run(
            [sys.executable, "-m", "permartingale", *_errored_sweep(tmp_path)],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=full,
        )
    assert result.returncode == 2


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
def test_each_input_file_may_be_a_pipe(tmp_path, files):
    # every file is read once, so a population, weights or multipliers
    # file given as /dev/stdin runs as the regular file does
    four, _ = files
    weights = pop_file(tmp_path, [1, 2, 3, 4], name="w4.txt")

    def sweep_spec(name, population_file):
        path = tmp_path / name
        path.write_text(json.dumps(
            [{"id": "max_averages", "population": [1, -1, 2, -2]},
             {"id": "garsia_unweighted", "mode": "mc", "population_file": population_file,
              "samples": 50, "seed": 5}]
        ), encoding="utf-8")
        return str(path)

    spec, piped_spec = sweep_spec("file.json", four), sweep_spec("pipe.json", "/dev/stdin")
    # each call, and the file whose text goes through the pipe
    calls = [
        (["verify-martingale", "--kind", "m2", "--population", four], four),
        (["verify-martingale", "--kind", "weighted", "--population", four,
          "--multipliers", weights, "--format", "text"], weights),
        (["check-inequality", "--id", "quadratic", "--mode", "exact",
          "--population", four], four),
        (["check-inequality", "--id", "hardy", "--mode", "mc", "--samples", "50",
          "--seed", "3", "--population", four, "--format", "csv"], four),
        (["check-inequality", "--id", "vna_weighted", "--mode", "exact",
          "--population", four, "--weights", weights], weights),
        (["moments", "--population", four], four),
        (["dump-matrices", "--basis", "quadratic", "--population", four], four),
        (["dump-matrices", "--basis", "weighted", "--n", "4",
          "--multipliers", weights], weights),
        (["sweep", spec], four),
    ]
    for argv, piped in calls:
        expected = _in_process(argv)
        assert expected[0] in (0, 1) and expected[1], argv
        with open(piped, "rb") as fh:
            text = fh.read()
        pipe_argv = [{piped: "/dev/stdin", spec: piped_spec}.get(a, a) for a in argv]
        result = subprocess.run(
            [sys.executable, "-m", "permartingale", *pipe_argv], input=text, capture_output=True
        )
        assert (result.returncode, result.stdout, result.stderr) == expected, argv
