import contextlib
import hashlib
import io
import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from permartingale import (
    EnumerationLimitError,
    Error,
    InequalityId,
    check_martingale,
    make_population,
    make_spec,
    moment_report,
    random_centered_population,
    verify,
)
from permartingale.cli import _sweep_row_seed, main

from conftest import pop_file


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


@pytest.fixture()
def four_file(tmp_path):
    return pop_file(tmp_path, [1, -1, 2, -2], name="four.txt")


def test_moments_reports_the_pinned_product_moment(four_file):
    rc, out, err = run_cli(["moments", "--population", four_file])
    assert rc == 0 and err == ""
    payload = json.loads(out)
    assert payload["command"] == "moments"
    assert payload["all_equal"] is True
    rows = {r["name"]: r for r in payload["rows"]}
    assert rows["E[X1 X2 X3 X4]"]["formula"] == "4"
    assert rows["E[X1 X2 X3 X4]"]["oracle"] == "4"


def test_moments_text_format(four_file):
    rc, out, _ = run_cli(
        ["moments", "--population", four_file, "--format", "text"]
    )
    assert rc == 0
    assert "E[X1 X2 X3 X4]" in out and "4" in out


def test_check_inequality_bridge_example():
    rc, out, err = run_cli(
        ["check-inequality", "--id", "bridge", "--bridge-m", "2",
         "--mode", "exact"]
    )
    assert rc == 0 and err == ""
    payload = json.loads(out)
    assert payload["command"] == "check-inequality"
    assert payload["lhs"] == "32/9"
    assert payload["rhs"] == "512"
    assert payload["holds"] is True
    assert payload["status"] == "holds"


def test_check_inequality_text_and_csv(four_file):
    rc, out, _ = run_cli(
        ["check-inequality", "--id", "max_averages", "--population",
         four_file, "--mode", "exact", "--format", "text"]
    )
    assert rc == 0
    assert out.splitlines() == ["id: max_averages", "mode: exact", "n: 4",
                                "lhs: 65/24", "rhs: 10", "status: holds"]
    rc, out, _ = run_cli(
        ["check-inequality", "--id", "max_averages", "--population",
         four_file, "--mode", "exact", "--format", "csv"]
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "id,n,mode,lhs,rhs,holds,seed,samples"
    assert lines[1] == "max_averages,4,exact,65/24,10,true,,"


@pytest.mark.parametrize("iid, samples", [("hardy", "64"), ("garsia_unweighted", "1")])
def test_text_reports_list_only_the_fields_a_report_has(four_file, iid, samples):
    # an MC hardy run (a sampled maximum) and a one-sample run have no stderr
    argv = ["check-inequality", "--id", iid, "--population", four_file,
            "--mode", "mc", "--samples", samples, "--seed", "3"]
    rc, out, _ = run_cli(argv + ["--format", "json"])
    rd = json.loads(out)
    assert "stderr" in rd and rd["stderr"] is None
    rc_text, text, _ = run_cli(argv + ["--format", "text"])
    assert rc_text == rc
    assert "None" not in text and "stderr:" not in text
    fields = ("id", "mode", "n", "lhs", "rhs", "samples", "seed", "status")
    assert text.splitlines() == [f"{f}: {rd[f]}" for f in fields]


def test_check_inequality_weighted_needs_weights_file(tmp_path, four_file):
    weights = pop_file(tmp_path, [1, -1, 1, -1], name="w.txt")
    rc, out, _ = run_cli(
        ["check-inequality", "--id", "vna_weighted", "--population",
         four_file, "--weights", weights, "--mode", "exact"]
    )
    assert rc == 0
    assert json.loads(out)["holds"] is True
    rc, _, err = run_cli(
        ["check-inequality", "--id", "vna_weighted", "--population",
         four_file, "--mode", "exact"]
    )
    assert rc == 2 and "error:" in err


def test_check_inequality_mc_accepts_decimal_populations(tmp_path):
    path = tmp_path / "dec.txt"
    path.write_text("0.5\n-0.5\n1.5\n-1.5\n", encoding="utf-8")
    rc, out, _ = run_cli(
        ["check-inequality", "--id", "garsia_unweighted", "--population",
         str(path), "--mode", "mc", "--samples", "2000", "--seed", "9"]
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["mode"] == "mc"
    assert isinstance(payload["lhs"], float)
    rc, _, err = run_cli(
        ["check-inequality", "--id", "garsia_unweighted", "--population",
         str(path), "--mode", "exact"]
    )
    assert rc == 2 and "error:" in err


def test_check_inequality_mc_verdicts_other_than_consistent(
    four_file, monkeypatch
):
    from permartingale import inequalities

    argv = ["check-inequality", "--id", "garsia_unweighted", "--population",
            four_file, "--mode", "mc", "--seed", "3"]
    # one sample gives no standard error, so nothing can be concluded
    rc, out, _ = run_cli(argv + ["--samples", "1"])
    rd = json.loads(out)
    assert (rc, rd["status"], rd["holds"]) == (1, "inconclusive", False)
    assert rd["stderr"] is None
    base = verify("garsia_unweighted", population=make_population([1, -1, 2, -2]),
                  mode="mc", samples=2000, seed=3)
    assert base.status == "consistent" and base.stderr > 0
    iid = InequalityId.GARSIA_UNWEIGHTED
    rule = inequalities._RULES[iid]
    # a bound below the estimate - 4 stderr, then one inside estimate ± 4 stderr
    for bound, status in ((base.lhs - 5 * base.stderr, "violation-suspected"),
                          (base.lhs, "inconclusive")):
        rhs = Fraction(bound)
        monkeypatch.setitem(inequalities._RULES, iid,
                            rule._replace(rhs=lambda pop, ws: rhs))
        rc, out, _ = run_cli(argv + ["--samples", "2000"])
        rd = json.loads(out)
        assert (rc, rd["status"], rd["holds"]) == (1, status, False)
        assert rd["lhs"] == base.lhs and rd["stderr"] == base.stderr
        assert math.isfinite(rd["stderr"])


def test_verify_martingale_holds(four_file):
    rc, out, err = run_cli(
        ["verify-martingale", "--kind", "mtilde", "--population", four_file]
    )
    assert rc == 0 and err == ""
    payload = json.loads(out)
    assert payload["command"] == "verify-martingale"
    assert payload["holds"] is True
    assert payload["worst_history"] is None


def test_verify_martingale_weighted_kind(tmp_path, four_file):
    weights = pop_file(tmp_path, ["1", "-2", "1/3", "0"], name="mults.txt")
    rc, out, _ = run_cli(
        ["verify-martingale", "--kind", "weighted", "--population",
         four_file, "--multipliers", weights]
    )
    assert rc == 0
    assert json.loads(out)["holds"] is True


def test_verify_martingale_rejects_csv(four_file):
    rc, _, err = run_cli(
        ["verify-martingale", "--kind", "m2", "--population", four_file,
         "--format", "csv"]
    )
    assert rc == 2 and "error:" in err and "invalid choice: 'csv'" in err


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_verify_martingale_reports_a_failing_check(
    tmp_path, four_file, monkeypatch, fmt
):
    from permartingale import martingales

    right = martingales.weighted_value

    def wrong(n):
        # the weighted definition doubles at k = 2 where W_k > 0
        f = right(n)
        return lambda k, s, w, a: f(k, s, w, a) * (2 if k == 2 and w > 0 else 1)

    monkeypatch.setattr(martingales, "weighted_value", wrong)
    ws = [1, -1, 2, 0]
    rc, out, err = run_cli(
        ["verify-martingale", "--kind", "weighted", "--population", four_file,
         "--multipliers", pop_file(tmp_path, ws, name="w.txt"), "--format", fmt]
    )
    spec = make_spec("weighted", make_population([1, -1, 2, -2]), ws)
    w = check_martingale(spec).to_dict()["worst_history"]
    assert rc == 1 and err == "" and w is not None and w["prefix"]
    if fmt == "json":
        payload = json.loads(out)
        assert payload["holds"] is False and payload["worst_history"] == w
    else:
        assert "holds: no" in out
        prefix = ", ".join(w["prefix"])
        assert f"violation at k={w['k']} after prefix ({prefix}):" in out


def test_echoed_file_paths_are_quoted(tmp_path, four_file):
    # a newline or an escape byte in a path neither splits the error line
    # nor reaches the terminal raw: a path is echoed as its repr
    hostile = "\n\x1b[31m"
    bad = pop_file(tmp_path, [1, "x", 3, 4], name=f"bad{hostile}.txt")
    missing = str(tmp_path / f"missing{hostile}.txt")
    exact = ["--mode", "exact"]
    for argv, formats in (
        (["check-inequality", "--id", "quadratic", *exact, "--population", bad], ("text", "csv")),
        (["check-inequality", "--id", "vna_weighted", *exact, "--population", four_file,
          "--weights", missing], ("text", "csv")),
        (["verify-martingale", "--kind", "m2", "--population", missing], ("text", "json")),
        (["verify-martingale", "--kind", "weighted", "--population", four_file,
          "--multipliers", bad], ("text", "json")),
        (["moments", "--population", bad], ("text", "csv")),
        (["dump-matrices", "--basis", "quadratic", "--population", missing], ("text", "json")),
        (["sweep", missing], ("text", "csv")),
    ):
        path = bad if bad in argv else missing
        for fmt in formats:
            rc, out, err = run_cli([*argv, "--format", fmt])
            assert rc == 2 and out == "" and err.count("\n") == 1, (argv, fmt)
            assert "\x1b" not in err and repr(path) in err, (argv, fmt)
    spec = tmp_path / "rows.json"
    for row in ({"id": "max_averages", "population_file": bad},
                {"id": "vna_weighted", "population_file": four_file, "weights_file": bad}):
        spec.write_text(json.dumps([{"mode": "exact", **row}]), encoding="utf-8")
        for fmt in ("text", "csv"):
            rc, out, err = run_cli(["sweep", str(spec), "--format", fmt])
            assert rc == 1 and len((out + err).splitlines()) == 2, (row, fmt)
            assert "\x1b" not in out + err and f"row 0: error: {bad!r}, line 2: " in out + err


def test_exit_codes_for_bad_input(tmp_path, four_file):
    rc, _, _ = run_cli(["check-inequality", "--id", "no_such", "--mode",
                        "exact", "--population", four_file])
    assert rc == 2
    rc, _, err = run_cli(["moments", "--population",
                          str(tmp_path / "missing.txt")])
    assert rc == 2 and "error:" in err
    bad = tmp_path / "bad.txt"
    bad.write_text("1\nnot-a-number\n", encoding="utf-8")
    rc, _, err = run_cli(["moments", "--population", str(bad)])
    assert rc == 2 and f"{str(bad)!r}, line 2" in err
    rc, _, err = run_cli(
        ["check-inequality", "--id", "max_averages", "--population",
         four_file, "--mode", "mc", "--samples", "100"]
    )
    assert rc == 2  # no seed given and no env default


def test_exit_code_two_for_oversized_exact_run(tmp_path):
    big = pop_file(tmp_path, [1, -1] * 6, name="big.txt")
    rc, _, err = run_cli(
        ["check-inequality", "--id", "garsia_unweighted", "--population",
         big, "--mode", "exact"]
    )
    assert rc == 2 and "error:" in err


def test_env_var_supplies_mc_seed(four_file, monkeypatch):
    monkeypatch.setenv("PERMARTINGALE_SEED", "321")
    rc, out, _ = run_cli(
        ["check-inequality", "--id", "max_averages", "--population",
         four_file, "--mode", "mc", "--samples", "1000"]
    )
    assert rc == 0
    assert json.loads(out)["seed"] == 321
    monkeypatch.setenv("PERMARTINGALE_SEED", "junk")
    rc, _, err = run_cli(
        ["check-inequality", "--id", "max_averages", "--population",
         four_file, "--mode", "mc", "--samples", "1000"]
    )
    assert rc == 2 and "PERMARTINGALE_SEED" in err


def test_json_output_is_byte_identical_across_runs(four_file):
    argv = ["check-inequality", "--id", "quadratic", "--population",
            four_file, "--mode", "mc", "--samples", "5000", "--seed", "77"]
    rc1, out1, _ = run_cli(argv)
    rc2, out2, _ = run_cli(argv)
    assert rc1 == rc2 == 0
    assert out1 == out2
    rc1, out1, _ = run_cli(["moments", "--population", four_file])
    rc2, out2, _ = run_cli(["moments", "--population", four_file])
    assert out1 == out2


def test_output_flag_writes_file(tmp_path, four_file):
    target = tmp_path / "report.json"
    rc, out, _ = run_cli(
        ["moments", "--population", four_file, "--output", str(target)]
    )
    assert rc == 0 and out == ""
    assert json.loads(target.read_text(encoding="utf-8"))["all_equal"] is True


def test_dump_matrices_population_route(four_file):
    rc, out, _ = run_cli(
        ["dump-matrices", "--basis", "quadratic", "--population", four_file]
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["command"] == "dump-matrices"
    assert payload["n"] == 4
    assert payload["total"] == "0"
    assert payload["square_sum"] == "10"
    assert payload["transitions_first_state"] == 0
    assert payload["inverse_products_first_index"] == 1
    assert len(payload["transitions"]) == 2  # k = 0, 1
    assert len(payload["inverse_products"]) == 2  # k = 1, 2
    assert payload["transitions"][0][3] == ["0", "0", "0", "1"]


def test_dump_matrices_explicit_route():
    rc, out, _ = run_cli(
        ["dump-matrices", "--basis", "quadratic", "--n", "5", "--total",
         "1/2", "--square-sum", "19/4"]
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["total"] == "1/2" and payload["n"] == 5


def test_dump_matrices_weighted_route(tmp_path):
    weights = pop_file(tmp_path, ["1", "-1", "2", "0"], name="mults.txt")
    rc, out, _ = run_cli(
        ["dump-matrices", "--basis", "weighted", "--n", "4",
         "--multipliers", weights]
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["total"] is None and payload["square_sum"] is None
    assert payload["multipliers"] == ["1", "-1", "2", "0"]
    assert len(payload["transitions"]) == 3
    assert len(payload["inverse_products"]) == 3


def test_dump_matrices_input_validation(four_file):
    rc, _, err = run_cli(["dump-matrices", "--basis", "quadratic"])
    assert rc == 2 and "error:" in err
    rc, _, err = run_cli(
        ["dump-matrices", "--basis", "quadratic", "--population", four_file,
         "--n", "4"]
    )
    assert rc == 2
    rc, _, err = run_cli(
        ["dump-matrices", "--basis", "quadratic", "--population", four_file,
         "--format", "csv"]
    )
    assert rc == 2
    rc, out, err = run_cli(
        ["dump-matrices", "--basis", "quadratic", "--n", "4", "--total", "0",
         "--square-sum", "10", "--multipliers", four_file]
    )
    assert rc == 2 and out == ""
    assert "the quadratic basis takes no multipliers" in err
    rc, out, err = run_cli(
        ["dump-matrices", "--basis", "quadratic", "--population", four_file,
         "--cutoff", "5"]
    )
    assert rc == 2 and out == "" and "unrecognized arguments: --cutoff" in err
    rc, out, err = run_cli(
        ["dump-matrices", "--basis", "weighted", "--n", "4", "--total", "0",
         "--multipliers", four_file]
    )
    assert rc == 2 and out == ""
    assert "the weighted matrices do not involve --total/--square-sum" in err


def test_sweep_empty_file(tmp_path):
    spec = tmp_path / "empty.json"
    spec.write_text("[]", encoding="utf-8")
    rc, out, _ = run_cli(["sweep", str(spec)])
    assert rc == 0
    payload = json.loads(out)
    assert payload["total"] == 0
    assert payload["passed"] == 0 and payload["failed"] == 0


def test_sweep_counts_a_row_that_runs_but_does_not_hold(tmp_path):
    spec = tmp_path / "rows.json"
    spec.write_text(json.dumps([
        {"id": "vna_weighted", "population": ["1", "-1", "2", "-2"],
         "weights": ["1", "-1/2", "1", "1/4"]},
        {"id": "max_averages", "mode": "mc", "population": ["1", "-1"],
         "samples": 1, "seed": 3},
    ]), encoding="utf-8")
    rc, out, _ = run_cli(["sweep", str(spec)])
    payload = json.loads(out)
    assert rc == 1
    assert (payload["passed"], payload["failed"], payload["errors"]) == (1, 1, 0)
    first, second = (row["report"] for row in payload["rows"])
    assert first["holds"] and first["params"]["weights"] == ["1", "-1/2", "1", "1/4"]
    assert second["status"] == "inconclusive" and not second["holds"]
    rc, out, _ = run_cli(["sweep", str(spec), "--format", "text"])
    assert rc == 1
    assert out.splitlines()[1:] == [
        "row 1: id=max_averages mode=mc n=2 lhs=1.0 rhs=4 status=inconclusive",
        "total 2, passed 1, failed 1, errors 0",
    ]


def test_sweep_mixed_rows(tmp_path, four_file):
    rows = [
        {"id": "max_averages", "mode": "exact", "population": [1, -1, 2, -2]},
        {"id": "bridge", "mode": "exact", "bridge_m": 2},
        {"id": "garsia_unweighted", "mode": "exact",
         "population_file": four_file},
        {"id": "quadratic", "mode": "mc",
         "random": {"n": 12}, "samples": 2000},
        # Monte Carlo rows read decimals from their files, as the CLI does
        {"id": "vna_weighted", "mode": "mc", "samples": 2000,
         "population_file": pop_file(tmp_path, [0.5, -0.5, 1.5, -1.5], "dec.txt"),
         "weights_file": pop_file(tmp_path, [1, -0.5, 1, 0.25], "decw.txt")},
    ]
    spec = tmp_path / "rows.json"
    spec.write_text(json.dumps(rows), encoding="utf-8")
    rc, out, _ = run_cli(["sweep", str(spec), "--seed", "99"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["total"] == 5
    assert payload["passed"] == 5
    assert payload["failed"] == 0 and payload["errors"] == 0
    reports = [r["report"] for r in payload["rows"]]
    assert reports[0]["lhs"] == "65/24"
    assert reports[1]["lhs"] == "32/9"
    assert reports[3]["mode"] == "mc" and reports[3]["n"] == 12
    assert reports[4]["mode"] == "mc" and reports[4]["n"] == 4
    assert reports[4]["params"]["weights"] == ["1", "-1/2", "1", "1/4"]


def test_sweep_is_deterministic_under_master_seed(tmp_path):
    rows = [
        {"id": "garsia_unweighted", "mode": "mc", "random": {"n": 9},
         "samples": 3000},
        {"id": "max_averages", "mode": "exact", "random": {"n": 5}},
    ]
    spec = tmp_path / "rows.json"
    spec.write_text(json.dumps(rows), encoding="utf-8")
    rc1, out1, _ = run_cli(["sweep", str(spec), "--seed", "4"])
    rc2, out2, _ = run_cli(["sweep", str(spec), "--seed", "4"])
    assert rc1 == rc2 == 0
    assert out1 == out2
    rc3, out3, _ = run_cli(["sweep", str(spec), "--seed", "5"])
    assert out3 != out1


def test_sweep_derives_row_seeds_from_seed_sequence(tmp_path):
    rows = [{"id": "max_averages", "mode": "mc", "population": [1, -1, 2, -2],
             "samples": 500}] * 2
    spec = tmp_path / "rows.json"
    spec.write_text(json.dumps(rows), encoding="utf-8")
    rc, out, _ = run_cli(["sweep", str(spec), "--seed", "7"])
    assert rc == 0
    seeds = [r["report"]["seed"] for r in json.loads(out)["rows"]]
    want = [
        int(np.random.SeedSequence((7, i)).generate_state(1, np.uint64)[0])
        for i in range(2)
    ]
    assert seeds == want
    # a pair that the affine mix master*1_000_003 + index would merge
    assert _sweep_row_seed(0, 1_000_003) != _sweep_row_seed(1, 0)


def test_sweep_refuses_a_negative_master_seed(tmp_path, monkeypatch):
    rows = [{"id": "max_averages", "mode": "mc", "population": [1, -1, 2, -2],
             "samples": 500}]
    spec = tmp_path / "rows.json"
    spec.write_text(json.dumps(rows), encoding="utf-8")
    rc, out, err = run_cli(["sweep", str(spec), "--seed", "-1"])
    assert rc == 2 and out == "" and "nonnegative" in err
    monkeypatch.setenv("PERMARTINGALE_SEED", "-3")
    rc, out, err = run_cli(["sweep", str(spec)])
    assert rc == 2 and out == "" and "nonnegative" in err


_BOUND = "bound is beyond float range; Monte Carlo mode needs values whose " \
    "statistic fits in a float"
_STATISTIC = "overflows float range on this population; rescale the values or " \
    "use exact mode"


@pytest.mark.parametrize(
    "iid, values, message",
    [
        # the bound beyond float range, refused before any value is sampled
        ("max_averages", ["1e400", "-1e400"], f"the max_averages {_BOUND}"),
        ("garsia_unweighted", ["1e160", "-1e160"], f"the garsia_unweighted {_BOUND}"),
        # the bound fits, but 100 samples of 9e306 sum past float range
        ("garsia_unweighted", ["3e153", "-3e153"],
         f"the Monte Carlo garsia_unweighted statistic {_STATISTIC}"),
        # the estimate, 1e200, fits; the sum of squares behind its
        # standard error does not
        ("garsia_unweighted", ["1e100", "-1e100"],
         f"the Monte Carlo garsia_unweighted statistic's standard error {_STATISTIC}"),
        ("max_averages", ["1e100", "-1e100", "2e100", "-2e100"],
         f"the Monte Carlo max_averages statistic's standard error {_STATISTIC}"),
    ],
)
def test_mc_overflow_is_an_input_error(tmp_path, iid, values, message):
    path = pop_file(tmp_path, values)
    result = subprocess.run(
        [sys.executable, "-m", "permartingale", "check-inequality", "--id", iid,
         "--population", path, "--mode", "mc", "--samples", "100", "--seed", "1"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == f"error: {message}\n"


def test_dump_matrices_weighted_refuses_an_uncentered_population(tmp_path):
    pop = pop_file(tmp_path, [1, 2, 3, 4])
    mult = pop_file(tmp_path, [1, 1, 1, 1], name="w.txt")
    rc, out, err = run_cli(
        ["dump-matrices", "--basis", "weighted", "--population", pop,
         "--multipliers", mult]
    )
    assert rc == 2 and out == "" and "centered" in err


def test_sweep_records_per_row_errors(tmp_path):
    rows = [
        {"id": "max_averages", "mode": "exact",
         "population": [1, -1] * 10},
        {"id": "max_averages", "mode": "exact", "population": [1, -1]},
        {"id": "max_averages", "mode": "exact", "population": [1, -1],
         "bogus_key": 1},
        # exact rows still refuse decimals in their files
        {"id": "max_averages", "mode": "exact",
         "population_file": pop_file(tmp_path, [0.5, -0.5], "dec.txt")},
        {"id": "vna_weighted", "mode": "exact", "population": [1, -1],
         "weights_file": pop_file(tmp_path, [1, 0.5], "decw.txt")},
    ]
    spec = tmp_path / "rows.json"
    spec.write_text(json.dumps(rows), encoding="utf-8")
    rc, out, _ = run_cli(["sweep", str(spec)])
    assert rc == 1
    payload = json.loads(out)
    assert payload["total"] == 5
    assert payload["passed"] == 1
    assert payload["errors"] == 4
    error_rows = [r for r in payload["rows"] if "error" in r]
    assert len(error_rows) == 4
    assert error_rows[0]["row"] == 0
    for r in error_rows[2:]:
        assert "decimals are not accepted in exact mode" in r["error"]


def test_a_monte_carlo_inline_row_reads_its_strings_as_a_file_row_does(tmp_path):
    # the same decimal values inline and in files give the same report;
    # exact inline rows stay strict, and JSON floats stay refused
    pop, ws = ["0.5", "-0.5", "1.25e0", "-5/4"], ["0.5", "1", 2, "1e0"]
    mc = {"mode": "mc", "samples": 50, "seed": 3}
    rows = [
        {"id": "vna_weighted", "population": pop, "weights": ws, **mc},
        {"id": "vna_weighted", "population_file": pop_file(tmp_path, pop),
         "weights_file": pop_file(tmp_path, ws, "w.txt"), **mc},
        {"id": "quadratic", "population": pop, **mc},
        {"id": "quadratic", "population_file": pop_file(tmp_path, pop), **mc},
        {"id": "quadratic", "mode": "exact", "population": pop},
        {"id": "vna_weighted", "mode": "exact", "population": [1, -1], "weights": ["0.5", 1]},
        {"id": "quadratic", "population": [0.5, -0.5], **mc},
    ]
    spec = tmp_path / "rows.json"
    spec.write_text(json.dumps(rows), encoding="utf-8")
    rc, out, _ = run_cli(["sweep", str(spec)])
    assert rc == 1
    got = json.loads(out)["rows"]
    assert got[0]["report"] == got[1]["report"]
    assert got[0]["report"]["params"]["weights"] == ["1/2", "1", "2", "1"]
    assert got[2]["report"] == got[3]["report"]
    assert got[2]["report"]["status"] == "consistent"
    for r in got[4:6]:
        assert "decimals are not accepted in exact mode" in r["error"]
    assert "got float 0.5" in got[6]["error"]


def test_oversized_exact_runs_are_refused_before_building(tmp_path, monkeypatch):
    def builder(*args, **kwargs):
        raise AssertionError("the population was built before the cutoff check")

    monkeypatch.setattr("permartingale.inequalities.make_bridge_population", builder)
    monkeypatch.setattr("permartingale.cli.random_centered_population", builder)
    rc, out, err = run_cli(
        ["check-inequality", "--id", "bridge", "--bridge-m", "100000",
         "--mode", "exact"]
    )
    assert rc == 2 and out == ""
    assert "population of size 200000, above the cutoff 10" in err
    # the cutoff comes before the centering check, which reads the total
    uncentered = pop_file(tmp_path, range(11), name="uncentered.txt")
    rc, out, err = run_cli(
        ["check-inequality", "--id", "max_averages", "--population",
         uncentered, "--mode", "exact"]
    )
    assert rc == 2 and out == ""
    assert "population of size 11, above the cutoff 10" in err
    rows = [{"id": "max_averages", "mode": "exact", "random": {"n": 200000}},
            {"id": "hardy", "mode": "exact", "random": {"n": 13}, "cutoff": 12}]
    spec = tmp_path / "rows.json"
    spec.write_text(json.dumps(rows), encoding="utf-8")
    rc, out, _ = run_cli(["sweep", str(spec)])
    errors = [r["error"] for r in json.loads(out)["rows"]]
    assert rc == 1
    assert "exact verification of 'max_averages'" in errors[0]
    assert "size 200000, above the cutoff 10" in errors[0]
    assert "exact verification of 'hardy'" in errors[1]
    assert "size 13, above the cutoff 12" in errors[1]


def test_huge_sizes_are_refused_by_their_estimate(tmp_path, four_file, monkeypatch):
    def work(*args, **kwargs):
        raise AssertionError("work began before the size check")

    monkeypatch.setattr("permartingale.inequalities._mc_lhs", work)
    monkeypatch.setattr("permartingale.construction._quadratic_product", work)
    monkeypatch.setattr("permartingale.cli.random_centered_population", work)
    huge = 10**21
    rc, out, err = run_cli(
        ["check-inequality", "--id", "quadratic", "--population", four_file,
         "--mode", "mc", "--samples", str(huge), "--seed", "1"]
    )
    assert rc == 2 and out == ""
    assert f"permutes samples x n = {huge} x 4 floats, above the limit of " \
        "10,000,000,000; use fewer samples" in err
    rc, out, err = run_cli(
        ["dump-matrices", "--basis", "quadratic", "--n", str(10**30), "--total",
         "0", "--square-sum", "1"]
    )
    assert rc == 2 and out == ""
    assert f"about 2n = 2 x {10**30} matrices, above the limit of 100,000" in err
    rc, _, err = run_cli(
        ["dump-matrices", "--basis", "quadratic", "--n", "50001", "--total", "0",
         "--square-sum", "1"]
    )
    assert rc == 2 and "above the limit of 100,000" in err
    rows = [{"id": "quadratic", "mode": "mc", "random": {"n": huge}},
            {"id": "hardy", "mode": "mc", "random": {"n": 40}, "samples": huge}]
    spec = tmp_path / "rows.json"
    spec.write_text(json.dumps(rows), encoding="utf-8")
    rc, out, _ = run_cli(["sweep", str(spec)])
    errors = [r["error"] for r in json.loads(out)["rows"]]
    assert rc == 1
    assert f"samples x n = 1 x {huge} floats" in errors[0]
    assert f"samples x n = {huge} x 40 floats" in errors[1]


def test_a_monte_carlo_sweep_row_without_samples_is_refused_before_drawing(
    tmp_path, monkeypatch
):
    # verify's own message, given before the row's population is drawn
    def draw(*args, **kwargs):
        raise AssertionError("the population was drawn before the samples check")

    monkeypatch.setattr("permartingale.cli.random_centered_population", draw)
    rows = [{"id": "quadratic", "mode": "mc", "random": {"n": 300000}},
            {"id": "quadratic", "mode": "mc", "random": {"n": 5}, "samples": 0},
            {"id": "quadratic", "mode": "mc", "random": {"n": 5}, "samples": "7"},
            {"id": "hardy", "mode": "mc", "random": {"n": 5}, "samples": 9, "seed": -1}]
    spec = tmp_path / "rows.json"
    spec.write_text(json.dumps(rows), encoding="utf-8")
    rc, out, _ = run_cli(["sweep", str(spec)])
    assert rc == 1
    assert [r["error"] for r in json.loads(out)["rows"]] == [
        "Monte Carlo mode needs samples and seed",
        "samples must be a positive int, got 0",
        "samples must be a positive int, got '7'",
        "seed must be a nonnegative int, got -1",
    ]


def _cutoff_refusal(iid, n):
    return (
        f"exact verification of '{iid}' needs enumeration over a population of "
        f"size {n}, above the cutoff 10; raise the cutoff (hard maximum 12) or "
        "use Monte Carlo mode"
    )


def _ceiling_refusal(n, count):
    return (
        f"a Monte Carlo run over n={n} items permutes samples x n = {count} x {n} "
        "floats, above the limit of 10,000,000,000; use fewer samples or a "
        "smaller population"
    )


@pytest.mark.parametrize("mode", ["exact", "mc"])
def test_every_inequality_run_is_refused_before_its_population_is_built(
    tmp_path, monkeypatch, mode
):
    # verify, check-inequality and each sweep row source ask one refusal,
    # on the size they know, before any population value is parsed, drawn
    # or built; the messages are those of the checks it replaced
    def work(*args, **kwargs):
        raise AssertionError("a population was built before the refusal")

    for name in ("population.parse_scalar", "cli.make_population",
                 "cli.random_centered_population",
                 "inequalities.make_bridge_population", "inequalities._resolve"):
        monkeypatch.setattr(f"permartingale.{name}", work)
    eleven = pop_file(tmp_path, range(-5, 6), name="eleven.txt")
    four = pop_file(tmp_path, [1, -1, 2, -2], name="four.txt")
    huge = 10**10
    if mode == "exact":
        calls = [(dict(population=make_population(range(-5, 6))),
                  _cutoff_refusal("quadratic", 11)),
                 (dict(bridge_m=6), _cutoff_refusal("bridge", 12))]
        argvs = [(["--id", "max_averages", "--population", eleven],
                  _cutoff_refusal("max_averages", 11))]
        rows = [({"id": "hardy", "population": list(range(-5, 6))},
                 _cutoff_refusal("hardy", 11)),
                ({"id": "quadratic", "population_file": eleven},
                 _cutoff_refusal("quadratic", 11)),
                ({"id": "garsia_unweighted", "random": {"n": 11}},
                 _cutoff_refusal("garsia_unweighted", 11)),
                ({"id": "bridge", "bridge_m": 6}, _cutoff_refusal("bridge", 12))]
    else:
        calls = [(dict(population=make_population([1, -1, 2, -2]), seed=1),
                  "Monte Carlo mode needs samples and seed"),
                 (dict(bridge_m=huge, samples=1, seed=1),
                  _ceiling_refusal(2 * huge, 1))]
        argvs = [(["--id", "max_averages", "--population", four, "--samples", "0",
                   "--seed", "1"], "samples must be a positive int, got 0"),
                 (["--id", "hardy", "--population", four, "--samples",
                   str(10**21), "--seed", "1"], _ceiling_refusal(4, 10**21))]
        rows = [({"id": "hardy", "population": [1, -1, 2, -2]},
                 "Monte Carlo mode needs samples and seed"),
                ({"id": "quadratic", "population_file": four, "samples": "7"},
                 "samples must be a positive int, got '7'"),
                ({"id": "garsia_unweighted", "random": {"n": 4}, "samples": 9,
                  "seed": -1}, "seed must be a nonnegative int, got -1"),
                ({"id": "bridge", "bridge_m": huge, "samples": 1},
                 _ceiling_refusal(2 * huge, 1))]
    for kwargs, want in calls:
        iid = "bridge" if "bridge_m" in kwargs else "quadratic"
        with pytest.raises(Error) as caught:
            verify(iid, mode=mode, **kwargs)
        assert str(caught.value) == want
    for argv, want in argvs:
        rc, out, err = run_cli(["check-inequality", "--mode", mode, *argv])
        assert (rc, out, err) == (2, "", f"error: {want}\n")
    spec = tmp_path / "rows.json"
    spec.write_text(
        json.dumps([{**row, "mode": mode} for row, _ in rows]), encoding="utf-8"
    )
    rc, out, _ = run_cli(["sweep", str(spec)])
    assert rc == 1
    assert [r["error"] for r in json.loads(out)["rows"]] == [w for _, w in rows]


def test_only_the_exact_verify_refusal_advises_monte_carlo(tmp_path, four_file):
    # verify-martingale and the moment oracles have no Monte Carlo mode
    weights = pop_file(tmp_path, [1, 2, 3, 4], name="w4.txt")
    for argv in (
        ["verify-martingale", "--kind", "weighted", "--population", four_file,
         "--multipliers", weights, "--cutoff", "3"],
        ["moments", "--population", four_file, "--cutoff", "3"],
    ):
        rc, out, err = run_cli(argv)
        assert rc == 2 and out == "", argv
        assert "above the cutoff 3; raise the cutoff (hard maximum 12)\n" in err
        assert "Monte Carlo" not in err, argv
    rc, out, err = run_cli(
        ["check-inequality", "--id", "alternating", "--population", four_file,
         "--mode", "exact", "--cutoff", "3"]
    )
    assert rc == 2 and out == ""
    assert "above the cutoff 3; raise the cutoff (hard maximum 12) or use " \
        "Monte Carlo mode\n" in err


def test_oversized_exact_files_are_refused_before_parsing(tmp_path, monkeypatch):
    big = pop_file(tmp_path, [1, -1] * 100_000, name="big.txt")
    spec = tmp_path / "rows.json"
    spec.write_text(json.dumps(
        [{"id": "quadratic", "mode": "exact", "population_file": big},
         {"id": "hardy", "mode": "exact", "population": [1, -1] * 100_000}]
    ), encoding="utf-8")

    def parse(*args, **kwargs):
        raise AssertionError("a value was parsed before the cutoff check")

    with monkeypatch.context() as m:
        m.setattr("permartingale.population.parse_scalar", parse)
        m.setattr("permartingale.cli.make_population", parse)
        for argv in (
            ["check-inequality", "--id", "max_averages", "--population", big,
             "--mode", "exact"],
            ["verify-martingale", "--kind", "m2", "--population", big],
            ["moments", "--population", big],
        ):
            rc, out, err = run_cli(argv)
            assert rc == 2 and out == "", argv
            assert "population of size 200000, above the cutoff 10" in err
        rc, out, err = run_cli(["dump-matrices", "--basis", "quadratic", "--population", big])
        assert rc == 2 and out == ""
        assert err.endswith("dump-matrices at n=200000 writes about 2n = 2 x 200000 "
                            "matrices, above the limit of 100,000; use a smaller n\n")
        rc, out, _ = run_cli(["sweep", str(spec)])
        errors = [row["error"] for row in json.loads(out)["rows"]]
        assert rc == 1
        assert "exact verification of 'quadratic'" in errors[0]
        assert "exact verification of 'hardy'" in errors[1]
        for error in errors:
            assert "size 200000, above the cutoff 10" in error
    # Monte Carlo mode parses the whole file, and a file within the
    # cutoff runs as before
    rc, out, _ = run_cli(
        ["check-inequality", "--id", "max_averages", "--population", big,
         "--mode", "mc", "--samples", "2", "--seed", "1"]
    )
    assert rc == 0 and json.loads(out)["n"] == 200_000
    small = pop_file(tmp_path, ["# four values", 1, "", -1, 2, -2], name="s.txt")
    for argv in (
        ["check-inequality", "--id", "max_averages", "--population", small,
         "--mode", "exact"],
        ["verify-martingale", "--kind", "m2", "--population", small],
    ):
        rc, out, _ = run_cli(argv)
        assert rc == 0 and json.loads(out)["n"] == 4, argv
    # the cutoff comes before the centering check, which sums the values
    uncentered = pop_file(tmp_path, [1] * 11, name="u.txt")
    rc, out, err = run_cli(["moments", "--population", uncentered])
    assert rc == 2 and out == ""
    assert "the moment oracle needs enumeration over a population of size 11" in err
    with pytest.raises(EnumerationLimitError, match="size 11, above the cutoff 10"):
        moment_report(make_population([1] * 11))


def test_wrong_length_weight_files_are_refused_before_parsing(tmp_path):
    # Where a run needs exactly n weights or multipliers, their file is
    # counted before any value is parsed: a file of the wrong length that
    # also holds an unparsable line gets the length message, word for
    # word validate_weights', from every entry point; a file of the right
    # length still gets the bad line's message.
    four = pop_file(tmp_path, [1, -1, 2, -2], name="four.txt")
    wrong = pop_file(tmp_path, [1, 2, "x", 3, "# six values", 4, 5], name="wrong.txt")
    right = pop_file(tmp_path, [1, "x", 3, 4], name="right.txt")
    message = "expected 4 multipliers, got 6"
    mc = ["--mode", "mc", "--samples", "10", "--seed", "1"]
    for path, expected in ((wrong, message), (right, f"{right!r}, line 2: ")):
        spec = tmp_path / "rows.json"
        spec.write_text(json.dumps(
            [{"id": "vna_weighted", "mode": "exact", "population_file": four,
              "weights_file": path},
             {"id": "garsia_weighted", "mode": "mc", "samples": 10,
              "population": [1, -1, 2, -2], "weights_file": path}]
        ), encoding="utf-8")
        for argv in (
            ["check-inequality", "--id", "vna_weighted", "--mode", "exact"],
            ["check-inequality", "--id", "garsia_weighted", *mc],
            ["verify-martingale", "--kind", "weighted"],
            ["dump-matrices", "--basis", "weighted"],
        ):
            flag = "--weights" if argv[0] == "check-inequality" else "--multipliers"
            rc, out, err = run_cli([*argv, "--population", four, flag, path])
            assert rc == 2 and out == "" and err.startswith(f"error: {expected}"), argv
        rc, out, err = run_cli(["dump-matrices", "--basis", "weighted", "--n", "4",
                                "--multipliers", path])
        assert rc == 2 and out == "" and err.startswith(f"error: {expected}")
        rc, out, _ = run_cli(["sweep", str(spec)])
        errors = [row["error"] for row in json.loads(out)["rows"]]
        assert rc == 1 and all(e.startswith(expected) for e in errors) and len(errors) == 2
    # a sweep row's inline weights list is counted the same way, in either mode
    inline = {"population": [1, -1, 2, -2], "weights": [1, 2, "x", 3, 4, 5]}
    spec.write_text(json.dumps(
        [{"id": "vna_weighted", "mode": "exact", **inline},
         {"id": "garsia_weighted", "mode": "mc", "samples": 10, "seed": 1, **inline}]
    ), encoding="utf-8")
    rc, out, _ = run_cli(["sweep", str(spec)])
    assert rc == 1 and [row["error"] for row in json.loads(out)["rows"]] == [message] * 2
    # a file of n values runs, and an id that takes no weights refuses
    # before its file is read
    ws = pop_file(tmp_path, [1, -1, 1, 1], name="w.txt")
    rc, out, _ = run_cli(["check-inequality", "--id", "vna_weighted", "--mode", "exact",
                          "--population", four, "--weights", ws])
    assert rc == 0 and json.loads(out)["params"]["weights"] == ["1", "-1", "1", "1"]
    rc, _, err = run_cli(["check-inequality", "--id", "max_averages", "--mode", "exact",
                          "--population", four, "--weights", wrong])
    assert rc == 2 and err == "error: the max_averages inequality takes no weights\n"


def test_a_value_file_that_no_run_reads_is_not_opened(tmp_path):
    # a --weights or --multipliers file that the run refuses is never
    # opened, so a directory given as one gets the run's own refusal, not
    # a read error; a run that takes the file still reads it
    four = pop_file(tmp_path, [1, -1, 2, -2], name="four.txt")
    folder = str(tmp_path)
    exact = ["--mode", "exact"]
    for argv, message in (
        (["check-inequality", "--id", "max_averages", *exact, "--population", four,
          "--weights", folder], "the max_averages inequality takes no weights"),
        (["check-inequality", "--id", "bridge", *exact, "--bridge-m", "2",
          "--weights", folder], "the bridge inequality takes no weights"),
        (["check-inequality", "--id", "vna_weighted", *exact, "--weights", folder],
         "a population is required"),
        (["verify-martingale", "--kind", "m2", "--population", four,
          "--multipliers", folder], "martingale kind 'm2' takes no multipliers"),
        (["dump-matrices", "--basis", "quadratic", "--population", four,
          "--multipliers", folder], "the quadratic basis takes no multipliers"),
        (["dump-matrices", "--basis", "weighted", "--multipliers", folder],
         "the weighted basis needs a population or n"),
        (["check-inequality", "--id", "vna_weighted", *exact, "--population", four,
          "--weights", folder], f"cannot read scalar file {folder!r}: "),
    ):
        rc, out, err = run_cli(argv)
        assert rc == 2 and out == "" and err.startswith(f"error: {message}"), argv


BIG = "9" * 5000  # past the interpreter's 4,300-digit conversion limit


@pytest.mark.parametrize("case", ["exact", "moments", "martingale", "dump",
                                  "sweep_string", "sweep_literal", "printing",
                                  "mc_population", "mc_weights"])
def test_integers_past_the_digit_limit_are_refused(case, tmp_path):
    pop = pop_file(tmp_path, [BIG, "-" + BIG, 1, -1])
    spec = tmp_path / "rows.json"
    # Monte Carlo files take decimals: Fraction would spend seconds on
    # each of these exponents, and minutes on 10**99999999
    huge = pop_file(tmp_path, ["-1e-99999999", "1e99999999"], "huge.txt")
    huge_weights = pop_file(tmp_path, ["1e99999999", "-1e-99999999", 1, 1], "w.txt")
    argv = {
        "exact": ["check-inequality", "--id", "max_averages", "--population",
                  pop, "--mode", "exact"],
        "moments": ["moments", "--population", pop],
        "martingale": ["verify-martingale", "--kind", "m2", "--population", pop],
        "dump": ["dump-matrices", "--basis", "quadratic", "--n", "5",
                 "--total", BIG, "--square-sum", "1"],
        "sweep_string": ["sweep", str(spec)],
        "sweep_literal": ["sweep", str(spec)],
        # parsed, but the fourth-moment rows run to about 6,000 digits
        "printing": ["moments", "--population",
                     pop_file(tmp_path, [10**1500, -10**1500, 2, -2], "p.txt")],
        "mc_population": ["check-inequality", "--id", "max_averages", "--mode",
                          "mc", "--samples", "10", "--seed", "1",
                          "--population", huge],
        "mc_weights": ["check-inequality", "--id", "vna_weighted", "--mode", "mc",
                       "--samples", "10", "--seed", "1", "--population",
                       pop_file(tmp_path, [1, -1, 2, -2], "four.txt"),
                       "--weights", huge_weights],
    }[case]
    spec.write_text({
        "sweep_string": json.dumps(
            [{"id": "max_averages", "population": [BIG, "-" + BIG, "1", "-1"]},
             {"id": "quadratic", "population": [str(10**1500), str(-10**1500), 2, -2]},
             {"id": "max_averages", "population": [1, -1, 2, -2]}]
        ),
        "sweep_literal": f'[{{"id": "max_averages", "population": [{BIG}, -{BIG}, 1, -1]}}]',
    }.get(case, "[]"), encoding="utf-8")
    start = time.perf_counter()
    rc, out, err = run_cli(argv)
    assert time.perf_counter() - start < 5
    assert "Traceback" not in err
    if case == "sweep_string":
        # a row at fault is that row's error; the other rows still run
        payload = json.loads(out)
        assert rc == 1 and (payload["errors"], payload["passed"]) == (2, 1)
        assert "limit on integer digits" in payload["rows"][0]["error"]
        assert "cannot be printed" in payload["rows"][1]["error"]
        return
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and "limit on integer digits" in err


def test_mc_block_out_of_memory_is_an_input_error(four_file, monkeypatch):
    # the chunk buffer is the block's first allocation
    def empty(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(np, "empty", empty)
    rc, out, err = run_cli(
        ["check-inequality", "--id", "garsia_unweighted", "--population",
         four_file, "--mode", "mc", "--samples", "100", "--seed", "1"]
    )
    assert rc == 2 and out == ""
    assert err.count("error:") == 1 and err.startswith("error: ")
    assert "block of 100 x 4" in err and "does not fit in memory" in err


@pytest.mark.parametrize("where", ["float_image", "statistic", "bridge"])
def test_memory_errors_before_the_first_block_are_input_errors(
    four_file, monkeypatch, where
):
    # the float image of the values, the statistic's own arrays and the
    # bridge's items are built inside a memory conversion: exit 2, not 1
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    argv = ["check-inequality", "--id", "quadratic", "--population", four_file,
            "--mode", "mc", "--samples", "100", "--seed", "1"]
    want = "a Monte Carlo block of 100 x 4 floats (0.00 GiB) does not fit in memory"
    if where == "float_image":
        monkeypatch.setattr("permartingale.population.Population.as_floats",
                            out_of_memory)
    elif where == "statistic":
        monkeypatch.setattr(np, "arange", out_of_memory)
    else:
        monkeypatch.setattr("permartingale.population.as_fraction", out_of_memory)
        argv[1:5] = ["--id", "bridge", "--bridge-m", "4"]
        want = "a bridge population of 2m = 8 items does not fit in memory"
    rc, out, err = run_cli(argv)
    assert rc == 2 and out == ""
    assert err.count("error:") == 1 and err.startswith(f"error: {want}")


def test_sweep_rejects_malformed_files(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    rc, _, err = run_cli(["sweep", str(bad)])
    assert rc == 2 and "error:" in err
    wrong_shape = tmp_path / "shape.json"
    wrong_shape.write_text('{"entries": []}', encoding="utf-8")
    rc, _, err = run_cli(["sweep", str(wrong_shape)])
    assert rc == 2
    for text in ('{"rows": 5}', '{"rows": {"id": "hardy"}}', '"rows"'):
        wrong_shape.write_text(text, encoding="utf-8")
        rc, out, err = run_cli(["sweep", str(wrong_shape)])
        assert rc == 2 and out == "" and "JSON list of rows" in err
    rc, _, err = run_cli(["sweep", str(tmp_path / "missing.json")])
    assert rc == 2 and "cannot read spec file" in err
    # a malformed random object is an error entry for its row, not a crash
    for random_spec in (
        {"n": 4.0}, {"n": "5"}, {"n": 4, "seed": [1, 2]},
        {"n": 4, "max_denominator": 0}, {"n": 4, "max_numerator": 0},
        {"n": 4, "seed": float("nan")}, {"n": 4, "seed": float("inf")},
    ):
        row = {"id": "max_averages", "mode": "exact", "random": random_spec}
        wrong_shape.write_text(json.dumps([row]), encoding="utf-8")
        rc, out, err = run_cli(["sweep", str(wrong_shape)])
        payload = json.loads(out)
        assert rc == 1 and payload["errors"] == 1, random_spec
        assert "error" in payload["rows"][0]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize(
    "row, message",
    [
        ({"id": "max_averages", "population": [1, -1], "random": {"n": 4}},
         "more than one population source: ['population', 'random']"),
        ({"id": "max_averages", "population": 5}, "'population' must be a list"),
        ({"id": "vna_weighted", "population": [1, -1], "weights": 3},
         "'weights' must be a list"),
        ({"id": "max_averages", "random": 4}, "'random' must be an object"),
        ({"id": "max_averages", "random": {"n": 4, "size": 2}},
         "unknown random keys ['size']"),
        ({"id": "max_averages", "random": {"seed": 1}}, "'random' needs 'n'"),
        (["max_averages"], "must be a JSON object"),
        ({"population": [1, -1]}, "missing 'id'"),
        ({"id": "vna_weighted", "population": [1, -1], "weights": [1, 1],
          "weights_file": "w.txt"}, "both 'weights' and 'weights_file'"),
    ],
)
def test_sweep_refuses_a_malformed_row_and_runs_the_others(
    tmp_path, row, message, fmt
):
    good = {"id": "max_averages", "mode": "exact", "population": [1, -1, 2, -2]}
    spec = tmp_path / "rows.json"
    spec.write_text(json.dumps([good, row, good]), encoding="utf-8")
    rc, out, err = run_cli(["sweep", str(spec), "--format", fmt])
    assert rc == 1 and "Traceback" not in err
    if fmt == "json":
        payload = json.loads(out)
        assert (payload["passed"], payload["errors"]) == (2, 1)
        assert payload["rows"][1]["row"] == 1
        error = payload["rows"][1]["error"]
        assert error == message  # the entry's "row" field carries the index
        assert err == ""
    else:
        assert len(out.splitlines()) == 3  # the header and the two good rows
        [line] = err.splitlines()
        assert line == f"row 1: error: {message}"


def test_sweep_random_rows_pass_only_the_bounds_they_give(tmp_path):
    rows = [{"id": "quadratic", "mode": "exact", "random": {"n": 5}},
            {"id": "quadratic", "mode": "exact",
             "random": {"n": 5, "max_numerator": 2}}]
    spec = tmp_path / "rows.json"
    spec.write_text(json.dumps(rows), encoding="utf-8")
    rc, out, _ = run_cli(["sweep", str(spec), "--seed", "7"])
    assert rc == 0
    pops = [random_centered_population(5, random.Random("7:0")),
            random_centered_population(5, random.Random("7:1"), max_numerator=2)]
    assert [e["report"] for e in json.loads(out)["rows"]] == [
        verify("quadratic", population=p).to_dict() for p in pops
    ]


def test_sweep_refuses_null_file_fields(tmp_path):
    # a row that has the key and whose run reads it: null is refused as a
    # path, not taken as no file, for weights as for a population; a
    # weights file that the run does not take is not read, so the run's
    # own refusal names the fault, as on the command line
    four = [1, -1, 2, -2]
    rows = [{"id": "max_averages", "population_file": None},
            {"id": "alternating", "population": four, "weights_file": None},
            {"id": "vna_weighted", "population": four, "weights_file": None},
            {"id": "max_averages", "population": four, "weights_file": None}]
    spec = tmp_path / "rows.json"
    spec.write_text(json.dumps(rows), encoding="utf-8")
    rc, out, err = run_cli(["sweep", str(spec)])
    assert rc == 1 and err == ""
    payload = json.loads(out)
    assert payload["errors"] == 4
    assert [r["error"] for r in payload["rows"]] == [
        "population file must be a path, got None",
        "the alternating inequality takes no weights; its signs (-1)^i are fixed",
        "scalar file must be a path, got None",
        "the max_averages inequality takes no weights",
    ]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_sweep_refuses_file_fields_that_are_not_paths(tmp_path, fmt):
    # a number would be opened as a file descriptor: 0 reads stdin, and
    # 1 or 2 is closed after reading, so this runs in its own process
    rows = [{"id": "max_averages", "mode": "exact", "population_file": fd}
            for fd in (0, 1, 2)]
    rows += [{"id": "vna_weighted", "mode": "exact", "population": [1, -1],
              "weights_file": fd} for fd in (0, 1, 2)]
    rows.append({"id": "max_averages", "mode": "exact", "population": [1, -1]})
    spec = tmp_path / "rows.json"
    spec.write_text(json.dumps(rows), encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "permartingale", "sweep", str(spec),
         "--format", fmt],
        stdin=subprocess.DEVNULL, capture_output=True, text=True,
    )
    assert result.returncode == 1, result.stderr
    if fmt == "json":
        payload = json.loads(result.stdout)
        assert (payload["passed"], payload["errors"]) == (1, 6)
        errors = [r["error"] for r in payload["rows"][:6]]
        assert payload["rows"][6]["report"]["holds"] is True
    else:
        errors = result.stderr.splitlines()
        assert len(errors) == 6
        assert result.stdout.splitlines()[1].startswith("max_averages,2,exact,")
    for i, fd in enumerate((0, 1, 2)):
        assert f"population file must be a path, got {fd}" in errors[i]
        assert f"scalar file must be a path, got {fd}" in errors[3 + i]


def test_sweep_csv_format(tmp_path):
    rows = [
        {"id": "max_averages", "mode": "exact", "population": [1, -1, 2, -2]},
    ]
    spec = tmp_path / "rows.json"
    spec.write_text(json.dumps(rows), encoding="utf-8")
    rc, out, _ = run_cli(["sweep", str(spec), "--format", "csv"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "id,n,mode,lhs,rhs,holds,seed,samples"
    assert lines[1].startswith("max_averages,4,exact,65/24,10,true")


def test_a_sweep_spec_nested_too_deeply_is_refused(tmp_path):
    # json.loads recurses once a level; a spec it cannot parse for depth
    # is an input error (exit 2), not a traceback that exits 1
    spec = tmp_path / "deep.json"
    spec.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    rc, out, err = run_cli(["sweep", str(spec)])
    assert (rc, out) == (2, "") and err.startswith("error: spec file ")
    assert "Traceback" not in err and "Recursion" not in err


_PARITY_VALUES = {4: [1, -1, 2, -2], 5: [3, -1, "1/2", -2, "-1/2"], 6: [1, -1, 2, -2, 3, -3]}
_PARITY_WEIGHTS = {4: [1, -1, 2, "1/2"], 5: [1, -1, 2, 1, -3], 6: [1, 1, -1, 2, -2, 1]}
_PARITY_FLAGS = {"id": "--id", "mode": "--mode", "population_file": "--population",
                 "weights_file": "--weights", "bridge_m": "--bridge-m",
                 "samples": "--samples", "seed": "--seed"}
_PARITY_RUNS = [(iid.value, mode, n) for iid in InequalityId for mode in ("exact", "mc")
                for n in (4, 5, 6)]
_PARITY_REFUSALS = {
    "missing file": {"id": "quadratic", "population_file": "missing.txt"},
    "unparsable line": {"id": "quadratic", "population_file": [1, "x", -1]},
    "exact decimal": {"id": "quadratic", "population_file": ["0.5", "-0.5"]},
    "eleven values": {"id": "quadratic", "population_file": [1, -1] * 5 + [0]},
    "weights length": {"id": "vna_weighted", "population_file": [1, -1, 2, -2],
                       "weights_file": [1, 2, 3]},
    "uncentered": {"id": "quadratic", "population_file": [1, 2, 3]},
    "huge samples": {"id": "quadratic", "mode": "mc", "population_file": [1, -1],
                     "samples": 10**21, "seed": 1},
    "negative seed": {"id": "quadratic", "mode": "mc", "population_file": [1, -1],
                      "samples": 10, "seed": -1},
    "unwanted weights": {"id": "max_averages", "population_file": [1, -1, 2, -2],
                         "weights_file": [1, 1, 1, 1]},
    # "." is the test's own directory, which cannot be read as a file
    "unwanted weights directory": {"id": "max_averages",
                                   "population_file": [1, -1, 2, -2], "weights_file": "."},
    # an inline list in the row, a file for the flags: unread, so unparsed
    "unwanted inline weights": {"id": "max_averages", "mode": "mc", "population_file": [1, -1],
                                "weights": ["x"], "samples": 5, "seed": 1},
}


def _parity_run(iid, mode, n):
    run = {"id": iid, "mode": mode}
    if iid == "bridge":
        run["bridge_m"] = n // 2
    else:
        run["population_file"] = _PARITY_VALUES[n]
        if iid in ("vna_weighted", "garsia_weighted"):
            run["weights_file"] = _PARITY_WEIGHTS[n]
    if mode == "mc":
        run.update(samples=200, seed=5)
    return run


@pytest.mark.parametrize(
    "run",
    [_parity_run(*case) for case in _PARITY_RUNS] + list(_PARITY_REFUSALS.values()),
    ids=[f"{i}-{m}-n{n}" for i, m, n in _PARITY_RUNS] + list(_PARITY_REFUSALS),
)
def test_a_sweep_row_is_a_check_inequality_call(tmp_path, monkeypatch, run):
    # the same run as check-inequality flags and as a one-row sweep: the
    # row's report is the payload without "command", and its error is the
    # error line without "error: "; a Monte Carlo row without a seed and
    # a row with two population sources differ by design and are left out
    monkeypatch.delenv("PERMARTINGALE_SEED", raising=False)
    row = run = {"mode": "exact", **run}
    for key in ("population_file", "weights_file"):
        if isinstance(run.get(key), list):
            run[key] = pop_file(tmp_path, run[key], f"{key}.txt")
        elif key in run:
            run[key] = str(tmp_path / run[key])
    if "weights" in row:  # inline in the row, a file of the same values for the flags
        run = {key: value for key, value in row.items() if key != "weights"}
        run["weights_file"] = pop_file(tmp_path, row["weights"], "weights.txt")
    flags = [a for key, value in run.items() for a in (_PARITY_FLAGS[key], str(value))]
    rc, out, err = run_cli(["check-inequality", *flags])
    spec = tmp_path / "row.json"
    spec.write_text(json.dumps([row]), encoding="utf-8")
    sweep_rc, sweep_out, _ = run_cli(["sweep", str(spec)])
    [entry] = json.loads(sweep_out)["rows"]
    if rc == 2:
        assert out == "" and err.startswith("error: ") and err.endswith("\n")
        assert (sweep_rc, entry) == (1, {"row": 0, "error": err[len("error: "):-1]})
    else:
        payload = json.loads(out)
        assert payload.pop("command") == "check-inequality" and err == ""
        assert (sweep_rc, entry) == (rc, {"row": 0, "report": payload})


def test_module_entry_point_runs_as_subprocess(four_file):
    result = subprocess.run(
        [sys.executable, "-m", "permartingale", "moments", "--population",
         four_file],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["all_equal"] is True


CORE_MODULES = {"permartingale", "permartingale.choices", "permartingale.cli",
                "permartingale.errors"}
SHARED = CORE_MODULES | {"permartingale.population", "permartingale.rationals"}
INEQUALITIES = SHARED | {"permartingale.inequalities"}
MARTINGALES = SHARED | {"permartingale.construction", "permartingale.martingales"}
# the standard modules whose loading is pinned, beyond those of a bare start
OPTIONAL = ("csv", "json", "numpy", "random")
# none of these loads for --help or a usage error
HEAVY = ("csv", "dataclasses", "decimal", "fractions", "inspect", "json")
# none of these loads for a call without numpy, which imports inspect itself
INTROSPECTION = ("ast", "dataclasses", "dis", "inspect")


def test_each_entry_point_imports_only_its_modules(tmp_path, four_file):
    # the package's modules each entry point loads, and of OPTIONAL the
    # ones it adds to what the interpreter loads at start: numpy only for
    # Monte Carlo sampling and sweep seeds, csv only for csv output,
    # random only for a random sweep row; and that no exact, martingale,
    # moment or matrix call loads dataclasses, inspect, ast or dis
    weights = pop_file(tmp_path, [1, -1, 1, 1], name="w.txt")
    spec = tmp_path / "rows.json"
    spec.write_text(json.dumps(
        [{"id": "max_averages", "mode": "exact", "random": {"n": 4}}]
    ), encoding="utf-8")
    probe = (
        "import sys\n"
        "start = set(sys.modules)\n"
        "argv = sys.argv[1:]\n"
        "if argv == ['import']:\n"
        "    import permartingale\n"
        "    rc = 0\n"
        "else:\n"
        "    from permartingale.cli import main\n"
        "    rc = main(argv)\n"
        "print(rc, *sorted(set(sys.modules) - start), file=sys.stderr)\n"
    )
    check = ["check-inequality", "--id", "quadratic", "--population", four_file]
    runs = [
        (["import"], 0, {"permartingale"}, ()),
        (["--help"], 0, CORE_MODULES, ()),
        (["check-inequality", "--id", "nope"], 2, CORE_MODULES, ()),
        ([*check, "--mode", "exact"], 0, INEQUALITIES, ("json",)),
        ([*check, "--mode", "exact", "--format", "csv"], 0, INEQUALITIES, ("csv",)),
        (["check-inequality", "--id", "garsia_weighted", "--mode", "exact",
          "--population", four_file, "--weights", weights, "--format", "text"],
         0, INEQUALITIES, ()),
        ([*check, "--mode", "mc", "--samples", "10", "--seed", "1"], None,
         INEQUALITIES, ("json", "numpy")),
        # refused by its count of floats before numpy is imported
        ([*check, "--mode", "mc", "--samples", str(10**21), "--seed", "1"], 2,
         INEQUALITIES, ()),
        (["verify-martingale", "--kind", "m2", "--population", four_file],
         0, MARTINGALES, ("json",)),
        (["moments", "--population", four_file], 0,
         MARTINGALES | {"permartingale.moments"}, ("json",)),
        (["dump-matrices", "--basis", "quadratic", "--population", four_file],
         0, SHARED | {"permartingale.construction"}, ("json",)),
        (["sweep", str(spec), "--format", "text"], 0, INEQUALITIES, ("json", "random")),
    ]
    bare = subprocess.run(
        [sys.executable, "-c", "import sys; print(*sys.modules)"],
        capture_output=True, text=True,
    ).stdout.split()
    for argv, rc, package, optional in runs:
        result = subprocess.run(
            [sys.executable, "-c", probe, *argv], capture_output=True, text=True
        )
        code, *loaded = result.stderr.splitlines()[-1].split()
        if rc is not None:
            assert code == str(rc), (argv, result.stderr)
        assert {m for m in loaded if m.startswith("permartingale")} == package, argv
        expected = {m for m in optional if m not in bare}
        assert {m for m in loaded if m in OPTIONAL} == expected, argv
        if package == CORE_MODULES:
            assert not set(loaded) & set(HEAVY), argv
        if "numpy" not in loaded:
            assert not set(loaded) & set(INTROSPECTION), argv


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_cli_small_calls_without_a_sample_match_the_golden_digests(tmp_path, monkeypatch):
    # the benchmark's byte check, in process, on the 70 seed-0 cli_small calls
    # that draw no Monte Carlo sample; the other 30 hold bits of numpy's
    # generator, so they stay the benchmark's own check
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    digests = json.loads((PERFBENCH / "golden" / "cli_small-seed0.json").read_text("utf-8"))
    rng = random.Random("cli_small:0")
    checked = 0
    for i in range(workloads.CLI_CALLS):
        args = workloads._cli_args(i, rng, str(tmp_path))  # each call draws from rng
        if args[0] == "sweep" or "mc" in args:
            continue
        rc, out = workloads.cli_expected(args)
        assert rc == 0 and hashlib.sha256(out).hexdigest() == digests[f"{i:03d}.{args[0]}"], args
        checked += 1
    assert checked == 70


def test_traced_calls_record_every_layer_span(tmp_path, four_file):
    # perfbench/traced.py rebinds engine names on the cli module and the
    # package from outside; each call must still run through its wrappers
    spec = tmp_path / "rows.json"
    spec.write_text(json.dumps(
        [{"id": "max_averages", "mode": "exact", "population": [1, -1, 2, -2]}]
    ), encoding="utf-8")
    cli = ["-m", "permartingale"]
    calls = [
        ([*cli, "check-inequality", "--id", "quadratic", "--mode", "exact",
          "--population", four_file], {"inequalities.verify", "population.load"}),
        ([*cli, "verify-martingale", "--kind", "m2", "--population", four_file],
         {"martingales.check", "population.load"}),
        ([*cli, "moments", "--population", four_file],
         {"moments.report", "population.load"}),
        ([*cli, "dump-matrices", "--basis", "quadratic", "--population", four_file],
         {"construction.build", "population.load"}),
        ([*cli, "sweep", str(spec)], {"inequalities.verify"}),
        ([str(PERFBENCH / "libcall.py"), "vector", "--basis", "quadratic",
          "--population", four_file],
         {"martingales.vector_check", "construction.build", "population.load"}),
    ]
    layers = {"inequalities.verify", "martingales.check", "moments.report",
              "construction.build", "population.load", "martingales.vector_check"}
    out = tmp_path / "spans.json"
    for target, expected in calls:
        result = subprocess.run(
            [sys.executable, str(PERFBENCH / "traced.py"), str(out), *target],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, (target, result.stderr)
        spans = json.loads(out.read_text(encoding="utf-8"))["spans"]
        assert {span[2] for span in spans} & layers == expected, target
