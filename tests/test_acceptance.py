"""Acceptance suite.

One test per acceptance criterion; each prints a PASS/FAIL verdict line
directly to the terminal (outside pytest's capture) so the run log shows
the verdicts even on quiet runs.  All equality checks are exact; the
only floating-point tolerances are the Monte Carlo standard-error bands
of criterion 6.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from permartingale import (
    Basis,
    InequalityId,
    MartingaleKind,
    alternating_weights,
    bridge_fourth_moment,
    bridge_moment_oracle,
    bridge_second_moment,
    check_martingale,
    check_vector_martingale,
    counterexample_suite,
    folding_constant,
    isserlis_moment,
    isserlis_oracle,
    make_bridge_population,
    make_population,
    make_spec,
    mtilde_coefficients,
    mtilde_terminal_oracle,
    mtilde_terminal_second_moment,
    partial_sum_second_moment,
    partial_sum_second_moment_oracle,
    quadratic_inverse_product,
    quadratic_transition,
    random_centered_population,
    verify,
    weighted_inverse_product,
    weighted_second_moment,
    weighted_second_moment_oracle,
    weighted_transition,
)
from permartingale.moments import PATTERNS

from independent_routes import product_of_inverses

FOUR = make_population([1, -1, 2, -2])


def _verdict(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'}: {name} ({detail})")
    assert ok, f"{name}: {detail}"


def _fixed_weight_vectors(n):
    ones = [Fraction(1)] * n
    alternating = list(alternating_weights(n))
    mixed = [Fraction(1), Fraction(2)] + [Fraction(0)] * (n - 2)
    return [ones, alternating, mixed]


def test_criterion_1_martingale_property_exhaustive(capsys):
    t0 = time.perf_counter()
    rng = random.Random(1001)
    populations = 0
    for n in range(3, 9):
        for _ in range(50):
            pop = random_centered_population(n, rng)
            populations += 1
            for kind in (
                MartingaleKind.M2,
                MartingaleKind.M3,
                MartingaleKind.MTILDE,
                MartingaleKind.CHAIN_QUADRATIC,
            ):
                check = check_martingale(make_spec(kind, pop))
                assert check.holds, (kind, pop.values)
            for ws in _fixed_weight_vectors(n):
                spec = make_spec(MartingaleKind.WEIGHTED, pop, ws)
                assert check_martingale(spec).holds, (ws, pop.values)
            assert check_vector_martingale(pop, Basis.QUADRATIC).holds, (
                pop.values
            )
    elapsed = time.perf_counter() - t0
    _verdict(
        capsys,
        "criterion 1, martingale property on all histories",
        populations == 300 and elapsed < 60,
        f"7 kinds x {populations} populations, n=3..8, {elapsed:.1f}s",
    )


def test_criterion_2_closed_form_inverse_products(capsys):
    rng = random.Random(1002)
    quadratic_params = 0
    weighted_params = 0
    for n in range(3, 13):
        for _ in range(2):
            total = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            square = Fraction(rng.randint(1, 60), rng.randint(1, 4))
            steps = [
                quadratic_transition(n, total, square, k)
                for k in range(n - 2)
            ]
            for k in range(1, n - 1):
                assert quadratic_inverse_product(
                    n, total, square, k
                ) == product_of_inverses(steps[:k]), (n, k)
            quadratic_params += 1
            ws = [
                Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                for _ in range(n)
            ]
            steps = [weighted_transition(n, ws[k], k) for k in range(n - 1)]
            for k in range(1, n):
                assert weighted_inverse_product(
                    n, ws, k
                ) == product_of_inverses(steps[:k]), (n, k)
            weighted_params += 1
    _verdict(
        capsys,
        "criterion 2, closed-form inverse products",
        quadratic_params == 20 and weighted_params == 20,
        f"{quadratic_params} quadratic + {weighted_params} weighted "
        f"parameterizations, n=3..12, all k, entrywise equality",
    )


def test_criterion_3_moment_formulas_match_oracles(capsys):
    rng = random.Random(1003)

    for _ in range(50):
        pop = random_centered_population(rng.randint(4, 8), rng)
        for p in PATTERNS:
            assert isserlis_moment(pop, p) == isserlis_oracle(pop, p), (
                pop.values,
                p,
            )

    for _ in range(50):
        pop = random_centered_population(rng.randint(2, 8), rng)
        m = rng.randint(1, pop.n)
        assert partial_sum_second_moment(
            pop, m
        ) == partial_sum_second_moment_oracle(pop, m), (pop.values, m)

    for m in (1, 2, 3, 4):
        assert bridge_second_moment(m) == bridge_moment_oracle(m, 2), m
        assert bridge_fourth_moment(m) == bridge_moment_oracle(m, 4), m

    for _ in range(50):
        pop = random_centered_population(rng.randint(4, 8), rng)
        assert mtilde_terminal_second_moment(pop) == mtilde_terminal_oracle(
            pop
        ), pop.values

    for _ in range(50):
        pop = random_centered_population(rng.randint(2, 8), rng)
        n = pop.n
        ws = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
        k = rng.randint(1, min(n - 1, 5))
        assert weighted_second_moment(
            pop, ws, k
        ) == weighted_second_moment_oracle(pop, ws, k), (pop.values, ws, k)

    pinned = (
        isserlis_moment(FOUR, "1111") == isserlis_oracle(FOUR, "1111") == 4
        and isserlis_moment(FOUR, "22")
        == isserlis_oracle(FOUR, "22")
        == Fraction(11, 2)
        and partial_sum_second_moment(FOUR, 2)
        == partial_sum_second_moment_oracle(FOUR, 2)
        == Fraction(10, 3)
        and mtilde_terminal_second_moment(FOUR)
        == mtilde_terminal_oracle(FOUR)
        == 158
        and Fraction(158, 4) == Fraction(79, 2)
    )
    _verdict(
        capsys,
        "criterion 3, moment formulas equal brute-force oracles",
        pinned,
        "5 patterns, E[S_m^2], bridge m<=4, terminal compensated square, "
        "E[M_k^2]; 50 populations each; pinned 4, 11/2, 10/3, 79/2",
    )


def test_criterion_4_inequality_suite_exact(capsys):
    rng = random.Random(1004)
    per_id = 100
    checked = 0
    plain_ids = (
        InequalityId.MAX_AVERAGES,
        InequalityId.GARSIA_UNWEIGHTED,
        InequalityId.QUADRATIC,
        InequalityId.ALTERNATING,
    )
    for iid in plain_ids:
        for _ in range(per_id):
            pop = random_centered_population(rng.randint(2, 8), rng)
            assert verify(iid, population=pop).holds, (iid, pop.values)
            checked += 1
    for iid in (InequalityId.VNA_WEIGHTED, InequalityId.GARSIA_WEIGHTED):
        for _ in range(per_id):
            pop = random_centered_population(rng.randint(2, 8), rng)
            while True:
                ws = [Fraction(rng.randint(-3, 3)) for _ in range(pop.n)]
                if any(ws):
                    break
            assert verify(iid, population=pop, weights=ws).holds, (
                iid,
                pop.values,
                ws,
            )
            checked += 1
    for i in range(per_id):
        m = 1 + i % 4
        assert verify(InequalityId.BRIDGE, bridge_m=m).holds, m
        checked += 1
    pinned = verify(InequalityId.BRIDGE, bridge_m=2)
    ok = (
        checked == 7 * per_id
        and pinned.lhs == Fraction(32, 9)
        and pinned.rhs == 512
        and pinned.holds
    )
    _verdict(
        capsys,
        "criterion 4, all seven inequalities hold exactly",
        ok,
        f"{checked} exact verifications, n=2..8, bridge m=1..4; "
        f"pinned bridge m=2 lhs 32/9 <= 512",
    )


def test_criterion_5_constant_identities(capsys):
    ok = (
        folding_constant(InequalityId.GARSIA_UNWEIGHTED, 9, 4)
        == Fraction(41, 5)
        and folding_constant(InequalityId.ALTERNATING, 18)
        == Fraction(305, 17)
        == 17 + Fraction(16, 17)
        and folding_constant(InequalityId.GARSIA_WEIGHTED, 81, 40)
        == 80 + Fraction(4, 205)
        and all(
            folding_constant(InequalityId.GARSIA_WEIGHTED, n, n // 2) == 80
            for n in range(2, 101, 2)
        )
    )
    bounds = all(
        c1 < 4 < c2
        for c1, c2 in (mtilde_coefficients(n) for n in range(2, 1001))
    )
    _verdict(
        capsys,
        "criterion 5, named constants and coefficient bounds",
        ok and bounds,
        "41/5 at (9,4); 305/17 at 18; 80+4/205 at (81,40); 80 at even "
        "splits; terminal coefficients straddle 4 for n=2..1000",
    )


def test_criterion_6_monte_carlo_consistency(capsys):
    t0 = time.perf_counter()
    pop = make_population([1, -1, 2, -2, 3, -3, 4, -4])
    exact = verify(InequalityId.GARSIA_UNWEIGHTED, population=pop)
    first = verify(
        InequalityId.GARSIA_UNWEIGHTED,
        population=pop,
        mode="mc",
        samples=1_000_000,
        seed=20260816,
    )
    second = verify(
        InequalityId.GARSIA_UNWEIGHTED,
        population=pop,
        mode="mc",
        samples=1_000_000,
        seed=20260816,
    )
    elapsed = time.perf_counter() - t0
    deviation = abs(first.lhs - float(exact.lhs))
    ok = (
        deviation <= 5 * first.stderr
        and (first.lhs, first.stderr) == (second.lhs, second.stderr)
        and first.status == "consistent"
        and elapsed < 30
    )
    _verdict(
        capsys,
        "criterion 6, Monte Carlo matches the exact mean",
        ok,
        f"n=8, 10^6 samples, |estimate-exact| = {deviation:.5f} <= "
        f"5*stderr = {5 * first.stderr:.5f}, bit-identical rerun, "
        f"{elapsed:.1f}s",
    )


def test_criterion_7_negative_controls(capsys):
    report = counterexample_suite()
    controls_ok = report.ok and all(
        e.witness is not None
        for e in report.entries
        if not e.expected_to_hold
    )

    # Corrupting the max-averages constant from 4 to 1 must break the
    # inequality somewhere; sweep random populations for a strict hit.
    rng = random.Random(1007)
    strict_hits = []
    for _ in range(40):
        pop = random_centered_population(rng.randint(2, 8), rng)
        r = verify(InequalityId.MAX_AVERAGES, population=pop)
        if r.lhs > r.rhs / 4:
            strict_hits.append(pop)
    # the symmetric pair only reaches the corrupted bound with equality
    pair = verify(InequalityId.MAX_AVERAGES, population=make_population([1, -1]))
    boundary = pair.lhs == pair.rhs / 4
    quadruple = verify(InequalityId.MAX_AVERAGES, population=FOUR)
    pinned_strict = quadruple.lhs > quadruple.rhs / 4

    ok = controls_ok and boundary and pinned_strict and len(strict_hits) > 0
    _verdict(
        capsys,
        "criterion 7, harness catches planted defects",
        ok,
        f"3 non-martingales produce witnesses; corrupted constant 4 -> 1 "
        f"strictly violated on {len(strict_hits)}/40 swept populations",
    )
