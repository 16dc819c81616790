import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permartingale import (
    DomainError,
    EnumerationLimitError,
    InvalidInputError,
    PreconditionError,
    alternating_weights,
    bridge_fourth_moment,
    bridge_moment_oracle,
    bridge_second_moment,
    isserlis_moment,
    isserlis_oracle,
    make_bridge_population,
    make_population,
    mean_over_ordered_draws,
    moment_report,
    mtilde_coefficients,
    mtilde_terminal_oracle,
    mtilde_terminal_second_moment,
    partial_sum_second_moment,
    partial_sum_second_moment_oracle,
    random_centered_population,
    weighted_moment_parts,
    weighted_second_moment,
    weighted_second_moment_oracle,
)
from permartingale.moments import PATTERNS
from permartingale.weights import validate_weights

from conftest import centered_pops

FOUR = make_population([1, -1, 2, -2])


def test_pinned_moments_on_the_symmetric_quadruple():
    assert isserlis_moment(FOUR, "1111") == 4
    assert isserlis_moment(FOUR, "22") == Fraction(11, 2)
    assert isserlis_moment(FOUR, "31") == Fraction(-17, 6)
    assert isserlis_moment(FOUR, "211") == Fraction(-4, 3)
    assert isserlis_moment(FOUR, "4") == Fraction(34, 4)
    for p in PATTERNS:
        assert isserlis_moment(FOUR, p) == isserlis_oracle(FOUR, p)


def test_isserlis_accepts_int_patterns():
    assert isserlis_moment(FOUR, 22) == Fraction(11, 2)
    with pytest.raises(InvalidInputError):
        isserlis_moment(FOUR, "123")


def test_isserlis_domain_checks():
    three = make_population([2, -1, -1])
    with pytest.raises(DomainError):
        isserlis_moment(three, "1111")
    # a pattern needs as many draws as it has digits: 211 takes three
    assert isserlis_moment(three, "211") == isserlis_oracle(three, "211")
    rng = random.Random(3)
    for pop in (random_centered_population(3, rng, 99, 7) for _ in range(20)):
        assert isserlis_moment(pop, "211") == isserlis_oracle(pop, "211"), pop.values
    with pytest.raises(DomainError, match="needs n >= 3, got n=2"):
        isserlis_moment(make_population([1, -1]), "211")
    assert isserlis_moment(three, "22") == isserlis_oracle(three, "22")
    with pytest.raises(PreconditionError):
        isserlis_moment(make_population([1, 2, 3, 4]), "22")


def test_isserlis_matches_oracle_on_random_populations():
    rng = random.Random(101)
    for _ in range(12):
        n = rng.randint(4, 7)
        pop = random_centered_population(n, rng)
        for p in PATTERNS:
            assert isserlis_moment(pop, p) == isserlis_oracle(pop, p), (
                pop.values,
                p,
            )


def test_fourth_moment_of_s4_reconstructs_from_patterns():
    # Expand (X1+X2+X3+X4)^4 into the five exchangeable patterns.
    rng = random.Random(102)
    for n in (4, 5, 6):
        pop = random_centered_population(n, rng)
        direct = mean_over_ordered_draws(
            pop, 4, lambda a, b, c, d: (a + b + c + d) ** 4
        )
        combined = (
            4 * isserlis_moment(pop, "4")
            + 48 * isserlis_moment(pop, "31")
            + 36 * isserlis_moment(pop, "22")
            + 144 * isserlis_moment(pop, "211")
            + 24 * isserlis_moment(pop, "1111")
        )
        assert combined == direct


def test_partial_sum_second_moment():
    assert partial_sum_second_moment(FOUR, 2) == Fraction(10, 3)
    assert partial_sum_second_moment(FOUR, 4) == 0
    rng = random.Random(103)
    for _ in range(10):
        pop = random_centered_population(rng.randint(2, 7), rng)
        for m in range(1, pop.n + 1):
            assert partial_sum_second_moment(
                pop, m
            ) == partial_sum_second_moment_oracle(pop, m)
    with pytest.raises(DomainError):
        partial_sum_second_moment(FOUR, 0)
    with pytest.raises(DomainError):
        partial_sum_second_moment(FOUR, 5)
    with pytest.raises(PreconditionError):
        partial_sum_second_moment(make_population([1, 2]), 1)


def test_bridge_moments():
    assert bridge_second_moment(1) == 1
    assert bridge_second_moment(2) == Fraction(4, 3)
    assert bridge_fourth_moment(1) == 1
    assert bridge_fourth_moment(2) == Fraction(16, 3)
    # the oracle enumerates C(2m, m) drawn sets, so m = 6 runs at cutoff 12
    for m in (1, 2, 3, 5, 6):
        assert bridge_second_moment(m) == bridge_moment_oracle(m, 2, cutoff=12)
        assert bridge_fourth_moment(m) == bridge_moment_oracle(m, 4, cutoff=12)
    with pytest.raises(EnumerationLimitError, match="the bridge moment oracle"):
        bridge_moment_oracle(6, 2)
    # odd moments vanish by sign symmetry of the bridge
    assert bridge_moment_oracle(2, 3) == 0
    with pytest.raises(DomainError):
        bridge_fourth_moment(0)
    with pytest.raises(DomainError):
        bridge_second_moment(0)


def test_bridge_second_moment_agrees_with_population_route():
    for m in (1, 2, 3):
        pop = make_bridge_population(m)
        assert partial_sum_second_moment(pop, m) == bridge_second_moment(m)


def test_mtilde_terminal_second_moment():
    assert mtilde_terminal_second_moment(FOUR) == 158
    assert mtilde_terminal_oracle(FOUR) == 158
    assert Fraction(158, 4) == Fraction(79, 2)
    rng = random.Random(104)
    for _ in range(10):
        pop = random_centered_population(rng.randint(4, 7), rng)
        assert mtilde_terminal_second_moment(pop) == mtilde_terminal_oracle(
            pop
        )
    with pytest.raises(DomainError):
        mtilde_terminal_second_moment(make_population([2, -1, -1]))
    with pytest.raises(PreconditionError):
        mtilde_terminal_second_moment(make_population([1, 2, 3, 4]))


def test_mtilde_terminal_on_bridges_via_both_routes():
    for m in (2, 3, 4):
        pop = make_bridge_population(m)
        n = pop.n
        c1, c2 = mtilde_coefficients(n)
        direct = c1 * (2 * m) ** 2 - c2 * (2 * m)
        assert mtilde_terminal_second_moment(pop) == direct
        assert mtilde_terminal_oracle(pop) == direct


def test_mtilde_coefficient_bounds():
    for n in range(2, 1001):
        c1, c2 = mtilde_coefficients(n)
        assert c1 < 4 < c2, n


def test_weighted_moment_parts_against_enumeration():
    rng = random.Random(105)
    for _ in range(10):
        n = rng.randint(2, 6)
        pop = random_centered_population(n, rng)
        ws = validate_weights(
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)],
            n,
        )
        k = rng.randint(1, n - 1)
        parts = weighted_moment_parts(pop, ws, k)

        def w_of(draws):
            return sum(
                (a * x for a, x in zip(ws, draws)), Fraction(0)
            )

        assert parts.w_square == mean_over_ordered_draws(
            pop, k, lambda *d: w_of(d) ** 2
        )
        assert parts.cross == mean_over_ordered_draws(
            pop, k, lambda *d: w_of(d) * sum(d, Fraction(0))
        )
        assert parts.sum_square == mean_over_ordered_draws(
            pop, k, lambda *d: sum(d, Fraction(0)) ** 2
        )
        assert parts.combined == weighted_second_moment_oracle(pop, ws, k)


def test_weighted_second_moment_worked_example():
    # a = (1, 2, 0, 0), k = 2 on the symmetric quadruple
    assert weighted_second_moment(FOUR, [1, 2, 0, 0], 2) == Fraction(95, 3)
    assert weighted_second_moment_oracle(FOUR, [1, 2, 0, 0], 2) == Fraction(
        95, 3
    )


def test_weighted_second_moment_reductions():
    rng = random.Random(106)
    for _ in range(8):
        n = rng.randint(3, 7)
        pop = random_centered_population(n, rng)
        for k in range(1, n):
            # unit multipliers reduce to the scaled partial-sum moment
            lhs = weighted_second_moment(pop, [1] * n, k)
            rhs = (
                Fraction(n * n, (n - k) ** 2)
                * partial_sum_second_moment(pop, k)
            )
            assert lhs == rhs
        ws = alternating_weights(n)
        for k in range(2, n, 2):
            # alternating signs cancel the prefix sum at even k
            assert weighted_second_moment(pop, ws, k) == Fraction(
                k
            ) * pop.square_sum / (n - 1)


def test_weighted_second_moment_range_checks():
    with pytest.raises(DomainError):
        weighted_second_moment(FOUR, [1, 1, 1, 1], 0)
    with pytest.raises(DomainError):
        weighted_second_moment(FOUR, [1, 1, 1, 1], 4)
    with pytest.raises(InvalidInputError):
        weighted_second_moment(FOUR, [1, 1], 1)
    with pytest.raises(PreconditionError):
        weighted_second_moment(make_population([1, 2, 3, 4]), [1, 1, 1, 1], 1)


def test_moment_report_contents():
    rows = moment_report(FOUR)
    by_name = {r.name: r for r in rows}
    assert by_name["E[X1 X2 X3 X4]"].formula == 4
    assert by_name["E[X1^2 X2^2]"].formula == Fraction(11, 2)
    assert by_name["E[S_2^2]"].formula == Fraction(10, 3)
    assert by_name["4 E[Mtilde_2^2]"].formula == 158
    assert all(r.equal for r in rows)
    d = rows[0].to_dict()
    assert set(d) == {"name", "formula", "oracle", "equal"}


def test_moment_report_small_population_skips_wide_patterns():
    rows = moment_report(make_population([2, -1, -1]))
    names = {r.name for r in rows}
    assert "E[X1 X2 X3 X4]" not in names
    assert "E[X1^2 X2 X3]" in names
    assert not any(name.startswith("4 E[Mtilde") for name in names)
    assert all(r.equal for r in rows)


def test_moment_report_partial_sum_size_override():
    rows = moment_report(FOUR, partial_sum_size=3)
    assert any(r.name == "E[S_3^2]" for r in rows)


def test_enumerating_oracles_refuse_above_the_cutoff():
    # C(30, 15) drawn sets and 13!/5! ordered prefixes: refused, not run
    with pytest.raises(EnumerationLimitError, match="partial-sum moment oracle"):
        partial_sum_second_moment_oracle(
            random_centered_population(30, random.Random(30)), 15
        )
    pop13 = random_centered_population(13, random.Random(13))
    with pytest.raises(EnumerationLimitError, match="weighted moment oracle"):
        weighted_second_moment_oracle(pop13, [1] * 13, 8, cutoff=12)
    pop12 = random_centered_population(12, random.Random(7))
    assert partial_sum_second_moment_oracle(
        pop12, 6, cutoff=12
    ) == partial_sum_second_moment(pop12, 6)
    rows = moment_report(pop12, cutoff=12)
    assert any(r.name == "E[S_6^2]" for r in rows)
    assert all(r.equal for r in rows)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.fractions(min_value=-9, max_value=9, max_denominator=4),
        min_size=1,
        max_size=12,
    ),
    st.data(),
)
def test_weight_prefix_cauchy_bound(ws, data):
    ws = validate_weights(ws, len(ws))
    k = data.draw(st.integers(1, len(ws)))
    a1 = sum(ws[:k])
    a2 = sum(w * w for w in ws[:k])
    assert a1 * a1 <= k * a2
