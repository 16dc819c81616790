import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from permartingale import InvalidInputError
from permartingale.rationals import (
    as_fraction,
    format_rational,
    fraction_sequence,
    parse_rational,
    parse_scalar,
    scaled_integers,
)


def test_parse_rational_accepts_integers_and_ratios():
    assert parse_rational("3") == 3
    assert parse_rational("-7") == -7
    assert parse_rational("+2/4") == Fraction(1, 2)
    assert parse_rational(" -9 / 6 ") == Fraction(-3, 2)


def test_parse_rational_rejects_garbage():
    for text in ["", "abc", "1.5", "1e3", "1/0", "1/-2", "2/", "/3", "1 2"]:
        with pytest.raises(InvalidInputError):
            parse_rational(text)


def test_parse_scalar_strict_matches_parse_rational():
    assert parse_scalar("5/8") == Fraction(5, 8)
    with pytest.raises(InvalidInputError):
        parse_scalar("0.5")


def test_parse_scalar_lenient_accepts_decimals_exactly():
    assert parse_scalar("0.5", lenient=True) == Fraction(1, 2)
    assert parse_scalar("-1.25", lenient=True) == Fraction(-5, 4)
    assert parse_scalar("3/4", lenient=True) == Fraction(3, 4)
    with pytest.raises(InvalidInputError):
        parse_scalar("not a number", lenient=True)


def test_parse_scalar_lenient_refuses_exponents_past_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    for text in ["1e99999999", "-0.5E-99999999", "1e+099_999_999", f"0e{limit + 1}",
                 "1e" + "9" * 5000]:
        with pytest.raises(InvalidInputError, match="limit on integer digits"):
            parse_scalar(text, lenient=True)
    assert parse_scalar(f"1e-{limit}", lenient=True) == Fraction(1, 10**limit)
    assert parse_scalar("1e400", lenient=True) == 10**400
    assert parse_scalar("2e1_000", lenient=True) == 2 * 10**1000


def test_parse_scalar_lenient_refuses_mantissas_past_the_digit_limit_briefly():
    # a decimal's integer or fractional digits past the limit get the short
    # refusal that strict scalars get, not an echo of the whole value
    limit = sys.get_int_max_str_digits()
    for text in ["0." + "1" * (limit + 700), "1" * (limit + 700) + ".5",
                 "-" + "2_" * (limit + 1) + "2.25"]:
        with pytest.raises(InvalidInputError, match="limit on integer digits") as exc:
            parse_scalar(text, lenient=True)
        assert len(str(exc.value)) < 100
    with pytest.raises(InvalidInputError, match="limit on integer digits"):
        parse_scalar("1" * (limit + 1))
    assert parse_scalar("0." + "1" * limit, lenient=True) == Fraction(10**limit // 9, 10**limit)


def test_as_fraction_accepts_exact_types_only():
    assert as_fraction(7) == 7
    assert as_fraction(Fraction(2, 3)) == Fraction(2, 3)
    assert as_fraction("4/6") == Fraction(2, 3)
    with pytest.raises(InvalidInputError):
        as_fraction(0.5)
    with pytest.raises(InvalidInputError):
        as_fraction(True)


def test_format_rational_round_trips():
    for v in [Fraction(0), Fraction(-3, 7), Fraction(12)]:
        assert parse_rational(format_rational(v)) == v


def test_scaled_integers_clears_denominators():
    ints, d = scaled_integers([Fraction(1, 2), Fraction(-2, 3), Fraction(5)])
    assert d == 6
    assert ints == (3, -4, 30) and all(type(i) is int for i in ints)


def test_scaled_integers_of_integers_is_identity():
    ints, d = scaled_integers([Fraction(4), Fraction(-1)])
    assert (ints, d) == ((4, -1), 1)


def test_fraction_sequence_converts_and_validates():
    assert fraction_sequence([1, "1/2"]) == (Fraction(1), Fraction(1, 2))
    with pytest.raises(InvalidInputError):
        fraction_sequence([0.25])


@given(st.integers(-10**6, 10**6), st.integers(1, 10**4))
def test_parse_format_round_trip(p, q):
    v = Fraction(p, q)
    assert parse_rational(format_rational(v)) == v


@given(
    st.lists(
        st.fractions(
            min_value=-100, max_value=100, max_denominator=50
        ),
        min_size=1,
        max_size=8,
    )
)
def test_scaled_integers_preserves_ratios(values):
    ints, d = scaled_integers(values)
    assert d >= 1
    assert all(Fraction(i, d) == v for i, v in zip(ints, values))
