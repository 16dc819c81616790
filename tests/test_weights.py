from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given
from hypothesis import strategies as st

from permartingale import InvalidInputError, alternating_weights
from permartingale.rationals import validate_weights


def test_validate_weights_converts_and_checks_length():
    ws = validate_weights([1, "1/2", Fraction(-3)], 3)
    assert ws == (Fraction(1), Fraction(1, 2), Fraction(-3))
    with pytest.raises(InvalidInputError):
        validate_weights([1, 2], 3)
    with pytest.raises(InvalidInputError):
        validate_weights([0.5, 1, 2], 3)


def test_prefix_sums_and_bounds():
    ws = validate_weights([1, -2, 3], 3)
    assert list(accumulate(ws, initial=Fraction(0))) == [0, 1, -1, 2]
    assert sum(w * w for w in ws) == 14


def test_alternating_weights_start_negative():
    assert alternating_weights(4) == (-1, 1, -1, 1)
    assert alternating_weights(1) == (-1,)


@given(st.integers(1, 50))
def test_alternating_prefix_sums_stay_small(n):
    ws = alternating_weights(n)
    for alpha1 in accumulate(ws, initial=Fraction(0)):
        assert alpha1 in (0, -1)
    assert sum(w * w for w in ws) == n
