"""Exact scalar parsing, formatting, and integer-scaling helpers.

Every identity in this package is checked in exact rational arithmetic
(`fractions.Fraction`).  Floats only ever appear inside Monte Carlo
estimators, so the parsers here are strict by default: an exact-mode
scalar is an integer or a quotient ``p/q``, never a decimal.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .errors import InvalidInputError

_EXACT_RE = re.compile(r"^[+-]?\d+(?:\s*/\s*\d+)?$")
_EXPONENT_RE = re.compile(r"e[+-]?([\d_]+)$", re.IGNORECASE)


def parse_rational(text: str) -> Fraction:
    """Parse ``"p"`` or ``"p/q"`` into a Fraction.

    Decimal or scientific notation is rejected so that no silent
    rounding can enter an exact computation.
    """
    s = text.strip()
    if not _EXACT_RE.match(s):
        raise InvalidInputError(
            f"expected an integer or p/q rational, got {text!r}"
            " (decimals are not accepted in exact mode)"
        )
    num, _, den = s.partition("/")
    try:
        value = Fraction(int(num), int(den or 1))
    except ZeroDivisionError:
        raise InvalidInputError(f"zero denominator in {text!r}") from None
    except ValueError:
        # Python refuses to convert integers past its digit limit, which
        # guards against quadratic-time conversion of hostile input
        raise InvalidInputError(
            f"a scalar of {len(s)} characters exceeds the interpreter's "
            "limit on integer digits"
        ) from None
    return value


def parse_scalar(text: str, lenient: bool = False) -> Fraction:
    """Parse a scalar, optionally accepting decimal notation.

    With ``lenient=True`` decimal and exponent forms are converted to
    the exact rational they denote (``"1.25e-3"`` becomes ``1/800``).
    """
    s = text.strip()
    if lenient and not _EXACT_RE.match(s):
        # Fraction would compute 10**exponent, for seconds; its numerator
        # or denominator would have more digits than a strict scalar may
        exponent = _EXPONENT_RE.search(s)
        limit = sys.get_int_max_str_digits()
        if exponent and limit:
            digits = exponent[1].replace("_", "").lstrip("0")
            if len(digits) > len(str(limit)) or int(digits or 0) > limit:
                raise InvalidInputError(
                    f"the exponent of a scalar of {len(s)} characters exceeds "
                    "the interpreter's limit on integer digits"
                )
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInputError(f"cannot parse scalar {text!r}") from exc
    return parse_rational(text)


def as_fraction(value) -> Fraction:
    """Coerce an int, Fraction, or exact string to Fraction.

    Floats are rejected: a float argument is evidence that precision was
    already lost upstream, and exact checks would then certify the wrong
    population.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InvalidInputError(f"expected a rational scalar, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, float):
        raise InvalidInputError(
            f"got float {value!r}; pass a Fraction, int, or 'p/q' string"
        )
    raise InvalidInputError(f"expected a rational scalar, got {value!r}")


def format_rational(value: Fraction) -> str:
    """Render a Fraction as ``"p"`` or ``"p/q"``; a value with more digits
    than Python prints is refused."""
    try:
        return str(value)
    except ValueError:
        raise InvalidInputError(
            "a result exceeds the interpreter's limit on integer digits "
            "and cannot be printed; use smaller values"
        ) from None


def float_values(values: Iterable[Fraction], what: str) -> tuple[float, ...]:
    """Float images of exact values, for Monte Carlo estimators only;
    ``what`` names one value in the refusal of a value past float range."""
    try:
        return tuple(float(v) for v in values)
    except OverflowError:
        raise InvalidInputError(
            f"{what} is beyond float range; Monte Carlo mode works in "
            "floating point"
        ) from None


def scaled_integers(values: Iterable[Fraction]) -> tuple[tuple[int, ...], int]:
    """Return ``(scaled, d)`` with ``scaled[i] == values[i] * d`` exact.

    ``d`` is the least common multiple of the denominators, so the
    scaled values are plain ints.  Enumeration kernels run on these and
    divide the scale back out once at the end.
    """
    vals = [Fraction(v) for v in values]
    d = lcm(*(v.denominator for v in vals)) if vals else 1
    return tuple(int(v * d) for v in vals), d


def fraction_sequence(values: Sequence) -> tuple[Fraction, ...]:
    """Coerce a sequence elementwise via :func:`as_fraction`."""
    return tuple(as_fraction(v) for v in values)
