"""Helpers for deterministic multiplier sequences.

A weighted partial sum ``W_k = a_1 X_1 + ... + a_k X_k`` is controlled
by the prefix sums of its multipliers, alpha_1(k) = a_1 + ... + a_k and
alpha_2(k) = a_1^2 + ... + a_k^2.  Callers that need them for every k
take them from one running pass (``itertools.accumulate``), so their
cost stays linear in n.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import InvalidInputError
from .rationals import fraction_sequence


def ensure_weight_count(count: int, n: int) -> None:
    """Refuse ``count`` multipliers where n are needed; run on the value
    lines of a file, it refuses before any value is parsed."""
    if count != n:
        raise InvalidInputError(f"expected {n} multipliers, got {count}")


def validate_weights(weights: Sequence, n: int) -> tuple[Fraction, ...]:
    """Coerce ``weights`` to Fractions and require length ``n``."""
    ws = fraction_sequence(weights)
    ensure_weight_count(len(ws), n)
    return ws


def alternating_weights(n: int) -> tuple[Fraction, ...]:
    """Signs ``(-1)^i`` for i = 1..n, so the sequence starts at -1."""
    if n < 1:
        raise InvalidInputError("need n >= 1")
    return tuple(Fraction(-1 if i % 2 else 1) for i in range(1, n + 1))
