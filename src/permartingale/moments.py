"""Exact low-order moments of draws without replacement.

All expectations are over a uniformly random ordering of a centered
population (total M = 0) with square sum B and fourth-power sum Q.
Every closed form here has a brute-force enumeration oracle next to it;
the tests assert exact equality between the two routes, and the report
builder runs both so a report is never produced from one route alone.
An oracle whose closed form takes the same arguments calls it first for
its refusals only, so that both routes refuse the same inputs with the
same errors; the oracle's value never reads the closed form's.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import DomainError, InvalidInputError
from .martingales import ORDER_FREE_VALUES, MartingaleKind, weighted_prefix_value
from .population import (
    Population,
    ensure_enumerable,
    make_bridge_population,
    mean_over_ordered_draws,
    mean_over_subsets,
)
from .rationals import format_rational, validate_weights

# pattern -> (c_B, c_Q) of its closed form; see isserlis_moment
_ISSERLIS = {"1111": (3, -6), "211": (-1, 2), "22": (1, -1), "31": (0, -1), "4": (0, 1)}
PATTERNS = tuple(_ISSERLIS)


def _normalize_pattern(pattern) -> str:
    p = str(pattern)
    if p not in PATTERNS:
        raise InvalidInputError(
            f"unknown moment pattern {pattern!r}; expected one of {PATTERNS}"
        )
    return p


def isserlis_moment(population: Population, pattern) -> Fraction:
    """Mixed moment of the first draws, by exponent pattern.

    Pattern digits are the exponents on distinct draws: ``"211"`` is
    E[X1^2 X2 X3], ``"4"`` is E[X1^4], and so on.  For a centered
    population every pattern touching r = len(pattern) distinct draws has
    the same closed form in n, B, Q, with (c_B, c_Q) its row of _ISSERLIS:

        (c_B B^2 + c_Q Q) / (n(n-1)...(n-r+1))
    """
    p = _normalize_pattern(pattern)
    population.require_centered(f"the pattern-{p} moment")
    n = population.n
    if n < len(p):
        raise DomainError(
            f"pattern {p} touches {len(p)} distinct draws and needs n >= {len(p)}, "
            f"got n={n}"
        )
    c_b, c_q = _ISSERLIS[p]
    b = population.square_sum
    return (c_b * b * b + c_q * population.fourth_sum) / Fraction(math.perm(n, len(p)))


def isserlis_oracle(population: Population, pattern) -> Fraction:
    """The same moment by direct enumeration of ordered distinct draws."""
    p = _normalize_pattern(pattern)
    isserlis_moment(population, p)  # for its refusals
    return mean_over_ordered_draws(
        population, len(p), lambda *draws: math.prod(x ** int(e) for x, e in zip(draws, p))
    )


def _pattern_label(p: str) -> str:
    """``"211"`` -> ``"E[X1^2 X2 X3]"``."""
    draws = (f"X{i}" if e == "1" else f"X{i}^{e}" for i, e in enumerate(p, 1))
    return "E[" + " ".join(draws) + "]"


def partial_sum_second_moment(population: Population, m: int) -> Fraction:
    """E[S_m^2] = m (n-m) B / (n (n-1)) for a centered population."""
    population.require_centered("the partial-sum second moment")
    n = population.n
    if not 1 <= m <= n:
        raise DomainError(f"need 1 <= m <= {n}, got m={m}")
    return Fraction(m * (n - m)) * population.square_sum / Fraction(n * (n - 1))


def partial_sum_second_moment_oracle(
    population: Population, m: int, cutoff: int | None = None
) -> Fraction:
    """E[S_m^2] by enumerating the C(n, m) equally likely drawn sets."""
    partial_sum_second_moment(population, m)  # for its refusals
    ensure_enumerable(population.n, cutoff, "the partial-sum moment oracle")
    return mean_over_subsets(
        population, m, lambda sub: sum(sub, Fraction(0)) ** 2
    )


def bridge_second_moment(m: int) -> Fraction:
    """E[S_m^2] = m^2 / (2m - 1) after m draws from the ±1 bridge."""
    if m < 1:
        raise DomainError(f"need m >= 1, got {m}")
    return Fraction(m * m, 2 * m - 1)


def bridge_fourth_moment(m: int) -> Fraction:
    """E[S_m^4] = (3m^4 - 4m^3) / (4m^2 - 8m + 3) after m bridge draws."""
    if m < 1:
        raise DomainError(f"need m >= 1, got {m}")
    return Fraction(3 * m**4 - 4 * m**3, 4 * m * m - 8 * m + 3)


def bridge_moment_oracle(m: int, power: int, cutoff: int | None = None) -> Fraction:
    """E[S_m^power] on the ±1 bridge over the C(2m, m) sets of m draws."""
    if power < 1:
        raise InvalidInputError(f"need power >= 1, got {power}")
    pop = make_bridge_population(m)
    ensure_enumerable(pop.n, cutoff, "the bridge moment oracle")
    return mean_over_subsets(pop, m, lambda sub: sum(sub, Fraction(0)) ** power)


def mtilde_coefficients(n: int) -> tuple[Fraction, Fraction]:
    """Coefficients (c1, c2) with 4 E[Mtilde_{n-2}^2] = c1 B^2 - c2 Q:

        c1 = (4n^2 - 8n + 6) / (n(n-1)),  c2 = (4n^2 - 2n) / (n(n-1)).

    c1 < 4 < c2 for all n >= 2, which is what makes the bound built on
    this quantity non-wasteful.
    """
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    d = n * (n - 1)
    return (
        Fraction(4 * n * n - 8 * n + 6, d),
        Fraction(4 * n * n - 2 * n, d),
    )


def mtilde_terminal_second_moment(population: Population) -> Fraction:
    """4 E[Mtilde_{n-2}^2] = c1 B^2 - c2 Q, the terminal second moment
    of the compensated-square martingale (times 4)."""
    population.require_centered("the terminal compensated-square moment")
    n = population.n
    if n < 4:
        raise DomainError(f"need n >= 4, got n={n}")
    c1, c2 = mtilde_coefficients(n)
    b = population.square_sum
    return c1 * b * b - c2 * population.fourth_sum


def mtilde_terminal_oracle(population: Population) -> Fraction:
    """4 E[Mtilde_{n-2}^2] by enumerating the C(n, 2) undrawn pairs.

    After n-2 draws the history is determined, up to order, by the two
    items left behind, and Mtilde_{n-2} depends only on (S, T); each
    unordered pair is equally likely.
    """
    mtilde_terminal_second_moment(population)  # for its refusals
    n = population.n
    b = population.square_sum
    mtilde = ORDER_FREE_VALUES[MartingaleKind.MTILDE](population)

    def square(pair):
        x, y = pair
        return mtilde(n - 2, -(x + y), b - x * x - y * y) ** 2

    return 4 * mean_over_subsets(population, 2, square)


class WeightedMomentParts(NamedTuple):
    """Second-moment pieces of M_k = W_k + alpha_1(k) S_k / (n-k).

    ``w_square`` = E[W_k^2], ``cross`` = E[W_k S_k], ``sum_square`` =
    E[S_k^2]; ``combined`` = E[M_k^2].  The parts are exposed so the
    oracle can test each one, not just the total.
    """

    w_square: Fraction
    cross: Fraction
    sum_square: Fraction
    combined: Fraction


def weighted_moment_parts(
    population: Population, multipliers: Sequence, k: int
) -> WeightedMomentParts:
    """Closed forms of all second-moment pieces at step k.

    With a1 = alpha_1(k), a2 = alpha_2(k) (prefix sum and prefix square
    sum of the multipliers):

        E[W_k^2]   = a2 B / n - (a1^2 - a2) B / (n(n-1))
        E[W_k S_k] = a1 (n-k) B / (n(n-1))
        E[S_k^2]   = partial_sum_second_moment(population, k)
        E[M_k^2]   = a2 B / (n-1) + a1^2 B / ((n-1)(n-k))
    """
    population.require_centered("the weighted second moment")
    n = population.n
    ws = validate_weights(multipliers, n)
    if not 1 <= k <= n - 1:
        raise DomainError(f"need 1 <= k <= {n - 1}, got k={k}")
    b = population.square_sum
    a1 = sum(ws[:k])
    a2 = sum(w * w for w in ws[:k])
    d = Fraction(n * (n - 1))
    return WeightedMomentParts(
        w_square=a2 * b / n - (a1 * a1 - a2) * b / d,
        cross=a1 * (n - k) * b / d,
        sum_square=partial_sum_second_moment(population, k),
        combined=a2 * b / (n - 1) + a1 * a1 * b / Fraction((n - 1) * (n - k)),
    )


def weighted_second_moment(
    population: Population, multipliers: Sequence, k: int
) -> Fraction:
    """E[M_k^2] for the weighted martingale with fixed multipliers."""
    return weighted_moment_parts(population, multipliers, k).combined


def weighted_second_moment_oracle(
    population: Population,
    multipliers: Sequence,
    k: int,
    cutoff: int | None = None,
) -> Fraction:
    """E[M_k^2] by enumerating all ordered k-prefixes."""
    weighted_moment_parts(population, multipliers, k)  # for its refusals
    n = population.n
    ws = validate_weights(multipliers, n)
    ensure_enumerable(n, cutoff, "the weighted moment oracle")
    return mean_over_ordered_draws(
        population, k, lambda *draws: weighted_prefix_value(n, ws, draws) ** 2
    )


class MomentRow(NamedTuple):
    """One formula-versus-oracle comparison."""

    name: str
    formula: Fraction
    oracle: Fraction

    @property
    def equal(self) -> bool:
        return self.formula == self.oracle

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "formula": format_rational(self.formula),
            "oracle": format_rational(self.oracle),
            "equal": self.equal,
        }


def ensure_reportable(n: int, cutoff: int | None) -> None:
    """Refuse a moment report over n items above the cutoff; run before
    a population file is parsed, it refuses at no cost."""
    ensure_enumerable(n, cutoff, "the moment oracle")


def moment_report(
    population: Population,
    partial_sum_size: int | None = None,
    cutoff: int | None = None,
) -> list[MomentRow]:
    """Run every applicable moment formula against its oracle.

    ``partial_sum_size`` defaults to floor(n/2).  A pattern is skipped
    when it touches more distinct draws than n (``1111`` needs n >= 4 and
    ``211`` n >= 3), and the terminal compensated-square moment below n=4.
    """
    n = population.n
    ensure_reportable(n, cutoff)
    population.require_centered("the moment report")
    m = partial_sum_size if partial_sum_size is not None else n // 2
    rows: list[MomentRow] = []
    for p in PATTERNS:
        if n < len(p):
            continue
        rows.append(
            MomentRow(
                name=_pattern_label(p),
                formula=isserlis_moment(population, p),
                oracle=isserlis_oracle(population, p),
            )
        )
    rows.append(
        MomentRow(
            name=f"E[S_{m}^2]",
            formula=partial_sum_second_moment(population, m),
            oracle=partial_sum_second_moment_oracle(population, m, cutoff),
        )
    )
    if n >= 4:
        rows.append(
            MomentRow(
                name=f"4 E[Mtilde_{n - 2}^2]",
                formula=mtilde_terminal_second_moment(population),
                oracle=mtilde_terminal_oracle(population),
            )
        )
    return rows
