"""Finite populations and sequential sampling without replacement.

A population is a fixed multiset of rational values.  Its own sums are
computed on first read, so a run that is refused before it reads them
pays for none.  Drawing all of it in random order induces a
filtration, and one history through that filtration is its drawn
prefix: the tuple of values drawn so far, in order.  Every evaluator in
this package takes that prefix.

Enumeration over all ``n!`` orderings is the ground truth for exact
checks, so it is guarded by a size cutoff with an explicit override,
never by silent sampling.
"""

from __future__ import annotations

import itertools
import os
from fractions import Fraction
from functools import cached_property
from math import factorial
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    EnumerationLimitError,
    InvalidInputError,
    PreconditionError,
)
from .rationals import (
    as_fraction, float_values, format_rational, parse_scalar, scaled_integers,
)

DEFAULT_ENUMERATION_CUTOFF = 10
MAX_ENUMERATION_CUTOFF = 12


def resolve_cutoff(cutoff: int | None) -> int:
    """Normalize a user cutoff; None means the default of 10."""
    if cutoff is None:
        return DEFAULT_ENUMERATION_CUTOFF
    if not isinstance(cutoff, int) or isinstance(cutoff, bool):
        raise InvalidInputError(f"cutoff must be an int, got {cutoff!r}")
    if not 2 <= cutoff <= MAX_ENUMERATION_CUTOFF:
        raise InvalidInputError(
            f"cutoff must be between 2 and {MAX_ENUMERATION_CUTOFF}, got {cutoff}"
        )
    return cutoff


def ensure_enumerable(
    n: int, cutoff: int | None, what: str, alternative: str = ""
) -> None:
    """Refuse exact enumeration above the cutoff with actionable advice;
    ``alternative`` names another route, for callers that have one."""
    limit = resolve_cutoff(cutoff)
    if n > limit:
        raise EnumerationLimitError(
            f"{what} needs enumeration over a population of size {n}, above "
            f"the cutoff {limit}; raise the cutoff (hard maximum "
            f"{MAX_ENUMERATION_CUTOFF})" + (f" or {alternative}" if alternative else "")
        )


class Population:
    """Immutable multiset of rational values, equal and hashed by value.

    ``total``, ``square_sum`` and ``fourth_sum`` are the sums of x, x^2
    and x^4, summed in integers over ``scaled``; each is computed on
    first read and cached.  Duplicated values are distinct labeled
    items: the uniform random order is over labels, so a repeated value
    gets proportionally higher draw weight.
    """

    def __init__(self, values: tuple[Fraction, ...]) -> None:
        object.__setattr__(self, "values", values)

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self.values == other.values if same else NotImplemented

    def __hash__(self) -> int:
        return hash((self.values,))

    def __repr__(self) -> str:
        return f"Population(values={self.values!r})"

    @property
    def n(self) -> int:
        return len(self.values)

    @cached_property
    def scaled(self) -> tuple[tuple[int, ...], int]:
        """``(ints, d)`` with ``ints[i] == values[i] * d``: the one integer
        image that the sums and the exact engines read."""
        return scaled_integers(self.values)

    def _power_sum(self, p: int) -> Fraction:
        xs, d = self.scaled
        return Fraction(sum(x**p for x in xs), d**p)

    @cached_property
    def total(self) -> Fraction:
        return self._power_sum(1)

    @cached_property
    def square_sum(self) -> Fraction:
        return self._power_sum(2)

    @cached_property
    def fourth_sum(self) -> Fraction:
        return self._power_sum(4)

    @property
    def is_centered(self) -> bool:
        return self.total == 0

    def require_centered(self, context: str) -> None:
        if not self.is_centered:
            raise PreconditionError(
                f"{context} requires a centered population (values summing "
                f"to 0); this one sums to {format_rational(self.total)}"
            )

    def as_floats(self) -> tuple[float, ...]:
        """Float image of the values, for Monte Carlo estimators only."""
        return float_values(self.values, "a population value")


def make_population(values: Iterable) -> Population:
    """Build a :class:`Population` from ints, Fractions, or 'p/q' strings."""
    vals = tuple(as_fraction(v) for v in values)
    if len(vals) < 2:
        raise InvalidInputError("a population needs at least two values")
    return Population(vals)


def make_bridge_population(m: int) -> Population:
    """The ±1 population with m ones and m minus-ones (size 2m)."""
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise InvalidInputError(f"bridge parameter must be an int >= 1, got {m!r}")
    try:
        return make_population((1,) * m + (-1,) * m)
    except (OverflowError, MemoryError):
        raise InvalidInputError(
            f"a bridge population of 2m = {2 * m} items does not fit in memory"
        ) from None


def bridge_parameter(population: Population) -> int | None:
    """Return m if the population is exactly m ones and m minus-ones."""
    n = population.n
    if n % 2:
        return None
    m = n // 2
    ones = sum(1 for v in population.values if v == 1)
    minus = sum(1 for v in population.values if v == -1)
    return m if ones == m and minus == m else None


def drawn_prefix(population: Population, prefix: Sequence) -> tuple[Fraction, ...]:
    """``prefix`` as Fractions, each still undrawn when it comes: a
    repeated value may be drawn once for each of its copies."""
    drawn = tuple(as_fraction(v) for v in prefix)
    remaining = list(population.values)
    for v in drawn:
        try:
            remaining.remove(v)
        except ValueError:
            raise InvalidInputError(
                f"value {format_rational(v)} is not among the remaining items"
            ) from None
    return drawn


def validate_permutation(permutation: Sequence[int], n: int) -> tuple[int, ...]:
    """Require a bijection on 1..n, returned as a tuple."""
    perm = tuple(permutation)
    if sorted(perm) != list(range(1, n + 1)):
        raise InvalidInputError(
            f"expected a permutation of 1..{n}, got {perm!r}"
        )
    return perm


def random_centered_population(
    n: int,
    rng,
    max_numerator: int = 9,
    max_denominator: int = 4,
) -> Population:
    """Random centered population of small rationals, never all zero.

    The first n-1 values are independent numerator/denominator draws and
    the last is the negated sum, so the total is exactly 0 and the
    square sum is positive.
    """
    import random

    for name, v, low in (("n", n, 2), ("max_numerator", max_numerator, 1),
                         ("max_denominator", max_denominator, 1)):
        if not isinstance(v, int) or isinstance(v, bool) or v < low:
            raise InvalidInputError(f"need an int {name} >= {low}, got {v!r}")
    if not isinstance(rng, random.Random):
        raise InvalidInputError(f"rng must be a random.Random, got {rng!r}")
    while True:
        head = [
            Fraction(rng.randint(-max_numerator, max_numerator),
                     rng.randint(1, max_denominator))
            for _ in range(n - 1)
        ]
        vals = head + [-sum(head, Fraction(0))]
        if any(v != 0 for v in vals):
            return make_population(vals)


def drawn_set_values(values: Sequence, fn: Callable, ks: range) -> list:
    """The drawn-set table, indexed by mask (bit i = item i): fn(|S|, sum
    of S, sum of squares of S) for each subset S of ``values`` (Fractions
    or scaled ints) with |S| in ``ks``, None for the other subsets."""
    s, t = [0], [0]
    for x in values:
        s += [v + x for v in s]
        square = x * x
        t += [v + square for v in t]
    out = []
    for mask in range(len(s)):
        k = mask.bit_count()
        out.append(fn(k, s[mask], t[mask]) if k in ks else None)
    return out


def value_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, text) of each line that holds a value: '#' starts a
    comment, and blank lines hold none."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_scalar_lines(
    text: str, lenient: bool = False, where: str = ""
) -> tuple[Fraction, ...]:
    """Parse one scalar per line of ``value_lines``.

    A bad line is reported by number, after ``where`` when given.
    """
    vals: list[Fraction] = []
    for lineno, line in value_lines(text):
        try:
            vals.append(parse_scalar(line, lenient=lenient))
        except InvalidInputError as exc:
            raise InvalidInputError(f"{where}line {lineno}: {exc}") from None
    return tuple(vals)


def read_text_file(path: str, what: str) -> str:
    """Whole text of a file; ``what`` names its kind in the error."""
    if not isinstance(path, (str, os.PathLike)):
        # open() would take an int as a file descriptor, and close it
        raise InvalidInputError(f"{what} file must be a path, got {path!r}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInputError(f"cannot read {what} file {path}: {exc}") from None


def load_population(path: str, lenient: bool = False) -> Population:
    """Read a population file: one value per line, '#' starts a comment,
    blank lines are ignored."""
    text = read_text_file(path, "population")
    return make_population(parse_scalar_lines(text, lenient, f"{path}, "))


def mean_over_ordered_draws(
    population: Population,
    r: int,
    fn: Callable[..., Fraction],
) -> Fraction:
    """Exact mean of ``fn(x_1, ..., x_r)`` over ordered distinct draws.

    This is the distribution of the first r draws without replacement,
    enumerated directly; it is the oracle the closed-form moments are
    frozen against.
    """
    n = population.n
    if not 1 <= r <= n:
        raise InvalidInputError(f"need 1 <= r <= {n}, got {r}")
    total = sum(
        (fn(*draw) for draw in itertools.permutations(population.values, r)),
        Fraction(0),
    )
    return Fraction(total, factorial(n) // factorial(n - r))


def mean_over_subsets(
    population: Population,
    m: int,
    fn: Callable[[tuple[Fraction, ...]], Fraction],
) -> Fraction:
    """Exact mean of ``fn(subset)`` over all size-m draws, order ignored.

    Valid as an oracle only for statistics symmetric in the first m
    draws; each of the C(n, m) label subsets is equally likely.
    """
    n = population.n
    if not 0 <= m <= n:
        raise InvalidInputError(f"need 0 <= m <= {n}, got {m}")
    total = Fraction(0)
    count = 0
    for subset in itertools.combinations(population.values, m):
        total += fn(subset)
        count += 1
    return total / count
