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
from functools import cache, cached_property, reduce
from math import factorial, lcm
from operator import itemgetter
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


class _NotAffine(Exception):
    """An evaluator did more to a formal value than add, multiply where
    at most one factor holds a slot, and divide by numbers."""


class _Form:
    """A polynomial in formal S_k and T_k whose coefficients are affine in
    formal slots for W_k and A_k: ``terms`` maps (slot, i, j) to the
    coefficient of slot S_k^i T_k^j, slot 0 for none, 1 for W_k and 2 for
    A_k, and holds no zero.  It adds, multiplies (and so raises to int
    powers) where at most one factor holds a slot, and divides by numbers;
    any other operation, comparison and truth value included, raises
    ``_NotAffine``, so no evaluator that branches on a form certifies."""

    __slots__ = ("terms",)

    def __init__(self, pairs):
        terms = {}
        for key, c in pairs:
            terms[key] = terms.get(key, 0) + c
        self.terms = {key: c for key, c in terms.items() if c}

    def __add__(self, other):
        other = other.terms if isinstance(other, _Form) else {(0, 0, 0): other}
        return _Form([*self.terms.items(), *other.items()])

    def __mul__(self, other):
        if not isinstance(other, _Form):
            return _Form((key, other * c) for key, c in self.terms.items())
        if any(u for u, _, _ in self.terms) and any(u for u, _, _ in other.terms):
            raise _NotAffine
        return _Form(((u + v, i + p, j + q), c * e) for (u, i, j), c in self.terms.items()
                     for (v, p, q), e in other.terms.items())

    def __pow__(self, e, mod=None):  # by multiplying, so that a slot squared is refused
        if mod is not None or not isinstance(e, int) or e < 0:
            raise _NotAffine
        return reduce(_Form.__mul__, [self] * e, _Form([((0, 0, 0), 1)]))

    __radd__, __rmul__ = __add__, __mul__
    __neg__, __truediv__ = (lambda a: -1 * a), (lambda a, c: a * (Fraction(1) / c))
    __sub__, __rsub__ = (lambda a, b: a + -b), (lambda a, b: -a + b)


def _not_affine(*args):
    raise _NotAffine


for _op in ("eq ne lt le gt ge bool hash pos abs rpow rtruediv floordiv rfloordiv"
            " mod rmod divmod rdivmod int float complex index round trunc floor"
            " ceil getattr").split():
    setattr(_Form, f"__{_op}__", _not_affine)
_S, _T, _W, _A = (_Form([(key, 1)])
                  for key in ((0, 1, 0), (0, 0, 1), (1, 0, 0), (2, 0, 0)))


def _polynomials(v, slots: tuple) -> list:
    """The terms (c, i, j) of c S_k^i T_k^j that a formal value ``v`` holds
    in each (slot, p) of ``slots``, times S_k^p: a form's, a number's as a
    constant, a vector's entries' in order."""
    if isinstance(v, tuple):
        return [p for x in v for p in _polynomials(x, slots)]
    terms = v.terms if isinstance(v, _Form) else {(0, 0, 0): v}
    return [[(c, i + p, j) for (u, i, j), c in terms.items() if u == slot] for slot, p in slots]


def _drawn_set_table(ints: Sequence[int], d: int, fn: Callable, ks: range,
                     slots: tuple = ((0, 0),)) -> tuple[int, list]:
    """(Q, columns), the drawn-set table of both exact engines.  ``fn(k, _S,
    _T)`` runs once per layer k in ``ks`` (a ``TypeError`` there raises
    ``_NotAffine``); its polynomials in ``slots`` (``_polynomials``) times one
    positive Q = lcm(their denominators) d^g, g the largest i + 2j, are
    integer polynomials in d S_k and d^2 T_k.  One column per polynomial, in
    order, holds it at each drawn set's sums, by mask (bit i for item i of
    ``ints``, a population's ``scaled``), and 0 where |D| is not in ``ks``."""
    try:
        formal = [fn(k, _S, _T) for k in ks]
    except TypeError:
        raise _NotAffine from None
    layers = [_polynomials(v, slots) for v in formal]
    terms = [term for layer in layers for poly in layer for term in poly]
    g = max((i + 2 * j for _, i, j in terms), default=0)
    den = lcm(*(c.denominator for c, _, _ in terms))
    by_k = {k: [[(c.numerator * (den // c.denominator) * d ** (g - i - 2 * j), i, j)
                 for c, i, j in poly] for poly in layer] for k, layer in zip(ks, layers)}
    s, t = [0], [0]
    for x in ints:
        s += [v + x for v in s]
        square = x * x
        t += [v + square for v in t]
    columns = [[0] * len(s) for _ in layers[0]]
    for mask, (sm, tm) in enumerate(zip(s, t)):
        for column, poly in zip(columns, by_k.get(mask.bit_count(), ())):
            v = 0
            for c, i, j in poly:
                v += c * sm**i * tm**j
            column[mask] = v
    return den * d**g, columns


@cache
def _lattice(n: int) -> tuple[tuple, tuple, tuple]:
    """(preds, succs, lex) of the 2^n drawn sets, each a mask (bit i for item
    i), built once per n <= 12: preds[mask] and succs[mask] get from a
    sequence by mask, as a sequence, the entries of the sets one item smaller
    and one larger; lex is the nonempty sets in lexicographic item order."""
    preds, lex = [[]], []
    for i in range(n):  # preds: the sets so far, then each with bit i added
        bit, top = 1 << i, 1 << n - 1 - i
        preds += [[p | bit for p in ps] + [mask] for mask, ps in enumerate(preds)]
        lex = [top, *(mask | top for mask in lex), *lex]  # the sets of items n-1-i on
    full = len(preds) - 1  # a set's successors: its complement's predecessors' complements
    succs = [[full ^ p for p in ps] for ps in reversed(preds)]

    def getter(masks):  # a slice for one mask or none, so that it gets a sequence
        return itemgetter(*masks) if len(masks) > 1 else itemgetter(
            slice(masks[0], masks[0] + 1) if masks else slice(0))
    return tuple(map(getter, preds)), tuple(map(getter, succs)), tuple(lex)


def value_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, text) of each line that holds a value: '#' starts a
    comment, and blank lines hold none."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def read_text_file(path: str, what: str) -> str:
    """Whole text of a file; ``what`` names its kind in the error."""
    if not isinstance(path, (str, os.PathLike)):
        # open() would take an int as a file descriptor, and close it
        raise InvalidInputError(f"{what} file must be a path, got {path!r}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, ValueError) as exc:  # a bad encoding, or a NUL in the path
        raise InvalidInputError(f"cannot read {what} file {os.fspath(path)!r}: {exc}") from None


def read_values(path: str, what: str, lenient: bool = False,
                refuse: Callable[[int], None] | None = None) -> tuple[Fraction, ...]:
    """The values of a file, one per line of ``value_lines``, read once,
    so the file may be a pipe.  ``refuse``, when given, is passed the
    count of value lines before any is parsed; a bad line is reported by
    path and number."""
    text = read_text_file(path, what)
    if refuse is not None:
        refuse(sum(1 for _ in value_lines(text)))
    vals: list[Fraction] = []
    for lineno, line in value_lines(text):
        try:
            vals.append(parse_scalar(line, lenient=lenient))
        except InvalidInputError as exc:
            raise InvalidInputError(f"{os.fspath(path)!r}, line {lineno}: {exc}") from None
    return tuple(vals)


def load_population(path: str, lenient: bool = False,
                    refuse: Callable[[int], None] | None = None) -> Population:
    """Read a population file: one value per line, '#' starts a comment,
    blank lines are ignored; ``refuse`` as in ``read_values``."""
    return make_population(read_values(path, "population", lenient, refuse))


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
