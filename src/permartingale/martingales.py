"""Closed-form martingales for sampling without replacement, and an
exhaustive checker for the defining conditional-expectation property.

With n items, grand total M, grand square sum B, and running sums S_k
(values) and T_k (squares), the implemented martingale families are:

* ``M2``:      (n S_k - k M) / (n - k)                for 1 <= k <= n-1
* ``M3``:      (n T_k - k B) / (n - k)                for 1 <= k <= n-1
* ``MTILDE``:  ((n-1) S_k^2 - k (B - T_k))
               / ((n-k)(n-k-1))                       for 1 <= k <= n-2,
               centered populations only
* ``WEIGHTED``: W_k + alpha_1(k) S_k / (n - k) with
               W_k = a_1 X_1 + ... + a_k X_k and fixed multipliers a_i,
               alpha_1(k) = a_1 + ... + a_k, centered, 1 <= k <= n-1
* ``CHAIN_QUADRATIC``: the same definition with a_{k+1} = X_k and
               a_1 = 0; equivalently
               X_1 X_2 + ... + X_{k-1} X_k + S_{k-1} S_k / (n - k)

``check_martingale`` certifies E[M_{k+1} | first k draws] = M_k on
every history by enumeration, never by algebra, so a wrong evaluator
cannot certify itself.  Three routes report the first violating
history: for M2, M3, MTILDE, the quadratic-basis vector and the
negative controls, a pass over the drawn-set table of (k, S_k, T_k)
values (``population.drawn_set_values``, shared with the exact
inequality engine); an integer walker over the weighted state
(k, S_k, W_k, A_k) for WEIGHTED, CHAIN_QUADRATIC and the weighted-basis
vector; and a generic ``Fraction`` walker over prefixes for
``check_sequence``.  The weighted walker checks every ordered prefix;
its last two checked levels run as straight-line code, so its cost
depends on n and not on the values.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, ClassVar, Sequence

from .construction import Basis, build_transition_system, matrix_vector
from .errors import DomainError, InvalidInputError, PreconditionError, coerce_enum
from .population import (
    Population,
    drawn_prefix,
    drawn_set_values,
    ensure_enumerable,
    make_population,
)
from .rationals import format_rational, scaled_integers
from .weights import validate_weights


class MartingaleKind(str, Enum):
    M2 = "m2"
    M3 = "m3"
    MTILDE = "mtilde"
    WEIGHTED = "weighted"
    CHAIN_QUADRATIC = "chain_quadratic"


def _m2_value(pop: Population) -> Callable[[int, Fraction, Fraction], Fraction]:
    n, m = pop.n, pop.total
    return lambda k, s, t: Fraction(n * s - k * m, n - k)


def _m3_value(pop: Population) -> Callable[[int, Fraction, Fraction], Fraction]:
    n, b = pop.n, pop.square_sum
    return lambda k, s, t: Fraction(n * t - k * b, n - k)


def _mtilde_value(pop: Population) -> Callable[[int, Fraction, Fraction], Fraction]:
    n, b = pop.n, pop.square_sum
    return lambda k, s, t: ((n - 1) * s * s - k * (b - t)) / Fraction(
        (n - k) * (n - k - 1)
    )


# The one definition of each order-free closed form: kind -> factory that
# binds a population and returns (k, S_k, T_k) -> value.
ORDER_FREE_VALUES = {
    MartingaleKind.M2: _m2_value,
    MartingaleKind.M3: _m3_value,
    MartingaleKind.MTILDE: _mtilde_value,
}


def weighted_value(n: int) -> Callable[[int, object, object, object], object]:
    """The one definition of the weighted family, as (n - k) M_k, where
    M_k = W_k + A_k S_k / (n - k), W_k = a_1 X_1 + ... + a_k X_k and
    A_k = a_1 + ... + a_k.  Times n - k it is a polynomial in the state
    (k, S_k, W_k, A_k), so it runs on Fractions and on scaled integers.
    The two kinds differ only in :func:`_next_multiplier`."""
    return lambda k, s, w, alpha: (n - k) * w + alpha * s


def _next_multiplier(multipliers, k: int, last):
    """a_{k+1} after k draws ending in ``last``: fixed for WEIGHTED; for
    CHAIN_QUADRATIC (``multipliers`` None) the last draw, so a_1 = 0."""
    return last if multipliers is None else multipliers[k]


def weighted_prefix_value(n: int, multipliers, drawn: Sequence[Fraction]) -> Fraction:
    """M_k after ``drawn``, walking (S_k, W_k, A_k) one draw at a time."""
    s = w = alpha = last = Fraction(0)
    for k, x in enumerate(drawn):
        a = _next_multiplier(multipliers, k, last)
        s, w, alpha, last = s + x, w + a * x, alpha + a, x
    return weighted_value(n)(len(drawn), s, w, alpha) / (n - len(drawn))


@dataclass(frozen=True)
class MartingaleSpec:
    """A martingale family bound to one population.

    ``multipliers`` is set only for WEIGHTED.  CHAIN_QUADRATIC derives
    its multipliers from the drawn prefix, so none are stored.
    """

    kind: MartingaleKind
    population: Population
    multipliers: tuple[Fraction, ...] | None = None

    k_min: ClassVar[int] = 1

    @property
    def k_max(self) -> int:
        n = self.population.n
        return n - 2 if self.kind is MartingaleKind.MTILDE else n - 1


def make_spec(
    kind: MartingaleKind | str,
    population: Population,
    multipliers: Sequence | None = None,
) -> MartingaleSpec:
    """Validate and build a :class:`MartingaleSpec`."""
    kind = coerce_enum(MartingaleKind, kind, "martingale kind")
    n = population.n
    ws: tuple[Fraction, ...] | None = None
    if kind is MartingaleKind.WEIGHTED:
        if multipliers is None:
            raise InvalidInputError("the weighted martingale needs multipliers")
        ws = validate_weights(multipliers, n)
    elif multipliers is not None:
        chain = kind is MartingaleKind.CHAIN_QUADRATIC
        detail = "; the chain rule derives them from the drawn prefix" if chain else ""
        raise InvalidInputError(
            f"martingale kind {kind.value!r} takes no multipliers{detail}"
        )
    if kind not in (MartingaleKind.M2, MartingaleKind.M3):
        population.require_centered(f"martingale kind {kind.value!r}")
    if kind is MartingaleKind.MTILDE and n < 3:
        raise DomainError(f"kind 'mtilde' needs n >= 3, got n={n}")
    return MartingaleSpec(kind=kind, population=population, multipliers=ws)


def evaluate_prefix(spec: MartingaleSpec, prefix: Sequence) -> Fraction:
    """Closed-form martingale value after drawing ``prefix`` in order."""
    drawn = drawn_prefix(spec.population, prefix)
    k = len(drawn)
    if not spec.k_min <= k <= spec.k_max:
        detail = ""
        if spec.kind is MartingaleKind.MTILDE and k == spec.k_max + 1:
            detail = " (k = n-1 would divide by n-k-1 = 0)"
        raise DomainError(
            f"kind {spec.kind.value!r} is defined for "
            f"{spec.k_min} <= k <= {spec.k_max}, got k={k}{detail}"
        )
    if spec.kind in ORDER_FREE_VALUES:
        return ORDER_FREE_VALUES[spec.kind](spec.population)(
            k, sum(drawn, Fraction(0)), sum((x * x for x in drawn), Fraction(0))
        )
    return weighted_prefix_value(spec.population.n, spec.multipliers, drawn)


@dataclass(frozen=True)
class MartingaleViolation:
    """A history where the one-step martingale identity fails.

    ``value`` is the evaluator at the history; ``conditional_mean`` is
    the exact average of the evaluator over the next draws.
    """

    prefix: tuple[Fraction, ...]
    value: object
    conditional_mean: object

    @property
    def k(self) -> int:
        return len(self.prefix)

    def to_dict(self) -> dict:
        return {
            "prefix": [format_rational(v) for v in self.prefix],
            "k": self.k,
            "value": _value_strings(self.value),
            "conditional_mean": _value_strings(self.conditional_mean),
        }


def _value_strings(v):
    if isinstance(v, tuple):
        return [format_rational(x) for x in v]
    return format_rational(v)


@dataclass(frozen=True)
class MartingaleCheck:
    """Outcome of an exhaustive conditional-expectation check.

    ``states_checked`` counts the histories at which the one-step
    identity was tested (distinct prefixes for ordered evaluators,
    distinct drawn sets for order-free ones); ``worst_history`` is the
    first violation in enumeration order, or None.
    """

    worst_history: MartingaleViolation | None
    states_checked: int

    @property
    def holds(self) -> bool:
        return self.worst_history is None

    def to_dict(self) -> dict:
        return {
            "holds": self.holds,
            "states_checked": self.states_checked,
            "worst_history": (
                None if self.worst_history is None else self.worst_history.to_dict()
            ),
        }


class _Vector(tuple):
    """A vector value whose +, scaling and / act coordinatewise, so the
    walkers treat scalars and vectors alike (``sum`` starts from 0)."""

    def __add__(self, other):
        return _Vector(x + y for x, y in zip(self, other, strict=True))

    def __radd__(self, other):
        return self if other == 0 else self + other

    def __rmul__(self, c):
        return _Vector(c * x for x in self)

    __mul__ = __rmul__

    def __truediv__(self, c):
        return _Vector(x / c for x in self)


def _violation(prefix, v, acc, n: int) -> MartingaleViolation:
    """The failed one-step identity at a history of value ``v`` whose n-k
    next-draw values sum to ``acc``."""
    prefix = tuple(prefix)
    return MartingaleViolation(prefix, v, acc / (n - len(prefix)))


def _check_order_free(
    population: Population,
    value_fn: Callable[[int, Fraction, Fraction], object],
    k_min: int,
    k_max: int,
) -> MartingaleCheck:
    """Check a martingale whose value depends on the prefix only through
    (k, S_k, T_k): M2, M3, MTILDE, the quadratic-basis vector and the
    negative controls.

    Every ordering of a drawn set gives the same value, so the 2^n drawn
    sets cover all n! histories.  Each set's value is computed once, in
    the drawn-set table the exact inequality engine also reads, and must
    be the average over the set's n-k one-item extensions.  Sets are
    visited in lexicographic order of their item indices (a set before
    its extensions); a witness prefix lists the set's values in that order.
    """
    n = population.n
    value = drawn_set_values(population.values, value_fn, range(k_min, k_max + 1))
    sets = [mask for mask in range(1 << n) if k_min <= mask.bit_count() < k_max]
    sets.sort(key=lambda mask: [i for i in range(n) if mask >> i & 1])
    for states, mask in enumerate(sets, start=1):
        k, v = mask.bit_count(), value[mask]
        acc = sum(value[mask | 1 << i] for i in range(n) if not mask >> i & 1)
        if acc != (n - k) * v:
            prefix = [x for i, x in enumerate(population.values) if mask >> i & 1]
            return MartingaleCheck(_violation(prefix, v, acc, n), states)
    return MartingaleCheck(None, len(sets))


def _check_ordered(
    population: Population,
    value_fn: Callable[[tuple[Fraction, ...]], object],
    k_min: int,
    k_max: int,
) -> MartingaleCheck:
    """Check an arbitrary adapted evaluator over all ordered prefixes.

    ``value_fn`` maps a drawn prefix (tuple of values, in order) to a
    scalar or a tuple.  Fully general and exact, at ordered-tree cost.
    """

    def fn(prefix: tuple[Fraction, ...]):
        v = value_fn(prefix)
        return _Vector(v) if isinstance(v, tuple) else v

    vals = list(population.values)  # permuted in place: vals[:k] is the prefix
    n = population.n
    states = 0
    violation: MartingaleViolation | None = None

    def dfs(k: int) -> None:
        nonlocal states, violation
        if k_min <= k <= k_max - 1:
            states += 1
            prefix = tuple(vals[:k])
            v = fn(prefix)
            acc = sum(fn((*prefix, x)) for x in vals[k:])
            if acc != (n - k) * v:
                violation = _violation(prefix, v, acc, n)
                return
        if k >= k_max - 1:
            return
        for i in range(k, n):
            vals[k], vals[i] = vals[i], vals[k]
            dfs(k + 1)
            vals[k], vals[i] = vals[i], vals[k]
            if violation is not None:
                return

    dfs(0)
    return MartingaleCheck(violation, states)


def ensure_checkable(n: int, cutoff: int | None) -> None:
    """Refuse an exhaustive check over n items above the cutoff; run
    before a population file is parsed, it refuses at no cost."""
    ensure_enumerable(n, cutoff, "the exhaustive martingale check")


def check_sequence(
    population: Population,
    value_fn: Callable[[tuple[Fraction, ...]], object],
    k_min: int,
    k_max: int,
    cutoff: int | None = None,
) -> MartingaleCheck:
    """Exhaustively check any adapted sequence for the martingale
    property over k_min..k_max.

    The general-purpose entry point for custom evaluators (used by
    mutation tests); it walks every ordered prefix.  The negative-control
    library, ``counterexample_suite``, uses the drawn-set check instead.
    """
    n = population.n
    if not 0 <= k_min <= k_max <= n:
        raise InvalidInputError(
            f"need 0 <= k_min <= k_max <= {n}, got [{k_min}, {k_max}]"
        )
    ensure_checkable(n, cutoff)
    return _check_ordered(population, value_fn, k_min, k_max)


def _walk_weighted(values, d: int, multipliers, value, scale: int) -> MartingaleCheck:
    """Check ``value`` of the weighted state (k, S_k, W_k, A_k), carried
    one draw at a time over every ordered prefix of ``values`` (the
    population times d).  ``value`` must be (n - k) scale M_k, so
    E[M_{k+1} | h] = M_k reads: next-draw values sum to (n-k-1) value_k.

    Every prefix is checked, in the same depth-first order whatever the
    input.  The nodes with three undrawn values and their three children,
    nine in ten of the checked histories, are checked in straight-line
    code by ``tail``, with no call per child; ``dfs`` walks the shallower
    nodes.
    """
    n = len(values)
    arr = list(values)  # permuted in place: arr[:k] is the drawn prefix
    states = 0
    violation: MartingaleViolation | None = None

    def fail(prefix, k: int, g, csum) -> None:
        nonlocal violation
        violation = _violation(
            [Fraction(v, d) for v in prefix],
            g / Fraction((n - k) * scale),
            csum / Fraction((n - k - 1) * scale),
            n,
        )

    def dfs(k: int, s, w, alpha, g, last) -> None:
        nonlocal states
        a = _next_multiplier(multipliers, k, last)
        alpha2 = alpha + a
        k1 = k + 1
        gs = [value(k1, s + x, w + a * x, alpha2) for x in arr[k:]]
        if k:
            states += 1
            csum = sum(gs)
            if csum != (n - k1) * g:
                fail(arr[:k], k, g, csum)
                return
        child = tail if k1 == n - 3 else dfs
        for i in range(k, n):
            x = arr[i]
            arr[k], arr[i] = x, arr[k]
            child(k1, s + x, w + a * x, alpha2, gs[i - k], x)
            arr[k], arr[i] = arr[i], x
            if violation is not None:
                return

    n1 = n - 1

    def tail(k: int, s, w, alpha, g, last) -> None:
        # a node of depth n-3, undrawn u, v, t, then its children as dfs
        # would visit them: u, v, t drawn next, leaving (v, t), (u, t), (v, u)
        nonlocal states
        u, v, t = arr[k:]
        a = _next_multiplier(multipliers, k, last)
        alpha2 = alpha + a
        k1 = k + 1
        su, sv, st = s + u, s + v, s + t
        wu, wv, wt = w + a * u, w + a * v, w + a * t
        gu = value(k1, su, wu, alpha2)
        gv = value(k1, sv, wv, alpha2)
        gt = value(k1, st, wt, alpha2)
        if k:
            states += 1
            csum = gu + gv + gt
            if csum != 2 * g:
                fail(arr[:k], k, g, csum)
                return
        # each child's a_{k+2}: the rule of _next_multiplier, written out
        # because three calls per node cost 5-8% of the walk
        if multipliers is None:
            bu, bv, bt = u, v, t
        else:
            bu = bv = bt = multipliers[k1]
        # a child of depth n-2 has two next draws, and n-(n-2)-1 = 1
        states += 1
        au = alpha2 + bu
        csum = value(n1, su + v, wu + bu * v, au) + value(n1, su + t, wu + bu * t, au)
        if csum != gu:
            fail([*arr[:k], u], k1, gu, csum)
            return
        states += 1
        av = alpha2 + bv
        csum = value(n1, sv + u, wv + bv * u, av) + value(n1, sv + t, wv + bv * t, av)
        if csum != gv:
            fail([*arr[:k], v], k1, gv, csum)
            return
        states += 1
        at = alpha2 + bt
        csum = value(n1, st + v, wt + bt * v, at) + value(n1, st + u, wt + bt * u, at)
        if csum != gt:
            fail([*arr[:k], t], k1, gt, csum)

    if n >= 3:  # below three values there is no history to check
        (tail if n == 3 else dfs)(0, 0, 0, 0, 0, 0)
    return MartingaleCheck(violation, states)


def check_martingale(spec: MartingaleSpec, cutoff: int | None = None) -> MartingaleCheck:
    """Certify the martingale property of ``spec`` on every history.

    For every history h of length k with k and k+1 in the spec's range,
    asserts that the average of the evaluator over the n-k possible
    next draws equals the evaluator at h, exactly.
    """
    pop = spec.population
    ensure_checkable(pop.n, cutoff)
    if spec.kind in ORDER_FREE_VALUES:
        fn = ORDER_FREE_VALUES[spec.kind](pop)
        return _check_order_free(pop, fn, spec.k_min, spec.k_max)
    # values times d, multipliers times e (the chain's are draws: e = d)
    xs, d = scaled_integers(pop.values)
    ws, e = (None, d) if spec.multipliers is None else scaled_integers(spec.multipliers)
    return _walk_weighted(xs, d, ws, weighted_value(pop.n), d * e)


def check_vector_martingale(
    population: Population,
    basis: Basis | str,
    multipliers: Sequence | None = None,
    cutoff: int | None = None,
) -> MartingaleCheck:
    """Exhaustively check every coordinate of the inverse-product
    vector martingale.

    The quadratic-basis vector depends on the prefix only through
    (k, S_k, T_k), so it is checked on the drawn-set table.  The weighted basis
    goes through the ordered walker of the weighted state, which
    applies each inverse product to (W_k, S_k) at every child history.
    """
    basis = coerce_enum(Basis, basis, "basis")
    ensure_checkable(population.n, cutoff)
    system = build_transition_system(
        basis, population=population, multipliers=multipliers
    )
    k_max = system.max_product_index
    if basis is Basis.QUADRATIC:

        def fn(k: int, s: Fraction, t: Fraction):
            vec = (s * s, s, t, Fraction(1))
            return _Vector(matrix_vector(system.inverse_product(k), vec))

        return _check_order_free(population, fn, 1, k_max)

    # ``value`` gets w = d e W_k and s = d S_k.  Each inverse product
    # times n - k, its S_k column also times e, has integer entries over
    # one denominator c, so ``value`` is (n - k) c d e P_k (W_k, S_k).
    xs, d = scaled_integers(population.values)
    ws, e = scaled_integers(system.multipliers)
    q, c = scaled_integers(
        (system.n - k) * p * f
        for k in range(1, k_max + 1)
        for row in system.inverse_product(k)
        for p, f in zip(row, (1, e))
    )

    def value(k: int, s: int, w: int, alpha: int) -> _Vector:
        i = 4 * k - 4  # q holds the 2x2 products row by row
        return _Vector((q[i] * w + q[i + 1] * s, q[i + 2] * w + q[i + 3] * s))

    return _walk_weighted(xs, d, ws, value, c * d * e)


@dataclass(frozen=True)
class CounterexampleEntry:
    """One negative-control result."""

    name: str
    expected_to_hold: bool
    witness: MartingaleViolation | None

    @property
    def holds(self) -> bool:
        return self.witness is None

    @property
    def ok(self) -> bool:
        return self.holds == self.expected_to_hold

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "expected_to_hold": self.expected_to_hold,
            "holds": self.holds,
            "ok": self.ok,
            "witness": None if self.witness is None else self.witness.to_dict(),
        }


@dataclass(frozen=True)
class CounterexampleReport:
    entries: tuple[CounterexampleEntry, ...]

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def to_dict(self) -> dict:
        return {"ok": self.ok, "entries": [e.to_dict() for e in self.entries]}


def counterexample_suite(
    population: Population | None = None, cutoff: int | None = None
) -> CounterexampleReport:
    """Run the fixed library of near-miss sequences.

    Each entry is a plausible-looking compensation of a running sum.
    The ones marked ``expected_to_hold=False`` must fail the exhaustive
    check with a witness history; the positive controls must pass.
    This guards the checker itself against going soft.  Like the other
    exhaustive checks it refuses n above the cutoff.
    """
    pop = population if population is not None else make_population([1, -1, 2, -2])
    ensure_checkable(pop.n, cutoff)
    pop.require_centered("the counterexample suite")
    n = pop.n
    b = pop.square_sum
    mtilde = _mtilde_value(pop)
    # The expected outcomes below are calibrated: with n < 4 the shifted
    # compensated-square entry has no step to check, and with constant
    # squares the drift entry is identically zero (a true martingale).
    if n < 4:
        raise PreconditionError(
            f"the counterexample suite needs n >= 4, got n={n}"
        )
    if all(v * v == pop.values[0] ** 2 for v in pop.values):
        raise PreconditionError(
            "the counterexample suite needs a population with non-constant "
            "squares; every x_i^2 here is equal"
        )
    library: list[tuple[str, bool, int, int, Callable]] = [
        # plain running sum: drifts toward 0, no compensation
        ("partial_sum", False, 1, n - 1,
         lambda k, s, t: s),
        # off-by-one compensation of the running sum
        ("partial_sum_over_remaining_plus_one", False, 1, n - 1,
         lambda k, s, t: s / Fraction(n - k + 1)),
        # the correct compensation (positive control)
        ("partial_sum_over_remaining", True, 1, n - 1,
         lambda k, s, t: s / Fraction(n - k)),
        # running square sum minus its linear drift: wrong compensator
        ("square_sum_minus_linear_drift", False, 1, n - 1,
         lambda k, s, t: t - k * b / n),
        # compensated-square martingale shifted by k
        ("compensated_square_plus_k", False, 1, n - 2,
         lambda k, s, t: mtilde(k, s, t) + k),
    ]
    entries = []
    for name, expected, k_min, k_max, fn in library:
        check = _check_order_free(pop, fn, k_min, k_max)
        entries.append(
            CounterexampleEntry(
                name=name,
                expected_to_hold=expected,
                witness=check.worst_history,
            )
        )
    return CounterexampleReport(entries=tuple(entries))
