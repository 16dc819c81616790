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
* ``CHAIN_QUADRATIC``: the WEIGHTED family under the non-anticipating
               rule a_1 = 0, a_k = X_{k-1}; equivalently
               X_1 X_2 + ... + X_{k-1} X_k + S_{k-1} S_k / (n - k)

``check_martingale`` certifies E[M_{k+1} | first k draws] = M_k on
every history by enumeration, never by algebra, so a wrong evaluator
cannot certify itself.  Two engines exist: a subset walker for
evaluators that depend on the prefix only through (k, S_k, T_k), and an
ordered-prefix walker for weight-dependent evaluators.  Both report the
first violating history found.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, ClassVar, Sequence

from .construction import (
    Basis,
    build_transition_system,
    matrix_vector,
    vector_martingale_value,
)
from .errors import DomainError, InvalidInputError, PreconditionError, coerce_enum
from .population import (
    PathState,
    Population,
    ensure_enumerable,
    make_population,
    path_for,
    state_for_prefix,
)
from .rationals import format_rational, scaled_integers
from .weights import validate_weights, weight_prefix_sum


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


def evaluate(spec: MartingaleSpec, state: PathState) -> Fraction:
    """Closed-form martingale value at one history."""
    if state.population.values != spec.population.values:
        raise InvalidInputError("state and spec come from different populations")
    if not spec.k_min <= state.k <= spec.k_max:
        detail = ""
        if spec.kind is MartingaleKind.MTILDE and state.k == spec.k_max + 1:
            detail = " (k = n-1 would divide by n-k-1 = 0)"
        raise DomainError(
            f"kind {spec.kind.value!r} is defined for "
            f"{spec.k_min} <= k <= {spec.k_max}, got k={state.k}{detail}"
        )
    n, k, s, drawn = spec.population.n, state.k, state.partial_sum, state.drawn
    if spec.kind in ORDER_FREE_VALUES:
        return ORDER_FREE_VALUES[spec.kind](spec.population)(
            k, s, state.partial_square_sum
        )
    if spec.kind is MartingaleKind.WEIGHTED:
        ws = spec.multipliers
        w = sum((a * x for a, x in zip(ws, drawn)), Fraction(0))
        return w + weight_prefix_sum(ws, k) * s / (n - k)
    # chain rule: a_1 = 0, a_i = X_{i-1}, so W_k telescopes to adjacent
    # products and alpha_1(k) = S_{k-1}
    w = sum(
        (drawn[i - 1] * drawn[i] for i in range(1, k)),
        Fraction(0),
    )
    return w + (s - drawn[k - 1]) * s / (n - k)


def evaluate_prefix(spec: MartingaleSpec, prefix: Sequence) -> Fraction:
    """Closed-form value after drawing ``prefix`` in order."""
    return evaluate(spec, state_for_prefix(spec.population, prefix))


@dataclass(frozen=True)
class MartingaleTrajectory:
    """Values of one martingale along one permutation."""

    spec: MartingaleSpec
    permutation: tuple[int, ...]
    ks: tuple[int, ...]
    values: tuple[Fraction, ...]


def trajectory(spec: MartingaleSpec, permutation: Sequence[int]) -> MartingaleTrajectory:
    """Evaluate the martingale at every k in its range along one path."""
    path = path_for(spec.population, permutation)
    ks = tuple(range(spec.k_min, spec.k_max + 1))
    values = tuple(evaluate(spec, path.states[k]) for k in ks)
    return MartingaleTrajectory(
        spec=spec, permutation=path.permutation, ks=ks, values=values
    )


@dataclass(frozen=True)
class MartingaleViolation:
    """A history where the one-step martingale identity fails.

    ``value`` is the evaluator at the history; ``conditional_mean`` is
    the exact average of the evaluator over the next draws.
    """

    prefix: tuple[Fraction, ...]
    k: int
    value: object
    conditional_mean: object

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

    holds: bool
    worst_history: MartingaleViolation | None
    states_checked: int

    def to_dict(self) -> dict:
        return {
            "holds": self.holds,
            "states_checked": self.states_checked,
            "worst_history": (
                None if self.worst_history is None else self.worst_history.to_dict()
            ),
        }


def _vadd(a, b):
    if isinstance(a, tuple):
        return tuple(x + y for x, y in zip(a, b))
    return a + b


def _vscale(a, c):
    if isinstance(a, tuple):
        return tuple(x * c for x in a)
    return a * c


def _vdiv(a, c):
    if isinstance(a, tuple):
        return tuple(x / c for x in a)
    return a / c


def _violation(prefix, k: int, v, acc, n: int) -> MartingaleViolation:
    """The failed one-step identity at a history of value ``v`` whose n-k
    next-draw values sum to ``acc``."""
    return MartingaleViolation(
        prefix=tuple(prefix), k=k, value=v, conditional_mean=_vdiv(acc, n - k)
    )


def _check_order_free(
    population: Population,
    value_fn: Callable[[int, Fraction, Fraction], object],
    k_min: int,
    k_max: int,
) -> MartingaleCheck:
    """Check a martingale whose value depends on the prefix only through
    (k, S_k, T_k).

    For such evaluators every ordering of a drawn set gives the same
    value, so the 2^n drawn sets cover all n! histories; the identity
    is still the exact one-step average over the n-k possible next
    draws.
    """
    vals = population.values
    n = population.n
    in_use = [False] * n
    prefix: list[Fraction] = []
    states = 0
    violation: MartingaleViolation | None = None

    def dfs(start: int, k: int, s: Fraction, t: Fraction) -> None:
        nonlocal states, violation
        if k_min <= k <= k_max - 1:
            states += 1
            v = value_fn(k, s, t)
            acc = None
            for j in range(n):
                if not in_use[j]:
                    x = vals[j]
                    cv = value_fn(k + 1, s + x, t + x * x)
                    acc = cv if acc is None else _vadd(acc, cv)
            if acc != _vscale(v, n - k):
                violation = _violation(prefix, k, v, acc, n)
                return
        if k >= k_max - 1:
            return
        for j in range(start, n):
            x = vals[j]
            in_use[j] = True
            prefix.append(x)
            dfs(j + 1, k + 1, s + x, t + x * x)
            prefix.pop()
            in_use[j] = False
            if violation is not None:
                return

    dfs(0, 0, Fraction(0), Fraction(0))
    return MartingaleCheck(
        holds=violation is None, worst_history=violation, states_checked=states
    )


def _check_ordered(
    population: Population,
    value_fn: Callable[[tuple[Fraction, ...]], object],
    k_min: int,
    k_max: int,
) -> MartingaleCheck:
    """Check an arbitrary adapted evaluator over all ordered prefixes.

    ``value_fn`` maps a drawn prefix (tuple of values, in order) to a
    scalar or vector.  Fully general and exact, at ordered-tree cost.
    """
    vals = list(population.values)
    n = population.n
    prefix: list[Fraction] = []
    states = 0
    violation: MartingaleViolation | None = None

    def dfs(k: int) -> None:
        nonlocal states, violation
        if k_min <= k <= k_max - 1:
            states += 1
            v = value_fn(tuple(prefix))
            acc = None
            for i in range(k, n):
                cv = value_fn(tuple(prefix) + (vals[i],))
                acc = cv if acc is None else _vadd(acc, cv)
            if acc != _vscale(v, n - k):
                violation = _violation(prefix, k, v, acc, n)
                return
        if k >= k_max - 1:
            return
        for i in range(k, n):
            vals[k], vals[i] = vals[i], vals[k]
            prefix.append(vals[k])
            dfs(k + 1)
            prefix.pop()
            vals[k], vals[i] = vals[i], vals[k]
            if violation is not None:
                return

    dfs(0)
    return MartingaleCheck(
        holds=violation is None, worst_history=violation, states_checked=states
    )


def check_sequence(
    population: Population,
    value_fn: Callable[[tuple[Fraction, ...]], object],
    k_min: int,
    k_max: int,
    cutoff: int | None = None,
) -> MartingaleCheck:
    """Exhaustively check any adapted sequence for the martingale
    property over k_min..k_max.

    The general-purpose entry point for custom evaluators (used by the
    negative-control library and by mutation tests).
    """
    n = population.n
    if not 0 <= k_min <= k_max <= n:
        raise InvalidInputError(
            f"need 0 <= k_min <= k_max <= {n}, got [{k_min}, {k_max}]"
        )
    ensure_enumerable(n, cutoff, "the exhaustive martingale check")
    return _check_ordered(population, value_fn, k_min, k_max)


def _check_weighted_fast(
    population: Population,
    multipliers: tuple[Fraction, ...] | None,
    chain: bool,
) -> MartingaleCheck:
    """Ordered-prefix check for the weighted families in pure integers.

    Scale values by d and multipliers by e; then
    g_k = (n-k) W'_k + alpha_1'(k) S'_k is an integer equal to
    (n-k) d e M_k, and the one-step identity E[M_{k+1} | h] = M_k is
    equivalent to sum over next draws of g_{k+1} == (n-k-1) g_k.
    """
    n = population.n
    xs, d = scaled_integers(population.values)
    if chain:
        wsc: tuple[int, ...] = ()
        e = d
        alpha: list[int] = []
    else:
        wsc, e = scaled_integers(multipliers)
        alpha = [0] * (n + 1)
        for i, w in enumerate(wsc, 1):
            alpha[i] = alpha[i - 1] + w
    arr = list(xs)
    prefix: list[int] = []
    states = 0
    violation: MartingaleViolation | None = None
    scale = d * e

    def dfs(k: int, s: int, w: int, g: int, last: int) -> None:
        nonlocal states, violation
        child: list[tuple[int, int, int]] = []
        csum = 0
        for i in range(k, n):
            x = arr[i]
            if chain:
                w2 = w + (last if k >= 1 else 0) * x
                g2 = (n - k - 1) * w2 + s * (s + x)
            else:
                w2 = w + wsc[k] * x
                g2 = (n - k - 1) * w2 + alpha[k + 1] * (s + x)
            child.append((x, w2, g2))
            csum += g2
        if k >= 1:
            states += 1
            if csum != (n - k - 1) * g:
                violation = MartingaleViolation(
                    prefix=tuple(Fraction(v, d) for v in prefix),
                    k=k,
                    value=Fraction(g, (n - k) * scale),
                    conditional_mean=Fraction(csum, (n - k) * (n - k - 1) * scale),
                )
                return
        if k > n - 3:
            return
        for idx, i in enumerate(range(k, n)):
            x, w2, g2 = child[idx]
            arr[k], arr[i] = arr[i], arr[k]
            prefix.append(x)
            dfs(k + 1, s + x, w2, g2, x)
            prefix.pop()
            arr[k], arr[i] = arr[i], arr[k]
            if violation is not None:
                return

    dfs(0, 0, 0, 0, 0)
    return MartingaleCheck(
        holds=violation is None, worst_history=violation, states_checked=states
    )


def check_martingale(spec: MartingaleSpec, cutoff: int | None = None) -> MartingaleCheck:
    """Certify the martingale property of ``spec`` on every history.

    For every history h of length k with k and k+1 in the spec's range,
    asserts that the average of the evaluator over the n-k possible
    next draws equals the evaluator at h, exactly.
    """
    pop = spec.population
    ensure_enumerable(pop.n, cutoff, "the exhaustive martingale check")
    if spec.kind in ORDER_FREE_VALUES:
        fn = ORDER_FREE_VALUES[spec.kind](pop)
        return _check_order_free(pop, fn, spec.k_min, spec.k_max)
    return _check_weighted_fast(
        pop,
        spec.multipliers,
        chain=spec.kind is MartingaleKind.CHAIN_QUADRATIC,
    )


def check_vector_martingale(
    population: Population,
    basis: Basis | str,
    multipliers: Sequence | None = None,
    cutoff: int | None = None,
) -> MartingaleCheck:
    """Exhaustively check every coordinate of the inverse-product
    vector martingale.

    The quadratic-basis vector depends on the prefix only through
    (k, S_k, T_k), so the subset walker applies; the weighted basis
    goes through the ordered walker.
    """
    basis = coerce_enum(Basis, basis, "basis")
    ensure_enumerable(population.n, cutoff, "the exhaustive martingale check")
    system = build_transition_system(
        basis, population=population, multipliers=multipliers
    )
    k_max = system.max_product_index
    if basis is Basis.QUADRATIC:

        def fn(k: int, s: Fraction, t: Fraction):
            vec = (s * s, s, t, Fraction(1))
            return matrix_vector(system.inverse_product(k), vec)

        return _check_order_free(population, fn, 1, k_max)

    def value_fn(prefix: tuple[Fraction, ...]):
        state = state_for_prefix(population, prefix)
        return vector_martingale_value(system, state)

    return _check_ordered(population, value_fn, 1, k_max)


def initial_expectation(spec: MartingaleSpec) -> Fraction:
    """Exact mean of the martingale at its first index over the n
    equally likely first draws."""
    pop = spec.population
    total = sum(
        (evaluate_prefix(spec, (x,)) for x in pop.values), Fraction(0)
    )
    return total / pop.n


@dataclass(frozen=True)
class CounterexampleEntry:
    """One negative-control result."""

    name: str
    expected_to_hold: bool
    holds: bool
    witness: MartingaleViolation | None

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


def counterexample_suite(population: Population | None = None) -> CounterexampleReport:
    """Run the fixed library of near-miss sequences.

    Each entry is a plausible-looking compensation of a running sum.
    The ones marked ``expected_to_hold=False`` must fail the exhaustive
    check with a witness history; the positive controls must pass.
    This guards the checker itself against going soft.
    """
    pop = population if population is not None else make_population([1, -1, 2, -2])
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
                holds=check.holds,
                witness=check.worst_history,
            )
        )
    return CounterexampleReport(entries=tuple(entries))
