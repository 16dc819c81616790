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
cannot certify itself.  Two routes report the first violating history.
The drawn-set checker compares each drawn set's value, computed once in
the table the exact inequality engine also reads, with the average over
its one-item extensions.  It compares in ints, each layer of the table
scaled to one common denominator, and the ``Fraction`` table gives the
witness.  W_k and A_k, which WEIGHTED, CHAIN_QUADRATIC and the
weighted-basis vector also see, enter it as formal slots that may only
be added and scaled, so an identity in the slots holds at every history
that reaches the set.  The generic ``Fraction`` walker over ordered
prefixes, the independent route, serves ``check_sequence``, and gives
the verdict and the witness whenever the slots do not certify.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, perm
from typing import Callable, Iterable, NamedTuple, Sequence

from .choices import Basis, MartingaleKind
from .construction import (build_transition_system, matrix_vector,
                           vector_martingale_value)
from .errors import DomainError, InvalidInputError, PreconditionError, coerce_enum
from .population import (Population, drawn_prefix, drawn_set_values,
                         ensure_enumerable, make_population)
from .rationals import format_rational
from .weights import validate_weights


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
    """The one definition of the weighted family, M_k = W_k + A_k S_k /
    (n - k), where W_k = a_1 X_1 + ... + a_k X_k and A_k = a_1 + ... + a_k.
    It runs on Fractions and on the formal slots of the drawn-set check.
    The two kinds differ only in :func:`_next_multiplier`."""
    return lambda k, s, w, alpha: w + alpha * s / (n - k)


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
    return weighted_value(n)(len(drawn), s, w, alpha)


class MartingaleSpec(NamedTuple):
    """A martingale family bound to one population.

    ``multipliers`` is set only for WEIGHTED.  CHAIN_QUADRATIC derives
    its multipliers from the drawn prefix, so none are stored.
    """

    kind: MartingaleKind
    population: Population
    multipliers: tuple[Fraction, ...] | None = None

    k_min = 1

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


class MartingaleViolation(NamedTuple):
    """A history where the one-step martingale identity fails.

    ``value`` is the evaluator at the history; ``conditional_mean`` is
    the exact average of the evaluator over the next draws, a
    ``Fraction`` for int and ``Fraction`` values, averaged coordinatewise
    for a tuple value.
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


class MartingaleCheck(NamedTuple):
    """Outcome of an exhaustive conditional-expectation check.

    ``states_checked`` counts the histories certified: distinct drawn
    sets for an order-free evaluator, else ordered prefixes (n!/(n-k)!
    at each checked k, however few drawn sets certified them), up to the
    first violation.  ``worst_history`` is the first violation in
    enumeration order, or None.
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


def _mean(values: list):
    """The exact average of numbers, or of tuples coordinatewise: the
    conditional mean both routes compare and report."""
    count = Fraction(len(values))
    if isinstance(values[0], tuple):
        return tuple(sum(col) / count for col in zip(*values, strict=True))
    return sum(values) / count


class _NotAffine(Exception):
    """An evaluator did more to a formal slot than add and scale it."""


class _Form:
    """The form c0 + c1 W_k + c2 A_k in formal slots for W_k and A_k.  It
    adds and scales by numbers; any other operation, comparison and truth
    value included, raises ``_NotAffine``, so the slots never certify an
    evaluator that compares, multiplies or branches on one."""

    __slots__ = ("terms",)

    def __init__(self, *terms):
        self.terms = terms

    def __add__(self, other):
        if isinstance(other, _Form):
            return _Form(*(x + y if y else x for x, y in zip(self.terms, other.terms)))
        c0, c1, c2 = self.terms
        return _Form(c0 + other, c1, c2)

    def __mul__(self, c):
        if isinstance(c, _Form):
            raise _NotAffine
        return _Form(*(c * x if x else x for x in self.terms))

    __radd__, __rmul__ = __add__, __mul__
    __neg__, __truediv__ = (lambda a: -1 * a), (lambda a, c: a * (Fraction(1) / c))
    __sub__, __rsub__ = (lambda a, b: a + -b), (lambda a, b: -a + b)


def _not_affine(*args):
    raise _NotAffine


for _op in ("eq ne lt le gt ge bool hash pos abs pow rpow rtruediv floordiv rfloordiv"
            " mod rmod divmod rdivmod int float complex index round trunc floor"
            " ceil getattr").split():
    setattr(_Form, f"__{_op}__", _not_affine)
_W, _A = _Form(0, 1, 0), _Form(0, 0, 1)


def _coefficients(v, slots: bool) -> tuple:
    """The numbers the identity compares in ``v``: a form's (c0, c1, c2), a
    number's (v, 0, 0) with slots, else (v,), a vector's entries' in order."""
    if isinstance(v, tuple):
        return tuple(c for x in v for c in _coefficients(x, slots))
    return v.terms if isinstance(v, _Form) else (v, 0, 0) if slots else (v,)


def _check_drawn_sets(
    population: Population,
    value_fn: Callable[[int, Fraction, Fraction], object],
    k_min: int,
    k_max: int,
    moves: Callable[[int, list, int], Iterable] | None = None,
) -> MartingaleCheck:
    """The one drawn-set loop: each set's value, ``value_fn(k, S_k, T_k)``
    from ``drawn_set_values``, must be the average over its n-k one-item
    extensions.  Every ordering of a set gives the same (k, S_k, T_k), so
    the 2^n sets cover all n! histories.  A value may also hold the slots
    ``_W`` and ``_A`` of the histories that reach its set; for each
    a_{k+1} = alpha/e in ``moves(k, drawn, d)`` (drawn values X = d x), an
    extension by x moves them to W_k + a x and A_k + a.  The identity is
    compared in ints: layer k's coefficients times Q_k, the lcm of their
    denominators, give Q_k * (sum over the extensions) = (n-k) Q_{k+1} *
    (the set's value).  Sets go in lexicographic order of their item
    indices; at the first that fails the ``Fraction`` table gives the
    witness, whose prefix lists the set's values in that order.
    ``_check_ordered`` remains the independent route."""
    n, xs = population.n, population.values
    value = drawn_set_values(xs, value_fn, range(k_min, k_max + 1))
    flat = [v if v is None else _coefficients(v, moves is not None) for v in value]
    dens = [set() for _ in range(n + 1)]
    for mask, cs in enumerate(flat):
        dens[mask.bit_count()].update(c.denominator for c in cs or ())
    q = [lcm(*ds) for ds in dens]  # Q_k
    coef = [cs and tuple(c.numerator * (q[mask.bit_count()] // c.denominator) for c in cs)
            for mask, cs in enumerate(flat)]
    ints, d = population.scaled
    sets = [mask for mask in range(1 << n) if k_min <= mask.bit_count() < k_max]
    sets.sort(key=lambda mask: [i for i in range(n) if mask >> i & 1])
    for states, mask in enumerate(sets, start=1):
        k, free = mask.bit_count(), [i for i in range(n) if not mask >> i & 1]
        rows = [coef[mask | 1 << i] for i in free]
        sums = [sum(col) for col in zip(*rows)]
        gaps = [q[k] * s - (n - k) * q[k + 1] * p for s, p in zip(sums, coef[mask])]
        if moves is None:
            fails = any(gaps)
        else:  # the c0 gap must cancel the drift, a (x c1 + c2) per child
            alphas = moves(k, [x for i, x in enumerate(ints) if mask >> i & 1], d)
            forms = range(0, len(gaps), 3)
            drifts = [q[k] * (sum(ints[i] * row[j + 1] for i, row in zip(free, rows))
                              + d * sums[j + 2]) for j in forms]
            fails = any(gaps[j + 1] or gaps[j + 2]
                        or any(e * d * gaps[j] + alpha * drift for alpha, e in alphas)
                        for j, drift in zip(forms, drifts))
        if fails:
            drawn = tuple(x for i, x in enumerate(xs) if mask >> i & 1)
            mean = _mean([value[mask | 1 << i] for i in free])
            return MartingaleCheck(MartingaleViolation(drawn, value[mask], mean), states)
    return MartingaleCheck(None, len(sets))


def _check_slots(
    population: Population,
    multipliers: Sequence[Fraction] | None,
    value_fn: Callable[[int, Fraction, Fraction], object],
    k_max: int,
    prefix_value: Callable[[tuple[Fraction, ...]], object],
) -> MartingaleCheck:
    """Check ``value_fn(k, S_k, T_k)``, which reads W_k and A_k from the
    slots ``_W`` and ``_A``, for k = 1..k_max on the drawn sets.  A state
    is the drawn set, and for the chain (``multipliers`` None), whose
    a_{k+1} is the last draw, the set and its last draw.  Should the
    slots' identity fail, or ``value_fn`` do more to a slot than add and
    scale it, the generic walk over ``prefix_value`` gives the verdict."""

    ratios = multipliers and [(a.numerator, a.denominator) for a in multipliers]

    def moves(k: int, drawn: list, d: int) -> set:
        lasts = drawn if multipliers is None else (None,)
        return {_next_multiplier(ratios, k, (last, d)) for last in lasts}

    try:
        if _check_drawn_sets(population, value_fn, 1, k_max, moves).holds:
            histories = sum(perm(population.n, k) for k in range(1, k_max))
            return MartingaleCheck(None, histories)
    except _NotAffine:
        pass
    return _check_ordered(population, prefix_value, 1, k_max)  # the fallback route


def _check_ordered(
    population: Population,
    value_fn: Callable[[tuple[Fraction, ...]], object],
    k_min: int,
    k_max: int,
) -> MartingaleCheck:
    """Check an arbitrary adapted evaluator, which maps a drawn prefix
    (a tuple of values, in order) to a scalar or a tuple, over all
    ordered prefixes, at ordered-tree cost: the route of
    ``check_sequence``, and the fallback and witness route of the slots.
    """
    n, vals = population.n, list(population.values)  # vals[:k] is the prefix
    states = 0

    def dfs(k: int, v=None) -> MartingaleViolation | None:
        nonlocal states
        children = None  # their values, passed down: each prefix is evaluated once
        if k_min <= k < k_max:
            states += 1
            prefix = tuple(vals[:k])
            v = value_fn(prefix) if v is None else v
            children = [value_fn((*prefix, x)) for x in vals[k:]]
            mean = _mean(children)
            if mean != v:
                return MartingaleViolation(prefix, v, mean)
        for i in range(k, n) if k < k_max - 1 else ():
            vals[k], vals[i] = vals[i], vals[k]
            violation = dfs(k + 1, None if children is None else children[i - k])
            vals[k], vals[i] = vals[i], vals[k]
            if violation is not None:
                return violation
        return None

    violation = dfs(0)
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

    The general-purpose entry point for custom evaluators; it walks
    every ordered prefix.  ``value_fn`` returns an int, a ``Fraction``
    or a tuple of them; a witness's conditional mean is then exact, a
    ``Fraction`` or a tuple of them.  A float-valued evaluator is outside
    this exact contract: its sums round.
    """
    n = population.n
    if not 0 <= k_min <= k_max <= n:
        raise InvalidInputError(
            f"need 0 <= k_min <= k_max <= {n}, got [{k_min}, {k_max}]"
        )
    ensure_checkable(n, cutoff)
    return _check_ordered(population, value_fn, k_min, k_max)


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
        return _check_drawn_sets(pop, fn, spec.k_min, spec.k_max)
    n, ws, value = pop.n, spec.multipliers, weighted_value(pop.n)
    return _check_slots(pop, ws, lambda k, s, t: value(k, s, _W, _A), spec.k_max,
                        lambda p: weighted_prefix_value(n, ws, p))


def check_vector_martingale(
    population: Population,
    basis: Basis | str,
    multipliers: Sequence | None = None,
    cutoff: int | None = None,
) -> MartingaleCheck:
    """Exhaustively check every coordinate of the inverse-product
    vector martingale on the drawn sets: the quadratic basis sees a
    history only through (k, S_k, T_k), and the weighted basis applies
    each inverse product to (W_k, S_k) with W_k a formal slot, with
    ``vector_martingale_value`` on every prefix as its fallback route.
    """
    basis = coerce_enum(Basis, basis, "basis")
    ensure_checkable(population.n, cutoff)
    system = build_transition_system(basis, population=population, multipliers=multipliers)
    k_max = system.max_product_index

    def fn(k: int, s: Fraction, t: Fraction):
        state = (s * s, s, t, Fraction(1)) if basis is Basis.QUADRATIC else (_W, s)
        return matrix_vector(system.inverse_product(k), state)

    if basis is Basis.QUADRATIC:
        return _check_drawn_sets(population, fn, 1, k_max)
    return _check_slots(population, system.multipliers, fn, k_max,
                        lambda p: vector_martingale_value(system, p))


class CounterexampleEntry(NamedTuple):
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


class CounterexampleReport(NamedTuple):
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
        raise PreconditionError(f"the counterexample suite needs n >= 4, got n={n}")
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
    return CounterexampleReport(tuple(
        CounterexampleEntry(name, expected,
                            _check_drawn_sets(pop, fn, k_min, k_max).worst_history)
        for name, expected, k_min, k_max, fn in library
    ))
