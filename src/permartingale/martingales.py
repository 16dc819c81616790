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

Each kind reads its value off a row of an inverse product of
``construction``: M2, M3 and MTILDE are rows 2, 3 and 1 (over n) of the
quadratic one applied to (S_k^2, S_k, T_k, 1), the weighted family row 1
of the weighted one applied to (W_k, S_k).  The formulas above are the
tests' labelled independent route, checked against the rows term by term.

``check_martingale`` certifies E[M_{k+1} | first k draws] = M_k on every
history by enumeration, never by algebra, so a wrong evaluator cannot
certify itself.  Two routes report the first violating history.  The
drawn-set checker runs the evaluator once per layer k, on formal S_k and
T_k, and gets a polynomial in them.  Scaled to one denominator, it makes
each drawn set's value an int, compared with its one-item extensions'
sum, one getter call of the subset lattice; ``Fraction``s build only the
witness.  W_k and A_k, which WEIGHTED, CHAIN_QUADRATIC and the
weighted-basis vector also see, enter as formal slots, and no product
may hold two of them, so the value is affine in the slots and an
identity in them holds at every history that reaches the set.  The
generic ``Fraction`` walker over ordered prefixes, the independent
route, serves ``check_sequence``.  It gives the verdict and the witness
whenever the formal values do not certify: the slots' identity fails, or
the evaluator does more than add, multiply and divide by numbers.
"""

from __future__ import annotations

from fractions import Fraction
from math import perm
from typing import Callable, Iterable, NamedTuple, Sequence

from .choices import Basis, MartingaleKind
from .construction import (_quadratic_product, _weighted_product,
                           build_transition_system, matrix_vector,
                           vector_martingale_value)
from .errors import DomainError, InvalidInputError, PreconditionError, coerce_enum
from .population import (_A, _W, Population, _drawn_set_table, _lattice, _NotAffine,
                         drawn_prefix, ensure_enumerable, make_population)
from .rationals import format_rational
from .weights import validate_weights


def _apply(row: Sequence, state: Sequence):
    """A row of an inverse product applied to a state, numbers or forms."""
    return sum(c * x for c, x in zip(row, state, strict=True))


def _quadratic_row(row: int, over_n: bool = False):
    return lambda pop: lambda k, s, t: _apply(_quadratic_product(
        pop.n, pop.total, pop.square_sum, k)[row], (s * s, s, t, 1)) / (pop.n if over_n else 1)


# The one definition of each order-free kind: kind -> factory that binds a
# population and returns (k, S_k, T_k) -> row ``row`` of its quadratic inverse
# product, counted from the last (k = n-1 has rows 2-4 only), applied to
# (S_k^2, S_k, T_k, 1), and over n if ``over_n``.
ORDER_FREE_VALUES = {
    MartingaleKind.M2: _quadratic_row(-3),
    MartingaleKind.M3: _quadratic_row(-2),
    MartingaleKind.MTILDE: _quadratic_row(-4, over_n=True),
}


def weighted_value(n: int) -> Callable[[int, object, object, object], object]:
    """The weighted family, M_k = W_k + A_k S_k / (n - k), with
    W_k = a_1 X_1 + ... + a_k X_k and A_k = a_1 + ... + a_k: row 1 of the
    weighted inverse product applied to (W_k, S_k), on Fractions or the
    drawn-set check's slots.  The kinds differ only in _next_multiplier."""
    return lambda k, s, w, alpha: _apply(_weighted_product(n, k, alpha)[0], (w, s))


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
        s, t = sum(drawn, Fraction(0)), sum((x * x for x in drawn), Fraction(0))
        return ORDER_FREE_VALUES[spec.kind](spec.population)(k, s, t)
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


def _check_drawn_sets(
    population: Population,
    value_fn: Callable[[int, Fraction, Fraction], object],
    k_max: int,
    moves: Callable[[int, list, int], Iterable] | None = None,
) -> MartingaleCheck:
    """The one drawn-set check: for 1 <= k < k_max, each set's value,
    ``value_fn(k, S_k, T_k)``, must be the average over its n-k one-item
    extensions; every ordering of a set gives the same (k, S_k, T_k), so the
    2^n sets cover all n! histories.  ``_drawn_set_table`` runs ``value_fn``
    once per layer on formal S_k and T_k and gives each polynomial's column
    of ints over one Q, by mask; a set's gap in a column, its extensions'
    sum (one ``_lattice`` getter call) less n-k times its entry, must be 0.
    A value c0 + W_k c1 + A_k c2 may hold the slots ``_W`` and ``_A`` of the
    histories that reach its set; each a = alpha/e in ``moves(k, drawn ints,
    d)`` moves them to W_k + a X and A_k + a on the extension by X.  So c1's
    and c2's gaps must be 0, and so must e c0's gap + alpha times the drift,
    the extensions' sum of X c1 + c2, which is S_k c1's gap plus (n-k) c2.
    Sets go in lexicographic order of their items; at the first that fails,
    ``value_fn`` on the ``Fraction`` sums of the set and of its extensions
    gives the witness, whose prefix lists the set's values in that order.
    An evaluator whose formal call raises ``_NotAffine`` or ``TypeError``
    goes to ``_check_ordered``, the independent route: here, or, with slots,
    through ``_NotAffine`` to the caller's fallback."""
    n, (ints, d) = population.n, population.scaled

    def value(p):  # value_fn on the Fraction sums of the drawn values p
        return value_fn(len(p), sum(p, Fraction(0)), sum((x * x for x in p), Fraction(0)))

    try:
        _, columns = _drawn_set_table(  # with slots, c0, c1, c2 and S_k c1 per form
            ints, d, value_fn, range(1, k_max + 1),
            ((0, 0),) if moves is None else ((0, 0), (1, 0), (2, 0), (1, 1)))
    except _NotAffine:
        if moves is not None:
            raise
        return _check_ordered(population, value, 1, k_max)

    _, succs, lex = _lattice(n)
    sets = [mask for mask in lex if mask.bit_count() < k_max]
    for states, mask in enumerate(sets, start=1):
        k, get = mask.bit_count(), succs[mask]
        gaps = [sum(get(column)) - (n - k) * column[mask] for column in columns]
        if moves is None:
            fails = any(gaps)
        else:
            alphas = moves(k, [x for i, x in enumerate(ints) if mask >> i & 1], d)
            fails = any(gaps[1::4] + gaps[2::4]) or any(
                e * g0 + alpha * (gs + (n - k) * c2[mask]) for alpha, e in alphas
                for g0, gs, c2 in zip(gaps[::4], gaps[3::4], columns[2::4]))
        if fails:  # the set's values, then each extension's
            drawn = [tuple(x for i, x in enumerate(population.values) if m >> i & 1)
                     for m in (mask, *get(range(1 << n)))]
            mean = _mean([value(p) for p in drawn[1:]])
            return MartingaleCheck(MartingaleViolation(drawn[0], value(drawn[0]), mean), states)
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
    slots' identity fail, or ``value_fn`` do more than add, multiply and
    divide by numbers, or multiply two slots, the generic walk over
    ``prefix_value`` gives the verdict."""

    ratios = multipliers and [(a.numerator, a.denominator) for a in multipliers]

    def moves(k: int, drawn: list, d: int) -> set:
        lasts = drawn if multipliers is None else (None,)
        return {_next_multiplier(ratios, k, (last, d)) for last in lasts}

    try:
        if _check_drawn_sets(population, value_fn, k_max, moves).holds:
            return MartingaleCheck(None, sum(perm(population.n, k) for k in range(1, k_max)))
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
        return _check_drawn_sets(pop, ORDER_FREE_VALUES[spec.kind](pop), spec.k_max)
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
    vector martingale on the drawn sets.  Each inverse product is applied
    once, to the formal state: (S_k^2, S_k, T_k, 1) for the quadratic
    basis, which sees a history only through (k, S_k, T_k), and (W_k, S_k)
    with W_k a formal slot for the weighted basis, whose fallback route is
    ``vector_martingale_value`` on every prefix.
    """
    basis = coerce_enum(Basis, basis, "basis")
    ensure_checkable(population.n, cutoff)
    system = build_transition_system(basis, population=population, multipliers=multipliers)
    k_max = system.max_product_index

    def fn(k: int, s: Fraction, t: Fraction):
        state = (s * s, s, t, Fraction(1)) if basis is Basis.QUADRATIC else (_W, s)
        return matrix_vector(system.inverse_product(k), state)

    if basis is Basis.QUADRATIC:
        return _check_drawn_sets(population, fn, k_max)
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
    mtilde = ORDER_FREE_VALUES[MartingaleKind.MTILDE](pop)
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
    library: list[tuple[str, bool, int, Callable]] = [
        # plain running sum: drifts toward 0, no compensation
        ("partial_sum", False, n - 1, lambda k, s, t: s),
        # off-by-one compensation of the running sum
        ("partial_sum_over_remaining_plus_one", False, n - 1,
         lambda k, s, t: s / Fraction(n - k + 1)),
        # the correct compensation (positive control)
        ("partial_sum_over_remaining", True, n - 1, lambda k, s, t: s / Fraction(n - k)),
        # running square sum minus its linear drift: wrong compensator
        ("square_sum_minus_linear_drift", False, n - 1, lambda k, s, t: t - k * b / n),
        # compensated-square martingale shifted by k
        ("compensated_square_plus_k", False, n - 2, lambda k, s, t: mtilde(k, s, t) + k),
    ]
    return CounterexampleReport(tuple(
        CounterexampleEntry(name, expected, _check_drawn_sets(pop, fn, k_max).worst_history)
        for name, expected, k_max, fn in library
    ))
