import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permartingale import (
    Basis,
    DomainError,
    EnumerationLimitError,
    InvalidInputError,
    MartingaleKind,
    PreconditionError,
    build_transition_system,
    check_martingale,
    check_sequence,
    check_vector_martingale,
    counterexample_suite,
    evaluate_prefix,
    make_bridge_population,
    make_population,
    make_spec,
    matrix_vector,
    quadratic_inverse_product,
    random_centered_population,
    vector_martingale_value,
    weighted_second_moment,
    weighted_second_moment_oracle,
)

from conftest import centered_pops

FOUR = make_population([1, -1, 2, -2])


def first_draw_mean(spec):
    """Mean of the martingale at k = 1 over the n equally likely first draws."""
    values = spec.population.values
    return sum(evaluate_prefix(spec, (x,)) for x in values) / len(values)


def test_mtilde_worked_values():
    pop = make_population([2, -1, -1])
    spec = make_spec(MartingaleKind.MTILDE, pop)
    assert evaluate_prefix(spec, (2,)) == 3
    assert evaluate_prefix(spec, (-1,)) == Fraction(-3, 2)
    assert first_draw_mean(spec) == 0


def test_m2_values():
    pop = make_population([1, 2, 4])
    spec = make_spec(MartingaleKind.M2, pop)
    # (n S_k - k M) / (n - k) with M = 7
    assert evaluate_prefix(spec, (1,)) == Fraction(3 * 1 - 7, 2)
    assert evaluate_prefix(spec, (1, 4)) == 3 * 5 - 2 * 7
    centered = make_spec(MartingaleKind.M2, FOUR)
    assert evaluate_prefix(centered, (1, -1)) == 0


def test_m3_values():
    spec = make_spec(MartingaleKind.M3, FOUR)
    # (n T_k - k B) / (n - k) with B = 10
    assert evaluate_prefix(spec, (2,)) == Fraction(4 * 4 - 10, 3)
    assert first_draw_mean(spec) == 0


def test_weighted_with_unit_multipliers_is_m2():
    for pop in centered_pops(4, 5, seed=11) + centered_pops(5, 5, seed=12):
        ones = [1] * pop.n
        w_spec = make_spec(MartingaleKind.WEIGHTED, pop, ones)
        m2_spec = make_spec(MartingaleKind.M2, pop)
        for perm in itertools.permutations(range(1, pop.n + 1)):
            xs = [pop.values[i - 1] for i in perm]
            for k in range(1, pop.n):
                assert evaluate_prefix(w_spec, xs[:k]) == evaluate_prefix(
                    m2_spec, xs[:k]
                )


def test_chain_equals_weighted_with_realized_multipliers():
    for pop in centered_pops(5, 8, seed=13):
        chain = make_spec(MartingaleKind.CHAIN_QUADRATIC, pop)
        for perm in itertools.permutations(range(1, pop.n + 1)):
            xs = [pop.values[i - 1] for i in perm]
            realized = [Fraction(0)] + xs[:-1]
            w_spec = make_spec(MartingaleKind.WEIGHTED, pop, realized)
            for k in range(1, pop.n):
                assert evaluate_prefix(chain, xs[:k]) == evaluate_prefix(
                    w_spec, xs[:k]
                )


def test_m3_is_m2_on_the_squared_population():
    for pop in centered_pops(5, 8, seed=14):
        squared = make_population([v * v for v in pop.values])
        m3 = make_spec(MartingaleKind.M3, pop)
        m2_sq = make_spec(MartingaleKind.M2, squared)
        for perm in itertools.permutations(range(1, pop.n + 1)):
            xs = [pop.values[i - 1] for i in perm]
            for k in range(1, pop.n):
                assert evaluate_prefix(m3, xs[:k]) == evaluate_prefix(
                    m2_sq, [v * v for v in xs[:k]]
                )


def test_quadratic_vector_first_coordinate_is_scaled_mtilde():
    for pop in centered_pops(5, 8, seed=15):
        system = build_transition_system(Basis.QUADRATIC, population=pop)
        spec = make_spec(MartingaleKind.MTILDE, pop)
        n = pop.n
        for perm in itertools.permutations(range(1, n + 1)):
            xs = [pop.values[i - 1] for i in perm]
            for k in range(1, n - 1):
                vec = vector_martingale_value(system, xs[:k])
                assert vec[0] == n * evaluate_prefix(spec, xs[:k])
                assert vec[-1] == 1


def test_make_spec_validation():
    with pytest.raises(InvalidInputError):
        make_spec(MartingaleKind.WEIGHTED, FOUR)
    with pytest.raises(InvalidInputError):
        make_spec(MartingaleKind.WEIGHTED, FOUR, [1, 2])
    with pytest.raises(InvalidInputError, match="chain"):
        make_spec(MartingaleKind.CHAIN_QUADRATIC, FOUR, [1, 2, 3, 4])
    with pytest.raises(InvalidInputError):
        make_spec(MartingaleKind.M2, FOUR, [1, 1, 1, 1])
    with pytest.raises(PreconditionError):
        make_spec(MartingaleKind.MTILDE, make_population([1, 2]))
    with pytest.raises(DomainError):
        make_spec(MartingaleKind.MTILDE, make_population([1, -1]))
    with pytest.raises(InvalidInputError):
        make_spec("no_such_kind", FOUR)


def test_evaluate_range_and_population_checks():
    spec = make_spec(MartingaleKind.MTILDE, FOUR)
    with pytest.raises(DomainError, match="divide"):
        evaluate_prefix(spec, (1, -1, 2))
    with pytest.raises(DomainError):
        evaluate_prefix(spec, ())
    # a value outside the spec's population is never a history of it
    with pytest.raises(InvalidInputError, match="value 3 is not among"):
        evaluate_prefix(spec, (3,))


def test_check_martingale_holds_for_every_kind():
    rng = random.Random(21)
    for n in (3, 4, 6):
        pop = random_centered_population(n, rng)
        for kind in (
            MartingaleKind.M2,
            MartingaleKind.M3,
            MartingaleKind.MTILDE,
            MartingaleKind.CHAIN_QUADRATIC,
        ):
            assert check_martingale(make_spec(kind, pop)).holds, (kind, n)
        ws = [
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)
        ]
        spec = make_spec(MartingaleKind.WEIGHTED, pop, ws)
        assert check_martingale(spec).holds


def test_check_martingale_counts_checked_histories():
    assert check_martingale(make_spec(MartingaleKind.MTILDE, FOUR)).states_checked == 4
    # ordered checks visit length-1 and length-2 prefixes: 4 + 12
    chain = make_spec(MartingaleKind.CHAIN_QUADRATIC, FOUR)
    assert check_martingale(chain).states_checked == 16
    # a holding check of the weighted state certifies every prefix of
    # length 1..n-2, however few drawn sets it took: sum of n!/(n-k)!
    rng = random.Random(23)
    for n in range(3, 10):
        pop = random_centered_population(n, rng)
        ws = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
        histories = sum(
            math.factorial(n) // math.factorial(n - k) for k in range(1, n - 1)
        )
        checks = [
            check_martingale(make_spec(MartingaleKind.WEIGHTED, pop, ws)),
            check_martingale(make_spec(MartingaleKind.CHAIN_QUADRATIC, pop)),
            check_vector_martingale(pop, Basis.WEIGHTED, ws),
        ]
        assert [(c.holds, c.states_checked) for c in checks] == [(True, histories)] * 3


def test_weighted_checks_visit_every_state_of_the_drawn_set_graph(monkeypatch):
    # One a_{k+1} per state: a drawn set of size 1..n-2 for a fixed
    # multiplier (1,012 at n=10), and for the chain a set with each of its
    # draws as the last (5,020 at n=10), so no history goes unchecked.  A
    # call past the expected count fails at once: a checker that fell back
    # to the ordered walk would ask at each of millions of prefixes.
    from permartingale import martingales

    asked = 0
    states = 0
    rule = martingales._next_multiplier

    def counted(*args):
        nonlocal asked
        asked += 1
        assert asked <= states, f"more than {states} states asked for a_(k+1)"
        return rule(*args)

    monkeypatch.setattr(martingales, "_next_multiplier", counted)
    pop = random_centered_population(10, random.Random(29))
    assert len(set(pop.values)) == 10
    ws = [Fraction(k % 3 - 1, 2) for k in range(10)]
    for check, states in (
        (lambda: check_martingale(make_spec(MartingaleKind.WEIGHTED, pop, ws)), 1012),
        (lambda: check_vector_martingale(pop, Basis.WEIGHTED, ws), 1012),
        (lambda: check_martingale(make_spec(MartingaleKind.CHAIN_QUADRATIC, pop)), 5020),
    ):
        asked = 0
        assert check().holds
        assert asked == states


def test_check_vector_martingale_both_bases():
    assert check_vector_martingale(FOUR, Basis.QUADRATIC).holds
    assert check_vector_martingale(
        FOUR, Basis.WEIGHTED, [1, -2, Fraction(1, 3), 0]
    ).holds


def test_corrupted_evaluator_fails_with_witness():
    pop = FOUR
    n, b = pop.n, pop.square_sum

    def shifted_mtilde(prefix):
        k = len(prefix)
        s = sum(prefix, Fraction(0))
        t = sum((v * v for v in prefix), Fraction(0))
        return ((n - 1) * s * s - k * (b - t)) / Fraction(
            (n - k) * (n - k - 1)
        ) + k

    check = check_sequence(pop, shifted_mtilde, 1, n - 2)
    assert not check.holds
    w = check.worst_history
    assert w is not None
    assert w.value != w.conditional_mean
    assert len(w.prefix) == w.k
    d = w.to_dict()
    assert set(d) == {"prefix", "k", "value", "conditional_mean"}


@pytest.mark.parametrize("route", ["ordered", "drawn_set"])
@pytest.mark.parametrize("of_k, value, mean", [
    # an evaluator of k alone, its value at the first history (1,) of
    # FOUR and the exact mean over that history's three extensions
    (lambda k: k, "1", "2"),
    (lambda k: (k, 0), ["1", "0"], ["2", "0"]),
    (lambda k: 10**400 * k, str(10**400), str(2 * 10**400)),
], ids=["int", "tuple", "int past float range"])
def test_witness_means_of_integer_evaluators_are_exact(route, of_k, value, mean):
    from permartingale.martingales import _check_drawn_sets

    if route == "ordered":
        check = check_sequence(FOUR, lambda p: of_k(len(p)), 1, 3)
    else:
        check = _check_drawn_sets(FOUR, lambda k, s, t: of_k(k), 1, 3)
    w = check.worst_history
    assert w.to_dict() == {"prefix": ["1"], "k": 1, "value": value, "conditional_mean": mean}
    means = w.conditional_mean if isinstance(w.conditional_mean, tuple) else (w.conditional_mean,)
    assert all(type(m) is Fraction for m in means)


def test_check_martingale_certifies_the_evaluator_it_returns(monkeypatch):
    # a typo in an order-free closed form must reach both evaluate_prefix
    # and the exhaustive check, since both read the one value table
    from permartingale import martingales

    def wrong_m2(pop):
        n, m = pop.n, pop.total
        return lambda k, s, t: Fraction(n * s - k * m, n - k + 1)

    spec = make_spec(MartingaleKind.M2, FOUR)
    right = evaluate_prefix(spec, (2,))
    monkeypatch.setitem(martingales.ORDER_FREE_VALUES, MartingaleKind.M2, wrong_m2)
    assert evaluate_prefix(spec, (2,)) != right
    check = check_martingale(spec)
    assert not check.holds and check.worst_history is not None


def test_check_martingale_certifies_the_weighted_definition(monkeypatch):
    # a typo in the one weighted definition must reach evaluate_prefix, the
    # ordered check of both kinds and the moment oracle
    from permartingale import martingales

    def wrong(n):
        return lambda k, s, w, alpha: (n - k) * w + alpha * s + k

    ws = [1, -2, Fraction(1, 3), 0]
    specs = [
        make_spec(MartingaleKind.WEIGHTED, FOUR, ws),
        make_spec(MartingaleKind.CHAIN_QUADRATIC, FOUR),
    ]
    right = [evaluate_prefix(spec, (2, -1)) for spec in specs]
    moment = weighted_second_moment(FOUR, ws, 2)
    assert weighted_second_moment_oracle(FOUR, ws, 2) == moment
    monkeypatch.setattr(martingales, "weighted_value", wrong)
    for spec, value in zip(specs, right):
        assert evaluate_prefix(spec, (2, -1)) != value
        check = check_martingale(spec)
        assert not check.holds and check.worst_history is not None, spec.kind
    assert weighted_second_moment_oracle(FOUR, ws, 2) != moment


def test_weighted_vector_check_certifies_the_inverse_products(monkeypatch):
    from permartingale import martingales

    ws = [1, -2, Fraction(1, 3), 0]
    build = martingales.build_transition_system
    corrupted = []

    def build_corrupted(*args, **kwargs):
        system = build(*args, **kwargs)
        products = list(system.inverse_products)
        (a, b), row = products[1]
        products[1] = ((a, b + Fraction(1, 7)), row)
        corrupted.append(system._replace(inverse_products=tuple(products)))
        return corrupted[-1]

    assert check_vector_martingale(FOUR, Basis.WEIGHTED, ws).holds
    monkeypatch.setattr(martingales, "build_transition_system", build_corrupted)
    check = check_vector_martingale(FOUR, Basis.WEIGHTED, ws)
    w = check.worst_history
    assert not check.holds and w is not None
    # the witness is the corrupted product applied to the witness history
    assert w.value == vector_martingale_value(corrupted[0], w.prefix)
    assert w.value != w.conditional_mean


def test_check_sequence_validation():
    with pytest.raises(InvalidInputError):
        check_sequence(FOUR, lambda p: Fraction(0), 3, 1)
    big = make_population([1] * 10 + [-10])
    with pytest.raises(EnumerationLimitError):
        check_sequence(big, lambda p: Fraction(0), 1, 2)


centered_rationals = st.lists(
    st.fractions(min_value=-5, max_value=5, max_denominator=4),
    min_size=1,
    max_size=5,
).map(lambda head: head + [-sum(head, Fraction(0))])


@settings(max_examples=25, deadline=None)
@given(
    values=centered_rationals,
    weights=st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=3),
        min_size=6,
        max_size=6,
    ),
)
def test_weighted_checker_agrees_with_generic_route(values, weights):
    # the independent route: the generic walk over every prefix
    pop = make_population(values)
    ws = weights[: pop.n]
    reports = _slot_reports(pop, ws)
    assert reports == _generic_reports(pop, ws)
    assert all(r["holds"] for r in reports)  # every drawn population is centered


def _walk_inputs(max_n=8):
    # Centered populations of n = 3..8, of p/q values or of repeated
    # values, with p/q multipliers that are zero about one time in four.
    # Each comes with the indices j at which a corruption is placed: every
    # k = 1..n-1 up to n = 7, and at n = 8, where one generic walk of a
    # holding check takes seconds, k = 2 and the last.
    rng = random.Random(67)
    for n, repeated in ((3, False), (4, False), (4, True), (5, False), (5, True),
                        (6, False), (6, True), (7, False), (7, True), (8, True)):
        if n > max_n:
            continue
        if repeated:
            head = [Fraction(rng.choice((-2, -1, 1, 3))) for _ in range(n - 1)]
        else:
            head = [Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))) for _ in range(n - 1)]
        values = head + [-sum(head, Fraction(0))]
        ws = [Fraction(rng.choice((-3, 0, 1, 2)), rng.choice((1, 2))) for _ in range(n)]
        yield make_population(values), ws, range(1, n) if n < 8 else (2, n - 1)


def _weighted_specs(pop, ws):
    return (
        make_spec(MartingaleKind.WEIGHTED, pop, ws),
        make_spec(MartingaleKind.CHAIN_QUADRATIC, pop),
    )


def _slot_reports(pop, ws):
    """Reports of the drawn-set check with W_k and A_k in formal slots
    (and of its fallback walk on a failure): both weighted kinds and the
    weighted-basis vector."""
    return [check_martingale(spec).to_dict() for spec in _weighted_specs(pop, ws)] + [
        check_vector_martingale(pop, Basis.WEIGHTED, ws).to_dict()
    ]


def _generic_reports(pop, ws, system=None):
    """The independent route: the same reports from the generic Fraction
    walker over prefixes, which rebuilds each history from scratch."""
    n = pop.n
    reports = [
        check_sequence(pop, lambda p, spec=spec: evaluate_prefix(spec, p), 1, n - 1)
        for spec in _weighted_specs(pop, ws)
    ]
    if system is None:
        system = build_transition_system(Basis.WEIGHTED, population=pop, multipliers=ws)
    reports.append(
        check_sequence(
            pop,
            lambda p: vector_martingale_value(system, p),
            1,
            n - 1,
        )
    )
    return [r.to_dict() for r in reports]


def _corrupt(m, pop, ws, j):
    """Patch faults that depend on W_k: the weighted definition doubles
    at k = j where W_k > 0, and the W_k column of the vector's j-th
    inverse product is shifted.  Returns the corrupted system."""
    from permartingale import martingales

    right = martingales.weighted_value

    def wrong(n):
        f = right(n)
        return lambda k, s, w, a: f(k, s, w, a) * (2 if k == j and w > 0 else 1)

    system = build_transition_system(Basis.WEIGHTED, population=pop, multipliers=ws)
    products = list(system.inverse_products)
    (a, b), row = products[j - 1]
    products[j - 1] = ((a + Fraction(1, 7), b), row)
    system = system._replace(inverse_products=tuple(products))
    m.setattr(martingales, "weighted_value", wrong)
    m.setattr(martingales, "build_transition_system", lambda *args, **kw: system)
    return system


def test_weighted_walk_matches_generic_route(monkeypatch):
    # The independent route: the full reports of the drawn-set check with
    # formal slots, witness included, must equal the generic walk's on
    # holding checks and on failures that depend on W_k, at every depth.
    failures, depths = 0, set()
    for pop, ws, js in _walk_inputs():
        generic = _generic_reports(pop, ws)
        assert _slot_reports(pop, ws) == generic, (pop.values, ws)
        assert all(r["holds"] for r in generic), (pop.values, ws)
        for j in js:
            with monkeypatch.context() as m:
                generic = _generic_reports(pop, ws, _corrupt(m, pop, ws, j))
                assert _slot_reports(pop, ws) == generic, (pop.values, ws, j)
            for r in generic:
                if not r["holds"]:
                    failures += 1
                    depths.add(pop.n - len(r["worst_history"]["prefix"]))
    assert failures >= 60
    assert {2, 3, 4, 5, 6} <= depths


# Mutations of the one weighted definition, each wrapping the right one
# and reading W_k and A_k only to add and scale them: the drawn-set check
# must see each in the slots, and its fallback walk must report the
# generic route's witness.
_MUTATIONS = {
    # a wrong coefficient of W_k at k = j
    "w_coefficient": (
        (MartingaleKind.WEIGHTED, MartingaleKind.CHAIN_QUADRATIC),
        lambda f, ws, j: lambda k, s, w, a: f(k, s, 2 * w if k == j else w, a),
    ),
    # A_k one term too long at k = j: a_1 + ... + a_{k+1}
    "a_off_by_one_term": (
        (MartingaleKind.WEIGHTED,),
        lambda f, ws, j: lambda k, s, w, a: f(k, s, w, a + ws[k] if k == j else a),
    ),
    # the chain's multipliers taken from the next draw, a_i = X_i, so that
    # A_k = S_k at k = j rather than S_{k-1}
    "chain_multiplier_from_next_draw": (
        (MartingaleKind.CHAIN_QUADRATIC,),
        lambda f, ws, j: lambda k, s, w, a: f(k, s, w, s if k == j else a),
    ),
}


@pytest.mark.parametrize("mutation", sorted(_MUTATIONS))
def test_mutated_weighted_definitions_fail_with_the_generic_witness(monkeypatch, mutation):
    from permartingale import martingales

    kinds, mutate = _MUTATIONS[mutation]
    right = martingales.weighted_value
    failures = 0
    for pop, ws, js in _walk_inputs(max_n=6):
        for j in js:
            with monkeypatch.context() as m:
                m.setattr(martingales, "weighted_value",
                          lambda n, j=j: mutate(right(n), ws, j))
                for kind in kinds:
                    spec = make_spec(kind, pop, ws if kind is MartingaleKind.WEIGHTED else None)
                    report = check_martingale(spec).to_dict()
                    generic = check_sequence(
                        pop, lambda p: evaluate_prefix(spec, p), 1, pop.n - 1
                    ).to_dict()
                    assert report == generic, (pop.values, ws, j, kind)
                    failures += not report["holds"]
    assert failures >= 20


_NOT_ADD_AND_SCALE = {
    "multiply": lambda w, a: 0 * (w * w),
    "multiply_by_a": lambda w, a: 0 * (a * w),
    "power": lambda w, a: 0 * w**2,
    "compare": lambda w, a: 0 if w > 0 else 0,
    "equal": lambda w, a: 0 if w == 0 else 0,
    "truth": lambda w, a: 0 if w else 0,
    "abs": lambda w, a: 0 * abs(w),
    "hash": lambda w, a: 0 * hash(w),
    "attribute": lambda w, a: 0 * w.numerator,
}


@pytest.mark.parametrize("op", sorted(_NOT_ADD_AND_SCALE))
def test_an_evaluator_that_does_more_than_add_and_scale_reaches_the_generic_route(
    monkeypatch, op
):
    # The slots refuse the operation; the generic walk then gives the
    # verdict, here of a right value with a zero term that touches W_k,
    # and, with the term made nonzero at k = 2, the generic witness.
    from permartingale import martingales

    walks = []
    walk = martingales._check_ordered
    monkeypatch.setattr(
        martingales, "_check_ordered", lambda *args: walks.append(args) or walk(*args)
    )
    right, touch = martingales.weighted_value, _NOT_ADD_AND_SCALE[op]
    pop, ws = FOUR, [1, -2, Fraction(1, 3), 0]
    for shift in (0, 1):
        monkeypatch.setattr(
            martingales, "weighted_value",
            lambda n: lambda k, s, w, a: (
                right(n)(k, s, w, a) + touch(w, a) + (shift if k == 2 else 0)
            ),
        )
        for kind in (MartingaleKind.WEIGHTED, MartingaleKind.CHAIN_QUADRATIC):
            spec = make_spec(kind, pop, ws if kind is MartingaleKind.WEIGHTED else None)
            report = check_martingale(spec)
            generic = check_sequence(pop, lambda p: evaluate_prefix(spec, p), 1, pop.n - 1)
            assert report == generic and report.holds is (shift == 0), (op, kind, shift)
    assert len(walks) == 8  # every check, as well as each check_sequence


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(
        st.fractions(min_value=-5, max_value=5, max_denominator=3),
        min_size=3,
        max_size=6,
    ),
    centered=st.booleans(),
    shift=st.tuples(st.integers(min_value=1, max_value=4),
                    st.sampled_from([-1, Fraction(1, 2), 3])),
)
def test_drawn_set_checker_agrees_with_check_sequence(values, centered, shift):
    # the walker over the drawn-set table against the generic Fraction
    # walker over ordered prefixes; uncentered populations make mtilde fail
    from permartingale.martingales import ORDER_FREE_VALUES, _check_drawn_sets

    if centered:
        values = values[:-1] + [-sum(values[:-1], Fraction(0))]
    pop = make_population(values)
    n = pop.n
    j, c = shift
    m2, m3, mtilde = (
        ORDER_FREE_VALUES[kind](pop)
        for kind in (MartingaleKind.M2, MartingaleKind.M3, MartingaleKind.MTILDE)
    )
    for fn, k_max in (
        (m2, n - 1),
        (m3, n - 1),
        (mtilde, n - 2),
        (lambda k, s, t: mtilde(k, s, t) + (c if k == j else 0), n - 2),
    ):
        table = _check_drawn_sets(pop, fn, 1, k_max)
        generic = check_sequence(
            pop,
            lambda prefix: fn(
                len(prefix),
                sum(prefix, Fraction(0)),
                sum((x * x for x in prefix), Fraction(0)),
            ),
            1,
            k_max,
        )
        assert table.holds == generic.holds, (values, k_max)
        w = table.worst_history
        if table.holds:
            assert w is None
            continue
        assert w.value != w.conditional_mean
        assert len(w.prefix) == w.k
        s = sum(w.prefix, Fraction(0))
        assert w.value == fn(w.k, s, sum((x * x for x in w.prefix), Fraction(0)))


def _grid_populations(n, rng):
    # centered p/q values, repeated values, +-1 values and 1/p for
    # distinct primes p, whose layers' common denominators grow large
    primes = (2, 3, 5, 7, 11, 13, 17)
    heads = (
        [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n - 1)],
        [Fraction(rng.choice((-2, -1, 1, 3))) for _ in range(n - 1)],
        [Fraction(rng.choice((-1, 1))) for _ in range(n - 1)],
        [Fraction(rng.choice((-1, 1)), p) for p in primes[: n - 1]],
    )
    for head in heads:
        yield make_population(head + [-sum(head, Fraction(0))])


def _table_reference(pop, fn, k_min, k_max, slots=None):
    """The independent route: each drawn set's value recomputed from its
    items and its extensions' values summed as Fractions, set by set in
    lexicographic order.  With ``slots`` (the multipliers, or "chain")
    values are forms in W_k and A_k, and each a_{k+1} must carry the
    extensions' forms, shifted by a (x c1 + c2), to the set's."""
    from permartingale.martingales import MartingaleCheck, MartingaleViolation, _Form

    n, xs = pop.n, pop.values

    def value(items):
        drawn = [xs[i] for i in items]
        return fn(len(drawn), sum(drawn, Fraction(0)), sum((x * x for x in drawn), Fraction(0)))

    def terms(v):
        if isinstance(v, tuple):
            return [c for x in v for c in terms(x)]
        return [v.terms.get((u, 0, 0), 0) for u in range(3)] if isinstance(v, _Form) else [v, 0, 0]

    sets = sorted(c for k in range(k_min, k_max) for c in itertools.combinations(range(n), k))
    for states, items in enumerate(sets, start=1):
        k, kids = len(items), [i for i in range(n) if i not in items]
        rows = [(xs[i], terms(value(tuple(sorted(items + (i,)))))) for i in kids]
        target = [(n - k) * c for c in terms(value(items))]
        moves = ({0} if slots is None else {xs[i] for i in items} if slots == "chain"
                 else {slots[k]})
        for a in moves:
            got = [sum(r[j] + (a * (x * r[j + 1] + r[j + 2]) if j % 3 == 0 else 0)
                       for x, r in rows) for j in range(len(target))]
            if got != target:
                kid_values = [value(tuple(sorted(items + (i,)))) for i in kids]
                mean = (tuple(sum(c) / Fraction(n - k) for c in zip(*kid_values))
                        if isinstance(kid_values[0], tuple) else sum(kid_values) / Fraction(n - k))
                witness = tuple(xs[i] for i in items)
                return MartingaleCheck(MartingaleViolation(witness, value(items), mean), states)
    return MartingaleCheck(None, len(sets))


def _valid_witness(w, pop, prefix_value):
    # the evaluator at the witness, and the average of its extensions,
    # recomputed coordinatewise from the prefix and the items it leaves
    def vec(v):
        return tuple(v) if isinstance(v, tuple) else (v,)

    rest = list(pop.values)
    for x in w.prefix:
        rest.remove(x)
    kids = [vec(prefix_value((*w.prefix, x))) for x in rest]
    mean = tuple(sum(c) / len(rest) for c in zip(*kids))
    value, conditional_mean = vec(w.value), vec(w.conditional_mean)
    return value == vec(prefix_value(w.prefix)) != conditional_mean == mean


def test_integer_drawn_set_checker_against_the_exact_routes_on_a_seeded_grid(monkeypatch):
    # Every drawn-set check, recorded as it runs inside the public checks,
    # against the Fraction-table reference above; every public verdict
    # against check_sequence (the ordered walk) up to n = 6; and every
    # witness against the evaluator it names.
    from permartingale import martingales
    from permartingale.martingales import ORDER_FREE_VALUES, _check_drawn_sets

    calls = []

    def record(*args):
        calls.append((args, _check_drawn_sets(*args)))
        return calls[-1][1]

    monkeypatch.setattr(martingales, "_check_drawn_sets", record)
    rng = random.Random(19)
    right = martingales.weighted_value
    failures = slot_failures = 0
    for n in range(3, 9):
        for pop in _grid_populations(n, rng):
            ws = [Fraction(rng.choice((-3, 0, 1, 2)), rng.choice((1, 2, 7))) for _ in range(n)]
            # (patch, slots, k_max, the check, the evaluator on a prefix)
            checks = []
            slot_kinds = {MartingaleKind.WEIGHTED: ws, MartingaleKind.CHAIN_QUADRATIC: "chain"}
            for kind in MartingaleKind:
                spec = make_spec(kind, pop, ws if kind is MartingaleKind.WEIGHTED else None)
                patches = [None]
                if kind in slot_kinds and n <= 6:
                    patches += [
                        lambda m, j=j, mutate=mutate: m.setattr(
                            martingales, "weighted_value",
                            lambda n: mutate(right(n), ws, j))
                        for kinds, mutate in _MUTATIONS.values() if kind in kinds
                        for j in range(1, n)
                    ]
                checks += [(patch, slot_kinds.get(kind), spec.k_max,
                            lambda spec=spec: check_martingale(spec),
                            lambda p, spec=spec: evaluate_prefix(spec, p))
                           for patch in patches]
            for basis, basis_ws in ((Basis.WEIGHTED, ws), (Basis.QUADRATIC, None)):
                system = build_transition_system(basis, population=pop, multipliers=basis_ws)
                checks.append((None, basis_ws, system.max_product_index,
                               lambda b=basis, w=basis_ws: check_vector_martingale(pop, b, w),
                               lambda p, s=system: vector_martingale_value(s, p)))
            mtilde = ORDER_FREE_VALUES[MartingaleKind.MTILDE](pop)
            for j in range(1, n - 1):
                def shifted(k, s, t, j=j):
                    return mtilde(k, s, t) + (1 if k == j else 0)
                checks.append((None, None, n - 2,
                               lambda f=shifted: _check_drawn_sets(pop, f, 1, n - 2),
                               lambda p, f=shifted: f(len(p), sum(p, Fraction(0)),
                                                      sum((x * x for x in p), Fraction(0)))))
            for patch, slots, k_max, run, prefix_value in checks:
                with monkeypatch.context() as m:
                    if patch is not None:
                        patch(m)
                    calls.clear()
                    report = run()
                    for args, result in calls:
                        reference = _table_reference(*args[:4], slots)
                        if slots is None:
                            assert result == reference, (pop.values, args[2:4])
                        else:  # a failing slot check gives no witness
                            assert result.holds == reference.holds, (pop.values, slots)
                            slot_failures += not result.holds
                    if n <= 6:
                        generic = check_sequence(pop, prefix_value, 1, k_max)
                        assert report.holds == generic.holds, (pop.values, k_max)
                    if not report.holds:
                        failures += 1
                        assert _valid_witness(report.worst_history, pop, prefix_value)
    assert failures >= 100 and slot_failures >= 100, (failures, slot_failures)
    # the negative controls, recorded the same way
    for n in range(4, 9):
        for pop in _grid_populations(n, rng):
            calls.clear()
            try:
                counterexample_suite(pop)
            except PreconditionError:
                continue
            assert len(calls) == 5
            for args, result in calls:
                assert result == _table_reference(*args), (pop.values, args[2:])


def test_the_slot_identity_must_hold_for_every_move():
    # W_k alone drifts by a_{k+1} (M - S_k) per step: on a centered
    # population the identity holds for a = 0 and fails for a = 1, so a
    # set must fail when either of its moves is a = 1, in either order
    from permartingale.martingales import _W, _check_drawn_sets

    for moves, holds in (([(0, 1)], True), ([(0, 1), (1, 1)], False),
                         ([(1, 1), (0, 1)], False), ([(0, 5), (3, 7), (0, 1)], False)):
        check = _check_drawn_sets(FOUR, lambda k, s, t: _W, 1, 3, lambda k, drawn, d: moves)
        assert check.holds is holds, moves


def test_order_free_checks_evaluate_each_layer_once(monkeypatch):
    # A holding order-free check runs its evaluator once per layer k, on
    # formal S_k and T_k, and the quadratic vector check asks for each
    # inverse product once: not once per drawn set, of which n=10 has
    # 1,012.  A call past the bound fails at once, so a checker that went
    # back to one call per set cannot run on.
    from permartingale import construction, martingales

    calls = bound = 0

    def counted(fn):
        def call(*args):
            nonlocal calls
            calls += 1
            assert calls <= bound, f"more than {bound} calls, one per layer"
            return fn(*args)
        return call

    pop = random_centered_population(10, random.Random(29))
    for kind, states in ((MartingaleKind.M2, 1012), (MartingaleKind.M3, 1012),
                         (MartingaleKind.MTILDE, 967)):
        factory = martingales.ORDER_FREE_VALUES[kind]
        monkeypatch.setitem(martingales.ORDER_FREE_VALUES, kind,
                            lambda p, factory=factory: counted(factory(p)))
        spec = make_spec(kind, pop)
        calls, bound = 0, spec.k_max
        check = check_martingale(spec)
        assert check.holds and check.states_checked == states and calls == bound, kind
    system = construction.TransitionSystem
    monkeypatch.setattr(system, "inverse_product", counted(system.inverse_product))
    calls, bound = 0, 8
    check = check_vector_martingale(pop, Basis.QUADRATIC)
    assert check.holds and check.states_checked == 967 and calls == bound


# Order-free evaluators that the formal values refuse, as a factory of
# (population, m2) -> evaluator: each branches on S_k or builds a
# Fraction from it.  Those marked True are martingales.
_REFUSED_BY_FORMS = {
    "abs_times_zero": (True, lambda pop, m2: lambda k, s, t: m2(k, s, t) + 0 * abs(s)),
    "abs": (False, lambda pop, m2: lambda k, s, t: abs(s)),
    "branch": (False, lambda pop, m2: lambda k, s, t: m2(k, s, t) + (k == 2 and s > 0)),
    "fraction": (True, lambda pop, m2: lambda k, s, t: Fraction(
        pop.n * s - k * pop.total, pop.n - k)),
    "fraction_off_by_one": (False, lambda pop, m2: lambda k, s, t: Fraction(
        pop.n * s - k * pop.total, pop.n - k + 1)),
}


@pytest.mark.parametrize("name", sorted(_REFUSED_BY_FORMS))
def test_an_order_free_evaluator_the_forms_refuse_gets_the_ordered_verdict(monkeypatch, name):
    # The formal call raises _NotAffine or TypeError, and the drawn-set
    # check hands the evaluator to the ordered walk, whose verdict
    # check_sequence gives too; a failure's witness is the evaluator's.
    from permartingale import martingales
    from permartingale.martingales import ORDER_FREE_VALUES, _check_drawn_sets

    walks = []
    walk = martingales._check_ordered
    monkeypatch.setattr(
        martingales, "_check_ordered", lambda *args: walks.append(args) or walk(*args)
    )
    martingale, factory = _REFUSED_BY_FORMS[name]
    rng, failures = random.Random(53), 0
    for n in range(3, 7):
        head = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n - 1)]
        for pop in [*_grid_populations(n, rng), make_population(head + [1 - sum(head)])]:
            fn = factory(pop, ORDER_FREE_VALUES[MartingaleKind.M2](pop))

            def prefix_value(p, fn=fn):
                return fn(len(p), sum(p, Fraction(0)), sum((x * x for x in p), Fraction(0)))

            walks.clear()
            check = _check_drawn_sets(pop, fn, 1, n - 1)
            assert len(walks) == 1
            generic = check_sequence(pop, prefix_value, 1, n - 1)
            assert check.holds == generic.holds, (name, pop.values)
            if not check.holds:
                failures += 1
                assert _valid_witness(check.worst_history, pop, prefix_value)
    assert failures == 0 if martingale else failures >= 10


def test_quadratic_inverse_product_rows_are_the_order_free_closed_forms():
    # Read off the paper's construction, one polynomial identity per k:
    # the quadratic inverse product applied to the formal state
    # (S_k^2, S_k, T_k, 1) is M2 in row 2 and M3 in row 3, and on a
    # centered population n times MTILDE in row 1, term by term.
    from permartingale.martingales import ORDER_FREE_VALUES, _S, _T

    rng = random.Random(59)
    compared = {True: 0, False: 0}
    for n in range(4, 9):
        head = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n - 1)]
        for pop in [*_grid_populations(n, rng), make_population(head + [1 - sum(head)])]:
            m2, m3, mtilde = (ORDER_FREE_VALUES[kind](pop) for kind in (
                MartingaleKind.M2, MartingaleKind.M3, MartingaleKind.MTILDE))
            for k in range(1, n - 1):
                product = quadratic_inverse_product(n, pop.total, pop.square_sum, k)
                rows = matrix_vector(product, (_S * _S, _S, _T, 1))
                assert rows[1].terms == m2(k, _S, _T).terms, (pop.values, k)
                assert rows[2].terms == m3(k, _S, _T).terms, (pop.values, k)
                assert rows[3] == 1
                if pop.is_centered:
                    assert rows[0].terms == (n * mtilde(k, _S, _T)).terms, (pop.values, k)
                compared[pop.is_centered] += 1
    assert compared == {True: 4 * 20, False: 20}


def test_weighted_checker_holds_on_seeded_populations():
    # the independent route: the generic walk over every prefix
    rng = random.Random(31)
    for _ in range(5):
        pop = random_centered_population(5, rng)
        ws = [
            Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            for _ in range(pop.n)
        ]
        spec = make_spec(MartingaleKind.WEIGHTED, pop, ws)
        fast = check_martingale(spec)
        generic = check_sequence(
            pop,
            lambda prefix: evaluate_prefix(spec, prefix),
            1,
            pop.n - 1,
        )
        assert fast.holds == generic.holds == True  # noqa: E712
        assert fast.states_checked == generic.states_checked


def test_first_draw_mean_is_zero_for_all_kinds():
    rng = random.Random(41)
    for n in (4, 6):
        pop = random_centered_population(n, rng)
        for kind in (
            MartingaleKind.M2,
            MartingaleKind.M3,
            MartingaleKind.MTILDE,
            MartingaleKind.CHAIN_QUADRATIC,
        ):
            assert first_draw_mean(make_spec(kind, pop)) == 0
        ws = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        assert first_draw_mean(make_spec(MartingaleKind.WEIGHTED, pop, ws)) == 0


def test_counterexample_suite_default_library():
    report = counterexample_suite()
    assert report.ok
    by_name = {e.name: e for e in report.entries}
    assert set(by_name) == {
        "partial_sum",
        "partial_sum_over_remaining_plus_one",
        "partial_sum_over_remaining",
        "square_sum_minus_linear_drift",
        "compensated_square_plus_k",
    }
    assert by_name["partial_sum_over_remaining"].holds
    assert by_name["partial_sum_over_remaining"].witness is None
    for name, entry in by_name.items():
        if name != "partial_sum_over_remaining":
            assert not entry.holds
            assert entry.witness is not None
    assert report.to_dict()["ok"] is True


def test_counterexample_suite_rejects_degenerate_populations():
    with pytest.raises(PreconditionError):
        counterexample_suite(make_population([2, -1, -1]))
    with pytest.raises(PreconditionError):
        counterexample_suite(make_bridge_population(3))
    with pytest.raises(PreconditionError):
        counterexample_suite(make_population([1, 2, 3, 4]))


def test_counterexample_suite_on_a_custom_population():
    pop = make_population([3, -1, -1, -1, 0])
    assert counterexample_suite(pop).ok


def test_counterexample_suite_refuses_above_the_cutoff():
    pop = make_population([1, -1, 2, -2, 3, -3, 4, -4, 5, -5, 0])
    with pytest.raises(EnumerationLimitError, match="size 11, above the cutoff 10"):
        counterexample_suite(pop)
    assert vars(pop) == {"values": pop.values}  # refused before any sum is read
    assert counterexample_suite(pop, cutoff=11).ok


def test_martingale_identity_spot_check_by_hand():
    # A direct one-step average, independent of the checker machinery.
    spec = make_spec(MartingaleKind.MTILDE, FOUR)
    children = [evaluate_prefix(spec, (2, x)) for x in (1, -1, -2)]
    assert sum(children, Fraction(0)) / len(children) == evaluate_prefix(spec, (2,))
