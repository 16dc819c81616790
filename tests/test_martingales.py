import itertools
import random
from dataclasses import replace
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
        corrupted.append(replace(system, inverse_products=tuple(products)))
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
    pop = make_population(values)
    ws = weights[: pop.n]
    reports = _walker_reports(pop, ws)
    assert reports == _generic_reports(pop, ws)
    assert all(r["holds"] for r in reports)  # every drawn population is centered


def _walk_inputs():
    # Centered populations of n = 3..6 with nonzero multipliers, each with
    # a corruption index j at every depth, so that failures land on the
    # nodes of depth n-3 and on each child of them, which the walker checks
    # in straight-line code, and on the shallower ones it recurses through.
    rng = random.Random(67)
    for n in (3, 4, 4, 5, 5, 5, 6, 6, 6):
        head = [Fraction(rng.randint(-4, 4), rng.choice((1, 2))) for _ in range(n - 1)]
        values = head + [-sum(head, Fraction(0))]
        ws = [Fraction(rng.choice((-3, -2, -1, 1, 2, 3))) for _ in range(n)]
        yield make_population(values), ws, range(1, n)


def _weighted_specs(pop, ws):
    return (
        make_spec(MartingaleKind.WEIGHTED, pop, ws),
        make_spec(MartingaleKind.CHAIN_QUADRATIC, pop),
    )


def _walker_reports(pop, ws):
    """Reports of the walker of the weighted state: both weighted kinds
    and the weighted-basis vector."""
    return [check_martingale(spec).to_dict() for spec in _weighted_specs(pop, ws)] + [
        check_vector_martingale(pop, Basis.WEIGHTED, ws).to_dict()
    ]


def _generic_reports(pop, ws, system=None):
    """The same reports from the generic Fraction walker over prefixes,
    which rebuilds each history from scratch."""
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
    system = replace(system, inverse_products=tuple(products))
    m.setattr(martingales, "weighted_value", wrong)
    m.setattr(martingales, "build_transition_system", lambda *args, **kw: system)
    return system


def test_weighted_walk_matches_generic_route(monkeypatch):
    # The walker's full reports, witness included, must equal the generic
    # route's on holding checks and on failures that depend on W_k, at
    # every depth.
    failures, depths = 0, set()
    for pop, ws, js in _walk_inputs():
        generic = _generic_reports(pop, ws)
        assert _walker_reports(pop, ws) == generic, (pop.values, ws)
        assert all(r["holds"] for r in generic), (pop.values, ws)
        for j in js:
            with monkeypatch.context() as m:
                generic = _generic_reports(pop, ws, _corrupt(m, pop, ws, j))
                assert _walker_reports(pop, ws) == generic, (pop.values, ws, j)
            for r in generic:
                if not r["holds"]:
                    failures += 1
                    depths.add(pop.n - len(r["worst_history"]["prefix"]))
    assert failures >= 20
    assert {2, 3, 4} <= depths


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
    from permartingale.martingales import ORDER_FREE_VALUES, _check_order_free

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
        table = _check_order_free(pop, fn, 1, k_max)
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


def test_weighted_checker_holds_on_seeded_populations():
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
