import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from permartingale import (
    Basis,
    DEFAULT_ENUMERATION_CUTOFF,
    EnumerationLimitError,
    InvalidInputError,
    MAX_ENUMERATION_CUTOFF,
    PreconditionError,
    bridge_parameter,
    build_transition_system,
    evaluate_prefix,
    load_population,
    make_bridge_population,
    make_population,
    make_spec,
    mean_over_ordered_draws,
    mean_over_subsets,
    random_centered_population,
    validate_permutation,
    verify,
)
from permartingale.population import drawn_prefix, ensure_enumerable, resolve_cutoff

from conftest import pop_file
from independent_routes import mean_over_orderings


def test_population_power_sums():
    pop = make_population([1, -1, 2, -2])
    assert pop.n == 4
    assert pop.total == 0
    assert pop.square_sum == 10
    assert pop.fourth_sum == 34
    assert pop.is_centered


def test_population_sums_are_computed_on_first_read():
    pop = make_population([1, -1, 2, -2])
    assert vars(pop) == {"values": pop.values}
    verify("max_averages", pop, mode="exact")
    verify("max_averages", pop, mode="mc", samples=64, seed=3)
    assert vars(pop)["square_sum"] == 10
    assert "fourth_sum" not in vars(pop)
    # an oversized exact run is refused before it reads any sum
    big = make_population(range(11))
    with pytest.raises(EnumerationLimitError, match="above the cutoff 10"):
        verify("max_averages", big, mode="exact")
    assert vars(big) == {"values": big.values}


def test_population_requires_two_values():
    with pytest.raises(InvalidInputError):
        make_population([1])
    with pytest.raises(InvalidInputError):
        make_population([])


def test_require_centered_names_the_caller():
    pop = make_population([1, 2])
    with pytest.raises(PreconditionError, match="demo"):
        pop.require_centered("demo")
    make_population([1, -1]).require_centered("demo")


def test_bridge_population_and_detection():
    pop = make_bridge_population(3)
    assert pop.n == 6
    assert sorted(pop.values) == [-1, -1, -1, 1, 1, 1]
    assert bridge_parameter(pop) == 3
    assert bridge_parameter(make_population([1, -1, 2, -2])) is None
    assert bridge_parameter(make_population([1, 1, -1, -1, -1])) is None
    with pytest.raises(InvalidInputError):
        make_bridge_population(0)


def test_state_vector_tracks_running_sums():
    # the quadratic basis state (S_k^2, S_k, T_k, 1) of a prefix
    pop = make_population([1, -1, 2, -2])
    system = build_transition_system(Basis.QUADRATIC, population=pop)
    assert system.state_vector((2, -1)) == (1, 1, 5, 1)
    assert system.state_vector((2, -1, Fraction(-2))) == (1, -1, 9, 1)
    assert system.state_vector(()) == (0, 0, 0, 1)


def test_state_vector_walks_a_permutation():
    pop = make_population([1, -1, 2, -2])
    system = build_transition_system(Basis.QUADRATIC, population=pop)
    xs = [pop.values[i - 1] for i in (3, 1, 4, 2)]
    states = [system.state_vector(xs[:k]) for k in range(pop.n + 1)]
    assert [v[1] for v in states] == [0, 2, 3, 1, 0]
    assert [v[2] for v in states] == [0, 4, 5, 9, 10]


def test_drawn_prefix_rejects_values_not_remaining():
    pop = make_population([1, -1, 2, -2])
    spec = make_spec("m2", pop)
    for bad in [(3,), (1, 1)]:
        with pytest.raises(InvalidInputError, match="not among the remaining"):
            drawn_prefix(pop, bad)
        with pytest.raises(InvalidInputError, match="not among the remaining"):
            evaluate_prefix(spec, bad)


def test_drawn_prefix_draws_each_copy_once_and_coerces():
    pop = make_population([1, 1, -2])
    assert drawn_prefix(pop, (1, 1)) == (1, 1)
    with pytest.raises(InvalidInputError, match="value 1 is not among"):
        drawn_prefix(pop, (1, 1, 1))
    assert evaluate_prefix(make_spec("m2", pop), (1, 1)) == 6
    drawn = drawn_prefix(make_population(["1/2", -1, "1/2"]), ("1/2", -1))
    assert drawn == (Fraction(1, 2), -1)
    assert all(type(x) is Fraction for x in drawn)


def test_validate_permutation():
    assert validate_permutation([2, 1, 3], 3) == (2, 1, 3)
    for bad in [(1, 2), (1, 1, 3), (0, 1, 2), (1, 2, 4)]:
        with pytest.raises(InvalidInputError):
            validate_permutation(bad, 3)


def test_validate_permutation_accepts_every_ordering():
    for n in range(1, 5):
        perms = list(itertools.permutations(range(1, n + 1)))
        assert len(set(perms)) == math.factorial(n)
        assert all(validate_permutation(list(p), n) == p for p in perms)


def test_random_centered_population_contract():
    rng = random.Random(77)
    for _ in range(25):
        pop = random_centered_population(5, rng)
        assert pop.n == 5
        assert pop.total == 0
        assert pop.square_sum > 0
        for v in pop.values[:-1]:
            assert abs(v.numerator) <= 9 * v.denominator
            assert v.denominator <= 4
    with pytest.raises(InvalidInputError):
        random_centered_population(1, rng)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_numerator": 0},
        {"max_numerator": -3},
        {"max_denominator": 0},
        {"max_numerator": 2.5},
        {"n": 4.0},
        {"n": "5"},
    ],
)
def test_random_centered_population_refuses_bad_bounds(kwargs):
    # max_numerator 0 used to retry the all-zero draw forever
    args = {"n": 4, **kwargs}
    with pytest.raises(InvalidInputError, match="need an int"):
        random_centered_population(args.pop("n"), random.Random(1), **args)


@pytest.mark.parametrize("rng", [1, None, "seed"])
def test_random_centered_population_needs_a_random_instance(rng):
    with pytest.raises(InvalidInputError, match="rng must be a random.Random"):
        random_centered_population(4, rng)


def test_load_population_handles_comments_and_blanks(tmp_path):
    path = tmp_path / "pop.txt"
    path.write_text("# header\n 1 \n\n-1 # inline\n2\n-2\n", encoding="utf-8")
    assert load_population(str(path)).values == (1, -1, 2, -2)
    path.write_text("1\n0.5\n", encoding="utf-8")
    with pytest.raises(InvalidInputError):
        load_population(str(path))
    path.write_text("1\n0.5\n-1.5\n", encoding="utf-8")
    assert load_population(str(path), lenient=True).values == (
        1,
        Fraction(1, 2),
        Fraction(-3, 2),
    )


def test_load_population_reports_path_and_line_number(tmp_path):
    path = tmp_path / "pop.txt"
    path.write_text("1\n-1\nbogus\n", encoding="utf-8")
    with pytest.raises(InvalidInputError, match=f"^{path}, line 3: "):
        load_population(str(path))


def test_load_population_refuses_by_count_before_parsing(tmp_path):
    path = tmp_path / "pop.txt"
    path.write_text("# three values\n1\n\nbogus # inline\n-1\n", encoding="utf-8")
    counts = []

    def refuse(n):
        counts.append(n)
        raise PreconditionError("too many")

    with pytest.raises(PreconditionError, match="^too many$"):
        load_population(str(path), refuse=refuse)
    with pytest.raises(InvalidInputError, match=f"^{path}, line 4: "):
        load_population(str(path), refuse=counts.append)
    assert counts == [3, 3]


def test_load_population_refuses_unreadable_files(tmp_path):
    with pytest.raises(InvalidInputError, match="cannot read population file"):
        load_population(str(tmp_path / "missing.txt"))
    not_utf8 = tmp_path / "latin1.txt"
    not_utf8.write_bytes(b"1\n\xff\n-1\n")
    with pytest.raises(InvalidInputError, match="cannot read population file"):
        load_population(str(not_utf8))


def test_load_population_round_trip(tmp_path):
    path = pop_file(tmp_path, [1, -1, "2/3", "-2/3"])
    pop = load_population(path)
    assert pop.total == 0 and pop.n == 4


def test_enumeration_cutoff_guards():
    assert resolve_cutoff(None) == DEFAULT_ENUMERATION_CUTOFF
    assert resolve_cutoff(MAX_ENUMERATION_CUTOFF) == 12
    for bad in (1, 13, -2):
        with pytest.raises(InvalidInputError):
            resolve_cutoff(bad)
    ensure_enumerable(10, None, "demo")
    with pytest.raises(EnumerationLimitError, match="demo"):
        ensure_enumerable(11, None, "demo")
    ensure_enumerable(11, 12, "demo")


def test_mean_and_max_over_orderings():
    pop = make_population([1, -1])
    assert mean_over_orderings(pop, lambda xs: xs[0]) == 0
    assert mean_over_orderings(pop, lambda xs: xs[0] * xs[0]) == 1
    big = make_population(list(range(11)))
    with pytest.raises(EnumerationLimitError):
        mean_over_orderings(big, lambda xs: xs[0])


def test_mean_over_ordered_draws_matches_full_enumeration():
    pop = make_population([1, -1, 2, -2])
    by_draws = mean_over_ordered_draws(pop, 2, lambda a, b: a**3 * b)
    by_perms = mean_over_orderings(pop, lambda xs: xs[0] ** 3 * xs[1])
    assert by_draws == by_perms == Fraction(-17, 6)
    with pytest.raises(InvalidInputError):
        mean_over_ordered_draws(pop, 5, lambda *a: Fraction(0))


def test_mean_over_subsets_matches_symmetric_statistic():
    pop = make_population([1, -1, 2, -2])
    by_subsets = mean_over_subsets(pop, 2, lambda xs: sum(xs) ** 2)
    by_perms = mean_over_orderings(pop, lambda xs: (xs[0] + xs[1]) ** 2)
    assert by_subsets == by_perms == Fraction(10, 3)


@given(
    st.lists(
        st.fractions(min_value=-20, max_value=20, max_denominator=6),
        min_size=2,
        max_size=7,
    )
)
def test_power_sums_match_direct_recomputation(values):
    pop = make_population(values)
    assert pop.total == sum(values)
    assert pop.square_sum == sum(v * v for v in values)
    assert pop.fourth_sum == sum(v * v * v * v for v in values)


@given(st.integers(2, 7), st.integers(0, 10**6))
def test_random_population_square_sum_positive(n, seed):
    pop = random_centered_population(n, random.Random(seed))
    assert pop.total == 0 and pop.square_sum > 0


def test_factorial_sanity_for_cutoff_choice():
    # 10! enumerations stay desk-scale; 13! would not.
    assert math.factorial(DEFAULT_ENUMERATION_CUTOFF) == 3628800
    assert math.factorial(MAX_ENUMERATION_CUTOFF) < 5 * 10**8


def test_the_drawn_set_lattice_on_every_small_n():
    # read off the masks themselves, each getter lists the sets one item
    # smaller or larger, so the two are each other's inverse; lex is the
    # nonempty sets in lexicographic order of their items
    from permartingale.population import _lattice

    for n in range(9):
        preds, succs, lex = _lattice(n)
        masks = range(1 << n)
        below = {mask: sorted(preds[mask](masks)) for mask in masks}
        above = {mask: sorted(succs[mask](masks)) for mask in masks}
        for mask in masks:
            assert below[mask] == sorted(mask ^ 1 << i for i in range(n) if mask >> i & 1)
            assert above[mask] == sorted(m for m in masks if mask in below[m])
        assert list(lex) == sorted(range(1, 1 << n), key=lambda m: [i for i in range(n) if m >> i & 1])
