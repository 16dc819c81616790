import random
import time
from fractions import Fraction

import pytest

from permartingale import (
    Basis,
    DomainError,
    InvalidInputError,
    PreconditionError,
    build_transition_system,
    check_vector_martingale,
    make_population,
    matrix_as_strings,
    matrix_vector,
    quadratic_inverse_product,
    quadratic_transition,
    vector_martingale_value,
    weighted_inverse_product,
    weighted_transition,
)

from independent_routes import (identity_matrix, matrix_inverse, matrix_multiply,
                                product_of_inverses)


def frac_matrix(rows):
    return tuple(tuple(Fraction(v) for v in row) for row in rows)


def test_matrix_helpers():
    a = frac_matrix([[1, 2], [3, 4]])
    i2 = identity_matrix(2)
    assert matrix_multiply(a, i2) == a
    assert matrix_multiply(i2, a) == a
    assert matrix_vector(a, (Fraction(1), Fraction(-1))) == (-1, -1)
    inv = matrix_inverse(a)
    assert matrix_multiply(a, inv) == i2
    assert matrix_multiply(inv, a) == i2


def test_matrix_inverse_rejects_singular():
    singular = frac_matrix([[1, 2], [2, 4]])
    with pytest.raises(DomainError, match="singular"):
        matrix_inverse(singular)


def test_product_of_inverses_order():
    a = frac_matrix([[2, 1], [0, 1]])
    b = frac_matrix([[1, 3], [0, 2]])
    # inv(a) inv(b) = inv(b a)
    assert product_of_inverses([a, b]) == matrix_inverse(matrix_multiply(b, a))


@pytest.mark.parametrize("call, fragment", [
    (lambda: matrix_multiply(((1, 2),), ((1, 2),)), "matrix shapes do not compose"),
    (lambda: matrix_inverse(((1, 2),)), "matrix is not square"),
    (lambda: product_of_inverses([]), "need at least one matrix"),
])
def test_independent_matrix_routes_refuse_bad_shapes(call, fragment):
    with pytest.raises(InvalidInputError) as caught:
        call()
    assert caught.type is InvalidInputError and fragment in str(caught.value)


def undrawn(pop, prefix):
    """The values of ``pop`` left after drawing ``prefix``, with repeats."""
    rest = list(pop.values)
    for x in prefix:
        rest.remove(x)
    return rest


def expected_next_vector(system, pop, prefix):
    """Average the one-step state vectors directly over the next draws."""
    vecs = [system.state_vector((*prefix, x)) for x in undrawn(pop, prefix)]
    total = tuple(sum(col, Fraction(0)) for col in zip(*vecs))
    return tuple(v / len(vecs) for v in total)


def test_quadratic_transition_matches_sampling():
    pop = make_population([1, -1, 2, -2, 3])
    system = build_transition_system(Basis.QUADRATIC, population=pop)
    for prefix in [(), (2,), (2, -1), (-2, 3)]:
        if len(prefix) > system.max_step_state:
            continue
        lhs = matrix_vector(
            system.step_matrix(len(prefix)), system.state_vector(prefix)
        )
        assert lhs == expected_next_vector(system, pop, prefix)


def test_quadratic_transition_on_uncentered_population():
    pop = make_population([1, 2, 4, 8])
    system = build_transition_system(Basis.QUADRATIC, population=pop)
    for prefix in [(), (2,)]:
        lhs = matrix_vector(
            system.step_matrix(len(prefix)), system.state_vector(prefix)
        )
        assert lhs == expected_next_vector(system, pop, prefix)


def test_weighted_transition_matches_sampling():
    pop = make_population([1, -1, 2, -2])
    ws = [Fraction(1), Fraction(-2), Fraction(1, 3), Fraction(0)]
    system = build_transition_system(
        Basis.WEIGHTED, population=pop, multipliers=ws
    )
    for prefix in [(), (1,), (1, -2), (2, -1)]:
        lhs = matrix_vector(
            system.step_matrix(len(prefix)), system.state_vector(prefix)
        )
        assert lhs == expected_next_vector(system, pop, prefix)


def test_transition_range_errors():
    with pytest.raises(DomainError):
        quadratic_transition(5, Fraction(0), Fraction(10), 3)
    with pytest.raises(DomainError):
        quadratic_transition(5, Fraction(0), Fraction(10), -1)
    with pytest.raises(DomainError):
        quadratic_transition(2, Fraction(0), Fraction(2), 0)
    with pytest.raises(DomainError):
        weighted_transition(4, Fraction(1), 3)
    with pytest.raises(DomainError):
        quadratic_inverse_product(5, Fraction(0), Fraction(10), 4)
    with pytest.raises(DomainError):
        weighted_inverse_product(4, [Fraction(1)] * 4, 4)


def test_closed_form_products_equal_iterative_products():
    rng = random.Random(2024)
    for n in range(3, 13):
        total = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        square = Fraction(rng.randint(1, 40), rng.randint(1, 3))
        steps = [
            quadratic_transition(n, total, square, k) for k in range(n - 2)
        ]
        for k in range(1, n - 1):
            assert quadratic_inverse_product(
                n, total, square, k
            ) == product_of_inverses(steps[:k])
        ws = [
            Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)
        ]
        steps = [weighted_transition(n, ws[k], k) for k in range(n - 1)]
        system = build_transition_system(Basis.WEIGHTED, n=n, multipliers=ws)
        for k in range(1, n):
            iterative = product_of_inverses(steps[:k])
            assert weighted_inverse_product(n, ws, k) == iterative
            assert system.inverse_product(k) == iterative


def test_weighted_system_is_linear_in_n():
    # about 0.1 s when linear; a build quadratic in n takes over 1 s
    # already at n = 2,000, so about two minutes here
    n = 20_000
    rng = random.Random(11)
    ws = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
    start = time.perf_counter()
    system = build_transition_system("weighted", n=n, multipliers=ws)
    assert time.perf_counter() - start < 5
    assert system.max_product_index == n - 1
    for k in (1, 2, n // 2, n - 1):
        assert system.inverse_product(k) == weighted_inverse_product(n, ws, k)


def test_transition_system_shape_and_bounds():
    pop = make_population([1, -1, 2, -2, 3, -3])
    system = build_transition_system(Basis.QUADRATIC, population=pop)
    assert system.n == 6
    assert system.max_step_state == 3
    assert system.max_product_index == 4
    assert len(system.inverse_products) == system.max_product_index
    assert system.state_vector((1, -1)) == (0, 0, 2, 1)
    with pytest.raises(DomainError):
        system.step_matrix(4)
    with pytest.raises(DomainError):
        system.inverse_product(0)
    with pytest.raises(DomainError):
        system.inverse_product(5)


@pytest.mark.parametrize("basis", list(Basis))
def test_index_ranges_follow_the_products(basis):
    # a system whose products are cut short reports the shorter ranges
    # and refuses past them with DomainError, not an IndexError
    pop = make_population([1, -1, 2, -2, 3, -3])
    ws = [1, 2, 0, -1, 3, 1] if basis is Basis.WEIGHTED else None
    system = build_transition_system(basis, population=pop, multipliers=ws)
    for k in (pop.n, pop.n + 1):
        with pytest.raises(DomainError, match=f"outside 0..{system.max_step_state}"):
            system.step_matrix(k)
    cut = system._replace(inverse_products=system.inverse_products[:2])
    assert (cut.max_product_index, cut.max_step_state) == (2, 1)
    assert cut.inverse_product(2) == system.inverse_product(2)
    assert cut.step_matrix(1) == system.step_matrix(1)
    with pytest.raises(DomainError, match="outside 0..1"):
        cut.step_matrix(cut.max_step_state + 1)
    with pytest.raises(DomainError, match="outside 1..2"):
        cut.inverse_product(3)
    with pytest.raises(DomainError, match="outside 1..2"):
        vector_martingale_value(cut, (1, -1, 2))


def test_weighted_system_state_vector():
    pop = make_population([1, -1, 2, -2])
    ws = [Fraction(2), Fraction(0), Fraction(1), Fraction(1)]
    system = build_transition_system(
        Basis.WEIGHTED, population=pop, multipliers=ws
    )
    assert system.state_vector((1, 2)) == (2, 3)
    assert system.max_product_index == 3


def test_build_transition_system_input_validation():
    pop = make_population([1, -1, 2, -2])
    with pytest.raises(InvalidInputError):
        build_transition_system(Basis.QUADRATIC)
    with pytest.raises(InvalidInputError):
        build_transition_system(Basis.QUADRATIC, population=pop, n=4)
    with pytest.raises(InvalidInputError):
        build_transition_system(
            Basis.QUADRATIC, population=pop, multipliers=[1, 1, 1, 1]
        )
    with pytest.raises(InvalidInputError):
        build_transition_system(Basis.WEIGHTED, population=pop)
    with pytest.raises(DomainError):
        build_transition_system(
            Basis.QUADRATIC, population=make_population([1, -1])
        )
    explicit = build_transition_system(
        Basis.QUADRATIC, n=5, total=Fraction(0), square_sum=Fraction(10)
    )
    assert explicit.n == 5
    with pytest.raises(InvalidInputError, match="quadratic basis needs"):
        build_transition_system(Basis.QUADRATIC, n=5, total=0)
    with pytest.raises(InvalidInputError, match="weighted basis needs"):
        build_transition_system(Basis.WEIGHTED, multipliers=[1] * 4)
    # the weighted matrices read only n and the multipliers
    weighted = build_transition_system(Basis.WEIGHTED, n=4, multipliers=[1] * 4)
    assert (weighted.total, weighted.square_sum) == (None, None)
    assert weighted.inverse_products == build_transition_system(
        Basis.WEIGHTED, population=pop, multipliers=[1] * 4
    ).inverse_products


def test_build_transition_system_refuses_more_matrices_than_its_ceiling(monkeypatch):
    # the library call is refused like dump-matrices, before any product
    from permartingale import construction

    def product(*args):
        raise AssertionError("a product was built before the matrix ceiling")

    monkeypatch.setattr(construction, "_quadratic_product", product)
    monkeypatch.setattr(construction, "_weighted_product", product)
    for n, kwargs in ((10**6, dict(total=0, square_sum=1)),
                      (50_001, dict(multipliers=[1] * 50_001))):
        basis = "weighted" if "multipliers" in kwargs else "quadratic"
        with pytest.raises(InvalidInputError) as caught:
            build_transition_system(basis, n=n, **kwargs)
        assert str(caught.value) == (
            f"dump-matrices at n={n} writes about 2n = 2 x {n} matrices, above "
            "the limit of 100,000; use a smaller n"
        )
    with pytest.raises(AssertionError, match="a product was built"):
        build_transition_system("quadratic", n=50_000, total=0, square_sum=1)


def test_weighted_basis_requires_a_centered_total():
    # the weighted step matrix omits a_{k+1} M/(n-k) and M/(n-k)
    uncentered = make_population([1, 2, 3, 4])
    with pytest.raises(PreconditionError, match="centered"):
        build_transition_system(
            Basis.WEIGHTED, population=uncentered, multipliers=[1] * 4
        )
    with pytest.raises(PreconditionError):
        build_transition_system(
            Basis.WEIGHTED, n=4, total=1, square_sum=0, multipliers=[1] * 4
        )
    with pytest.raises(PreconditionError):
        check_vector_martingale(uncentered, Basis.WEIGHTED, multipliers=[1] * 4)


def test_vector_martingale_value_bounds():
    pop = make_population([1, -1, 2, -2])
    system = build_transition_system(Basis.QUADRATIC, population=pop)
    value = vector_martingale_value(system, (2, -1))
    assert value == matrix_vector(
        system.inverse_product(2), system.state_vector((2, -1))
    )
    assert vector_martingale_value(system, ("2", Fraction(-1))) == value
    with pytest.raises(DomainError):
        vector_martingale_value(system, ())
    with pytest.raises(DomainError):
        vector_martingale_value(system, (1, -1, 2))


@pytest.mark.parametrize("basis", list(Basis))
def test_a_prefix_longer_than_n_is_refused(basis):
    # the system holds no population, so the length is all it can check;
    # the weighted W_k would otherwise stop at the last multiplier
    pop = make_population([1, -1, 2, -2])
    ws = [1, 2, 3, 4] if basis is Basis.WEIGHTED else None
    system = build_transition_system(basis, population=pop, multipliers=ws)
    assert system.state_vector((1, -1, 2, -2))[1] == 0  # S_n of a full draw
    too_long = (1, -1, 2, -2, 1)
    with pytest.raises(InvalidInputError, match="longer than n=4"):
        system.state_vector(too_long)
    with pytest.raises(InvalidInputError, match="longer than n=4"):
        vector_martingale_value(system, too_long)


def test_matrix_as_strings():
    assert matrix_as_strings(frac_matrix([[1, -1], [0, Fraction(1, 2)]])) == [
        ["1", "-1"],
        ["0", "1/2"],
    ]
