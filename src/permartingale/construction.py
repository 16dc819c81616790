"""Transition matrices for linearized draw recursions.

One step of sampling without replacement acts linearly, in conditional
expectation, on a well-chosen state vector.  With n items, running sum
S_k, running square sum T_k, grand total M, and grand square total B:

* quadratic basis, state (S_k^2, S_k, T_k, 1):

      E[state_{k+1} | first k draws] = A * state_k,

      A = 1/(n-k) * [ n-k-2   2M   -1      B  ]
                    [ 0     n-k-1   0      M  ]
                    [ 0       0   n-k-1    B  ]
                    [ 0       0     0     n-k ]

* weighted basis, state (W_k, S_k) with W_k = a_1 X_1 + ... + a_k X_k
  for deterministic multipliers a_i, on a centered population (M = 0):

      A = [ 1   -a_{k+1}/(n-k) ]
          [ 0   (n-k-1)/(n-k)  ]

  For M != 0 the affine terms a_{k+1} M/(n-k) and M/(n-k) would be
  missing, so the weighted basis refuses an uncentered total.

Indexing convention: ``quadratic_transition(n, total, square_sum, k)``
and ``weighted_transition(n, multiplier, k)`` take the index k of the
state the matrix acts on, i.e. they return the step k+1 matrix mapping
the state after k draws to the conditional expectation of the state
after k+1 draws.

Multiplying the inverses of the first k step matrices onto the state
vector yields a vector-valued martingale.  The closed forms of those
inverse products are written here once, every martingale kind reads its
value off one of their rows, and the tests check them against the
step-by-step products and the paper's formulas, their labelled routes.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import NamedTuple, Sequence

from .choices import Basis
from .errors import DomainError, InvalidInputError, PreconditionError, coerce_enum
from .population import Population
from .rationals import as_fraction, format_rational, validate_weights

Matrix = tuple[tuple[Fraction, ...], ...]
Vector = tuple[Fraction, ...]

# the matrices (about 2n) above which a transition system is refused:
# dump-matrices writes about 5 s and 35 MB of JSON at this size, over
# 800 times the largest test call
_MAX_MATRICES = 100_000


def _as_matrix(rows: Sequence[Sequence]) -> Matrix:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def matrix_vector(a: Matrix, v: Vector) -> Vector:
    if len(a[0]) != len(v):
        raise InvalidInputError("matrix and vector shapes do not match")
    # skipping zero entries pays: without the skip, check_sequence over the quadratic
    # vector_martingale_value at n=7 took 282-290 ms, not 211 (one CPU of a 2-vCPU Xeon)
    return tuple(
        sum((a[i][j] * v[j] for j in range(len(v)) if a[i][j]), Fraction(0))
        for i in range(len(a))
    )


def quadratic_transition(n: int, total, square_sum, k: int) -> Matrix:
    """Step matrix on the state (S_k^2, S_k, T_k, 1) after k draws.

    Valid for 0 <= k <= n-3; at k = n-2 the matrix degenerates (the
    leading entry divides n-k-2 = 0 into the inverse later).
    """
    m = as_fraction(total)
    b = as_fraction(square_sum)
    if n < 3:
        raise DomainError(f"quadratic basis needs n >= 3, got n={n}")
    if not 0 <= k <= n - 3:
        raise DomainError(
            f"step matrix after k={k} draws is outside 0..n-3 for n={n}; "
            f"after k={n - 2} draws the leading entry (n-k-2)/(n-k) vanishes "
            f"and the matrix is singular"
        )
    r = Fraction(1, n - k)
    return _as_matrix(
        [
            [(n - k - 2) * r, 2 * m * r, -r, b * r],
            [0, (n - k - 1) * r, 0, m * r],
            [0, 0, (n - k - 1) * r, b * r],
            [0, 0, 0, 1],
        ]
    )


def quadratic_inverse_product(n: int, total, square_sum, k: int) -> Matrix:
    """Closed form of inv(A_1)...inv(A_k) for the quadratic basis.

    Valid for 1 <= k <= n-2.  With M = total and B = square sum:

        1/(n-k) * [ n(n-1)/(n-k-1)  -2knM/(n-k-1)  kn/(n-k-1)  (k(k+1)M^2 - knB)/(n-k-1) ]
                  [ 0                n              0           -kM                       ]
                  [ 0                0              n           -kB                       ]
                  [ 0                0              0           n-k                       ]
    """
    m, b = as_fraction(total), as_fraction(square_sum)
    if n < 3:
        raise DomainError(f"quadratic basis needs n >= 3, got n={n}")
    if not 1 <= k <= n - 2:
        raise DomainError(
            f"inverse product at k={k} is outside 1..n-2 for n={n}; "
            f"k={n - 1} would divide by n-k-1 = 0"
        )
    return _as_matrix(_quadratic_product(n, m, b, k))


# the cache pays on the per-prefix route: without it, tools/measure.py's check_sequence
# m2 and mtilde at n=7 took 586 and 257 ms, not 437 and 166 (one CPU of a 2-vCPU Xeon)
@lru_cache(maxsize=256)
def _quadratic_product(n: int, m: Fraction, b: Fraction, k: int) -> tuple[tuple, ...]:
    """The rows of the closed form above, built once per (n, M, B, k); at k =
    n-1, where row 1 would divide by n-k-1 = 0, rows 2-4, which M2 and M3 read."""
    r = Fraction(1, n - k)
    rows = ((0, n * r, 0, -k * m * r), (0, 0, n * r, -k * b * r), (0, 0, 0, (n - k) * r))
    if k == n - 1:
        return rows
    q = r / (n - k - 1)
    return ((n * (n - 1) * q, -2 * k * n * m * q, k * n * q,
             (k * (k + 1) * m * m - k * n * b) * q), *rows)


def weighted_transition(n: int, multiplier, k: int) -> Matrix:
    """Step matrix on the state (W_k, S_k) after k draws.

    ``multiplier`` is a_{k+1}, the weight of the next draw.  Valid for
    0 <= k <= n-2; the k = n-1 step matrix is singular.
    """
    a_next = as_fraction(multiplier)
    if n < 2:
        raise DomainError(f"weighted basis needs n >= 2, got n={n}")
    if not 0 <= k <= n - 2:
        raise DomainError(
            f"step matrix after k={k} draws is outside 0..n-2 for n={n}; "
            f"the k={n - 1} step matrix is singular"
        )
    r = Fraction(1, n - k)
    return _as_matrix(
        [
            [1, -a_next * r],
            [0, (n - k - 1) * r],
        ]
    )


def weighted_inverse_product(n: int, multipliers: Sequence, k: int) -> Matrix:
    """Closed form of inv(A_1)...inv(A_k) for the weighted basis.

    Valid for 1 <= k <= n-1.  With alpha_1(k) = a_1 + ... + a_k:

        [ 1   alpha_1(k)/(n-k) ]
        [ 0   n/(n-k)          ]
    """
    if n < 2:
        raise DomainError(f"weighted basis needs n >= 2, got n={n}")
    ws = validate_weights(multipliers, n)
    if not 1 <= k <= n - 1:
        raise DomainError(
            f"inverse product at k={k} is outside 1..n-1 for n={n}; "
            f"k={n} would divide by n-k = 0"
        )
    return _as_matrix(_weighted_product(n, k, sum(ws[:k])))


def _weighted_product(n: int, k: int, alpha1) -> list[list]:
    """The rows of the closed form above, given alpha_1(k) or the slot A_k."""
    r = Fraction(1, n - k)
    return [[1, alpha1 * r], [0, n * r]]


class TransitionSystem(NamedTuple):
    """A population's transition matrices with cached inverse products.

    ``inverse_products[k-1]`` is inv(A_1)...inv(A_k).  The cache is
    filled from the closed forms at construction; ``step_matrix`` gives
    the steps whose inverses, multiplied one at a time, are the
    independent route the tests check the cache against.
    """

    basis: Basis
    n: int
    total: Fraction | None
    square_sum: Fraction | None
    multipliers: tuple[Fraction, ...] | None
    inverse_products: tuple[Matrix, ...]

    @property
    def max_step_state(self) -> int:
        """Largest k for which step_matrix(k) exists."""
        return self.max_product_index - 1

    @property
    def max_product_index(self) -> int:
        """Largest k for which inverse_product(k) exists."""
        return len(self.inverse_products)

    def step_matrix(self, k: int) -> Matrix:
        """Matrix mapping the state after k draws to the expected state
        after k+1 draws."""
        if not 0 <= k <= self.max_step_state:
            raise DomainError(
                f"step matrix after k={k} draws is outside "
                f"0..{self.max_step_state} for n={self.n}"
            )
        if self.basis is Basis.QUADRATIC:
            return quadratic_transition(self.n, self.total, self.square_sum, k)
        return weighted_transition(self.n, self.multipliers[k], k)

    def inverse_product(self, k: int) -> Matrix:
        if not 1 <= k <= self.max_product_index:
            raise DomainError(
                f"inverse product at k={k} is outside "
                f"1..{self.max_product_index} for n={self.n}"
            )
        return self.inverse_products[k - 1]

    def state_vector(self, prefix: Sequence) -> Vector:
        """The linearized state after drawing the values ``prefix``:
        (S^2, S, T, 1) for the quadratic basis, (W, S) for the weighted
        basis.  The system holds no population, so only the length of
        ``prefix`` is checked, against n."""
        drawn = tuple(as_fraction(x) for x in prefix)
        if len(drawn) > self.n:
            raise InvalidInputError(
                f"a prefix of {len(drawn)} values is longer than n={self.n}"
            )
        s = sum(drawn, Fraction(0))
        if self.basis is Basis.QUADRATIC:
            t = sum((x * x for x in drawn), Fraction(0))
            return (s * s, s, t, Fraction(1))
        w = sum((a * x for a, x in zip(self.multipliers, drawn)), Fraction(0))
        return (w, s)


def ensure_matrix_count(n: int) -> None:
    """Refuse a system of more than _MAX_MATRICES matrices (about 2n); run
    on a population file's value count, it refuses before any parsing."""
    if 2 * n > _MAX_MATRICES:
        raise InvalidInputError(f"dump-matrices at n={n} writes about 2n = 2 x {n} matrices, "
                                f"above the limit of {_MAX_MATRICES:,}; use a smaller n")


def build_transition_system(
    basis: Basis | str,
    population: Population | None = None,
    multipliers: Sequence | None = None,
    n: int | None = None,
    total=None,
    square_sum=None,
) -> TransitionSystem:
    """Assemble a :class:`TransitionSystem`.

    Pass either ``population`` or explicit inputs.  The quadratic basis
    needs ``(n, total, square_sum)``; the weighted basis needs n and
    ``multipliers`` of length n, and a total, if one is given, of 0.
    Sums not given stay None on the system.  An n whose system holds
    more than _MAX_MATRICES matrices (about 2n) is refused before any
    product is built.
    """
    basis = coerce_enum(Basis, basis, "basis")
    if population is not None:
        if n is not None or total is not None or square_sum is not None:
            raise InvalidInputError(
                "pass either a population or explicit (n, total, square_sum),"
                " not both"
            )
        n = population.n
        total = population.total
        square_sum = population.square_sum
    if n is None or basis is Basis.QUADRATIC and (total is None or square_sum is None):
        needs = "n" if basis is Basis.WEIGHTED else "all of (n, total, square_sum)"
        raise InvalidInputError(
            f"the {basis.value} basis needs a population or {needs}"
        )
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise InvalidInputError(f"need integer n >= 2, got {n!r}")
    ensure_matrix_count(n)
    total = None if total is None else as_fraction(total)
    square_sum = None if square_sum is None else as_fraction(square_sum)
    ws: tuple[Fraction, ...] | None = None
    if basis is Basis.WEIGHTED:
        if multipliers is None:
            raise InvalidInputError("the weighted basis needs multipliers")
        if total is not None and total != 0:
            raise PreconditionError(
                "the weighted basis requires a centered population (total 0); "
                f"this one sums to {format_rational(total)}"
            )
        ws = validate_weights(multipliers, n)
        products = tuple(
            _as_matrix(_weighted_product(n, k, alpha1))
            for k, alpha1 in enumerate(accumulate(ws[:-1]), start=1)
        )
    else:
        if multipliers is not None:
            raise InvalidInputError("the quadratic basis takes no multipliers")
        if n < 3:
            raise DomainError(f"quadratic basis needs n >= 3, got n={n}")
        products = tuple(
            _as_matrix(_quadratic_product(n, total, square_sum, k))
            for k in range(1, n - 1)
        )
    return TransitionSystem(
        basis=basis,
        n=n,
        total=total,
        square_sum=square_sum,
        multipliers=ws,
        inverse_products=products,
    )


def vector_martingale_value(system: TransitionSystem, prefix: Sequence) -> Vector:
    """inv(A_1)...inv(A_k) applied to the state vector after drawing the
    k values ``prefix``.

    Coordinatewise this is a martingale in k over the valid range
    (1..n-2 quadratic, 1..n-1 weighted).
    """
    # the state comes first, so that a prefix longer than n is refused as such
    vector = system.state_vector(prefix)
    return matrix_vector(system.inverse_product(len(prefix)), vector)


def matrix_as_strings(matrix: Matrix) -> list[list[str]]:
    """Rows of 'p/q' strings, the JSON wire form for exact matrices."""
    return [[format_rational(x) for x in row] for row in matrix]
