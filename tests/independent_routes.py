"""Independent routes that only the tests call.

Each recomputes by brute force what the package computes in closed
form, and shares no code with the route it checks:

* ``product_of_inverses`` multiplies the inverses of the step matrices
  one at a time (exact Gauss-Jordan), against the cached closed-form
  inverse products of ``construction``;
* ``mean_over_orderings`` averages a statistic over all n! orderings,
  against the exact engines and the moment formulas.
"""

from fractions import Fraction

from permartingale import DomainError, InvalidInputError, mean_over_ordered_draws
from permartingale.population import ensure_enumerable


def identity_matrix(size):
    return tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(size))
        for i in range(size)
    )


def matrix_multiply(a, b):
    if len(a[0]) != len(b):
        raise InvalidInputError("matrix shapes do not compose")
    cols = range(len(b[0]))
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0))
              for j in cols)
        for i in range(len(a))
    )


def matrix_inverse(a):
    """Exact Gauss-Jordan inverse of a square rational matrix."""
    size = len(a)
    if any(len(row) != size for row in a):
        raise InvalidInputError("matrix is not square")
    work = [list(row) + list(identity_matrix(size)[i]) for i, row in enumerate(a)]
    for col in range(size):
        pivot = next((r for r in range(col, size) if work[r][col] != 0), None)
        if pivot is None:
            raise DomainError("matrix is singular, no inverse exists")
        work[col], work[pivot] = work[pivot], work[col]
        inv = Fraction(1) / work[col][col]
        work[col] = [x * inv for x in work[col]]
        for r in range(size):
            if r != col and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
    return tuple(tuple(row[size:]) for row in work)


def product_of_inverses(matrices):
    """inv(A_1) * inv(A_2) * ... * inv(A_k), step by step."""
    if not matrices:
        raise InvalidInputError("need at least one matrix")
    out = matrix_inverse(matrices[0])
    for m in matrices[1:]:
        out = matrix_multiply(out, matrix_inverse(m))
    return out


def mean_over_orderings(population, statistic, cutoff=None):
    """Exact mean of ``statistic(ordering)`` over all n! orderings."""
    n = population.n
    ensure_enumerable(n, cutoff, "mean over orderings")
    return mean_over_ordered_draws(population, n, lambda *p: statistic(p))
