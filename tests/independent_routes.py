"""Independent routes that only the tests call.

Each recomputes by brute force what the package computes in closed
form, and shares no code with the route it checks:

* ``product_of_inverses`` multiplies the inverses of the step matrices
  one at a time (exact Gauss-Jordan), against the cached closed-form
  inverse products of ``construction``;
* ``mean_over_orderings`` averages a statistic over all n! orderings,
  against the exact engines and the moment formulas;
* ``PAPER_ORDER_FREE_VALUES`` and ``paper_weighted_value`` are the
  paper's closed forms of each martingale kind, written out by hand,
  against the rows of the inverse products that ``martingales`` reads
  each kind's value off;
* ``HAND_SCALED_KEYS`` are the order-free inequality ids' statistics,
  scaled to integers by hand, against the keys that the chain-count
  engine derives from each id's ``term``.
"""

from fractions import Fraction
from math import lcm

from permartingale import (DomainError, InequalityId, InvalidInputError, MartingaleKind,
                           mean_over_ordered_draws)
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


def paper_m2(pop):
    """M2 = (n S_k - k M) / (n - k), for 1 <= k <= n-1."""
    n, m = pop.n, pop.total
    return lambda k, s, t: (n * s - k * m) / (n - k)


def paper_m3(pop):
    """M3 = (n T_k - k B) / (n - k), for 1 <= k <= n-1."""
    n, b = pop.n, pop.square_sum
    return lambda k, s, t: (n * t - k * b) / (n - k)


def paper_mtilde(pop):
    """MTILDE = ((n-1) S_k^2 - k (B - T_k)) / ((n-k)(n-k-1)), for
    1 <= k <= n-2; the paper's form, for centered populations."""
    n, b = pop.n, pop.square_sum
    return lambda k, s, t: ((n - 1) * s * s - k * (b - t)) / ((n - k) * (n - k - 1))


PAPER_ORDER_FREE_VALUES = {
    MartingaleKind.M2: paper_m2,
    MartingaleKind.M3: paper_m3,
    MartingaleKind.MTILDE: paper_mtilde,
}


def paper_weighted_value(n):
    """M_k = W_k + A_k S_k / (n - k), with W_k = a_1 X_1 + ... + a_k X_k
    and A_k = a_1 + ... + a_k, for 1 <= k <= n-1."""
    return lambda k, s, w, alpha: w + alpha * s / (n - k)


# The order-free inequality ids' per-step terms on integers, as key
# factories (n, d) -> (key, den): on a drawn set of k values with scaled
# sums S = d S_k and T = d^2 T_k, key(k, S, T) is den times the id's term
# at k, for each k of the id's range, ks(n).


def averages_key(n, d):
    """(S_k/k)^2, over (lcm(1..n) d)^2."""
    big = lcm(*range(1, n + 1))
    mult = [0] + [big // k for k in range(1, n + 1)]
    return (lambda k, s, t: (s * mult[k]) ** 2), (big * d) ** 2


def square_key(n, d):
    """S_k^2, over d^2."""
    return (lambda k, s, t: s * s), d * d


def quadratic_key(n, d):
    """((S_k^2 - ((n-k)/(n-1)) T_k) / (k(k-1)))^2, over
    ((n-1) lcm(k(k-1) : 2 <= k <= n) d^2)^2."""
    big = lcm(*(k * (k - 1) for k in range(2, n + 1)))
    mult = [0, 0] + [big // (k * (k - 1)) for k in range(2, n + 1)]
    c1 = n - 1

    def key(k, s, t):
        return ((c1 * s * s - (n - k) * t) * mult[k]) ** 2

    return key, (c1 * big * d * d) ** 2


def bridge_key(n, d):
    """(S_k^2 - k(n-k)/(n-1))^2, over ((n-1) d^2)^2."""
    c1 = n - 1
    dd = d * d
    return (lambda k, s, t: (c1 * s * s - k * (n - k) * dd) ** 2), (c1 * dd) ** 2


HAND_SCALED_KEYS = {
    InequalityId.MAX_AVERAGES: (averages_key, lambda n: range(1, n + 1)),
    InequalityId.GARSIA_UNWEIGHTED: (square_key, lambda n: range(1, n + 1)),
    InequalityId.QUADRATIC: (quadratic_key, lambda n: range(2, n + 1)),
    InequalityId.BRIDGE: (bridge_key, lambda n: range(1, n)),
    InequalityId.HARDY: (averages_key, lambda n: range(1, n + 1)),
}
