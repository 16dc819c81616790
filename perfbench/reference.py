"""Benchmark-owned reference values for the inequality checks.

These routes are written independently of the package's kernels so that
a wrong kernel cannot confirm itself:

* ``exact_lhs`` enumerates every ordering as a numpy index table and
  takes each path statistic as the square of a maximum of absolute
  values (x -> x^2 is monotone on |x|), all in int64 with an explicit
  overflow bound, and sums the squares in Python integers.  The
  package's n! kernels instead cross-multiply squared fractions.
* ``mc_estimate`` draws orderings with ``argsort`` of uniform keys, not
  ``Generator.permuted``, so its estimate is an independent sample of
  the same expectation.

The committed golden for the default seed is computed with the
package's own ``lhs_statistic`` reference route (see make_golden.py),
and the self-test checks that ``exact_lhs`` agrees with it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import lcm, sqrt

import numpy as np

_INT64_SAFE = 1 << 62

WEIGHTED_IDS = ("alternating", "vna_weighted", "garsia_weighted")
ALL_IDS = ("max_averages", "garsia_unweighted", "quadratic", "hardy", "bridge") + WEIGHTED_IDS


def permutation_table(n: int) -> np.ndarray:
    """All n! orderings of range(n), one per row."""
    return np.array(list(permutations(range(n))), dtype=np.intp)


def _scaled(values) -> tuple[np.ndarray, int]:
    fr = [Fraction(v) for v in values]
    d = lcm(*(v.denominator for v in fr))
    return np.array([int(v * d) for v in fr], dtype=np.int64), d


def _guard(bound: int, what: str) -> None:
    if bound >= _INT64_SAFE:
        raise OverflowError(f"reference route: {what} bound {bound} exceeds int64")


def _alternating(n: int) -> list[int]:
    # signs (-1)^i for i = 1..n
    return [-1 if i % 2 else 1 for i in range(1, n + 1)]


def _sum_squares(m: np.ndarray) -> int:
    return sum(v * v for v in m.tolist())


def exact_lhs(
    iid: str,
    values,
    weights=None,
    perms: np.ndarray | None = None,
) -> Fraction:
    """Exact mean (maximum for ``hardy``) of the id's statistic over all
    orderings of ``values``."""
    n = len(values)
    if perms is None:
        perms = permutation_table(n)
    count = perms.shape[0]
    xs, d = _scaled(values)
    absum = int(np.abs(xs).sum())
    X = xs[perms]
    if iid in WEIGHTED_IDS:
        a, e = _scaled(_alternating(n) if iid == "alternating" else weights)
        _guard(absum * int(np.abs(a).max()), "weighted sum")
        m = np.abs(np.cumsum(X * a, axis=1)).max(axis=1)
        return Fraction(_sum_squares(m), count * (d * e) ** 2)
    S = np.cumsum(X, axis=1)
    if iid == "garsia_unweighted":
        m = np.abs(S).max(axis=1)
        return Fraction(_sum_squares(m), count * d * d)
    ks = np.arange(1, n + 1, dtype=np.int64)
    big = lcm(*range(1, n + 1))
    if iid == "max_averages":
        _guard(absum * big, "scaled average")
        m = (np.abs(S) * (big // ks)).max(axis=1)
        return Fraction(_sum_squares(m), count * (big * d) ** 2)
    if iid == "hardy":
        _guard(n * (absum * big) ** 2, "hardy sum")
        best = int(((S * (big // ks)) ** 2).sum(axis=1).max())
        return Fraction(best, (big * d) ** 2)
    if iid == "quadratic":
        T = np.cumsum(X * X, axis=1)
        pair = [k * (k - 1) for k in range(2, n + 1)]
        big2 = lcm(*pair)
        _guard(((n - 1) * absum**2 + n * int((xs * xs).sum())) * big2, "quadratic")
        u = (n - 1) * S[:, 1:] ** 2 - (n - ks[1:]) * T[:, 1:]
        m = (np.abs(u) * (big2 // np.array(pair, dtype=np.int64))).max(axis=1)
        return Fraction(_sum_squares(m), count * (big2 * (n - 1) * d * d) ** 2)
    if iid == "bridge":
        two_m = n
        last = two_m - 1
        k = ks[:last]
        _guard(last * absum**2 + two_m * two_m * d * d, "bridge")
        u = last * S[:, :last] ** 2 - k * (two_m - k) * d * d
        m = np.abs(u).max(axis=1)
        return Fraction(_sum_squares(m), count * (last * d * d) ** 2)
    raise ValueError(f"unknown inequality id {iid!r}")


def _float_statistic(iid: str, X: np.ndarray, weights) -> np.ndarray:
    n = X.shape[1]
    ks = np.arange(1, n + 1, dtype=np.float64)
    if iid in WEIGHTED_IDS:
        a = np.array(
            [float(w) for w in (_alternating(n) if iid == "alternating" else weights)]
        )
        return (np.cumsum(X * a, axis=1) ** 2).max(axis=1)
    S = np.cumsum(X, axis=1)
    if iid == "max_averages":
        return ((S / ks) ** 2).max(axis=1)
    if iid == "hardy":
        return ((S / ks) ** 2).sum(axis=1)
    if iid == "garsia_unweighted":
        return (S**2).max(axis=1)
    if iid == "quadratic":
        T = np.cumsum(X * X, axis=1)
        k = ks[1:]
        v = (S[:, 1:] ** 2 - (n - k) / (n - 1) * T[:, 1:]) / (k * (k - 1))
        return (v**2).max(axis=1)
    if iid == "bridge":
        last = n - 1
        k = ks[:last]
        return ((S[:, :last] ** 2 - k * (n - k) / last) ** 2).max(axis=1)
    raise ValueError(f"unknown inequality id {iid!r}")


def mc_estimate(
    iid: str, values, weights, samples: int, seed: int, block: int = 1 << 14
) -> tuple[float, float, float]:
    """(mean, standard error, sampled maximum) of the id's statistic
    over ``samples`` uniform random orderings."""
    rng = np.random.default_rng(seed)
    base = np.array([float(Fraction(v)) for v in values])
    n = base.size
    total = 0.0
    total_sq = 0.0
    top = -np.inf
    done = 0
    while done < samples:
        b = min(block, samples - done)
        order = rng.random((b, n)).argsort(axis=1)
        v = _float_statistic(iid, base[order], weights)
        total += float(v.sum())
        total_sq += float((v * v).sum())
        top = max(top, float(v.max()))
        done += b
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0) * samples / (samples - 1)
    return mean, sqrt(var / samples), top
