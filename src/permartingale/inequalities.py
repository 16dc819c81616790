"""Permutation maximal inequalities: exact and Monte Carlo verification.

Each inequality id binds a per-permutation path statistic and an exact
right-hand side built from the population's power sums B = sum x_i^2
and Q = sum x_i^4.  For all ids except ``hardy`` the left-hand side is
the expectation of the statistic over all n! equally likely orderings;
for ``hardy`` it is the maximum over orderings.  With S_k the running
sum, T_k the running square sum, W_k = sum_{i<=k} a_i x_{sigma(i)}, and
alpha_2(n) = sum a_i^2:

  max_averages       E max_{1<=k<=n} (S_k/k)^2    <= 4 B / n
  garsia_unweighted  E max_{1<=k<=n} S_k^2        <= (41/5) B
  quadratic          E max_{2<=k<=n} ((S_k^2 - ((n-k)/(n-1)) T_k)
                         / (k(k-1)))^2            <= 4 (B^2 - Q)/(n-1)^2
  bridge             E max_{1<=k<=2m-1} (S_k^2 - k(2m-k)/(2m-1))^2
                                                  <= 128 m^2
  alternating        weights (-1)^i:
                     E max_k W_k^2                <= (305/17) B
  vna_weighted       E max_k W_k^2  <= (16/(n-1)) (1 + 2 V(a)) alpha_2(n) B
  garsia_weighted    E max_k W_k^2  <= (16404/205) alpha_2(n) B / (n-1)
  hardy              max_sigma sum_k (S_k/k)^2    <= 4 B

All ids require a centered population; ``bridge`` requires the ±1
bridge population of m ones and m minus-ones.

Exact mode enumerates every ordering with integer-only kernels (values
scaled by their common denominator; maxima compared by
cross-multiplication) and is bit-for-bit an expectation, not an
estimate.  Monte Carlo mode samples uniformly random orderings in
floating point with a block-seeded generator, so results are
reproducible bit-for-bit for a fixed seed and sample count.  A Monte
Carlo run can never prove an inequality: its verdict is "consistent",
"inconclusive", or "violation-suspected".
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import permutations
from math import factorial, isfinite, lcm, sqrt
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DomainError,
    EnumerationLimitError,
    InvalidInputError,
    PreconditionError,
    coerce_enum,
)
from .population import (
    Population,
    bridge_parameter,
    ensure_enumerable,
    make_bridge_population,
    validate_permutation,
)
from .rationals import format_rational, fraction_sequence, scaled_integers
from .weights import (
    alternating_weights,
    validate_weights,
    weight_prefix_sum,
    weight_square_sum,
)

MC_BLOCK_SIZE = 1 << 16
HARDY_EXACT_LIMIT = 10


class InequalityId(str, Enum):
    MAX_AVERAGES = "max_averages"
    GARSIA_UNWEIGHTED = "garsia_unweighted"
    QUADRATIC = "quadratic"
    BRIDGE = "bridge"
    ALTERNATING = "alternating"
    VNA_WEIGHTED = "vna_weighted"
    GARSIA_WEIGHTED = "garsia_weighted"
    HARDY = "hardy"


class VerifyMode(str, Enum):
    EXACT = "exact"
    MONTE_CARLO = "mc"


def _resolve(
    id,
    population: Population | None,
    weights: Sequence | None,
    bridge_m: int | None,
) -> tuple[InequalityId, _Rule, Population, tuple[Fraction, ...] | None, int | None]:
    """Validate the (id, population, weights, bridge_m) combination.

    Returns the id's rule record, the effective weights (the fixed
    alternating signs for ``alternating``) and the bridge parameter m
    for ``bridge``.
    """
    iid = coerce_enum(InequalityId, id, "inequality id")
    rule = _RULES[iid]
    if rule.bridge:
        if weights is not None:
            raise InvalidInputError("the bridge inequality takes no weights")
        if population is None:
            if bridge_m is None:
                raise InvalidInputError(
                    "the bridge inequality needs a population or bridge_m"
                )
            population = make_bridge_population(bridge_m)
        m = bridge_parameter(population)
        if m is None:
            raise PreconditionError(
                "the bridge inequality needs the ±1 bridge population "
                "(m ones and m minus-ones)"
            )
        if bridge_m is not None and bridge_m != m:
            raise InvalidInputError(
                f"bridge_m={bridge_m} does not match the population (m={m})"
            )
        return iid, rule, population, None, m
    if bridge_m is not None:
        raise InvalidInputError(
            f"bridge_m only applies to the bridge inequality, not {iid.value!r}"
        )
    if population is None:
        raise InvalidInputError("a population is required")
    population.require_centered(f"the {iid.value} inequality")
    if rule.weights == "given":
        if weights is None:
            raise InvalidInputError(f"the {iid.value} inequality needs weights")
        return iid, rule, population, validate_weights(weights, population.n), None
    if weights is not None:
        detail = "; its signs (-1)^i are fixed" if rule.weights == "alternating" else ""
        raise InvalidInputError(
            f"the {iid.value} inequality takes no weights{detail}"
        )
    if rule.weights == "alternating":
        return iid, rule, population, alternating_weights(population.n), None
    return iid, rule, population, None, None


def lhs_statistic(
    id,
    population: Population | None,
    permutation: Sequence[int],
    weights: Sequence | None = None,
    bridge_m: int | None = None,
) -> Fraction:
    """Exact per-permutation path statistic, the reference route.

    This straightforward rational evaluation of the id's per-step term
    is kept independent of the integer enumeration kernels and the
    float statistics so each can check the other.
    """
    iid, rule, pop, ws, m = _resolve(id, population, weights, bridge_m)
    n = pop.n
    perm = validate_permutation(permutation, n)
    ks = rule.ks(n, m)
    s = t = w = Fraction(0)
    terms = []
    for k in range(1, ks.stop):
        x = pop.values[perm[k - 1] - 1]
        s += x
        t += x * x
        if ws is not None:
            w += ws[k - 1] * x
        if k in ks:
            terms.append(rule.term(n, m, k, s, t, w))
    return rule.reduce(terms)


def vna(weights: Sequence) -> Fraction:
    """Cancelation measure of a weight sequence:
    max_{1<=k<=n-1} alpha_1(k)^2 / alpha_2(n).

    Small when prefix sums of the weights stay near zero (alternating
    signs give 1/n), large when they accumulate (all-ones gives
    (n-1)^2/n).
    """
    ws = fraction_sequence(tuple(weights))
    n = len(ws)
    if n < 2:
        raise InvalidInputError("need at least two weights")
    a2 = weight_square_sum(ws, n)
    if a2 == 0:
        raise DomainError("the cancelation measure needs a nonzero weight")
    best = max(weight_prefix_sum(ws, k) ** 2 for k in range(1, n))
    return best / a2


def rhs_value(
    id,
    population: Population | None = None,
    weights: Sequence | None = None,
    bridge_m: int | None = None,
) -> Fraction:
    """Exact right-hand side for an inequality id."""
    iid, rule, pop, ws, m = _resolve(id, population, weights, bridge_m)
    return rule.rhs(pop, ws, m)


def _vna_weighted_rhs(pop: Population, ws, m) -> Fraction:
    n = pop.n
    a2 = weight_square_sum(ws, n)
    if a2 == 0:
        raise DomainError("the vna_weighted bound needs a nonzero weight")
    return Fraction(16, n - 1) * (1 + 2 * vna(ws)) * a2 * pop.square_sum


def folding_constant(id, n: int, m: int | None = None) -> Fraction:
    """The named constant function on the id's folding path.

    ``garsia_unweighted``: 4 (m/(n-m) + (n-m)/m); minimized near the
    even split, worst over the relevant range at (n, m) = (9, 4) where
    it equals 41/5.

    ``alternating``: 16 n/(n-1) + 18/n, a function of n alone; equals
    305/17 at n = 18.

    ``garsia_weighted``: 16 (2 + m/(n-m) + (n-m)/m + m^2/(n(n-m))
    + (n-m)^2/(n m)); exactly 80 at every even split, 80 + 4/205 at
    (n, m) = (81, 40).
    """
    iid = coerce_enum(InequalityId, id, "inequality id")
    if iid is InequalityId.ALTERNATING:
        if m is not None:
            raise InvalidInputError(
                "the alternating constant depends only on n"
            )
        if n < 2:
            raise DomainError(f"need n >= 2, got {n}")
        return Fraction(16 * n, n - 1) + Fraction(18, n)
    if iid not in (InequalityId.GARSIA_UNWEIGHTED, InequalityId.GARSIA_WEIGHTED):
        raise InvalidInputError(
            f"no folding-constant path for id {iid.value!r}"
        )
    if m is None:
        raise InvalidInputError(f"the {iid.value} constant needs m")
    if not 1 <= m < n:
        raise DomainError(f"need 1 <= m < n, got m={m}, n={n}")
    if iid is InequalityId.GARSIA_UNWEIGHTED:
        return 4 * (Fraction(m, n - m) + Fraction(n - m, m))
    return 16 * (
        2
        + Fraction(m, n - m)
        + Fraction(n - m, m)
        + Fraction(m * m, n * (n - m))
        + Fraction((n - m) ** 2, n * m)
    )


@dataclass(frozen=True)
class InequalityReport:
    """Verification outcome for one (id, population, mode) triple.

    In exact mode ``lhs`` is the true expectation (maximum for
    ``hardy``) over all n! orderings and ``status`` is "holds" or
    "fails".  In Monte Carlo mode ``lhs`` is a float estimate with
    ``stderr`` and ``samples``; ``status`` is "consistent" when
    estimate + 4 stderr <= rhs, "violation-suspected" when estimate -
    4 stderr > rhs, otherwise "inconclusive", and ``holds`` is True
    only for "consistent".  For ``hardy`` in Monte Carlo mode the
    estimate is the sampled maximum (a lower bound on the true one) and
    ``stderr`` is None.
    """

    id: InequalityId
    mode: VerifyMode
    n: int
    lhs: Fraction | float
    rhs: Fraction
    holds: bool
    status: str
    stderr: float | None = None
    samples: int | None = None
    seed: int | None = None
    weights: tuple[Fraction, ...] | None = None
    bridge_m: int | None = None

    def to_dict(self) -> dict:
        return {
            "id": self.id.value,
            "mode": self.mode.value,
            "n": self.n,
            "lhs": (
                format_rational(self.lhs)
                if isinstance(self.lhs, Fraction)
                else self.lhs
            ),
            "rhs": format_rational(self.rhs),
            "holds": self.holds,
            "status": self.status,
            "stderr": self.stderr,
            "samples": self.samples,
            "seed": self.seed,
            "params": {
                "weights": (
                    None
                    if self.weights is None
                    else [format_rational(w) for w in self.weights]
                ),
                "bridge_m": self.bridge_m,
            },
        }


# The integer kernels and the float statistics below restate each id's
# statistic on purpose: they are independent routes that the tests check
# against the Fraction reference ``lhs_statistic``.
#
# Integer kernels: (xs, d, count, ws, m) -> exact LHS over all count = n!
# orderings of the values xs, scaled to integers by their common
# denominator d (weights by e).  Statistics become integer numerators
# over per-k constant denominators, maxima are taken by
# cross-multiplication, and the scale is divided out once at the end.
# The loops stay inline, with no per-step callback, because they run n!
# times.


def _exact_max_averages(xs, d, count, ws, m) -> Fraction:
    n = len(xs)
    k2 = [k * k for k in range(n + 1)]
    acc: dict[int, int] = {}
    for perm in permutations(xs):
        s = 0
        k = 0
        bn = -1
        bd = 1
        for x in perm:
            k += 1
            s += x
            n2 = s * s
            d2 = k2[k]
            if n2 * bd > bn * d2:
                bn = n2
                bd = d2
        acc[bd] = acc.get(bd, 0) + bn
    total = sum((Fraction(v, dk) for dk, v in acc.items()), Fraction(0))
    return total / (count * d * d)


def _exact_garsia_unweighted(xs, d, count, ws, m) -> Fraction:
    total_int = 0
    for perm in permutations(xs):
        s = 0
        best = 0
        for x in perm:
            s += x
            n2 = s * s
            if n2 > best:
                best = n2
        total_int += best
    return Fraction(total_int, count * d * d)


def _exact_quadratic(xs, d, count, ws, m) -> Fraction:
    n = len(xs)
    c1 = n - 1
    dens = [0, 0] + [(c1 * k * (k - 1)) ** 2 for k in range(2, n + 1)]
    acc: dict[int, int] = {}
    for perm in permutations(xs):
        s = 0
        t = 0
        k = 0
        bn = -1
        bd = 1
        for x in perm:
            k += 1
            s += x
            t += x * x
            if k < 2:
                continue
            u = c1 * s * s - (n - k) * t
            n2 = u * u
            d2 = dens[k]
            if n2 * bd > bn * d2:
                bn = n2
                bd = d2
        acc[bd] = acc.get(bd, 0) + bn
    total = sum((Fraction(v, dk) for dk, v in acc.items()), Fraction(0))
    return total / (count * d**4)


def _exact_bridge(xs, d, count, ws, m) -> Fraction:
    two_m = 2 * m
    dd = d * d
    comp = [k * (two_m - k) * dd for k in range(two_m)]
    last = two_m - 1
    total_int = 0
    for perm in permutations(xs):
        s = 0
        best = -1
        for k in range(1, last + 1):
            s += perm[k - 1]
            u = (two_m - 1) * s * s - comp[k]
            n2 = u * u
            if n2 > best:
                best = n2
        total_int += best
    return Fraction(total_int, count * ((two_m - 1) * dd) ** 2)


def _exact_weighted(xs, d, count, ws, m) -> Fraction:
    wsc, e = scaled_integers(ws)
    total_int = 0
    for perm in permutations(xs):
        w = 0
        best = 0
        for a, x in zip(wsc, perm):
            w += a * x
            n2 = w * w
            if n2 > best:
                best = n2
        total_int += best
    return Fraction(total_int, count * (d * e) ** 2)


def _exact_hardy(xs, d, count, ws, m) -> Fraction:
    # max over orderings of sum_k (S_k/k)^2
    n = len(xs)
    big = lcm(*range(1, n + 1))
    mult = [0] + [(big // k) ** 2 for k in range(1, n + 1)]
    best_total = -1
    for perm in permutations(xs):
        s = 0
        tot = 0
        k = 0
        for x in perm:
            k += 1
            s += x
            tot += s * s * mult[k]
        if tot > best_total:
            best_total = tot
    return Fraction(best_total, (big * d) ** 2)


# Float statistics: (n, ws, m) -> vectorized statistic over a (block, n)
# matrix of orderings.


def _float_ks(n: int) -> np.ndarray:
    return np.arange(1, n + 1, dtype=np.float64)


def _float_quadratic(n, ws, m):
    ks = _float_ks(n)
    coef = (n - ks) / (n - 1)
    den = ks * (ks - 1)

    def stat(X: np.ndarray) -> np.ndarray:
        s = np.cumsum(X, axis=1)
        t = np.cumsum(X * X, axis=1)
        vals = (s[:, 1:] ** 2 - coef[1:] * t[:, 1:]) / den[1:]
        return (vals**2).max(axis=1)

    return stat


def _float_bridge(n, ws, m):
    ks = _float_ks(n)
    last = 2 * m - 1
    comp = ks[:last] * (2 * m - ks[:last]) / (2 * m - 1)

    def stat(X: np.ndarray) -> np.ndarray:
        s = np.cumsum(X[:, :last], axis=1)
        return ((s * s - comp) ** 2).max(axis=1)

    return stat


def _float_weighted(n, ws, m):
    a = np.array([float(w) for w in ws])
    return lambda X: (np.cumsum(X * a, axis=1) ** 2).max(axis=1)


@dataclass(frozen=True)
class _Rule:
    """Everything that differs between inequality ids, written once.

    ``weights`` is the weight policy: "none", "given" (the caller must
    pass them) or "alternating" (the fixed signs (-1)^i).  ``bridge``
    means the id needs the ±1 bridge population.  ``rhs(pop, ws, m)`` is
    the closed-form bound.  The reference statistic of one ordering
    reduces ``term(n, m, k, S_k, T_k, W_k)`` over k in ``ks(n, m)`` with
    ``reduce``; ``over_orderings`` says whether the LHS is its mean or
    its max over all orderings.  ``exact`` and ``floats`` are the
    id's integer kernel and float statistic.
    """

    rhs: Callable[[Population, tuple[Fraction, ...] | None, int | None], Fraction]
    term: Callable[..., Fraction]
    exact: Callable[..., Fraction]
    floats: Callable[..., Callable[[np.ndarray], np.ndarray]]
    weights: str = "none"
    bridge: bool = False
    ks: Callable[[int, int | None], range] = lambda n, m: range(1, n + 1)
    reduce: Callable = max
    over_orderings: str = "mean"


def _w_squared(n, m, k, s, t, w) -> Fraction:
    return w * w


_RULES: dict[InequalityId, _Rule] = {
    InequalityId.MAX_AVERAGES: _Rule(
        rhs=lambda pop, ws, m: Fraction(4, pop.n) * pop.square_sum,
        term=lambda n, m, k, s, t, w: (s / k) ** 2,
        exact=_exact_max_averages,
        floats=lambda n, ws, m: lambda X: (
            (np.cumsum(X, axis=1) / _float_ks(n)) ** 2
        ).max(axis=1),
    ),
    InequalityId.GARSIA_UNWEIGHTED: _Rule(
        rhs=lambda pop, ws, m: Fraction(41, 5) * pop.square_sum,
        term=lambda n, m, k, s, t, w: s * s,
        exact=_exact_garsia_unweighted,
        floats=lambda n, ws, m: lambda X: (np.cumsum(X, axis=1) ** 2).max(axis=1),
    ),
    InequalityId.QUADRATIC: _Rule(
        rhs=lambda pop, ws, m: Fraction(4, (pop.n - 1) ** 2)
        * (pop.square_sum**2 - pop.fourth_sum),
        term=lambda n, m, k, s, t, w: (
            (s * s - Fraction(n - k, n - 1) * t) / Fraction(k * (k - 1))
        ) ** 2,
        ks=lambda n, m: range(2, n + 1),
        exact=_exact_quadratic,
        floats=_float_quadratic,
    ),
    InequalityId.BRIDGE: _Rule(
        bridge=True,
        rhs=lambda pop, ws, m: Fraction(128 * m * m),
        term=lambda n, m, k, s, t, w: (
            s * s - Fraction(k * (2 * m - k), 2 * m - 1)
        ) ** 2,
        ks=lambda n, m: range(1, 2 * m),
        exact=_exact_bridge,
        floats=_float_bridge,
    ),
    InequalityId.ALTERNATING: _Rule(
        weights="alternating",
        rhs=lambda pop, ws, m: Fraction(305, 17) * pop.square_sum,
        term=_w_squared,
        exact=_exact_weighted,
        floats=_float_weighted,
    ),
    InequalityId.VNA_WEIGHTED: _Rule(
        weights="given",
        rhs=_vna_weighted_rhs,
        term=_w_squared,
        exact=_exact_weighted,
        floats=_float_weighted,
    ),
    InequalityId.GARSIA_WEIGHTED: _Rule(
        weights="given",
        rhs=lambda pop, ws, m: Fraction(16404, 205)
        * weight_square_sum(ws, pop.n) * pop.square_sum / (pop.n - 1),
        term=_w_squared,
        exact=_exact_weighted,
        floats=_float_weighted,
    ),
    InequalityId.HARDY: _Rule(
        rhs=lambda pop, ws, m: 4 * pop.square_sum,
        term=lambda n, m, k, s, t, w: (s / k) ** 2,
        reduce=sum,
        over_orderings="max",
        exact=_exact_hardy,
        floats=lambda n, ws, m: lambda X: (
            (np.cumsum(X, axis=1) / _float_ks(n)) ** 2
        ).sum(axis=1),
    ),
}


def _mc_lhs(
    rule: _Rule,
    pop: Population,
    ws: tuple[Fraction, ...] | None,
    m: int | None,
    samples: int,
    seed: int,
) -> tuple[float, float | None]:
    """Monte Carlo estimate of the LHS over uniform random orderings.

    Orderings are generated in fixed-size blocks; block i uses the
    generator seeded by SeedSequence((seed, i)), and blocks are reduced
    in index order, so the result is reproducible bit-for-bit for a
    given (seed, samples) regardless of when or where it runs.
    """
    n = pop.n
    base = np.array(pop.as_floats(), dtype=np.float64)
    stat = rule.floats(n, ws, m)
    take_max = rule.over_orderings == "max"
    done = 0
    block = 0
    total = 0.0
    total_sq = 0.0
    running_max = -np.inf
    while done < samples:
        b = min(MC_BLOCK_SIZE, samples - done)
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(entropy=(seed, block)))
        )
        x = rng.permuted(np.tile(base, (b, 1)), axis=1)
        v = stat(x)
        if take_max:
            running_max = max(running_max, float(v.max()))
        else:
            total += float(v.sum())
            total_sq += float((v * v).sum())
        done += b
        block += 1
    if take_max:
        return running_max, None
    mean = total / samples
    if samples < 2:
        return mean, None
    var = max(total_sq - samples * mean * mean, 0.0) / (samples - 1)
    return mean, sqrt(var / samples)


def verify(
    id,
    population: Population | None = None,
    weights: Sequence | None = None,
    bridge_m: int | None = None,
    mode: VerifyMode | str = VerifyMode.EXACT,
    samples: int | None = None,
    seed: int | None = None,
    cutoff: int | None = None,
) -> InequalityReport:
    """Check one inequality and return an :class:`InequalityReport`.

    Exact mode enumerates all n! orderings (subject to the cutoff) and
    decides lhs <= rhs exactly.  Monte Carlo mode needs ``samples`` and
    ``seed`` and reports a verdict that is never stronger than
    "consistent".
    """
    iid, rule, pop, ws, m = _resolve(id, population, weights, bridge_m)
    mode = coerce_enum(VerifyMode, mode, "verification mode")
    rhs = rule.rhs(pop, ws, m)
    n = pop.n
    if mode is VerifyMode.EXACT:
        if samples is not None or seed is not None:
            raise InvalidInputError("samples and seed only apply to Monte Carlo mode")
        ensure_enumerable(n, cutoff, f"exact verification of {iid.value!r}")
        if rule.over_orderings == "max" and n > HARDY_EXACT_LIMIT:
            raise EnumerationLimitError(
                f"exact maximization for {iid.value!r} is provided for "
                f"n <= {HARDY_EXACT_LIMIT} only; use Monte Carlo mode or the "
                f"per-permutation statistic"
            )
        xs, d = scaled_integers(pop.values)
        lhs = rule.exact(xs, d, factorial(n), ws, m)
        stderr = None
        holds = lhs <= rhs
        status = "holds" if holds else "fails"
    else:
        if samples is None or seed is None:
            raise InvalidInputError("Monte Carlo mode needs samples and seed")
        if not isinstance(samples, int) or isinstance(samples, bool) or samples < 1:
            raise InvalidInputError(f"samples must be a positive int, got {samples!r}")
        if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            raise InvalidInputError(f"seed must be a nonnegative int, got {seed!r}")
        try:
            rhs_f = float(rhs)
        except OverflowError:
            raise InvalidInputError(
                f"the {iid.value} bound is beyond float range; Monte Carlo "
                "mode needs values whose statistic fits in a float"
            ) from None
        with np.errstate(over="ignore", invalid="ignore"):
            lhs, stderr = _mc_lhs(rule, pop, ws, m, samples, seed)
        if not isfinite(lhs) or (stderr is not None and not isfinite(stderr)):
            raise InvalidInputError(
                f"the Monte Carlo {iid.value} statistic overflows float range "
                "on this population; rescale the values or use exact mode"
            )
        if rule.over_orderings == "max":
            # sampled maximum: only a violation can ever be concluded
            holds = not lhs > rhs_f
            status = "consistent" if holds else "violation-suspected"
        elif stderr is not None and lhs + 4 * stderr <= rhs_f:
            status = "consistent"
            holds = True
        elif stderr is not None and lhs - 4 * stderr > rhs_f:
            status = "violation-suspected"
            holds = False
        else:
            status = "inconclusive"
            holds = False
    return InequalityReport(
        id=iid,
        mode=mode,
        n=n,
        lhs=lhs,
        rhs=rhs,
        holds=holds,
        status=status,
        stderr=stderr,
        samples=samples,
        seed=seed,
        weights=ws if rule.weights == "given" else None,
        bridge_m=m,
    )
