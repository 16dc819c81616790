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

Exact mode computes the expectation over all n! orderings in integer
arithmetic (values scaled by their common denominator), bit-for-bit an
expectation, not an estimate, without listing the orderings.  The
order-free ids (``max_averages``, ``garsia_unweighted``, ``quadratic``,
``bridge``, ``hardy``) run a chain-count engine over the lattice of the
2^n drawn sets, whose chains are the orderings, keyed by each id's
per-step term, the reference statistic's own.  It walks the sets in
mask order, where every set one item smaller comes first.  Chain counts
per threshold give the mean of the maximum, in passes over fixed-size
chunks of thresholds, so memory is 2^n times a chunk; a max-plus
recursion over the same lattice gives the ``hardy`` maximum.  The
weighted ids (``alternating`` with its fixed signs, ``vna_weighted``,
``garsia_weighted``) meet in the middle: the first n - n//2 draws are
walked forward and the last n//2 back from the end, each half merged by
its state, and the halves on complementary drawn sets are joined by
sorted sums.  All refuse n above the enumeration cutoff (default 10,
hard maximum 12).  Monte Carlo mode samples uniformly random orderings
in floating point with a block-seeded generator, so results are
reproducible bit-for-bit for a fixed seed and sample count.  A Monte
Carlo run can never prove an inequality: its verdict is "consistent",
"inconclusive", or "violation-suspected".
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import partial
from itertools import accumulate
from math import factorial, isfinite, sqrt
from operator import itemgetter
from typing import Callable, NamedTuple, Sequence

from .choices import InequalityId, VerifyMode
from .errors import (
    DomainError,
    InvalidInputError,
    PreconditionError,
    coerce_enum,
)
from .population import (
    Population,
    _drawn_set_table,
    _lattice,
    bridge_parameter,
    ensure_enumerable,
    make_bridge_population,
    validate_permutation,
)
from .rationals import float_values, format_rational, fraction_sequence, scaled_integers
from .weights import alternating_weights, validate_weights

MC_BLOCK_SIZE = 1 << 16
# the floats (samples x n) above which a Monte Carlo run is refused:
# about 150 s of sampling, 950 times the largest benchmark call
MC_MAX_FLOATS = 10**10
# the floats of one Monte Carlo chunk (2 MiB); at least one ordering is held
_MC_CHUNK_FLOATS = 1 << 18
# the fewest orderings a chunk holds (n <= 512) for its statistic to run
# across orderings, one add per k; below about 300 (n about 800-1,000)
# the call per k costs more than a cumsum down each ordering, so a
# narrower chunk keeps an ordering contiguous
_MC_WIDE_CHUNK = 512
# the thresholds of one pass of the chain-count engine
_CHAIN_CHUNK = 256


def _resolve(
    id,
    population: Population | None,
    weights: Sequence | None,
    bridge_m: int | None,
) -> tuple[InequalityId, _Rule, Population, tuple[Fraction, ...] | None]:
    """Validate the (id, population, weights, bridge_m) combination.

    Returns the id's rule record, the population (the bridge's built
    from bridge_m when none is given) and the effective weights (the
    fixed alternating signs for ``alternating``).
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
        return iid, rule, population, None
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
        return iid, rule, population, validate_weights(weights, population.n)
    if weights is not None:
        detail = "; its signs (-1)^i are fixed" if rule.weights == "alternating" else ""
        raise InvalidInputError(
            f"the {iid.value} inequality takes no weights{detail}"
        )
    if rule.weights == "alternating":
        return iid, rule, population, alternating_weights(population.n)
    return iid, rule, population, None


def needs_weights(id) -> bool:
    """Whether the id's run needs caller-given weights, one per item."""
    return _RULES[coerce_enum(InequalityId, id, "inequality id")].weights == "given"


def lhs_statistic(
    id,
    population: Population | None,
    permutation: Sequence[int],
    weights: Sequence | None = None,
    bridge_m: int | None = None,
) -> Fraction:
    """Exact per-permutation path statistic, the reference route.

    This straightforward rational evaluation of the id's per-step term
    is kept independent of the integer exact engines and the
    float statistics so each can check the other.
    """
    iid, rule, pop, ws = _resolve(id, population, weights, bridge_m)
    n = pop.n
    perm = validate_permutation(permutation, n)
    ks = rule.ks(n)
    s = t = w = Fraction(0)
    terms = []
    for k in range(1, ks.stop):
        x = pop.values[perm[k - 1] - 1]
        s += x
        t += x * x
        if ws is not None:
            w += ws[k - 1] * x
        if k in ks:
            terms.append(rule.term(n, k, s, t, w))
    return rule.reduce(terms)


def vna(weights: Sequence) -> Fraction:
    """Cancelation measure of a weight sequence:
    max_{1<=k<=n-1} alpha_1(k)^2 / alpha_2(n).

    Small when prefix sums of the weights stay near zero (alternating
    signs give 1/n), large when they accumulate (all-ones gives
    (n-1)^2/n).
    """
    ws = fraction_sequence(tuple(weights))
    if len(ws) < 2:
        raise InvalidInputError("need at least two weights")
    a2, peak = _weight_squares(ws)
    if a2 == 0:
        raise DomainError("the cancelation measure needs a nonzero weight")
    return peak / a2


def _weight_squares(ws: Sequence[Fraction]) -> tuple[Fraction, Fraction]:
    """alpha_2(n) and max_{1<=k<=n-1} alpha_1(k)^2, in one pass over ints."""
    wsc, d = scaled_integers(ws)
    peak = max(a * a for a in accumulate(wsc[:-1]))
    return Fraction(sum(w * w for w in wsc), d * d), Fraction(peak, d * d)


def rhs_value(
    id,
    population: Population | None = None,
    weights: Sequence | None = None,
    bridge_m: int | None = None,
) -> Fraction:
    """Exact right-hand side for an inequality id."""
    iid, rule, pop, ws = _resolve(id, population, weights, bridge_m)
    return rule.rhs(pop, ws)


def _vna_weighted_rhs(pop: Population, ws) -> Fraction:
    # 16/(n-1) (1 + 2 vna) alpha_2(n) B, and vna alpha_2(n) is the peak
    a2, peak = _weight_squares(ws)
    if a2 == 0:
        raise DomainError("the vna_weighted bound needs a nonzero weight")
    return Fraction(16, pop.n - 1) * (a2 + 2 * peak) * pop.square_sum


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
    fold = _RULES[iid].folding
    if fold is None:
        raise InvalidInputError(
            f"no folding-constant path for id {iid.value!r}"
        )
    return fold(iid.value, n, m)


def _alternating_folding(name: str, n: int, m: int | None) -> Fraction:
    if m is not None:
        raise InvalidInputError(f"the {name} constant depends only on n")
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    return Fraction(16 * n, n - 1) + Fraction(18, n)


def _split_folding(form: Callable[[int, int], Fraction]) -> Callable:
    """A folding path over the split (n, m): check m, then ``form(n, m)``."""

    def fold(name: str, n: int, m: int | None) -> Fraction:
        if m is None:
            raise InvalidInputError(f"the {name} constant needs m")
        if not 1 <= m < n:
            raise DomainError(f"need 1 <= m < n, got m={m}, n={n}")
        return form(n, m)

    return fold


class InequalityReport(NamedTuple):
    """Verification outcome for one (id, population, mode) triple.

    In exact mode ``lhs`` is the true expectation (maximum for
    ``hardy``) over all n! orderings and ``status`` is "holds" or
    "fails".  In Monte Carlo mode ``lhs`` is a float estimate with
    ``stderr`` and ``samples``; ``status`` is "consistent" when
    estimate + 4 stderr <= rhs, "violation-suspected" when estimate -
    4 stderr > rhs, otherwise "inconclusive".  For ``hardy`` in Monte
    Carlo mode the estimate is the sampled maximum (a lower bound on the
    true one) and ``stderr`` is None.
    """

    id: InequalityId
    mode: VerifyMode
    n: int
    lhs: Fraction | float
    rhs: Fraction
    status: str
    stderr: float | None = None
    samples: int | None = None
    seed: int | None = None
    weights: tuple[Fraction, ...] | None = None

    @property
    def bridge_m(self) -> int | None:
        """m of the ±1 bridge population, for the bridge id only."""
        return self.n // 2 if _RULES[self.id].bridge else None

    @property
    def holds(self) -> bool:
        """True for "holds" (exact) and "consistent" (Monte Carlo)."""
        return self.status in ("holds", "consistent")

    def to_dict(self) -> dict:
        return {
            "id": self.id.value,
            "mode": self.mode.value,
            "n": self.n,
            "lhs": format_rational(self.lhs) if isinstance(self.lhs, Fraction) else self.lhs,
            "rhs": format_rational(self.rhs),
            "holds": self.holds,
            "status": self.status,
            "stderr": self.stderr,
            "samples": self.samples,
            "seed": self.seed,
            "params": {
                "weights": (None if self.weights is None
                            else [format_rational(w) for w in self.weights]),
                "bridge_m": self.bridge_m,
            },
        }


# Exact engines run on the values xs scaled to integers by their common
# denominator d (weights by e); a statistic becomes an integer on one
# denominator per id, divided out once at the end.  The order-free ids run
# the chain-count engine on the subset lattice that the martingale checker
# walks too, ``population._lattice``: an ordering is a chain of drawn sets
# from the empty set to the full one, one item a step, and a set is its
# mask, so that every set one item smaller comes first in mask order.  A
# set's key is its entry in column 0 of the drawn-set table, the id's
# ``term`` at its sums; 0, the least key, outside the id's k-range passes
# every threshold and adds 0 to a chain sum.  An id with weights
# (``alternating``'s fixed signs or given ones), whose W_k depends on the
# order of the draws, runs the split walk ``_exact_weighted``: (xs, d,
# count, ws) -> the LHS over all count = n! orderings.  It and the float
# statistics restate each id's statistic on purpose: they are independent
# routes that the tests check against ``lhs_statistic``.


def _chain_mean(n, keys, count, den) -> Fraction:
    # E max = (1/count) sum_j v_j (C_j - C_{j-1}) over the sorted distinct
    # keys v_j (``keys`` by mask), where C_j counts the chains whose keys
    # are all <= v_j.  Each chunk of _CHAIN_CHUNK thresholds is one pass in
    # mask order, so memory is 2^n x chunk.  A set's count packs, slot j at
    # bit j*width, its chains from the empty set whose keys all pass
    # threshold j (no count exceeds ``count``, so no slot carries): the sum
    # of its predecessors' counts, with the slots below its key's rank r
    # cleared, or 0 when r is past the chunk.
    values = sorted(set(keys))
    rank = {v: j for j, v in enumerate(values)}
    steps = list(zip(_lattice(n)[0][1:], [rank[v] for v in keys[1:]]))
    width = count.bit_length()
    slot = (1 << width) - 1
    total = below = 0
    for lo in range(0, len(values), _CHAIN_CHUNK):
        hi = min(lo + _CHAIN_CHUNK, len(values))
        # shifts[r] drops the slots of the thresholds that key rank r fails
        shifts = [0] * lo + [j * width for j in range(hi - lo)]
        cur = [((1 << (width * (hi - lo))) - 1) // slot]
        append = cur.append
        for get, r in steps:
            append(sum(get(cur)) >> shifts[r] << shifts[r] if r < hi else 0)
        full = cur[-1]  # the full set's
        for v in values[lo:hi]:
            passing = full & slot
            total += v * (passing - below)
            below = passing
            full >>= width
    return Fraction(total, count * den)


def _chain_max(n, keys, count, den) -> Fraction:
    # the largest chain sum of the keys (``keys`` by mask), by the max-plus
    # recursion of Held and Karp: best(D) = key(D) + max over its
    # predecessors
    best = [0]
    append = best.append
    for get, v in zip(_lattice(n)[0][1:], keys[1:]):
        append(max(get(best)) + v)
    return Fraction(best[-1], den)


def _on_lattice(rule, xs, d, count) -> Fraction:
    # a drawn set's key is its entry in column 0 of the drawn-set table: the
    # term, run once per layer k on formal S_k and T_k, at the set's sums
    # over one common denominator
    n = len(xs)
    den, table = _drawn_set_table(xs, d, lambda k, s, t: rule.term(n, k, s, t, None),
                                  rule.ks(n))
    engine = _chain_max if rule.over_orderings == "max" else _chain_mean
    return engine(n, table[0], count, den)


def _half_walk(xs, wsc, step):
    # {drawn set: {step's pair: orderings}} after draws weighted by wsc
    layer = {0: {(0, 0): 1}}
    for a in wsc:
        items = [(1 << i, a * x) for i, x in enumerate(xs)]
        nxt: dict[int, dict[tuple[int, int], int]] = {}
        for drawn, states in layer.items():
            for bit, v in items:
                if not drawn & bit:
                    out = nxt.setdefault(drawn | bit, {})
                    for (p, q), c in states.items():
                        key = step(v, p, q)
                        out[key] = out.get(key, 0) + c
        layer = nxt
    return layer


def _by_arm(rows, at):
    # rows (h, g, k) sorted by t = row[at], and suffix sums of k, k t, k t^2
    rows = sorted(rows, key=itemgetter(at))
    sums = [[*accumulate((r[2] * r[at] ** p for r in reversed(rows)), initial=0)][::-1]
            for p in range(3)]
    return [r[at] for r in rows], rows, *sums


def _exact_weighted(xs, d, count, ws) -> Fraction:
    # meet in the middle (after Horowitz and Sahni): the first m = n - n//2
    # draws forward, to (D, w = W_m, b = max_{k<=m} |W_k|), the last n//2
    # back from the end, to (R, h, g), the most the tail's partial sums rise
    # and fall, at least 0.  Then max_k |W_k| = max(b, w + h, g - w), whose
    # square is b^2, plus (w + h)^2 - b^2 where h > b - w and (g - w)^2 - b^2
    # where g > b + w (suffix sums), less the smaller where both hold
    wsc, e = scaled_integers(ws)
    n = len(xs)
    m = n - n // 2
    tail = _half_walk(xs, wsc[:m - 1:-1], lambda v, h, g: (max(0, h + v), max(0, g - v)))
    head = _half_walk(xs, wsc[:m],
                      lambda v, w, b: ((u := w + v), b if -b <= u <= b else abs(u)))
    full = (1 << n) - 1
    total = 0
    for drawn, states in head.items():
        rows = [(*hg, k) for hg, k in tail.pop(full ^ drawn).items()]
        (hs, hrows, h0, h1, h2), (gs, grows, g0, g1, g2) = _by_arm(rows, 0), _by_arm(rows, 1)
        for (w, b), c in states.items():
            bb = b * b
            i, j = bisect_right(hs, b - w), bisect_right(gs, b + w)
            s = (h0[0] * bb + (h0[i] + g0[j]) * (w * w - bb) + 2 * w * (h1[i] - g1[j])
                 + h2[i] + g2[j])
            for h, g, k in hrows[i:] if len(hs) - i < len(gs) - j else grows[j:]:
                if h > b - w and g > b + w:
                    u = w + h if h + w <= g - w else g - w
                    s -= k * (u * u - bb)
            total += c * s
    return Fraction(total, count * (d * e) ** 2)


# Float statistics: (n, ws) -> the per-k terms of an (n, orderings) chunk,
# a row per k in the id's k-range and a column per ordering, for
# ``_mc_lhs`` to reduce over k by the id's ``reduce``.  ``_float_squares``
# serves the six ids whose term is a running sum squared (over k for
# ``max_averages`` and ``hardy``, weighted for the three weighted ids);
# ``quadratic`` and ``bridge`` have their own.  Each works in place on its
# argument, so a run holds one chunk at a time.  ``_prefix_sums``
# adds row k-1 into row k across every ordering at once; these are the
# adds of a row-wise ``np.cumsum``, in the same order, and every other
# operation is elementwise, so the values keep every bit.  numpy is
# imported here and in ``_mc_lhs`` only, not by exact routes.


def _prefix_sums(Y):
    """Running sums down axis 0, in place: S_k = S_{k-1} + x_k."""
    import numpy as np

    if Y.strides[0] == Y.itemsize:
        # each ordering contiguous (a narrow chunk): one cumsum a column
        np.cumsum(Y, axis=0, out=Y)
    else:
        for k in range(1, len(Y)):
            np.add(Y[k - 1], Y[k], out=Y[k])


def _float_squares(n, ws, over_k=False):
    """W_k^2: the running sum, of the draws scaled by the weights when there
    are any, divided by k when ``over_k``, then squared."""
    import numpy as np

    a = None if ws is None else np.array(float_values(ws, "a weight"))[:, None]
    ks = np.arange(1, n + 1, dtype=np.float64)[:, None] if over_k else None

    def stat(Y):
        if a is not None:
            Y *= a
        _prefix_sums(Y)
        if ks is not None:
            Y /= ks
        Y *= Y
        return Y

    return stat


def _float_quadratic(n, ws):
    import numpy as np

    ks = np.arange(2, n + 1, dtype=np.float64)[:, None]
    coef = (n - ks) / (n - 1)
    den = ks * (ks - 1)

    def stat(Y):
        # T_k needs a second chunk beside S_k
        t = Y * Y
        _prefix_sums(t)
        _prefix_sums(Y)
        s, t = Y[1:], t[1:]
        s *= s
        t *= coef
        s -= t
        s /= den
        s *= s
        return s

    return stat


def _float_bridge(n, ws):
    import numpy as np

    ks = np.arange(1, n, dtype=np.float64)[:, None]
    comp = ks * (n - ks) / (n - 1)

    def stat(Y):
        s = Y[: n - 1]
        _prefix_sums(s)
        s *= s
        s -= comp
        s *= s
        return s

    return stat


def _all_ks(n: int) -> range:
    return range(1, n + 1)


class _Rule(NamedTuple):
    """Everything that differs between inequality ids, written once.

    ``weights`` is the weight policy: "none", "given" (the caller must
    pass them) or "alternating" (the fixed signs (-1)^i).  ``bridge``
    means the id needs the ±1 bridge population, whose m is n/2.
    ``rhs(pop, ws)`` is the closed-form bound.  ``reduce`` (max or sum)
    reduces ``term(n, k, S_k, T_k, W_k)`` over k in ``ks(n)``, for the
    reference statistic of one ordering and for each column of float
    terms in ``_mc_lhs``; the LHS is their mean or max (``over_orderings``)
    over all orderings.  Exact mode runs the split walk when ``_resolve``
    returns weights, and otherwise the chain-count engine, keyed by
    ``term``.  ``floats(n, ws)`` maps an (n, orderings) numpy array, an
    ordering a column, to their per-k terms, a row per k.  ``folding`` is
    the constant on the id's folding path, if it has one.
    """

    rhs: Callable[[Population, tuple[Fraction, ...] | None], Fraction]
    term: Callable[..., Fraction]
    floats: Callable[..., Callable]
    weights: str = "none"
    bridge: bool = False
    ks: Callable[[int], range] = _all_ks
    reduce: Callable = max
    over_orderings: str = "mean"
    folding: Callable[[str, int, int | None], Fraction] | None = None


def _average_squared(n, k, s, t, w) -> Fraction:
    return (s / k) ** 2


def _w_squared(n, k, s, t, w) -> Fraction:
    return w * w


_RULES: dict[InequalityId, _Rule] = {
    InequalityId.MAX_AVERAGES: _Rule(
        rhs=lambda pop, ws: Fraction(4, pop.n) * pop.square_sum,
        term=_average_squared,
        floats=partial(_float_squares, over_k=True),
    ),
    InequalityId.GARSIA_UNWEIGHTED: _Rule(
        rhs=lambda pop, ws: Fraction(41, 5) * pop.square_sum,
        term=lambda n, k, s, t, w: s * s,
        floats=_float_squares,
        folding=_split_folding(lambda n, m: 4 * (Fraction(m, n - m) + Fraction(n - m, m))),
    ),
    InequalityId.QUADRATIC: _Rule(
        rhs=lambda pop, ws: Fraction(4, (pop.n - 1) ** 2)
        * (pop.square_sum**2 - pop.fourth_sum),
        term=lambda n, k, s, t, w: (
            (s * s - Fraction(n - k, n - 1) * t) / Fraction(k * (k - 1))) ** 2,
        ks=lambda n: range(2, n + 1),
        floats=_float_quadratic,
    ),
    InequalityId.BRIDGE: _Rule(
        bridge=True,
        rhs=lambda pop, ws: Fraction(32 * pop.n * pop.n),
        term=lambda n, k, s, t, w: (s * s - Fraction(k * (n - k), n - 1)) ** 2,
        ks=lambda n: range(1, n),
        floats=_float_bridge,
    ),
    InequalityId.ALTERNATING: _Rule(
        weights="alternating",
        rhs=lambda pop, ws: Fraction(305, 17) * pop.square_sum,
        term=_w_squared,
        floats=_float_squares,
        folding=_alternating_folding,
    ),
    InequalityId.VNA_WEIGHTED: _Rule(
        weights="given",
        rhs=_vna_weighted_rhs,
        term=_w_squared,
        floats=_float_squares,
    ),
    InequalityId.GARSIA_WEIGHTED: _Rule(
        weights="given",
        rhs=lambda pop, ws: Fraction(16404, 205)
        * _weight_squares(ws)[0] * pop.square_sum / (pop.n - 1),
        term=_w_squared,
        floats=_float_squares,
        folding=_split_folding(lambda n, m: 16 * (
            2 + Fraction(m, n - m) + Fraction(n - m, m) + Fraction(m * m, n * (n - m))
            + Fraction((n - m) ** 2, n * m))),
    ),
    InequalityId.HARDY: _Rule(
        rhs=lambda pop, ws: 4 * pop.square_sum,
        term=_average_squared,
        reduce=sum,
        over_orderings="max",
        floats=partial(_float_squares, over_k=True),
    ),
}


def _mc_lhs(
    rule: _Rule,
    pop: Population,
    ws: tuple[Fraction, ...] | None,
    samples: int,
    seed: int,
) -> tuple[float, float | None]:
    """Monte Carlo estimate of the LHS over uniform random orderings.

    Orderings are generated in fixed-size blocks; block i uses the
    generator seeded by SeedSequence((seed, i)), and blocks are reduced
    in index order, so the result is reproducible bit-for-bit for a
    given (seed, samples) regardless of when or where it runs.  A block
    is never held whole: one buffer of about ``_MC_CHUNK_FLOATS`` floats
    is refilled, permuted and reduced in place one chunk at a time, an
    (n, orderings) view with an ordering a column, each column's terms
    by the rule's ``reduce``, into the block's vector of per-ordering
    values.  ``permuted`` draws from the stream column by column, so the
    chunks see exactly the orderings of the whole block.  A chunk of at
    least ``_MC_WIDE_CHUNK`` orderings is laid out k-major, so that each
    step of the running sums is one add across its orderings; a narrower
    one keeps each ordering contiguous.  A MemoryError from the float
    image of the values on, the statistic's own arrays included, is
    refused as a block that does not fit.
    """
    import numpy as np

    n = pop.n
    take_max = rule.over_orderings == "max"
    width = max(1, min(samples, MC_BLOCK_SIZE, _MC_CHUNK_FLOATS // n))
    order = "C" if width >= _MC_WIDE_CHUNK else "F"
    done = 0
    block = 0
    total = 0.0
    total_sq = 0.0
    running_max = -np.inf
    try:
        base = np.array(pop.as_floats(), dtype=np.float64)[:, None]
        stat = rule.floats(n, ws)
        with np.errstate(over="ignore", invalid="ignore"):
            buffer = np.empty((width | 1) * n)
            values = np.empty(min(samples, MC_BLOCK_SIZE))
            while done < samples:
                b = min(MC_BLOCK_SIZE, samples - done)
                rng = np.random.Generator(
                    np.random.PCG64(np.random.SeedSequence(entropy=(seed, block)))
                )
                for lo in range(0, b, width):
                    m = min(width, b - lo)
                    # an odd row stride: a power-of-two one maps a k-major
                    # column onto few cache sets, and ``permuted`` ran 40%
                    # slower, ``hardy``'s transpose 6 times
                    y = buffer[: n * (m | 1)].reshape((n, m | 1), order=order)[:, :m]
                    y[...] = base
                    rng.permuted(y, axis=0, out=y)
                    terms = stat(y)
                    if rule.reduce is sum:
                        # numpy sums a contiguous row pairwise: the same
                        # rows, and so the same bits, as one ordering a row
                        np.sum(np.ascontiguousarray(terms.T), axis=1,
                               out=values[lo : lo + m])
                    else:
                        np.max(terms, axis=0, out=values[lo : lo + m])
                v = values[:b]
                if take_max:
                    running_max = max(running_max, float(v.max()))
                else:
                    total += float(v.sum())
                    total_sq += float((v * v).sum())
                done += b
                block += 1
    except MemoryError:
        raise InvalidInputError(
            f"a Monte Carlo block of {width} x {n} floats "
            f"({width * n / 2**27:.2f} GiB) does not fit in memory; "
            "use fewer samples or a smaller population"
        ) from None
    if take_max:
        return running_max, None
    mean = total / samples
    if samples < 2:
        return mean, None
    var = max(total_sq - samples * mean * mean, 0.0) / (samples - 1)
    return mean, sqrt(var / samples)


def ensure_runnable(id, n: int, mode, samples=None, seed=None, cutoff=None) -> None:
    """Refuse an inequality run over n items that ``verify`` would not do:
    an exact run above the cutoff; a Monte Carlo run above MC_MAX_FLOATS
    floats (samples x n, one sample counted when ``samples`` is not a
    positive int), then one without a positive int ``samples`` and a
    nonnegative int ``seed``.  Every entry point calls it on the size it
    knows before any population is parsed, drawn or built."""
    iid = coerce_enum(InequalityId, id, "inequality id")
    if mode is VerifyMode.EXACT:
        ensure_enumerable(
            n, cutoff, f"exact verification of {iid.value!r}", "use Monte Carlo mode"
        )
        return
    count = samples if isinstance(samples, int) and samples > 0 else 1
    if count * n > MC_MAX_FLOATS:
        raise InvalidInputError(
            f"a Monte Carlo run over n={n} items permutes samples x n = "
            f"{count} x {n} floats, above the limit of {MC_MAX_FLOATS:,}; "
            "use fewer samples or a smaller population"
        )
    if samples is None or seed is None:
        raise InvalidInputError("Monte Carlo mode needs samples and seed")
    if not isinstance(samples, int) or isinstance(samples, bool) or samples < 1:
        raise InvalidInputError(f"samples must be a positive int, got {samples!r}")
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise InvalidInputError(f"seed must be a nonnegative int, got {seed!r}")


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

    Exact mode computes the LHS as an exact expectation (maximum for
    ``hardy``) over the n! orderings without listing them, subject to
    the cutoff: the chain-count engine over the subset lattice serves the
    order-free ids, in memory bounded by its threshold chunk, and a walk
    split at n//2 draws from the end, its two halves joined by drawn set,
    serves the weighted ids, ``alternating`` among them.  It decides
    lhs <= rhs exactly.  Monte Carlo mode needs ``samples`` and ``seed``,
    refuses more than MC_MAX_FLOATS floats (samples x n), samples in
    chunks that hold an ordering a column, and reports a verdict that is
    never stronger than "consistent".  Both modes ask
    :func:`ensure_runnable` first, on ``population.n`` or on 2 x
    ``bridge_m``, so that a refused run builds nothing.
    """
    iid = coerce_enum(InequalityId, id, "inequality id")
    mode = coerce_enum(VerifyMode, mode, "verification mode")
    # refused before any sum of the population is read, and before a
    # bridge's 2m items are built; without either, _resolve refuses
    if population is not None:
        ensure_runnable(iid, population.n, mode, samples, seed, cutoff)
    elif _RULES[iid].bridge and isinstance(bridge_m, int):
        ensure_runnable(iid, 2 * bridge_m, mode, samples, seed, cutoff)
    iid, rule, pop, ws = _resolve(iid, population, weights, bridge_m)
    rhs = rule.rhs(pop, ws)
    n = pop.n
    if mode is VerifyMode.EXACT:
        if samples is not None or seed is not None:
            raise InvalidInputError("samples and seed only apply to Monte Carlo mode")
        xs, d = pop.scaled
        count = factorial(n)
        lhs = _on_lattice(rule, xs, d, count) if ws is None else _exact_weighted(xs, d, count, ws)
        stderr = None
        status = "holds" if lhs <= rhs else "fails"
    else:
        try:
            rhs_f = float(rhs)
        except OverflowError:
            raise InvalidInputError(
                f"the {iid.value} bound is beyond float range; Monte Carlo "
                "mode needs values whose statistic fits in a float"
            ) from None
        lhs, stderr = _mc_lhs(rule, pop, ws, samples, seed)
        if not isfinite(lhs) or (stderr is not None and not isfinite(stderr)):
            what = "statistic" if not isfinite(lhs) else "statistic's standard error"
            raise InvalidInputError(
                f"the Monte Carlo {iid.value} {what} overflows float range "
                "on this population; rescale the values or use exact mode"
            )
        if rule.over_orderings == "max":
            # sampled maximum: only a violation can ever be concluded
            status = "violation-suspected" if lhs > rhs_f else "consistent"
        elif stderr is not None and lhs + 4 * stderr <= rhs_f:
            status = "consistent"
        elif stderr is not None and lhs - 4 * stderr > rhs_f:
            status = "violation-suspected"
        else:
            status = "inconclusive"
    return InequalityReport(
        id=iid,
        mode=mode,
        n=n,
        lhs=lhs,
        rhs=rhs,
        status=status,
        stderr=stderr,
        samples=samples,
        seed=seed,
        weights=ws if rule.weights == "given" else None,
    )
