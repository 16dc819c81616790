import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permartingale import (
    DomainError,
    EnumerationLimitError,
    InequalityId,
    InvalidInputError,
    PreconditionError,
    VerifyMode,
    alternating_weights,
    folding_constant,
    lhs_statistic,
    make_bridge_population,
    make_population,
    random_centered_population,
    rhs_value,
    verify,
    vna,
)

from independent_routes import HAND_SCALED_KEYS, mean_over_orderings

FOUR = make_population([1, -1, 2, -2])

WEIGHTED_IDS = (InequalityId.VNA_WEIGHTED, InequalityId.GARSIA_WEIGHTED)

MEAN_IDS = (
    InequalityId.MAX_AVERAGES,
    InequalityId.GARSIA_UNWEIGHTED,
    InequalityId.QUADRATIC,
    InequalityId.ALTERNATING,
    InequalityId.VNA_WEIGHTED,
    InequalityId.GARSIA_WEIGHTED,
)


def weights_for(iid, n, rng):
    if iid in WEIGHTED_IDS:
        while True:
            ws = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
            if any(ws):
                return ws
    return None


# repeated values and zeros, so that distinct subsets share keys
TIED = tuple(
    make_population(v)
    for v in ([0, 0], [1, 1, -2], [0, 2, -2, 0], [1, 1, 1, -1, -1, -1],
              [0, 2, 2, -1, -1, -1, -1])
)


def populations_n2_to_n7():
    rng = random.Random(500)
    return [random_centered_population(n, rng) for n in range(2, 7)] + list(TIED)


def reference_lhs(iid, pop, ws=None, m=None):
    """Mean (max for hardy) of the Fraction reference statistic over
    every ordering."""
    values = [
        lhs_statistic(iid, pop, perm, weights=ws, bridge_m=m)
        for perm in itertools.permutations(range(1, pop.n + 1))
    ]
    if iid is InequalityId.HARDY:
        return max(values)
    return sum(values, Fraction(0)) / math.factorial(pop.n)


def test_exact_engine_agrees_with_reference_statistic():
    rng = random.Random(506)
    for pop in populations_n2_to_n7():
        n = pop.n
        for iid in MEAN_IDS:
            ws = weights_for(iid, n, rng)
            report = verify(iid, population=pop, weights=ws)
            assert report.lhs == reference_lhs(iid, pop, ws), (iid, pop.values)
            assert report.rhs == rhs_value(iid, pop, weights=ws)
            assert report.holds and report.status == "holds"


def test_exact_engine_agrees_on_bridges():
    for m in (1, 2, 3):
        report = verify(InequalityId.BRIDGE, bridge_m=m)
        pop = make_bridge_population(m)
        assert report.lhs == reference_lhs(InequalityId.BRIDGE, pop, m=m)
        assert report.rhs == 128 * m * m


def test_exact_hardy_is_the_maximum_over_orderings():
    for pop in populations_n2_to_n7():
        report = verify(InequalityId.HARDY, population=pop)
        assert report.lhs == reference_lhs(InequalityId.HARDY, pop), pop.values
        assert report.rhs == 4 * pop.square_sum
        assert report.holds


def _key_grid(n, rng):
    # centered p/q values, |p| <= 99 and q <= 7 ones, repeated values and
    # 1/p for distinct primes p, whose common denominators grow large
    primes = (2, 3, 5, 7, 11, 13, 17, 19)
    heads = (
        [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n - 1)],
        [Fraction(rng.randint(-99, 99), rng.randint(1, 7)) for _ in range(n - 1)],
        [Fraction(rng.choice((-2, -1, 0, 1, 3))) for _ in range(n - 1)],
        [Fraction(rng.choice((-1, 1)), p) for p in primes[: n - 1]],
    )
    return [make_population(head + [-sum(head, Fraction(0))]) for head in heads]


def test_lattice_keys_are_the_hand_scaled_keys_on_a_seeded_grid(monkeypatch):
    # The labelled independent route: the hand-scaled keys of
    # independent_routes against the keys that the chain-count engine
    # derives from each order-free rule's term, recorded as verify runs,
    # set for set up to the two common scales (key * hand_den == hand_key
    # * den), and 0, the least key, outside the id's k-range, read from the
    # table's column 0 as the engine reads it; each drawn set's sums are
    # recomputed here from its items.  The chain-count engine on the hand
    # keys gives verify's LHS.  n = 2..9 on four populations each, and the
    # bridge at m = 1..5.
    from permartingale import inequalities

    seen = []
    real = inequalities._drawn_set_table
    monkeypatch.setattr(inequalities, "_drawn_set_table",
                        lambda *a: seen.append(real(*a)) or seen[-1])
    rng = random.Random(29)
    cases = [(iid, pop) for n in range(2, 10) for pop in _key_grid(n, rng)
             for iid in HAND_SCALED_KEYS if iid is not InequalityId.BRIDGE]
    cases += [(InequalityId.BRIDGE, make_bridge_population(m)) for m in range(1, 6)]
    compared = 0
    for iid, pop in cases:
        seen.clear()
        lhs = verify(iid, population=pop).lhs
        (den, table), = seen
        keys = table[0]
        n, (factory, ks) = pop.n, HAND_SCALED_KEYS[iid]
        d = math.lcm(*(x.denominator for x in pop.values))
        xs = [int(x * d) for x in pop.values]
        key, hand_den = factory(n, d)
        hand = [0] * (1 << n)
        for mask in range(1 << n):
            items = [x for i, x in enumerate(xs) if mask >> i & 1]
            if len(items) in ks(n):
                hand[mask] = key(len(items), sum(items), sum(x * x for x in items))
                assert keys[mask] * hand_den == hand[mask] * den, (iid, pop.values, mask)
                compared += 1
            else:
                assert keys[mask] == 0, (iid, pop.values, mask)
        engine = (inequalities._chain_max if iid is InequalityId.HARDY
                  else inequalities._chain_mean)
        assert engine(n, hand, math.factorial(n), hand_den) == lhs, iid
    # every nonempty set of n = 2..9 (quadratic's from k = 2) on the four
    # populations, and the bridges' sets but the empty and the full one
    assert len(cases) == 133 and compared == 4 * (3 * 1012 + 968) + 1354


centered_rationals = st.lists(
    st.fractions(min_value=-5, max_value=5, max_denominator=4),
    min_size=1,
    max_size=5,
).map(lambda head: head + [-sum(head, Fraction(0))])


@settings(max_examples=20, deadline=None)
@given(
    values=centered_rationals,
    weights=st.lists(st.integers(-3, 3), min_size=6, max_size=6),
    m=st.integers(1, 3),
)
def test_every_exact_lhs_is_the_reference_over_orderings(values, weights, m):
    pop = make_population(values)
    ws = [Fraction(w) for w in weights[: pop.n]]
    if not any(ws):
        ws[0] = Fraction(1)
    for iid in InequalityId:
        if iid is InequalityId.BRIDGE:
            report = verify(iid, bridge_m=m)
            want = reference_lhs(iid, make_bridge_population(m), m=m)
        else:
            given_ws = ws if iid in WEIGHTED_IDS else None
            report = verify(iid, population=pop, weights=given_ws)
            want = reference_lhs(iid, pop, given_ws)
        assert report.lhs == want, (iid, values)


def test_exact_engine_at_n12_against_the_sign_sequences():
    # every sign sequence of the ±1 population with m = 6 stands for
    # 6!·6! orderings, so the mean (for hardy, the max) over the C(12, 6)
    # sequences is the mean (max) over the 12! orderings
    pop = make_bridge_population(6)
    ones = [i + 1 for i, v in enumerate(pop.values) if v == 1]
    minus = [i + 1 for i, v in enumerate(pop.values) if v == -1]
    perms = []
    for up in itertools.combinations(range(12), 6):
        plus, neg = iter(ones), iter(minus)
        perms.append([next(plus) if k in up else next(neg) for k in range(12)])
    for iid in (
        InequalityId.MAX_AVERAGES,
        InequalityId.GARSIA_UNWEIGHTED,
        InequalityId.QUADRATIC,
        InequalityId.BRIDGE,
    ):
        want = sum(
            (lhs_statistic(iid, pop, perm) for perm in perms), Fraction(0)
        ) / len(perms)
        assert verify(iid, population=pop, cutoff=12).lhs == want, iid
    want = max(lhs_statistic(InequalityId.HARDY, pop, perm) for perm in perms)
    assert verify(InequalityId.HARDY, population=pop, cutoff=12).lhs == want


ORDER_FREE_IDS = (
    InequalityId.MAX_AVERAGES,
    InequalityId.GARSIA_UNWEIGHTED,
    InequalityId.QUADRATIC,
    InequalityId.HARDY,
)


def engine_grid(n, rng):
    """Integer, p/q, tied-with-zeros and all-zero centered populations."""
    tied = [rng.choice((0, 0, 1, 1, -2, 3)) for _ in range(n - 1)]
    return [
        random_centered_population(n, rng, 9, 1),
        random_centered_population(n, rng, 99, 7),
        make_population(tied + [-sum(tied)]),
        make_population([0] * n),
    ]


def graph_alternating(pop):
    """The independent route to exact ``alternating``, the graph it ran on
    before the split walk, restated here with no code of the package:
    since W_k = S_k - 2 (the sum drawn at odd positions), a walk over the
    states (D, O), the drawn set and its part drawn at odd positions, each
    holding its orderings so far by their running max of W_k^2."""
    d = math.lcm(*(x.denominator for x in pop.values))
    xs = [int(x * d) for x in pop.values]
    n = len(xs)
    sums = [0]
    for x in xs:
        sums += [s + x for s in sums]
    layer = {(0, 0): {0: 1}}
    for k in range(1, n + 1):
        nxt = {}
        for (drawn, odd), tops in layer.items():
            for bit in (1 << i for i in range(n) if not drawn >> i & 1):
                state = (drawn | bit, odd | bit if k % 2 else odd)
                sq = (sums[state[0]] - 2 * sums[state[1]]) ** 2
                out = nxt.setdefault(state, {})
                for top, c in tops.items():
                    top = max(top, sq)
                    out[top] = out.get(top, 0) + c
        layer = nxt
    total = sum(top * c for tops in layer.values() for top, c in tops.items())
    return Fraction(total, math.factorial(n) * d * d)


def prefix_walk(xs, d, count, ws):
    """The independent reference for the given-weight engine: E max_k W_k^2
    by walking every ordered prefix depth first, each prefix's W_k and
    running max once, with the last three draws unrolled; the engine of
    ``vna_weighted`` and ``garsia_weighted`` before the split walk."""
    from permartingale.rationals import scaled_integers

    wsc, e = scaled_integers(ws)
    a1, a2 = wsc[-2], wsc[-1]

    def walk(rest, k, w, best):
        if not rest:
            return best
        a = wsc[k]
        total = 0
        if len(rest) == 3:
            x0, x1, x2 = rest
            for x, p, q in ((x0, x1, x2), (x1, x0, x2), (x2, x0, x1)):
                u = w + a * x
                top = u * u
                if top < best:
                    top = best
                # the two orders of the last two draws
                v = u + a1 * p
                b = v * v
                v += a2 * q
                c = v * v
                b = b if b > c else c
                total += b if b > top else top
                v = u + a1 * q
                b = v * v
                v += a2 * p
                c = v * v
                b = b if b > c else c
                total += b if b > top else top
            return total
        for i, x in enumerate(rest):
            u = w + a * x
            sq = u * u
            total += walk(rest[:i] + rest[i + 1:], k + 1, u, sq if sq > best else best)
        return total

    return Fraction(walk(tuple(xs), 0, 0, 0), count * (d * e) ** 2)


def weight_kinds(n, rng):
    """All equal, ±1, three values with zeros, and p/q weights of the
    benchmark's kind (±1, ±2 or ±3 over 1 or 2)."""
    return [
        [Fraction(2)] * n,
        [rng.choice((-1, 1)) for _ in range(n)],
        [rng.choice((-1, 0, 2)) for _ in range(n)],
        [Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 2)) for _ in range(n)],
    ]


def tail_crosses_both_bounds(pop, ws):
    """Whether some ordering's W_k, after the first n - n//2 draws, rises
    above their max_k |W_k| and falls below its negative: both arms of
    the split walk's maximum."""
    n, m = pop.n, pop.n - pop.n // 2
    for perm in itertools.permutations(pop.values):
        path = list(itertools.accumulate(a * x for a, x in zip(ws, perm)))
        b = max(abs(w) for w in path[:m])
        if max(path[m:]) > b and min(path[m:]) < -b:
            return True
    return False


def test_split_walk_equals_the_prefix_walk():
    from permartingale.inequalities import _exact_weighted
    from permartingale.rationals import scaled_integers

    rng = random.Random(2100)
    cases = []
    for n in range(2, 10):
        pops, kinds = engine_grid(n, rng), weight_kinds(n, rng)
        # the walk takes about 60 ms a case at n = 9, so one kind a population
        cases += ([(pop, ws) for pop in pops for ws in kinds] if n < 9
                  else list(zip(pops, kinds)))
    cases += [(random_centered_population(10, rng, 99, 7), weight_kinds(10, rng)[3]),
              (engine_grid(10, rng)[2], weight_kinds(10, rng)[1])]
    both = [(make_population([0, 0, 3, -3]), [1, 1, 1, 2]),
            (make_population([0, 1, -1, 6, -6]), [1, 1, 1, 1, 2]),
            (make_population([2, -1, -1, 5, -5, 0]), [1, 1, 1, 1, -2, 1])]
    assert all(tail_crosses_both_bounds(pop, [Fraction(w) for w in ws]) for pop, ws in both)
    for pop, ws in cases + both:
        xs, d = scaled_integers(pop.values)
        count = math.factorial(pop.n)
        want = prefix_walk(xs, d, count, ws)
        assert _exact_weighted(xs, d, count, ws) == want, (pop.values, ws)
        if pop.n <= 5:
            assert want == reference_lhs(InequalityId.VNA_WEIGHTED, pop, ws)


def test_alternating_on_the_odd_position_graph():
    # the split walk with the signs (-1)^i against the reference up to
    # n = 7, then against the odd-position graph
    rng = random.Random(1200)
    for n in range(2, 11):
        for pop in engine_grid(n, rng)[: 2 if n in (7, 10) else 4]:
            got = verify(InequalityId.ALTERNATING, population=pop).lhs
            if n <= 7:
                want = reference_lhs(InequalityId.ALTERNATING, pop)
            else:
                want = graph_alternating(pop)
            assert got == want, (n, pop.values)


@pytest.mark.parametrize("chunk", [1, 3])
def test_chain_counts_across_threshold_chunks(chunk, monkeypatch):
    # thresholds one or three to a pass, so that chains cross chunk edges;
    # up to n = 7 against the reference, then against the default chunk
    import permartingale.inequalities as ineq

    rng = random.Random(f"chunks:{chunk}")
    grid = []
    for n in range(2, 10):
        pops = engine_grid(n, rng)
        # the reference is slow at n = 7, so only the tied values there
        grid += pops if n < 7 else pops[2:3] if n == 7 else pops[:3]
    cases = [(iid, pop) for pop in grid for iid in ORDER_FREE_IDS]
    cases += [(InequalityId.BRIDGE, make_bridge_population(m)) for m in range(1, 5)]
    for iid, pop in cases:
        whole = verify(iid, population=pop).lhs
        if pop.n <= 7:
            assert whole == reference_lhs(iid, pop, m=pop.n // 2
                                          if iid is InequalityId.BRIDGE else None)
        with monkeypatch.context() as m:
            m.setattr(ineq, "_CHAIN_CHUNK", chunk)
            assert verify(iid, population=pop).lhs == whole, (iid, pop.values)


def test_alternating_memory_is_bounded():
    # the split walk holds only the last layer of each half: a few MiB
    # on p/q values with ~5,000 distinct keys
    import tracemalloc

    pop = random_centered_population(10, random.Random(10), 99, 7)
    tracemalloc.start()
    try:
        report = verify(InequalityId.ALTERNATING, population=pop)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.holds
    assert peak < 32 * 2**20, peak


@pytest.mark.parametrize("iid", [InequalityId.MAX_AVERAGES, InequalityId.QUADRATIC])
def test_lattice_memory_is_bounded_by_the_chunk(iid):
    # the chain-count engine holds one count per drawn set, each packing a
    # chunk of thresholds: a few MiB at n = 12 on p/q values with
    # thousands of distinct keys, where one pass over every threshold
    # would hold tens of MiB
    import tracemalloc

    pop = random_centered_population(12, random.Random(12), 99, 7)
    tracemalloc.start()
    try:
        report = verify(iid, population=pop, cutoff=12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.holds
    assert peak < 16 * 2**20, peak


def test_pinned_examples():
    pair = make_population([1, -1])
    r = verify(InequalityId.MAX_AVERAGES, population=pair)
    assert (r.lhs, r.rhs) == (1, 4)
    r = verify(InequalityId.GARSIA_UNWEIGHTED, population=pair)
    assert (r.lhs, r.rhs) == (1, Fraction(82, 5))
    r = verify(InequalityId.BRIDGE, bridge_m=2)
    assert (r.lhs, r.rhs) == (Fraction(32, 9), 512)
    assert verify(InequalityId.MAX_AVERAGES, population=FOUR).lhs == Fraction(
        65, 24
    )


def test_per_permutation_statistic_examples():
    pair = make_population([1, -1])
    assert lhs_statistic(InequalityId.MAX_AVERAGES, pair, (1, 2)) == 1
    assert lhs_statistic(InequalityId.ALTERNATING, pair, (1, 2)) == 4
    # bridge m=2: only the middle index contributes when S_2 = 2
    stat = lhs_statistic(InequalityId.BRIDGE, None, (1, 2, 3, 4), bridge_m=2)
    assert stat == Fraction(64, 9)
    # hardy sums every k instead of maximizing
    assert lhs_statistic(InequalityId.HARDY, pair, (1, 2)) == 1


def test_rhs_formulas():
    n, b, q = FOUR.n, FOUR.square_sum, FOUR.fourth_sum
    assert rhs_value(InequalityId.MAX_AVERAGES, FOUR) == 4 * b / n
    assert rhs_value(InequalityId.GARSIA_UNWEIGHTED, FOUR) == Fraction(41, 5) * b
    assert rhs_value(InequalityId.QUADRATIC, FOUR) == 4 * (b * b - q) / (
        (n - 1) ** 2
    )
    assert rhs_value(InequalityId.BRIDGE, None, bridge_m=3) == 128 * 9
    assert rhs_value(InequalityId.ALTERNATING, FOUR) == Fraction(305, 17) * b
    assert rhs_value(InequalityId.HARDY, FOUR) == 4 * b
    ws = [1, 0, 0, 0]
    v = vna(ws)
    assert rhs_value(
        InequalityId.VNA_WEIGHTED, FOUR, weights=ws
    ) == Fraction(16, n - 1) * (1 + 2 * v) * 1 * b
    assert rhs_value(
        InequalityId.GARSIA_WEIGHTED, FOUR, weights=ws
    ) == Fraction(16404, 205) * 1 * b / (n - 1)


def test_reversal_identity_of_compensated_maxima():
    rng = random.Random(502)
    for n in range(2, 8):
        pop = random_centered_population(n, rng)

        def emax(denom):
            def stat(xs):
                s = Fraction(0)
                best = None
                for k, x in enumerate(xs[: n - 1], 1):
                    s += x
                    v = (s / denom(k)) ** 2
                    if best is None or v > best:
                        best = v
                return best

            return mean_over_orderings(pop, stat)

        assert emax(lambda k: n - k) == emax(lambda k: k), n


def test_reversal_identity_with_integer_values_n8():
    values = [1, -1, 2, -2, 3, -3, 4, -4]
    n = len(values)
    total_fwd = 0
    total_rev = 0
    # scale S_k/(n-k) and S_k/k by lcm(1..7) to compare integers
    scale = math.lcm(*range(1, n))
    for perm in itertools.permutations(values):
        s = 0
        best_fwd = best_rev = 0
        for k in range(1, n):
            s += perm[k - 1]
            fwd = (s * (scale // (n - k))) ** 2
            rev = (s * (scale // k)) ** 2
            best_fwd = max(best_fwd, fwd)
            best_rev = max(best_rev, rev)
        total_fwd += best_fwd
        total_rev += best_rev
    assert total_fwd == total_rev


def test_crude_folding_bound_is_sound():
    rng = random.Random(503)
    for n in range(2, 8):
        values = [rng.randint(-5, 5) for _ in range(n - 1)]
        values.append(-sum(values))
        if not any(values):
            values[0] = 1
            values[-1] = -1
        whole_total = 0
        split_totals = [0] * (n - 1)
        for perm in itertools.permutations(values):
            s = 0
            prefix_best = []
            best = 0
            for x in perm:
                s += x
                best = max(best, s * s)
                prefix_best.append(best)
            whole_total += prefix_best[-1]
            for m in range(1, n):
                # the second half keeps the full running sum S_k, k > m
                s = sum(perm[:m])
                tail_best = 0
                for x in perm[m:]:
                    s += x
                    tail_best = max(tail_best, s * s)
                split_totals[m - 1] += prefix_best[m - 1] + tail_best
        for m in range(1, n):
            assert whole_total <= split_totals[m - 1], (n, m)


def test_alternating_constant_is_decreasing_and_crosses_at_18():
    def c(n):
        return Fraction(16 * n, n - 1) + Fraction(18, n)

    assert c(18) == Fraction(305, 17)
    prev = c(5)
    for n in range(6, 10001):
        cur = c(n)
        assert cur < prev
        prev = cur
    for n in range(2, 18):
        assert c(n) > Fraction(305, 17)
    for n in range(18, 200):
        assert c(n) <= Fraction(305, 17)


def test_cauchy_pathwise_bounds():
    rng = random.Random(504)
    for n in (2, 4, 6):
        pop = random_centered_population(n, rng)
        b = pop.square_sum
        ws = weights_for(InequalityId.GARSIA_WEIGHTED, n, rng)
        a2 = sum(w * w for w in ws)
        for perm in itertools.permutations(range(1, n + 1)):
            stat = lhs_statistic(InequalityId.GARSIA_UNWEIGHTED, pop, perm)
            assert stat <= n * b
            stat = lhs_statistic(
                InequalityId.GARSIA_WEIGHTED, pop, perm, weights=ws
            )
            assert stat <= a2 * b


def test_vna_values():
    assert vna(alternating_weights(6)) == Fraction(1, 6)
    assert vna([1] * 5) == Fraction(16, 5)
    assert vna([1, -1]) == Fraction(1, 2)
    with pytest.raises(DomainError):
        vna([0, 0, 0])
    with pytest.raises(InvalidInputError):
        vna([])


def direct_vna(ws):
    """max_{1<=k<=n-1} alpha_1(k)^2 / alpha_2(n), straight from the definition."""
    n = len(ws)
    alpha2 = sum((w * w for w in ws), Fraction(0))
    return max(sum(ws[:k], Fraction(0)) ** 2 for k in range(1, n)) / alpha2


def weight_grid(rng, n):
    """Named weight sequences of length n: p/q values with zeros, all
    negative, an all-zero prefix, and an increasing prefix sum whose full
    sum alpha_1(n)^2 is above every proper prefix's."""
    pq = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
    zeros = rng.randint(1, n - 1)
    yield "p/q", pq
    yield "negative", [Fraction(-rng.randint(1, 7)) for _ in range(n)]
    yield "zero prefix", [Fraction(0)] * zeros + pq[zeros:]
    yield "increasing", [
        Fraction(rng.randint(1, 9), rng.randint(1, 5)) for _ in range(n)
    ]
    yield "all zero", [Fraction(0)] * n


def fraction_weight_bounds(pop, ws):
    """vna and the vna_weighted and garsia_weighted bounds by the Fraction
    formulas that the one integer pass replaced: a Fraction running sum
    and a Fraction square sum of the weights."""
    n, b = pop.n, pop.square_sum
    alpha2 = sum(w * w for w in ws)
    v = max(a * a for a in itertools.accumulate(ws[:-1])) / alpha2
    return (v, Fraction(16, n - 1) * (1 + 2 * v) * alpha2 * b,
            Fraction(16404, 205) * alpha2 * b / (n - 1))


def test_vna_and_weighted_rhs_equal_their_definitions():
    # the integer pass against the definitions and the Fraction formulas
    rng, negative = random.Random(1101), random.Random(2301)
    for n in range(2, 61):
        pop = random_centered_population(n, rng)
        b = pop.square_sum
        negative_pq = [Fraction(-negative.randint(1, 9), negative.randint(2, 7))
                       for _ in range(n)]
        for kind, ws in [*weight_grid(rng, n), ("negative p/q", negative_pq)]:
            alpha2 = sum((w * w for w in ws), Fraction(0))
            if alpha2 == 0:
                with pytest.raises(DomainError) as exc:
                    vna(ws)
                assert str(exc.value) == "the cancelation measure needs a nonzero weight"
                with pytest.raises(DomainError) as exc:
                    rhs_value(InequalityId.VNA_WEIGHTED, pop, weights=ws)
                assert str(exc.value) == "the vna_weighted bound needs a nonzero weight"
                assert rhs_value(InequalityId.GARSIA_WEIGHTED, pop, weights=ws) == 0
                continue
            v = direct_vna(ws)
            assert vna(ws) == v, (n, kind)
            vna_rhs = rhs_value(InequalityId.VNA_WEIGHTED, pop, weights=ws)
            garsia_rhs = rhs_value(InequalityId.GARSIA_WEIGHTED, pop, weights=ws)
            assert vna_rhs == Fraction(16, n - 1) * (1 + 2 * v) * alpha2 * b, (n, kind)
            assert garsia_rhs == Fraction(16404, 205) * alpha2 * b / (n - 1), (n, kind)
            assert (v, vna_rhs, garsia_rhs) == fraction_weight_bounds(pop, ws), (n, kind)


def test_vna_is_linear_in_n():
    # about 0.1 s when linear; a quadratic vna takes over 1 s already at
    # 2,000 weights, so about two minutes here
    rng = random.Random(12)
    ws = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(20_000)]
    start = time.perf_counter()
    v = vna(ws)
    assert time.perf_counter() - start < 5
    # a_n enters alpha_2(n) only through its square, and no alpha_1(k)
    assert v == vna(ws[:-1] + [-ws[-1]])
    assert vna([1] * 20_000) == Fraction(19_999**2, 20_000)


def test_folding_constants():
    assert folding_constant(InequalityId.GARSIA_UNWEIGHTED, 9, 4) == Fraction(
        41, 5
    )
    assert folding_constant(InequalityId.ALTERNATING, 18) == Fraction(305, 17)
    assert folding_constant(
        InequalityId.GARSIA_WEIGHTED, 81, 40
    ) == 80 + Fraction(4, 205)
    for n in (4, 10, 50):
        assert folding_constant(InequalityId.GARSIA_WEIGHTED, n, n // 2) == 80
    with pytest.raises(InvalidInputError):
        folding_constant(InequalityId.ALTERNATING, 18, 9)
    with pytest.raises(DomainError):
        folding_constant(InequalityId.GARSIA_UNWEIGHTED, 9, 9)
    with pytest.raises(DomainError):
        folding_constant(InequalityId.GARSIA_UNWEIGHTED, 9, 0)
    with pytest.raises(InvalidInputError):
        folding_constant(InequalityId.MAX_AVERAGES, 9, 4)


def test_verify_parameter_validation():
    with pytest.raises(InvalidInputError):
        verify(InequalityId.MAX_AVERAGES, population=FOUR, samples=100)
    with pytest.raises(InvalidInputError):
        verify(InequalityId.MAX_AVERAGES, population=FOUR, seed=1)
    with pytest.raises(InvalidInputError):
        verify(
            InequalityId.MAX_AVERAGES,
            population=FOUR,
            mode=VerifyMode.MONTE_CARLO,
            samples=100,
        )
    with pytest.raises(InvalidInputError):
        verify(
            InequalityId.MAX_AVERAGES,
            population=FOUR,
            mode="mc",
            samples=0,
            seed=1,
        )
    with pytest.raises(InvalidInputError):
        verify(
            InequalityId.MAX_AVERAGES,
            population=FOUR,
            mode="mc",
            samples=100,
            seed=-1,
        )
    with pytest.raises(InvalidInputError):
        verify(InequalityId.MAX_AVERAGES, population=FOUR, weights=[1] * 4)
    with pytest.raises(InvalidInputError):
        verify(InequalityId.VNA_WEIGHTED, population=FOUR)
    with pytest.raises(InvalidInputError):
        verify(InequalityId.VNA_WEIGHTED, population=FOUR, weights=[1, 2])
    with pytest.raises(InvalidInputError):
        verify(InequalityId.MAX_AVERAGES, population=FOUR, bridge_m=2)
    with pytest.raises(InvalidInputError):
        verify(InequalityId.BRIDGE)
    with pytest.raises(PreconditionError):
        verify(InequalityId.BRIDGE, population=FOUR)
    with pytest.raises(InvalidInputError):
        verify(
            InequalityId.BRIDGE,
            population=make_bridge_population(2),
            bridge_m=3,
        )
    with pytest.raises(PreconditionError):
        verify(
            InequalityId.MAX_AVERAGES, population=make_population([1, 2, 3])
        )
    with pytest.raises(InvalidInputError):
        verify("not_an_id", population=FOUR)


def test_bridge_accepts_matching_population_and_m():
    report = verify(
        InequalityId.BRIDGE, population=make_bridge_population(2), bridge_m=2
    )
    assert report.lhs == Fraction(32, 9)


def test_exact_mode_respects_enumeration_cutoff():
    big = make_population([1, -1] * 6)
    for iid in (InequalityId.GARSIA_UNWEIGHTED, InequalityId.HARDY):
        with pytest.raises(EnumerationLimitError, match="above the cutoff 10"):
            verify(iid, population=big)


def test_mc_reports_are_deterministic_and_consistent():
    pop = make_population([1, -1, 2, -2, 3, -3])
    a = verify(
        InequalityId.GARSIA_UNWEIGHTED,
        population=pop,
        mode=VerifyMode.MONTE_CARLO,
        samples=50_000,
        seed=11,
    )
    b = verify(
        InequalityId.GARSIA_UNWEIGHTED,
        population=pop,
        mode="mc",
        samples=50_000,
        seed=11,
    )
    assert a.lhs == b.lhs and a.stderr == b.stderr
    assert a.status == "consistent" and a.holds
    assert a.samples == 50_000 and a.seed == 11
    assert a.stderr > 0
    exact = verify(InequalityId.GARSIA_UNWEIGHTED, population=pop)
    assert abs(a.lhs - float(exact.lhs)) <= 5 * a.stderr
    c = verify(
        InequalityId.GARSIA_UNWEIGHTED,
        population=pop,
        mode="mc",
        samples=50_000,
        seed=12,
    )
    assert c.lhs != a.lhs


def test_mc_multi_block_runs_are_deterministic():
    # more samples than one block, with a partial final block
    from permartingale.inequalities import MC_BLOCK_SIZE

    pop = make_population([1, -1, 2, -2])
    n_samples = MC_BLOCK_SIZE + 500
    a = verify(
        InequalityId.MAX_AVERAGES,
        population=pop,
        mode="mc",
        samples=n_samples,
        seed=3,
    )
    b = verify(
        InequalityId.MAX_AVERAGES,
        population=pop,
        mode="mc",
        samples=n_samples,
        seed=3,
    )
    assert (a.lhs, a.stderr) == (b.lhs, b.stderr)
    assert a.samples == n_samples


def test_mc_hardy_reports_a_sampled_maximum():
    pop = make_population([1, -1, 2, -2, 3, -3])
    report = verify(
        InequalityId.HARDY,
        population=pop,
        mode="mc",
        samples=20_000,
        seed=5,
    )
    assert report.stderr is None
    assert report.status == "consistent"
    exact = verify(InequalityId.HARDY, population=pop)
    assert report.lhs <= float(exact.lhs) + 1e-9


def test_report_serialization_shapes():
    exact = verify(InequalityId.BRIDGE, bridge_m=2).to_dict()
    assert exact["lhs"] == "32/9"
    assert exact["rhs"] == "512"
    assert exact["mode"] == "exact"
    assert exact["stderr"] is None
    assert exact["params"] == {"weights": None, "bridge_m": 2}
    mc = verify(
        InequalityId.VNA_WEIGHTED,
        population=FOUR,
        weights=[1, -1, 1, -1],
        mode="mc",
        samples=1000,
        seed=2,
    ).to_dict()
    assert isinstance(mc["lhs"], float)
    assert mc["params"]["weights"] == ["1", "-1", "1", "-1"]
    assert set(exact) == {
        "id",
        "mode",
        "n",
        "lhs",
        "rhs",
        "holds",
        "status",
        "stderr",
        "samples",
        "seed",
        "params",
    }


def test_exact_holds_on_many_random_populations():
    rng = random.Random(505)
    for _ in range(15):
        n = rng.randint(2, 6)
        pop = random_centered_population(n, rng)
        for iid in MEAN_IDS + (InequalityId.HARDY,):
            ws = weights_for(iid, n, rng)
            assert verify(iid, population=pop, weights=ws).holds, (iid, n)


@pytest.mark.parametrize("iid", list(InequalityId))
def test_float_statistic_matches_reference_on_every_ordering(iid):
    # the float route of Monte Carlo mode against the exact Fraction
    # reference on every ordering, n <= 6 and bridge m <= 3, fed an
    # ordering a column: each term row against the id's term at its k,
    # and each column reduced by the id's rule against lhs_statistic.
    # The k-major and the ordering-major layout give the same bits.
    # Every term is a square u^2, and a u that cancels to 0 (S_n of a
    # centered population) keeps a float residue, so the terms' roots
    # are compared, to within the scale of u
    from permartingale.inequalities import _RULES

    rule = _RULES[iid]
    rng = random.Random(f"float-route:{iid.value}")
    if iid is InequalityId.BRIDGE:
        cases = [(make_bridge_population(m), None, m) for m in (1, 2, 3)]
    else:
        cases = []
        for n in range(2, 7):
            pop = random_centered_population(n, rng)
            cases.append((pop, weights_for(iid, n, rng), None))
    for pop, ws, m in cases:
        n = pop.n
        ks = rule.ks(n)
        effective = alternating_weights(n) if iid is InequalityId.ALTERNATING else ws
        perms = list(itertools.permutations(range(1, n + 1)))
        rows = np.array(
            [[float(pop.values[i - 1]) for i in perm] for perm in perms]
        )
        stat = rule.floats(n, effective)
        terms = stat(rows.T.copy(order="C"))
        assert np.array_equal(stat(rows.T.copy(order="F")), terms)
        scale = (1 + float(sum(map(abs, pop.values)))) ** 2 * (
            1 + max(map(abs, effective or [0]))
        )
        assert terms.shape == (len(ks), len(perms))
        for perm, row in zip(perms, terms.T):
            drawn = [pop.values[i - 1] for i in perm]
            for k, value in zip(ks, row):
                s = sum(drawn[:k], Fraction(0))
                t = sum((x * x for x in drawn[:k]), Fraction(0))
                w = sum(
                    (a * x for a, x in zip(effective or (), drawn[:k])), Fraction(0)
                )
                want = float(rule.term(n, k, s, t, w))
                assert math.isclose(
                    math.sqrt(value), math.sqrt(want),
                    rel_tol=1e-12, abs_tol=1e-12 * float(scale),
                ), (iid, pop.values, perm, k, value, want)
            got = {"mean": np.max, "max": np.sum}[rule.over_orderings](row)
            want = float(lhs_statistic(iid, pop, perm, weights=ws, bridge_m=m))
            assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0), (
                iid, pop.values, perm, got, want
            )


def whole_block_mc(iid, pop, ws, samples, seed):
    """The Monte Carlo estimate by the whole-block route, an independent
    reference: each block of orderings is tiled, permuted and reduced
    out of place in one piece, with the same block seeds and reduction."""
    from permartingale.inequalities import MC_BLOCK_SIZE

    n = pop.n
    base = np.array(pop.as_floats(), dtype=np.float64)
    ks = np.arange(1, n + 1, dtype=np.float64)

    def stat(X):
        if iid in (InequalityId.MAX_AVERAGES, InequalityId.HARDY):
            averages = (np.cumsum(X, axis=1) / ks) ** 2
            if iid is InequalityId.HARDY:
                return averages.sum(axis=1)
            return averages.max(axis=1)
        if iid is InequalityId.GARSIA_UNWEIGHTED:
            return (np.cumsum(X, axis=1) ** 2).max(axis=1)
        if iid is InequalityId.QUADRATIC:
            coef = (n - ks) / (n - 1)
            den = ks * (ks - 1)
            s = np.cumsum(X, axis=1)
            t = np.cumsum(X * X, axis=1)
            vals = (s[:, 1:] ** 2 - coef[1:] * t[:, 1:]) / den[1:]
            return (vals**2).max(axis=1)
        if iid is InequalityId.BRIDGE:
            last = n - 1
            comp = ks[:last] * (n - ks[:last]) / last
            s = np.cumsum(X[:, :last], axis=1)
            return ((s * s - comp) ** 2).max(axis=1)
        a = np.array([float(w) for w in ws])
        return (np.cumsum(X * a, axis=1) ** 2).max(axis=1)

    done = block = 0
    total = total_sq = 0.0
    top = -np.inf
    while done < samples:
        b = min(MC_BLOCK_SIZE, samples - done)
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(entropy=(seed, block)))
        )
        v = stat(rng.permuted(np.tile(base, (b, 1)), axis=1))
        top = max(top, float(v.max()))
        total += float(v.sum())
        total_sq += float((v * v).sum())
        done += b
        block += 1
    if iid is InequalityId.HARDY:
        return top, None
    mean = total / samples
    if samples < 2:
        return mean, None
    var = max(total_sq - samples * mean * mean, 0.0) / (samples - 1)
    return mean, math.sqrt(var / samples)


def test_mc_chunks_match_the_whole_block_route():
    # every estimate keeps every bit when a block is permuted and reduced
    # in chunks of orderings: one chunk, a partial chunk, chunk boundaries
    # and, with MC_BLOCK_SIZE + rows + 3 samples, a block boundary as well.
    # Chunks of fewer than _MC_WIDE_CHUNK orderings (1 or 2 samples, and
    # every chunk at n=600) keep an ordering contiguous; wider ones (n=512
    # sits at the cut-over) run k-major, down to a last chunk of one.
    # Even widths (n=2, 160 and 512) sit on a padded, odd row stride
    from permartingale.inequalities import _MC_CHUNK_FLOATS, _MC_WIDE_CHUNK, MC_BLOCK_SIZE

    assert _MC_CHUNK_FLOATS // 600 < _MC_WIDE_CHUNK == _MC_CHUNK_FLOATS // 512
    rng = random.Random("mc-chunks")
    for n in (2, 7, 160, 512, 600):
        pop = random_centered_population(n, rng)
        for iid in InequalityId:
            case = pop
            if iid is InequalityId.BRIDGE:
                # the bridge needs an even n: m = 1, 4, 80, 256 and 300
                case = make_bridge_population((n + 1) // 2)
            ws = weights_for(iid, case.n, rng)
            effective = ws
            if iid is InequalityId.ALTERNATING:
                effective = alternating_weights(case.n)
            rows = max(1, min(MC_BLOCK_SIZE, _MC_CHUNK_FLOATS // case.n))
            counts = ((1, 2, rows - 1, rows, rows + 1, MC_BLOCK_SIZE + rows + 3)
                      if n <= 160 else (rows + 1,))
            for samples in counts:
                seed = samples + case.n
                report = verify(iid, population=case, weights=ws, mode="mc",
                                samples=samples, seed=seed)
                want = whole_block_mc(iid, case, effective, samples, seed)
                assert (report.lhs, report.stderr) == want, (iid, case.n, samples)


@pytest.mark.parametrize(
    "iid, n, samples",
    [(iid, 160, 65_536) for iid in InequalityId]
    # so wide that only 13 rows fit the chunk
    + [(InequalityId.QUADRATIC, 20_000, 200)],
)
def test_mc_working_set_does_not_grow_with_the_block(iid, n, samples):
    # tracemalloc sees numpy's buffers; one whole block of these
    # orderings alone would take 80 MiB, and 30 MiB for the wide case
    import tracemalloc

    if iid is InequalityId.BRIDGE:
        pop = make_bridge_population(n // 2)
    else:
        pop = random_centered_population(n, random.Random(n))
    ws = [1] * n if iid in WEIGHTED_IDS else None
    tracemalloc.start()
    try:
        verify(iid, population=pop, weights=ws, mode="mc", samples=samples,
               seed=9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, (iid, n, peak)


def test_monte_carlo_scaling_and_negation_keep_every_bit():
    # metamorphic, where no reference reaches: the permutation stream does
    # not read the values, and scaling by a power of two commutes with
    # every rounding, so doubling the values multiplies the estimate and
    # its standard error by 4 (16 for quadratic) and keeps the status,
    # doubling the given weights does the same, and negating the values
    # changes no bit.  n=160 runs k-major chunks, n=700 contiguous ones
    from permartingale.inequalities import _MC_CHUNK_FLOATS, _MC_WIDE_CHUNK

    assert _MC_CHUNK_FLOATS // 700 < _MC_WIDE_CHUNK <= _MC_CHUNK_FLOATS // 160
    rng = random.Random("mc-metamorphic")
    for n, samples in ((160, 2_000), (700, 600)):
        pop = random_centered_population(n, rng, 99, 7)
        doubled = make_population([2 * v for v in pop.values])
        negated = make_population([-v for v in pop.values])
        for iid in InequalityId:
            if iid is InequalityId.BRIDGE:
                continue  # its population is fixed
            ws = weights_for(iid, n, rng)

            def run(case, weights=ws):
                r = verify(iid, population=case, weights=weights, mode="mc",
                           samples=samples, seed=n)
                return r.lhs, r.stderr, r.status

            lhs, stderr, status = run(pop)
            c = 16 if iid is InequalityId.QUADRATIC else 4
            scaled = (c * lhs, None if stderr is None else c * stderr, status)
            assert run(doubled) == scaled, (iid, n)
            assert run(negated) == (lhs, stderr, status), (iid, n)
            if ws is not None:
                assert run(pop, [2 * w for w in ws]) == (4 * lhs, 4 * stderr, status), (iid, n)


def test_exact_relabelling_and_scaling_past_the_references():
    # metamorphic, past the n! reference: permuting the values (the
    # weights kept by position) keeps every exact LHS, and scaling them by
    # 3/2 multiplies it by 9/4 (81/16 for quadratic); the order-free ids
    # on the lattice at n=12 with |p| <= 99 and q <= 7, two split-walk ids
    # at n=10 with |p| <= 9 and q <= 4
    rng = random.Random("exact-metamorphic")
    cases = [(iid, 12, 99, 7) for iid in ORDER_FREE_IDS]
    cases += [(iid, 10, 9, 4) for iid in (InequalityId.ALTERNATING, InequalityId.GARSIA_WEIGHTED)]
    for iid, n, p, q in cases:
        pop = random_centered_population(n, rng, p, q)
        ws = weights_for(iid, n, rng)
        moved = make_population(rng.sample(pop.values, n))
        scaled = make_population([Fraction(3, 2) * v for v in pop.values])
        assert moved != pop

        def lhs(case):
            return verify(iid, population=case, weights=ws, cutoff=12).lhs

        want = lhs(pop)
        c = Fraction(81, 16) if iid is InequalityId.QUADRATIC else Fraction(9, 4)
        assert lhs(moved) == want, iid
        assert lhs(scaled) == c * want, iid
