"""The public records and ``_Rule``: keyword construction and defaults,
read-only fields, equality and hash by value, and pinned ``to_dict``
output."""

from fractions import Fraction

import pytest

from permartingale import (
    Basis,
    CounterexampleEntry,
    CounterexampleReport,
    InequalityId,
    InequalityReport,
    MartingaleCheck,
    MartingaleKind,
    MartingaleSpec,
    MartingaleViolation,
    MomentRow,
    Population,
    TransitionSystem,
    VerifyMode,
    WeightedMomentParts,
    build_transition_system,
    make_population,
)
from permartingale.inequalities import _Rule, _all_ks

F = Fraction
FOUR = make_population([1, -1, 2, -2])
SYSTEM = build_transition_system(Basis.QUADRATIC, population=FOUR)
WITNESS = MartingaleViolation(prefix=(F(1), F(-2)), value=F(1, 3),
                              conditional_mean=(F(0), F(-5, 2)))
ENTRY = CounterexampleEntry(name="partial_sum", expected_to_hold=False,
                            witness=WITNESS)


# (record, the fields given by keyword, the defaults it must fill in)
RECORDS = [
    (Population, dict(values=(F(1), F(-1, 2))), {}),
    (TransitionSystem,
     dict(basis=SYSTEM.basis, n=4, total=F(0), square_sum=F(10), multipliers=None,
          inverse_products=SYSTEM.inverse_products), {}),
    (InequalityReport,
     dict(id=InequalityId.QUADRATIC, mode=VerifyMode.EXACT, n=4, lhs=F(5, 2),
          rhs=F(10), status="holds"),
     dict(stderr=None, samples=None, seed=None, weights=None)),
    (_Rule, dict(rhs=abs, term=max, floats=sum),
     dict(weights="none", bridge=False, ks=_all_ks, over_orderings="mean",
          folding=None)),
    (WeightedMomentParts,
     dict(w_square=F(1), cross=F(-1, 3), sum_square=F(2), combined=F(7, 2)), {}),
    (MomentRow, dict(name="E[X1^4]", formula=F(17, 2), oracle=F(17, 2)), {}),
    (MartingaleSpec, dict(kind=MartingaleKind.M2, population=FOUR),
     dict(multipliers=None)),
    (MartingaleViolation,
     dict(prefix=(F(2),), value=F(1), conditional_mean=F(1, 3)), {}),
    (MartingaleCheck, dict(worst_history=None, states_checked=12), {}),
    (CounterexampleEntry,
     dict(name="partial_sum", expected_to_hold=False, witness=WITNESS), {}),
    (CounterexampleReport, dict(entries=(ENTRY,)), {}),
]


@pytest.mark.parametrize("cls, given, defaults", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_record_semantics(cls, given, defaults):
    record = cls(**given)
    for name, value in {**given, **defaults}.items():
        assert getattr(record, name) == value, name
    twin = cls(**given)
    assert twin is not record and twin == record and hash(twin) == hash(record)
    first = next(iter(given))
    with pytest.raises(AttributeError):
        setattr(record, first, given[first])
    with pytest.raises(AttributeError):
        delattr(record, first)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert cls(**{**given, first: object()}) != record
    assert record == cls(**given)  # unchanged by the refused writes


def test_population_is_equal_only_to_a_population():
    pop = make_population([1, -1])
    assert pop == Population(values=pop.values)
    assert pop != pop.values and pop != make_population([-1, 1])
    assert repr(pop) == "Population(values=(Fraction(1, 1), Fraction(-1, 1)))"
    assert len({pop, Population(pop.values)}) == 1


def test_population_sums_are_lazy_and_read_once(monkeypatch):
    import permartingale.population as population

    calls, sums = [], []
    scaled, power_sum = population.scaled_integers, Population._power_sum

    def counted(values):
        calls.append(values)
        return scaled(values)

    def counted_sum(self, p):
        sums.append(p)
        return power_sum(self, p)

    monkeypatch.setattr(population, "scaled_integers", counted)
    monkeypatch.setattr(Population, "_power_sum", counted_sum)
    values = tuple(F(v) for v in (3, -1, -2))
    pop = Population(values)
    assert vars(pop) == {"values": values} and calls == [] and sums == []
    assert [pop.square_sum for _ in range(3)] == [14] * 3
    assert len(calls) == 1 and sums == [2]
    assert set(vars(pop)) == {"values", "scaled", "square_sum"}
    assert pop.total == 0 and pop.fourth_sum == 98
    assert pop.square_sum is pop.square_sum and len(calls) == 1 and sums == [2, 1, 4]
    assert pop.scaled == ((3, -1, -2), 1)
    with pytest.raises(AttributeError):
        pop.total = 1
    assert pop == Population(values) and hash(pop) == hash(Population(values))


def test_spec_k_min_is_a_class_attribute_not_a_field():
    assert MartingaleSpec.k_min == 1
    spec = MartingaleSpec(kind=MartingaleKind.MTILDE, population=FOUR)
    assert (spec.k_min, spec.k_max) == (1, 2)
    with pytest.raises(TypeError):
        MartingaleSpec(kind=MartingaleKind.M2, population=FOUR, k_min=2)


def test_to_dict_output_is_pinned():
    exact = InequalityReport(id=InequalityId.QUADRATIC, mode=VerifyMode.EXACT,
                             n=4, lhs=F(5, 2), rhs=F(10), status="holds")
    assert exact.to_dict() == {
        "id": "quadratic", "mode": "exact", "n": 4, "lhs": "5/2", "rhs": "10",
        "holds": True, "status": "holds", "stderr": None, "samples": None,
        "seed": None, "params": {"weights": None, "bridge_m": None},
    }
    mc = InequalityReport(id=InequalityId.BRIDGE, mode=VerifyMode.MONTE_CARLO,
                          n=6, lhs=2.5, rhs=F(1152), status="inconclusive",
                          stderr=0.25, samples=100, seed=7,
                          weights=(F(1), F(-1, 2)))
    assert mc.to_dict() == {
        "id": "bridge", "mode": "mc", "n": 6, "lhs": 2.5, "rhs": "1152",
        "holds": False, "status": "inconclusive", "stderr": 0.25,
        "samples": 100, "seed": 7,
        "params": {"weights": ["1", "-1/2"], "bridge_m": 3},
    }
    row = MomentRow(name="E[X1^4]", formula=F(17, 2), oracle=F(9))
    assert row.to_dict() == {"name": "E[X1^4]", "formula": "17/2",
                             "oracle": "9", "equal": False}
    witness = {"prefix": ["1", "-2"], "k": 2, "value": "1/3",
               "conditional_mean": ["0", "-5/2"]}
    assert WITNESS.to_dict() == witness
    assert MartingaleCheck(worst_history=WITNESS, states_checked=5).to_dict() == {
        "holds": False, "states_checked": 5, "worst_history": witness,
    }
    assert MartingaleCheck(worst_history=None, states_checked=12).to_dict() == {
        "holds": True, "states_checked": 12, "worst_history": None,
    }
    entry = {"name": "partial_sum", "expected_to_hold": False, "holds": False,
             "ok": True, "witness": witness}
    assert ENTRY.to_dict() == entry
    assert CounterexampleReport(entries=(ENTRY,)).to_dict() == {
        "ok": True, "entries": [entry],
    }
