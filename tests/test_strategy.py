"""Table laws: validation verdicts, combination and parity products."""

import tracemalloc
from fractions import Fraction

import pytest

from paritybet import (
    Kind,
    Parity,
    PreconditionError,
    Sided,
    StrategyTable,
    StructuralError,
    as_capital,
    combine,
    from_jsonable,
    parity_factorize,
    product,
    to_jsonable,
    validate,
)
from paritybet import bits, strategy

from conftest import random_positive_martingale


def table(depth, pairs, **tags):
    return StrategyTable(depth, {k: Fraction(v) for k, v in pairs.items()}, **tags)


FAIR_COIN = {
    "": 1, "0": 1, "1": 1,
    "00": 1, "01": 1, "10": 1, "11": 1,
}

ODD_BETTOR = {
    "": 1, "0": 1, "1": 1,
    "00": Fraction(3, 2), "01": Fraction(1, 2), "10": 0, "11": 2,
}


def test_as_capital_rejects_negative():
    with pytest.raises(StructuralError):
        as_capital(Fraction(-1, 2))
    assert as_capital("3/4") == Fraction(3, 4)
    assert as_capital(0) == 0  # the least capital


@pytest.mark.parametrize("make", [lambda: as_capital(0.1), lambda: StrategyTable(0, {"": 0.1})],
                         ids=["as-capital", "table-value"])
def test_a_float_capital_is_refused(make):
    with pytest.raises(StructuralError, match=r"^not an exact rational: 0\.1$"):
        make()


def test_table_requires_total_map():
    with pytest.raises(StructuralError):
        StrategyTable(1, {"": Fraction(1), "0": Fraction(1)})


def test_a_claimed_depth_past_the_keys_builds_nothing_of_its_size():
    # a depth of 10^9 has 2^(10^9 + 1) - 1 states: counting them takes an
    # integer of 10^9 bits, 125 MB, and one key cannot fill them anyway
    tracemalloc.start()
    try:
        with pytest.raises(StructuralError, match="^missing table entry for state '0'$"):
            StrategyTable(10**9, {"": Fraction(1)})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


@pytest.mark.parametrize("depth", [0, 1, 2, 5])
def test_a_valid_table_is_checked_as_a_whole(monkeypatch, depth):
    # the whole-table check passes every valid table, zeros included, so
    # no key is checked one by one
    def refuse(key, depth):
        raise AssertionError(f"key {key!r} checked on its own")
    monkeypatch.setattr(strategy, "_check_key", refuse)
    values = {s: Fraction(len(s) % 3, 2) for s in bits.all_states(depth)}
    t = StrategyTable(depth, values)
    assert dict(t.values) == values
    assert from_jsonable(to_jsonable(t)) == t


def test_table_rejects_long_state():
    with pytest.raises(StructuralError):
        StrategyTable(0, {"": Fraction(1), "0": Fraction(1), "1": Fraction(1)})
    # and a read of a state outside a built table
    t = table(1, {"": 1, "0": 2, "1": 0})
    for bad in ("00", "2", 0):
        with pytest.raises(KeyError):
            t.values[bad]
    with pytest.raises(StructuralError):
        t.value("00")
    assert repr(t.values) == repr({"": Fraction(1), "0": Fraction(2), "1": Fraction(0)})


def test_validate_constant_table():
    d = validate(table(2, FAIR_COIN))
    assert d.martingale and d.supermartingale
    assert d.bets_on_even and d.bets_on_odd
    assert d.zero_sided and d.one_sided
    assert d.witnesses == {}


def test_validate_odd_bettor_tags():
    d = validate(table(2, ODD_BETTOR))
    assert d.martingale
    assert d.bets_on_odd and not d.bets_on_even
    # first change below an odd-length state is under "0"
    assert d.witnesses["bets_on_even"] == "0"


def test_validate_supermartingale_leak():
    leaky = dict(FAIR_COIN)
    leaky["10"] = Fraction(1, 2)  # children of "1" now sum below 2
    d = validate(table(2, leaky))
    assert not d.martingale and d.supermartingale
    assert d.witnesses["martingale"] == "1"


def test_validate_witness_is_least():
    bad = dict(FAIR_COIN)
    bad["01"] = 2
    bad["11"] = 2
    d = validate(table(2, bad))
    assert not d.supermartingale
    assert d.witnesses["supermartingale"] == "0"


def test_holds_checks_the_declared_tags():
    t = table(2, ODD_BETTOR, parity=Parity.BETS_ON_ODD)
    d = validate(t)
    assert d.holds(t.kind, t.parity, t.sided)
    assert not d.holds(t.kind, Parity.BETS_ON_EVEN, t.sided)
    # ODD_BETTOR leans to 0 below "0" and to 1 below "1"
    assert not d.holds(t.kind, t.parity, Sided.ZERO)
    assert not d.holds(t.kind, t.parity, Sided.ONE)
    bad = dict(FAIR_COIN, **{"01": 2, "11": 2})
    assert not validate(table(2, bad)).holds(Kind.SUPERMARTINGALE, Parity.NONE, Sided.NONE)


def test_sided_verdicts():
    one = table(2, {
        "": 1, "0": Fraction(1, 2), "1": Fraction(3, 2),
        "00": Fraction(1, 2), "01": Fraction(1, 2),
        "10": 1, "11": 2,
    })
    d = validate(one)
    assert d.one_sided and not d.zero_sided
    assert d.holds(Kind.MARTINGALE, Parity.NONE, Sided.ONE)


def test_combine_weighted_sum():
    a = table(1, {"": 1, "0": 2, "1": 0})
    b = table(1, {"": 1, "0": 0, "1": 2})
    c = combine([(Fraction(1, 4), a), (Fraction(3, 4), b)])
    assert c.value("0") == Fraction(1, 2)
    assert c.value("1") == Fraction(3, 2)
    assert c.kind is Kind.MARTINGALE


def test_combine_kind_demotion():
    a = table(1, {"": 1, "0": 2, "1": 0})
    s = table(1, {"": 1, "0": 0, "1": 0}, kind=Kind.SUPERMARTINGALE)
    assert combine([(1, a), (1, s)]).kind is Kind.SUPERMARTINGALE


def test_combine_rejects_empty_and_mixed_depths():
    with pytest.raises(PreconditionError):
        combine([])
    with pytest.raises(PreconditionError):
        combine([(1, table(2, FAIR_COIN)), (1, table(1, {"": 1, "0": 1, "1": 1}))])


def test_product_requires_opposite_parities():
    a = table(2, ODD_BETTOR, parity=Parity.BETS_ON_ODD)
    with pytest.raises(PreconditionError):
        product(a, a)
    one = table(1, {"": 1, "0": 1, "1": 1}, parity=Parity.BETS_ON_EVEN)
    with pytest.raises(PreconditionError):
        product(a, one)
    leaky = table(2, FAIR_COIN, kind=Kind.SUPERMARTINGALE, parity=Parity.BETS_ON_EVEN)
    with pytest.raises(PreconditionError):
        product(a, leaky)


def test_product_refuses_like_parities_before_it_reads_a_state():
    # two odd bettors also bet at one state; the parity check names the fault
    a = table(2, ODD_BETTOR, parity=Parity.BETS_ON_ODD)
    with pytest.raises(PreconditionError, match="^product needs one BETS_ON_EVEN and one BETS_ON_ODD"):
        product(a, a)


def test_product_law_preserved(rng):
    m = random_positive_martingale(rng, 6)
    odd_part, even_part = parity_factorize(m)
    p = product(odd_part, even_part)
    assert validate(p).martingale
    # product against the constant-1 table is the identity
    one = table(2, FAIR_COIN, parity=Parity.BETS_ON_EVEN)
    a = table(2, ODD_BETTOR, parity=Parity.BETS_ON_ODD)
    q = product(a, one)
    assert all(q.value(s) == a.value(s) for s in bits.all_states(2))


def test_product_rejects_shared_betting_state():
    # both tables move below the root
    a = table(1, {"": 1, "0": 2, "1": 0}, parity=Parity.BETS_ON_EVEN)
    b = table(1, {"": 1, "0": 0, "1": 2}, parity=Parity.BETS_ON_ODD)
    with pytest.raises(PreconditionError):
        product(a, b)
