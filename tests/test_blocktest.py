"""The two-round block inequality, the at-most-three enumeration, and the
nested test built from them."""

from fractions import Fraction

import pytest

from paritybet import (
    BettingLabError,
    BlockSpec,
    Component,
    Kind,
    Parity,
    PreconditionError,
    StageApprox,
    StrategyTable,
    StructuralError,
    TestArray,
    blocktest,
    build_parity_test,
    check_block34,
    constant_program,
    enumerate_block,
    follow_program,
    level_measure,
    max_fanout,
    packing_certificate,
    validate,
    verify_block_inequality,
)
from paritybet.blocktest import EnumState


def _checker_pair():
    m = StrategyTable(2, {
        "": Fraction(1, 4), "0": Fraction(1, 4), "1": Fraction(1, 4),
        "00": Fraction(7, 16), "01": Fraction(1, 16),
        "10": Fraction(1, 2), "11": Fraction(0),
    }, Kind.MARTINGALE, Parity.BETS_ON_ODD)
    n = StrategyTable(2, {
        "": Fraction(1, 8), "0": Fraction(3, 16), "1": Fraction(1, 16),
        "00": Fraction(3, 16), "01": Fraction(3, 16),
        "10": Fraction(1, 16), "11": Fraction(1, 16),
    }, Kind.MARTINGALE, Parity.BETS_ON_EVEN)
    return m, n


def test_block_inequality_holds_on_instance():
    m, n = _checker_pair()
    spec = BlockSpec(Fraction(7, 16), Fraction(1, 2), Fraction(3, 16),
                     Fraction(1, 16), Fraction(1, 2))
    r = verify_block_inequality(m, n, "", spec)
    assert r.hypotheses_ok and r.witness is None
    # n0 > n1 pins the second column's free leaf
    assert r.branch_state == "11"
    assert r.branch_value == Fraction(1, 16)
    assert r.conclusion_ok


def test_block_inequality_names_failed_hypothesis():
    m, n = _checker_pair()
    # column1 target sums below c
    spec = BlockSpec(Fraction(7, 16), Fraction(1, 4), Fraction(3, 16),
                     Fraction(1, 16), Fraction(1, 2))
    r = verify_block_inequality(m, n, "", spec)
    assert not r.hypotheses_ok
    assert r.witness == "column1"
    assert not r.conclusion_ok


def test_block_inequality_odd_parent_rejected(small_oscillating_pair):
    m, n = _checker_pair()
    spec = BlockSpec(Fraction(1), Fraction(1), Fraction(1), Fraction(1), Fraction(1))
    with pytest.raises(PreconditionError):
        verify_block_inequality(m, n, "0", spec)
    # and the enumeration above an odd parent, or with a negative budget
    odd, even = small_oscillating_pair
    with pytest.raises(PreconditionError, match="even length"):
        enumerate_block("0", 1, odd, even, 10)
    with pytest.raises(PreconditionError, match="budget"):
        enumerate_block("", 1, odd, even, -1)


def test_enumerate_block_stays_watching(small_oscillating_pair):
    odd, even = small_oscillating_pair
    st = enumerate_block("", Fraction(1), odd, even, 100)
    assert st.phase == "watching"
    assert st.enumerated == ("00", "10")
    assert st.recorded is None


def test_enumerate_block_closes_on_pressure():
    # both reference leaves cross the threshold once the heavy component
    # activates at stage 3
    from paritybet import Component, StageApprox, constant_program, FractionBet

    odd = StageApprox(
        (Component(3, Fraction(2), constant_program(1, None, Parity.BETS_ON_ODD)),),
        Kind.MARTINGALE, Parity.BETS_ON_ODD)
    even = StageApprox(
        (Component(0, Fraction(1, 4),
                   constant_program(1, FractionBet(Fraction(1, 2)), Parity.BETS_ON_EVEN)),),
        Kind.MARTINGALE, Parity.BETS_ON_EVEN)
    st = enumerate_block("", Fraction(1), odd, even, 10)
    assert st.phase == "closed"
    assert st.last_stage == 3
    assert len(st.enumerated) == 3
    assert st.recorded is not None
    # third member picked by comparing the first-bit targets
    n0, n1 = st.recorded.n0, st.recorded.n1
    assert st.enumerated[2] == ("01" if n0 <= n1 else "11")
    # each mixture is read at its last activation stage
    assert odd.last_stage() == 3
    report = verify_block_inequality(odd, even, "", st.recorded)
    assert dict(report.quantities)["m00"] == odd.eval(3, "00") != odd.eval(0, "00")


def test_check_block34_accepts_and_rejects():
    good = TestArray((("",), ("00", "10"), ("0000", "0010", "1000")))
    check_block34(good)
    with pytest.raises(StructuralError):
        check_block34(TestArray((("",), ("000",))))
    with pytest.raises(StructuralError):
        check_block34(TestArray((("",), ("00", "01", "10", "11"))))
    with pytest.raises(StructuralError):
        check_block34(TestArray((("0",),)))
    with pytest.raises(StructuralError, match="flavor"):
        check_block34(TestArray((("",),), flavor="free"))
    with pytest.raises(StructuralError, match="duplicate"):
        check_block34(TestArray((("",), ("00", "00"))))
    with pytest.raises(StructuralError, match="extends no level-1 member"):
        check_block34(TestArray((("",), ("00",), ("1000",))))


def test_level_measure_and_fanout():
    arr = TestArray((("",), ("00", "10"), ("0000", "0010", "1000")))
    assert level_measure(arr, 1) == Fraction(2, 4)
    assert level_measure(arr, 2) == Fraction(3, 16)
    assert max_fanout(arr, 1) == 2
    assert max_fanout(arr, 2) == 2
    with pytest.raises(PreconditionError):
        max_fanout(arr, 0)


def test_build_parity_test_frozen_small(small_oscillating_pair):
    odd, even = small_oscillating_pair
    res = build_parity_test(odd, even, 4, 100)
    assert res.path == "00000100"
    assert [list(lv) for lv in res.array.levels] == [
        [""],
        ["00", "10"],
        ["0000", "0010"],
        ["000000", "000001", "000010"],
        ["00000100", "00000110"],
    ]
    check_block34(res.array)
    # the chosen child at each level is the next path prefix
    for rep in res.reports:
        assert rep.chosen == res.path[: 2 * rep.level]
        assert rep.chosen in rep.survivors


def test_build_parity_test_survivor_values(small_oscillating_pair):
    odd, even = small_oscillating_pair
    res = build_parity_test(odd, even, 4, 100)
    final = {s: v for rep in res.reports for s, v in rep.final_values}
    for rep in res.reports:
        assert final[rep.chosen] <= res.threshold


def test_build_parity_test_parity_guards(small_oscillating_pair):
    odd, even = small_oscillating_pair
    with pytest.raises(PreconditionError):
        build_parity_test(even, odd, 4, 100)
    with pytest.raises(PreconditionError, match="second side"):
        build_parity_test(odd, odd, 4, 100)
    with pytest.raises(PreconditionError):
        build_parity_test(odd, even, -1, 100)
    # the pair must start at or below the threshold 1
    full = StageApprox((Component(0, Fraction(1), constant_program(1, None, Parity.BETS_ON_ODD)),),
                       Kind.MARTINGALE, Parity.BETS_ON_ODD)
    with pytest.raises(PreconditionError, match="exceeds the threshold 1"):
        build_parity_test(full, even, 4, 100)


def test_build_parity_test_raises_when_no_child_stays_under(monkeypatch):
    # the two-round inequality rules this out: plant an enumeration that
    # offers only 00, where both sides have doubled to 1
    odd, even = (StageApprox((Component(0, Fraction(1), follow_program("00", p, Fraction(1, 2))),),
                             Kind.MARTINGALE, p) for p in (Parity.BETS_ON_ODD, Parity.BETS_ON_EVEN))
    monkeypatch.setattr(blocktest, "enumerate_block",
                        lambda parent, *_: EnumState(parent, Fraction(1), (parent + "00",), "closed", 0))
    with pytest.raises(BettingLabError, match="^no extension of '' stays under 1 at stage 0"):
        build_parity_test(odd, even, 1, 0)


def test_packing_certificate_growth(small_oscillating_pair):
    odd, even = small_oscillating_pair
    res = build_parity_test(odd, even, 4, 100)
    cert, growth = packing_certificate(res.array)
    for line in growth:
        assert line.on_path_value == Fraction(4, 3) ** line.level
        assert line.measure_bound <= Fraction(3, 4) ** line.level
    # the certificate carries (4/3)^i exactly along the chosen path
    for i in range(len(res.array.levels)):
        assert cert.value(res.path[: 2 * i]) == Fraction(4, 3) ** i
    assert cert.value("11") == 0  # off the array


def test_packing_certificate_is_supermartingale(small_oscillating_pair):
    odd, even = small_oscillating_pair
    res = build_parity_test(odd, even, 3, 100)
    cert, _ = packing_certificate(res.array)
    t = cert.to_table(6)
    assert validate(t).supermartingale
    # beyond the materialized levels the value freezes
    deep = res.path[:6]
    assert cert.value(deep + "0101") == cert.value(deep)
