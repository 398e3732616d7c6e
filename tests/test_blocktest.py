"""The two-round block inequality, the at-most-three enumeration, and the
nested test built from them."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    dumps,
    enumerate_block,
    follow_program,
    FractionBet,
    greedy_leftmost_extension,
    level_measure,
    max_fanout,
    packing_certificate,
    validate,
    verify_block_inequality,
)
from paritybet.blocktest import EnumState
from paritybet.programs import _exceeds, _joint

import fraction_reference as ref


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
    assert level_measure(arr, 0) == 1


@pytest.mark.parametrize("level", [-1, 3])
def test_level_measure_refuses_a_level_outside_the_array(level):
    arr = TestArray((("",), ("00", "10"), ("0000", "0010", "1000")))
    with pytest.raises(PreconditionError, match="levels 0..depth"):
        level_measure(arr, level)


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
    monkeypatch.setattr(
        blocktest, "_enumerate_block",
        lambda m, n, joint, parent, *_: EnumState(parent, Fraction(1), (parent + "00",), "closed", 0))
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


_STAKES = [Fraction(-1, 2), Fraction(-1, 3), Fraction(1, 4), Fraction(1, 2), Fraction(1)]


def _side(parity):
    """Up to four components of one parity, waking at stages up to 8:
    quiet, constant-bet and target-following programs, with weights that
    put the joint root on both sides of the threshold 1."""
    program = st.one_of(
        st.builds(constant_program, st.sampled_from([1, Fraction(1, 3)]), st.none(), st.just(parity)),
        st.builds(constant_program, st.just(1), st.builds(FractionBet, st.sampled_from(_STAKES)),
                  st.just(parity)),
        # the path goes left, so zero-led targets pump the blocks above it
        st.builds(follow_program,
                  st.text("01", max_size=12) | st.integers(0, 12).map(lambda k: "0" * k),
                  st.just(parity), st.sampled_from([Fraction(1, 2), Fraction(1, 4), Fraction(1, 16)])),
    )
    weight = st.sampled_from([0, Fraction(1, 8), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), 1])
    comps = st.lists(st.builds(Component, st.integers(0, 8), weight, program), max_size=4)
    # an all-in bet of weight 1/2 on bit 0 at odd positions lifts both
    # reference leaves of a block at once, which closes it
    pump = st.builds(
        lambda stage: Component(stage, Fraction(1, 2), constant_program(1, FractionBet(-1), parity)),
        st.integers(0, 8),
    )
    pumps = st.lists(pump, max_size=1 if parity is Parity.BETS_ON_ODD else 0)
    return st.tuples(comps, pumps).map(
        lambda cs: StageApprox(tuple(cs[0] + cs[1]), Kind.MARTINGALE, parity))


_PAIRS = st.tuples(_side(Parity.BETS_ON_ODD), _side(Parity.BETS_ON_EVEN))


def _unit_pair(stage=0):
    """Two quiet halves, waking at stage: the joint capital is exactly 1
    at every state from stage on."""
    return tuple(
        StageApprox((Component(stage, Fraction(1, 2), constant_program(1, None, p)),),
                    Kind.MARTINGALE, p)
        for p in (Parity.BETS_ON_ODD, Parity.BETS_ON_EVEN)
    )


def _outcome(run, *args):
    """run's result, or the type and text of what it raised."""
    try:
        return run(*args)
    except BettingLabError as err:
        return type(err), str(err)


@settings(max_examples=150, deadline=None)
@given(_PAIRS, st.text("01", max_size=7).map(lambda s: s[: len(s) // 2 * 2]),
       st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(3, 4), Fraction(5, 4), 2]),
       st.integers(0, 10))
@example(_unit_pair(), "", Fraction(1), 10)  # the joint is exactly c at both leaves
@example(_unit_pair(3), "01", Fraction(1), 10)
def test_enumerate_block_matches_the_reference(pair, parent, c, budget):
    got = _outcome(enumerate_block, parent, c, *pair, budget)
    want = _outcome(ref.enumerate_block, parent, c, *pair, budget)
    assert got == want
    if isinstance(got, EnumState) and got.recorded is not None:
        assert dumps(got.recorded) == dumps(want.recorded)


@settings(max_examples=150, deadline=None)
@given(_PAIRS, st.integers(0, 6), st.integers(0, 10))
@example(_unit_pair(), 3, 10)  # the joint is exactly 1 at the root and on every child
@example(_unit_pair(2), 3, 1)
def test_build_parity_test_matches_the_reference(pair, depth, stages):
    got = _outcome(build_parity_test, *pair, depth, stages)
    want = _outcome(ref.build_parity_test, *pair, depth, stages)
    assert got == want
    if not isinstance(got, tuple):
        assert dumps(got) == dumps(want)


@settings(max_examples=150, deadline=None)
@given(_PAIRS, st.integers(0, 9), st.integers(-1, 9), st.text("01", max_size=10), st.booleans(),
       st.fractions(0, 3, max_denominator=64))
@example(_unit_pair(), 0, -1, "0110", True, Fraction(0))  # at the greedy walk's bound
@example(_unit_pair(), 0, -1, "0110", False, Fraction(1))
def test_joint_over_matches_a_fraction_sum(pair, stage, since, state, exact, bound):
    m, n = pair
    joint = _joint(m, n)
    value = m.eval(stage, state) + n.eval(stage, state)
    if exact:  # the bound the stage machine walks under: a joint capital itself
        bound = value
    assert _exceeds(joint._read(stage, state), bound) is (value > bound)
    assert Fraction(*joint._read(stage, state)) == value == joint.eval(stage, state)
    # a running sum read at since, then brought up to stage
    since = min(since, stage)
    assert Fraction(*joint._read(stage, state, since, joint._read(since, state))) == value


def test_one_bits_check_per_joint_read_covers_every_path():
    # a pair without components walks no program, so only enumerate_block's
    # own check can reject its parent
    empty = tuple(StageApprox((), Kind.MARTINGALE, p)
                  for p in (Parity.BETS_ON_ODD, Parity.BETS_ON_EVEN))
    for pair in (empty, _unit_pair()):
        with pytest.raises(StructuralError):
            enumerate_block("0a", 1, *pair, 5)
    joint = _joint(*_unit_pair())
    for bad in ("01x", "2", ["0"]):
        with pytest.raises(StructuralError):
            joint._read(0, bad)
    with pytest.raises(StructuralError):
        greedy_leftmost_extension(lambda s: False, "0x", 4)
