"""Finite betting programs: bet application, the program zoo, structural
tag enforcement, and staged mixtures."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paritybet import (
    BetProgram,
    Component,
    FractionBet,
    Fsm,
    FsmState,
    IntegerBet,
    Kind,
    Parity,
    PreconditionError,
    ScaleBet,
    Sided,
    StageApprox,
    StructuralError,
    apply_bet,
    by_parity_program,
    combine_programs,
    constant_program,
    follow_program,
    mixture,
    validate,
)


def test_apply_bet_zero_absorbing():
    for bet in (FractionBet(Fraction(1, 2)), IntegerBet(3, 1), ScaleBet(Fraction(1, 2))):
        assert apply_bet(bet, Fraction(0), "0") == 0
        assert apply_bet(bet, Fraction(0), "1") == 0


def test_apply_bet_shapes():
    assert apply_bet(None, Fraction(5), "0") == 5
    assert apply_bet(FractionBet(Fraction(1, 2)), Fraction(2), "1") == 3
    assert apply_bet(FractionBet(Fraction(1, 2)), Fraction(2), "0") == 1
    # integer bets clamp the wager at the capital
    assert apply_bet(IntegerBet(7, 1), Fraction(3), "0") == 0
    assert apply_bet(IntegerBet(7, 1), Fraction(3), "1") == 6
    # int capitals stay int under integer bets, for the integer duels
    for bit in "01":
        after = apply_bet(IntegerBet(2, 1), 3, bit)
        assert type(after) is int and after == (5 if bit == "1" else 1)
    assert apply_bet(ScaleBet(Fraction(1, 2)), Fraction(2), "1") == 1


def test_bet_shape_guards():
    with pytest.raises(StructuralError):
        FractionBet(Fraction(3, 2))
    with pytest.raises(StructuralError):
        IntegerBet(-1, 0)
    with pytest.raises(StructuralError):
        IntegerBet(1, 2)
    with pytest.raises(StructuralError):
        ScaleBet(Fraction(3, 2))


def test_fsm_guards():
    with pytest.raises(StructuralError):
        Fsm(())
    with pytest.raises(StructuralError):
        Fsm((FsmState(None, 0, 2),))


def test_program_form_promises():
    with pytest.raises(StructuralError):
        BetProgram(Fraction(1), Fsm((FsmState(IntegerBet(1, 0), 0, 0),)), "fractional")
    with pytest.raises(StructuralError):
        BetProgram(Fraction(1, 2), Fsm((FsmState(IntegerBet(1, 0), 0, 0),)), "integer")


def test_structural_parity_check():
    # machine bets at every position: cannot claim a parity
    with pytest.raises(StructuralError):
        BetProgram(
            Fraction(1),
            Fsm((FsmState(FractionBet(Fraction(1, 2)), 0, 0),)),
            "fractional",
            Parity.BETS_ON_EVEN,
        )


def test_structural_sided_check():
    with pytest.raises(StructuralError):
        constant_program(1, FractionBet(Fraction(1, 2)), Parity.BETS_ON_EVEN, Sided.ZERO)
    constant_program(1, FractionBet(Fraction(1, 2)), Parity.BETS_ON_EVEN, Sided.ONE)


def test_constant_program_parity_values():
    p = constant_program(1, FractionBet(Fraction(1, 2)), Parity.BETS_ON_EVEN)
    assert p.value("") == 1
    assert p.value("1") == Fraction(3, 2)
    assert p.value("10") == Fraction(3, 2)  # odd-length state: no bet
    assert p.value("101") == Fraction(9, 4)
    assert validate(p.to_table(4)).holds(Kind.MARTINGALE, Parity.BETS_ON_EVEN, Sided.NONE)


def test_by_parity_program():
    p = by_parity_program(1, FractionBet(Fraction(1, 2)), FractionBet(Fraction(-1, 2)))
    assert p.value("1") == Fraction(3, 2)
    assert p.value("10") == Fraction(9, 4)
    assert validate(p.to_table(4)).martingale


def test_follow_program_doubles_then_freezes():
    p = follow_program("1010", Parity.BETS_ON_ODD, Fraction(1, 4))
    # bets at odd positions only: doubles at steps 2 and 4
    prefixes = ["1010"[:i] for i in range(5)]
    assert [str(p.value(s)) for s in prefixes] == ["1/4", "1/4", "1/2", "1/2", "1"]
    assert p.value("10101") == 1  # constant on the cone
    assert p.value("1011") == 0  # wrong bit at a betting state
    # a wrong bit at a copying state diverges without losing the stake
    assert p.value("00") == Fraction(1, 4)


def test_follow_program_even_parity():
    p = follow_program("1010", Parity.BETS_ON_EVEN, Fraction(1, 4))
    assert p.value("1010") == 1
    assert p.value("0") == 0  # first position is a betting state


def test_follow_needs_parity():
    with pytest.raises(PreconditionError):
        follow_program("01", Parity.NONE, 1)


def test_program_kind_property():
    leaky = BetProgram(Fraction(1), Fsm((FsmState(ScaleBet(Fraction(1, 2)), 0, 0),)))
    assert leaky.kind is Kind.SUPERMARTINGALE
    assert constant_program(1, None).kind is Kind.MARTINGALE


def test_component_guards():
    with pytest.raises(StructuralError):
        Component(-1, Fraction(1), constant_program(1, None))
    with pytest.raises(StructuralError):
        Component(0, Fraction(-1), constant_program(1, None))


def test_stage_approx_tag_enforcement():
    odd = constant_program(1, FractionBet(Fraction(1, 2)), Parity.BETS_ON_ODD)
    even = constant_program(1, FractionBet(Fraction(1, 2)), Parity.BETS_ON_EVEN)
    with pytest.raises(PreconditionError):
        StageApprox((Component(0, Fraction(1, 2), even),), parity=Parity.BETS_ON_ODD)
    StageApprox((Component(0, Fraction(1, 2), odd),), parity=Parity.BETS_ON_ODD)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 10), st.integers(1, 8)), min_size=1, max_size=4),
    st.integers(0, 12),
    st.text(alphabet="01", max_size=8),
)
def test_stage_approx_monotone_in_stage(parts, stage, state):
    comps = tuple(
        Component(s, Fraction(1, w), constant_program(1, FractionBet(Fraction(1, 2)), Parity.BETS_ON_EVEN))
        for s, w in parts
    )
    approx = StageApprox(comps, Kind.MARTINGALE, Parity.BETS_ON_EVEN)
    assert approx.eval(stage, state) <= approx.eval(stage + 1, state)
    assert approx.eval(stage, state) >= 0


def test_stage_approx_final_and_table():
    odd = constant_program(1, FractionBet(Fraction(-1, 2)), Parity.BETS_ON_ODD)
    approx = StageApprox((Component(3, Fraction(1, 4), odd),), parity=Parity.BETS_ON_ODD)
    assert approx.eval(2, "") == 0
    assert approx.eval(3, "") == Fraction(1, 4)
    assert approx.final("") == Fraction(1, 4)
    t = approx.table(3, 4)
    assert validate(t).holds(Kind.MARTINGALE, Parity.BETS_ON_ODD, Sided.NONE)


def test_mixture_weights_and_root_bound():
    progs = [constant_program(1, None, Parity.BETS_ON_ODD) for _ in range(5)]
    mix = mixture(progs, Parity.BETS_ON_ODD)
    # weights 2^-(i+2) keep the root strictly below 1/2
    assert mix.final("") == sum(Fraction(1, 2 ** (i + 2)) for i in range(5))
    assert mix.final("") < Fraction(1, 2)
    assert [c.stage for c in mix.components] == [0, 1, 2, 3, 4]


def test_mixture_rejects_mismatched_parity():
    with pytest.raises(PreconditionError):
        mixture([constant_program(1, None, Parity.BETS_ON_EVEN)], Parity.BETS_ON_ODD)
    with pytest.raises(PreconditionError):
        mixture([], Parity.BETS_ON_ODD)


def test_combine_programs_mixed_parity():
    odd = constant_program(1, FractionBet(Fraction(1, 2)), Parity.BETS_ON_ODD)
    even = constant_program(1, FractionBet(Fraction(1, 2)), Parity.BETS_ON_EVEN)
    approx = combine_programs([(Fraction(1, 2), odd), (Fraction(1, 2), even)])
    assert approx.parity is Parity.NONE
    assert approx.eval(0, "") == 1
