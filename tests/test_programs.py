"""Finite betting programs: bet application, the program zoo, structural
tag enforcement, and staged mixtures."""

import random
from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paritybet import (
    BetProgram,
    BitRecord,
    Component,
    FractionBet,
    Fsm,
    FsmState,
    IntStrategy,
    IntegerBet,
    Kind,
    PackingCertificate,
    Parity,
    PreconditionError,
    ScaleBet,
    Sided,
    StageApprox,
    StructuralError,
    TestArray,
    at_stage,
    constant_program,
    diagonalize,
    dumps,
    floor,
    follow_program,
    mixture,
    unit_bet_on_one,
    validate,
)
from paritybet import bits
from paritybet.diagonal import _Players

import fraction_reference as ref


def one_state(initial, bet):
    return BetProgram(Fraction(initial), Fsm((FsmState(bet, 0, 0),)))


def test_apply_bet_zero_absorbing():
    # the bet law through a one-state program's value and to_table(1)
    for bet in (FractionBet(Fraction(1, 2)), IntegerBet(3, 1), ScaleBet(Fraction(1, 2))):
        p = one_state(0, bet)
        assert p.value("0") == 0
        assert p.value("1") == 0
        assert dict(p.to_table(1).values) == {"": 0, "0": 0, "1": 0}


def test_apply_bet_shapes():
    # (bet, capital before, capital after 0, capital after 1)
    cases = [
        (None, 5, 5, 5),
        (FractionBet(Fraction(1, 2)), 2, 1, 3),
        # integer bets clamp the wager at the capital
        (IntegerBet(7, 1), 3, 0, 6),
        (IntegerBet(2, 1), 3, 1, 5),
        (ScaleBet(Fraction(1, 2)), 2, 1, 1),
    ]
    for bet, before, after0, after1 in cases:
        p = one_state(before, bet)
        assert (p.value("0"), p.value("1")) == (after0, after1)
        assert dict(p.to_table(1).values) == {"": before, "0": after0, "1": after1}
    # int capitals stay int under integer bets, for the integer duels: the
    # adversaries net -1 on the unit engine's 1, so the duel plays it
    advs = [
        IntStrategy(constant_program(3, IntegerBet(2, 1), Parity.BETS_ON_EVEN), name="a"),
        IntStrategy(constant_program(3, IntegerBet(3, 0), Parity.BETS_ON_EVEN), name="b"),
    ]
    first = diagonalize(advs, unit_bet_on_one(), 6).records[0]
    assert first == BitRecord("1", "favored", 6, (5, 0))
    assert [type(c) for c in (first.engine, *first.adversaries)] == [int, int, int]


def test_bet_shape_guards():
    with pytest.raises(StructuralError):
        FractionBet(Fraction(3, 2))
    with pytest.raises(StructuralError):
        IntegerBet(-1, 0)
    with pytest.raises(StructuralError):
        IntegerBet(1, 2)
    with pytest.raises(StructuralError):
        ScaleBet(Fraction(3, 2))


# each entry point where a rational enters a program, with an exact value
# it takes and a float it refuses: a float's binary value (0.1 is
# 3602879701896397/36028797018963968) would enter without a word, and a
# float wager would make an "integer" program's capitals floats
_FLOAT_ENTRIES = {
    "integer-wager": (lambda v: IntegerBet(v, 1), 2, 1.5),
    "fraction-stake": (FractionBet, "1/10", 0.1),
    "scale-factor": (ScaleBet, 1, 0.5),
    "constant-initial": (lambda v: constant_program(v, None), "1/2", 0.1),
    "follow-initial": (lambda v: follow_program("01", Parity.BETS_ON_ODD, v), 1, 0.5),
    "component-weight": (lambda v: Component(0, v, constant_program(1, None)), Fraction(1, 2), 0.5),
}


@pytest.mark.parametrize("make, exact, inexact", _FLOAT_ENTRIES.values(), ids=_FLOAT_ENTRIES)
def test_a_float_is_refused_where_a_rational_enters(make, exact, inexact):
    make(exact)
    with pytest.raises(StructuralError, match="integer wager must be an int|not an exact rational"):
        make(inexact)


def test_fsm_guards():
    with pytest.raises(StructuralError):
        Fsm(())
    with pytest.raises(StructuralError):
        Fsm((FsmState(None, 0, 2),))


def test_fsm_refuses_a_start_state_out_of_range():
    # the wire fuzz reaches this guard on some draws only
    for start in (-1, 1):
        with pytest.raises(StructuralError, match="^start state out of range$"):
            Fsm((FsmState(None, 0, 0),), start)


def test_program_form_promises():
    with pytest.raises(StructuralError):
        BetProgram(Fraction(1), Fsm((FsmState(IntegerBet(1, 0), 0, 0),)), "fractional")
    with pytest.raises(StructuralError):
        BetProgram(Fraction(1, 2), Fsm((FsmState(IntegerBet(1, 0), 0, 0),)), "integer")
    with pytest.raises(StructuralError):
        BetProgram(Fraction(1), Fsm((FsmState(FractionBet(0), 0, 0),)), "integer")


def test_structural_parity_check():
    # machine bets at every position: cannot claim a parity
    with pytest.raises(StructuralError):
        BetProgram(
            Fraction(1),
            Fsm((FsmState(FractionBet(Fraction(1, 2)), 0, 0),)),
            "fractional",
            Parity.BETS_ON_EVEN,
        )
    # a bet that cannot move capital still counts as a bet
    for bet in (FractionBet(0), IntegerBet(0, 1), ScaleBet(1)):
        with pytest.raises(StructuralError, match="^declared bets_on_even but machine state 0 bets at position parity 1$"):
            BetProgram(Fraction(1), Fsm((FsmState(bet, 0, 0),)), "fsm", Parity.BETS_ON_EVEN, Sided.ZERO)


def test_structural_sided_check():
    with pytest.raises(StructuralError):
        constant_program(1, FractionBet(Fraction(1, 2)), Parity.BETS_ON_EVEN, Sided.ZERO)
    constant_program(1, FractionBet(Fraction(1, 2)), Parity.BETS_ON_EVEN, Sided.ONE)
    leans_to_1 = (FractionBet(Fraction(1, 2)), IntegerBet(1, 1))
    leans_to_0 = (FractionBet(Fraction(-1, 2)), IntegerBet(1, 0))
    level = (FractionBet(0), IntegerBet(0, 1), IntegerBet(0, 0), ScaleBet(Fraction(1, 2)), None)
    for sided, banned, message in (
        (Sided.ZERO, leans_to_1, "declared zero_sided but a bet leans to 1"),
        (Sided.ONE, leans_to_0, "declared one_sided but a bet leans to 0"),
    ):
        for bet in banned:
            with pytest.raises(StructuralError, match=f"^{message}$"):
                constant_program(1, bet, Parity.NONE, sided)
        allowed = level + (leans_to_0 if sided is Sided.ZERO else leans_to_1)
        for bet in allowed:
            constant_program(1, bet, Parity.NONE, sided)


def test_constant_program_parity_values():
    p = constant_program(1, FractionBet(Fraction(1, 2)), Parity.BETS_ON_EVEN)
    assert p.value("") == 1
    assert p.value("1") == Fraction(3, 2)
    assert p.value("10") == Fraction(3, 2)  # odd-length state: no bet
    assert p.value("101") == Fraction(9, 4)
    assert validate(p.to_table(4)).holds(Kind.MARTINGALE, Parity.BETS_ON_EVEN, Sided.NONE)


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


@pytest.mark.parametrize("parity", [Parity.BETS_ON_EVEN, Parity.BETS_ON_ODD])
def test_follow_program_shares_its_two_bets(parity):
    target = "".join(random.Random(2000).choice("01") for _ in range(2000))
    p = follow_program(target, parity, Fraction(1, 8))
    assert len({id(st_.bet) for st_ in p.rule.states if st_.bet is not None}) <= 2
    # the same machine with a fresh bet at every betting state
    n, fresh = len(target), []
    for i, wants in enumerate(target):
        bet = FractionBet(Fraction(1 if wants == "1" else -1)) if parity.bets_at(i) else None
        fresh.append(FsmState(bet, i + 1 if wants == "0" else n + 1, i + 1 if wants == "1" else n + 1))
    fresh += [FsmState(None, n, n), FsmState(None, n + 1, n + 1)]
    built = BetProgram(Fraction(1, 8), Fsm(tuple(fresh)), "fractional", parity)
    assert dumps(p) == dumps(built)


def test_follow_needs_parity():
    with pytest.raises(PreconditionError):
        follow_program("01", Parity.NONE, 1)


def test_program_kind_property():
    leaky = BetProgram(Fraction(1), Fsm((FsmState(ScaleBet(Fraction(1, 2)), 0, 0),)))
    assert leaky.kind is Kind.SUPERMARTINGALE
    assert constant_program(1, None).kind is Kind.MARTINGALE
    # read once and kept, as a mixture reads it of every component
    assert "kind" in vars(leaky)


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
    with pytest.raises(PreconditionError):
        StageApprox((Component(0, Fraction(1, 2), odd),), sided=Sided.ONE)
    leaky = BetProgram(Fraction(1), Fsm((FsmState(ScaleBet(Fraction(1, 2)), 0, 0),)))
    with pytest.raises(PreconditionError):
        StageApprox((Component(0, Fraction(1, 2), leaky),), Kind.MARTINGALE)
    # and a reader of something that is no strategy
    with pytest.raises(PreconditionError):
        at_stage(object())


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
    assert approx.value("") == Fraction(1, 4)
    t = approx.table(3, 4)
    assert validate(t).holds(Kind.MARTINGALE, Parity.BETS_ON_ODD, Sided.NONE)


def test_mixture_weights_and_root_bound():
    progs = [constant_program(1, None, Parity.BETS_ON_ODD) for _ in range(5)]
    mix = mixture(progs, Parity.BETS_ON_ODD)
    # weights 2^-(i+2) keep the root strictly below 1/2
    assert mix.value("") == sum(Fraction(1, 2 ** (i + 2)) for i in range(5))
    assert mix.value("") < Fraction(1, 2)
    assert [c.stage for c in mix.components] == [0, 1, 2, 3, 4]


def test_mixture_rejects_mismatched_parity():
    with pytest.raises(PreconditionError):
        mixture([constant_program(1, None, Parity.BETS_ON_EVEN)], Parity.BETS_ON_ODD)
    with pytest.raises(PreconditionError):
        mixture([], Parity.BETS_ON_ODD)
    with pytest.raises(PreconditionError):
        mixture([constant_program(1, None)], Parity.NONE)
    with pytest.raises(PreconditionError):
        mixture([constant_program(2, None, Parity.BETS_ON_ODD)], Parity.BETS_ON_ODD)


# every bet shape, with the edge cases of the law drawn often: stakes of
# -1, 0 and 1, scale factors of 0 and 1, wagers above the capital, and
# zero initial capital
_BETS = st.one_of(
    st.none(),
    st.builds(FractionBet, st.sampled_from([-1, 0, 1]) | st.fractions(-1, 1, max_denominator=6)),
    st.builds(IntegerBet, st.integers(0, 9), st.integers(0, 1)),
    st.builds(ScaleBet, st.sampled_from([0, 1]) | st.fractions(0, 1, max_denominator=6)),
)


@st.composite
def _machines(draw, bets=_BETS, initial=st.just(0) | st.fractions(0, 4, max_denominator=4)):
    n = draw(st.integers(1, 8))
    target = st.integers(0, n - 1)
    states = tuple(FsmState(draw(bets), draw(target), draw(target)) for _ in range(n))
    return BetProgram(draw(initial), Fsm(states, draw(target)))


@settings(max_examples=300, deadline=None)
@given(_machines(bets=st.none() | _BETS), st.sampled_from(Parity), st.sampled_from(Sided))
@example(one_state(1, FractionBet(Fraction(-1, 4))), Parity.NONE, Sided.ONE)  # it leans to 0 by 1/2
def test_tag_check_matches_the_configuration_walk(program, parity, sided):
    # the same accept or refuse, and the same first violation, as the walk
    # of the (machine state, position parity) graph
    want = ref.structural_tags(program, parity, sided)
    try:
        BetProgram(program.initial, program.rule, program.form, parity, sided)
    except StructuralError as exc:
        assert str(exc) == want
    else:
        assert want is None


@st.composite
def _prefix_closed_strings(draw):
    """Every prefix of a few random strings, repeats kept, in random order,
    so a walk may start fresh or resume from 0, 1 or 2 bits back."""
    tips = draw(st.lists(st.text(alphabet="01", max_size=10), min_size=1, max_size=4))
    return draw(st.permutations([tip[:k] for tip in tips for k in range(len(tip) + 1)]))


@settings(max_examples=100, deadline=None)
@given(_machines(), _prefix_closed_strings())
def test_resumed_walk_matches_a_fresh_walk(program, strings):
    # to_table is an independent depth-first evaluator; one table at the
    # longest length holds every prefix read below
    table = program.to_table(max(map(len, strings)))
    for s in strings:
        assert program.value(s) == table.value(s)


@st.composite
def _mixtures(draw):
    """Up to five components of every bet shape, weights over mixed
    denominators and zero, and the stages around their activations."""
    weights = st.just(0) | st.fractions(0, 3, max_denominator=12)
    comps = draw(st.lists(
        st.builds(Component, st.integers(0, 6), weights, _machines()), max_size=5
    ))
    wakes = sorted({c.stage for c in comps})
    # below, at, between and past the activation stages
    around = {w + d for w in wakes for d in (-1, 0, 1)} | {0, 7}
    stages = draw(st.lists(st.sampled_from(sorted(around)), min_size=1, max_size=4))
    return StageApprox(tuple(comps), Kind.SUPERMARTINGALE), stages


@settings(max_examples=100, deadline=None)
@given(_mixtures(), _prefix_closed_strings())
def test_mixture_eval_matches_a_fraction_sum(mixture_and_stages, strings):
    approx, stages = mixture_and_stages
    for stage in stages:
        for s in strings:
            want = sum(
                (c.weight * c.program.value(s) for c in approx.components if c.stage <= stage),
                Fraction(0),
            )
            got = approx.eval(stage, s)
            assert got == want and type(got) is Fraction


# a stake-1/2 component awake from stage 0 and a quiet one from stage 2,
# at depths 0 and 2: explicit examples run first and are not shrunk, so a fault fails fast
_TWO_WAKES = StageApprox((Component(0, Fraction(1, 2), constant_program(1, FractionBet(Fraction(1, 2)))),
                          Component(2, Fraction(1, 4), constant_program(2, None))))


@settings(max_examples=100, deadline=None)
@given(_mixtures(), _prefix_closed_strings(), st.integers(0, 4))
@example((_TWO_WAKES, []), ["", "1"], 0)
@example((_TWO_WAKES, []), ["", "1", "10"], 2)
def test_a_mixture_at_a_stage_is_the_mixture_of_its_awake_components(mixture_and_stages, strings, depth):
    m = mixture_and_stages[0]
    wakes = {c.stage for c in m.components}
    last = m.last_stage()
    stages = {-1, 0, last + 1, last + 5} | {w + d for w in wakes for d in (-1, 0, 1)}
    for stage in [*sorted(stages), None]:
        awake = [c for c in m.components if stage is None or c.stage <= stage]
        read = last if stage is None else stage
        at = at_stage(m, stage)
        table = at.to_table(depth)
        assert table == m.table(stage, depth) == m.table(read, depth)
        for s in [*strings, *bits.all_states(depth)]:
            want = sum((c.weight * c.program.value(s) for c in awake), Fraction(0))
            assert at.value(s) == m.eval(read, s) == want
            if len(s) <= depth:
                assert table.value(s) == want


def test_an_empty_mixture_evaluates_to_zero():
    assert StageApprox(()).eval(3, "01") == Fraction(0)
    assert type(StageApprox(()).eval(0, "")) is Fraction


def test_a_mixture_table_refuses_a_negative_depth():
    # even with no component, whose own to_table would refuse it
    for m in (StageApprox(()), _TWO_WAKES):
        with pytest.raises(PreconditionError, match="^table depth must be nonnegative$"):
            m.to_table(-1)


def test_value_rejects_a_non_binary_state_before_and_after_the_memo_fills():
    program = constant_program(1, FractionBet(Fraction(1, 2)))
    for _ in range(2):
        for bad in ("012", ["0"]):
            with pytest.raises(StructuralError):
                program.value(bad)
        # fill the memo with the prefixes a resumed walk of "012" would use
        assert program.value("01") == Fraction(3, 4)
        assert program.value("0") == Fraction(1, 2)


def test_a_resumed_walk_checks_only_the_bits_past_its_prefix(monkeypatch):
    # a read resumes from the memo entry one or two bits back, else walks
    # from the root; only the bits it walks are checked
    program = constant_program(1, FractionBet(Fraction(1, 2)))
    checked = []
    check = bits.check_bits
    monkeypatch.setattr(bits, "check_bits", lambda s: checked.append(s) or check(s))
    for s in ["", "0", "011", "0110", "0110", "1", "1011"]:
        assert program.value(s) == _reference_walk(program, s)
    assert checked == ["", "0", "11", "0", "1", "1011"]


_READERS = {
    "table": lambda: constant_program(1, FractionBet(Fraction(1, 2))).to_table(2),
    "program": lambda: constant_program(1, FractionBet(Fraction(1, 2))),
    "mixture": lambda: mixture([follow_program("0110", Parity.BETS_ON_ODD, 1)], Parity.BETS_ON_ODD),
    "certificate": lambda: PackingCertificate(TestArray((("",), ("00", "01", "10")))),
}


@pytest.mark.parametrize("make", _READERS.values(), ids=_READERS)
def test_every_reader_rejects_the_same_bad_states(make):
    read = at_stage(make()).value
    assert read("00") >= 0
    for bad in ("0x", "2", 5):
        with pytest.raises(StructuralError):
            read(bad)


def test_a_mixture_holds_only_its_fields():
    m = mixture([follow_program("0110", Parity.BETS_ON_ODD, 1)] * 2, Parity.BETS_ON_ODD)
    m.eval(1, "011")
    m.table(1, 4)
    floor(m, 4, Parity.BETS_ON_ODD, stage=1)
    assert set(vars(m)) == {f.name for f in fields(m)}


def _reference_walk(program, state):
    q, c = program.rule.start, program.initial
    for bit in state:
        st_ = program.rule.states[q]
        c = ref.apply_bet(st_.bet, c, bit)
        q = st_.on0 if bit == "0" else st_.on1
    return c


@settings(max_examples=150, deadline=None)
@given(_machines(), _prefix_closed_strings(), st.integers(0, 8))
def test_bet_law_matches_the_fraction_reference(program, strings, depth):
    for s in strings:
        want = _reference_walk(program, s)
        # resumed from the program's own walks, then fresh
        assert program.value(s) == want
        assert type(program.value(s)) is Fraction
        assert BetProgram(program.initial, program.rule).value(s) == want
    assert dumps(program.to_table(depth)) == dumps(ref.to_table(program, depth))


_INT_MACHINES = _machines(
    st.none() | st.builds(IntegerBet, st.integers(0, 9), st.integers(0, 1)),
    st.integers(0, 6),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(_INT_MACHINES, min_size=1, max_size=4), st.text(alphabet="01", max_size=12))
def test_duel_capitals_match_the_fraction_reference(programs, z):
    strategies = [IntStrategy(BetProgram(p.initial, p.rule, "integer")) for p in programs]
    players = _Players(strategies)
    qs = [p.rule.start for p in programs]
    caps = [int(p.initial) for p in programs]
    for bit in z:
        bets = [p.rule.states[q].bet for p, q in zip(programs, qs)]
        moved = [ref.apply_bet(b, c, bit) for b, c in zip(bets, caps)]
        assert players.lean(bit) == sum(moved[1:]) - sum(caps[1:])
        players.step(bit)
        qs = [p.rule.states[q].on1 if bit == "1" else p.rule.states[q].on0 for p, q in zip(programs, qs)]
        caps = moved
        assert players.cap == caps and [players.at(i) for i in range(len(qs))] == qs
        assert all(type(c) is int for c in players.cap)
