"""Integer duels: the greedy walk, settling with cone certificates, and
block interpolation."""

from fractions import Fraction

import pytest

from paritybet import (
    BetProgram,
    EngineBankruptError,
    Fsm,
    FsmState,
    IntegerBet,
    IntStrategy,
    Parity,
    PreconditionError,
    Sided,
    StructuralError,
    constant_program,
    diagonalize,
    find_settling_extension,
    replay_trace,
    unit_bet_alternating,
    unit_bet_on_one,
    verify_cone_constancy,
)

from conftest import parity_window


def sided_constant(name, cap, outcome):
    prog = constant_program(
        cap, IntegerBet(1, outcome), Parity.NONE,
        Sided.ONE if outcome == 1 else Sided.ZERO,
    )
    return IntStrategy(prog, name=name)


def test_unit_engines():
    n = unit_bet_on_one()
    assert n.name == "N" and n.initial == 5
    assert n.program.value("111") == 8
    assert n.program.value("0") == 4
    d = unit_bet_alternating()
    assert d.name == "D"
    # favors 0 at even positions, 1 at odd ones
    assert d.program.value("01") == 7


def test_int_strategy_needs_integer_form():
    with pytest.raises(StructuralError):
        IntStrategy(constant_program(Fraction(1, 2), None))


def test_greedy_frozen_small():
    advs = [
        IntStrategy(constant_program(3, IntegerBet(1, 0), Parity.BETS_ON_EVEN), name="a"),
        IntStrategy(constant_program(2, IntegerBet(1, 1), Parity.BETS_ON_ODD), name="b"),
    ]
    tr = diagonalize(advs, unit_bet_on_one(), 20)
    assert tr.z == "1010111111111111111"
    assert tr.reached
    assert tr.records[-1].engine == 20
    replay_trace(tr, unit_bet_on_one(), advs)


def test_greedy_deviation_accounting():
    advs = [
        IntStrategy(constant_program(3, IntegerBet(1, 0), Parity.BETS_ON_EVEN), name="a"),
        IntStrategy(constant_program(2, IntegerBet(1, 1), Parity.BETS_ON_ODD), name="b"),
    ]
    tr = diagonalize(advs, unit_bet_on_one(), 50)
    deviations = [r for r in tr.records if r.rule == "deviate"]
    # every deviation drops the aggregate adversary capital by >= 1
    assert len(deviations) <= 3 + 2
    caps = [sum(r.adversaries) for r in tr.records]
    assert all(b <= a for a, b in zip(caps, caps[1:]))


def test_greedy_rejects_untagged_adversary():
    untagged = IntStrategy(constant_program(3, IntegerBet(1, 0)))
    with pytest.raises(PreconditionError):
        diagonalize([untagged], unit_bet_on_one(), 10)


def test_greedy_rejects_dim0():
    advs = [parity_window("w", 3, 2)]
    with pytest.raises(PreconditionError):
        diagonalize(advs, unit_bet_on_one(), 10, mode="greedy", dim0_blocks=4)


def test_replay_detects_tampering():
    advs = [IntStrategy(constant_program(2, IntegerBet(1, 1), Parity.BETS_ON_ODD), name="b")]
    tr = diagonalize(advs, unit_bet_on_one(), 15)
    other = [IntStrategy(constant_program(3, IntegerBet(1, 1), Parity.BETS_ON_ODD), name="b")]
    with pytest.raises(StructuralError):
        replay_trace(tr, unit_bet_on_one(), other)


def test_settle_certifies_cones():
    advs = [parity_window("w0", 4, 3), parity_window("w1", 3, 2)]
    tr = diagonalize(advs, unit_bet_on_one(), 30, mode="settle")
    assert tr.reached and len(tr.certificates) == 2
    for cert in tr.certificates:
        adv = advs[cert.adversary]
        assert verify_cone_constancy(adv, cert.prefix, 12)
        assert adv.program.value(cert.prefix) == cert.constant_value


def test_settle_dim0_blocks():
    advs = [parity_window("w0", 4, 3), parity_window("w1", 3, 2)]
    tr = diagonalize(advs, unit_bet_on_one(), 30, mode="settle", dim0_blocks=8)
    assert len(tr.checkpoints) == 2
    # block sizes double per settled adversary: 8 then 16 pairs
    assert tr.checkpoints[0].block_bits == 16
    assert tr.checkpoints[1].block_bits == 16 + 32
    for cp in tr.checkpoints:
        assert cp.fraction == Fraction(cp.block_bits, cp.position)
    # the unit engine nets zero over each 01 block
    replay_trace(tr, unit_bet_on_one(), advs)


def test_find_settling_extension():
    adv = parity_window("w", 5, 4)
    tau, cert = find_settling_extension(adv, "", 5, "parity")
    # certification happens first, padding to the capital target after
    assert tau.startswith(cert.prefix)
    assert verify_cone_constancy(adv, cert.prefix, 16)
    assert unit_bet_on_one().program.value(tau) > 5


def test_settle_needs_capital_buffer():
    adv = parity_window("w", 5, 4)
    with pytest.raises(PreconditionError):
        # three straight losses leave the unit engine at 2: not enough
        find_settling_extension(adv, "000", 5, "parity")


def test_engine_d_greedy_with_sided_adversaries():
    advs = [sided_constant("s1", 4, 1), sided_constant("s0", 3, 0)]
    tr = diagonalize(advs, unit_bet_alternating(), 25)
    assert tr.reached
    replay_trace(tr, unit_bet_alternating(), advs)
    caps = [sum(r.adversaries) for r in tr.records]
    assert all(b <= a for a, b in zip(caps, caps[1:]))


def test_engine_bankruptcy_aborts_loudly():
    # 1-bettors at both parities force a deviation at every single bit, so
    # the unit engine bleeds 1 per step and hits 0 before they run dry
    advs = [
        IntStrategy(constant_program(9, IntegerBet(2, 1), Parity.BETS_ON_EVEN), name="e0"),
        IntStrategy(constant_program(9, IntegerBet(2, 1), Parity.BETS_ON_EVEN), name="e1"),
        IntStrategy(constant_program(9, IntegerBet(2, 1), Parity.BETS_ON_ODD), name="o0"),
        IntStrategy(constant_program(9, IntegerBet(2, 1), Parity.BETS_ON_ODD), name="o1"),
    ]
    with pytest.raises(EngineBankruptError):
        diagonalize(advs, unit_bet_on_one(), 10**6)


def _duels():
    parity_advs = [parity_window("w0", 4, 3), parity_window("w1", 3, 2)]
    tagged = [
        IntStrategy(constant_program(3, IntegerBet(1, 0), Parity.BETS_ON_EVEN), name="a"),
        IntStrategy(constant_program(2, IntegerBet(1, 1), Parity.BETS_ON_ODD), name="b"),
    ]
    sided = [sided_constant("s1", 4, 1), sided_constant("s0", 3, 0)]
    return [
        ("greedy-N", unit_bet_on_one(), tagged, {}),
        ("greedy-D", unit_bet_alternating(), sided, {}),
        ("settle-dim0", unit_bet_on_one(), parity_advs, {"mode": "settle", "dim0_blocks": 4}),
    ]


@pytest.mark.parametrize("name, engine, advs, kwargs", _duels(), ids=[d[0] for d in _duels()])
def test_duel_capitals_match_program_value(name, engine, advs, kwargs):
    # the duel's cursor against the reference walk, bit by bit
    tr = diagonalize(advs, engine, 25, **kwargs)
    assert len(tr.records) == len(tr.z) > 0
    for i, rec in enumerate(tr.records):
        prefix = tr.z[: i + 1]
        assert type(rec.engine) is int
        assert rec.engine == engine.program.value(prefix)
        for cap, adv in zip(rec.adversaries, advs, strict=True):
            assert type(cap) is int
            assert cap == adv.program.value(prefix)
