"""Integer duels: the greedy walk, settling with cone certificates, and
block interpolation."""

import re
import time
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paritybet import (
    BettingLabError,
    BetProgram,
    BitRecord,
    DiagTrace,
    EngineBankruptError,
    Fsm,
    FsmState,
    IntegerBet,
    IntStrategy,
    Parity,
    PreconditionError,
    Sided,
    StructuralError,
    UnsupportedError,
    constant_program,
    diagonalize,
    find_settling_extension,
    parse_trace,
    replay_trace,
    trace_lines,
    unit_bet_alternating,
    unit_bet_on_one,
    verify_cone_constancy,
)

from paritybet import diagonal
from conftest import parity_window
from test_programs import _INT_MACHINES

import fraction_reference as ref


def sided_constant(name, cap, outcome):
    prog = constant_program(
        cap, IntegerBet(1, outcome), Parity.NONE,
        Sided.ONE if outcome == 1 else Sided.ZERO,
    )
    return IntStrategy(prog, name=name)


def late_window(name, cap):
    """Idles in a two-state loop, where 1 at an odd position loops and 0
    leaves it; two idle bits later it bets 1 on outcome 1 once, at an even
    position, and freezes. Both engines play 1 at odd positions while
    they settle an earlier adversary or pump, so the duel must plan and
    walk a three-bit path to reach the bet."""
    sts = (
        FsmState(None, 1, 1),
        FsmState(None, 2, 0),
        FsmState(None, 3, 3),
        FsmState(None, 4, 4),
        FsmState(IntegerBet(1, 1), 5, 5),
        FsmState(None, 5, 5),
    )
    prog = BetProgram(Fraction(cap), Fsm(sts), "integer", Parity.BETS_ON_EVEN, Sided.ONE)
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


def _late_families():
    return [
        ("N", unit_bet_on_one(), [parity_window("w0", 4, 3), late_window("late", 3)]),
        ("D", unit_bet_alternating(), [sided_constant("s0", 3, 0), late_window("late", 3)]),
    ]


@pytest.mark.parametrize("name, engine, advs", _late_families(), ids=[f[0] for f in _late_families()])
def test_settle_navigates_to_a_late_window(name, engine, advs):
    tr = diagonalize(advs, engine, 30, mode="settle")
    rules = [r.rule for r in tr.records]
    assert len(tr.certificates) == 2
    # the late window opens only once the first adversary has settled
    first = rules.index("navigate")
    assert first >= len(tr.certificates[0].prefix)
    # the planned leg is walked to its end, where the late window bets,
    # and that bet is defeated
    last = len(rules) - 1 - rules[::-1].index("navigate")
    assert rules[first : last + 1] == ["navigate"] * 3
    assert rules[last + 1] == "defeat"
    assert tr.records[last + 1].adversaries[1] == 2
    replay_trace(tr, engine, advs)
    for cert in tr.certificates:
        adv = advs[cert.adversary]
        assert verify_cone_constancy(adv, cert.prefix, 12)
        assert adv.program.value(cert.prefix) == cert.constant_value


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
    with pytest.raises(EngineBankruptError, match="^engine froze at 0 after 5 bits; "):
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
        *((f"settle-late-{n}", e, a, {"mode": "settle"}) for n, e, a in _late_families()),
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


def _greedy_with_deaths():
    """A greedy-N duel in which adversary 1 is driven to 0 by the fourth
    bit, and adversary 0 places its last bet on the fifth, keeping
    capital 1, and can bet no more."""
    advs = [
        parity_window("w", 4, 3),
        IntStrategy(constant_program(2, IntegerBet(1, 0), Parity.BETS_ON_ODD), name="b"),
    ]
    return advs, diagonalize(advs, unit_bet_on_one(), 20)


def test_the_planted_duel_has_both_deaths():
    _, tr = _greedy_with_deaths()
    assert [r.adversaries for r in tr.records[:5]] == [(3, 2), (3, 1), (2, 1), (2, 0), (1, 0)]
    assert tr.records[-1].adversaries == (1, 0) and tr.records[-1].engine == 20
    assert repr(tr.records) == repr(tuple(tr.records))


def test_replay_rejects_a_record_count_off_the_bits():
    advs, tr = _greedy_with_deaths()
    with pytest.raises(StructuralError, match="record count differs"):
        replay_trace(replace(tr, records=tuple(tr.records)[:-1]), unit_bet_on_one(), advs)
    with pytest.raises(StructuralError, match="record count differs"):
        replay_trace(replace(tr, z=tr.z + "1"), unit_bet_on_one(), advs)


def test_replay_rejects_a_bit_off_its_record():
    advs, tr = _greedy_with_deaths()
    records = list(tr.records)
    records[4] = replace(records[4], bit="1" if records[4].bit == "0" else "0")
    with pytest.raises(StructuralError, match="bit 4: trace string and record disagree"):
        replay_trace(replace(tr, records=tuple(records)), unit_bet_on_one(), advs)


def test_replay_checks_a_dead_adversarys_capital():
    # the window is dead from bit 6 on, so its capital is never stepped
    # again; replay must still check the column of every later record
    advs, tr = _greedy_with_deaths()
    last = len(tr.records) - 1
    records = list(tr.records)
    caps = records[last].adversaries
    records[last] = replace(records[last], adversaries=(caps[0] + 1, *caps[1:]))
    with pytest.raises(StructuralError, match=f"bit {last}: replay computed"):
        replay_trace(replace(tr, records=tuple(records)), unit_bet_on_one(), advs)


def test_replay_rejects_a_trace_whose_bits_are_not_binary():
    # the players read any bit but "1" as "0", so a trace with its 0 bits
    # rewritten to "x" in z and in the records would otherwise replay
    advs = [sided_constant("s0", 3, 0), sided_constant("s1", 3, 1)]
    tr = diagonalize(advs, unit_bet_alternating(), 8)
    records = tuple(replace(r, bit="x") if r.bit == "0" else r for r in tr.records)
    tampered = parse_trace(list(trace_lines(replace(tr, z=tr.z.replace("0", "x"), records=records))))
    assert "x" in tampered.z
    with pytest.raises(StructuralError, match="^not a binary string: 'x1x'$"):
        replay_trace(tampered, unit_bet_alternating(), advs)


def test_records_read_as_a_tuple_of_bit_records():
    _, tr = _greedy_with_deaths()
    as_tuple = tuple(tr.records)
    assert len(tr.records) == len(as_tuple) == len(tr.z)
    assert tr.records[-1] == as_tuple[-1] and tr.records[3] == as_tuple[3]
    assert tr.records[:12] == as_tuple[:12] and tr.records[5:1:-2] == as_tuple[5:1:-2]
    assert tr.records == as_tuple and as_tuple == tr.records
    assert tr.records != as_tuple[:-1]
    assert replace(tr, records=as_tuple) == tr
    assert hash(replace(tr, records=as_tuple)) == hash(tr)
    # consecutive records share one adversary tuple while no capital moves
    tail = tr.records.adversaries[-5:]
    assert all(t is tail[0] for t in tail)
    with pytest.raises(IndexError):
        tr.records[len(tr.z)]


def _tagged(program, engine_name, side):
    """program's machine made fit for the engine's argument, betting where
    it did otherwise. For the unit engine, state 2q + p is state q at
    position parity p, and only the parity side keeps its bets; for the
    alternating engine, only the bets on outcome side stay."""
    states = program.rule.states
    if engine_name == "N":
        sts = tuple(
            FsmState(st.bet if p == side else None, 2 * st.on0 + 1 - p, 2 * st.on1 + 1 - p)
            for st in states for p in (0, 1)
        )
        parity = Parity.BETS_ON_ODD if side else Parity.BETS_ON_EVEN
        return BetProgram(program.initial, Fsm(sts, 2 * program.rule.start), "integer", parity)
    sts = tuple(
        FsmState(st.bet if st.bet is not None and st.bet.outcome == side else None, st.on0, st.on1)
        for st in states
    )
    sided = Sided.ONE if side else Sided.ZERO
    return BetProgram(program.initial, Fsm(sts, program.rule.start), "integer", Parity.NONE, sided)


@st.composite
def _duel_cases(draw):
    engine = draw(st.sampled_from("ND"))
    advs = [
        IntStrategy(_tagged(m, engine, draw(st.integers(0, 1))), name=f"a{i}")
        for i, m in enumerate(draw(st.lists(_INT_MACHINES, min_size=1, max_size=4)))
    ]
    if draw(st.booleans()):
        # any integer-form engine plays greedy; its lone tail runs several
        # cycles at the larger targets
        if draw(st.booleans()):
            program = BetProgram(draw(st.integers(1, 40)), draw(_INT_MACHINES).rule, "integer")
            engine = IntStrategy(program, name="e")
        max_bits = st.none() | st.integers(0, 60) | st.integers(61, 900)
        kwargs = {"mode": "greedy", "max_bits": draw(max_bits)}
        return engine, advs, draw(st.integers(1, 40) | st.integers(41, 400)), kwargs
    kwargs = {"mode": "settle", "dim0_blocks": draw(st.none() | st.integers(1, 3))}
    return engine, advs, draw(st.integers(1, 40)), kwargs


def _matches_the_reference(engine, advs, target, kwargs):
    """The duel, its trace bytes and its errors against the parent code's.
    engine is "N", "D" or an IntStrategy."""
    if isinstance(engine, IntStrategy):
        make = lambda: engine  # noqa: E731
    else:
        make = unit_bet_on_one if engine == "N" else unit_bet_alternating
    outcomes = []
    for run in (diagonalize, ref.diagonalize):
        try:
            outcomes.append(run(advs, make(), target, **kwargs))
        except BettingLabError as exc:
            outcomes.append((type(exc), str(exc)))
    new, old = outcomes
    if isinstance(old, tuple):
        assert new == old
        return
    assert new.records == old.records
    assert new.checkpoints == old.checkpoints
    assert new.certificates == old.certificates
    assert new == old
    lines = list(trace_lines(new))
    assert lines == list(ref.trace_lines(old))
    assert parse_trace(lines) == new
    replay_trace(new, make(), advs)


def _engine_alone_cases():
    """Duels that end while the engine steps alone, no adversary being live."""
    # both adversaries are dead by bit 6, and the engine reaches 20 at bit 21
    deaths = _greedy_with_deaths()[0]
    # the only adversary is defeated at bit 1, so the block of five 01
    # pairs starts at an odd position, where the alternating engine loses
    # 2 a pair: from 6 it freezes at bit 7
    block = [sided_constant("s", 1, 1)]
    return [
        ("N", deaths, 20, {"max_bits": 20}),
        ("D", block, 5, {"mode": "settle", "dim0_blocks": 5}),
    ]


def _clamping_engine():
    """Three states in a cycle, all betting on or favoring 1: wager 1, then
    wager 4, then none. From capital 2 the wager 4 clamps in the first
    cycle only, and each later cycle adds 5."""
    sts = (FsmState(IntegerBet(1, 1), 1, 1), FsmState(IntegerBet(4, 1), 2, 2), FsmState(None, 0, 0))
    return IntStrategy(BetProgram(Fraction(2), Fsm(sts), "integer"), name="e")


def _cycle_edge_cases():
    """Lone runs that end at the edges of a skipped cycle."""
    return [
        # the capital crosses the largest wager in the first cycle's middle
        # bit; target 200 is reached at the cycle's middle bit, 202 at its
        # first
        (_clamping_engine(), [], 200, {}),
        (_clamping_engine(), [], 202, {}),
        # max_bits falls on a middle bit
        (_clamping_engine(), [], 200, {"max_bits": 44}),
        # the unit engine nets 0 over each 01 pair of a lone 16-pair block
        ("N", [parity_window("w", 1, 1)], 10, {"mode": "settle", "dim0_blocks": 8}),
    ]


@settings(max_examples=150, deadline=None)
@given(_duel_cases())
@example(_engine_alone_cases()[0])
@example(_engine_alone_cases()[1])
@example(_cycle_edge_cases()[0])
@example(_cycle_edge_cases()[1])
@example(_cycle_edge_cases()[2])
@example(_cycle_edge_cases()[3])
def test_duels_match_the_reference_code(case):
    _matches_the_reference(*case)


@pytest.mark.parametrize("name, engine, advs, kwargs", _duels(), ids=[d[0] for d in _duels()])
def test_fixed_duels_match_the_reference_code(name, engine, advs, kwargs):
    _matches_the_reference(engine.name, advs, 25, kwargs)


def test_the_planted_duel_matches_the_reference_code():
    _matches_the_reference("N", _greedy_with_deaths()[0], 20, {})


def test_greedy_stops_at_max_bits_while_the_engine_steps_alone():
    _, advs, target, kwargs = _engine_alone_cases()[0]
    with pytest.raises(BettingLabError, match="^greedy run exceeded 20 bits without reaching 20$"):
        diagonalize(advs, unit_bet_on_one(), target, **kwargs)
    assert len(_greedy_with_deaths()[1].z) == 21


def _capped_runs():
    """(adversaries, target, kwargs, bits emitted) of duels that end in a
    live bit, in a lone tail, in a lone block and in a lone pad."""
    window, settle = [parity_window("w", 1, 1)], {"mode": "settle"}
    return [
        # the bettor on 0 is live throughout
        ([IntStrategy(constant_program(100, IntegerBet(1, 0), Parity.BETS_ON_EVEN), name="e")], 10, {}, 5),
        (_greedy_with_deaths()[0], 20, {}, 21),
        # bit 0 defeats the window, the engine pads alone over bits 1-2 and
        # plays a lone block of 8 or 6 01 pairs; for target 10 it then pads
        # alone over the last four bits, while it has reached 5 already
        (window, 10, {**settle, "dim0_blocks": 8}, 23),
        (window, 5, {**settle, "dim0_blocks": 8}, 19),
        (window, 5, {**settle, "dim0_blocks": 6}, 15),
    ]


@pytest.mark.parametrize("advs, target, kwargs, length", _capped_runs())
def test_a_run_stops_at_max_bits_wherever_it_is(advs, target, kwargs, length):
    whole = diagonalize(advs, unit_bet_on_one(), target, **kwargs)
    assert len(whole.z) == length
    assert diagonalize(advs, unit_bet_on_one(), target, max_bits=length, **kwargs) == whole
    mode = kwargs.get("mode", "greedy")
    for cap in range(length):
        _raises(BettingLabError, f"{mode} run exceeded {cap} bits without reaching {target}",
                diagonalize, advs, unit_bet_on_one(), target, max_bits=cap, **kwargs)


def test_the_alternating_engine_freezes_inside_an_engine_alone_block():
    _, advs, target, kwargs = _engine_alone_cases()[1]
    with pytest.raises(EngineBankruptError, match="^engine froze at 0 after 7 bits; "):
        diagonalize(advs, unit_bet_alternating(), target, **kwargs)


def test_an_engine_alone_clamps_its_stake_as_the_reference_code():
    # capital 1 staking 3 on outcome 1: the stake clamps until capital passes 3
    engine = IntStrategy(constant_program(1, IntegerBet(3, 1), Parity.NONE, Sided.ONE), name="x3")
    tr = diagonalize([], engine, 50)
    assert [r.engine for r in tr.records[:4]] == [2, 4, 7, 10]
    assert tr == ref.diagonalize([], engine, 50)
    replay_trace(tr, engine, [])


def test_replay_checks_the_engine_while_it_steps_alone():
    # both adversaries are dead from bit 6 on; bit 12 is a favored 1
    advs, tr = _greedy_with_deaths()
    rec = tr.records[12]
    assert rec.bit == "1" and rec.rule == "favored"
    tampered = [
        (replace(rec, engine=rec.engine + 1), tr.z, "bit 12: replay computed"),
        (replace(rec, bit="0"), tr.z, "bit 12: trace string and record disagree"),
        # the bit flipped in both: the engine loses where it won
        (replace(rec, bit="0"), tr.z[:12] + "0" + tr.z[13:],
         re.escape("bit 12: replay computed (10, (1, 0)), trace recorded (12, (1, 0))")),
    ]
    for bad, z, message in tampered:
        records = list(tr.records)
        records[12] = bad
        with pytest.raises(StructuralError, match=message):
            replay_trace(replace(tr, z=z, records=tuple(records)), unit_bet_on_one(), advs)


@pytest.mark.parametrize("i, wager", [(35, 0), (36, 1), (37, 4)])
def test_replay_names_a_tampered_bit_inside_a_skipped_cycle(i, wager):
    # from bit 5 on, the replay skips whole 3-bit cycles of the clamping
    # engine; bits 35, 36 and 37 are the first, middle and last bit of one,
    # where the engine bets nothing, 1 and 4 on outcome 1
    engine = _clamping_engine()
    tr = diagonalize([], engine, 200)
    rec = tr.records[i]

    def replay(z, bad):
        records = list(tr.records)
        records[i] = bad
        replay_trace(replace(tr, z=z, records=tuple(records)), engine, [])

    _raises(StructuralError, f"bit {i}: replay computed ({rec.engine}, ()), trace recorded ({rec.engine + 1}, ())",
            replay, tr.z, replace(rec, engine=rec.engine + 1))
    _raises(StructuralError, f"bit {i}: trace string and record disagree",
            replay, tr.z, replace(rec, bit="0"))
    # the bit flipped in both: a bet loses where it won, an idle bit moves nothing
    flipped = tr.z[:i] + "0" + tr.z[i + 1 :]
    if wager:
        _raises(StructuralError,
                f"bit {i}: replay computed ({rec.engine - 2 * wager}, ()), trace recorded ({rec.engine}, ())",
                replay, flipped, replace(rec, bit="0"))
    else:
        replay(flipped, replace(rec, bit="0"))


@pytest.mark.parametrize("chunk", [1, 2, 5, 64])
def test_replay_checks_a_trace_chunk_by_chunk(monkeypatch, chunk):
    # chunks of 1, 2 and 5 bits split the live bits 0-4 and the lone tail
    monkeypatch.setattr(diagonal, "_REPLAY_CHUNK", chunk)
    advs, tr = _greedy_with_deaths()
    replay_trace(tr, unit_bet_on_one(), advs)
    for i in (3, 5, 12, 20):
        records = list(tr.records)
        rec = records[i]
        records[i] = replace(rec, engine=rec.engine + 1)
        _raises(StructuralError,
                f"bit {i}: replay computed ({rec.engine}, {rec.adversaries}), "
                f"trace recorded ({rec.engine + 1}, {rec.adversaries})",
                replay_trace, replace(tr, records=tuple(records)), unit_bet_on_one(), advs)
    # an engine frozen at 0 stays there in every later chunk
    frozen = DiagTrace("N", "greedy", 1, "0" * 12,
                       [BitRecord("0", "deviate", max(4 - i, 0), ()) for i in range(12)], (), (), False)
    replay_trace(frozen, unit_bet_on_one(), [])
    records = list(frozen.records)
    records[11] = replace(records[11], engine=1)
    _raises(StructuralError, "bit 11: replay computed (0, ()), trace recorded (1, ())",
            replay_trace, replace(frozen, records=tuple(records)), unit_bet_on_one(), [])


def _raises(error, message, call, *args, **kwargs):
    """call(*args, **kwargs) raises exactly error, with exactly message."""
    with pytest.raises(BettingLabError) as caught:
        call(*args, **kwargs)
    assert caught.type is error
    assert str(caught.value) == message


def test_diagonalize_rejects_bad_arguments():
    advs = [parity_window("w", 3, 2)]
    _raises(PreconditionError, "target must be a positive integer",
            diagonalize, advs, unit_bet_on_one(), 0)
    _raises(PreconditionError, "unknown mode 'fast'",
            diagonalize, advs, unit_bet_on_one(), 5, mode="fast")
    own = IntStrategy(constant_program(6, IntegerBet(1, 1), Parity.NONE, Sided.ONE), name="own")
    _raises(UnsupportedError, "settle mode works with the built-in engines only",
            diagonalize, advs, own, 5, mode="settle")
    _raises(PreconditionError, "block interpolation needs a positive base",
            diagonalize, advs, unit_bet_on_one(), 5, mode="settle", dim0_blocks=0)
    # a parity tag is no sided tag
    _raises(PreconditionError, "adversary 0 lacks a sided tag; the alternating engine's "
            "argument needs single-sided opponents",
            diagonalize, advs, unit_bet_alternating(), 5)


# an engine's name is only its trace's label: one whose program is no
# built-in's is no built-in engine, whatever it is called
_UNTAGGED = [IntStrategy(constant_program(3, IntegerBet(1, 1)), name="u")]
_MINE = constant_program(6, IntegerBet(1, 1))


def test_an_engine_named_d_plays_greedy_against_untagged_adversaries():
    trace = diagonalize(_UNTAGGED, IntStrategy(_MINE, name="D"), 8)
    assert trace.reached and trace.engine_name == "D"
    assert trace.z == "00011111"


def test_settle_refuses_an_engine_named_n_that_is_no_built_in():
    _raises(UnsupportedError, "settle mode works with the built-in engines only",
            diagonalize, [parity_window("w", 3, 2)], IntStrategy(_MINE, name="N"), 5, mode="settle")


def test_an_engine_with_a_built_in_program_is_that_built_in():
    own = IntStrategy(unit_bet_alternating().program, name="own")
    _raises(PreconditionError, "adversary 0 lacks a sided tag; the alternating engine's "
            "argument needs single-sided opponents",
            diagonalize, _UNTAGGED, own, 8)
    advs = [sided_constant("s0", 3, 0), late_window("late", 3)]
    settled = diagonalize(advs, own, 12, mode="settle", dim0_blocks=1)
    assert settled.engine_name == "own"
    assert replace(settled, engine_name="D") == diagonalize(
        advs, unit_bet_alternating(), 12, mode="settle", dim0_blocks=1)


def test_find_settling_extension_sided():
    adv = sided_constant("s", 3, 0)
    tau, cert = find_settling_extension(adv, "", 5, "sided")
    assert tau.startswith(cert.prefix)
    assert verify_cone_constancy(adv, cert.prefix, 16)
    assert unit_bet_alternating().program.value(tau) > 5
    _raises(PreconditionError, "unknown mode 'both'", find_settling_extension, adv, "", 5, "both")


def test_verify_cone_constancy_finds_a_later_bet():
    # the late window bets at the fifth bit, four bits on: a shorter probe
    # sees a constant cone, a longer one the bet
    adv = late_window("late", 3)
    assert verify_cone_constancy(adv, "", 3)
    assert not verify_cone_constancy(adv, "", 5)
    assert not verify_cone_constancy(parity_window("w", 3, 2), "0", 2)


def test_verify_cone_constancy_costs_nothing_more_at_a_deeper_probe():
    # the probe asks the settling search once, however deep it looks
    idle = Fsm((FsmState(None, 1, 1), FsmState(None, 0, 0)))
    never = IntStrategy(BetProgram(Fraction(3), idle, "integer"))
    start = time.perf_counter()
    assert verify_cone_constancy(never, "0110", 10**7)
    assert time.perf_counter() - start < 1


def test_verify_cone_constancy_refuses_a_prefix_that_is_not_bits():
    # the players' step reads any bit but "1" as "0"
    _raises(StructuralError, "not a binary string: '0x'",
            verify_cone_constancy, late_window("late", 3), "0x", 3)


def _reached_at(program):
    """Every (machine state, position parity) configuration reachable from
    the start, each with the shortest bits that reach it."""
    graph, paths = ref.configs(program), {(program.rule.start, 0): ""}
    queue = list(paths)
    for cfg in queue:  # grows as it is read: a breadth-first walk
        for bit, nxt in zip("01", graph[cfg]):
            if nxt not in paths:
                paths[nxt] = paths[cfg] + bit
                queue.append(nxt)
    return paths


@settings(max_examples=200, deadline=None)
@given(_INT_MACHINES)
def test_the_state_search_matches_the_configuration_search(machine):
    program = BetProgram(machine.initial, machine.rule, "integer")
    assert program._bets == ref.betting(program)
    for q, parity in _reached_at(program):
        for prefer in (None, "11", "01", "10"):
            pick = None if prefer is None else prefer.__getitem__
            assert (diagonal._path_to_betting(program, q, parity, pick)
                    == ref._path_to_betting(program, q, parity, pick))


@settings(max_examples=200, deadline=None)
@given(_INT_MACHINES)
def test_the_state_probe_matches_the_configuration_probe(machine):
    strategy = IntStrategy(BetProgram(machine.initial, machine.rule, "integer"))
    for prefix in _reached_at(strategy.program).values():
        # a negative depth probes no level, so the cone is constant out to
        # it; the reference read it as depth 0
        assert verify_cone_constancy(strategy, prefix, -1)
        for depth in range(13):
            assert (verify_cone_constancy(strategy, prefix, depth)
                    == ref.verify_cone_constancy(strategy, prefix, depth))
