"""Stage parameters, martingale floors, the growth bound, the description
ledger, and the stage machine itself."""

import gc
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paritybet import (
    BettingLabError,
    Component,
    FractionBet,
    Kind,
    Parity,
    PreconditionError,
    RequestLedger,
    StageApprox,
    StageParams,
    StrategyTable,
    StructuralError,
    capital_threshold,
    check_growth_bound,
    constant_program,
    floor,
    follow_program,
    greedy_leftmost_extension,
    params,
    run_stage_machine,
    stage_parameters,
    validate,
)
from paritybet import bits

from conftest import random_positive_martingale


def test_params_frozen_rows():
    rows = [(params(n).q, params(n).p, params(n).s) for n in range(3)]
    assert rows == [
        (Fraction(2), 2, 0),
        (Fraction(3, 2), 12, 18),
        (Fraction(5, 4), 44, 80),
    ]
    assert [params(n).described_len for n in range(3)] == [0, 27, 100]
    assert params(3) == StageParams(3, Fraction(11, 10), 170, 330, 363)


def test_params_budget_inequality():
    # the per-index description budget must beat the accumulated demand
    acc = 0
    for n in range(1, 6):
        pr = params(n)
        assert pr.s * pr.q - pr.p > n + acc
        acc += pr.p
    # s_n stays even, so block boundaries line up
    assert all(params(n).s % 2 == 0 for n in range(6))


def test_stage_params_rejects_odd_length():
    with pytest.raises(StructuralError):
        StageParams(1, Fraction(3, 2), 12, 17, 26)


def test_capital_threshold_ladder():
    assert capital_threshold(0) == Fraction(1, 2)
    assert capital_threshold(1) == Fraction(3, 4)
    assert capital_threshold(2) == Fraction(7, 8)


SUP = StrategyTable(2, {
    "": Fraction(1), "0": Fraction(1), "1": Fraction(1, 2),
    "00": Fraction(2), "01": Fraction(0),
    "10": Fraction(1), "11": Fraction(0),
}, Kind.SUPERMARTINGALE)


def test_floor_plain_frozen():
    f = floor(SUP, 2)
    want = {"": Fraction(3, 4), "0": Fraction(1), "1": Fraction(1, 2),
            "00": Fraction(2), "01": Fraction(0),
            "10": Fraction(1), "11": Fraction(0)}
    assert {s: f.value(s) for s in bits.all_states(2)} == want
    assert validate(f).martingale
    # keeps the leaves, sits at or below everywhere
    assert all(f.value(s) <= SUP.value(s) for s in bits.all_states(1))


def test_floor_parity_frozen():
    f = floor(SUP, 2, parity=Parity.BETS_ON_ODD)
    want = {"": Fraction(1, 2), "0": Fraction(1, 2), "1": Fraction(1, 2),
            "00": Fraction(1), "01": Fraction(0),
            "10": Fraction(1), "11": Fraction(0)}
    assert {s: f.value(s) for s in bits.all_states(2)} == want
    d = validate(f)
    assert d.holds(Kind.MARTINGALE, Parity.BETS_ON_ODD, f.sided)
    assert all(f.value(s) <= SUP.value(s) for s in bits.all_states(2))


def test_floor_parity_exact_leaf_agreement_impossible_here():
    # the parity floor cannot always match the input on the bottom level:
    # this one keeps only half of the 00 leaf
    f = floor(SUP, 2, parity=Parity.BETS_ON_ODD)
    assert f.value("00") < SUP.value("00")


def test_floor_guards():
    with pytest.raises(PreconditionError):
        floor(SUP, 3, parity=Parity.BETS_ON_ODD)  # parity mode needs even depth
    with pytest.raises(PreconditionError):
        floor(SUP, 2, prev=floor(SUP, 2))  # chaining is parity-only


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_floor_plain_below_and_martingale(seed):
    rng = random.Random(seed)
    m = random_positive_martingale(rng, 4)
    # lift the interior to make a strict supermartingale
    vals = {s: (v if len(s) == 4 else v * Fraction(5, 4)) for s, v in m.values.items()}
    sup = StrategyTable(4, vals, Kind.SUPERMARTINGALE)
    f = floor(sup, 4)
    assert validate(f).martingale
    assert all(f.value(s) <= sup.value(s) for s in bits.all_states(4))
    assert all(f.value(s) == sup.value(s) for s in bits.level(4))


def _two_stage_odd():
    return StageApprox((
        Component(0, Fraction(1, 4), constant_program(1, FractionBet(Fraction(1, 2)), Parity.BETS_ON_ODD)),
        Component(5, Fraction(1, 4), constant_program(1, FractionBet(Fraction(1, 2)), Parity.BETS_ON_ODD)),
    ), Kind.MARTINGALE, Parity.BETS_ON_ODD)


def test_floor_chaining_dominates():
    odd = _two_stage_odd()
    f0 = floor(odd, 4, parity=Parity.BETS_ON_ODD, stage=0)
    f5 = floor(odd, 4, parity=Parity.BETS_ON_ODD, stage=5, prev=f0)
    assert all(f5.value(s) >= f0.value(s) for s in bits.all_states(4))
    assert validate(f5).holds(Kind.MARTINGALE, Parity.BETS_ON_ODD, f5.sided)


def test_floor_defaults_to_last_stage():
    odd = _two_stage_odd()
    assert odd.last_stage() == 5
    for parity in (Parity.NONE, Parity.BETS_ON_ODD):
        by_default = floor(odd, 4, parity=parity)
        assert by_default == floor(odd, 4, parity=parity, stage=5)
        assert by_default != floor(odd, 4, parity=parity, stage=0)


def test_floor_chaining_rejects_backwards():
    odd = _two_stage_odd()
    f5 = floor(odd, 4, parity=Parity.BETS_ON_ODD, stage=5)
    with pytest.raises(PreconditionError):
        floor(odd, 4, parity=Parity.BETS_ON_ODD, stage=0, prev=f5)


def _quiet_pair():
    n_approx = StageApprox(
        (Component(0, Fraction(1, 8), constant_program(1, None, Parity.BETS_ON_ODD)),),
        Kind.MARTINGALE, Parity.BETS_ON_ODD)
    t_approx = StageApprox(
        (Component(0, Fraction(1, 8), constant_program(1, None, Parity.BETS_ON_EVEN)),),
        Kind.MARTINGALE, Parity.BETS_ON_EVEN)
    return n_approx, t_approx


def test_growth_bound_quiet_mixture():
    n_approx, t_approx = _quiet_pair()
    v = check_growth_bound(n_approx, t_approx, "01", "010110", 0, 3, 4)
    assert v.ok()
    # nothing activates between the stages, so the joint never moves
    assert v.hypothesis_holds and v.conclusion_holds


def test_growth_bound_preconditions():
    n_approx, t_approx = _quiet_pair()
    with pytest.raises(PreconditionError):
        check_growth_bound(t_approx, n_approx, "01", "010110", 0, 3, 4)
    with pytest.raises(PreconditionError):
        check_growth_bound(n_approx, t_approx, "0", "010110", 0, 3, 4)
    with pytest.raises(PreconditionError):
        check_growth_bound(n_approx, t_approx, "01", "100110", 0, 3, 4)
    with pytest.raises(PreconditionError):
        check_growth_bound(n_approx, t_approx, "01", "010110", 3, 3, 4)


def test_request_ledger_kraft_guard():
    led = RequestLedger()
    led.add("00", 1)
    led.add("01", 1)
    assert led.kraft_weight() == 1
    with pytest.raises(BettingLabError):
        led.add("11", 3)
    # a failed add leaves the ledger unchanged
    assert led.kraft_weight() == 1
    assert led.k_v("11") is None


def test_request_ledger_classes():
    led = RequestLedger()
    led.add("0", 5)
    led.add("0", 3)
    assert led.k_v("0") == 3
    assert led.class_weights() == {5: Fraction(1, 32), 3: Fraction(1, 8)}


def test_greedy_leftmost_extension_walk():
    m = StrategyTable(2, {
        "": Fraction(1, 4), "0": Fraction(1, 2), "1": Fraction(0),
        "00": Fraction(1), "01": Fraction(0), "10": Fraction(0), "11": Fraction(0),
    }, Kind.MARTINGALE)
    # bound 1/4 forces a right turn at the root, then 10 vs 11 both fine
    tau = greedy_leftmost_extension(m.value, "", Fraction(1, 4), 2)
    assert tau == "10"


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 6))
def test_greedy_extension_postconditions(seed, length):
    rng = random.Random(seed)
    m = random_positive_martingale(rng, length)
    bound = m.value("")
    tau = greedy_leftmost_extension(m.value, "", bound, length)
    assert len(tau) == length
    # every visited prefix obeys the bound: a martingale's lesser child
    # never exceeds the parent
    assert all(m.value(tau[:i]) <= bound for i in range(1, length + 1))


def test_greedy_extension_guards():
    with pytest.raises(PreconditionError):
        greedy_leftmost_extension(lambda s: Fraction(0), "00", Fraction(1), 1)
    with pytest.raises(PreconditionError):
        greedy_leftmost_extension(lambda s: Fraction(1), "", Fraction(1, 2), 1)


ZERO_RUN_EVENTS = [(1, "define", 1, "0" * 18), (1, "describe", 1, "0" * 18)]


def test_stage_machine_zero_components():
    n_approx = StageApprox((), Kind.MARTINGALE, Parity.BETS_ON_ODD)
    t_approx = StageApprox((), Kind.MARTINGALE, Parity.BETS_ON_EVEN)
    state, prefix, ledger = run_stage_machine(n_approx, t_approx, 200, 1)
    assert prefix == "0" * 18
    assert ledger.kraft_weight() == Fraction(1, 2**27)
    assert [(e.stage, e.kind, e.n, e.value) for e in state.events] == ZERO_RUN_EVENTS
    assert state.sigmas[0] == ""
    assert state.deepest_defined() == "0" * 18


def test_stage_machine_pump_and_recover():
    # the heavy component activating at stage 50 pushes the old prefix
    # over its threshold; the machine undefines and rebuilds to the right
    n_approx = StageApprox((
        Component(0, Fraction(1, 8), constant_program(1, FractionBet(Fraction(1, 8)), Parity.BETS_ON_ODD)),
        Component(50, 1, follow_program("0" * 18, Parity.BETS_ON_ODD, Fraction(385, 262144))),
    ), Kind.MARTINGALE, Parity.BETS_ON_ODD)
    t_approx = StageApprox(
        (Component(0, Fraction(1, 8), constant_program(1, None, Parity.BETS_ON_EVEN)),),
        Kind.MARTINGALE, Parity.BETS_ON_EVEN)
    state, prefix, ledger = run_stage_machine(n_approx, t_approx, 300, 1)
    kinds = [(e.stage, e.kind) for e in state.events]
    assert kinds[:2] == [(1, "define"), (1, "describe")]
    assert (50, "undefine") in kinds
    redefines = [e for e in state.events if e.kind == "define" and e.stage > 50]
    assert redefines and redefines[0].value > "0" * 18  # lex moved right
    # two descriptions of length 27
    assert ledger.kraft_weight() == Fraction(2, 2**27)
    assert state.change_counts[1] == 2


def test_stage_machine_abort_on_fat_root():
    n_approx = StageApprox(
        (Component(5, Fraction(1, 2), constant_program(1, None, Parity.BETS_ON_ODD)),),
        Kind.MARTINGALE, Parity.BETS_ON_ODD)
    t_approx = StageApprox(
        (Component(0, Fraction(1, 8), constant_program(1, None, Parity.BETS_ON_EVEN)),),
        Kind.MARTINGALE, Parity.BETS_ON_EVEN)
    with pytest.raises(PreconditionError, match="stage 5"):
        run_stage_machine(n_approx, t_approx, 100, 1)


def test_stage_machine_parity_guards():
    n_approx, t_approx = _quiet_pair()
    with pytest.raises(PreconditionError):
        run_stage_machine(t_approx, n_approx, 10, 1)


def test_floor_memo_returns_the_same_table():
    odd = _two_stage_odd()
    for parity in (Parity.NONE, Parity.BETS_ON_ODD):
        first = floor(odd, 4, parity=parity, stage=5)
        assert floor(odd, 4, parity=parity, stage=5) is first


def test_floor_memo_keys_on_the_prev_object():
    odd = _two_stage_odd()
    f0 = floor(odd, 4, parity=Parity.BETS_ON_ODD, stage=0)
    twin = StrategyTable(f0.depth, dict(f0.values), f0.kind, f0.parity, f0.sided)
    assert twin == f0 and twin is not f0
    chained = floor(odd, 4, parity=Parity.BETS_ON_ODD, stage=5, prev=f0)
    again = floor(odd, 4, parity=Parity.BETS_ON_ODD, stage=5, prev=twin)
    assert again == chained and again is not chained


def test_floor_memo_dies_with_its_mixture():
    odd = _two_stage_odd()
    f0 = floor(odd, 4, parity=Parity.BETS_ON_ODD, stage=0)
    floor(odd, 4, parity=Parity.BETS_ON_ODD, stage=5, prev=f0)
    floor(odd, 4, stage=5)
    ref = weakref.ref(odd)
    del odd
    gc.collect()
    assert ref() is None
