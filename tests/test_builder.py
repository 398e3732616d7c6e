"""Stage parameters, martingale floors, the growth bound, the description
ledger, and the stage machine itself."""

import gc
import random
import weakref
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paritybet import (
    BetProgram,
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
from paritybet import bits, builder

from conftest import random_positive_martingale

import fraction_reference as ref


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


def test_params_stay_even_past_index_6():
    # the raw recurrence first gives an odd s at n = 7 (194895)
    assert [pr.s for pr in stage_parameters(7)] == [
        0, 18, 80, 330, 1428, 6720, 34632, 194896,
    ]
    acc = 0
    for pr in stage_parameters(8)[1:]:
        assert pr.s % 2 == 0
        assert pr.s * pr.q - pr.p > pr.n + acc
        acc += pr.p


def test_stage_params_rejects_odd_length():
    with pytest.raises(StructuralError):
        StageParams(1, Fraction(3, 2), 12, 17, 26)
    # and a negative index
    with pytest.raises(PreconditionError):
        stage_parameters(-1)
    with pytest.raises(PreconditionError):
        capital_threshold(-1)


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
        floor(SUP, 3, parity=Parity.BETS_ON_ODD)  # deeper than the table
    with pytest.raises(PreconditionError):
        floor(SUP, 2, prev=floor(SUP, 2))  # chaining is parity-only
    with pytest.raises(PreconditionError, match="even depth"):
        floor(SUP, 1, parity=Parity.BETS_ON_ODD)
    with pytest.raises(PreconditionError, match="nonnegative"):
        floor(SUP, -1)
    with pytest.raises(PreconditionError, match="different shape"):
        floor(SUP, 2, parity=Parity.BETS_ON_ODD, prev=floor(SUP, 2, parity=Parity.BETS_ON_EVEN))


def test_floor_guards_run_in_order():
    # the depth, then the table's depth, then the parity and prev guards
    plain = floor(SUP, 2)
    for parity in Parity:
        with pytest.raises(PreconditionError, match="depth must be nonnegative"):
            floor(SUP, -1, parity=parity, prev=plain)
        for depth in (3, 4):
            with pytest.raises(PreconditionError, match=f"^floor depth {depth} exceeds table depth 2$"):
                floor(SUP, depth, parity=parity, prev=plain)


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


def test_floor_plain_of_a_table_that_is_no_supermartingale_sits_below_it():
    # backward averaging would put 1 at the root, above the input's 0
    t = StrategyTable(1, {"": Fraction(0), "0": Fraction(1), "1": Fraction(1)}, Kind.SUPERMARTINGALE)
    f = floor(t, 1)
    assert {s: f.value(s) for s in bits.all_states(1)} == {"": 0, "0": 0, "1": 0}
    assert validate(f).martingale


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


@pytest.mark.parametrize("parent,low,high", [("0", "00", "01"), ("1", "11", "10")])
def test_floor_chaining_rejects_a_prev_that_bets_where_the_floor_copies(parent, low, high):
    # the even floor copies at length 1, so it would put 1 at high, below
    # this prev's 3/2
    t = StrategyTable(2, dict.fromkeys(bits.all_states(2), Fraction(1)))
    prev = StrategyTable(
        2, {**dict.fromkeys(bits.all_states(2), Fraction(1)), low: Fraction(1, 2), high: Fraction(3, 2)},
        Kind.MARTINGALE, Parity.BETS_ON_EVEN,
    )
    with pytest.raises(PreconditionError, match=f"^prev bets at '{parent}'; prev is not a chained floor$"):
        floor(t, 2, Parity.BETS_ON_EVEN, prev=prev)


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
    with pytest.raises(PreconditionError, match="checking depth"):
        check_growth_bound(n_approx, t_approx, "01", "010110", 0, 3, 4, depth=8)


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
    with pytest.raises(PreconditionError):
        RequestLedger().add("0", 0)


@pytest.mark.parametrize("requests,error,message", [
    # over the Kraft budget: 1/2 + 1/2 + 1/2
    ([("0", 1), ("1", 1), ("", 1)], BettingLabError, "Kraft weight to 3/2 > 1"),
    ([("x", 1)], StructuralError, "not a binary string"),
    ([("0", 0)], PreconditionError, "length must be positive"),
    ([("0", -3)], PreconditionError, "length must be positive"),
], ids=["over-budget", "not-bits", "zero-length", "negative-length"])
def test_request_ledger_checks_the_requests_it_is_built_with(requests, error, message):
    with pytest.raises(error, match=message):
        RequestLedger(requests)


def test_request_ledger_built_with_requests_keeps_them():
    led = RequestLedger([("0", 1), ("0", 3), ("10", 2)])
    assert led.requests == (("0", 1), ("0", 3), ("10", 2))
    assert led.kraft_weight() == Fraction(7, 8)
    assert led.k_v("0") == 1 and led.k_v("10") == 2


def test_request_ledger_changes_only_through_add():
    # appending or assigning past add would skip its checks and leave the
    # Kraft weight stale
    led = RequestLedger([("0", 1)])
    with pytest.raises(AttributeError):
        led.requests.append(("", 1))
    with pytest.raises(TypeError):
        led.requests += [("1", 1), ("", 1)]
    with pytest.raises(AttributeError):
        led.requests += (("1", 1), ("", 1))
    with pytest.raises(AttributeError):
        led.requests = (("1", 1), ("", 1))
    assert led.requests == (("0", 1),) and led.kraft_weight() == Fraction(1, 2)
    assert led.k_v("") is None


def test_request_ledger_classes():
    led = RequestLedger()
    led.add("0", 5)
    led.add("0", 3)
    assert led.k_v("0") == 3


def test_greedy_leftmost_extension_walk():
    m = StrategyTable(2, {
        "": Fraction(1, 4), "0": Fraction(1, 2), "1": Fraction(0),
        "00": Fraction(1), "01": Fraction(0), "10": Fraction(0), "11": Fraction(0),
    }, Kind.MARTINGALE)
    # bound 1/4 forces a right turn at the root, then 10 vs 11 both fine
    tau = greedy_leftmost_extension(lambda s: m.value(s) > Fraction(1, 4), "", 2)
    assert tau == "10"


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 6))
def test_greedy_extension_postconditions(seed, length):
    rng = random.Random(seed)
    m = random_positive_martingale(rng, length)
    bound = m.value("")
    tau = greedy_leftmost_extension(lambda s: m.value(s) > bound, "", length)
    assert len(tau) == length
    # every visited prefix obeys the bound: a martingale's lesser child
    # never exceeds the parent
    assert all(m.value(tau[:i]) <= bound for i in range(1, length + 1))


def test_greedy_extension_guards():
    # a base already at the length is its own extension; a shorter length is refused
    assert greedy_leftmost_extension(lambda s: False, "00", 2) == "00"
    with pytest.raises(PreconditionError):
        greedy_leftmost_extension(lambda s: False, "00", 1)
    with pytest.raises(PreconditionError):
        greedy_leftmost_extension(lambda s: True, "", 1)
    # both children above a parent under the bound: no supermartingale
    with pytest.raises(PreconditionError, match="not a supermartingale"):
        greedy_leftmost_extension(lambda s: len(s) > 0, "", 1)


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
    with pytest.raises(PreconditionError, match="second side"):
        run_stage_machine(n_approx, n_approx, 10, 1)
    with pytest.raises(PreconditionError, match="nonnegative"):
        run_stage_machine(n_approx, t_approx, -1, 1)


def test_stage_machine_raises_on_planted_invariant_breaks(monkeypatch):
    # a heavy follower of 1^18 wakes at stage 5 and pushes index 1 over its
    # budget there. A planted greedy walk defines 1^18 at stage 1 and, after
    # that cut, 0^18 at stage 6: a regression no real walk can produce
    n_approx = StageApprox((
        Component(0, Fraction(1, 8), constant_program(1, None, Parity.BETS_ON_ODD)),
        Component(5, 1, follow_program("1" * 18, Parity.BETS_ON_ODD, Fraction(1, 512))),
    ), Kind.MARTINGALE, Parity.BETS_ON_ODD)
    _, t_approx = _quiet_pair()
    walks = iter(["1" * 18, "0" * 18])
    monkeypatch.setattr(builder, "greedy_leftmost_extension", lambda *_: next(walks))
    with pytest.raises(StructuralError, match="^prefix at index 1 regressed .* at stage 6"):
        run_stage_machine(n_approx, t_approx, 20, 1)
    # with a change budget of 2^0, the second definition under the stable
    # root overruns it
    walks = iter(["1" * 18, "1" * 18])
    real = builder.stage_parameters
    monkeypatch.setattr(builder, "stage_parameters",
                        lambda n_max: tuple(replace(pr, p=0) for pr in real(n_max)))
    with pytest.raises(BettingLabError, match="^index 1 changed more than 2\\^0 times"):
        run_stage_machine(n_approx, t_approx, 20, 1)


def test_stage_machine_walk_raises_when_both_children_exceed_the_bound(monkeypatch):
    # no pair of martingales does this: plant a joint under which every
    # state but the root exceeds any bound
    walk = builder.greedy_leftmost_extension
    monkeypatch.setattr(builder, "greedy_leftmost_extension",
                        lambda over, base, length: walk(lambda state: state != "", base, length))
    with pytest.raises(PreconditionError, match="^both children exceed the bound at ''"):
        run_stage_machine(*_quiet_pair(), 5, 1)


def _run_both(n_approx, t_approx, stages, n_max):
    """The stage machine and its reference on the same pair: each side's
    record, or the type and text of what it raised."""
    out = []
    for run in (run_stage_machine, ref.run_stage_machine):
        try:
            state, prefix, ledger = run(n_approx, t_approx, stages, n_max)
        except BettingLabError as err:
            out.append((type(err), str(err)))
            continue
        out.append((state.events, state.sigmas, state.change_counts, ledger.requests, prefix))
    return out


_STAKES = st.sampled_from([Fraction(-1, 2), Fraction(-1, 8), Fraction(1, 8), Fraction(1, 4)])


def _side(parity):
    """Up to four components of one parity: quiet, constant-bet and
    target-following programs, waking at stages up to 12."""
    program = st.one_of(
        st.builds(constant_program, st.just(1), st.none(), st.just(parity)),
        st.builds(
            constant_program, st.just(1), st.builds(FractionBet, _STAKES), st.just(parity)
        ),
        st.builds(
            follow_program,
            # the greedy walks go left, so zero-led targets get pumped
            st.sampled_from(["0" * 18, "0" * 80, "01" * 9])
            | st.builds(lambda k, tail: "0" * k + tail, st.integers(0, 40), st.text("01", max_size=20)),
            st.just(parity),
            st.sampled_from([Fraction(1, 2**k) for k in (6, 9, 12, 20, 30)]),
        ),
    )
    weight = st.sampled_from([0, Fraction(1, 8), Fraction(1, 16), Fraction(3, 64), 1])
    comps = st.lists(st.builds(Component, st.integers(0, 12), weight, program), max_size=4)
    # a follower of zeros that wakes late pumps the prefixes defined so far
    pump = st.builds(
        lambda stage, k, n: Component(stage, 1, follow_program("0" * n, parity, Fraction(1, 2**k))),
        st.integers(1, 12), st.integers(4, 14), st.sampled_from([18, 80]),
    )
    return st.tuples(comps, st.lists(pump, max_size=1)).map(
        lambda cs: StageApprox(tuple(cs[0] + cs[1]), Kind.MARTINGALE, parity))


@settings(max_examples=150, deadline=None)
@given(_side(Parity.BETS_ON_ODD), _side(Parity.BETS_ON_EVEN), st.integers(0, 30), st.integers(0, 2))
def test_stage_machine_matches_the_reference(n_approx, t_approx, stages, n_max):
    got, want = _run_both(n_approx, t_approx, stages, n_max)
    assert got == want


def test_stage_machine_rereads_after_an_activation_stage():
    # index 1 is defined at stage 1 and read, unchanged, at stages 2 to 4;
    # the follower waking at stage 5 pumps that prefix to 1/4 + 1 > 3/4,
    # so the machine must read it again there and cut it before it
    # defines index 1 anew at stage 6
    n_approx = StageApprox((
        Component(0, Fraction(1, 8), constant_program(1, None, Parity.BETS_ON_ODD)),
        Component(5, 1, follow_program("0" * 18, Parity.BETS_ON_ODD, Fraction(1, 512))),
    ), Kind.MARTINGALE, Parity.BETS_ON_ODD)
    t_approx = StageApprox(
        (Component(0, Fraction(1, 8), constant_program(1, None, Parity.BETS_ON_EVEN)),),
        Kind.MARTINGALE, Parity.BETS_ON_EVEN)
    got, want = _run_both(n_approx, t_approx, 8, 1)
    assert got == want
    events = [(e.stage, e.kind, e.n) for e in got[0]]
    assert events == [
        (1, "define", 1), (1, "describe", 1),
        (5, "undefine", 1),
        (6, "define", 1), (6, "describe", 1),
    ]
    assert got[0][3].value == "01" + "0" * 16


def _tower_demo_pair():
    """The mixtures demos/tower.py runs for 2,000 stages at n_max 2."""
    n_side = StageApprox((
        Component(0, Fraction(1, 8),
                  constant_program(1, FractionBet(Fraction(1, 8)), Parity.BETS_ON_ODD)),
        Component(3, Fraction(1, 16), constant_program(1, None, Parity.BETS_ON_ODD)),
        Component(50, Fraction(1),
                  follow_program("0" * 18, Parity.BETS_ON_ODD, Fraction(385, 262144))),
    ), Kind.MARTINGALE, Parity.BETS_ON_ODD)
    t_side = StageApprox((
        Component(0, Fraction(1, 8), constant_program(1, None, Parity.BETS_ON_EVEN)),
        Component(7, Fraction(1, 16),
                  constant_program(1, FractionBet(Fraction(-1, 4)), Parity.BETS_ON_EVEN)),
    ), Kind.MARTINGALE, Parity.BETS_ON_EVEN)
    return n_side, t_side


def test_stage_machine_reads_each_prefix_once_per_activation_interval(monkeypatch):
    # a joint read is one StageApprox._read call in the stage machine (a
    # cached read goes through eval), and one pair of StageApprox.eval
    # calls, each one _read, in the reference
    reads, evals = [], []

    def counting(log, method):
        def counted(self, stage, state, *rest):
            log.append(stage)
            return method(self, stage, state, *rest)
        return counted

    for name, log in (("_read", reads), ("eval", evals)):
        monkeypatch.setattr(StageApprox, name, counting(log, getattr(StageApprox, name)))
    counts = []
    for run in (run_stage_machine, ref.run_stage_machine):
        reads.clear()
        evals.clear()
        state, _, _ = run(*_tower_demo_pair(), 2000, 2)
        counts.append((len(reads), len(evals)))
    assert state.change_counts == [0, 2, 3]
    # the reference reads the root and every defined prefix at every
    # stage: 8256 joint reads, against 270 here
    assert counts == [(270, 13), (16512, 16512)]


def test_floor_memo_returns_the_same_table():
    odd = _two_stage_odd()
    for parity in (Parity.NONE, Parity.BETS_ON_ODD):
        first = floor(odd, 4, parity=parity, stage=5)
        assert floor(odd, 4, parity=parity, stage=5) is first


def test_floor_memo_keys_on_the_awake_components():
    odd = _two_stage_odd()
    for parity in (Parity.NONE, Parity.BETS_ON_ODD):
        # stages 0 to 4 wake the first component only, 5 and later both
        early = floor(odd, 4, parity=parity, stage=0)
        assert floor(odd, 4, parity=parity, stage=4) is early
        late = floor(odd, 4, parity=parity, stage=5)
        assert late is not early and late != early
        assert floor(odd, 4, parity=parity) is late
        assert floor(odd, 4, parity=parity, stage=9) is late
        nothing = floor(odd, 4, parity=parity, stage=-1)
        assert nothing is not early and nothing.value("") == 0


def test_floor_memo_keys_on_the_prev_object():
    odd = _two_stage_odd()
    f0 = floor(odd, 4, parity=Parity.BETS_ON_ODD, stage=0)
    twin = StrategyTable(f0.depth, dict(f0.values), f0.kind, f0.parity, f0.sided)
    assert twin == f0 and twin is not f0
    chained = floor(odd, 4, parity=Parity.BETS_ON_ODD, stage=5, prev=f0)
    again = floor(odd, 4, parity=Parity.BETS_ON_ODD, stage=5, prev=twin)
    assert again == chained and again is not chained


def test_floor_memo_returns_a_chained_floor_again_for_a_foreign_prev():
    odd = _two_stage_odd()
    f0 = floor(odd, 4, parity=Parity.BETS_ON_ODD, stage=0)
    twin = StrategyTable(f0.depth, dict(f0.values), f0.kind, f0.parity, f0.sided)
    chained = floor(odd, 4, parity=Parity.BETS_ON_ODD, stage=5, prev=twin)
    assert floor(odd, 4, parity=Parity.BETS_ON_ODD, stage=6, prev=twin) is chained


def test_floor_memo_dies_with_its_mixture():
    odd = _two_stage_odd()
    f0 = floor(odd, 4, parity=Parity.BETS_ON_ODD, stage=0)
    floor(odd, 4, parity=Parity.BETS_ON_ODD, stage=5, prev=f0)
    floor(odd, 4, stage=5)
    ref = weakref.ref(odd)
    del odd
    gc.collect()
    assert ref() is None


def test_floor_memo_hit_hashes_no_program(monkeypatch):
    odd = _two_stage_odd()
    first = floor(odd, 4, parity=Parity.BETS_ON_ODD, stage=5)
    calls = []

    def counting_hash(program):
        calls.append(program)
        return 0

    monkeypatch.setattr(BetProgram, "__hash__", counting_hash)
    assert floor(odd, 4, parity=Parity.BETS_ON_ODD, stage=5) is first
    assert calls == []
    monkeypatch.undo()
    # an equal mixture built afresh hashes alike and shares the memo
    twin = _two_stage_odd()
    assert twin == odd and twin is not odd
    assert hash(twin) == hash(odd)
    assert floor(twin, 4, parity=Parity.BETS_ON_ODD, stage=5) is first


_PARITIES = st.sampled_from([Parity.BETS_ON_ODD, Parity.BETS_ON_EVEN])
_FLOOR_PROGRAMS = st.one_of(
    st.builds(
        lambda stake, parity: constant_program(1, FractionBet(stake), parity),
        st.fractions(-1, 1, max_denominator=4), st.sampled_from(list(Parity)),
    ),
    st.builds(
        follow_program,
        st.text(alphabet="01", min_size=1, max_size=5), _PARITIES,
        st.fractions(0, 1, max_denominator=8),
    ),
)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 6), st.fractions(0, 1, max_denominator=8), _FLOOR_PROGRAMS),
        max_size=4,
    ),
    st.lists(st.tuples(st.integers(-1, 8), st.integers(0, 3)), min_size=1, max_size=8),
    st.sampled_from([0, 2, 4]),
    _PARITIES,
)
# here the floor at stage 2 chained on the one at stage 1 differs from
# the unchained floor at stage 2, so a memo key without prev would fail
@example(
    [(1, Fraction(3, 4), follow_program("11", Parity.BETS_ON_ODD, Fraction(1, 2))),
     (2, Fraction(1, 4), follow_program("1", Parity.BETS_ON_EVEN, 1))],
    [(1, 1)], 2, Parity.BETS_ON_ODD,
)
def test_memoised_floor_matches_the_raw_stage_floor(parts, stages, depth, parity):
    m = StageApprox(tuple(Component(s, w, p) for s, w, p in parts))
    # a table is never memoised, so the reference floors it at the raw
    # stage; an equal mixture would share the memo entry under test
    for s, gap in stages:
        t = s + gap
        low, high = m.table(s, depth), m.table(t, depth)
        assert floor(m, depth, stage=s) == floor(low, depth)
        f_s = floor(m, depth, parity, stage=s)
        r_s = floor(low, depth, parity)
        assert f_s == r_s
        assert floor(m, depth, parity, stage=t) == floor(high, depth, parity)
        f_t = floor(m, depth, parity, stage=t, prev=f_s)
        assert f_t == floor(high, depth, parity, prev=r_s)
        assert floor(m, depth, parity, stage=t, prev=f_s) is f_t
