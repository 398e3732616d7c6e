"""Acceptance runs, one test per criterion, each timed against its budget.

Every test prints a single PASS line on success (visible under -s or in
captured output); an assertion failure is the FAIL line. The fixtures
are honest constructions, not tuned to the checker: each invariant is
recomputed here from primitive operations (replays, revalidation, exact
arithmetic), never read back from the object that claims it.
"""

import math
import random
import time
from fractions import Fraction

from paritybet import (
    BetProgram,
    Component,
    FractionBet,
    Fsm,
    FsmState,
    IntegerBet,
    IntStrategy,
    Kind,
    Parity,
    Sided,
    StageApprox,
    StrategyTable,
    build_parity_test,
    capital_threshold,
    combine,
    constant_program,
    diagonalize,
    empirical_dim_bound,
    follow_program,
    max_fanout,
    mixture,
    packing_certificate,
    params,
    parity_factorize,
    product,
    replay_trace,
    run_stage_machine,
    strategies_from_test,
    unit_bet_alternating,
    unit_bet_on_one,
    validate,
    verify_cone_constancy,
    TestArray,
    validate_s_test,
)
from paritybet.bits import all_states
from paritybet.oracles import (
    _rand_frac,
    all_in_growth_fixture,
    growth_random,
    minimality_grid,
    two_round_grid,
    two_round_random,
)


def _timed(budget):
    start = time.perf_counter()

    def done(label):
        dt = time.perf_counter() - start
        assert dt < budget, f"{label}: {dt:.1f}s over the {budget}s budget"
        print(f"PASS: {label} ({dt:.2f}s < {budget}s)")

    return done


def test_criterion_1_two_round_inequality():
    done = _timed(60)
    rand = two_round_random(random.Random(7), 10000)
    assert rand.passed, rand.failures[:3]
    assert rand.total == 10000
    grid = two_round_grid(den=8)
    assert grid.passed, grid.failures[:3]
    done(f"two-round inequality on {rand.total} random + {grid.total} grid instances")


def test_criterion_2_block_minimality():
    done = _timed(30)
    rep = minimality_grid(den=4, max_value=4)
    assert rep.passed, rep.failures[:3]
    # the unrestricted pointwise claim must genuinely fail off the
    # equality class, or the restriction tested above was vacuous
    assert rep.stats["dominating_pointwise_violations"] > 0
    done(f"cheapest-block minimality over {rep.total} grid instances")


def test_criterion_3_factorization_roundtrip():
    done = _timed(10)
    rng, depth = random.Random(20260815), 8
    for _ in range(200):
        # a positive martingale: each state splits its value v into v * x
        # and v * (2 - x), with x drawn strictly between 0 and 2
        vals = {"": _rand_frac(rng, Fraction(1, 4), Fraction(4))}
        for state in all_states(depth - 1):
            den = rng.randint(2, 6)
            x = Fraction(rng.randint(1, 2 * den - 1), den)
            vals[state + "0"] = vals[state] * x
            vals[state + "1"] = vals[state] * (2 - x)
        t = StrategyTable(depth, vals, Kind.MARTINGALE, Parity.NONE, Sided.NONE)
        odd, even = parity_factorize(t)
        # product refuses factors that bet at a common state
        assert combine([(t.value(""), product(odd, even))]) == t
        assert validate(odd).holds(Kind.MARTINGALE, Parity.BETS_ON_ODD, Sided.NONE)
        assert validate(even).holds(Kind.MARTINGALE, Parity.BETS_ON_EVEN, Sided.NONE)
    done("parity factorization round-trip, 200 depth-8 martingales")


def _witness_mixtures():
    odd = mixture([
        constant_program(1, FractionBet(Fraction(-1, 2)), Parity.BETS_ON_ODD),
        follow_program(("01" * 40)[:40], Parity.BETS_ON_ODD, Fraction(1, 2)),
        constant_program(Fraction(1, 2), FractionBet(Fraction(1, 4)),
                         Parity.BETS_ON_ODD),
        constant_program(Fraction(1, 2), None, Parity.BETS_ON_ODD),
    ], Parity.BETS_ON_ODD)
    even = mixture([
        constant_program(1, None, Parity.BETS_ON_EVEN),
        constant_program(1, FractionBet(Fraction(-1, 3)), Parity.BETS_ON_EVEN),
        follow_program(("10" * 40)[:40], Parity.BETS_ON_EVEN, Fraction(1, 2)),
        constant_program(1, None, Parity.BETS_ON_EVEN),
    ], Parity.BETS_ON_EVEN)
    return odd, even


def test_criterion_4_nested_test_witness():
    done = _timed(120)
    odd, even = _witness_mixtures()
    assert odd.value("") + even.value("") <= 1  # joint root mass within budget
    res = build_parity_test(odd, even, 64, 10**4)
    assert len(res.path) == 128 and len(res.array.levels) == 65

    # fanout at most 3 at every level
    assert all(
        max_fanout(res.array, lv) <= 3
        for lv in range(1, res.array.depth() + 1)
    )
    # a survivor was chosen at every level, with joint capital within budget
    for rep in res.reports:
        assert rep.chosen is not None and rep.chosen == res.path[:2 * rep.level]
        chosen_value = dict(rep.final_values)[rep.chosen]
        assert chosen_value <= res.threshold

    cert, growth = packing_certificate(res.array)
    assert all(g.on_path_value == Fraction(4, 3) ** g.level for g in growth)

    report = empirical_dim_bound(cert, res.path)
    # exact certificate: squared value times 3^n equals 4^n at every even
    # sample, i.e. the exponent is exactly half of log2(3)
    assert report.half_log2_base() == 3
    target = math.log2(3) / 2  # 0.7924812503...
    for sample in report.samples:
        if sample.n > 0 and sample.n % 2 == 0:
            lo, hi = sample.bracket
            assert float(lo) <= target <= float(hi)
    deepest = [s for s in report.samples if s.n == 128][0]
    assert float(deepest.bracket[1] - deepest.bracket[0]) < 1e-6
    done("64-level nested test: fanout<=3, survivors, (4/3)^n growth, "
         "dimension pinned at log2(sqrt(3))")


def _window(name, cap, parity, start, steps, outcome=1):
    # passes for start rounds of its parity, then bets steps times, then
    # freezes; betting states sit only at the tagged parity
    sts = []
    if parity is Parity.BETS_ON_ODD:
        sts.append(FsmState(None, 1, 1))
    for _ in range(2 * start):
        k = len(sts)
        sts.append(FsmState(None, k + 1, k + 1))
    for _ in range(steps):
        k = len(sts)
        sts.append(FsmState(IntegerBet(1, outcome), k + 1, k + 1))
        k = len(sts)
        sts.append(FsmState(None, k + 1, k + 1))
    sts.append(FsmState(None, len(sts), len(sts)))
    prog = BetProgram(Fraction(cap), Fsm(tuple(sts)), "integer", parity)
    return IntStrategy(prog, name=name)


def _sided_window(name, cap, steps, outcome):
    sts = [FsmState(IntegerBet(1, outcome), i + 1, i + 1) for i in range(steps)]
    sts.append(FsmState(None, steps, steps))
    prog = BetProgram(Fraction(cap), Fsm(tuple(sts)), "integer",
                      Parity.NONE, Sided.ONE if outcome == 1 else Sided.ZERO)
    return IntStrategy(prog, name=name)


def _sided_const(name, cap, outcome):
    prog = constant_program(cap, IntegerBet(1, outcome), Parity.NONE,
                            Sided.ONE if outcome == 1 else Sided.ZERO)
    return IntStrategy(prog, name=name)


def _nonincreasing_after_last_deviation(trace, count):
    for i in range(count):
        losing = [
            k for k, r in enumerate(trace.records)
            if r.rule == "deviate" and k > 0
            and r.adversaries[i] < trace.records[k - 1].adversaries[i]
        ]
        if not losing:
            continue  # never pushed the walk; nothing to settle
        caps = [r.adversaries[i] for r in trace.records[losing[-1]:]]
        assert all(a >= b for a, b in zip(caps, caps[1:])), f"adversary {i}"


def test_criterion_5_integer_diagonalization():
    done = _timed(60)

    # engine N, greedy, against six staggered parity windows; the
    # aggregate initial capital of 60 is spent entirely on deviations
    advs_n = [
        _window("e0", 10, Parity.BETS_ON_EVEN, 0, 10),
        _window("o0", 10, Parity.BETS_ON_ODD, 10, 10),
        _window("e1", 10, Parity.BETS_ON_EVEN, 20, 10),
        _window("o1", 10, Parity.BETS_ON_ODD, 30, 10),
        _window("e2", 10, Parity.BETS_ON_EVEN, 40, 10),
        _window("o2", 10, Parity.BETS_ON_ODD, 50, 10),
    ]
    engine_n = unit_bet_on_one()
    tr = diagonalize(advs_n, engine_n, 1000)
    assert tr.reached and tr.records[-1].engine >= 1000
    deviations = sum(1 for r in tr.records if r.rule == "deviate")
    assert deviations <= 60  # aggregate initial capital
    _nonincreasing_after_last_deviation(tr, 6)
    replay_trace(tr, engine_n, advs_n)

    # engine D against six single-sided adversaries
    advs_d = [
        _sided_window("z0", 3, 3, 0), _sided_window("z1", 2, 2, 0),
        _sided_const("u0", 10, 1), _sided_const("u1", 9, 1),
        _sided_const("u2", 8, 1), _sided_const("u3", 7, 1),
    ]
    engine_d = unit_bet_alternating()
    tr2 = diagonalize(advs_d, engine_d, 1000)
    assert tr2.reached and tr2.records[-1].engine >= 1000
    assert sum(1 for r in tr2.records if r.rule == "deviate") <= 39
    _nonincreasing_after_last_deviation(tr2, 6)
    replay_trace(tr2, engine_d, advs_d)

    # settle mode with 01-block interpolation against FSM adversaries
    advs_s = [
        _window("w0", 4, Parity.BETS_ON_EVEN, 0, 3, outcome=0),
        _window("w1", 5, Parity.BETS_ON_EVEN, 0, 4, outcome=1),
        _window("w2", 3, Parity.BETS_ON_EVEN, 0, 2, outcome=1),
    ]
    tr3 = diagonalize(advs_s, unit_bet_on_one(), 50,
                      mode="settle", dim0_blocks=512)
    assert tr3.reached
    assert len(tr3.checkpoints) == 3
    assert all(cp.fraction >= Fraction(9, 10) for cp in tr3.checkpoints)
    assert len(tr3.certificates) == 3
    for cert in tr3.certificates:
        assert verify_cone_constancy(advs_s[cert.adversary], cert.prefix, 20)
    replay_trace(tr3, unit_bet_on_one(), advs_s)

    done(f"duels: greedy N ({deviations} deviations), greedy D, settle+dim0 "
         f"(min block fraction {float(min(c.fraction for c in tr3.checkpoints)):.3f})")


def _tower_mixtures():
    n_approx = StageApprox((
        Component(0, Fraction(1, 8),
                  constant_program(1, FractionBet(Fraction(1, 8)),
                                   Parity.BETS_ON_ODD)),
        Component(3, Fraction(1, 16),
                  constant_program(1, None, Parity.BETS_ON_ODD)),
        Component(50, Fraction(1),
                  follow_program("0" * 18, Parity.BETS_ON_ODD,
                                 Fraction(385, 262144))),
    ), Kind.MARTINGALE, Parity.BETS_ON_ODD)
    t_approx = StageApprox((
        Component(0, Fraction(1, 8),
                  constant_program(1, None, Parity.BETS_ON_EVEN)),
        Component(7, Fraction(1, 16),
                  constant_program(1, FractionBet(Fraction(-1, 4)),
                                   Parity.BETS_ON_EVEN)),
    ), Kind.MARTINGALE, Parity.BETS_ON_EVEN)
    return n_approx, t_approx


def test_criterion_6_stage_machine():
    done = _timed(300)
    assert [(params(n).q, params(n).p, params(n).s) for n in range(3)] == [
        (Fraction(2), 2, 0),
        (Fraction(3, 2), 12, 18),
        (Fraction(5, 4), 44, 80),
    ]
    # description lengths are the ceiling of q*s
    for n in range(1, 3):
        pr = params(n)
        assert pr.described_len == math.ceil(pr.q * pr.s)

    n_approx, t_approx = _tower_mixtures()
    stages, n_max = 5000, 2
    state, deepest, ledger = run_stage_machine(n_approx, t_approx, stages, n_max)
    assert len(deepest) == params(2).s
    assert ledger.kraft_weight() <= 1
    assert all(ln in (27, 100) for _, ln in ledger.requests)
    for n in range(n_max + 1):
        assert state.change_counts[n] <= 2 ** params(n).p

    # replay the event log: the ledger weight stays within Kraft at every
    # stage, and every defined prefix stays under its capital budget at
    # every stage, evaluated at that stage's approximation
    by_stage = {}
    for e in state.events:
        by_stage.setdefault(e.stage, []).append(e)
    sigmas = {0: ""}
    running = Fraction(0)
    for u in range(stages + 1):
        for e in by_stage.get(u, []):
            if e.kind == "define":
                sigmas[e.n] = e.value
            elif e.kind == "undefine":
                sigmas.pop(e.n, None)
            else:
                running += Fraction(1, 2 ** params(e.n).described_len)
                assert running <= 1, f"Kraft overflow at stage {u}"
        for n, sig in sigmas.items():
            joint = n_approx.eval(u, sig) + t_approx.eval(u, sig)
            assert joint <= capital_threshold(n), (u, n)
    assert running == ledger.kraft_weight()
    done(f"stage machine: {len(state.events)} events over {stages} stages, "
         f"Kraft {ledger.kraft_weight()}, capital bounds replayed")


def test_criterion_7_growth_bound():
    done = _timed(60)
    rep = growth_random(random.Random(20260815), 1000)
    assert rep.passed, rep.failures[:3]
    assert rep.total == 1000
    fix = all_in_growth_fixture()
    assert fix.passed, fix.failures
    rise = Fraction(fix.stats["rise"])
    bound = Fraction(fix.stats["bound"])
    assert bound <= 2 * rise  # within a factor of two of the bound
    done(f"growth bound on 1000 random instances; all-in fixture rise "
         f"{rise} against bound {bound}")


def test_criterion_8_half_test_strategies():
    done = _timed(10)
    arr = TestArray(
        (("000000",), ("0" * 10,), ("0" * 14,)), flavor="half"
    )
    verdicts = validate_s_test(arr, Fraction(1, 2))
    assert all(v.strict for v in verdicts)

    even_side, odd_side = strategies_from_test(arr)
    # unit-value property: each member's components hold exactly 1 on
    # every extension of the member, on both sides
    members = [m for level in arr.levels for m in level]
    for mix_side in (even_side, odd_side):
        for comp, member in zip(mix_side.components, members):
            for ext in (member, member + "0", member + "11",
                        member + "010"):
                assert comp.program.value(ext) == 1, (member, ext)

    # the sides revalidate with their parity tags at a useful depth
    for mix_side, parity in ((even_side, Parity.BETS_ON_EVEN),
                             (odd_side, Parity.BETS_ON_ODD)):
        table = mix_side.table(2, depth=6)
        diag = validate(table)
        assert diag.holds(table.kind, parity, Sided.NONE)

    # a sequence through all three nested members accumulates at least
    # 3 minus the side's starting mass; here every component survives,
    # so each side holds exactly 3
    x = "0" * 14
    for mix_side in (even_side, odd_side):
        root = mix_side.value("")
        assert root < 2
        assert mix_side.value(x) >= 3 - root
        assert mix_side.value(x) == 3
    done("half-test strategies: unit values, parity tags, capital 3 on a "
         "sequence through all levels")
