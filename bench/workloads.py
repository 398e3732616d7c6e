"""Seeded job lists for the three benchmark workloads.

build() draws every input of one pass from the seed, constructs the
programs and mixtures, writes the files the command-line jobs read, and
returns the jobs. All of that is the pass's set-up; a job is the unit the
closed loop times. Each job returns the wire bytes it produced and the
list of invariant violations it found (empty when it passed).

Job costs are fixed by a per-workload schedule of sizes (depths, stage
counts, targets, component counts), and jobs run in schedule order; the
seed only picks the values inside that schedule. So two seeds do the same
amount of work, and leave the heap in the same shape for peak_rss_mb,
while neither is tuned to a particular instance.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

WORKLOADS = ("growth-suite", "deep-paths", "tables-wire")


@dataclass
class Job:
    id: str
    run: Callable[[], tuple[bytes, list]]


def noop(name: str, n: int) -> None:
    pass


def build(name: str, pb, seed: int, workdir: str, note=noop) -> list[Job]:
    """Jobs of one pass of the named workload.

    pb is a freshly imported paritybet package with its cli and oracles
    submodules loaded; note(counter, n) receives counts measured at the
    benchmark's own boundaries (bytes decoded, command output bytes).
    """
    rng = random.Random(f"{name}:{seed}")
    makers = {
        "growth-suite": _growth_suite,
        "deep-paths": _deep_paths,
        "tables-wire": _tables_wire,
    }
    return makers[name](pb, rng, workdir, note)


# -- shared helpers -------------------------------------------------------


def _rand_frac(rng, lo, hi, den_max: int = 8) -> Fraction:
    """A rational in [lo, hi] with a small random denominator."""
    lo, hi = Fraction(lo), Fraction(hi)
    den = rng.randint(1, den_max)
    steps = int((hi - lo) * den)
    return lo + Fraction(rng.randint(0, steps), den) if steps else lo


def _bits(rng, n: int) -> str:
    return "".join(rng.choice("01") for _ in range(n))


def _write(workdir: str, name: str, payload) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)
    return path


def _cli_job(pb, job_id: str, argv: list, note, check) -> Job:
    """One in-process `paritybet.cli.main(argv)` call; stdout is the
    job's wire output and check(stdout text) lists violations."""

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = pb.cli.main(argv)
            except SystemExit as exc:  # argparse rejected argv
                code = exc.code
        text = out.getvalue()
        note("cli.out_bytes", len(text))
        if code != 0:
            return text.encode(), [f"exit {code}: {err.getvalue().strip()}"]
        return text.encode(), check(text)

    return Job(job_id, run)


def _needs(cond: bool, message: str, problems: list) -> None:
    if not cond:
        problems.append(message)


# -- growth-suite: criterion 7 and verify --lemma growth|floor-parity -----

# (odd components, even components) per mixture pair; fixed so that every
# seed evaluates mixtures of the same sizes.
_GROWTH_POOL = ((2, 3), (3, 2), (4, 4), (1, 3), (3, 4))
_GROWTH_PER_PAIR = 16
_GROWTH_DEPTH = 8


def _growth_component(pb, rng, parity, i):
    """The i-th component of a mixture. Its shape and the range of its
    activation stage follow from i, so that a few seeded draws do not set
    a mixture's cost; the seed picks the values."""
    stage = 5 * i + rng.randint(0, 5)
    shape = i % 3
    weight = Fraction(1, 2 ** rng.randint(1, 5))
    if shape == 0:
        prog = pb.constant_program(_rand_frac(rng, 0, 1), None, parity)
    elif shape == 1:
        v = _rand_frac(rng, Fraction(1, 8), 1)
        prog = pb.constant_program(v, pb.FractionBet(_rand_frac(rng, -1, 1)), parity)
    else:
        target = _bits(rng, rng.randint(2, 12))
        prog = pb.follow_program(target, parity, Fraction(1, 2 ** rng.randint(0, 4)))
    return pb.Component(stage, weight, prog)


def _growth_mixture(pb, rng, parity, size):
    comps = tuple(_growth_component(pb, rng, parity, i) for i in range(size))
    return pb.StageApprox(comps, pb.Kind.MARTINGALE, parity, pb.Sided.NONE)


def _derive_p(delta: Fraction, fallback: int) -> int | None:
    """Exponent p with 2^-(p+1) <= delta < 2^-p, so the hypothesis of the
    growth bound holds and is not vacuous; None when delta >= 1 leaves no
    such p (the oracle suite skips those instances the same way)."""
    if delta == 0:
        return fallback
    p = 0
    while Fraction(1, 2 ** (p + 1)) > delta:
        p += 1
    return None if Fraction(1, 2**p) <= delta else p


def _growth_job(pb, job_id, n_side, t_side, inst) -> Job:
    sigma, tau, s, t, fallback = inst

    def run():
        probe = pb.check_growth_bound(
            n_side, t_side, sigma, tau, s, t, p=0, depth=_GROWTH_DEPTH
        )
        p = _derive_p(probe.delta_at_sigma, fallback)
        verdict = probe
        if p is not None:
            verdict = pb.check_growth_bound(
                n_side, t_side, sigma, tau, s, t, p=p, depth=_GROWTH_DEPTH
            )
        problems = []
        _needs(verdict.ok(), "growth bound fails", problems)
        if p is not None:
            _needs(verdict.hypothesis_holds, f"derived p={p} misses the hypothesis", problems)
        return pb.dumps(verdict).encode(), problems

    return Job(job_id, run)


def _verify_check(text: str) -> list:
    payload = json.loads(text)
    return [] if payload["passed"] else [f"verify reports failures: {payload['reports']}"]


def _growth_suite(pb, rng, workdir, note) -> list[Job]:
    odd, even = pb.Parity.BETS_ON_ODD, pb.Parity.BETS_ON_EVEN
    pairs = [
        (_growth_mixture(pb, rng, odd, a), _growth_mixture(pb, rng, even, b))
        for a, b in _GROWTH_POOL
    ]
    jobs = []
    # round-robin over the pool, in the same order for every seed
    for i in range(_GROWTH_PER_PAIR * len(pairs)):
        tau = _bits(rng, _GROWTH_DEPTH)
        sigma = tau[: 2 * rng.randint(0, _GROWTH_DEPTH // 2 - 1)]
        stage_s = rng.randint(0, 20)
        stage_t = stage_s + rng.randint(1, 10)
        inst = (sigma, tau, stage_s, stage_t, rng.randint(1, 8))
        jobs.append(_growth_job(pb, f"{i:03d}-growth", *pairs[i % len(pairs)], inst))
    verify_seed = str(rng.randrange(10**6))
    jobs.insert(
        len(jobs) // 2,
        _cli_job(pb, "cli-verify-growth",
                 ["verify", "--lemma", "growth", "--n", "10", "--seed", verify_seed],
                 note, _verify_check),
    )
    jobs.append(
        _cli_job(pb, "cli-verify-floor-parity",
                 ["verify", "--lemma", "floor-parity"], note, _verify_check)
    )
    return jobs


# -- deep-paths: criteria 4, 5, 6 plus paritytest, dimhalf, diagonalize ---

# Many short constructions and a tier of deep ones, so that the ten jobs
# beyond the reported tail percentile, and the job at it, are deep ones.
_PARITY_DEPTHS = (32, 36, 40) * 4 + (64, 80, 96, 128, 192)
_PARITY_STAGES = 10**4
# (n_max, stages) of the stage-machine jobs
_TOWER_RUNS = ((2, 200), (2, 250)) * 4 + ((2, 700), (2, 1400), (2, 2000), (3, 300))
_GREEDY_N_TARGETS = (500, 1000, 1500, 2000, 3000) * 4 + (10000, 20000)
_GREEDY_D_TARGETS = (500, 1000, 2000, 3000) * 4 + (10000,)
# (target, dim0 block base) of the settle-mode duels
_SETTLE_RUNS = ((1000, 16), (2000, 32), (3000, 32), (3000, 64), (5000, 64)) * 3


def _parity_pair(pb, rng, depth):
    """Criterion 4's witness mixtures with seeded follow targets and idle
    capitals. The bets are the witness's: their signs decide whether the
    blocks along the path ever close, which changes the work of a test by
    a third, so drawing them would make seeds incomparable. mixture()
    keeps each side's root below 1/2, so the joint root stays under the
    threshold 1 and the test can always be built."""
    odd, even = pb.Parity.BETS_ON_ODD, pb.Parity.BETS_ON_EVEN
    reach = 2 * depth // 3
    m = pb.mixture([
        pb.constant_program(1, pb.FractionBet(Fraction(-1, 2)), odd),
        pb.follow_program(_bits(rng, reach), odd, Fraction(1, 2)),
        pb.constant_program(Fraction(1, 2), pb.FractionBet(Fraction(1, 4)), odd),
        pb.constant_program(Fraction(rng.randint(1, 4), 4), None, odd),
    ], odd)
    n = pb.mixture([
        pb.constant_program(Fraction(rng.randint(1, 4), 4), None, even),
        pb.constant_program(1, pb.FractionBet(Fraction(-1, 3)), even),
        pb.follow_program(_bits(rng, reach), even, Fraction(1, 2)),
        pb.constant_program(1, None, even),
    ], even)
    return m, n


def _parity_job(pb, job_id, m, n, depth) -> Job:
    def run():
        res = pb.build_parity_test(m, n, depth, _PARITY_STAGES)
        cert, growth = pb.packing_certificate(res.array)
        report = pb.empirical_dim_bound(cert, res.path)
        problems = []
        arr = res.array
        _needs(len(res.path) == 2 * depth and arr.depth() == depth, "wrong path or array depth", problems)
        _needs(all(pb.max_fanout(arr, lv) <= 3 for lv in range(1, arr.depth() + 1)), "fanout above 3", problems)
        for rep in res.reports:
            ok = rep.chosen is not None and rep.chosen == res.path[: 2 * rep.level]
            if ok:
                ok = dict(rep.final_values)[rep.chosen] <= res.threshold
            _needs(ok, f"no survivor within budget at level {rep.level}", problems)
        _needs(all(g.on_path_value == Fraction(4, 3) ** g.level for g in growth), "certificate off (4/3)^n", problems)
        _needs(report.half_log2_base() == 3, "dimension not pinned at log2(sqrt 3)", problems)
        return (pb.dumps(res) + pb.dumps(report)).encode(), problems

    return Job(job_id, run)


def _tower_components(pb, rng):
    """Criterion-6-shaped tower: a late all-in follower pumps capital
    along "0" * 18, cutting and regrowing the tower. The seed draws the
    follower's activation stage and the tail of its target; both leave
    the work of a run unchanged, while drawing bets, other stages or the
    pumping head changed it by up to a half between seeds. Joint root
    capital stays near 3/8, below the 1/2 abort line."""
    odd, even = pb.Parity.BETS_ON_ODD, pb.Parity.BETS_ON_EVEN
    C = pb.Component
    odd_parts = (
        C(0, Fraction(1, 8), pb.constant_program(1, pb.FractionBet(Fraction(1, 8)), odd)),
        C(3, Fraction(1, 16), pb.constant_program(1, None, odd)),
        C(rng.randint(40, 60), Fraction(1), pb.follow_program(
            "0" * 18 + _bits(rng, 12), odd, Fraction(385, 262144))),
    )
    even_parts = (
        C(0, Fraction(1, 8), pb.constant_program(1, None, even)),
        C(7, Fraction(1, 16), pb.constant_program(1, pb.FractionBet(Fraction(-1, 4)), even)),
    )
    return odd_parts, even_parts


def _tower_pair(pb, odd_parts, even_parts):
    K = pb.Kind.MARTINGALE
    return (pb.StageApprox(odd_parts, K, pb.Parity.BETS_ON_ODD),
            pb.StageApprox(even_parts, K, pb.Parity.BETS_ON_EVEN))


def _tower_job(pb, job_id, n_approx, t_approx, n_max, stages) -> Job:
    def run():
        state, deepest, ledger = pb.run_stage_machine(n_approx, t_approx, stages, n_max)
        problems = []
        _needs(ledger.kraft_weight() <= 1, "Kraft weight above 1", problems)
        par = pb.stage_parameters(n_max)
        for n, sig in enumerate(state.sigmas):
            _needs(state.change_counts[n] <= 2 ** par[n].p, f"index {n} over its change budget", problems)
            if sig is not None:
                _needs(len(sig) == par[n].s, f"index {n} prefix has the wrong length", problems)
        return (pb.dumps(state) + deepest + "\n").encode(), problems

    return Job(job_id, run)


def _int_program(pb, cap, states, parity, sided=None):
    sided = pb.Sided.NONE if sided is None else sided
    return pb.BetProgram(Fraction(cap), pb.Fsm(tuple(states)), "integer", parity, sided)


def _window(pb, name, cap, parity, start, steps, outcome):
    """Single-parity adversary: idles for start rounds, bets 1 on outcome
    steps times at its parity, then freezes (criterion 5's windows)."""
    S = pb.FsmState
    sts = [S(None, 1, 1)] if parity is pb.Parity.BETS_ON_ODD else []
    for _ in range(2 * start):
        sts.append(S(None, len(sts) + 1, len(sts) + 1))
    for _ in range(steps):
        sts.append(S(pb.IntegerBet(1, outcome), len(sts) + 1, len(sts) + 1))
        sts.append(S(None, len(sts) + 1, len(sts) + 1))
    sts.append(S(None, len(sts), len(sts)))
    return pb.IntStrategy(_int_program(pb, cap, sts, parity), name=name)


def _staggered_windows(pb, rng):
    """Six windows of alternating parity, one after another, so at most
    one adversary bets at a time and the unit engine never goes broke."""
    advs, start = [], 0
    for i in range(6):
        parity = pb.Parity.BETS_ON_EVEN if i % 2 == 0 else pb.Parity.BETS_ON_ODD
        steps = rng.randint(5, 12)
        advs.append(_window(pb, f"w{i}", rng.randint(5, 12), parity, start, steps, rng.randint(0, 1)))
        start += steps + 1
    return advs


def _sided_adversaries(pb, rng):
    """Criterion 5's single-sided family for the alternating engine."""
    S, ZERO, ONE = pb.FsmState, pb.Sided.ZERO, pb.Sided.ONE
    advs = []
    for i, steps in enumerate((rng.randint(2, 4), rng.randint(1, 3))):
        sts = [S(pb.IntegerBet(1, 0), k + 1, k + 1) for k in range(steps)]
        sts.append(S(None, steps, steps))
        advs.append(pb.IntStrategy(_int_program(pb, steps, sts, pb.Parity.NONE, ZERO), name=f"z{i}"))
    for i in range(4):
        prog = pb.constant_program(rng.randint(6, 11), pb.IntegerBet(1, 1), pb.Parity.NONE, ONE)
        advs.append(pb.IntStrategy(prog, name=f"u{i}"))
    return advs


def _settle_adversaries(pb, rng):
    even = pb.Parity.BETS_ON_EVEN
    return [
        _window(pb, f"s{i}", rng.randint(3, 6), even, 0, rng.randint(2, 4), rng.randint(0, 1))
        for i in range(3)
    ]


def _duel_job(pb, job_id, engine_maker, advs, target, blocks=None) -> Job:
    mode = "greedy" if blocks is None else "settle"

    def run():
        trace = pb.diagonalize(advs, engine_maker(), target, mode=mode, dim0_blocks=blocks)
        problems = []
        try:
            pb.replay_trace(trace, engine_maker(), advs)
        except pb.BettingLabError as exc:
            problems.append(f"replay failed: {exc}")
        final = trace.records[-1]
        _needs(trace.reached and final.engine >= target, "engine missed the target", problems)
        if mode == "greedy":
            deviations = sum(1 for r in trace.records if r.rule == "deviate")
            _needs(deviations <= sum(a.initial for a in advs), "more deviations than adversary capital", problems)
        else:
            _needs(len(trace.certificates) == len(advs), "an adversary was not settled", problems)
            for cert in trace.certificates:
                _needs(pb.verify_cone_constancy(advs[cert.adversary], cert.prefix, 20),
                       f"adversary {cert.adversary} not constant on its cone", problems)
        summary = {"z": trace.z, "engine": final.engine, "adversaries": list(final.adversaries),
                   "checkpoints": [pb.to_jsonable(c) for c in trace.checkpoints]}
        return pb.dumps(summary).encode(), problems

    return Job(job_id, run)


def _paritytest_check(depth):
    def check(text):
        payload = json.loads(text)
        ok = len(payload["path"]) == 2 * depth
        ok = ok and payload["certificate"]["dim_report"]["half_log2_base"] == 3
        return [] if ok else ["paritytest output off its invariants"]
    return check


def _dimhalf_check(text):
    kraft = Fraction(json.loads(text)["ledger"]["kraft_weight"])
    return [] if kraft <= 1 else ["Kraft weight above 1"]


def _diagonalize_check(text):
    summary = json.loads(text.strip().splitlines()[-1])
    return [] if summary["reached"] else ["duel did not reach its target"]


def _deep_paths(pb, rng, workdir, note) -> list[Job]:
    jobs = []
    for i, depth in enumerate(_PARITY_DEPTHS):
        m, n = _parity_pair(pb, rng, depth)
        jobs.append(_parity_job(pb, f"{i:02d}-parity-d{depth}", m, n, depth))
    for i, (n_max, stages) in enumerate(_TOWER_RUNS):
        odd_parts, even_parts = _tower_components(pb, rng)
        jobs.append(_tower_job(pb, f"{i:02d}-tower-n{n_max}-s{stages}",
                               *_tower_pair(pb, odd_parts, even_parts), n_max, stages))
    for i, target in enumerate(_GREEDY_N_TARGETS):
        jobs.append(_duel_job(pb, f"{i:02d}-greedy-N-t{target}", pb.unit_bet_on_one,
                              _staggered_windows(pb, rng), target))
    for i, target in enumerate(_GREEDY_D_TARGETS):
        jobs.append(_duel_job(pb, f"{i:02d}-greedy-D-t{target}", pb.unit_bet_alternating,
                              _sided_adversaries(pb, rng), target))
    for i, (target, blocks) in enumerate(_SETTLE_RUNS):
        jobs.append(_duel_job(pb, f"{i:02d}-settle-N-t{target}", pb.unit_bet_on_one,
                              _settle_adversaries(pb, rng), target, blocks))

    cli_depth = 32
    m, n = _parity_pair(pb, rng, cli_depth)
    mix = _write(workdir, "paritytest-mixture.json",
                 {"odd": pb.to_jsonable(m), "even": pb.to_jsonable(n)})
    jobs.append(_cli_job(pb, "cli-paritytest",
                         ["paritytest", "--depth", str(cli_depth), "--stages", "64", "--mixture", mix],
                         note, _paritytest_check(cli_depth)))
    odd_parts, even_parts = _tower_components(pb, rng)
    comps = _write(workdir, "dimhalf-components.json",
                   [pb.to_jsonable(c) for c in odd_parts + even_parts])
    jobs.append(_cli_job(pb, "cli-dimhalf",
                         ["dimhalf", "--nmax", "2", "--stages", "600", "--components", comps],
                         note, _dimhalf_check))
    greedy = _write(workdir, "greedy-adversaries.json",
                    [pb.to_jsonable(a) for a in _staggered_windows(pb, rng)])
    jobs.append(_cli_job(pb, "cli-diagonalize-greedy",
                         ["diagonalize", "--engine", "N", "--adversaries", greedy, "--target", "10000"],
                         note, _diagonalize_check))
    settle = _write(workdir, "settle-adversaries.json",
                    [pb.to_jsonable(a) for a in _settle_adversaries(pb, rng)])
    jobs.append(_cli_job(pb, "cli-diagonalize-settle",
                         ["diagonalize", "--engine", "N", "--adversaries", settle, "--target", "3000",
                          "--mode", "settle", "--dim0", "--dim0-blocks", "32"],
                         note, _diagonalize_check))
    return jobs


# -- tables-wire: criteria 1, 2, 3, 8 plus validate, decompose, stest, dim -

# extra depth-10 round trips, so that the job at the tail percentile and
# the ten beyond it come from one group of like jobs
_MARTINGALE_DEPTHS = (7, 8, 9, 10) * 4 + (10,) * 4
_PROGRAM_DEPTHS = (10, 11, 12, 10, 11, 12)
_MIXTURE_DEPTHS = (10, 11, 12, 10, 11, 12)
# activation stages of each mixture's components; the table is taken at a
# stage where three of the four are awake
_MIXTURE_STAGES = (0, 0, 1, 3)
_MIXTURE_TABLE_STAGE = 2
# many like block batches, so that the median job is one of them
_BLOCK_BATCHES = 18
_BLOCK_BATCH = 40
_HALF_TESTS = 3


def _martingale_values(rng, depth):
    """Strictly positive martingale with small denominators (criterion 3)."""
    vals = {"": _rand_frac(rng, Fraction(1, 4), 4)}
    for length in range(depth):
        for i in range(1 << length):
            state = format(i, "b").zfill(length) if length else ""
            v = vals[state]
            den = rng.randint(2, 6)
            x = Fraction(rng.randint(1, 2 * den - 1), den)
            vals[state + "0"] = v * x
            vals[state + "1"] = v * (2 - x)
    return vals


def _roundtrip_job(pb, job_id, depth, vals, note) -> Job:
    def run():
        table = pb.StrategyTable(depth, vals, pb.Kind.MARTINGALE)
        text = pb.dumps(table)
        note("serialize.decode.bytes", len(text))
        back = pb.from_jsonable(json.loads(text))
        problems = []
        _needs(pb.validate(back).martingale, "round trip lost the martingale law", problems)
        odd_f, even_f = pb.parity_factorize(back)
        root = back.value("")
        _needs(all(root * odd_f.values[s] * even_f.values[s] == v for s, v in back.values.items()),
               "product identity fails", problems)
        M, N = pb.Kind.MARTINGALE, pb.Sided.NONE
        _needs(pb.validate(odd_f).holds(M, pb.Parity.BETS_ON_ODD, N), "odd factor off its tags", problems)
        _needs(pb.validate(even_f).holds(M, pb.Parity.BETS_ON_EVEN, N), "even factor off its tags", problems)
        return (text + pb.dumps(odd_f) + pb.dumps(even_f)).encode(), problems

    return Job(job_id, run)


def _random_fsm_program(pb, rng, parity):
    """Fractional-bet machine with 3-6 states; bets sit only on machine
    states reachable at the parity's betting positions."""
    size = rng.randint(3, 6)
    if parity is pb.Parity.NONE:
        states = [
            pb.FsmState(pb.FractionBet(_rand_frac(rng, -1, 1)) if rng.random() < 0.7 else None,
                        rng.randrange(size), rng.randrange(size))
            for _ in range(size)
        ]
        initial = _rand_frac(rng, Fraction(1, 4), 2)
        return pb.BetProgram(initial, pb.Fsm(tuple(states)), "fractional", parity)
    # two banks of states: bank 0 occupies even positions, bank 1 odd ones
    betting_bank = 0 if parity is pb.Parity.BETS_ON_EVEN else 1
    states = []
    for q in range(2 * size):
        bank = q // size
        bet = None
        if bank == betting_bank and rng.random() < 0.8:
            bet = pb.FractionBet(_rand_frac(rng, -1, 1))
        other = (1 - bank) * size
        states.append(pb.FsmState(bet, other + rng.randrange(size), other + rng.randrange(size)))
    initial = _rand_frac(rng, Fraction(1, 4), 1)
    return pb.BetProgram(initial, pb.Fsm(tuple(states)), "fractional", parity)


def _table_job(pb, job_id, make_table, kind, parity) -> Job:
    def run():
        table = make_table()
        diag = pb.validate(table)
        problems = []
        _needs(diag.holds(kind, parity, pb.Sided.NONE), f"table fails {kind.value}/{parity.value}", problems)
        return pb.dumps(table).encode(), problems

    return Job(job_id, run)


def _block_instance(rng):
    """Martingale block pair with equality targets and an admissible
    budget, so all seven hypotheses of the block inequality hold."""
    while True:
        r = _rand_frac(rng, 0, 2)
        a = _rand_frac(rng, 0, 2 * r)
        b = _rand_frac(rng, 0, 2 * r)
        rn = _rand_frac(rng, 0, 2)
        n0 = _rand_frac(rng, 0, 2 * rn)
        n1 = 2 * rn - n0
        lo, hi = r + rn, min(a + n0, b + n1)
        if lo <= hi:
            return r, a, b, rn, n0, n1, _rand_frac(rng, lo, hi)


def _block_job(pb, job_id, instances) -> Job:
    odd, even, M = pb.Parity.BETS_ON_ODD, pb.Parity.BETS_ON_EVEN, pb.Kind.MARTINGALE

    def run():
        problems, out = [], []
        for r, a, b, rn, n0, n1, c in instances:
            m = pb.StrategyTable(2, {"": r, "0": r, "1": r, "00": a, "01": 2 * r - a,
                                     "10": b, "11": 2 * r - b}, M, odd)
            n = pb.StrategyTable(2, {"": rn, "0": n0, "1": n1, "00": n0, "01": n0,
                                     "10": n1, "11": n1}, M, even)
            spec = pb.BlockSpec(a, b, n0, n1, c)
            rep = pb.verify_block_inequality(m, n, "", spec)
            _needs(rep.hypotheses_ok and rep.conclusion_ok, f"block inequality fails: {rep.witness}", problems)
            core = pb.min_block_martingale(a, b)
            _needs(core.value("") == max(a, b) / 2, "block core root is not minimal", problems)
            parts = pb.block_decompose(m, n, spec)
            _needs(all(parts[0].values[s] + parts[1].values[s] == m.values[s] for s in m.values),
                   "block decomposition does not sum back", problems)
            out.append(pb.dumps(rep))
            out.extend(pb.dumps(t) for t in parts)
        return "".join(out).encode(), problems

    return Job(job_id, run)


def _half_test_array(pb, rng):
    """Half-scaled test: level k holds one or two strings of length at
    least 2k + 4, so each level's weight stays strictly below 2^-k."""
    levels = []
    for k in range(4):
        size = rng.randint(1, 2)
        levels.append(tuple(sorted({_bits(rng, 2 * k + 4 + 2 * rng.randint(0, 1)) for _ in range(size)})))
    return pb.TestArray(tuple(levels), flavor="half")


def _half_test_job(pb, job_id, arr) -> Job:
    def run():
        verdicts = pb.validate_s_test(arr, Fraction(1, 2))
        problems = []
        _needs(all(v.strict for v in verdicts), "half test breaks a level bound", problems)
        even_side, odd_side = pb.strategies_from_test(arr)
        out = [pb.dumps([pb.to_jsonable(v) for v in verdicts])]
        for side, parity in ((even_side, pb.Parity.BETS_ON_EVEN), (odd_side, pb.Parity.BETS_ON_ODD)):
            table = side.table(arr.depth(), 8)
            _needs(pb.validate(table).holds(table.kind, parity, pb.Sided.NONE),
                   f"{parity.value} side fails its tags", problems)
            out.append(pb.dumps(table))
        return "".join(out).encode(), problems

    return Job(job_id, run)


def _validate_check(*keys):
    def check(text):
        payload = json.loads(text)
        return [] if all(payload[k] for k in keys) else [f"validate verdict lacks {keys}"]
    return check


def _decompose_check(text):
    payload = json.loads(text)
    ok = all(payload[k]["type"] == "table" for k in payload if k not in ("mode", "root"))
    return [] if ok else ["decompose output is not a set of tables"]


def _stest_check(text):
    return [] if json.loads(text)["ok"] else ["stest reports a broken level"]


def _dim_check(text):
    payload = json.loads(text)
    return [] if payload["type"] == "dim_report" and payload["samples"] else ["empty dim report"]


def _tables_wire(pb, rng, workdir, note) -> list[Job]:
    M, odd, even, NONE = pb.Kind.MARTINGALE, pb.Parity.BETS_ON_ODD, pb.Parity.BETS_ON_EVEN, pb.Parity.NONE
    jobs = []
    for i, depth in enumerate(_MARTINGALE_DEPTHS):
        jobs.append(_roundtrip_job(pb, f"{i:02d}-roundtrip-d{depth}", depth, _martingale_values(rng, depth), note))
    parities = (NONE, odd, even)
    for i, depth in enumerate(_PROGRAM_DEPTHS):
        parity = parities[i % 3]
        prog = _random_fsm_program(pb, rng, parity)
        jobs.append(_table_job(pb, f"{i:02d}-program-d{depth}",
                               lambda p=prog, d=depth: p.to_table(d), M, parity))
    for i, depth in enumerate(_MIXTURE_DEPTHS):
        parity = (odd, even)[i % 2]
        comps = tuple(pb.Component(stage, Fraction(1, 2 ** rng.randint(1, 4)),
                                   _random_fsm_program(pb, rng, parity)) for stage in _MIXTURE_STAGES)
        mix = pb.StageApprox(comps, M, parity)
        jobs.append(_table_job(pb, f"{i:02d}-mixture-d{depth}",
                               lambda x=mix, d=depth: x.table(_MIXTURE_TABLE_STAGE, d), M, parity))
    for i in range(_BLOCK_BATCHES):
        jobs.append(_block_job(pb, f"{i:02d}-blocks", [_block_instance(rng) for _ in range(_BLOCK_BATCH)]))
    for i in range(_HALF_TESTS):
        jobs.append(_half_test_job(pb, f"{i:02d}-halftest", _half_test_array(pb, rng)))

    table = pb.StrategyTable(10, _martingale_values(rng, 10), M)
    table_path = _write(workdir, "martingale.json", pb.to_jsonable(table))
    prog_path = _write(workdir, "program.json", pb.to_jsonable(_random_fsm_program(pb, rng, odd)))
    comps = tuple(pb.Component(k, Fraction(1, 2 ** (k + 1)), _random_fsm_program(pb, rng, even)) for k in range(4))
    mix_path = _write(workdir, "mixture.json", pb.to_jsonable(pb.StageApprox(comps, M, even)))
    r, a, b, rn, n0, n1, c = _block_instance(rng)
    m_path = _write(workdir, "block-m.json", pb.to_jsonable(pb.StrategyTable(
        2, {"": r, "0": r, "1": r, "00": a, "01": 2 * r - a, "10": b, "11": 2 * r - b}, M, odd)))
    n_path = _write(workdir, "block-n.json", pb.to_jsonable(pb.StrategyTable(
        2, {"": rn, "0": n0, "1": n1, "00": n0, "01": n0, "10": n1, "11": n1}, M, even)))
    spec_path = _write(workdir, "block-spec.json", pb.to_jsonable(pb.BlockSpec(a, b, n0, n1, c)))
    arr_path = _write(workdir, "half-test.json", pb.to_jsonable(_half_test_array(pb, rng)))
    x_path = os.path.join(workdir, "x.txt")
    with open(x_path, "w", encoding="utf-8") as fh:
        fh.write(_bits(rng, 10) + "\n")
    cli = [
        ("cli-validate-table", ["validate", "--in", table_path], _validate_check("martingale")),
        ("cli-validate-program", ["validate", "--in", prog_path, "--depth", "11"],
         _validate_check("martingale", "bets_on_odd")),
        ("cli-validate-mixture", ["validate", "--in", mix_path, "--depth", "10", "--stage", "3"],
         _validate_check("martingale", "bets_on_even")),
        ("cli-decompose-parity", ["decompose", "--in", table_path, "--mode", "parity"], _decompose_check),
        ("cli-decompose-block", ["decompose", "--in", m_path, "--mode", "block", "--second", n_path,
                                 "--spec", spec_path], _decompose_check),
        ("cli-stest", ["stest", "--validate", arr_path, "--s", "1/2"], _stest_check),
        ("cli-dim", ["dim", "--strategy", table_path, "--x", x_path], _dim_check),
    ]
    jobs.extend(_cli_job(pb, job_id, argv, note, check) for job_id, argv, check in cli)
    return jobs
