"""Differential reference: the table operations as they were written over
string-keyed Fraction dicts, before tables became scaled-integer levels.

Each function is the old code, copied with `self` turned into an argument
and the two StrategyTable helpers it used (interior, bets_at) inlined as
functions here; certificate_value is PackingCertificate.value as it was,
and apply_bet is the per-shape bet law that BetProgram.value and the
duels stepped with before programs decoded their bets once. log2_bracket
is the one that normalised by halving a Fraction and built each digit's
bracket as a Fraction, and run_stage_machine the one that read every
joint capital afresh at every stage. enumerate_block and build_parity_test
are the nested test as it read each joint capital as two Fraction-valued
StageApprox.eval calls and their Fraction sum, summing every awake
component again at every activation stage (with the activation stages
read off the components, as StageApprox.activation_stages did). two_round_random (with its sampler
_rand_frac), minimality_grid and floor_parity_grid are the oracle suites
as they ran on Fractions; they call the real floor, validate,
min_block_martingale and verify_block_inequality through their modules,
where a test can plant a fault with monkeypatch. Players, Duel,
diagonalize (with its greedy, settle and block drivers) and trace_lines
are the duels as they stepped every player at every bit, built a
BitRecord and a fresh capital tuple per bit, certified by a search, and
wrote each record through the generic encoder; their settling search
_path_to_betting and the cone probe verify_cone_constancy walk configs,
the graph of (machine state, position parity) configurations that
programs kept before the duels read only the decoded step table, and so
does structural_tags, the tag check as it ran before it walked the
step table's successor columns. min_block_martingale
and unique_first_bit_martingale are the block cores as they were built
from Fraction dicts through the public constructor. table is the public
StrategyTable constructor as it checked and coerced one key at a time,
and read_table the wire reader of a table as it read every rational into
a Fraction (with parse_frac as it was) and then called that constructor.
The other outputs are built by the public StrategyTable constructor, so
they compare with the level-array code by value, by Diagnosis and by wire
bytes. Nothing in src/ imports this module.
"""

from __future__ import annotations

import json
import math
import random
import re
from collections import deque
from fractions import Fraction

from paritybet import bits, blocktest, builder, decompose, serialize, strategy
from paritybet.blocktest import (
    CLOSED,
    WATCHING,
    EnumState,
    LevelReport,
    ParityTestResult,
    TestArray,
    check_block34,
)
from paritybet.builder import (
    HALF,
    BuilderState,
    StageEvent,
    capital_threshold,
    greedy_leftmost_extension,
    stage_parameters,
)
from paritybet.decompose import BlockSpec
from paritybet.diagonal import (
    FROZEN,
    RULE_BLOCK,
    RULE_DEFEAT,
    RULE_DEVIATE,
    RULE_FAVORED,
    RULE_NAVIGATE,
    RULE_PAD,
    RULE_PUMP,
    UNREACHABLE,
    BitRecord,
    Checkpoint,
    ConeCertificate,
    DiagTrace,
    _check_tags,
)
from paritybet.dimension import _power_of_two_log
from paritybet.errors import (
    BettingLabError,
    EngineBankruptError,
    PreconditionError,
    StructuralError,
    UnsupportedError,
)
from paritybet.oracles import OracleReport
from paritybet.serialize import WireError, _encode
from paritybet.programs import FractionBet, IntegerBet, _check_sides, at_stage
from paritybet.strategy import (
    Diagnosis,
    Kind,
    Parity,
    Sided,
    StrategyTable,
    _Values,
    as_capital,
)


def apply_bet(bet, capital, bit: str):
    """The bet law as it was written per bet shape, before programs
    decoded their bets into step tables: the capital after one bit under
    the given bet. Zero capital is absorbing for every bet shape, the
    zero-propagation convention. An integer bet keeps an int capital an
    int."""
    if bet is None:
        return capital
    if isinstance(bet, FractionBet):
        f = bet.stake
        return capital * (1 + f) if bit == "1" else capital * (1 - f)
    if isinstance(bet, IntegerBet):
        w = min(bet.wager, capital)
        return capital + w if bit == str(bet.outcome) else capital - w
    return capital * bet.factor


def interior(table):
    return bits.all_states(table.depth - 1) if table.depth > 0 else iter(())


def bets_at(table, state: str) -> bool:
    v = table.value(state)
    return table.value(state + "0") != v or table.value(state + "1") != v


def validate(table: StrategyTable) -> Diagnosis:
    witness: dict[str, str] = {}

    def note(name: str, state: str):
        if name not in witness or state < witness[name]:
            witness[name] = state

    mart = superm = even = odd = zero_s = one_s = True
    for state in interior(table):
        v = table.value(state)
        c0 = table.value(state + "0")
        c1 = table.value(state + "1")
        twice = c0 + c1
        if twice != 2 * v:
            mart = False
            note("martingale", state)
        if twice > 2 * v:
            superm = False
            note("supermartingale", state)
        changed = c0 != v or c1 != v
        if changed and len(state) % 2 == 1:
            even = False
            note("bets_on_even", state)
        if changed and len(state) % 2 == 0:
            odd = False
            note("bets_on_odd", state)
        if c0 < c1:
            zero_s = False
            note("zero_sided", state)
        if c1 < c0:
            one_s = False
            note("one_sided", state)
    return Diagnosis(mart, superm, even, odd, zero_s, one_s, witness)


def combine(parts) -> StrategyTable:
    items = [(as_capital(w), t) for w, t in parts]
    if not items:
        raise PreconditionError("combine needs at least one table")
    depth = items[0][1].depth
    for _, t in items:
        if t.depth != depth:
            raise PreconditionError(f"depth mismatch: {t.depth} != {depth}")
    vals = {}
    for state in bits.all_states(depth):
        vals[state] = sum((w * t.value(state) for w, t in items), Fraction(0))
    parities = {t.parity for _, t in items}
    sides = {t.sided for _, t in items}
    return StrategyTable(
        depth,
        vals,
        Kind.of_sum(t.kind for _, t in items),
        parities.pop() if len(parities) == 1 else Parity.NONE,
        sides.pop() if len(sides) == 1 else Sided.NONE,
    )


def product(a: StrategyTable, b: StrategyTable) -> StrategyTable:
    if a.depth != b.depth:
        raise PreconditionError(f"depth mismatch: {a.depth} != {b.depth}")
    if {a.parity, b.parity} != {Parity.BETS_ON_EVEN, Parity.BETS_ON_ODD}:
        raise PreconditionError(
            "product needs one BETS_ON_EVEN and one BETS_ON_ODD factor, got "
            f"{a.parity.value} and {b.parity.value}"
        )
    if a.kind is not Kind.MARTINGALE or b.kind is not Kind.MARTINGALE:
        raise PreconditionError("product is defined for martingale factors only")
    for state in interior(a):
        if bets_at(a, state) and bets_at(b, state):
            raise PreconditionError(f"both factors bet at state {state!r}")
    vals = {s: a.value(s) * b.value(s) for s in bits.all_states(a.depth)}
    return StrategyTable(a.depth, vals, Kind.MARTINGALE, Parity.NONE, Sided.NONE)


def parity_factorize(m: StrategyTable) -> tuple[StrategyTable, StrategyTable]:
    diag = validate(m)
    if not diag.martingale:
        raise PreconditionError(
            f"parity_factorize needs a martingale; law fails at "
            f"{diag.witnesses.get('martingale')!r}"
        )
    odd_part: dict[str, Fraction] = {bits.EMPTY: Fraction(1)}
    even_part: dict[str, Fraction] = {bits.EMPTY: Fraction(1)}
    for state in bits.all_states(m.depth):
        if state == bits.EMPTY:
            continue
        parent = state[:-1]
        pv = m.value(parent)
        if pv == 0:
            ratio = Fraction(1)  # inside a dead cone neither factor bets
        else:
            ratio = m.value(state) / pv
        if len(parent) % 2 == 1:
            odd_part[state] = odd_part[parent] * ratio
            even_part[state] = even_part[parent]
        else:
            even_part[state] = even_part[parent] * ratio
            odd_part[state] = odd_part[parent]
    e = StrategyTable(m.depth, odd_part, Kind.MARTINGALE, Parity.BETS_ON_ODD)
    o = StrategyTable(m.depth, even_part, Kind.MARTINGALE, Parity.BETS_ON_EVEN)
    return e, o


def to_table(program, depth: int) -> StrategyTable:
    """BetProgram.to_table."""
    if depth < 0:
        raise PreconditionError("table depth must be nonnegative")
    vals: dict[str, Fraction] = {}

    def walk(state: str, q: int, c: Fraction):
        vals[state] = c
        if len(state) == depth:
            return
        st = program.rule.states[q]
        walk(state + "0", st.on0, apply_bet(st.bet, c, "0"))
        walk(state + "1", st.on1, apply_bet(st.bet, c, "1"))

    walk(bits.EMPTY, program.rule.start, program.initial)
    return StrategyTable(depth, vals, program.kind, program.parity, program.sided)


def stage_table(approx, stage: int, depth: int) -> StrategyTable:
    """StageApprox.table."""
    if depth < 0:
        raise PreconditionError("table depth must be nonnegative")
    active = [(c.weight, to_table(c.program, depth)) for c in approx.components if c.stage <= stage]
    vals = {}
    for state in bits.all_states(depth):
        vals[state] = sum((w * t.value(state) for w, t in active), Fraction(0))
    return StrategyTable(depth, vals, approx.kind, approx.parity, approx.sided)


def floor(m, depth: int, parity: Parity = Parity.NONE, stage=None, prev=None) -> StrategyTable:
    """builder._floor."""
    if depth < 0:
        raise PreconditionError("depth must be nonnegative")
    if isinstance(m, StrategyTable) and depth > m.depth:
        raise PreconditionError(f"floor depth {depth} exceeds table depth {m.depth}")
    ev = at_stage(m, stage).value
    if parity == Parity.NONE:
        if prev is not None:
            raise PreconditionError("chaining applies to parity mode only")
        vals: dict[str, Fraction] = {}
        for state in bits.level(depth):
            vals[state] = Fraction(ev(state))
        for length in range(depth - 1, -1, -1):
            for state in bits.level(length):
                vals[state] = (vals[state + "0"] + vals[state + "1"]) / 2
        return StrategyTable(depth, vals, Kind.MARTINGALE, Parity.NONE, Sided.NONE)
    if depth % 2:
        raise PreconditionError("parity mode needs an even depth")
    if prev is not None and (prev.depth != depth or prev.parity != parity):
        raise PreconditionError("prev floor has a different shape")

    caps: dict[str, Fraction] = {}
    for state in bits.level(depth):
        caps[state] = Fraction(ev(state))
    for length in range(depth - 1, -1, -1):
        betting = parity.bets_at(length)
        for state in bits.level(length):
            c0, c1 = caps[state + "0"], caps[state + "1"]
            own = Fraction(ev(state))
            caps[state] = min(own, (c0 + c1) / 2) if betting else min(own, c0, c1)

    def base(state: str) -> Fraction:
        return prev.value(state) if prev is not None else Fraction(0)

    out: dict[str, Fraction] = {"": caps[""]}
    if out[""] < base(""):
        raise PreconditionError("prev floor is not dominated; stages must grow")
    for length in range(depth):
        betting = parity.bets_at(length)
        for state in bits.level(length):
            x = out[state]
            if not betting:
                out[state + "0"] = x
                out[state + "1"] = x
                continue
            lo = max(base(state + "0"), 2 * x - caps[state + "1"])
            hi = min(caps[state + "0"], 2 * x - base(state + "1"))
            if lo > hi:
                raise PreconditionError(
                    f"no feasible split at {state!r}; prev is not a chained floor"
                )
            left = min(max(x, lo), hi)
            out[state + "0"] = left
            out[state + "1"] = 2 * x - left
    return StrategyTable(depth, out, Kind.MARTINGALE, parity, Sided.NONE)


def certificate_value(cert, state: str) -> Fraction:
    """PackingCertificate.value, with its _on_array helper inlined."""
    sets = cert._sets

    def on_array(state: str) -> bool:
        i, r = divmod(len(state), 2)
        if r != 0:
            raise AssertionError("only even-length states are array members")
        if i >= len(sets):
            return state[: 2 * (len(sets) - 1)] in sets[-1]
        return state in sets[i]

    n = len(state)
    if n % 2 == 0:
        i = n // 2
        if i >= len(sets):
            # beyond the materialized depth the strategy stops betting
            return certificate_value(cert, state[: 2 * (len(sets) - 1)])
        return Fraction(4, 3) ** i if state in sets[i] else Fraction(0)
    parent = state[:-1]
    if not on_array(parent):
        return Fraction(0)
    i = len(parent) // 2
    if i + 1 >= len(sets):
        return certificate_value(cert, parent)
    cnt = sum(1 for b in "01" if state + b in sets[i + 1])
    return cnt * Fraction(4, 3) ** (i + 1) / 2


def _log2_digits(num: int, den: int, m: int, precision: int, guard: int):
    """dimension._log2_digits."""
    scale = 1 << guard
    lo_i = (num << guard) // den
    hi_i = -((-num << guard) // den)
    lo_log, hi_log = Fraction(m), Fraction(m + 1)
    for _ in range(precision):
        lo_i = (lo_i * lo_i) >> guard
        hi_i = (hi_i * hi_i + scale - 1) >> guard
        mid = (lo_log + hi_log) / 2
        if lo_i >= 2 * scale:
            lo_i >>= 1
            hi_i = (hi_i + 1) >> 1
            lo_log = mid
        elif hi_i < 2 * scale:
            hi_log = mid
        else:
            return None
    return lo_log, hi_log


def log2_bracket(v: Fraction, precision: int) -> tuple[Fraction, Fraction]:
    """dimension.log2_bracket."""
    if v <= 0:
        raise PreconditionError("log2 needs a positive value")
    exact = _power_of_two_log(v)
    if exact is not None:
        return Fraction(exact), Fraction(exact)
    m = 0
    while v >= 2:
        v /= 2
        m += 1
    while v < 1:
        v *= 2
        m -= 1
    guard = precision + 16
    while True:
        got = _log2_digits(v.numerator, v.denominator, m, precision, guard)
        if got is not None:
            return got
        guard *= 2


def run_stage_machine(n_approx, t_approx, stages: int, n_max: int):
    """builder.run_stage_machine."""
    _check_sides(n_approx, t_approx)
    if stages < 0 or n_max < 0:
        raise PreconditionError("stages and n_max must be nonnegative")

    par = stage_parameters(n_max)
    state = BuilderState(params=par)
    state.sigmas = [""] + [None] * n_max
    state.change_counts = [0] * (n_max + 1)
    since_parent = [0] * (n_max + 1)
    last_in_interval: list = [None] * (n_max + 1)

    def joint(u: int, st: str) -> Fraction:
        return n_approx.eval(u, st) + t_approx.eval(u, st)

    for u in range(stages + 1):
        state.stage = u
        root = joint(u, "")
        if root >= HALF:
            raise PreconditionError(
                f"joint root capital {root} reached 1/2 at stage {u}; aborting"
            )
        acted_n = None
        action = None
        for n in range(min(u, n_max) + 1):
            sig = state.sigmas[n]
            if sig is None:
                acted_n, action = n, "define"
                break
            if joint(u, sig) > capital_threshold(n):
                acted_n, action = n, "undefine"
                break
        if action == "define":
            n = acted_n
            base = state.sigmas[n - 1]
            bound = joint(u, base)
            tau = greedy_leftmost_extension(
                lambda st: joint(u, st) > bound, base, par[n].s
            )
            prior = last_in_interval[n]
            if prior is not None and tau < prior:
                raise StructuralError(
                    f"prefix at index {n} regressed from {prior!r} to {tau!r} "
                    f"at stage {u} under a stable parent"
                )
            since_parent[n] += 1
            if since_parent[n] > 2 ** par[n].p:
                raise BettingLabError(
                    f"index {n} changed more than 2^{par[n].p} times "
                    "under a stable parent"
                )
            state.sigmas[n] = tau
            state.change_counts[n] += 1
            last_in_interval[n] = tau
            state.events.append(StageEvent(u, "define", n, tau))
        elif action == "undefine":
            n = acted_n
            for i in range(n, n_max + 1):
                if state.sigmas[i] is not None:
                    state.events.append(
                        StageEvent(u, "undefine", i, state.sigmas[i])
                    )
                    state.sigmas[i] = None
        if action is not None:
            for i in range(acted_n + 1, n_max + 1):
                since_parent[i] = 0
                last_in_interval[i] = None
        for k in range(1, n_max + 1):
            sig = state.sigmas[k]
            if sig is None:
                continue
            known = state.ledger.k_v(sig)
            if known is None or known > par[k].described_len:
                state.ledger.add(sig, par[k].described_len)
                state.events.append(StageEvent(u, "describe", k, sig))
                break
    return state, state.deepest_defined(), state.ledger


def enumerate_block(parent: str, c, m, n, budget: int) -> EnumState:
    """blocktest.enumerate_block."""
    if len(parent) % 2 != 0:
        raise PreconditionError("block parent must have even length")
    c = as_capital(c)
    if budget < 0:
        raise PreconditionError("stage budget must be nonnegative")
    p = parent
    leaves = (p + "00", p + "10")
    firsts = (p + "0", p + "1")
    stages = sorted(
        {0} | {c.stage for c in m.components + n.components if c.stage <= budget}
    )
    for s in stages:
        if all(m.eval(s, leaf) + n.eval(s, leaf) > c for leaf in leaves):
            rec = BlockSpec(
                m00=m.eval(s, leaves[0]),
                m10=m.eval(s, leaves[1]),
                n0=n.eval(s, firsts[0]),
                n1=n.eval(s, firsts[1]),
                c=c,
            )
            third = p + ("01" if rec.n0 <= rec.n1 else "11")
            return EnumState(
                parent=p,
                threshold=c,
                enumerated=(leaves[0], leaves[1], third),
                phase=CLOSED,
                last_stage=s,
                recorded=rec,
            )
    return EnumState(
        parent=p,
        threshold=c,
        enumerated=leaves,
        phase=WATCHING,
        last_stage=budget,
    )


def build_parity_test(m, n, depth: int, stages: int) -> ParityTestResult:
    """blocktest.build_parity_test, on enumerate_block above."""
    _check_sides(m, n)
    c = Fraction(1)
    if depth < 0 or stages < 0:
        raise PreconditionError("depth and stage budget must be nonnegative")

    def joint(state: str) -> Fraction:
        return m.eval(stages, state) + n.eval(stages, state)

    joint_root = joint("")
    if joint_root > c:
        raise PreconditionError(
            f"joint root capital {joint_root} exceeds the threshold {c}"
        )

    levels: list[tuple[str, ...]] = [("",)]
    reports: list[LevelReport] = []
    path = ""
    for level in range(1, depth + 1):
        path_state = enumerate_block(path, c, m, n, stages)
        finals = tuple((child, joint(child)) for child in sorted(path_state.enumerated))
        survivors = tuple(child for child, v in finals if v <= c)
        if not survivors:
            raise BettingLabError(
                f"no extension of {path!r} stays under {c} at stage {stages}; "
                f"the block argument rules this out for approximations of the "
                f"declared shape"
            )
        chosen = survivors[0]
        reports.append(
            LevelReport(
                level=level,
                expanded_parent=path,
                phase=path_state.phase,
                trigger_stage=path_state.last_stage if path_state.phase == CLOSED else None,
                children=tuple(sorted(path_state.enumerated)),
                final_values=finals,
                survivors=survivors,
                chosen=chosen,
            )
        )
        levels.append(tuple(sorted(set(path_state.enumerated))))
        path = chosen
    array = TestArray(levels=tuple(levels), flavor="block34")
    check_block34(array)
    return ParityTestResult(
        array=array, path=path, reports=tuple(reports), threshold=c, stages=stages
    )


def _rand_frac(rng: random.Random, lo: Fraction, hi: Fraction, den_max: int = 8):
    """Uniform-ish rational in [lo, hi] with a small random denominator."""
    if hi < lo:
        raise PreconditionError("empty interval")
    den = rng.randint(1, den_max)
    span = hi - lo
    steps = int(span * den)
    return lo + Fraction(rng.randint(0, steps), den) if steps else lo


def _odd_block_table(r, m00, m01, m10, m11) -> StrategyTable:
    vals = {
        "": r, "0": r, "1": r,
        "00": m00, "01": m01, "10": m10, "11": m11,
    }
    return StrategyTable(
        2, vals, Kind.SUPERMARTINGALE, Parity.BETS_ON_ODD, Sided.NONE
    )


def _even_block_table(r, n0, n1) -> StrategyTable:
    vals = {
        "": r, "0": n0, "1": n1,
        "00": n0, "01": n0, "10": n1, "11": n1,
    }
    return StrategyTable(
        2, vals, Kind.SUPERMARTINGALE, Parity.BETS_ON_EVEN, Sided.NONE
    )


def two_round_random(rng: random.Random, count: int = 10000) -> OracleReport:
    """Randomized instances of the two-round block inequality.

    Draws a second-bit supermartingale, a first-bit supermartingale, a
    budget between the joint root value and the cheaper column, and
    targets with slack inside the admissible windows, so all seven
    hypotheses hold by construction; then checks the concluding branch
    via the block checker.
    """
    report = OracleReport("two-round-random")
    while report.total < count:
        r = _rand_frac(rng, Fraction(0), Fraction(2))
        a = _rand_frac(rng, Fraction(0), 2 * r)
        a2 = _rand_frac(rng, Fraction(0), 2 * r - a)
        b = _rand_frac(rng, Fraction(0), 2 * r)
        b2 = _rand_frac(rng, Fraction(0), 2 * r - b)
        rn = _rand_frac(rng, Fraction(0), Fraction(2))
        n0v = _rand_frac(rng, Fraction(0), 2 * rn)
        n1v = _rand_frac(rng, Fraction(0), 2 * rn - n0v)
        lo_c = r + rn
        hi_c = min(a + n0v, b + n1v)
        if hi_c < lo_c:
            continue  # no admissible budget; redraw
        c = _rand_frac(rng, lo_c, hi_c)
        n0 = _rand_frac(rng, max(Fraction(0), c - a), n0v)
        m00 = _rand_frac(rng, max(Fraction(0), c - n0), a)
        n1 = _rand_frac(rng, max(Fraction(0), c - b), n1v)
        m10 = _rand_frac(rng, max(Fraction(0), c - n1), b)
        spec = BlockSpec(m00, m10, n0, n1, c)
        m = _odd_block_table(r, a, a2, b, b2)
        n = _even_block_table(rn, n0v, n1v)
        rep = blocktest.verify_block_inequality(m, n, "", spec)
        report.total += 1
        if not rep.hypotheses_ok:
            report.fail(kind="hypotheses", witness=rep.witness, spec=str(spec))
        elif not rep.conclusion_ok:
            report.fail(
                kind="conclusion",
                branch=rep.branch_state,
                value=str(rep.branch_value),
                budget=str(c),
                instance=[str(v) for v in (r, a, a2, b, b2, rn, n0v, n1v)],
            )
    return report


def minimality_grid(den: int = 4, max_value: int = 4) -> OracleReport:
    """Brute-force minimality of the cheapest second-bit block strategy.

    Over every target pair on the grid: (i) among second-bit-parity
    martingales hitting both leaf targets exactly, the constructed table
    is pointwise minimal on all seven states; (ii) among martingales
    whose leaves only dominate the targets, it is minimal on the root,
    both level-1 states, and the two targeted leaves. Full pointwise
    minimality under dominating leaves is false; the suite counts the
    witnesses (their absence would itself be suspicious) instead of
    asserting it.
    """
    report = OracleReport("minimality-grid")
    top = max_value * den
    dominating_violations = 0
    for i00 in range(top + 1):
        for i10 in range(top + 1):
            m00, m10 = Fraction(i00, den), Fraction(i10, den)
            base = decompose.min_block_martingale(m00, m10)
            root0 = base.value("")
            l01, l11 = base.value("01"), base.value("11")
            # equality class: the root is the single free choice
            r2 = int(root0 * 2 * den)  # root grid in half-units
            for rr in range(r2, 2 * max_value * den + 1):
                r = Fraction(rr, 2 * den)
                if 2 * r - m00 < 0 or 2 * r - m10 < 0:
                    report.fail(kind="grid-bug", at=[i00, i10, rr])
                    continue
                report.total += 1
                ok = (
                    r >= root0
                    and 2 * r - m00 >= l01
                    and 2 * r - m10 >= l11
                )
                if not ok:
                    report.fail(
                        kind="equality-minimality",
                        targets=[str(m00), str(m10)],
                        root=str(r),
                    )
            # dominating class: leaves may exceed the targets
            for rr in range(r2, 2 * max_value * den + 1):
                r = Fraction(rr, 2 * den)
                cap = min(2 * r, Fraction(max_value))
                ai = int((cap - m00) * den)
                bi = int((cap - m10) * den)
                if ai < 0 or bi < 0:
                    continue
                for da in range(ai + 1):
                    va = m00 + Fraction(da, den)
                    for db in range(bi + 1):
                        vb = m10 + Fraction(db, den)
                        report.total += 1
                        if not (
                            r >= root0 and va >= m00 and vb >= m10
                        ):
                            report.fail(
                                kind="sound-subset",
                                targets=[str(m00), str(m10)],
                                table=[str(r), str(va), str(vb)],
                            )
                        if 2 * r - va < l01 or 2 * r - vb < l11:
                            dominating_violations += 1
    report.stats["dominating_pointwise_violations"] = dominating_violations
    if dominating_violations == 0:
        report.fail(
            kind="missing-counterexample",
            note="dominating leaves never dipped below the base table; "
            "the sound-subset restriction would be unnecessary",
        )
    return report


def floor_parity_grid(den: int = 4, max_value: int = 1) -> OracleReport:
    """Exhaustive depth-2 check that the parity floor is a maximal
    second-bit-parity martingale under the input.

    For every grid supermartingale: the floor revalidates with its tags,
    sits under the input, has the largest root any competitor reaches,
    and no competitor strictly dominates it.
    """
    report = OracleReport("floor-parity-grid")
    top = max_value * den
    fr = Fraction
    for ri in range(top + 1):
        r = fr(ri, den)
        for a in range(min(top, 2 * ri) + 1):
            for a2 in range(min(top, 2 * ri - a) + 1):
                for b in range(min(top, 2 * ri) + 1):
                    for b2 in range(min(top, 2 * ri - b) + 1):
                        m = _odd_block_table(
                            r, fr(a, den), fr(a2, den), fr(b, den), fr(b2, den)
                        )
                        x = builder.floor(m, 2, Parity.BETS_ON_ODD)
                        report.total += 1
                        diag = strategy.validate(x)
                        if not diag.holds(
                            Kind.MARTINGALE, Parity.BETS_ON_ODD, Sided.NONE
                        ):
                            report.fail(kind="invalid-floor", m=[ri, a, a2, b, b2])
                            continue
                        if any(
                            x.value(s) > m.value(s) for s in bits.all_states(2)
                        ):
                            report.fail(kind="not-below", m=[ri, a, a2, b, b2])
                            continue
                        xr = x.value("")
                        # competitors: root ry and free leaf picks, all on
                        # the half-step grid the caps arithmetic lives on
                        bad = False
                        for ry2 in range(int(r * 2 * den) + 1):
                            ry = fr(ry2, 2 * den)
                            lo0 = max(fr(0), 2 * ry - fr(a2, den))
                            hi0 = min(fr(a, den), 2 * ry)
                            lo1 = max(fr(0), 2 * ry - fr(b2, den))
                            hi1 = min(fr(b, den), 2 * ry)
                            if lo0 > hi0 or lo1 > hi1:
                                continue
                            if ry > xr:
                                report.fail(
                                    kind="root-not-maximal",
                                    m=[ri, a, a2, b, b2],
                                    competitor_root=str(ry),
                                    floor_root=str(xr),
                                )
                                bad = True
                                break
                            if ry < xr:
                                continue
                            for y0i in range(int(lo0 * 2 * den), int(hi0 * 2 * den) + 1):
                                y0 = fr(y0i, 2 * den)
                                for y1i in range(int(lo1 * 2 * den), int(hi1 * 2 * den) + 1):
                                    y1 = fr(y1i, 2 * den)
                                    above = (
                                        y0 >= x.value("00")
                                        and 2 * ry - y0 >= x.value("01")
                                        and y1 >= x.value("10")
                                        and 2 * ry - y1 >= x.value("11")
                                    )
                                    strict = y0 != x.value("00") or y1 != x.value("10")
                                    if above and strict:
                                        report.fail(
                                            kind="strictly-dominated",
                                            m=[ri, a, a2, b, b2],
                                            competitor=[str(ry), str(y0), str(y1)],
                                        )
                                        bad = True
                                        break
                                if bad:
                                    break
                            if bad:
                                break
    return report


class Players:
    def __init__(self, strategies):
        programs = [s.program for s in strategies]
        self.states = [p.rule.states for p in programs]
        self.steps = [p._steps for p in programs]
        self.q = [p.rule.start for p in programs]
        self.cap = [int(p.initial) for p in programs]

    def step(self, bit: str) -> None:
        b, q, cap = bit == "1", self.q, self.cap
        for i, (laws, succ) in enumerate(self.steps):
            _, lean, w = laws[q[i]][b]
            if lean and cap[i]:
                cap[i] += lean * min(w, cap[i])
            q[i] = succ[b][q[i]]

    def live_bet(self, i: int):
        bet = self.states[i][self.q[i]].bet
        if bet is None or self.cap[i] <= 0 or bet.wager < 1:
            return None
        return bet

    def lean(self, bit: str) -> int:
        b, q, cap, total = bit == "1", self.q, self.cap, 0
        for i in range(1, len(q)):
            _, lean, w = self.steps[i][0][q[i]][b]
            if lean and cap[i]:
                total += lean * min(w, cap[i])
        return total

    def favored(self) -> str:
        bet = self.states[0][self.q[0]].bet
        return "1" if bet is None else str(bet.outcome)


def configs(program) -> dict:
    """The reachable (machine state, position parity) configurations of
    program's machine, each mapped to its successors on 0 and on 1."""
    fsm = program.rule
    graph: dict[tuple[int, int], tuple[tuple[int, int], tuple[int, int]]] = {}
    frontier = [(fsm.start, 0)]
    while frontier:
        cfg = frontier.pop()
        if cfg in graph:
            continue
        st = fsm.states[cfg[0]]
        p = 1 - cfg[1]
        graph[cfg] = ((st.on0, p), (st.on1, p))
        frontier.extend(graph[cfg])
    return graph


def structural_tags(program, parity: Parity, sided: Sided) -> str | None:
    """The tag check of BetProgram as it ran over configs, with each bet's
    lean read off its shape: the message of the first (machine state,
    position parity) pair in the walk that breaks parity or sided, or None
    when the tags hold."""
    for q, p in configs(program):
        bet = program.rule.states[q].bet
        if bet is None:
            continue
        if not parity.bets_at(p):
            return f"declared {parity.value} but machine state {q} bets at position parity {p}"
        if sided is Sided.NONE:
            continue
        if isinstance(bet, FractionBet):
            lean = (bet.stake > 0) - (bet.stake < 0)
        elif isinstance(bet, IntegerBet) and bet.wager:
            lean = 1 if bet.outcome else -1
        else:  # a scale bet, or a wager of 0, leans to neither outcome
            lean = 0
        if lean and (lean > 0) is (sided is Sided.ZERO):
            return f"declared {sided.value} but a bet leans to {int(lean > 0)}"
    return None


def betting(program) -> list[bool]:
    """Per machine state: whether it carries an integer bet of wager at
    least 1."""
    return [isinstance(st.bet, IntegerBet) and st.bet.wager >= 1 for st in program.rule.states]


def _path_to_betting(program, q: int, parity: int, prefer=None):
    """The settling search as it ran over the configuration graph."""
    bets, graph = betting(program), configs(program)
    if bets[q]:
        return []
    start = (q, parity)
    prev: dict[tuple[int, int], tuple[tuple[int, int], str]] = {}
    seen = {start}
    queue = deque([start])
    while queue:
        cfg = queue.popleft()
        on0, on1 = graph[cfg]
        if prefer is not None and prefer(cfg[1]) == "1":
            hops = (("1", on1), ("0", on0))
        else:
            hops = (("0", on0), ("1", on1))
        for bit, nxt in hops:
            if nxt in seen:
                continue
            seen.add(nxt)
            prev[nxt] = (cfg, bit)
            if bets[nxt[0]]:
                path = []
                cur = nxt
                while cur != start:
                    cur, b = prev[cur]
                    path.append(b)
                return path[::-1]
            queue.append(nxt)
    return None


def verify_cone_constancy(strategy, prefix: str, probe_depth: int) -> bool:
    """The cone probe as it collapsed the extensions to configuration sets."""
    bits.check_bits(prefix)
    player = Players([strategy])
    for b in prefix:
        player.step(b)
    if player.cap[0] == 0:
        return True
    bets, graph = betting(strategy.program), configs(strategy.program)
    frontier = {(player.q[0], len(prefix) % 2)}
    for _ in range(probe_depth):
        nxt: set[tuple[int, int]] = set()
        for cfg in frontier:
            if bets[cfg[0]]:
                return False
            nxt.update(graph[cfg])
        frontier = nxt
    return not any(bets[q] for q, _ in frontier)


def _certify(adversary_index, prefix, program, q, cap):
    parity = len(prefix) % 2
    if cap == 0:
        return ConeCertificate(adversary_index, prefix, FROZEN, q, parity, 0)
    if _path_to_betting(program, q, parity) is None:
        return ConeCertificate(adversary_index, prefix, UNREACHABLE, q, parity, cap)
    return None


class Duel:
    def __init__(self, engine, adversaries, mode: str, target: int):
        self.engine_strategy = engine
        self.programs = [a.program for a in adversaries]
        self.players = Players([engine, *adversaries])
        self.mode = mode
        self.target = target
        self.z: list[str] = []
        self.records: list[BitRecord] = []
        self.checkpoints: list[Checkpoint] = []
        self.certificates: list[ConeCertificate] = []
        self.block_bits = 0

    def emit(self, bit: str, rule: str) -> None:
        players = self.players
        players.step(bit)
        self.z.append(bit)
        self.records.append(
            BitRecord(bit, rule, players.cap[0], tuple(players.cap[1:]))
        )
        if players.cap[0] <= 0:
            raise EngineBankruptError(
                f"engine froze at 0 after {len(self.z)} bits; the adversary "
                f"family is too hostile for this engine's starting capital"
            )

    def checkpoint(self) -> None:
        pos = len(self.z)
        self.checkpoints.append(
            Checkpoint(pos, self.block_bits, Fraction(self.block_bits, pos) if pos else Fraction(0))
        )

    def trace(self, reached: bool) -> DiagTrace:
        return DiagTrace(
            engine_name=self.engine_strategy.name or "engine",
            mode=self.mode,
            target=self.target,
            z="".join(self.z),
            records=tuple(self.records),
            checkpoints=tuple(self.checkpoints),
            certificates=tuple(self.certificates),
            reached=reached,
        )


def _greedy(duel: Duel, target: int, max_bits: int) -> None:
    players = duel.players
    while players.cap[0] < target:
        if len(duel.z) >= max_bits:
            raise BettingLabError(
                f"greedy run exceeded {max_bits} bits without reaching {target}"
            )
        favored = players.favored()
        if players.lean(favored) >= 1:
            duel.emit("0" if favored == "1" else "1", RULE_DEVIATE)
        else:
            duel.emit(favored, RULE_FAVORED)


def _settle_one(duel: Duel, index: int, c: int) -> None:
    players = duel.players
    program = duel.programs[index]
    me = index + 1

    def prefer(position_parity: int) -> str:
        if duel.engine_strategy.name == "D":
            return "1" if position_parity else "0"
        return "1"

    buffer_needed = 2 * len(program.rule.states) + 4
    fuel = (players.cap[me] + 2) * (4 * len(program.rule.states) + buffer_needed + 8) + 64
    nav: list[str] = []
    while True:
        if not nav:
            cert = _certify(index, "".join(duel.z), program, players.q[me], players.cap[me])
            if cert is not None:
                duel.certificates.append(cert)
                break
        fuel -= 1
        if fuel < 0:
            raise BettingLabError(
                "settling search ran out of fuel; the adversary defied its "
                "own capital bound, which indicates a malformed program"
            )
        bet = players.live_bet(me)
        if bet is not None:
            nav = []
            duel.emit("0" if bet.outcome == 1 else "1", RULE_DEFEAT)
        elif nav:
            duel.emit(nav.pop(0), RULE_NAVIGATE)
        elif players.cap[0] < buffer_needed:
            duel.emit(players.favored(), RULE_PUMP)
        else:
            nav = _path_to_betting(program, players.q[me], len(duel.z) % 2, prefer)
            duel.emit(nav.pop(0), RULE_NAVIGATE)
    while players.cap[0] <= c:
        duel.emit(players.favored(), RULE_PAD)


def _interpolate_block(duel: Duel, pairs: int) -> None:
    for _ in range(pairs):
        for bit in "01":
            duel.emit(bit, RULE_BLOCK)
            duel.block_bits += 1
    duel.checkpoint()


def diagonalize(adversaries, engine, target: int, mode: str = "greedy",
                dim0_blocks: int | None = None, max_bits: int | None = None) -> DiagTrace:
    if target < 1:
        raise PreconditionError("target must be a positive integer")
    _check_tags(engine, adversaries)
    duel = Duel(engine, adversaries, mode, target)
    if mode == "greedy":
        if dim0_blocks is not None:
            raise PreconditionError("block interpolation belongs to settle mode")
        aggregate = sum(a.initial for a in adversaries)
        bound = max_bits if max_bits is not None else 2 * (target + aggregate) + 64
        _greedy(duel, target, bound)
        return duel.trace(reached=True)
    if mode != "settle":
        raise PreconditionError(f"unknown mode {mode!r}")
    if engine.name not in ("N", "D"):
        raise UnsupportedError("settle mode works with the built-in engines only")
    if dim0_blocks is not None and dim0_blocks < 1:
        raise PreconditionError("block interpolation needs a positive base")
    for i in range(len(adversaries)):
        _settle_one(duel, i, duel.players.cap[0])
        if dim0_blocks is not None:
            _interpolate_block(duel, dim0_blocks * 2**i)
    while duel.players.cap[0] < target:
        duel.emit(duel.players.favored(), RULE_PAD)
    return duel.trace(reached=True)


def trace_lines(trace: DiagTrace):
    yield json.dumps(
        {
            "type": "trace_header",
            "engine": trace.engine_name,
            "mode": trace.mode,
            "target": trace.target,
        },
        sort_keys=True,
    )
    for item in (*trace.records, *trace.checkpoints, *trace.certificates):
        yield json.dumps(_encode(item), sort_keys=True)
    yield json.dumps(
        {"type": "summary", "reached": trace.reached, "z": trace.z},
        sort_keys=True,
    )


def _table_post_init(self):
    if self.depth < 0:
        raise StructuralError("depth must be >= 0")
    vals = {}
    for key, v in self.values.items():
        bits.check_bits(key)
        if len(key) > self.depth:
            raise StructuralError(f"state {key!r} is longer than depth {self.depth}")
        vals[key] = as_capital(v)
    if len(vals) < (2 << self.depth) - 1:
        for state in bits.all_states(self.depth):
            if state not in vals:
                raise StructuralError(f"missing table entry for state {state!r}")
    den = math.lcm(*(f.denominator for f in vals.values()))
    levels = tuple([0] * (1 << n) for n in range(self.depth + 1))
    for key, f in vals.items():
        levels[len(key)][int(key or "0", 2)] = f.numerator * (den // f.denominator)
    object.__setattr__(self, "values", _Values(den, levels, vals))


def table(depth, values, kind=Kind.MARTINGALE, parity=Parity.NONE, sided=Sided.NONE):
    """StrategyTable(depth, values, kind, parity, sided), run through the
    constructor's checks as they were (_table_post_init)."""
    t = object.__new__(StrategyTable)
    t.__dict__.update(depth=depth, values=values, kind=kind, parity=parity, sided=sided)
    _table_post_init(t)
    return t


_RATIONAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def parse_frac(s) -> Fraction:
    if isinstance(s, bool):
        raise WireError(f"expected a rational, got {s!r}")
    if isinstance(s, int):
        return Fraction(s)
    if isinstance(s, str):
        if _RATIONAL.fullmatch(s) is None:
            raise WireError(f"bad rational {s[:40]!r}")
        num, _, den = s.partition("/")
        try:
            return Fraction(int(num), int(den)) if den else Fraction(int(num))
        except (ValueError, ZeroDivisionError) as exc:
            raise WireError(f"bad rational {s[:40]!r}") from exc
    raise WireError(f"expected a rational, got {type(s).__name__}")


def _read_values(v):
    if type(v) is not dict:
        raise WireError(f"expected an object, got {type(v).__name__}")
    return {k: parse_frac(x) for k, x in v.items()}


_TABLE_FIELDS = (
    ("depth", serialize._reader(int)),
    ("values", _read_values),
    ("kind", serialize._reader(Kind)),
    ("parity", serialize._reader(Parity)),
    ("sided", serialize._reader(Sided)),
)


def read_table(d):
    """from_jsonable of a table object as it was: each field read in
    order, the values into a dict of Fractions, then the constructor."""
    if type(d) is not dict:
        raise WireError(f"expected an object, got {type(d).__name__}")
    kwargs = {}
    for name, read_value in _TABLE_FIELDS:
        if name in d:
            try:
                kwargs[name] = read_value(d[name])
            except WireError as exc:
                raise WireError(f"{name}: {exc}") from exc
        else:
            raise WireError(f"missing key {name!r}")
    try:
        return table(**kwargs)
    except StructuralError as exc:
        raise WireError(str(exc)) from exc


def min_block_martingale(m00, m10) -> StrategyTable:
    a = as_capital(m00)
    b = as_capital(m10)
    root = max(a, b) / 2
    vals = {
        "": root,
        "0": root,
        "1": root,
        "00": a,
        "10": b,
        "01": 2 * root - a,
        "11": 2 * root - b,
    }
    return StrategyTable(2, vals, Kind.MARTINGALE, Parity.BETS_ON_ODD)


def unique_first_bit_martingale(n0, n1) -> StrategyTable:
    a = as_capital(n0)
    b = as_capital(n1)
    vals = {
        "": (a + b) / 2,
        "0": a,
        "1": b,
        "00": a,
        "01": a,
        "10": b,
        "11": b,
    }
    return StrategyTable(2, vals, Kind.MARTINGALE, Parity.BETS_ON_EVEN)
