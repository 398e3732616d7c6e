"""Integer-stakes betting duels: one engine strategy against finitely many
integer adversaries.

Two engines are built in, known by their programs: a unit bettor that
always stakes 1 on outcome 1, and an alternating unit bettor that stakes 1
on outcome 0 at even positions and on 1 at odd ones. Wagers clamp to current
capital, so every strategy freezes once it hits 0 and all values stay
nonnegative integers.

Two construction modes build a sequence on which the engine's capital
passes any target. Greedy exploits integrality alone: any positive net
adversary wager on the engine's favored bit is at least 1, so deviating
costs the adversaries at least as much as it costs the engine and the
total number of deviations is bounded by the adversaries' initial capital.
Settle handles finite-state adversaries one at a time: hunt reachable
betting configurations, feed each the losing outcome until the adversary
is broke or no betting configuration is reachable, and certify that the
adversary is literally constant on the whole cone above the prefix built
so far. Settled adversaries stay settled, so optional long alternating
blocks can be interpolated afterwards without disturbing anything: the
block-heavy structure is the low-complexity evidence the caller wants.

Once no adversary can bet, the engine plays alone, over its favored bits
or over a block's, and its finite machine soon walks in a cycle. The lone
engine is stepped one whole cycle at a time, with exact int capitals,
both in the duel and when replay_trace recomputes a trace's tail.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import islice, repeat

from . import bits
from .errors import (
    BettingLabError,
    EngineBankruptError,
    PreconditionError,
    StructuralError,
    UnsupportedError,
)
from .programs import BetProgram, Fsm, FsmState, IntegerBet
from .strategy import Parity, Sided


@dataclass(frozen=True)
class IntStrategy:
    """A betting program promised to stay in nonnegative integers.

    The wrapped program must be in integer form (integer bets, integer
    initial capital); clamping then keeps every reachable value a
    nonnegative integer, which the duel logic relies on: any live bet is
    worth at least 1.
    """

    program: BetProgram
    name: str = ""

    def __post_init__(self):
        if self.program.form != "integer":
            raise StructuralError("integer duels need integer-form programs")

    @property
    def initial(self) -> int:
        return int(self.program.initial)


def unit_bet_on_one() -> IntStrategy:
    """Capital 5; stake 1 on outcome 1, always; frozen at 0."""
    fsm = Fsm((FsmState(IntegerBet(1, 1), 0, 0),))
    prog = BetProgram(Fraction(5), fsm, "integer", Parity.NONE, Sided.ONE)
    return IntStrategy(prog, name="N")


def unit_bet_alternating() -> IntStrategy:
    """Capital 5; stake 1 on outcome 0 at even-length states and on
    outcome 1 at odd-length states; frozen at 0."""
    fsm = Fsm((FsmState(IntegerBet(1, 0), 1, 1), FsmState(IntegerBet(1, 1), 0, 0)))
    prog = BetProgram(Fraction(5), fsm, "integer")
    return IntStrategy(prog, name="D")


def _repeats(src: str, cycle: str, at: int, most: int) -> int:
    """How many times over, at most most, src repeats cycle from position
    at: doubling string compares, then halving ones."""
    k, step, p = 0, 1, len(cycle)
    while step <= most - k and src.startswith(cycle * step, at + k * p):
        k, step = k + step, 2 * step
    while step > 1:
        step //= 2
        if step <= most - k and src.startswith(cycle * step, at + k * p):
            k += step
    return k


class _Players:
    """Cursor over a duel's players, engine first: each player's machine
    state and integer capital, and the duel's record. Capital moves only
    through the program's decoded bet law, whose integer bets keep an int
    capital an int. After each bit, engine gets the engine's capital and
    adversaries the tuple of adversary capitals, now, which is rebuilt
    only when one of them moves, so that consecutive records share it.

    An adversary is dead once its capital is 0 or no betting state is
    reachable from its machine state. Both are absorbing, so a dead
    adversary's capital never moves again: only the engine and the live
    adversaries are stepped, and a dead one's machine state is walked
    over the bits it missed when it is read. Once live is empty it stays
    so, and lone steps the engine by itself, a whole cycle at a time where
    the cycle allows."""

    __slots__ = ("steps", "ahead", "cap", "z", "engine", "adversaries", "now", "live", "favors", "_q", "_since")

    def __init__(self, strategies):
        programs = [s.program for s in strategies]
        self.steps = [p._steps for p in programs]
        self.ahead = [p._bets_ahead for p in programs]
        self._q = [p.rule.start for p in programs]
        self.cap = [int(p.initial) for p in programs]
        self.z: list[str] = []  # every bit stepped
        self.engine: list[int] = []
        self.adversaries: list[tuple[int, ...]] = []
        self._since: dict[int, int] = {}  # dead adversary -> bits its _q has walked
        # (index, bet laws, successor columns, bets ahead) per live adversary
        self.live = [(i, *self.steps[i], self.ahead[i]) for i in range(1, len(programs))]
        self._bury()
        self.now = tuple(self.cap[1:])
        # per engine state, its favored bit: the outcome its law leans to, else 1
        self.favors = ["0" if law[1][1] < 0 else "1" for law in self.steps[0][0]]

    def _bury(self) -> None:
        """Move the adversaries that died at the last bit out of live."""
        cap, q, n = self.cap, self._q, len(self.z)
        for i, _, _, ahead in self.live:
            if not (cap[i] and ahead[q[i]]):
                self._since[i] = n
        self.live = [p for p in self.live if p[0] not in self._since]

    def step(self, bit: str) -> None:
        b, q, cap = bit == "1", self._q, self.cap
        self.z.append(bit)
        # integer-form programs have the multiplier 1 on every edge
        laws, succ = self.steps[0]
        _, lean, w = laws[q[0]][b]
        if lean and cap[0]:
            cap[0] += lean * min(w, cap[0])
        q[0] = succ[b][q[0]]
        moved = died = False
        for i, laws, succ, ahead in self.live:
            qi = q[i]
            _, lean, w = laws[qi][b]
            q[i] = qi = succ[b][qi]
            if lean and cap[i]:
                cap[i] += lean * min(w, cap[i])
                moved = True
                died = died or not cap[i]
            died = died or not ahead[qi]
        if died:
            self._bury()
        if moved:
            self.now = tuple(cap[1:])
        self.engine.append(cap[0])
        self.adversaries.append(self.now)

    def lone(self, src: str | None = None, below: int | None = None, end: int | None = None) -> bool:
        """Step and record the engine as step does once no adversary is
        live: over the bits of src, or, when src is None, over its favored
        bit at each step. Stops after the bit that leaves the capital at 0
        or, when below is given, at below or above; and once src runs out
        or len(z) is end. Returns whether it stopped at end with bits left
        to step.

        Whole cycles are skipped. Walking per bit, the pair (machine state,
        bit played) repeats from step s to step t. Over favored bits the
        walk then repeats from t on; over src it does for as long as src
        repeats src[s:t]. If no stake clamped on the cycle (wager at most
        capital) and the capital did not fall, each later cycle starts no
        poorer, so no stake clamps there either and it adds the same change
        d: the capitals of k more cycles are the cycle's own plus d, 2d, ...
        kd, appended at once for the largest k that stays below `below`,
        within end and within src's repeats. Capitals stay exact ints, and
        no capital in a skipped cycle is 0 or reaches below."""
        (laws, succ), favors, z, caps = self.steps[0], self.favors, self.z, self.engine
        q, c = self._q[0], self.cap[0]
        zb, cb = len(z), len(caps)  # where this run's bits and capitals start
        room = None if end is None else end - zb  # bits this run may step
        if src is not None and (room is None or len(src) <= room):
            room, end = len(src), None  # src runs out no later than end
        seen: dict[int, tuple[int, int]] = {}  # 2 * state + bit -> (step, capital) last met
        clamped, t, cut = -1, 0, False  # last step whose stake clamped; steps taken; end reached
        while room is None or t < room:
            bit = favors[q] if src is None else src[t]
            b = bit == "1"
            key = 2 * q + b
            hit = seen.get(key)
            if hit is not None and clamped < hit[0] and c >= hit[1]:
                s, d = hit[0], c - hit[1]
                p, cycle_caps = t - s, caps[cb + s : cb + t]
                bounds = [] if room is None else [(room - t) // p]
                if below is not None and d:
                    bounds.append((below - 1 - max(cycle_caps)) // d)
                k = min(bounds, default=0)
                if k and src is not None:
                    k = _repeats(src, src[s:t], t, k)
                if k:
                    at = len(caps)
                    caps += cycle_caps * k
                    if d:
                        for i, ci in enumerate(cycle_caps):
                            caps[at + i :: p] = range(ci + d, ci + (k + 1) * d, d)
                    z += "".join(z[zb + s : zb + t]) * k
                    c, t = c + k * d, t + k * p
                    seen.clear()  # every pair met is k cycles back
                    continue
            seen[key] = (t, c)
            _, lean, w = laws[q][b]
            if lean:  # the stake clamps to capital: min(w, c), inline
                if w > c:
                    clamped, w = t, c
                c += lean * w
            q = succ[b][q]
            z.append(bit)
            caps.append(c)
            t += 1
            if c <= 0 or below is not None and c >= below:
                break
        else:
            cut = end is not None
        self._q[0], self.cap[0] = q, c
        self.adversaries += repeat(self.now, t)
        return cut

    def at(self, i: int) -> int:
        """Player i's machine state."""
        walked = self._since.get(i)
        if walked is not None and walked < len(self.z):
            succ, qi = self.steps[i][1], self._q[i]
            for bit in islice(self.z, walked, None):
                qi = succ[bit == "1"][qi]
            self._q[i], self._since[i] = qi, len(self.z)
        return self._q[i]

    def lean(self, bit: str) -> int:
        """What the adversaries' live bets net, together, if bit comes."""
        b, q, cap, total = bit == "1", self._q, self.cap, 0
        for i, laws, _, _ in self.live:
            _, lean, w = laws[q[i]][b]
            if lean and cap[i]:
                total += lean * min(w, cap[i])
        return total

    def favored(self) -> str:
        """The engine's favored bit."""
        return self.favors[self._q[0]]


def _path_to_betting(
    program: BetProgram, q: int, parity: int, prefer=None
) -> list[str] | None:
    """Shortest bit path from machine state q, at position parity, whose
    intermediate states never bet and whose endpoint does; None when no
    betting state is reachable at all. Any reachable betting state has
    such a path: truncate at the first betting state en route. Ties break
    toward prefer(position_parity), so free choices follow the pattern the
    caller's engine likes.

    The search runs over machine states alone, a level at a time: k bits
    on, every state has position parity (parity + k) % 2, so a state met
    again, at either parity, leads nowhere new."""
    betting, (on0, on1) = program._bets, program._steps[1]
    if betting[q]:
        return []
    prev: dict[int, tuple[int, str]] = {}  # state -> (state before, bit)
    seen, level = {q}, [q]
    while level:
        if prefer is not None and prefer(parity) == "1":
            hops = (("1", on1), ("0", on0))
        else:
            hops = (("0", on0), ("1", on1))
        parity, nxt_level = 1 - parity, []
        for cur in level:
            for bit, on in hops:
                nxt = on[cur]
                if nxt in seen:
                    continue
                seen.add(nxt)
                prev[nxt] = (cur, bit)
                if betting[nxt]:
                    path = []
                    while nxt != q:
                        nxt, b = prev[nxt]
                        path.append(b)
                    return path[::-1]
                nxt_level.append(nxt)
        level = nxt_level
    return None


FROZEN = "frozen"
UNREACHABLE = "unreachable"


@dataclass(frozen=True)
class ConeCertificate:
    """Machine-checked witness that one adversary is constant above prefix.

    frozen: the adversary's capital is 0, and 0 is absorbing. unreachable:
    from its configuration at the prefix, no configuration carrying a live
    bet is reachable, so the capital can never change again.
    """

    adversary: int
    prefix: str
    kind: str
    machine_state: int
    position_parity: int
    constant_value: int

    def __post_init__(self):
        if self.kind not in (FROZEN, UNREACHABLE):
            raise StructuralError(f"unknown certificate kind {self.kind!r}")


def _certify(players: _Players, me: int) -> ConeCertificate | None:
    """Player me's certificate at the bits stepped so far, if it is dead."""
    cap, q = players.cap[me], players.at(me)
    if cap == 0:
        kind = FROZEN
    elif not players.ahead[me][q]:
        kind = UNREACHABLE
    else:
        return None
    return ConeCertificate(me - 1, "".join(players.z), kind, q, len(players.z) % 2, cap)


def verify_cone_constancy(strategy: IntStrategy, prefix: str, probe_depth: int) -> bool:
    """Probe that the strategy's value is constant on the cone above
    prefix, out to the given depth.

    The settling search answers it: the shortest path to a betting state
    is as long as the least level of extensions at which some extension
    meets one, so the value stays put out to probe_depth exactly when no
    such path is that short. The probe costs O(machine size) at any depth.
    """
    bits.check_bits(prefix)
    player = _Players([strategy])
    for b in prefix:
        player.step(b)
    if player.cap[0] == 0:
        return True
    path = _path_to_betting(strategy.program, player.at(0), len(prefix) % 2)
    return path is None or len(path) > probe_depth


RULE_FAVORED = "favored"
RULE_DEVIATE = "deviate"
RULE_DEFEAT = "defeat"
RULE_NAVIGATE = "navigate"
RULE_PUMP = "pump"
RULE_PAD = "pad"
RULE_BLOCK = "block"


@dataclass(frozen=True)
class BitRecord:
    bit: str
    rule: str
    engine: int
    adversaries: tuple[int, ...]


@dataclass(frozen=True)
class Checkpoint:
    position: int
    block_bits: int
    fraction: Fraction


def _record(bit: str, rule: str, engine: int, adversaries: tuple[int, ...]) -> BitRecord:
    """BitRecord(bit, rule, engine, adversaries), which checks nothing,
    built without the four object.__setattr__ calls of its frozen init."""
    rec = object.__new__(BitRecord)
    rec.__dict__.update(bit=bit, rule=rule, engine=engine, adversaries=adversaries)
    return rec


class _Records(Sequence):
    """A trace's bit records, kept as four columns: the bits, their rules,
    the engine's capitals and the adversaries' capital tuples, which
    consecutive records share while no adversary capital moves. Reading a
    record builds its BitRecord; a slice is a tuple of them."""

    __slots__ = ("bits", "rules", "engine", "adversaries")

    def __init__(self, bits: list, rules: list, engine: list, adversaries: list):
        self.bits, self.rules, self.engine, self.adversaries = bits, rules, engine, adversaries

    @classmethod
    def of(cls, records) -> _Records:
        records = tuple(records)
        return cls(*([getattr(r, f.name) for r in records] for f in fields(BitRecord)))

    def __len__(self) -> int:
        return len(self.rules)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[k] for k in range(*i.indices(len(self))))
        return _record(self.bits[i], self.rules[i], self.engine[i], self.adversaries[i])

    def __iter__(self):
        return map(_record, self.bits, self.rules, self.engine, self.adversaries)

    def __eq__(self, other):
        if isinstance(other, _Records):
            return all(getattr(self, c) == getattr(other, c) for c in self.__slots__)
        return tuple(self) == other if isinstance(other, tuple) else NotImplemented

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True)
class DiagTrace:
    """A duel's outcome. records holds one BitRecord per emitted bit; any
    sequence of them may be passed in, and it is kept as columns."""

    engine_name: str
    mode: str
    target: int
    z: str
    records: Sequence[BitRecord]
    checkpoints: tuple[Checkpoint, ...]
    certificates: tuple[ConeCertificate, ...]
    reached: bool

    def __post_init__(self):
        if not isinstance(self.records, _Records):
            object.__setattr__(self, "records", _Records.of(self.records))


# replay_trace recomputes a trace this many bits at a time, so that the
# columns it recomputes and compares stay small beside the trace's own
_REPLAY_CHUNK = 1 << 16


def replay_trace(trace: DiagTrace, engine: IntStrategy, adversaries: list[IntStrategy] | tuple[IntStrategy, ...]) -> None:
    """Recompute every capital in the trace from scratch; raise on any
    mismatch. Passing the same programs that produced the trace must
    succeed; anything else failing is the point."""
    players = _Players([engine, *adversaries])
    z, recs = bits.check_bits(trace.z), trace.records
    if len(z) != len(recs):
        raise StructuralError("record count differs from emitted bits")
    for start in range(0, len(z), _REPLAY_CHUNK):
        chunk = z[start : start + _REPLAY_CHUNK]
        players.engine, players.adversaries = [], []  # this chunk's record only
        for bit in chunk:  # every live player steps until none is left
            if not players.live:
                break
            players.step(bit)
        # then the engine alone, which stops where it froze at 0 and stays there
        players.lone(chunk[len(players.engine) :])
        left = len(chunk) - len(players.engine)
        players.engine += repeat(0, left)
        players.adversaries += repeat(players.now, left)
        _compare(recs, start, chunk, players.engine, players.adversaries)


def _compare(recs: _Records, start: int, bits: str, engine_caps: list, adversary_caps: list) -> None:
    """Raise at the first of bits, which start at position start, where the
    records disagree with the trace string or with the recomputed capitals."""
    stop = start + len(bits)
    recorded = (recs.bits[start:stop], recs.engine[start:stop], recs.adversaries[start:stop])
    if recorded == (list(bits), engine_caps, adversary_caps):
        return
    rows = zip(bits, engine_caps, adversary_caps, *recorded)
    for i, (bit, cap, caps, rec_bit, rec_cap, rec_caps) in enumerate(rows, start):
        if bit != rec_bit:
            raise StructuralError(f"bit {i}: trace string and record disagree")
        if cap != rec_cap or caps != rec_caps:
            got = (cap, caps)
            want = (rec_cap, rec_caps)
            raise StructuralError(
                f"bit {i}: replay computed {got}, trace recorded {want}"
            )


# The built-in engines, known by their programs, each with what its
# argument needs: the tag every opponent must carry (the unit engine's
# single parity, the alternating engine's single side) and the bit the
# engine likes at even and at odd positions. An engine whose program is
# one of these is that built-in, whatever its name.
_BUILT_INS = {
    unit_bet_on_one().program: ("parity", Parity.NONE, "unit", "11"),
    unit_bet_alternating().program: ("sided", Sided.NONE, "alternating", "01"),
}


def _check_tags(engine: IntStrategy, adversaries) -> None:
    """A built-in engine's argument needs opponents with its tag."""
    built_in = _BUILT_INS.get(engine.program)
    if built_in is None:
        return
    tag, none, who, _ = built_in
    for i, a in enumerate(adversaries):
        if getattr(a.program, tag) is none:
            raise PreconditionError(
                f"adversary {i} lacks a {tag} tag; the {who} engine's "
                f"argument needs single-{tag} opponents"
            )


class _Duel:
    """Shared mutable state for one construction run. Player 0 is the
    engine, player i + 1 adversary i. The records are kept as columns
    beside the players' own list of bits."""

    def __init__(self, engine: IntStrategy, adversaries, mode: str, target: int, max_bits: int | None = None):
        self.engine_strategy = engine
        self.programs = [a.program for a in adversaries]
        self.players = _Players([engine, *adversaries])
        self.mode = mode
        self.target = target
        self.max_bits = max_bits
        self.z = self.players.z
        self.rules: list[str] = []
        self.checkpoints: list[Checkpoint] = []
        self.certificates: list[ConeCertificate] = []
        self.block_bits = 0

    def emit(self, bit: str, rule: str) -> None:
        players = self.players
        if self.max_bits is not None and len(self.z) >= self.max_bits:
            self._overrun()
        players.step(bit)
        self.rules.append(rule)
        if players.cap[0] <= 0:
            self._bankrupt()

    def alone(self, rule: str, below: int | None = None, src: str | None = None) -> None:
        """emit for each bit once no adversary is live: for the bits of src,
        or for the engine's favored bit until its capital reaches below."""
        players, start = self.players, len(self.z)
        cut = players.lone(src, below, self.max_bits)
        self.rules.extend(repeat(rule, len(self.z) - start))
        if players.cap[0] <= 0:
            self._bankrupt()
        if cut:
            self._overrun()

    def pad(self, below: int) -> None:
        """Emit the engine's favored bit until its capital reaches below."""
        players = self.players
        while players.cap[0] < below:
            if not players.live:
                return self.alone(RULE_PAD, below)
            self.emit(players.favored(), RULE_PAD)

    def _overrun(self) -> None:
        raise BettingLabError(
            f"{self.mode} run exceeded {self.max_bits} bits without reaching {self.target}"
        )

    def _bankrupt(self) -> None:
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
            records=_Records(self.z, self.rules, self.players.engine, self.players.adversaries),
            checkpoints=tuple(self.checkpoints),
            certificates=tuple(self.certificates),
            reached=reached,
        )


def _greedy(duel: _Duel, target: int) -> None:
    players = duel.players
    while players.cap[0] < target:
        if not players.live:
            return duel.alone(RULE_FAVORED, target)
        favored = players.favored()
        if players.lean(favored) >= 1:
            duel.emit("0" if favored == "1" else "1", RULE_DEVIATE)
        else:
            duel.emit(favored, RULE_FAVORED)


def _losing_bit(program: BetProgram, q: int) -> str | None:
    """The bit on which machine state q's bet loses, if q is a betting
    state: the one whose edge of the decoded law leans down."""
    if not program._bets[q]:
        return None
    return "0" if program._steps[0][q][0][1] < 0 else "1"


def _settle_one(duel: _Duel, index: int, c: int) -> None:
    """Drive adversary `index` to a certified-constant cone, then pad with
    engine-favored bits until the engine's capital exceeds c.

    Loop order matters. A live bet at the current configuration is always
    fed its losing outcome first, so the adversary's capital never grows
    and strictly drops at each such step: at most its current capital many
    defeats happen. Otherwise, with the engine's buffer low, favored bits
    are pumped while the adversary cannot bet; with the buffer healthy,
    the shortest non-betting path to the next betting configuration is
    walked. Single-parity adversaries cannot bet twice in a row and the
    alternating engine loses at most 1 net over any losing-outcome run, so
    the buffer keeps the engine strictly positive throughout.
    """
    players = duel.players
    program = duel.programs[index]
    me = index + 1
    prefer = _BUILT_INS[duel.engine_strategy.program][3].__getitem__
    buffer_needed = 2 * len(program.rule.states) + 4
    fuel = (players.cap[me] + 2) * (4 * len(program.rule.states) + buffer_needed + 8) + 64
    nav: list[str] = []
    while True:
        if not nav:
            cert = _certify(players, me)
            if cert is not None:
                duel.certificates.append(cert)
                break
        fuel -= 1
        if fuel < 0:
            raise BettingLabError(
                "settling search ran out of fuel; the adversary defied its "
                "own capital bound, which indicates a malformed program"
            )
        lost = _losing_bit(program, players.at(me)) if players.cap[me] else None
        if lost is not None:
            nav = []
            duel.emit(lost, RULE_DEFEAT)
        elif nav:
            # committed legs run to the end: they are short enough for the
            # buffer checked at planning time, and abandoning them midway
            # could pump and replan forever without progress
            duel.emit(nav.pop(0), RULE_NAVIGATE)
        elif players.cap[0] < buffer_needed:
            duel.emit(players.favored(), RULE_PUMP)
        else:
            # a nonempty path: the certificate check above found a betting
            # configuration reachable, and the current one is not live
            nav = _path_to_betting(program, players.at(me), len(duel.z) % 2, prefer)
            duel.emit(nav.pop(0), RULE_NAVIGATE)
    duel.pad(c + 1)


def _interpolate_block(duel: _Duel, pairs: int) -> None:
    block = "01" * pairs
    for i, bit in enumerate(block):
        if not duel.players.live:
            duel.alone(RULE_BLOCK, src=block[i:])
            break
        duel.emit(bit, RULE_BLOCK)
    duel.block_bits += 2 * pairs
    duel.checkpoint()


def find_settling_extension(
    adversary: IntStrategy, rho: str, c: int, mode: str
) -> tuple[str, ConeCertificate]:
    """Extend rho to tau with the built-in engine's capital above c and the
    adversary certified constant on the whole cone above tau.

    mode "parity" runs the always-on-1 engine and requires a single-parity
    adversary; mode "sided" runs the alternating engine and requires a
    single-sided one. The engine's capital at rho must exceed 2, leaving a
    buffer for the search's unfavorable stretches.
    """
    bits.check_bits(rho)
    if mode == "parity":
        engine = unit_bet_on_one()
    elif mode == "sided":
        engine = unit_bet_alternating()
    else:
        raise PreconditionError(f"unknown mode {mode!r}")
    _check_tags(engine, [adversary])
    duel = _Duel(engine, [adversary], mode, c)
    for b in rho:
        duel.players.step(b)
    if duel.players.cap[0] <= 2:
        raise PreconditionError(
            f"engine capital at the starting segment is {duel.players.cap[0]}; "
            f"the search needs more than 2"
        )
    _settle_one(duel, 0, c)
    tau = "".join(duel.z)
    return tau, duel.certificates[0]


def diagonalize(
    adversaries: list[IntStrategy] | tuple[IntStrategy, ...],
    engine: IntStrategy,
    target: int,
    mode: str = "greedy",
    dim0_blocks: int | None = None,
    max_bits: int | None = None,
) -> DiagTrace:
    """Emit a bit sequence on which the engine's capital reaches target.

    greedy plays the engine's favored bit except when the adversaries'
    aggregate live wager leans toward that bit by at least 1, in which case
    it plays the opposite: the aggregate adversary capital never increases,
    drops by at least 1 at every such deviation, and the engine gains on
    every other bit, so any target is reached against any integer-form
    adversaries (the engine can still go bankrupt first against
    sufficiently hostile families; that aborts loudly).

    settle processes finite-state adversaries in order, certifying each
    constant-on-a-cone before moving on; dim0_blocks=b then interpolates
    alternating blocks of b * 2^i "01" pairs after settling adversary i,
    with a checkpoint recording the cumulative block fraction. Settled
    adversaries are constant, so blocks are safe; the unit engine nets
    exactly 0 over each block.

    max_bits caps the bits emitted in either mode: a run that needs more
    raises BettingLabError. Greedy's default cap, 2 * (target + aggregate
    adversary capital) + 64, is above what the built-in engines need;
    settle has none by default.
    """
    if target < 1:
        raise PreconditionError("target must be a positive integer")
    if max_bits is not None and max_bits < 0:
        raise PreconditionError(f"max_bits must be nonnegative, got {max_bits}")
    _check_tags(engine, adversaries)
    if mode == "greedy":
        if dim0_blocks is not None:
            raise PreconditionError("block interpolation belongs to settle mode")
        if max_bits is None:
            max_bits = 2 * (target + sum(a.initial for a in adversaries)) + 64
        duel = _Duel(engine, adversaries, mode, target, max_bits)
        _greedy(duel, target)
        return duel.trace(reached=True)
    if mode != "settle":
        raise PreconditionError(f"unknown mode {mode!r}")
    if engine.program not in _BUILT_INS:
        raise UnsupportedError("settle mode works with the built-in engines only")
    if dim0_blocks is not None and dim0_blocks < 1:
        raise PreconditionError("block interpolation needs a positive base")
    duel = _Duel(engine, adversaries, mode, target, max_bits)
    for i in range(len(adversaries)):
        _settle_one(duel, i, duel.players.cap[0])
        if dim0_blocks is not None:
            _interpolate_block(duel, dim0_blocks * 2**i)
    duel.pad(target)
    return duel.trace(reached=True)
