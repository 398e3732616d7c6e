"""Integer-stakes betting duels: one engine strategy against finitely many
integer adversaries.

The engine is one of two built-ins: a unit bettor that always stakes 1 on
outcome 1, and an alternating unit bettor that stakes 1 on outcome 0 at
even positions and on outcome 1 at odd positions. Wagers clamp to current
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
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from . import bits
from .errors import (
    BettingLabError,
    EngineBankruptError,
    PreconditionError,
    StructuralError,
    UnsupportedError,
)
from .programs import BetProgram, Fsm, FsmState, IntegerBet, apply_bet
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

    @property
    def parity(self) -> Parity:
        return self.program.parity

    @property
    def sided(self) -> Sided:
        return self.program.sided


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


class _Players:
    """Cursor over a duel's players, engine first: each player's machine
    state and integer capital. Capital moves only through apply_bet, and
    only for a player that has a bet and nonzero capital."""

    __slots__ = ("states", "q", "cap")

    def __init__(self, strategies):
        programs = [s.program for s in strategies]
        self.states = [p.rule.states for p in programs]
        self.q = [p.rule.start for p in programs]
        self.cap = [int(p.initial) for p in programs]

    def step(self, bit: str) -> None:
        q, cap = self.q, self.cap
        for i, states in enumerate(self.states):
            st = states[q[i]]
            if st.bet is not None and cap[i]:
                cap[i] = apply_bet(st.bet, cap[i], bit)
            q[i] = st.on1 if bit == "1" else st.on0

    def live_bet(self, i: int) -> IntegerBet | None:
        """Player i's current bet when its effective stake is at least 1."""
        bet = self.states[i][self.q[i]].bet
        if bet is None or self.cap[i] <= 0 or bet.wager < 1:
            return None
        return bet

    def lean(self, bit: str) -> int:
        """What the adversaries' live bets net, together, if bit comes."""
        q, cap = self.q, self.cap
        total = 0
        for i in range(1, len(q)):
            bet = self.states[i][q[i]].bet
            if bet is not None and cap[i]:
                total += apply_bet(bet, cap[i], bit) - cap[i]
        return total

    def favored(self) -> str:
        """The engine's favored bit: the outcome it bets on, else 1."""
        bet = self.states[0][self.q[0]].bet
        return "1" if bet is None else str(bet.outcome)


def _is_betting_config(program: BetProgram, q: int) -> bool:
    bet = program.rule.states[q].bet
    return isinstance(bet, IntegerBet) and bet.wager >= 1


def _path_to_betting(
    program: BetProgram, q: int, parity: int, prefer=None
) -> list[str] | None:
    """Shortest bit path from (q, parity) whose intermediate configurations
    never bet and whose endpoint does; None when no betting configuration
    is reachable at all. Any reachable betting configuration has such a
    path: truncate at the first betting configuration en route. Ties break
    toward prefer(position_parity), so free choices follow the pattern the
    caller's engine likes."""
    if _is_betting_config(program, q):
        return []
    start = (q, parity)
    prev: dict[tuple[int, int], tuple[tuple[int, int], str]] = {}
    seen = {start}
    queue = deque([start])
    while queue:
        cfg = queue.popleft()
        on0, on1 = program.configs[cfg]
        if prefer is not None and prefer(cfg[1]) == "1":
            hops = (("1", on1), ("0", on0))
        else:
            hops = (("0", on0), ("1", on1))
        for bit, nxt in hops:
            if nxt in seen:
                continue
            seen.add(nxt)
            prev[nxt] = (cfg, bit)
            if _is_betting_config(program, nxt[0]):
                path = []
                cur = nxt
                while cur != start:
                    cur, b = prev[cur]
                    path.append(b)
                return path[::-1]
            queue.append(nxt)
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


def _certify(
    adversary_index: int, prefix: str, program: BetProgram, q: int, cap: int
) -> ConeCertificate | None:
    parity = len(prefix) % 2
    if cap == 0:
        return ConeCertificate(adversary_index, prefix, FROZEN, q, parity, 0)
    if _path_to_betting(program, q, parity) is None:
        return ConeCertificate(adversary_index, prefix, UNREACHABLE, q, parity, cap)
    return None


def verify_cone_constancy(strategy: IntStrategy, prefix: str, probe_depth: int) -> bool:
    """Probe that the strategy's value is constant on the cone above
    prefix, out to the given depth.

    The full binary tree of extensions collapses to configuration sets
    level by level, so the probe costs O(depth * machine size) while still
    inspecting every extension: if some configuration at some level bets
    with live capital, a concrete extension witnesses a value change.
    """
    bits.check_bits(prefix)
    player = _Players([strategy])
    for b in prefix:
        player.step(b)
    if player.cap[0] == 0:
        return True
    program = strategy.program
    frontier = {(player.q[0], len(prefix) % 2)}
    for _ in range(probe_depth):
        nxt: set[tuple[int, int]] = set()
        for cfg in frontier:
            if _is_betting_config(program, cfg[0]):
                return False
            nxt.update(program.configs[cfg])
        frontier = nxt
    return not any(_is_betting_config(program, q) for q, _ in frontier)


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


@dataclass(frozen=True)
class DiagTrace:
    engine_name: str
    mode: str
    target: int
    z: str
    records: tuple[BitRecord, ...]
    checkpoints: tuple[Checkpoint, ...]
    certificates: tuple[ConeCertificate, ...]
    reached: bool


def replay_trace(trace: DiagTrace, engine: IntStrategy, adversaries: list[IntStrategy] | tuple[IntStrategy, ...]) -> None:
    """Recompute every capital in the trace from scratch; raise on any
    mismatch. Passing the same programs that produced the trace must
    succeed; anything else failing is the point."""
    players = _Players([engine, *adversaries])
    if len(trace.z) != len(trace.records):
        raise StructuralError("record count differs from emitted bits")
    for i, (bit, rec) in enumerate(zip(trace.z, trace.records)):
        if bit != rec.bit:
            raise StructuralError(f"bit {i}: trace string and record disagree")
        players.step(bit)
        got = (players.cap[0], tuple(players.cap[1:]))
        want = (rec.engine, rec.adversaries)
        if got != want:
            raise StructuralError(
                f"bit {i}: replay computed {got}, trace recorded {want}"
            )


def _check_tags(engine: IntStrategy, adversaries) -> None:
    """The built-in engines' arguments need tagged opponents: the unit
    engine single-parity ones, the alternating engine single-sided ones."""
    for i, a in enumerate(adversaries):
        if engine.name == "N" and a.parity is Parity.NONE:
            raise PreconditionError(
                f"adversary {i} lacks a parity tag; the unit engine's "
                f"argument needs single-parity opponents"
            )
        if engine.name == "D" and a.sided is Sided.NONE:
            raise PreconditionError(
                f"adversary {i} lacks a sided tag; the alternating engine's "
                f"argument needs single-sided opponents"
            )


class _Duel:
    """Shared mutable state for one construction run. Player 0 is the
    engine, player i + 1 adversary i."""

    def __init__(self, engine: IntStrategy, adversaries, mode: str, target: int):
        self.engine_strategy = engine
        self.programs = [a.program for a in adversaries]
        self.players = _Players([engine, *adversaries])
        self.mode = mode
        self.target = target
        self.z: list[str] = []
        self.records: list[BitRecord] = []
        self.checkpoints: list[Checkpoint] = []
        self.certificates: list[ConeCertificate] = []
        self.block_bits = 0

    def parity(self) -> int:
        return len(self.z) % 2

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


def _greedy(duel: _Duel, target: int, max_bits: int) -> None:
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

    def prefer(position_parity: int) -> str:
        # the alternating engine likes 0 at even positions, 1 at odd;
        # the unit engine likes 1 everywhere
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
            # committed legs run to the end: they are short enough for the
            # buffer checked at planning time, and abandoning them midway
            # could pump and replan forever without progress
            duel.emit(nav.pop(0), RULE_NAVIGATE)
        elif players.cap[0] < buffer_needed:
            duel.emit(players.favored(), RULE_PUMP)
        else:
            plan = _path_to_betting(program, players.q[me], duel.parity(), prefer)
            if plan is None:
                continue  # settled; certified at the top of the next pass
            nav = plan
            duel.emit(nav.pop(0), RULE_NAVIGATE)
    while players.cap[0] <= c:
        duel.emit(players.favored(), RULE_PAD)


def _interpolate_block(duel: _Duel, pairs: int) -> None:
    for _ in range(pairs):
        for bit in "01":
            duel.emit(bit, RULE_BLOCK)
            duel.block_bits += 1
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
    duel.z = list(rho)
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
    """
    if target < 1:
        raise PreconditionError("target must be a positive integer")
    _check_tags(engine, adversaries)
    duel = _Duel(engine, adversaries, mode, target)
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
