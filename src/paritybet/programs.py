"""Finitely-described betting programs and staged mixtures.

Every program is a Mealy machine: each automaton state optionally carries a
bet, and reading a bit moves to the next automaton state. Evaluating a
program at a string walks the machine once, so the cost is linear in the
string length times the description size. A program keeps the (machine
state, capital) pair of every string it has read, and a later read
resumes from the pair stored for the string one or two bits shorter and
checks only the bits past it, so a growing path of length L costs O(L) in
all, not O(L^2). The convenience constructors (constant, by-parity,
all-in follow) compile to machines, which keeps a single evaluator for
everything.

Bets come in three shapes. A fraction bet stakes a signed fraction of
current capital toward outcome 1 (negative means toward 0), so the two
child values average back to the parent: a martingale step. An integer bet
stakes a whole-number wager on a named outcome, clamped to current capital
so values stay nonnegative integers. A scale bet multiplies capital by a
factor <= 1 on both children, the one deliberately leaky (supermartingale)
step we support.

One bet law serves all three: a program decodes its bets once into a step
table that value, to_table, the tag checks and the integer duels read.

Every strategy answers value(state) and to_table(depth); a mixture reads
both with every component awake, and at_stage applies a stage to it by
keeping the components awake by then. A staged mixture has one reader:
StageApprox._read sums the awake components' values as integers over one
running denominator, and eval is that read as one Fraction at a stage.
The parity pair's joint capital m(x) + n(x),
which the nested test and the stage machine compare with a fixed bound at
every step, is itself such a mixture (_joint), compared with the bound by
cross-multiplying (_exceeds), so no Fraction is built until a value is
reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import bits
from .errors import PreconditionError, StructuralError
from .strategy import Kind, Parity, Sided, StrategyTable, _rational, _weighted, as_capital


@dataclass(frozen=True)
class FractionBet:
    stake: Fraction  # signed fraction of capital toward outcome 1, in [-1, 1]

    def __post_init__(self):
        f = _rational(self.stake)
        if not -1 <= f <= 1:
            raise StructuralError(f"bet stake must lie in [-1, 1], got {f}")
        object.__setattr__(self, "stake", f)


@dataclass(frozen=True)
class IntegerBet:
    wager: int
    outcome: int

    def __post_init__(self):
        if type(self.wager) is not int:
            raise StructuralError(f"integer wager must be an int, got {self.wager!r}")
        if self.wager < 0:
            raise StructuralError("integer wager must be >= 0")
        if self.outcome not in (0, 1):
            raise StructuralError("outcome must be 0 or 1")


@dataclass(frozen=True)
class ScaleBet:
    factor: Fraction  # applied to both children; <= 1 keeps the supermartingale law

    def __post_init__(self):
        f = _rational(self.factor)
        if not 0 <= f <= 1:
            raise StructuralError(f"scale factor must lie in [0, 1], got {f}")
        object.__setattr__(self, "factor", f)


Bet = FractionBet | IntegerBet | ScaleBet


@dataclass(frozen=True)
class FsmState:
    bet: Bet | None
    on0: int
    on1: int


@dataclass(frozen=True)
class Fsm:
    states: tuple[FsmState, ...]
    start: int = 0

    def __post_init__(self):
        n = len(self.states)
        if n == 0:
            raise StructuralError("machine needs at least one state")
        if not 0 <= self.start < n:
            raise StructuralError("start state out of range")
        for st in self.states:
            if not (0 <= st.on0 < n and 0 <= st.on1 < n):
                raise StructuralError("transition target out of range")


def _law(bet: Bet | None) -> tuple:
    """A bet's edges on bit 0 and on bit 1, each (m, lean, wager): capital c
    moves to c * m + lean * min(wager, c), so 0 is absorbing. A fraction
    bet f has m = 1 - f and 1 + f, a scale bet its factor twice, and an
    integer bet m = 1 with its lean +1 on its outcome, which keeps an int
    capital an int. Whole multipliers are ints: they multiply faster."""
    if isinstance(bet, IntegerBet):
        lean = 1 if bet.outcome else -1
        return (1, -lean, bet.wager), (1, lean, bet.wager)
    if bet is None:
        return (1, 0, 0), (1, 0, 0)
    m0, m1 = (1 - bet.stake, 1 + bet.stake) if isinstance(bet, FractionBet) else (bet.factor,) * 2
    return tuple((m.numerator if m.denominator == 1 else m, 0, 0) for m in (m0, m1))


@dataclass(frozen=True)
class BetProgram:
    """A betting strategy given by initial capital plus a machine.

    form is a wire-format label: "fractional" and "integer" promise that
    every reachable bet has that shape (integer form also promises integer
    initial capital); "fsm" promises nothing. The parity and sided tags
    are structural claims checked at construction over every machine
    configuration reachable at the relevant position parity.
    """

    initial: Fraction
    rule: Fsm
    form: str = "fsm"
    parity: Parity = Parity.NONE
    sided: Sided = Sided.NONE

    def __post_init__(self):
        object.__setattr__(self, "initial", as_capital(self.initial))
        if self.form not in ("fractional", "integer", "fsm"):
            raise StructuralError(f"unknown program form {self.form!r}")
        bets = [st.bet for st in self.rule.states if st.bet is not None]
        if self.form == "fractional" and any(isinstance(b, IntegerBet) for b in bets):
            raise StructuralError("fractional form cannot carry integer bets")
        if self.form == "integer":
            if any(not isinstance(b, IntegerBet) for b in bets):
                raise StructuralError("integer form allows integer bets only")
            if self.initial.denominator != 1:
                raise StructuralError("integer form needs integer initial capital")
        self._check_structural_tags()

    @cached_property
    def _bets(self) -> list[bool]:
        """Per machine state: whether its decoded edge leans with a wager
        of at least 1, as only an integer bet's does: the states the duels
        call betting."""
        return [lean != 0 and w >= 1 for _, (_, lean, w) in self._steps[0]]

    @cached_property
    def _bets_ahead(self) -> list[bool]:
        """Per machine state: whether a betting state (see _bets) is
        reachable from it, itself included, found backwards from those
        states over the successor columns. Kept, since every duel player
        reads it."""
        on0, on1 = self._steps[1]
        into: list[list[int]] = [[] for _ in on0]
        for q, (a, b) in enumerate(zip(on0, on1)):
            into[a].append(q)
            into[b].append(q)
        ahead = list(self._bets)
        todo = [q for q, bets in enumerate(ahead) if bets]
        while todo:
            for q in into[todo.pop()]:
                if not ahead[q]:
                    ahead[q] = True
                    todo.append(q)
        return ahead

    @cached_property
    def _steps(self) -> tuple[list, tuple[list, list]]:
        """The machine with its bets decoded once: each state's _law (equal
        bets share one), and the successor columns on 0 and on 1."""
        states, decoded = self.rule.states, {}
        laws = [decoded.get(st.bet) or decoded.setdefault(st.bet, _law(st.bet)) for st in states]
        return laws, ([st.on0 for st in states], [st.on1 for st in states])

    def _check_structural_tags(self):
        """Check the tags at each (machine state, position parity) pair reachable from the start."""
        on0, on1 = self._steps[1]
        seen, todo = set(), [(self.rule.start, 0)]
        while todo:
            q, p = cfg = todo.pop()
            if cfg in seen:
                continue
            seen.add(cfg)
            todo += ((on0[q], 1 - p), (on1[q], 1 - p))
            if self.rule.states[q].bet is None:
                continue
            if not self.parity.bets_at(p):
                raise StructuralError(
                    f"declared {self.parity.value} but machine state {q} "
                    f"bets at position parity {p}"
                )
            if self.sided is Sided.NONE:
                continue
            # positive when the bet leans to 1, negative when it leans to 0
            (m0, l0, w), (m1, l1, _) = self._steps[0][q]
            tilt = m1 - m0 + (l1 - l0) * w
            if tilt and (tilt > 0) is (self.sided is Sided.ZERO):
                raise StructuralError(
                    f"declared {self.sided.value} but a bet leans to {int(tilt > 0)}")

    @cached_property
    def kind(self) -> Kind:
        leaky = any(e0[0] + e1[0] != 2 for e0, e1 in self._steps[0])
        return Kind.SUPERMARTINGALE if leaky else Kind.MARTINGALE

    @cached_property
    def _walks(self) -> dict:
        return {}  # checked binary string -> (machine state, capital) there

    def value(self, state: str) -> Fraction:
        """Capital at state.

        The program keeps the (machine state, capital) pair of every
        state it has read: the walk resumes from the pair stored for
        state or for state one or two bits shorter, and stores state's.
        Every stored key is a checked binary string, so a resumed walk
        checks only the bits past it.
        """
        if not isinstance(state, str):
            bits.check_bits(state)  # raises; as a memo key a list would raise TypeError
        walks = self._walks
        hit = walks.get(state)
        if hit is not None:
            return hit[1]
        q, c, done = self.rule.start, self.initial, 0
        for cut in range(1, min(len(state), 2) + 1):
            hit = walks.get(state[: len(state) - cut])
            if hit is not None:
                q, c = hit
                done = len(state) - cut
                break
        laws, succ = self._steps
        for bit in bits.check_bits(state[done:]):
            b = bit == "1"
            m, lean, w = laws[q][b]
            q = succ[b][q]
            # the bet law with its identity terms skipped
            if lean:
                c += lean * min(w, c)
            elif m != 1:
                c *= m
        walks[state] = (q, c)
        return c

    def to_table(self, depth: int) -> StrategyTable:
        """Expand to a total table one level at a time. The capitals of
        level n are integers over initial.denominator * scale^n, where
        scale clears the denominator of every multiplier."""
        if depth < 0:
            raise PreconditionError("table depth must be nonnegative")
        laws, (on0, on1) = self._steps
        scale = math.lcm(*(e[0].denominator for law in laws for e in law))
        # the bet law on integers c over each level's denominator den
        scaled = [(int(m0 * scale), l0 * scale, int(m1 * scale), l1 * scale, w)
                  for (m0, l0, w), (m1, l1, _) in laws]
        den, qs, levels = self.initial.denominator, [self.rule.start], [[self.initial.numerator]]
        for _ in range(depth):
            kids_q, kids = [], []
            for q, c in zip(qs, levels[-1]):
                m0, l0, m1, l1, w = scaled[q]
                k = min(w * den, c)
                kids += (c * m0 + l0 * k, c * m1 + l1 * k)
                kids_q += (on0[q], on1[q])
            qs = kids_q
            levels.append(kids)
            den *= scale
        if scale > 1:
            levels = [[c * scale ** (depth - n) for c in lv] for n, lv in enumerate(levels)]
        return StrategyTable._of_levels(den, levels, self.kind, self.parity, self.sided)


def constant_program(
    initial, bet: Bet | None, parity: Parity = Parity.NONE, sided: Sided = Sided.NONE
) -> BetProgram:
    """Place the same bet at every state the parity tag allows."""
    if parity is Parity.NONE:
        fsm = Fsm((FsmState(bet, 0, 0),))
    else:
        betting_first = parity is Parity.BETS_ON_EVEN
        a = FsmState(bet if betting_first else None, 1, 1)
        b = FsmState(None if betting_first else bet, 0, 0)
        fsm = Fsm((a, b))
    initial = as_capital(initial)
    integral = isinstance(bet, IntegerBet) or (bet is None and initial.denominator == 1)
    return BetProgram(initial, fsm, "integer" if integral else "fractional", parity, sided)


def follow_program(target: str, parity: Parity, initial) -> BetProgram:
    """Stake everything on the next bit of target at each betting state.

    Marches along target, betting all capital toward target's bit at the
    states the parity tag allows; a wrong bit at a betting state loses
    everything. Once past target the program stops betting, so its value
    is constant on the whole cone above target.
    """
    bits.check_bits(target)
    if parity is Parity.NONE:
        raise PreconditionError("follow_program needs a betting parity")
    n = len(target)
    settled = n  # no-bet sink once the target is exhausted
    diverged = n + 1  # no-bet sink after leaving the target path
    # a wrong bit at a betting state loses the whole stake, so the
    # diverged sink carries capital 0; every betting state shares one of
    # these two bets
    all_in = {"0": FractionBet(Fraction(-1)), "1": FractionBet(Fraction(1))}
    states = []
    for i in range(n):
        wants = target[i]
        bet = all_in[wants] if parity.bets_at(i) else None
        on_match = i + 1
        states.append(
            FsmState(
                bet,
                on_match if wants == "0" else diverged,
                on_match if wants == "1" else diverged,
            )
        )
    states.append(FsmState(None, settled, settled))
    states.append(FsmState(None, diverged, diverged))
    return BetProgram(initial, Fsm(tuple(states)), "fractional", parity, Sided.NONE)


@dataclass(frozen=True)
class Component:
    stage: int
    weight: Fraction
    program: BetProgram

    def __post_init__(self):
        if self.stage < 0:
            raise StructuralError("activation stage must be >= 0")
        object.__setattr__(self, "weight", as_capital(self.weight))

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # kept: a program's hash walks its machine, and floor hashes a mixture
        return hash((self.stage, self.weight, self.program))


@dataclass(frozen=True)
class StageApprox:
    """A monotone stage-indexed strategy: component i joins the weighted sum
    once the stage index reaches its activation stage. With nonnegative
    weights and values the evaluation is nondecreasing in the stage, the
    shape every enumeration in this package watches."""

    components: tuple[Component, ...]
    kind: Kind = Kind.MARTINGALE
    parity: Parity = Parity.NONE
    sided: Sided = Sided.NONE

    def __post_init__(self):
        for c in self.components:
            if self.parity is not Parity.NONE and c.program.parity is not self.parity:
                raise PreconditionError(
                    f"component parity {c.program.parity.value} breaks the "
                    f"declared {self.parity.value} tag"
                )
            if self.sided is not Sided.NONE and c.program.sided is not self.sided:
                raise PreconditionError("component sided tag breaks the declared tag")
            if self.kind is Kind.MARTINGALE and c.program.kind is not Kind.MARTINGALE:
                raise PreconditionError("supermartingale component in declared martingale")

    def _read(self, stage: int, state: str, since: int = -1, acc=(0, 1)) -> tuple[int, int]:
        """The value at (stage, state) as integers (num, den): the awake
        components' weighted values summed over one running denominator,
        taking a gcd only when a term's denominator differs from it. With
        since and acc, only the components that wake in (since, stage] are
        added to the running sum acc."""
        num, den = acc
        for c in self.components:
            if not since < c.stage <= stage:
                continue
            v = c.program.value(state)
            n, d = c.weight.numerator * v.numerator, c.weight.denominator * v.denominator
            if d == den:
                num += n
            else:
                g = math.gcd(d, den)
                num = num * (d // g) + n * (den // g)
                den = den // g * d
        return num, den

    def eval(self, stage: int, state: str) -> Fraction:
        return Fraction(*self._read(stage, state))

    def value(self, state: str) -> Fraction:
        """The value at state with every component awake."""
        return self.eval(self.last_stage(), state)

    def to_table(self, depth: int) -> StrategyTable:
        """The table to depth with every component awake."""
        if depth < 0:
            raise PreconditionError("table depth must be nonnegative")
        parts = [(c.weight, c.program.to_table(depth)) for c in self.components]
        return StrategyTable._of_levels(*_weighted(parts, depth), self.kind, self.parity, self.sided)

    def last_stage(self) -> int:
        """The stage from which the value no longer changes: the last
        activation stage, or 0 for an empty mixture."""
        return max((c.stage for c in self.components), default=0)

    def table(self, stage: int, depth: int) -> StrategyTable:
        return at_stage(self, stage).to_table(depth)


def _check_sides(odd: StageApprox, even: StageApprox) -> None:
    """The guard of every parity pair: odd side first, even side second."""
    if odd.parity != Parity.BETS_ON_ODD:
        raise PreconditionError("first side must bet at odd positions")
    if even.parity != Parity.BETS_ON_EVEN:
        raise PreconditionError("second side must bet at even positions")


def _joint(odd: StageApprox, even: StageApprox) -> StageApprox:
    """The joint capital m(x) + n(x) of a guarded parity pair, odd side
    first: both sides' components as one parity-free mixture."""
    _check_sides(odd, even)
    return StageApprox(odd.components + even.components, Kind.of_sum((odd.kind, even.kind)))


def _exceeds(read: tuple[int, int], bound: Fraction) -> bool:
    """Whether a read (num, den) is above bound, on integers."""
    num, den = read
    return num * bound.denominator > bound.numerator * den


def at_stage(strategy, stage: int | None = None):
    """The one way to read a strategy: an object with value(state) and,
    for tables, programs and mixtures, to_table(depth).

    A StageApprox at stage is the mixture of its components awake by
    then: those whose activation stage is at most stage (all of them when
    stage is None). Anything else that has a value(state) method (tables,
    programs, lazy evaluators such as packing certificates) comes back
    unchanged, and stage does not apply to it.
    """
    if isinstance(strategy, StageApprox) and stage is not None:
        awake = tuple(c for c in strategy.components if c.stage <= stage)
        return StageApprox(awake, strategy.kind, strategy.parity, strategy.sided)
    if callable(getattr(strategy, "value", None)):
        return strategy
    raise PreconditionError(f"cannot evaluate {type(strategy).__name__}")
