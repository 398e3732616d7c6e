"""Finitely-described betting programs and staged mixtures.

Every program is a Mealy machine: each automaton state optionally carries a
bet, and reading a bit moves to the next automaton state. Evaluating a
program at a string walks the machine once, so the cost is linear in the
string length times the description size. The convenience constructors
(constant, by-parity, all-in follow) compile to machines, which keeps a
single evaluator for everything.

Bets come in three shapes. A fraction bet stakes a signed fraction of
current capital toward outcome 1 (negative means toward 0), so the two
child values average back to the parent: a martingale step. An integer bet
stakes a whole-number wager on a named outcome, clamped to current capital
so values stay nonnegative integers. A scale bet multiplies capital by a
factor <= 1 on both children, the one deliberately leaky (supermartingale)
step we support.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import bits
from .errors import PreconditionError, StructuralError
from .strategy import Kind, Parity, Sided, StrategyTable, as_capital


@dataclass(frozen=True)
class FractionBet:
    stake: Fraction  # signed fraction of capital toward outcome 1, in [-1, 1]

    def __post_init__(self):
        f = Fraction(self.stake)
        if not -1 <= f <= 1:
            raise StructuralError(f"bet stake must lie in [-1, 1], got {f}")
        object.__setattr__(self, "stake", f)


@dataclass(frozen=True)
class IntegerBet:
    wager: int
    outcome: int

    def __post_init__(self):
        if self.wager < 0:
            raise StructuralError("integer wager must be >= 0")
        if self.outcome not in (0, 1):
            raise StructuralError("outcome must be 0 or 1")


@dataclass(frozen=True)
class ScaleBet:
    factor: Fraction  # applied to both children; <= 1 keeps the supermartingale law

    def __post_init__(self):
        f = Fraction(self.factor)
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


def apply_bet(bet: Bet | None, capital, bit: str):
    """Capital after one bit under the given bet: the one bet law every
    evaluator and duel steps with. Zero capital is absorbing for every bet
    shape, which is the zero-propagation convention. An integer bet keeps
    an int capital an int."""
    if bet is None:
        return capital
    if isinstance(bet, FractionBet):
        f = bet.stake
        return capital * (1 + f) if bit == "1" else capital * (1 - f)
    if isinstance(bet, IntegerBet):
        w = min(bet.wager, capital)
        return capital + w if bit == str(bet.outcome) else capital - w
    return capital * bet.factor


def _reachable_configs(fsm: Fsm) -> dict:
    """Walk the (machine state, position parity) graph from the start."""
    configs: dict[tuple[int, int], tuple[tuple[int, int], tuple[int, int]]] = {}
    frontier = [(fsm.start, 0)]
    while frontier:
        cfg = frontier.pop()
        if cfg in configs:
            continue
        st = fsm.states[cfg[0]]
        p = 1 - cfg[1]
        configs[cfg] = ((st.on0, p), (st.on1, p))
        frontier.extend(configs[cfg])
    return configs


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
    def configs(self) -> dict:
        """The reachable (machine state, position parity) configurations,
        each mapped to its successors on 0 and on 1. Built on first use and
        kept, since duels search it once per planning step."""
        return _reachable_configs(self.rule)

    def _check_structural_tags(self):
        # walked afresh, not through configs: most programs never need the
        # graph again, and keeping it would cost memory per program
        for q, p in _reachable_configs(self.rule):
            bet = self.rule.states[q].bet
            if bet is None:
                continue
            if not self.parity.bets_at(p):
                raise StructuralError(
                    f"declared {self.parity.value} but machine state {q} "
                    f"bets at position parity {p}"
                )
            if self.sided is Sided.ZERO:
                if isinstance(bet, FractionBet) and bet.stake > 0:
                    raise StructuralError("declared zero_sided but a bet leans to 1")
                if isinstance(bet, IntegerBet) and bet.outcome == 1 and bet.wager > 0:
                    raise StructuralError("declared zero_sided but a bet leans to 1")
            if self.sided is Sided.ONE:
                if isinstance(bet, FractionBet) and bet.stake < 0:
                    raise StructuralError("declared one_sided but a bet leans to 0")
                if isinstance(bet, IntegerBet) and bet.outcome == 0 and bet.wager > 0:
                    raise StructuralError("declared one_sided but a bet leans to 0")

    @property
    def kind(self) -> Kind:
        leaky = any(
            isinstance(st.bet, ScaleBet) and st.bet.factor != 1 for st in self.rule.states
        )
        return Kind.SUPERMARTINGALE if leaky else Kind.MARTINGALE

    def value(self, state: str) -> Fraction:
        bits.check_bits(state)
        c = self.initial
        q = self.rule.start
        for bit in state:
            st = self.rule.states[q]
            c = apply_bet(st.bet, c, bit)
            q = st.on0 if bit == "0" else st.on1
        return c

    def to_table(self, depth: int) -> StrategyTable:
        """Expand to a total table by one depth-first walk."""
        if depth < 0:
            raise PreconditionError("table depth must be nonnegative")
        vals: dict[str, Fraction] = {}

        def walk(state: str, q: int, c: Fraction):
            vals[state] = c
            if len(state) == depth:
                return
            st = self.rule.states[q]
            walk(state + "0", st.on0, apply_bet(st.bet, c, "0"))
            walk(state + "1", st.on1, apply_bet(st.bet, c, "1"))

        walk(bits.EMPTY, self.rule.start, self.initial)
        return StrategyTable(depth, vals, self.kind, self.parity, self.sided)


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
    integral = isinstance(bet, IntegerBet) or (
        bet is None and Fraction(initial).denominator == 1
    )
    return BetProgram(
        Fraction(initial), fsm, "integer" if integral else "fractional", parity, sided
    )


def by_parity_program(initial, even_bet: Bet | None, odd_bet: Bet | None) -> BetProgram:
    """Bet even_bet at even-length states and odd_bet at odd-length ones."""
    fsm = Fsm((FsmState(even_bet, 1, 1), FsmState(odd_bet, 0, 0)))
    all_bets = [b for b in (even_bet, odd_bet) if b is not None]
    form = "integer" if all_bets and all(isinstance(b, IntegerBet) for b in all_bets) else "fractional"
    return BetProgram(Fraction(initial), fsm, form)


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
    states = []
    for i in range(n):
        wants = target[i]
        bet = None
        if parity.bets_at(i):
            # a wrong bit here loses the whole stake, so the diverged
            # sink carries capital 0
            bet = FractionBet(Fraction(1) if wants == "1" else Fraction(-1))
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
    return BetProgram(Fraction(initial), Fsm(tuple(states)), "fractional", parity, Sided.NONE)


@dataclass(frozen=True)
class Component:
    stage: int
    weight: Fraction
    program: BetProgram

    def __post_init__(self):
        if self.stage < 0:
            raise StructuralError("activation stage must be >= 0")
        object.__setattr__(self, "weight", as_capital(self.weight))


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
        # per-(component, state) program values; values never depend on
        # the stage, so every stage and every reader shares them
        object.__setattr__(self, "_values", {})
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

    def _component_value(self, i: int, state: str) -> Fraction:
        key = (i, state)
        got = self._values.get(key)
        if got is None:
            got = self._values[key] = self.components[i].program.value(state)
        return got

    def eval(self, stage: int, state: str) -> Fraction:
        total = Fraction(0)
        for i, c in enumerate(self.components):
            if c.stage <= stage:
                total += c.weight * self._component_value(i, state)
        return total

    def activation_stages(self) -> list[int]:
        return sorted({c.stage for c in self.components})

    def last_stage(self) -> int:
        """The stage from which the value no longer changes: the last
        activation stage, or 0 for an empty mixture."""
        return max((c.stage for c in self.components), default=0)

    def final(self, state: str) -> Fraction:
        return self.eval(self.last_stage(), state)

    def table(self, stage: int, depth: int) -> StrategyTable:
        if depth < 0:
            raise PreconditionError("table depth must be nonnegative")
        active = [(c.weight, c.program.to_table(depth)) for c in self.components if c.stage <= stage]
        vals = {}
        for state in bits.all_states(depth):
            vals[state] = sum((w * t.value(state) for w, t in active), Fraction(0))
        return StrategyTable(depth, vals, self.kind, self.parity, self.sided)


def combine_programs(parts, parity: Parity = Parity.NONE, sided: Sided = Sided.NONE) -> StageApprox:
    """Weighted sum of programs as a stage approximation, all active from
    stage 0. The staged activation variant is built by mixture()."""
    comps = tuple(Component(0, Fraction(w), p) for w, p in parts)
    return StageApprox(comps, Kind.of_sum(c.program.kind for c in comps), parity, sided)


class _StageView:
    """A mixture frozen at one stage, read like a table or a program."""

    __slots__ = ("approx", "stage")

    def __init__(self, approx: StageApprox, stage: int):
        self.approx = approx
        self.stage = stage

    def value(self, state: str) -> Fraction:
        return self.approx.eval(self.stage, state)

    def to_table(self, depth: int) -> StrategyTable:
        return self.approx.table(self.stage, depth)


def at_stage(strategy, stage: int | None = None):
    """The one way to read a strategy: an object with value(state) and,
    for tables, programs and mixtures, to_table(depth).

    A StageApprox is read at stage, or at its last activation stage when
    stage is None. Anything that already has a value(state) method
    (tables, programs, lazy evaluators such as packing certificates)
    comes back unchanged, and stage does not apply to it.
    """
    if isinstance(strategy, StageApprox):
        return _StageView(strategy, strategy.last_stage() if stage is None else stage)
    if callable(getattr(strategy, "value", None)):
        return strategy
    raise PreconditionError(f"cannot evaluate {type(strategy).__name__}")
