"""Finite betting-strategy tables: the (super)martingale law, parity and
sided restrictions, weighted combination, parity products, and the online
(conditional) view of a single-parity strategy.

A table is a total map from all binary strings of length <= depth to
nonnegative rationals. The martingale law says each interior value is the
average of its two children; a supermartingale may keep less. A parity tag
restricts where bets happen: BETS_ON_EVEN strategies change value only when
a bit is appended to an even-length state, BETS_ON_ODD only at odd-length
states. A sided tag orients every bet toward a fixed outcome.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping

from . import bits
from .errors import PreconditionError, StructuralError


class Kind(enum.Enum):
    MARTINGALE = "martingale"
    SUPERMARTINGALE = "supermartingale"

    @staticmethod
    def of_sum(kinds: Iterable[Kind]) -> Kind:
        """The kind of a nonnegative weighted sum: a martingale only if
        every part is (so an empty sum is one)."""
        if all(k is Kind.MARTINGALE for k in kinds):
            return Kind.MARTINGALE
        return Kind.SUPERMARTINGALE


class Parity(enum.Enum):
    BETS_ON_EVEN = "bets_on_even"
    BETS_ON_ODD = "bets_on_odd"
    NONE = "unrestricted"

    def bets_at(self, length: int) -> bool:
        """May a strategy with this tag bet when appending to a state of
        the given length?"""
        if self is Parity.BETS_ON_EVEN:
            return length % 2 == 0
        if self is Parity.BETS_ON_ODD:
            return length % 2 == 1
        return True


class Sided(enum.Enum):
    ZERO = "zero_sided"
    ONE = "one_sided"
    NONE = "unrestricted"


def as_capital(v) -> Fraction:
    """Coerce to an exact nonnegative rational."""
    f = Fraction(v)
    if f < 0:
        raise StructuralError(f"capital must be nonnegative, got {f}")
    return f


@dataclass(frozen=True)
class StrategyTable:
    """Total value table on all strings of length <= depth."""

    depth: int
    values: Mapping[str, Fraction]
    kind: Kind = Kind.MARTINGALE
    parity: Parity = Parity.NONE
    sided: Sided = Sided.NONE

    def __post_init__(self):
        if self.depth < 0:
            raise StructuralError("depth must be >= 0")
        vals = {}
        for key, v in self.values.items():
            bits.check_bits(key)
            if len(key) > self.depth:
                raise StructuralError(f"state {key!r} is longer than depth {self.depth}")
            vals[key] = as_capital(v)
        for state in bits.all_states(self.depth):
            if state not in vals:
                raise StructuralError(f"missing table entry for state {state!r}")
        object.__setattr__(self, "values", vals)

    def value(self, state: str) -> Fraction:
        try:
            return self.values[state]
        except KeyError:
            raise StructuralError(f"state {state!r} not in table of depth {self.depth}")

    def to_table(self, depth: int) -> "StrategyTable":
        """The table itself: a table is already total, on its own depth,
        so the requested depth does not apply."""
        return self

    def interior(self):
        return bits.all_states(self.depth - 1) if self.depth > 0 else iter(())

    def bets_at(self, state: str) -> bool:
        """Does the table's value actually change below this interior state?"""
        v = self.value(state)
        return self.value(state + "0") != v or self.value(state + "1") != v

    def retagged(self, kind=None, parity=None, sided=None) -> "StrategyTable":
        return StrategyTable(
            self.depth,
            self.values,
            kind if kind is not None else self.kind,
            parity if parity is not None else self.parity,
            sided if sided is not None else self.sided,
        )


@dataclass(frozen=True)
class Diagnosis:
    """Exhaustive-scan verdicts for one table. Witnesses are the
    lexicographically least violating states, keyed by check name."""

    martingale: bool
    supermartingale: bool
    bets_on_even: bool
    bets_on_odd: bool
    zero_sided: bool
    one_sided: bool
    witnesses: Mapping[str, str] = field(default_factory=dict)

    def holds(self, kind: Kind, parity: Parity, sided: Sided) -> bool:
        if kind is Kind.MARTINGALE and not self.martingale:
            return False
        if kind is Kind.SUPERMARTINGALE and not self.supermartingale:
            return False
        if parity is Parity.BETS_ON_EVEN and not self.bets_on_even:
            return False
        if parity is Parity.BETS_ON_ODD and not self.bets_on_odd:
            return False
        if sided is Sided.ZERO and not self.zero_sided:
            return False
        if sided is Sided.ONE and not self.one_sided:
            return False
        return True


def validate(table: StrategyTable) -> Diagnosis:
    """Scan every interior state once and report which laws hold.

    The martingale law at sigma: value equals the average of the two child
    values; the supermartingale law allows >=. Nonnegativity plus either
    law force the zero-propagation convention (a zero state has zero
    children), so no separate check is needed. Witnesses record the least
    violating state per failed check.
    """
    witness: dict[str, str] = {}

    def note(name: str, state: str):
        if name not in witness or state < witness[name]:
            witness[name] = state

    mart = superm = even = odd = zero_s = one_s = True
    for state in table.interior():
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


def require_valid(table: StrategyTable) -> Diagnosis:
    """validate() and raise if the declared tags do not hold."""
    diag = validate(table)
    if not diag.holds(table.kind, table.parity, table.sided):
        raise PreconditionError(
            f"table does not satisfy its declared tags "
            f"({table.kind.value}/{table.parity.value}/{table.sided.value}); "
            f"witnesses: {dict(diag.witnesses)}"
        )
    return diag


def combine(parts: Iterable[tuple[Fraction, StrategyTable]]) -> StrategyTable:
    """Pointwise weighted sum of equal-depth tables.

    The result is a martingale only if every input is; a parity or sided
    tag survives only when shared by all inputs.
    """
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
    """Pointwise product of two martingales of opposite parity tags.

    One factor bets only at even-length states and the other only at
    odd-length states, so at every interior state at most one factor
    moves and the martingale law survives multiplication. Rejects inputs
    that bet at a common state, naming the offending state.
    """
    if a.depth != b.depth:
        raise PreconditionError(f"depth mismatch: {a.depth} != {b.depth}")
    if {a.parity, b.parity} != {Parity.BETS_ON_EVEN, Parity.BETS_ON_ODD}:
        raise PreconditionError(
            "product needs one BETS_ON_EVEN and one BETS_ON_ODD factor, got "
            f"{a.parity.value} and {b.parity.value}"
        )
    if a.kind is not Kind.MARTINGALE or b.kind is not Kind.MARTINGALE:
        raise PreconditionError("product is defined for martingale factors only")
    for state in a.interior():
        if a.bets_at(state) and b.bets_at(state):
            raise PreconditionError(f"both factors bet at state {state!r}")
    vals = {s: a.value(s) * b.value(s) for s in bits.all_states(a.depth)}
    return StrategyTable(a.depth, vals, Kind.MARTINGALE, Parity.NONE, Sided.NONE)


@dataclass(frozen=True)
class OnlineTable:
    """Conditional view N(tau | sigma) of a single-parity martingale.

    oracle_first=True is the view of a BETS_ON_ODD table: the oracle bit
    sigma_j is revealed, then the strategy bets on tau_j; the domain is
    pairs with |sigma| == |tau| <= rounds. oracle_first=False is the view
    of a BETS_ON_EVEN table: the strategy bets first, so the domain also
    holds pairs with |tau| == |sigma| + 1.
    """

    rounds: int
    oracle_first: bool
    values: Mapping[tuple[str, str], Fraction]

    def value(self, tau: str, sigma: str) -> Fraction:
        try:
            return self.values[(sigma, tau)]
        except KeyError:
            raise StructuralError(f"no online entry for tau={tau!r} given sigma={sigma!r}")

    def check_law(self) -> bool:
        """The conditional martingale law: the two extensions of the bet
        string average to the value at the shorter pair."""
        if self.oracle_first:
            for j in range(1, self.rounds + 1):
                for sigma in bits.level(j):
                    for tau_h in bits.level(j - 1):
                        lhs = self.value(tau_h + "0", sigma) + self.value(tau_h + "1", sigma)
                        if lhs != 2 * self.value(tau_h, sigma[:-1]):
                            return False
        else:
            for j in range(self.rounds):
                for sigma in bits.level(j):
                    for tau in bits.level(j):
                        lhs = self.value(tau + "0", sigma) + self.value(tau + "1", sigma)
                        if lhs != 2 * self.value(tau, sigma):
                            return False
        return True


def to_online(m: StrategyTable) -> OnlineTable:
    """Reindex a single-parity martingale as a conditional strategy.

    For a BETS_ON_ODD table the bits at even positions of each state form
    the oracle string sigma and the bits at odd positions form the bet
    string tau; N(tau|sigma) is the table value at their interleaving.
    The BETS_ON_EVEN case is the mirror image with the bettor leading.
    Requires an even depth and a correct single-parity tag.
    """
    if m.parity is Parity.NONE:
        raise PreconditionError("to_online needs a single-parity table")
    if m.depth % 2 != 0:
        raise PreconditionError("to_online needs an even-depth table")
    require_valid(m)
    rounds = m.depth // 2
    vals: dict[tuple[str, str], Fraction] = {}
    if m.parity is Parity.BETS_ON_ODD:
        for j in range(rounds + 1):
            for sigma in bits.level(j):
                for tau in bits.level(j):
                    vals[(sigma, tau)] = m.value(bits.interleave(sigma, tau))
        return OnlineTable(rounds, True, vals)
    for j in range(rounds + 1):
        for sigma in bits.level(j):
            for tau in bits.level(j):
                vals[(sigma, tau)] = m.value(bits.interleave(tau, sigma))
            if j < rounds:
                for tau in bits.level(j + 1):
                    vals[(sigma, tau)] = m.value(bits.interleave(tau, sigma))
    return OnlineTable(rounds, False, vals)


def from_online(o: OnlineTable, kind: Kind = Kind.MARTINGALE) -> StrategyTable:
    """Rebuild the single-parity table a to_online() view came from."""
    depth = 2 * o.rounds
    vals: dict[str, Fraction] = {}
    if o.oracle_first:
        for state in bits.all_states(depth):
            if len(state) % 2 == 0:
                sigma, tau = bits.deinterleave(state)
                vals[state] = o.value(tau, sigma)
            else:
                vals[state] = vals[state[:-1]]
        return StrategyTable(depth, vals, kind, Parity.BETS_ON_ODD)
    for state in bits.all_states(depth):
        tau, sigma = bits.deinterleave(state)
        vals[state] = o.value(tau, sigma)
    return StrategyTable(depth, vals, kind, Parity.BETS_ON_EVEN)
