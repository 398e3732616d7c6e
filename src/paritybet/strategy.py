"""Finite betting-strategy tables: the (super)martingale law, parity and
sided restrictions, weighted combination and parity products.

A table is a total map from all binary strings of length <= depth to
nonnegative rationals. The martingale law says each interior value is the
average of its two children; a supermartingale may keep less. A parity tag
restricts where bets happen: BETS_ON_EVEN strategies change value only when
a bit is appended to an even-length state, BETS_ON_ODD only at odd-length
states. A sided tag orients every bet toward a fixed outcome.

A table keeps its values as scaled integers: level n is the list of the
2^n numerators of the states of length n, in the order of int(state, 2),
and every level shares one denominator, the least one, so equal tables
have equal levels. validate, combine and product run as loops over whole
levels; the children of entry i of level n are entries 2i and 2i + 1 of
level n + 1. The public constructor checks a whole table's keys and
values at once and fills the levels in one pass. The values field reads
the levels as a read-only map from state to Fraction.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, repeat
from operator import add, and_, attrgetter, gt, lt, mul, ne, or_
from typing import Iterable

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
    f = v if type(v) is Fraction else Fraction(v)
    if f.numerator < 0:
        raise StructuralError(f"capital must be nonnegative, got {f}")
    return f


def _state(n: int, i: int) -> str:
    """The state at index i of level n."""
    return format(i, "b").zfill(n) if n else bits.EMPTY


def _per_child(level: list) -> list:
    """Each entry of a level once for each of its two children."""
    return list(chain.from_iterable(zip(level, level)))


# value types whose numerator and denominator are read as they are
_EXACT = frozenset((int, Fraction))
_NUMERATOR, _DENOMINATOR = attrgetter("numerator"), attrgetter("denominator")


def _check_key(key, depth: int) -> None:
    """Refuse a key that is not a binary string of length at most depth."""
    bits.check_bits(key)
    if len(key) > depth:
        raise StructuralError(f"state {key!r} is longer than depth {depth}")


def _entries(depth: int, keys: list, nums: list, dens: list) -> tuple[int, tuple]:
    """Denominator and levels of the table of the given depth that holds
    nums[k] / dens[k] at keys[k], the keys distinct and each denominator
    positive. The keys and numerators are checked as a whole; only when
    that check fails are they checked one by one, so the first fault in
    key order raises, and then a missing state. The denominator is the lcm
    of dens, the least one when every num/den is in lowest terms."""
    try:
        joined = "".join(keys)
    except TypeError:  # a key that is not a str
        joined = None
    # As many distinct binary keys as there are states, with as many bits
    # in all as the states have, are the states: a key longer than depth
    # would stand in for a shorter state and add bits. A depth whose states
    # outnumber the keys is not counted: its counts have 2^depth bits.
    if not (joined is not None and depth < len(keys).bit_length()
            and len(keys) == (2 << depth) - 1 and len(joined) == (depth - 1) * (2 << depth) + 2
            and bits._BITCHARS.issuperset(joined) and min(nums) >= 0):
        for key, x, d in zip(keys, nums, dens):
            _check_key(key, depth)
            if x < 0:
                raise StructuralError(f"capital must be nonnegative, got {Fraction(x, d)}")
        present = set(keys)
        for state in bits.all_states(depth):
            if state not in present:
                raise StructuralError(f"missing table entry for state {state!r}")
    den = math.lcm(*dens)
    levels = tuple([0] * (1 << n) for n in range(depth + 1))
    for key, x, d in zip(keys, nums, dens):
        levels[len(key)][int(key or "0", 2)] = x * (den // d)
    return den, levels


class _Values(Mapping):
    """A table's values: the read-only map from state to Fraction over its
    integer levels. A Fraction is built the first time its state is read
    and kept (the public constructor keeps the Fractions it was given);
    iterating builds the ones still missing, in level order."""

    __slots__ = ("den", "levels", "_read")

    def __init__(self, den: int, levels: tuple, read: dict | None = None):
        self.den, self.levels, self._read = den, levels, {} if read is None else read

    def __getitem__(self, state):
        f = self._read.get(state)
        if f is None:
            if type(state) is not str or len(state) >= len(self.levels) or state.strip("01"):
                raise KeyError(state)
            lv = self.levels[len(state)]
            f = self._read[state] = Fraction(lv[int(state or "0", 2)], self.den)
        return f

    def _all(self) -> dict:
        if len(self._read) < len(self):
            # each level's keys from the last one's, in the same order
            read, keys = {}, [bits.EMPTY]
            for n, lv in enumerate(self.levels):
                if n:
                    keys = [k + b for k in keys for b in "01"]
                read.update(zip(keys, [Fraction(x, self.den) for x in lv]))
            self._read = read
        return self._read

    def __iter__(self):
        return iter(self._all())

    def __len__(self) -> int:
        return (1 << len(self.levels)) - 1

    def items(self):
        return self._all().items()

    def __eq__(self, other):
        if isinstance(other, _Values):
            return self.den == other.den and self.levels == other.levels
        return Mapping.__eq__(self, other)

    def __repr__(self) -> str:
        return repr(self._all())


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
        values = self.values
        items = values.items()  # values that are not a mapping fail here, as before
        keys, caps = list(values), list(values.values())
        types = set(map(type, caps))
        if not _EXACT.issuperset(types):
            # other rationals are coerced one by one, each after its key's checks
            caps, types = [], {Fraction}
            for key, v in items:
                _check_key(key, self.depth)
                caps.append(as_capital(v))
        den, levels = _entries(self.depth, keys, list(map(_NUMERATOR, caps)),
                               list(map(_DENOMINATOR, caps)))
        # Fractions given are kept, so that reading them builds none
        read = dict(zip(keys, caps)) if types == {Fraction} else None
        object.__setattr__(self, "values", _Values(den, levels, read))

    @classmethod
    def _of_levels(cls, den: int, levels, kind: Kind, parity=Parity.NONE, sided=Sided.NONE):
        """The trusted constructor of the table operations: levels hold
        nonnegative numerators over den, 2^n of them at level n. They are
        brought to the least denominator, and nothing else is checked."""
        g = math.gcd(den, *chain.from_iterable(levels))
        if g > 1:
            den //= g
            levels = [[x // g for x in lv] for lv in levels]
        t = object.__new__(cls)
        t.__dict__.update(
            depth=len(levels) - 1,
            values=_Values(den, tuple(levels)),
            kind=kind,
            parity=parity,
            sided=sided,
        )
        return t

    def value(self, state: str) -> Fraction:
        try:
            return self.values[state]
        except KeyError:
            raise StructuralError(f"state {state!r} not in table of depth {self.depth}")

    def to_table(self, depth: int) -> "StrategyTable":
        """The table itself: a table is already total, on its own depth,
        so the requested depth does not apply."""
        return self


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


def _moves(levels, n: int) -> list:
    """For each state of level n: does the value change below it?"""
    up, down = levels[n], levels[n + 1]
    return list(map(or_, map(ne, down[0::2], up), map(ne, down[1::2], up)))


def validate(table: StrategyTable) -> Diagnosis:
    """Scan every interior state once and report which laws hold.

    The martingale law at sigma: value equals the average of the two child
    values; the supermartingale law allows >=. Nonnegativity plus either
    law force the zero-propagation convention (a zero state has zero
    children), so no separate check is needed. Witnesses record the least
    violating state per failed check.

    Each law is checked for a whole level at once on the integer levels;
    only a law that fails there looks up its first violating state.
    """
    levels = table.values.levels
    witness: dict[str, str] = {}
    for n in range(table.depth):
        up, down = levels[n], levels[n + 1]
        c0, c1 = down[0::2], down[1::2]
        twice, doubled = list(map(add, c0, c1)), list(map(add, up, up))
        checks = (
            ("martingale", list(map(ne, twice, doubled))),
            ("supermartingale", list(map(gt, twice, doubled))),
            ("bets_on_even" if n % 2 else "bets_on_odd", _moves(levels, n)),
            ("zero_sided", list(map(lt, c0, c1))),
            ("one_sided", list(map(lt, c1, c0))),
        )
        # a name is noted at its first failing state in scan order (state
        # by state, check by check), which fixes the witnesses' order
        failed = sorted(
            (flags.index(True), k, name)
            for k, (name, flags) in enumerate(checks)
            if True in flags
        )
        for i, _, name in failed:
            state = _state(n, i)
            if name not in witness or state < witness[name]:
                witness[name] = state
    verdicts = (name not in witness for name in (
        "martingale", "supermartingale", "bets_on_even", "bets_on_odd", "zero_sided", "one_sided",
    ))
    return Diagnosis(*verdicts, witness)


def _weighted(items, depth: int) -> tuple[int, list]:
    """Denominator and levels of the pointwise sum of w * t over the
    (weight, table) items, all of the given depth; the zero table when
    there are none. A weight may be negative."""
    den = math.lcm(*(w.denominator * t.values.den for w, t in items))
    levels = [[0] * (1 << n) for n in range(depth + 1)]
    for w, t in items:
        scale = w.numerator * (den // (w.denominator * t.values.den))
        if scale:
            levels = [
                list(map(add, acc, map(mul, lv, repeat(scale))))
                for acc, lv in zip(levels, t.values.levels)
            ]
    return den, levels


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
    parities = {t.parity for _, t in items}
    sides = {t.sided for _, t in items}
    return StrategyTable._of_levels(
        *_weighted(items, depth),
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
    la, lb = a.values.levels, b.values.levels
    for n in range(a.depth):
        both = list(map(and_, _moves(la, n), _moves(lb, n)))
        if True in both:
            raise PreconditionError(f"both factors bet at state {_state(n, both.index(True))!r}")
    return StrategyTable._of_levels(
        a.values.den * b.values.den,
        [list(map(mul, x, y)) for x, y in zip(la, lb)],
        Kind.MARTINGALE,
    )

