"""Splitting martingales across the two bet parities.

A positive martingale factors exactly into the product of its odd-step
ratios and its even-step ratios; each ratio product is itself a martingale
that bets at only one parity. On a single two-bit block we also build the
pointwise-least martingale that bets only on the second bit while reaching
prescribed values on the two leaves whose second bit is 0, and the induced
decomposition of a pair of block strategies into that minimal core plus
nonnegative remainders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import floordiv, mul

from . import bits
from .errors import PreconditionError
from .strategy import (
    Kind,
    Parity,
    Sided,
    StrategyTable,
    _per_child,
    _weighted,
    as_capital,
    validate,
)


def parity_factorize(m: StrategyTable) -> tuple[StrategyTable, StrategyTable]:
    """Factor a martingale as value(root) * odd_part * even_part.

    Both factors start at 1. The odd part collects the conditional ratios
    of steps taken from odd-length states (so it bets at odd states); the
    even part collects the steps from even-length states. Their product
    times the root value reproduces the input exactly.

    Zero handling: once the input hits 0, the factor whose step caused the
    zero carries a 0 forever (its own zero-propagation), while the other
    factor simply stops betting; the conditional ratio inside a dead cone
    is taken to be 1. This keeps both factors exact martingales of their
    parity and preserves the product identity.
    """
    diag = validate(m)
    if not diag.martingale:
        raise PreconditionError(
            f"parity_factorize needs a martingale; law fails at "
            f"{diag.witnesses.get('martingale')!r}"
        )
    # each factor's levels as numerators and denominators, state by state
    factors = {Parity.BETS_ON_ODD: ([[1]], [[1]]), Parity.BETS_ON_EVEN: ([[1]], [[1]])}
    levels = m.values.levels
    for n in range(m.depth):
        parents = _per_child(levels[n])
        # a child over its parent in lowest terms; inside a dead cone
        # (parent 0, so child 0) the ratio is 1 and neither factor bets
        kids = [c if p else 1 for c, p in zip(levels[n + 1], parents)]
        live = [p or 1 for p in parents]
        g = list(map(math.gcd, kids, live))
        ratio = (list(map(floordiv, kids, g)), list(map(floordiv, live, g)))
        for parity, parts in factors.items():
            for part, r in zip(parts, ratio):
                above = _per_child(part[-1])
                part.append(list(map(mul, above, r)) if parity.bets_at(n) else above)
    return tuple(
        StrategyTable._of_levels(*_over_one_den(*factors[p]), Kind.MARTINGALE, p)
        for p in (Parity.BETS_ON_ODD, Parity.BETS_ON_EVEN)
    )


def _over_one_den(nums: list, dens: list) -> tuple[int, list]:
    """Levels of the rationals num/den, state by state, over one denominator."""
    den = math.lcm(*chain.from_iterable(dens))
    return den, [[x * (den // d) for x, d in zip(xs, ds)] for xs, ds in zip(nums, dens)]


def min_block_martingale(m00, m10) -> StrategyTable:
    """Least second-bit-only martingale reaching m00 at 00 and m10 at 10.

    The strategy may bet only on the second bit of the two-bit block, so
    its root and both length-1 values agree. The cheapest root is
    max(m00, m10) / 2: the larger target is funded exactly, and whatever
    the doubled root leaves over lands on the sibling of the smaller one.
    Pointwise minimal among all such strategies meeting the two targets.
    """
    x, y = as_capital(m00), as_capital(m10)
    d, [[a, b]] = _over_one_den([[x.numerator, y.numerator]], [[x.denominator, y.denominator]])
    top = max(a, b)
    # over 2d: the root top / 2d, and each leaf twice its numerator over d
    levels = [[top], [top, top], [2 * a, 2 * (top - a), 2 * b, 2 * (top - b)]]
    return StrategyTable._of_levels(2 * d, levels, Kind.MARTINGALE, Parity.BETS_ON_ODD)


@dataclass(frozen=True)
class BlockSpec:
    """Recorded two-bit-block data: leaf targets for the second-bit
    strategy, level-1 targets for the first-bit strategy, and the budget
    the pair must not exceed."""

    m00: Fraction
    m10: Fraction
    n0: Fraction
    n1: Fraction
    c: Fraction

    def __post_init__(self):
        for name in ("m00", "m10", "n0", "n1", "c"):
            object.__setattr__(self, name, as_capital(getattr(self, name)))


def unique_first_bit_martingale(n0, n1) -> StrategyTable:
    """The only first-bit-only martingale on the block with the given
    level-1 values: root is their average and level 2 changes nothing."""
    x, y = as_capital(n0), as_capital(n1)
    d, [[a, b]] = _over_one_den([[x.numerator, y.numerator]], [[x.denominator, y.denominator]])
    # over 2d: the root (a + b) / 2d, and each later state twice its numerator over d
    levels = [[a + b], [2 * a, 2 * b], [2 * a, 2 * a, 2 * b, 2 * b]]
    return StrategyTable._of_levels(2 * d, levels, Kind.MARTINGALE, Parity.BETS_ON_EVEN)


def block_decompose(
    m: StrategyTable, n: StrategyTable, spec: BlockSpec
) -> tuple[StrategyTable, StrategyTable, StrategyTable, StrategyTable]:
    """Split a block pair into minimal cores plus nonnegative remainders.

    m must bet only on the second bit and reach at least the spec's leaf
    targets; n must bet only on the first bit and reach at least the
    level-1 targets. Returns (m_core, m_rest, n_core, n_rest) with
    m == m_core + m_rest and n == n_core + n_rest pointwise, remainders
    nonnegative martingales of the matching parity.
    """
    for t, parity_tag in ((m, Parity.BETS_ON_ODD), (n, Parity.BETS_ON_EVEN)):
        if t.depth != 2:
            raise PreconditionError("block_decompose works on depth-2 tables")
        diag = validate(t)
        if not diag.holds(Kind.MARTINGALE, parity_tag, Sided.NONE):
            raise PreconditionError(
                f"input does not satisfy martingale/{parity_tag.value}; "
                f"witnesses {dict(diag.witnesses)}"
            )
    if m.value("00") < spec.m00 or m.value("10") < spec.m10:
        raise PreconditionError("m does not reach the spec's leaf targets")
    if n.value("0") < spec.n0 or n.value("1") < spec.n1:
        raise PreconditionError("n does not reach the spec's level-1 targets")
    m_core = min_block_martingale(spec.m00, spec.m10)
    n_core = unique_first_bit_martingale(spec.n0, spec.n1)
    rests = []
    for label, t, core in (("m", m, m_core), ("n", n, n_core)):
        den, levels = _weighted(((1, t), (-1, core)), 2)
        # Exceeding a target at 00/10 can push the core's complementary
        # leaf above the input's; the remainder then fails to exist as a
        # nonnegative strategy. Targets hit with equality never trigger it.
        for length, level in enumerate(levels):
            for i, x in enumerate(level):
                if x < 0:
                    raise PreconditionError(
                        f"no nonnegative remainder: {label} falls below its "
                        f"core by {Fraction(-x, den)} at state {bits.state(length, i)!r}"
                    )
        rests.append(StrategyTable._of_levels(den, levels, Kind.MARTINGALE, core.parity))
    m_rest, n_rest = rests
    return m_core, m_rest, n_core, n_rest
