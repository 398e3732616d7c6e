import random
from fractions import Fraction

import pytest

from paritybet import (
    BetProgram,
    Fsm,
    FsmState,
    IntStrategy,
    IntegerBet,
    Kind,
    Parity,
    StrategyTable,
    TestArray,
    constant_program,
    follow_program,
    FractionBet,
    mixture,
    to_jsonable,
)
from paritybet import bits

# a dataclass, not a test case
TestArray.__test__ = False


def parity_window(name, cap, steps, outcome=1):
    """Bets 1 on the given outcome at the first steps even positions,
    passes at odd positions, then freezes forever."""
    sts = []
    for i in range(steps):
        sts.append(FsmState(IntegerBet(1, outcome), 2 * i + 1, 2 * i + 1))
        sts.append(FsmState(None, 2 * i + 2, 2 * i + 2))
    sts.append(FsmState(None, 2 * steps, 2 * steps))
    prog = BetProgram(Fraction(cap), Fsm(tuple(sts)), "integer", Parity.BETS_ON_EVEN)
    return IntStrategy(prog, name=name)


def edited_wire(obj, path, value):
    """The wire form of obj with the value at a key path replaced."""
    wire = to_jsonable(obj)
    node = wire
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return wire


def random_positive_martingale(rng: random.Random, depth: int, root=None) -> StrategyTable:
    """Strictly positive martingale with small denominators."""
    vals = {"": Fraction(root) if root is not None else Fraction(rng.randint(1, 8), rng.randint(1, 4))}
    for state in bits.all_states(depth - 1):
        v = vals[state]
        den = rng.randint(2, 6)
        x = Fraction(rng.randint(1, 2 * den - 1), den)
        vals[state + "0"] = v * x
        vals[state + "1"] = v * (2 - x)
    return StrategyTable(depth, vals, Kind.MARTINGALE)


@pytest.fixture
def rng():
    return random.Random(20260815)


@pytest.fixture
def small_oscillating_pair():
    """2 + 2 component mixtures used across blocktest and cli tests."""
    odd = mixture(
        [
            constant_program(1, FractionBet(Fraction(-1, 2)), Parity.BETS_ON_ODD),
            follow_program("01" * 8, Parity.BETS_ON_ODD, Fraction(1, 2)),
        ],
        Parity.BETS_ON_ODD,
    )
    even = mixture(
        [
            constant_program(1, None, Parity.BETS_ON_EVEN),
            follow_program("10" * 8, Parity.BETS_ON_EVEN, Fraction(1, 2)),
        ],
        Parity.BETS_ON_EVEN,
    )
    return odd, even
