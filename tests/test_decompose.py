"""Parity factorization and the depth-2 block decomposition."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paritybet import (
    BlockSpec,
    Kind,
    Parity,
    PreconditionError,
    Sided,
    StrategyTable,
    block_decompose,
    combine,
    min_block_martingale,
    parity_factorize,
    unique_first_bit_martingale,
    validate,
)
from paritybet import bits

from conftest import random_positive_martingale


def test_factorize_identity_small():
    vals = {"": Fraction(2), "0": Fraction(1), "1": Fraction(3),
            "00": Fraction(1, 2), "01": Fraction(3, 2),
            "10": Fraction(3), "11": Fraction(3)}
    m = StrategyTable(2, vals)
    odd_part, even_part = parity_factorize(m)
    assert odd_part.value("") == 1 and even_part.value("") == 1
    for s in bits.all_states(2):
        assert 2 * odd_part.value(s) * even_part.value(s) == m.value(s)
    assert validate(odd_part).holds(Kind.MARTINGALE, Parity.BETS_ON_ODD, Sided.NONE)
    assert validate(even_part).holds(Kind.MARTINGALE, Parity.BETS_ON_EVEN, Sided.NONE)


def test_factorize_zero_cone_convention():
    # once the value dies, neither factor bets below that state
    vals = {"": Fraction(1), "0": Fraction(2), "1": Fraction(0),
            "00": Fraction(2), "01": Fraction(2),
            "10": Fraction(0), "11": Fraction(0)}
    m = StrategyTable(2, vals)
    odd_part, even_part = parity_factorize(m)
    assert even_part.value("1") == 0
    assert even_part.value("10") == 0 and even_part.value("11") == 0
    assert odd_part.value("1") == odd_part.value("10") == odd_part.value("11") == 1
    assert validate(odd_part).martingale and validate(even_part).martingale


def test_factorize_rejects_supermartingale():
    vals = {"": Fraction(1), "0": Fraction(1), "1": Fraction(0)}
    with pytest.raises(PreconditionError):
        parity_factorize(StrategyTable(1, vals, Kind.SUPERMARTINGALE))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 6))
def test_factorize_round_trip_property(seed, depth):
    m = random_positive_martingale(random.Random(seed), depth)
    odd_part, even_part = parity_factorize(m)
    root = m.value("")
    for s in bits.all_states(depth):
        assert root * odd_part.value(s) * even_part.value(s) == m.value(s)


def test_min_block_martingale_frozen():
    mb = min_block_martingale(Fraction(1), Fraction(1, 4))
    want = {"": Fraction(1, 2), "0": Fraction(1, 2), "1": Fraction(1, 2),
            "00": Fraction(1), "01": Fraction(0),
            "10": Fraction(1, 4), "11": Fraction(3, 4)}
    assert {s: mb.value(s) for s in bits.all_states(2)} == want
    assert validate(mb).holds(Kind.MARTINGALE, Parity.BETS_ON_ODD, Sided.NONE)


def test_min_block_root_is_half_max():
    for a, b in [(1, 1), (4, 1), (0, 3)]:
        mb = min_block_martingale(Fraction(a), Fraction(b))
        assert mb.value("") == Fraction(max(a, b), 2)
        assert mb.value("00") >= a and mb.value("10") >= b


def test_unique_first_bit_martingale():
    n = unique_first_bit_martingale(Fraction(3, 2), Fraction(1, 2))
    assert n.value("") == 1
    assert n.value("0") == n.value("00") == n.value("01") == Fraction(3, 2)
    assert n.value("1") == Fraction(1, 2)
    assert validate(n).holds(Kind.MARTINGALE, Parity.BETS_ON_EVEN, Sided.NONE)


def _block_pair():
    m = StrategyTable(2, {
        "": Fraction(1), "0": Fraction(1), "1": Fraction(1),
        "00": Fraction(3, 2), "01": Fraction(1, 2),
        "10": Fraction(1, 2), "11": Fraction(3, 2),
    }, Kind.MARTINGALE, Parity.BETS_ON_ODD)
    n = StrategyTable(2, {
        "": Fraction(1), "0": Fraction(3, 2), "1": Fraction(1, 2),
        "00": Fraction(3, 2), "01": Fraction(3, 2),
        "10": Fraction(1, 2), "11": Fraction(1, 2),
    }, Kind.MARTINGALE, Parity.BETS_ON_EVEN)
    return m, n


def test_block_decompose_round_trip():
    m, n = _block_pair()
    spec = BlockSpec(Fraction(1), Fraction(1, 4), Fraction(1), Fraction(1, 4), Fraction(3, 4))
    m_core, m_rest, n_core, n_rest = block_decompose(m, n, spec)
    for s in bits.all_states(2):
        assert m_core.value(s) + m_rest.value(s) == m.value(s)
        assert n_core.value(s) + n_rest.value(s) == n.value(s)
    assert validate(m_rest).holds(Kind.MARTINGALE, Parity.BETS_ON_ODD, Sided.NONE)
    assert validate(n_rest).holds(Kind.MARTINGALE, Parity.BETS_ON_EVEN, Sided.NONE)
    # cores are the canonical minimal pieces
    assert m_core.value("") == Fraction(1, 2)
    assert n_core.value("0") == 1 and n_core.value("1") == Fraction(1, 4)
    # recombining gives back martingales
    assert validate(combine([(1, m_core), (1, m_rest)])).martingale


def test_block_decompose_rejects_unreachable_targets():
    m, n = _block_pair()
    spec = BlockSpec(Fraction(2), Fraction(1, 4), Fraction(1), Fraction(1, 4), Fraction(3, 4))
    with pytest.raises(PreconditionError):
        block_decompose(m, n, spec)
    spec = BlockSpec(Fraction(1), Fraction(1, 4), Fraction(2), Fraction(1, 4), Fraction(3, 4))
    with pytest.raises(PreconditionError, match="level-1 targets"):
        block_decompose(m, n, spec)
    with pytest.raises(PreconditionError, match="depth-2"):
        block_decompose(StrategyTable(1, {"": 1, "0": 1, "1": 1}), n, spec)
    # a target met with room to spare lifts the core's sibling leaf: the
    # core of 00 >= 1/2, 10 >= 2 puts 3/2 at 01, where m has 1
    m = StrategyTable(2, {
        "": Fraction(1), "0": Fraction(1), "1": Fraction(1),
        "00": Fraction(1), "01": Fraction(1), "10": Fraction(2), "11": Fraction(0),
    }, Kind.MARTINGALE, Parity.BETS_ON_ODD)
    spec = BlockSpec(Fraction(1, 2), Fraction(2), Fraction(1), Fraction(1, 4), Fraction(3, 4))
    with pytest.raises(PreconditionError, match="no nonnegative remainder: m .* '01'"):
        block_decompose(m, n, spec)


def test_block_decompose_rejects_wrong_parity():
    m, n = _block_pair()
    spec = BlockSpec(Fraction(1), Fraction(1, 4), Fraction(1), Fraction(1, 4), Fraction(3, 4))
    with pytest.raises(PreconditionError):
        block_decompose(n, m, spec)
