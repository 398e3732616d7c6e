import pytest

from paritybet import StructuralError
from paritybet import bits


def test_check_bits_rejects_junk():
    with pytest.raises(StructuralError):
        bits.check_bits("012")
    assert bits.check_bits("0101") == "0101"


def test_level_and_all_states_counts():
    assert list(bits.level(0)) == [""]
    assert len(list(bits.level(3))) == 8
    assert len(list(bits.all_states(3))) == 15  # 2^4 - 1


def test_level_is_sorted():
    lv = list(bits.level(3))
    assert lv == sorted(lv)

