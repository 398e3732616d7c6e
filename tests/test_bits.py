import pytest
from hypothesis import given
from hypothesis import strategies as st

from paritybet import StructuralError
from paritybet import bits

bitstrings = st.text(alphabet="01", max_size=24)


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


@given(bitstrings, st.booleans())
def test_interleave_round_trip(x, longer):
    # interleave only accepts |x| == |y| or |x| == |y| + 1
    y = x[1:] if longer else x[::-1]
    z = bits.interleave(x, y)
    assert len(z) == len(x) + len(y)
    back_x, back_y = bits.deinterleave(z)
    assert (back_x, back_y) == (x, y)


def test_interleave_shape_guard():
    from paritybet import PreconditionError

    with pytest.raises(PreconditionError):
        bits.interleave("0", "011")
