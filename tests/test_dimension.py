"""Scaled tests, the exact weight comparison, and growth-exponent reports."""

from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paritybet import (
    Kind,
    Parity,
    PreconditionError,
    StrategyTable,
    StructuralError,
    TestArray,
    compare_scaled_weight,
    empirical_dim_bound,
    log2_bracket,
    strategies_from_test,
    validate,
    validate_s_test,
)
from paritybet import bits, dimension

import fraction_reference as ref


def test_compare_scaled_weight_rational_cases():
    half = Fraction(1, 2)
    # 2^-1 vs 2^0
    assert compare_scaled_weight([2], half, 0) == -1
    # 2^-1 + 2^-1 vs 2^0: equality
    assert compare_scaled_weight([2, 2], half, 0) == 0
    # 2^-(1/3) vs 1: irrational weight below the bound
    assert compare_scaled_weight([1], Fraction(1, 3), 0) == -1
    assert compare_scaled_weight([3], Fraction(1, 3), 0) == -1
    # s = 1: one coefficient, so the weight is rational
    assert compare_scaled_weight([2], Fraction(1), 0) == -1
    assert compare_scaled_weight([1, 1], Fraction(1), 0) == 0
    assert compare_scaled_weight([0], Fraction(1), 1) == 1
    assert compare_scaled_weight([1, 2, 3], Fraction(1), -1) == -1


def test_compare_scaled_weight_irrational_above():
    # 3 * 2^-(2/3) = 1.88.. vs 2^-1
    assert compare_scaled_weight([1, 1, 1], Fraction(2, 3), 1) == 1


def test_compare_scaled_weight_empty_and_guards():
    assert compare_scaled_weight([], Fraction(1, 2), 0) == -1
    with pytest.raises(PreconditionError):
        compare_scaled_weight([1], Fraction(0), 0)
    with pytest.raises(PreconditionError):
        compare_scaled_weight([1], Fraction(3, 2), 0)
    with pytest.raises(PreconditionError):
        compare_scaled_weight([-1], Fraction(1, 2), 0)


@pytest.mark.parametrize("check", [
    lambda: compare_scaled_weight([1], 0.5, 0),
    lambda: validate_s_test(TestArray((("00",),), flavor="half"), 0.5),
], ids=["compare-scaled-weight", "validate-s-test"])
def test_a_float_scale_is_refused(check):
    # 0.5 is exactly 1/2, but a float scale is refused whatever its value
    with pytest.raises(PreconditionError, match=r"^not an exact rational: 0\.5$"):
        check()


def test_validate_s_test_levels():
    arr = TestArray((("000000",), ("0000000000",), ("00000000000000",)), flavor="free")
    verdicts = validate_s_test(arr, Fraction(1, 2))
    assert [v.strict for v in verdicts] == [True, True, True]
    assert [v.sign for v in verdicts] == [-1, -1, -1]
    assert [v.min_length for v in verdicts] == [6, 10, 14]


def test_validate_s_test_flags_heavy_level():
    # weight 2^-1 at level 1 is equality, not strict
    arr = TestArray((("00",), ("0000", "0010")), flavor="free")
    verdicts = validate_s_test(arr, Fraction(1, 2))
    assert verdicts[1].sign == 0 and not verdicts[1].strict


def test_strategies_from_test_unit_value():
    arr = TestArray((("1010",),), flavor="free")
    even_side, odd_side = strategies_from_test(arr)
    prefix_vals = lambda side: [side.eval(5, p) for p in ["", "1", "10", "101", "1010", "10101"]]
    assert prefix_vals(even_side) == [Fraction(1, 4), Fraction(1, 2), Fraction(1, 2), 1, 1, 1]
    assert prefix_vals(odd_side) == [Fraction(1, 4), Fraction(1, 4), Fraction(1, 2), Fraction(1, 2), 1, 1]
    # exactly 1 on every extension of the member
    for ext in ["10100", "10101", "101011"]:
        assert even_side.eval(5, ext) == 1
        assert odd_side.eval(5, ext) == 1


def test_strategies_from_test_tags_and_mass():
    arr = TestArray((("0000", "1100"), ("00000000",)), flavor="free")
    even_side, odd_side = strategies_from_test(arr)
    assert validate(even_side.table(2, 4)).holds(Kind.MARTINGALE, Parity.BETS_ON_EVEN, None or even_side.sided)
    assert validate(odd_side.table(2, 4)).holds(Kind.MARTINGALE, Parity.BETS_ON_ODD, odd_side.sided)
    assert even_side.value("") < 2
    assert odd_side.value("") < 2


def test_strategies_from_test_rejects_heavy_test():
    arr = TestArray((("00", "10"),), flavor="free")  # weight 1 at level 0
    with pytest.raises(PreconditionError):
        strategies_from_test(arr)
    with pytest.raises(PreconditionError, match="no members"):
        strategies_from_test(TestArray(((),), flavor="free"))


def test_strategies_from_test_rejects_empty_member():
    arr = TestArray(((("",)),), flavor="free")
    with pytest.raises((PreconditionError, StructuralError)):
        strategies_from_test(arr)


def test_log2_bracket_exact_powers():
    lo, hi = log2_bracket(Fraction(8), 10)
    assert lo == hi == 3
    lo, hi = log2_bracket(Fraction(1, 4), 10)
    assert lo == hi == -2


@pytest.mark.parametrize("v", [Fraction(3), Fraction(4)])
def test_log2_bracket_rejects_negative_precision(v):
    with pytest.raises(PreconditionError):
        log2_bracket(v, -1)
    with pytest.raises(PreconditionError):
        log2_bracket(v - v, 10)


def test_log2_bracket_traps_irrational():
    lo, hi = log2_bracket(Fraction(3), 30)
    assert lo < hi
    assert hi - lo <= Fraction(1, 2**30)
    # log2(3) = 1.58496...
    assert lo < Fraction(158497, 100000) < hi or lo < Fraction(1585, 1000)
    assert Fraction(1, 1) < lo and hi < Fraction(2, 1)


def test_log2_bracket_large_operand():
    v = Fraction(4, 3) ** 40
    lo, hi = log2_bracket(v, 20)
    want = 40 * (2 - Fraction(1585, 1000))  # 40 * log2(4/3) = 16.6..
    assert lo <= want + 1 and hi >= want - 1
    assert hi - lo <= Fraction(1, 2**20)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 2**200), st.integers(1, 2**200), st.integers(1, 64)
)
def test_log2_bracket_matches_the_fraction_reference(num, den, precision):
    v = Fraction(num, den)
    assert log2_bracket(v, precision) == ref.log2_bracket(v, precision)


# sqrt(2) to 200 bits, rounded down and up, and the reciprocal of the
# lower one: each sits so close to a digit boundary that the guard width
# doubles from 36 to 288 before every digit resolves
_ROOT2 = isqrt(2 << 400)


@pytest.mark.parametrize(
    "v, want",
    [
        (Fraction(_ROOT2, 1 << 200), (Fraction(524287, 1048576), Fraction(1, 2))),
        (Fraction(_ROOT2 + 1, 1 << 200), (Fraction(1, 2), Fraction(524289, 1048576))),
        (Fraction(1 << 200, _ROOT2), (Fraction(-1, 2), Fraction(-524287, 1048576))),
    ],
)
def test_log2_bracket_retries_with_a_doubled_guard(monkeypatch, v, want):
    seen = []
    digits = dimension._log2_digits

    def spy(num, den, m, precision, guard):
        got = digits(num, den, m, precision, guard)
        seen.append((guard, got))
        return got

    monkeypatch.setattr(dimension, "_log2_digits", spy)
    assert log2_bracket(v, 20) == want == ref.log2_bracket(v, 20)
    assert [g for g, _ in seen] == [36, 72, 144, 288]
    assert [got is None for _, got in seen] == [True, True, True, False]


def _doubling_table(path):
    vals = {s: (Fraction(2) ** len(s) if path.startswith(s) else Fraction(0))
            for s in bits.all_states(len(path))}
    return StrategyTable(len(path), vals, Kind.MARTINGALE)


def test_empirical_dim_bound_doubling_is_zero():
    rep = empirical_dim_bound(_doubling_table("0110"), "0110")
    assert rep.lower == 0 and rep.upper == 0
    assert all(s.exact == 0 for s in rep.samples)


def test_empirical_dim_bound_flat_is_one():
    flat = StrategyTable(3, {s: Fraction(1) for s in bits.all_states(3)})
    rep = empirical_dim_bound(flat, "010")
    assert rep.lower == 1 and rep.upper == 1


def test_empirical_dim_bound_dead_path_infinite():
    rep = empirical_dim_bound(_doubling_table("0110"), "1111")
    assert rep.upper is None
    assert any(s.infinite for s in rep.samples)
    assert not rep.samples[-1].matches_half_log2(2)


def test_empirical_dim_bound_guards():
    with pytest.raises(PreconditionError):
        empirical_dim_bound(_doubling_table("0110"), "")
    with pytest.raises(PreconditionError):
        empirical_dim_bound(_doubling_table("0110"), "01100")


def test_matches_half_log2_symbolic():
    # value (4/3)^n at even n has exponent log2(3)/2 exactly
    rep = empirical_dim_bound(
        _certificate_like(), "0000"
    )
    sample = rep.even_samples()[-1]
    assert sample.matches_half_log2(3)
    assert not sample.matches_half_log2(2)
    assert rep.half_log2_base() == 3
    # exponent 0 would need base 1
    assert empirical_dim_bound(_doubling_table("0110"), "0110").half_log2_base() is None


class _ByLength:
    """A lazy evaluator whose value at a state is the one drawn for its length."""

    def __init__(self, values):
        self.values = values

    def value(self, state):
        return self.values[len(state) - 1]


# positive rationals, powers of two among them, and zeros for the infinite samples
_VALUES = st.one_of(
    st.builds(Fraction, st.integers(1, 2**80), st.integers(1, 2**80)),
    st.integers(-80, 80).map(lambda k: Fraction(2) ** k),
    st.just(Fraction(0)),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_VALUES, min_size=1, max_size=64), st.integers(0, 40), st.data())
def test_exponent_samples_match_the_fraction_reference(values, precision, data):
    x = data.draw(st.text("01", min_size=len(values), max_size=len(values)))
    rep = empirical_dim_bound(_ByLength(values), x, precision=precision)
    want = tuple(ref.exponent_sample(v, n, precision) for n, v in enumerate(values, 1))
    assert rep.samples == want
    lows = [s.low() for s in want if not s.infinite]
    assert rep.lower == (min(lows) if lows else None)
    assert rep.upper == (None if len(lows) < len(want) else max(s.high() for s in want))


def test_empirical_dim_bound_checks_its_precision_and_bits():
    thirds = _ByLength([Fraction(1, 3)] * 2)
    # each bracket is 2^-precision / n wide, at precision 20 by default
    for precision, rep in ((20, empirical_dim_bound(thirds, "01")),
                           (1000, empirical_dim_bound(thirds, "01", precision=1000))):
        widths = [s.bracket[1] - s.bracket[0] for s in rep.samples]
        assert widths == [Fraction(1, n << precision) for n in (1, 2)]
    for precision, match in ((-1, "nonnegative, got -1"), (1001, "1001 is above 1000")):
        with pytest.raises(PreconditionError, match=match):
            empirical_dim_bound(thirds, "01", precision=precision)
    with pytest.raises(StructuralError, match="not a binary string"):
        empirical_dim_bound(thirds, "0a")


# v = 4^i / base^i at n = 2i is the true case for base; the others draw
# the value, the length and the base apart
_HALF_LOG_CASES = st.one_of(
    st.builds(lambda base, i: (Fraction(4**i, base**i), 2 * i, base), st.integers(2, 8), st.integers(0, 40)),
    st.tuples(_VALUES, st.integers(1, 64), st.integers(2, 8)),
)


@settings(max_examples=300, deadline=None)
@given(_HALF_LOG_CASES)
@example((Fraction(4**20, 3**20), 40, 3))
@example((Fraction(4**20, 3**20), 40, 2))
@example((Fraction(1), 1, 4))
def test_matches_half_log2_matches_the_fraction_reference(case):
    v, n, base = case
    sample = dimension.ExponentSample(n=n, value=v, exact=None, bracket=None, infinite=v == 0)
    assert sample.matches_half_log2(base) == ref.matches_half_log2(sample, base)


def _certificate_like():
    class FourThirds:
        def value(self, state):
            if set(state) <= {"0"} and len(state) % 2 == 0:
                return Fraction(4, 3) ** (len(state) // 2)
            if set(state) <= {"0"}:
                return Fraction(4, 3) ** ((len(state) - 1) // 2)
            return Fraction(0)

    return FourThirds()


def test_empirical_dim_bound_mixture_stage_dispatch():
    arr = TestArray((("1010",),), flavor="free")
    even_side, _ = strategies_from_test(arr)
    rep = empirical_dim_bound(even_side, "1010")
    assert rep.samples[-1].value == 1
    # a second level joins at stage 1; no stage means the last one
    two_level = TestArray((("1010",), ("101011",)), flavor="free")
    even_side, _ = strategies_from_test(two_level)
    assert even_side.last_stage() == 1
    rep = empirical_dim_bound(even_side, "101011")
    assert rep == empirical_dim_bound(even_side, "101011", stage=1)
    assert rep != empirical_dim_bound(even_side, "101011", stage=0)
