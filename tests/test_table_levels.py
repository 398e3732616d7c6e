"""Integer-level tables against the string-keyed Fraction reference.

tests/fraction_reference.py keeps the table operations as they were
written over Fraction dicts. On the same random inputs, every operation
here must give the same Diagnosis (witnesses and their order included),
an equal table and the same wire bytes, or the same error."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fraction_reference as ref
from paritybet import (
    BetProgram,
    Component,
    Fsm,
    FsmState,
    FractionBet,
    IntegerBet,
    Kind,
    PackingCertificate,
    Parity,
    ScaleBet,
    StageApprox,
    StrategyTable,
    TestArray,
    combine,
    dumps,
    floor,
    from_jsonable,
    min_block_martingale,
    parity_factorize,
    product,
    unique_first_bit_martingale,
    validate,
)
from paritybet import bits
from paritybet.serialize import WireError

from conftest import random_positive_martingale

SEEDS = st.integers(0, 2**32 - 1)
PARITIES = st.sampled_from([Parity.BETS_ON_ODD, Parity.BETS_ON_EVEN])


def outcome(f, *args, **kwargs):
    """What a call gives: its result, or its error's type and message."""
    try:
        return f(*args, **kwargs)
    except Exception as exc:  # compared, never swallowed
        return (type(exc), str(exc))


def same(got, want):
    """Equal results, equal wire bytes, equal witness order."""
    assert got == want
    if isinstance(want, tuple) and not isinstance(want[0], type):
        for g, w in zip(got, want):
            same(g, w)
    elif isinstance(want, StrategyTable):
        assert type(got) is StrategyTable
        assert dumps(got) == dumps(want)
    elif hasattr(want, "witnesses"):
        assert list(got.witnesses.items()) == list(want.witnesses.items())
        assert dumps(got) == dumps(want)


def rand_frac(rng, lo, hi):
    den = rng.choice([1, 2, 3, 4, 5, 6, 7, 9, 10, 12, 16])
    return Fraction(rng.randint(lo * den, hi * den), den)


def random_table(rng, depth):
    """A martingale, a leaky supermartingale or an arbitrary nonnegative
    table, with mixed denominators and, now and then, zero cones."""
    shape = rng.choice(["martingale", "supermartingale", "any"])
    vals = {"": rand_frac(rng, 0, 3) if rng.random() < 0.9 else Fraction(0)}
    for state in bits.all_states(depth - 1):
        v = vals[state]
        x = rng.choice([Fraction(0), Fraction(2), rand_frac(rng, 0, 2)])
        c0, c1 = v * x, v * (2 - x)
        if shape == "supermartingale" and rng.random() < 0.3:
            c0, c1 = c0 * rand_frac(rng, 0, 1), c1
        if shape == "any" and rng.random() < 0.3:
            c0, c1 = rand_frac(rng, 0, 4), rand_frac(rng, 0, 4)
        vals[state + "0"], vals[state + "1"] = c0, c1
    kind = Kind.MARTINGALE if shape == "martingale" else Kind.SUPERMARTINGALE
    return StrategyTable(depth, vals, kind)


def random_bet(rng):
    pick = rng.randrange(4)
    if pick == 0:
        return None
    if pick == 1:
        return FractionBet(rand_frac(rng, -1, 1))
    if pick == 2:
        return IntegerBet(rng.randint(0, 3), rng.randint(0, 1))
    return ScaleBet(rand_frac(rng, 0, 1))


def random_program(rng):
    size = rng.randint(1, 5)
    states = tuple(
        FsmState(random_bet(rng), rng.randrange(size), rng.randrange(size)) for _ in range(size)
    )
    return BetProgram(rand_frac(rng, 0, 4), Fsm(states, rng.randrange(size)))


def random_mixture(rng):
    comps = tuple(
        Component(rng.randint(0, 3), rand_frac(rng, 0, 2), random_program(rng))
        for _ in range(rng.randint(0, 4))
    )
    return StageApprox(comps, Kind.of_sum(c.program.kind for c in comps))


@settings(max_examples=150, deadline=None)
@given(SEEDS, st.integers(0, 8))
def test_validate_matches_reference(seed, depth):
    t = random_table(random.Random(seed), depth)
    same(validate(t), ref.validate(t))


@settings(max_examples=100, deadline=None)
@given(SEEDS, st.integers(0, 8))
def test_parity_factorize_matches_reference(seed, depth):
    t = random_table(random.Random(seed), depth)
    same(outcome(parity_factorize, t), outcome(ref.parity_factorize, t))


@settings(max_examples=100, deadline=None)
@given(SEEDS, st.integers(0, 8))
def test_combine_matches_reference(seed, depth):
    rng = random.Random(seed)
    parts = [(rand_frac(rng, 0, 3), random_table(rng, depth)) for _ in range(rng.randint(1, 3))]
    same(combine(parts), ref.combine(parts))


@settings(max_examples=60, deadline=None)
@given(SEEDS, st.integers(0, 8))
def test_product_matches_reference(seed, depth):
    rng = random.Random(seed)
    odd_f, even_f = ref.parity_factorize(random_positive_martingale(rng, max(depth, 1)))
    same(product(odd_f, even_f), ref.product(odd_f, even_f))
    # two factors that may bet at a common state
    a = StrategyTable(depth, random_table(rng, depth).values, Kind.MARTINGALE, Parity.BETS_ON_EVEN)
    b = StrategyTable(depth, random_table(rng, depth).values, Kind.MARTINGALE, Parity.BETS_ON_ODD)
    same(outcome(product, a, b), outcome(ref.product, a, b))


@settings(max_examples=150, deadline=None)
@given(SEEDS, st.integers(0, 8))
def test_program_table_matches_reference(seed, depth):
    p = random_program(random.Random(seed))
    same(p.to_table(depth), ref.to_table(p, depth))


@settings(max_examples=60, deadline=None)
@given(SEEDS, st.integers(0, 7))
def test_stage_table_matches_reference(seed, depth):
    m = random_mixture(random.Random(seed))
    for stage in range(5):
        same(m.table(stage, depth), ref.stage_table(m, stage, depth))


@settings(max_examples=100, deadline=None)
@given(SEEDS, st.integers(0, 7))
def test_plain_floor_matches_reference(seed, depth):
    rng = random.Random(seed)
    t = random_table(rng, depth + rng.randint(0, 1))
    # the reference backward-averages, which floors a supermartingale only;
    # test_plain_floor_is_the_largest_martingale_below covers the rest
    if validate(t).supermartingale:
        same(outcome(floor, t, depth), outcome(ref.floor, t, depth))
    m = random_mixture(rng)
    for stage in (None, 0, 2, 5):
        same(floor(m, depth, stage=stage), ref.floor(m, depth, stage=stage))


@settings(max_examples=150, deadline=None)
@given(SEEDS, st.integers(0, 6))
@example(1, 4)  # a martingale
@example(9, 4)  # a strict supermartingale
@example(5, 4)  # a table that is no supermartingale
def test_plain_floor_is_the_largest_martingale_below(seed, depth):
    t = random_table(random.Random(seed), depth)
    f = floor(t, depth)
    assert validate(f).martingale
    assert all(f.value(s) <= t.value(s) for s in bits.all_states(depth))
    # no martingale below t has a root above this cap
    caps = {s: t.value(s) for s in bits.level(depth)}
    for length in range(depth - 1, -1, -1):
        for s in bits.level(length):
            caps[s] = min(t.value(s), (caps[s + "0"] + caps[s + "1"]) / 2)
    assert f.value("") == caps[""]


@settings(max_examples=100, deadline=None)
@given(SEEDS, st.integers(0, 3), PARITIES)
def test_parity_floor_matches_reference(seed, half, parity):
    rng = random.Random(seed)
    depth = 2 * half
    t = random_table(rng, depth)
    same(outcome(floor, t, depth, parity), outcome(ref.floor, t, depth, parity))
    m = random_mixture(rng)
    prev = ref_prev = None
    for stage in (0, 1, 2, 3, None):
        got = outcome(floor, m, depth, parity, stage=stage, prev=prev)
        want = outcome(ref.floor, m, depth, parity, stage=stage, prev=ref_prev)
        same(got, want)
        if isinstance(got, StrategyTable):
            prev, ref_prev = got, want


@settings(max_examples=60, deadline=None)
@given(SEEDS, PARITIES)
@example(154, Parity.BETS_ON_ODD)  # no feasible split at '0'
@example(219, Parity.BETS_ON_EVEN)  # no feasible split at '10'
def test_chained_floor_errors_match_reference(seed, parity):
    # a prev from another input: the split or the root check may fail
    rng = random.Random(seed)
    prev = ref.floor(random_table(rng, 4), 4, parity)
    t = random_table(rng, 4)
    same(outcome(floor, t, 4, parity, prev=prev), outcome(ref.floor, t, 4, parity, prev=prev))


@settings(max_examples=60, deadline=None)
@given(SEEDS, st.integers(1, 4))
def test_packing_certificate_matches_reference(seed, k):
    # a block34 array: up to three of the four extensions per member
    rng = random.Random(seed)
    levels = [("",)]
    for _ in range(1, k):
        levels.append(tuple(
            p + b
            for p in levels[-1]
            for b in rng.sample(["00", "01", "10", "11"], rng.randint(0, 3))
        ))
    cert = PackingCertificate(TestArray(tuple(levels)))
    want = {s: ref.certificate_value(cert, s) for s in bits.all_states(9)}
    assert {s: cert.value(s) for s in want} == want
    for depth in range(9):
        table = cert.to_table(depth)
        assert table.values == {s: want[s] for s in bits.all_states(depth)}


# values a table's wire object may hold that are off its grammar, negative,
# not in lowest terms, or not rationals at all
_ODD_VALUES = ("2/4", "-1/2", "1/0", " 1", "1_0", "9" * 5000, 0, 7, -3, True, 1.5, None)
_NOT_BINARY = ("2", "0a", " 0", "0b1", "1_0", 1)


def random_payload(rng):
    """A table object as a wire file could hold it: whole, or broken in
    its keys, its values or its other fields, a few faults at a time, in
    a key order that is sometimes shuffled."""
    depth = rng.randint(0, 3)
    t = random_table(rng, depth)
    values = {s: str(f) if rng.random() < 0.8 or f.denominator > 1 else f.numerator
              for s, f in t.values.items()}
    payload = {"type": "table", "depth": depth, "values": values, "kind": t.kind.value,
               "parity": "unrestricted", "sided": "unrestricted"}
    for _ in range(rng.choice((0, 0, 1, 1, 2, 3))):
        fault = rng.choice(("not binary", "too long", "missing", "extra", "value", "value",
                            "depth", "tag", "values", "field"))
        long_key = "".join(rng.choice("01") for _ in range(depth + rng.randint(1, 2)))
        if fault == "not binary":
            values[rng.choice(_NOT_BINARY)] = "1"
        elif fault == "too long" and values:  # as many keys as states, one too long
            del values[rng.choice(list(values))]
            values[long_key] = "1"
        elif fault == "missing" and values:
            del values[rng.choice(list(values))]
        elif fault == "extra":
            values[long_key] = "1"
        elif fault == "value" and values:
            values[rng.choice(list(values))] = rng.choice(_ODD_VALUES)
        elif fault == "depth":
            payload["depth"] = rng.choice((-1, "2", True, depth + 1, max(depth - 1, 0), 64))
        elif fault == "tag":
            name = rng.choice(("kind", "parity", "sided"))
            payload[name] = rng.choice(("martingal", "none", None, 1))
        elif fault == "values":
            payload["values"] = rng.choice(([], "x", None, 3))
        elif fault == "field":
            payload.pop(rng.choice(("depth", "values", "kind", "parity", "sided")), None)
    if type(payload.get("values")) is dict and rng.random() < 0.5:
        items = list(payload["values"].items())
        rng.shuffle(items)
        payload["values"] = dict(items)
    return payload


def _as_given(rng, v):
    """A wire value as a caller might hand it to the constructor: most
    rationals as Fractions, the rest as they are."""
    if type(v) is str and rng.random() < 0.8:
        try:
            return ref.parse_frac(v)
        except WireError:
            return v
    return v


@settings(max_examples=300, deadline=None)
@given(SEEDS)
def test_wire_tables_match_the_reference(seed):
    payload = random_payload(random.Random(seed))
    same(outcome(from_jsonable, payload), outcome(ref.read_table, payload))


@settings(max_examples=300, deadline=None)
@given(SEEDS)
def test_constructor_matches_the_reference(seed):
    rng = random.Random(seed)
    payload = random_payload(rng)
    values = payload.get("values")
    if type(values) is dict:
        values = {k: _as_given(rng, v) for k, v in values.items()}
    args = (payload.get("depth", 2), values, Kind.SUPERMARTINGALE, Parity.BETS_ON_ODD)
    got = outcome(StrategyTable, *args)
    same(got, outcome(ref.table, *args))
    if isinstance(got, StrategyTable):  # read back, every value is a Fraction
        assert set(map(type, got.values.values())) == {Fraction}


@pytest.mark.parametrize("odd", _ODD_VALUES)
def test_each_odd_value_is_met_as_the_reference_meets_it(odd):
    good = {"": "1", "0": "1/2", "1": "3/2"}
    for key in good:
        payload = {"type": "table", "depth": 1, "values": {**good, key: odd},
                   "kind": "martingale", "parity": "unrestricted", "sided": "unrestricted"}
        same(outcome(from_jsonable, payload), outcome(ref.read_table, payload))
        caps = {k: ref.parse_frac(v) for k, v in good.items()}
        same(outcome(StrategyTable, 1, {**caps, key: odd}),
             outcome(ref.table, 1, {**caps, key: odd}))


_CAPITALS = (st.fractions(min_value=-1, max_value=8, max_denominator=360)
             | st.integers(-1, 8) | st.sampled_from(["3/4", "x"]))


@pytest.mark.parametrize("core, reference", [
    (min_block_martingale, ref.min_block_martingale),
    (unique_first_bit_martingale, ref.unique_first_bit_martingale),
])
@settings(max_examples=100, deadline=None)
@given(_CAPITALS, _CAPITALS)
def test_block_cores_match_the_reference(core, reference, a, b):
    same(outcome(core, a, b), outcome(reference, a, b))


def test_values_are_read_only():
    t = StrategyTable(1, {"": 1, "0": 2, "1": 0})
    f = floor(t, 1)
    wire = dumps(t)
    for table in (t, f):
        with pytest.raises(TypeError):
            table.values["0"] = Fraction(9)
        with pytest.raises(TypeError):
            del table.values["1"]
        assert table.value("0") == 2 and dumps(table) == wire
    assert dict(f.values) == {"": 1, "0": 2, "1": 0}


def test_equal_tables_over_different_denominators_are_equal():
    # the floor halves its way up over a denominator of 2^depth; the
    # public constructor sees whole numbers only
    t = StrategyTable(2, {"": 2, "0": 2, "1": 2, "00": 2, "01": 2, "10": 2, "11": 2})
    f = floor(t, 2)
    assert f == t and t == f
    assert f == StrategyTable(2, dict(f.values))
    assert f != StrategyTable(2, {**dict(f.values), "11": 3})
    assert f.values == {s: Fraction(2) for s in bits.all_states(2)}
    assert combine([(Fraction(1, 3), t), (Fraction(2, 3), f)]) == t
