"""Wire round-trips and the failure modes of malformed payloads."""

import copy
import functools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paritybet import (
    BlockSpec,
    Component,
    FractionBet,
    IntegerBet,
    Kind,
    Parity,
    ScaleBet,
    Sided,
    StageApprox,
    StrategyTable,
    TestArray,
    WireError,
    constant_program,
    diagonalize,
    dump_json,
    dumps,
    follow_program,
    frac_str,
    from_jsonable,
    load_json,
    parse_frac,
    parse_trace,
    to_jsonable,
    trace_lines,
    unit_bet_on_one,
    validate,
)

from conftest import edited_wire, parity_window, random_positive_martingale


def test_frac_str_and_parse():
    assert frac_str(Fraction(3, 4)) == "3/4"
    assert frac_str(2) == "2"
    assert parse_frac("3/4") == Fraction(3, 4)
    assert parse_frac(5) == Fraction(5)
    assert parse_frac("-7/2") == Fraction(-7, 2)


@pytest.mark.parametrize("junk", [True, False, "3/0", "x", 1.5, None, [1]])
def test_parse_frac_rejects(junk):
    with pytest.raises(WireError):
        parse_frac(junk)


@pytest.mark.parametrize("junk", [
    # outside the str(Fraction) grammar that Fraction() itself would take
    "1.5", "1e3", "1_000", " 3 ", "+2", "\uff13", "3/\uff14", "1/2\n",
    # rejected by the pattern alone: Fraction() would build a huge integer
    "1e999999999",
])
def test_parse_frac_rejects_off_grammar_strings(junk):
    with pytest.raises(WireError):
        parse_frac(junk)


def test_table_roundtrip_keeps_tags():
    t = StrategyTable(1, {"": Fraction(1), "0": Fraction(1, 2), "1": Fraction(3, 2)},
                      Kind.MARTINGALE, Parity.BETS_ON_ODD, Sided.ONE)
    back = from_jsonable(json.loads(dumps(t)))
    assert back == t
    assert back.parity is Parity.BETS_ON_ODD and back.sided is Sided.ONE


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 5))
def test_table_roundtrip_random(seed, depth):
    m = random_positive_martingale(random.Random(seed), depth)
    assert from_jsonable(to_jsonable(m)) == m


@pytest.mark.parametrize("bet,initial", [
    (None, Fraction(5, 4)),
    (FractionBet(Fraction(-1, 3)), Fraction(5, 4)),
    (IntegerBet(2, 0), Fraction(5)),
    (ScaleBet(Fraction(1, 2)), Fraction(5, 4)),
])
def test_program_roundtrip_each_bet(bet, initial):
    parity = Parity.BETS_ON_ODD
    p = constant_program(initial, bet, parity)
    back = from_jsonable(to_jsonable(p))
    assert back == p
    assert back.form == p.form


def test_follow_program_roundtrip_values_survive():
    p = follow_program("0110", Parity.BETS_ON_EVEN, Fraction(1, 4))
    back = from_jsonable(to_jsonable(p))
    for s in ["", "0", "01", "011", "0110", "1", "0111"]:
        assert back.value(s) == p.value(s)


def test_mixture_roundtrip(small_oscillating_pair):
    odd, even = small_oscillating_pair
    for mix in (odd, even):
        back = from_jsonable(to_jsonable(mix))
        assert back == mix
        assert back.final("0101") == mix.final("0101")


def test_int_strategy_roundtrip():
    eng = unit_bet_on_one()
    back = from_jsonable(to_jsonable(eng))
    assert back == eng
    assert back.program.value("11") == eng.program.value("11")


def test_test_array_roundtrip():
    arr = TestArray((("",), ("00", "10"), ("0000",)), flavor="half")
    back = from_jsonable(to_jsonable(arr))
    assert back == arr


def test_block_spec_roundtrip():
    spec = BlockSpec(Fraction(7, 16), Fraction(1, 2), Fraction(3, 16),
                     Fraction(1, 16), Fraction(1, 2))
    assert from_jsonable(to_jsonable(spec)) == spec


@pytest.mark.parametrize("obj, key, default", [
    (unit_bet_on_one(), "name", ""),
    (TestArray((("",), ("00", "10")), flavor="half"), "flavor", "block34"),
    (constant_program(1, None, Parity.BETS_ON_ODD), "rule.start", 0),
])
def test_optional_key_takes_its_default(obj, key, default):
    *outer, last = key.split(".")
    wire = to_jsonable(obj)
    node = functools.reduce(dict.__getitem__, outer, wire)
    del node[last]
    back = from_jsonable(wire)
    assert functools.reduce(getattr, key.split("."), back) == default
    node[last] = default
    assert to_jsonable(back) == wire


def test_dumps_is_sorted_and_stable():
    t = StrategyTable(1, {"": Fraction(1), "0": Fraction(2), "1": Fraction(0)},
                      Kind.MARTINGALE)
    a, b = dumps(t), dumps(t)
    assert a == b
    payload = json.loads(a)
    assert list(payload) == sorted(payload)


def test_dump_and_load_json(tmp_path):
    t = StrategyTable(1, {"": Fraction(1), "0": Fraction(1, 2), "1": Fraction(3, 2)},
                      Kind.MARTINGALE)
    path = tmp_path / "t.json"
    dump_json(t, str(path))
    assert from_jsonable(load_json(str(path))) == t


def test_load_json_invalid(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{nope")
    with pytest.raises(WireError):
        load_json(str(path))


def test_diagnosis_serializes_one_way():
    t = StrategyTable(1, {"": Fraction(1), "0": Fraction(1, 2), "1": Fraction(3, 2)},
                      Kind.MARTINGALE)
    payload = to_jsonable(validate(t))
    assert payload["type"] == "diagnosis"
    assert payload["martingale"] is True
    with pytest.raises(WireError):
        from_jsonable(payload)  # reports have no parser on purpose


_INT_PROGRAM = constant_program(5, IntegerBet(2, 0), Parity.BETS_ON_ODD)
_FRACTION_PROGRAM = constant_program(1, FractionBet(Fraction(1, 2)))


@pytest.mark.parametrize("payload", [
    "not a dict",
    {},
    {"type": "no_such_thing"},
    {"type": "table", "depth": "2", "kind": "martingale", "parity": "unrestricted",
     "sided": "unrestricted", "values": {}},
    {"type": "table", "depth": 0, "kind": "banana", "parity": "unrestricted",
     "sided": "unrestricted", "values": {"": "1"}},
    {"type": "table", "depth": 0, "kind": "martingale", "parity": "unrestricted",
     "sided": "unrestricted", "values": {"": True}},
    {"type": "program", "initial": "1", "form": "warped", "parity": "unrestricted",
     "sided": "unrestricted", "rule": {"states": [], "start": 0}},
    {"type": "mixture", "kind": "martingale", "parity": "bets_on_odd",
     "sided": "unrestricted", "components": "nope"},
    {"type": "test_array", "flavor": "half", "levels": [["01", 7]]},
    {"type": "block_spec", "m00": "1/2", "m10": "1/2", "n0": "1/2", "n1": "1/2"},
    {"type": []},
    {"type": {}},
    # kind, parity and sided have dataclass defaults but stay required
    {"type": "table", "depth": 0, "parity": "unrestricted", "sided": "unrestricted",
     "values": {"": "1"}},
    {"type": "mixture", "kind": "martingale", "parity": "unrestricted",
     "components": []},
    # a program's integers are JSON integers, never booleans
    edited_wire(_INT_PROGRAM, ("rule", "states", 1, "bet", "wager"), True),
    edited_wire(_INT_PROGRAM, ("rule", "start"), True),
    edited_wire(_INT_PROGRAM, ("rule", "states", 0, "on1"), True),
    # well typed, but the rebuilt object fails its own checks
    edited_wire(_FRACTION_PROGRAM, ("rule", "states", 0, "bet", "stake"), "2"),
    {"type": "table", "depth": 1, "kind": "martingale", "parity": "unrestricted",
     "sided": "unrestricted", "values": {"": "1", "0": "1"}},
])
def test_from_jsonable_rejects(payload):
    with pytest.raises(WireError):
        from_jsonable(payload)


def _tiny_trace():
    evens = constant_program(3, None, Parity.BETS_ON_EVEN)
    odd = constant_program(2, IntegerBet(1, 1), Parity.BETS_ON_ODD)
    from paritybet import IntStrategy
    return diagonalize(
        [IntStrategy(evens, "quiet"), IntStrategy(odd, "ones")],
        unit_bet_on_one(),
        target=10,
    )


def test_trace_roundtrip():
    trace = _tiny_trace()
    lines = list(trace_lines(trace))
    back = parse_trace(lines)
    assert back == trace
    # first and last lines carry the envelope
    assert json.loads(lines[0])["type"] == "trace_header"
    assert json.loads(lines[-1])["type"] == "summary"


def test_parse_trace_skips_blank_lines():
    trace = _tiny_trace()
    lines = list(trace_lines(trace))
    lines.insert(1, "")
    assert parse_trace(lines) == trace


def _retyped(line, key, value):
    d = json.loads(line)
    assert key in d
    d[key] = value
    return json.dumps(d)


@pytest.mark.parametrize("mutate", [
    lambda lines: lines[1:],                     # drop the header
    lambda lines: lines[:-1],                    # drop the summary
    lambda lines: lines + ["{bad json"],
    lambda lines: lines + ['{"type": "mystery"}'],
    lambda lines: lines + ["[1]"],               # JSON, but not an object
    lambda lines: lines[:1] + [_retyped(lines[1], "adversaries", 5)] + lines[2:],
    lambda lines: lines[:1] + [_retyped(lines[1], "engine", "x")] + lines[2:],
    lambda lines: lines[:-1] + [_retyped(lines[-1], "z", 5)],
])
def test_parse_trace_rejects(mutate):
    lines = list(trace_lines(_tiny_trace()))
    with pytest.raises(WireError):
        parse_trace(mutate(lines))


# -- fuzz: one key of a valid wire object deleted or given a junk value ---

_DELETE = "<delete>"
_JUNK = (_DELETE, None, True, 7, 1.5, "x", [], {})

_WIRE_OBJECTS = [
    to_jsonable(obj)
    for obj in (
        StrategyTable(1, {"": Fraction(1), "0": Fraction(1, 2), "1": Fraction(3, 2)},
                      Kind.MARTINGALE, Parity.BETS_ON_EVEN, Sided.ONE),
        follow_program("01", Parity.BETS_ON_EVEN, Fraction(1, 4)),
        constant_program(Fraction(5, 4), ScaleBet(Fraction(1, 2)), Parity.BETS_ON_ODD),
        StageApprox((Component(1, Fraction(1, 2), constant_program(
            1, FractionBet(Fraction(1, 3)), Parity.BETS_ON_ODD)),),
            Kind.MARTINGALE, Parity.BETS_ON_ODD),
        parity_window("w", 3, 1),
        TestArray((("",), ("00", "10")), flavor="half"),
        BlockSpec(Fraction(7, 16), Fraction(1, 2), Fraction(3, 16),
                  Fraction(1, 16), Fraction(1, 2)),
    )
]


def _trace_lines_by_kind():
    trace = diagonalize([parity_window("w0", 4, 3), parity_window("w1", 3, 2)],
                        unit_bet_on_one(), 12, mode="settle", dim0_blocks=2)
    lines = list(trace_lines(trace))
    by_kind = {}
    for i, line in enumerate(lines):
        by_kind.setdefault(json.loads(line).get("type"), []).append(i)
    assert len(by_kind) == 5  # header, records, checkpoints, certificates, summary
    return lines, list(by_kind.values())


_TRACE_LINES, _TRACE_KINDS = _trace_lines_by_kind()


def _slots(node, path=()):
    """The path of every object key and array index in a JSON tree."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _slots(child, path + (key,))


def _mutate(data, tree):
    """A copy of tree with one key or index deleted or given a junk value."""
    path = data.draw(st.sampled_from(list(_slots(tree))))
    junk = data.draw(st.sampled_from(_JUNK))
    tree = copy.deepcopy(tree)
    node = tree
    for key in path[:-1]:
        node = node[key]
    if junk == _DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = copy.deepcopy(junk)
    return tree


@settings(max_examples=600, deadline=None)
@given(st.data())
def test_mutated_wire_object_raises_only_wire_or_domain_errors(data):
    wire = _mutate(data, data.draw(st.sampled_from(_WIRE_OBJECTS)))
    try:
        from_jsonable(wire)
    except WireError:
        pass


@settings(max_examples=600, deadline=None)
@given(st.data())
def test_mutated_trace_line_raises_only_wire_or_domain_errors(data):
    i = data.draw(st.sampled_from(data.draw(st.sampled_from(_TRACE_KINDS))))
    lines = list(_TRACE_LINES)
    lines[i] = json.dumps(_mutate(data, json.loads(lines[i])))
    try:
        parse_trace(lines)
    except WireError:
        pass
