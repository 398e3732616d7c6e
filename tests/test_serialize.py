"""Wire round-trips and the failure modes of malformed payloads."""

import copy
import enum
import functools
import gc
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paritybet import (
    BitRecord,
    BlockSpec,
    Component,
    DiagTrace,
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
    block_decompose,
    constant_program,
    diagonalize,
    dumps,
    follow_program,
    from_jsonable,
    load_json,
    min_block_martingale,
    parity_factorize,
    parse_frac,
    parse_trace,
    to_jsonable,
    trace_lines,
    unique_first_bit_martingale,
    unit_bet_on_one,
    validate,
)

from conftest import edited_wire, parity_window, random_positive_martingale


def test_frac_str_and_parse():
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


# every string the pattern admits, and the edges Fraction() meets on them
_RATIONAL_TEXT = st.from_regex(r"-?[0-9]+(?:/[0-9]+)?", fullmatch=True) | st.sampled_from(
    ["-0", "-0/7", "007/010", "1/0", "-0/0", "1" * 5000, "-" + "9" * 5000 + "/3"]
)


@settings(max_examples=300, deadline=None)
@given(_RATIONAL_TEXT)
def test_parse_frac_matches_fraction_parse(s):
    try:
        want = Fraction(s)
    except (ValueError, ZeroDivisionError):  # "1/0", or past the int digit limit
        with pytest.raises(WireError, match="bad rational"):
            parse_frac(s)
    else:
        assert parse_frac(s) == want


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
        assert back.value("0101") == mix.value("0101")


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


# JSON trees of every kind _encode returns, with str keys: non-ASCII text,
# control characters and a lone surrogate, big and negative ints, bools,
# None, and empty and nested containers
_TEXT = st.text(st.characters(exclude_categories=()), max_size=6) | st.sampled_from(
    ["", "\ud800", "\x00\x1f\x7f", "caf\u00e9", "\u2028", '"\\/\b\t', "\U0001f600"]
)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(10**50), 10**50) | _TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(_JSON)
def test_dumps_matches_json_module(x):
    assert dumps(x) == json.dumps(x, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("bad", [{1: "a"}, {"a": [{None: 0}]}, {"a": 1, 2: "b"}])
def test_dumps_refuses_a_key_that_is_not_a_str(bad):
    with pytest.raises(WireError, match="keys must be strings"):
        dumps(bad)


def test_dumps_of_tables_nested_in_containers_matches_json_module(rng):
    m = random_positive_martingale(rng, 4)
    spec = BlockSpec(Fraction(3, 4), Fraction(2, 3), Fraction(1, 2), Fraction(7, 5), Fraction(3))
    parts = block_decompose(min_block_martingale(Fraction(3, 4), Fraction(2, 3)),
                            unique_first_bit_martingale(Fraction(1, 2), Fraction(7, 5)), spec)
    for x in (parity_factorize(m), list(parts), {"m": m, "rest": [parts[1], (m, None)]},
              [[validate(m), m], {"empty": {}}]):
        assert dumps(x) == json.dumps(to_jsonable(x), sort_keys=True, indent=2) + "\n"


class _PairTag(enum.Enum):
    PAIR = (0, 1)


def test_an_enum_whose_value_is_not_plain_json_is_refused():
    for write in (dumps, to_jsonable):
        with pytest.raises(WireError, match="cannot serialize _PairTag"):
            write({"tag": _PairTag.PAIR})


def test_a_class_with_no_wire_reader_is_a_type_error():
    with pytest.raises(TypeError, match="no wire reader for <class 'float'>"):
        from_jsonable({}, float)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 8), st.sampled_from([1, 2, 12, 360, 2**61 - 1]), st.randoms())
def test_table_values_spelled_from_levels(depth, den, rng):
    # zero entries, whole ones, and numerators sharing factors with den
    levels = [[rng.choice((0, den, rng.randrange(4 * den))) for _ in range(1 << n)]
              for n in range(depth + 1)]
    t = StrategyTable._of_levels(den, levels, Kind.SUPERMARTINGALE)
    # the reference reads a second table, so t's lazy cache stays empty
    other = StrategyTable._of_levels(den, levels, Kind.SUPERMARTINGALE)
    want = {s: str(f) for s, f in other.values.items()}
    wire = to_jsonable(t)
    assert wire["values"] == want
    assert dumps(t) == json.dumps({**wire, "values": want}, sort_keys=True, indent=2) + "\n"
    assert len(t.values._read) == 0


def test_dumps_of_a_table_leaves_no_garbage_and_no_fractions():
    t = constant_program(1, FractionBet(Fraction(1, 5))).to_table(10)
    gc.collect()
    gc.disable()
    try:
        text = dumps(t)
        # a self-calling closure would sit in a cycle holding every text
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert len(t.values._read) == 0
    assert json.loads(text)["values"]["1111111111"] == "60466176/9765625"


def test_dump_and_load_json(tmp_path):
    t = StrategyTable(1, {"": Fraction(1), "0": Fraction(1, 2), "1": Fraction(3, 2)},
                      Kind.MARTINGALE)
    path = tmp_path / "t.json"
    path.write_text(dumps(t))
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


def test_parse_trace_skips_lines_of_whitespace():
    # lines as a file gives them, each ending in a newline, with lines of
    # whitespace only among them
    trace = _tiny_trace()
    lines = [line + "\n" for line in trace_lines(trace)]
    lines[1:1] = ["\n", " \t\r\n"]
    assert parse_trace(lines) == trace


def test_trace_lines_spell_any_record_as_the_general_rule():
    # the column writer against json.dumps of the record's plain-JSON form,
    # on records built by hand: escapes, a bool, a list, no adversaries
    records = (
        BitRecord("1", "favored", 6, (4, 7)),
        BitRecord("0", 'q"\u00e9', 2**70, (4, 7)),
        BitRecord("\n", "pad", True, [1, 2]),
        BitRecord("1", "pad", 3, ()),
        BitRecord("1", "pad", 3, ()),
    )
    trace = DiagTrace("N", "greedy", 1, "1", records, (), (), False)
    want = [json.dumps(to_jsonable(r), sort_keys=True) for r in records]
    assert list(trace_lines(trace))[1:-1] == want


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
    # a second header or summary, each well formed on its own
    lambda lines: lines[:1] + [_retyped(_retyped(lines[0], "engine", "X"), "target", 9)] + lines[1:],
    lambda lines: lines + [_retyped(_retyped(lines[-1], "z", "0"), "reached", False)],
])
def test_parse_trace_rejects(mutate):
    lines = list(trace_lines(_tiny_trace()))
    with pytest.raises(WireError):
        parse_trace(mutate(lines))


def test_parse_trace_names_a_repeated_header_or_summary():
    lines = list(trace_lines(_tiny_trace()))
    for doubled, name in ((lines[:1] + lines, "trace_header"), (lines + lines[-1:], "summary")):
        with pytest.raises(WireError, match=f"^trace has a second {name} line$"):
            parse_trace(doubled)


def test_parse_trace_names_a_line_that_is_not_json():
    lines = list(trace_lines(_tiny_trace()))
    for at in (0, 1, 2, len(lines)):
        with pytest.raises(WireError, match="^bad trace line: "):
            parse_trace(lines[:at] + ["{bad json"] + lines[at:])


def test_parse_trace_reads_a_record_line_as_the_wire_rule_does():
    # a record line is read into the columns directly; a bad one fails with
    # the message the generic BitRecord reader gives, and other keys pass
    lines = list(trace_lines(_tiny_trace()))
    rec = json.loads(lines[1])
    bad_records = [
        ({**rec, "engine": True}, "engine: expected int, got bool"),
        ({k: v for k, v in rec.items() if k != "rule"}, "missing key 'rule'"),
        ({**rec, "bit": 1}, "bit: expected str, got int"),
        ({**rec, "adversaries": 5}, "adversaries: expected an array, got int"),
        ({**rec, "adversaries": [1, False]}, "adversaries: expected int, got bool"),
    ]
    for bad, message in bad_records:
        for read in (lambda: parse_trace([lines[0], json.dumps(bad), *lines[2:]]),
                     lambda: from_jsonable(bad, BitRecord)):
            with pytest.raises(WireError) as caught:
                read()
            assert str(caught.value) == message
    extra = [lines[0], json.dumps({**rec, "note": [1]}), *lines[2:]]
    assert parse_trace(extra) == parse_trace(lines)


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
