"""JSON wire formats: exact rationals as strings, deterministic output.

Strategy tables, bet programs, mixtures, adversary strategies, test
arrays, block specs and duel traces round-trip. Reports (diagnoses,
level verdicts, growth verdicts, dimension reports, oracle reports)
serialize one way, out. One rule, from each dataclass's fields, writes
every object and reads back the ones that round-trip. Every rational
crosses the wire as str(Fraction), so nothing is ever rounded. A table's
values are read straight into its integer levels, with no Fraction per
state. dumps writes the text itself, byte for byte as
json.dumps(sort_keys=True, indent=2) would, and spells a table's values
from its integer levels; a file written twice from the same objects is
byte-identical.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import fields
from enum import Enum
from fractions import Fraction
from math import gcd
from types import NoneType, UnionType
from typing import Union, get_args, get_origin, get_type_hints

from .blocktest import (
    BlockReport,
    GrowthLine,
    LevelReport,
    ParityTestResult,
    TestArray,
)
from .builder import (
    BuilderState,
    GrowthVerdict,
    RequestLedger,
    StageEvent,
    StageParams,
)
from .decompose import BlockSpec
from .diagonal import (
    BitRecord,
    Checkpoint,
    ConeCertificate,
    DiagTrace,
    IntStrategy,
    _Records,
)
from .dimension import DimReport, ExponentSample, LevelVerdict
from .errors import PreconditionError, StructuralError
from .oracles import OracleReport
from .programs import (
    BetProgram,
    Component,
    FractionBet,
    Fsm,
    FsmState,
    IntegerBet,
    ScaleBet,
    StageApprox,
)
from .strategy import Diagnosis, StrategyTable, _entries, _Values


class WireError(Exception):
    """Malformed wire data; distinct from domain errors on purpose so the
    command line can map it to its own exit code."""


# str(Fraction) form in ASCII digits, checked before int() reads its parts,
# so exponents, underscores and padding never reach it
_RATIONAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def parse_frac(s) -> Fraction:
    return Fraction(*_rational_ints(s))


def _rational_ints(s) -> tuple[int, int]:
    """The numerator and the positive denominator a wire rational is
    written with, not reduced: a JSON integer, or a string in the grammar
    of str(Fraction)."""
    if isinstance(s, bool):
        raise WireError(f"expected a rational, got {s!r}")
    if isinstance(s, int):
        return s, 1
    if isinstance(s, str):
        if _RATIONAL.fullmatch(s) is not None:
            num, _, den = s.partition("/")
            try:  # int() refuses a string past Python's digit limit
                num, den = int(num), int(den or 1)
            except ValueError:
                den = 0
            if den:
                return num, den
        raise WireError(f"bad rational {s[:40]!r}")
    raise WireError(f"expected a rational, got {type(s).__name__}")


# Every dataclass the wire writes, with its tag. Such an object becomes
# its fields plus its tag under "type" (under "bet" for bets); machines,
# their states, components, duel bit records and oracle reports carry no tag.
_TAGS = {
    StrategyTable: "table",
    BetProgram: "program",
    Fsm: None,
    FsmState: None,
    FractionBet: "fraction",
    IntegerBet: "integer",
    ScaleBet: "scale",
    Component: None,
    BitRecord: None,
    StageApprox: "mixture",
    IntStrategy: "int_strategy",
    TestArray: "test_array",
    BlockSpec: "block_spec",
    Diagnosis: "diagnosis",
    BlockReport: "block_report",
    LevelReport: "level_report",
    ParityTestResult: "parity_test_result",
    GrowthLine: "growth_line",
    LevelVerdict: "level_verdict",
    ExponentSample: "exponent_sample",
    DimReport: "dim_report",
    GrowthVerdict: "growth_verdict",
    ConeCertificate: "cone_certificate",
    Checkpoint: "checkpoint",
    StageParams: "stage_params",
    StageEvent: "stage_event",
    BuilderState: "builder_state",
    RequestLedger: "ledger",
    OracleReport: None,
}

# the key a tag is written under, where it is not "type"
_TAG_KEYS = dict.fromkeys((FractionBet, IntegerBet, ScaleBet), "bet")

# Keys a report derives rather than stores; each names a method without
# arguments, or a property, whose value is written under that key.
_DERIVED = {
    DimReport: ("half_log2_base",),
    GrowthVerdict: ("ok",),
    RequestLedger: ("kraft_weight",),
    OracleReport: ("passed",),
}

# class -> (tag key, tag, field names, derived keys), fixed at import
_SHAPES = {
    cls: (
        _TAG_KEYS.get(cls, "type"),
        tag,
        tuple(f.name for f in fields(cls)),
        _DERIVED.get(cls, ()),
    )
    for cls, tag in _TAGS.items()
}


# JSON scalars; containers copy these without a call per element
_PLAIN = frozenset((str, int, bool, type(None)))


def _encode(obj, text=False):
    """The plain-JSON form of obj; with text, a table's values stay as they
    are, for _text to spell from the levels."""
    cls = type(obj)
    if cls is Fraction:
        return str(obj)
    if cls in _PLAIN:
        return obj
    if cls is list or cls is tuple:
        return [x if type(x) in _PLAIN else _encode(x, text) for x in obj]
    if cls is dict:
        return {k: v if type(v) in _PLAIN else _encode(v, text) for k, v in obj.items()}
    shape = _SHAPES.get(cls)
    if shape is not None:
        key, tag, names, derived = shape
        out = {}
        for name in names:
            v = getattr(obj, name)
            out[name] = v if type(v) in _PLAIN else _encode(v, text)
        if tag is not None:
            out[key] = tag
        for name in derived:
            v = getattr(obj, name)
            out[name] = _encode(v() if callable(v) else v, text)
        return out
    if cls is _Values:
        return obj if text else dict(zip(*_spelled(obj)))
    if isinstance(obj, Enum) and type(value := obj.value) in _PLAIN:
        return value
    raise WireError(f"cannot serialize {cls.__name__}")


def _spelled(values: _Values) -> tuple[list, list]:
    """A table's states and its values as str(Fraction) spells them, both
    in preorder, which is sorted key order ("", "0", "00", ..., "1"). Each
    value is spelled from its level numerator and the shared denominator
    with one gcd and no Fraction."""
    den = values.den
    levels = [[str(x // den) if (g := gcd(x, den)) == den else f"{x // g}/{den // g}"
               for x in lv] for lv in values.levels]
    states, spelled = [], []
    _preorder(levels, 0, 0, "", states, spelled)
    return states, spelled


def _preorder(levels, n, i, state, states, spelled):
    states.append(state)
    spelled.append(levels[n][i])
    n += 1
    if n < len(levels):
        _preorder(levels, n, 2 * i, state + "0", states, spelled)
        _preorder(levels, n, 2 * i + 1, state + "1", states, spelled)


def to_jsonable(obj):
    """Plain-JSON form of a wire object, a report, or a structure of them.

    One rule: None, str, int and bool pass through, a Fraction becomes
    str(Fraction), an enum its value, lists, tuples and dicts recurse, a
    table's values become an object of state to str(Fraction), and a
    dataclass in _TAGS becomes its fields plus its tag and any _DERIVED
    keys. Deterministic.
    """
    # recursion stays on _encode, so a wrapper of this public name (the
    # bench tracer's spans) sees one call per object written, not per value
    return _encode(obj)


# Fields a reader may find missing, left to the dataclass default. Other
# defaults (a table's kind and tags) are still required on the wire.
_OPTIONAL = {IntStrategy: ("name",), TestArray: ("flavor",), Fsm: ("start",)}


def _read_values(v) -> tuple[list, list, list]:
    """A table's values object read into its keys and the two ints each
    rational is written with, in the object's order; no Fraction is built."""
    if type(v) is not dict:
        raise WireError(f"expected an object, got {type(v).__name__}")
    nums, dens = [], []
    for x in v.values():
        num, den = _rational_ints(x)
        nums.append(num)
        dens.append(den)
    return list(v), nums, dens


def _wire_table(depth, values, kind, parity, sided) -> StrategyTable:
    """The table whose values _read_values read, checked as the public
    constructor checks and built on its integer levels, brought to the
    least denominator with one gcd."""
    if depth < 0:
        raise StructuralError("depth must be >= 0")
    return StrategyTable._of_levels(*_entries(depth, *values), kind, parity, sided)


# declared type -> the function that checks and decodes a JSON value of it;
# a table's values field is read as _Values, the type it is kept as, into
# the ints its levels are built from (see _build_reader)
_READERS = {Fraction: parse_frac, _Values: _read_values}


def _reader(tp):
    """The reader of declared type tp, built on first use and kept, so a
    class's field readers are built once and not per value."""
    read = _READERS.get(tp)
    if read is None:
        read = _READERS[tp] = _build_reader(tp)
    return read


def _build_reader(tp):
    if tp in _SHAPES:
        hints, make = get_type_hints(tp), tp
        if tp is StrategyTable:
            hints["values"], make = _Values, _wire_table
        spec = [(name, hints[name]) for name in _SHAPES[tp][2]]
        return _object_reader(make, spec, _OPTIONAL.get(tp, ()))
    if get_origin(tp) in (Union, UnionType):
        return _tagged_reader(get_args(tp))
    if tp in (int, str, bool):
        def read(v):
            if type(v) is not tp:  # so a bool is not an int
                raise WireError(f"expected {tp.__name__}, got {type(v).__name__}")
            return v
        return read
    if isinstance(tp, type) and issubclass(tp, Enum):
        members, what = {m.value: m for m in tp}, tp.__name__.lower()

        def read(v):
            member = members.get(v) if type(v) is str else None
            if member is None:
                raise WireError(f"bad {what} {repr(v)[:40]}")
            return member
        return read
    args = get_args(tp)
    if get_origin(tp) is tuple and args[1:] == (...,):
        item = _reader(args[0])

        def read(v):
            if type(v) is not list:
                raise WireError(f"expected an array, got {type(v).__name__}")
            return tuple(map(item, v))
        return read
    raise TypeError(f"no wire reader for {tp!r}")


def _object_reader(make, spec, optional=()):
    """Reader of a JSON object holding a key for each (name, type) of spec,
    decoded by that type's reader and passed to make by name; only the
    names in optional may be missing. Other keys (the tag) are ignored.
    The object either rebuilds or is a WireError: a StructuralError from
    make means the values are well typed but do not form a valid object."""
    readers = [(name, _reader(tp), name in optional) for name, tp in spec]

    def read(d):
        if type(d) is not dict:
            raise WireError(f"expected an object, got {type(d).__name__}")
        kwargs = {}
        for name, read_value, may_miss in readers:
            if name in d:
                try:
                    kwargs[name] = read_value(d[name])
                except WireError as exc:
                    raise WireError(f"{name}: {exc}") from exc
            elif not may_miss:
                raise WireError(f"missing key {name!r}")
        try:
            return make(**kwargs)
        except StructuralError as exc:
            raise WireError(str(exc)) from exc
    return read


def _tagged_reader(classes):
    """Reader of an object of one of classes, picked by the tag they share
    a key for; a NoneType among them admits JSON null."""
    tagged = [cls for cls in classes if cls is not NoneType]
    key = _SHAPES[tagged[0]][0]
    by_tag = {_TAGS[cls]: _reader(cls) for cls in tagged}
    nullable = len(tagged) < len(classes)

    def read(d):
        if d is None and nullable:
            return None
        if type(d) is not dict:
            raise WireError(f"expected an object, got {type(d).__name__}")
        if key not in d:
            raise WireError(f"missing key {key!r}")
        tag = d[key]
        read_tagged = by_tag.get(tag) if type(tag) is str else None
        if read_tagged is None:
            raise WireError(f"unknown {key} tag {repr(tag)[:40]}")
        return read_tagged(d)
    return read


# the objects that round-trip, read by their "type" tag; reports do not
_read_wire_object = _reader(
    StrategyTable | BetProgram | StageApprox | IntStrategy | TestArray | BlockSpec
)


def from_jsonable(d, cls=None):
    """Rebuild a round-trip wire object from its plain-JSON form, read by
    the rule to_jsonable writes with: each field's key, decoded by the
    field's declared type. With cls, d is read as an object of that class
    and no tag is consulted (the stage machine's components carry none)."""
    return _read_wire_object(d) if cls is None else _reader(cls)(d)


def dumps(obj) -> str:
    """The bytes of json.dumps(to_jsonable(obj), sort_keys=True, indent=2)
    plus a newline, written directly; a key that is not a str is a WireError,
    and an int past Python's digit limit, which the reader refuses, a PreconditionError."""
    try:
        return _text(_encode(obj, True), "") + "\n"
    except ValueError as exc:  # raised only by int-to-str conversions
        limit = sys.get_int_max_str_digits()
        raise PreconditionError(f"a number to write has more digits than Python's limit of {limit}") from exc


# json's own escaper, in C where built: ASCII out, \uXXXX for anything else
_escape = json.encoder.encode_basestring_ascii


def _text(x, pad: str) -> str:
    """JSON text of x, a value _encode(..., text=True) returns, on a line
    indented by pad. Not a closure: one that calls itself sits in a
    reference cycle, which holds every text it built until the cyclic
    collector runs."""
    cls = type(x)
    if cls is str:
        return _escape(x)
    if cls is dict or cls is list or cls is _Values:
        if not x:  # a table's values are never empty
            return "{}" if cls is dict else "[]"
        inner = pad + "  "
        if cls is list:
            body = [_text(v, inner) for v in x]
            return f"[\n{inner}" + f",\n{inner}".join(body) + f"\n{pad}]"
        if cls is _Values:
            # already in sorted key order; states and rationals need no escaping
            body = [f'"{k}": "{v}"' for k, v in zip(*_spelled(x))]
        else:
            try:
                body = [f"{_escape(k)}: {_escape(v) if type(v) is str else _text(v, inner)}"
                        for k, v in sorted(x.items())]
            except TypeError:  # a key that is not a str, met by sort or escape
                raise WireError("object keys must be strings") from None
        return f"{{\n{inner}" + f",\n{inner}".join(body) + f"\n{pad}}}"
    if cls is int:
        return repr(x)
    if cls is bool:
        return "true" if x else "false"
    return "null"  # None, the one value left that _encode returns


def load_json(path: str):
    """The JSON value in the file at path. Bytes that are not UTF-8, text
    that is not JSON or too deeply nested, and an integer past Python's
    digit limit are each a WireError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:
        raise WireError(f"{path}: invalid JSON ({exc})") from exc


def trace_lines(trace: DiagTrace):
    """JSONL encoding of a duel trace: header, one line per bit, then
    checkpoints, certificates, and a closing summary line. A bit record's
    line is spelled from the trace's columns, with the bytes of
    json.dumps(to_jsonable(record), sort_keys=True), and each run of
    records sharing one adversary tuple spells it once."""
    yield json.dumps(
        {
            "type": "trace_header",
            "engine": trace.engine_name,
            "mode": trace.mode,
            "target": trace.target,
        },
        sort_keys=True,
    )
    recs, last, spelled = trace.records, None, ""
    for bit, rule, engine, caps in zip(recs.bits, recs.rules, recs.engine, recs.adversaries):
        if caps is not last:
            last, spelled = caps, json.dumps(_encode(caps), sort_keys=True)
        if type(bit) is str and type(rule) is str and type(engine) is int:
            yield (f'{{"adversaries": {spelled}, "bit": {_escape(bit)}, '
                   f'"engine": {engine}, "rule": {_escape(rule)}}}')
        else:  # a record built by hand with other types: the general rule
            yield json.dumps(_encode(BitRecord(bit, rule, engine, caps)), sort_keys=True)
    for item in (*trace.checkpoints, *trace.certificates):
        yield json.dumps(_encode(item), sort_keys=True)
    yield json.dumps(
        {"type": "summary", "reached": trace.reached, "z": trace.z},
        sort_keys=True,
    )


# the trace's own lines, read by the same rule into plain dicts
_TRACE_HEADER = _object_reader(
    dict, (("engine", str), ("mode", str), ("target", int))
)
_TRACE_SUMMARY = _object_reader(dict, (("reached", bool), ("z", str)))


def parse_trace(lines) -> DiagTrace:
    """Rebuild a duel trace from its JSONL lines; the checkpoints and
    certificates are read like every other wire object, and each record
    line's fields go straight to the columns under the same rule."""
    header = summary = None
    # the records' columns; equal consecutive adversary tuples share one
    bits, rules, engine, adversaries = [], [], [], []
    checkpoints: list[Checkpoint] = []
    certificates: list[ConeCertificate] = []
    for raw in lines:
        raw = raw.strip()
        if not raw:
            continue
        try:
            d = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise WireError(f"bad trace line: {exc}") from exc
        if not isinstance(d, dict):
            raise WireError("trace line must be a JSON object")
        tag = d.get("type")
        if tag == "trace_header":
            if header is not None:
                raise WireError("trace has a second trace_header line")
            header = _TRACE_HEADER(d)
        elif tag == "summary":
            if summary is not None:
                raise WireError("trace has a second summary line")
            summary = _TRACE_SUMMARY(d)
        elif tag == "checkpoint":
            checkpoints.append(_reader(Checkpoint)(d))
        elif tag == "cone_certificate":
            certificates.append(_reader(ConeCertificate)(d))
        elif tag is None and "bit" in d:
            bit, rule, cap, caps = d.get("bit"), d.get("rule"), d.get("engine"), d.get("adversaries")
            # BitRecord's reader accepts exactly these types; it names the fault
            if not (type(bit) is str and type(rule) is str and type(cap) is int
                    and type(caps) is list and set(map(type, caps)) <= {int}):
                _reader(BitRecord)(d)
            bits.append(bit)
            rules.append(rule)
            engine.append(cap)
            caps = tuple(caps)
            adversaries.append(adversaries[-1] if adversaries and adversaries[-1] == caps else caps)
        else:
            raise WireError(f"unknown trace line type {tag!r}")
    if header is None or summary is None:
        raise WireError("trace is missing its header or summary line")
    return DiagTrace(
        engine_name=header["engine"],
        mode=header["mode"],
        target=header["target"],
        z=summary["z"],
        records=_Records(bits, rules, engine, adversaries),
        checkpoints=tuple(checkpoints),
        certificates=tuple(certificates),
        reached=summary["reached"],
    )
