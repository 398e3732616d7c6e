"""JSON wire formats: exact rationals as strings, deterministic output.

Strategy tables, bet programs, mixtures, adversary strategies, test
arrays, block specs and duel traces round-trip. Reports (diagnoses,
level verdicts, growth verdicts, dimension reports) serialize one way,
out. One rule, from each dataclass's fields, writes every object and
reads back the ones that round-trip. Every rational crosses the wire as
str(Fraction), so nothing is ever rounded; a file written twice from the
same objects is byte-identical.
"""

from __future__ import annotations

import json
import re
from collections.abc import Mapping
from dataclasses import fields
from enum import Enum
from fractions import Fraction
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
)
from .dimension import DimReport, ExponentSample, LevelVerdict
from .errors import StructuralError
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
from .strategy import Diagnosis, StrategyTable


class WireError(Exception):
    """Malformed wire data; distinct from domain errors on purpose so the
    command line can map it to its own exit code."""


def frac_str(x) -> str:
    return str(Fraction(x))


# str(Fraction) form in ASCII digits; checked before Fraction() sees the
# text, so exponents, decimals and padding never reach the constructor
_RATIONAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def parse_frac(s) -> Fraction:
    if isinstance(s, bool):
        raise WireError(f"expected a rational, got {s!r}")
    if isinstance(s, int):
        return Fraction(s)
    if isinstance(s, str):
        if _RATIONAL.fullmatch(s) is None:
            raise WireError(f"bad rational {s[:40]!r}")
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError) as exc:
            raise WireError(f"bad rational {s[:40]!r}") from exc
    raise WireError(f"expected a rational, got {type(s).__name__}")


# Every dataclass the wire writes, with its tag. Such an object becomes
# its fields plus its tag under "type" (under "bet" for bets); machines,
# their states, components and duel bit records carry no tag.
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
}

# the key a tag is written under, where it is not "type"
_TAG_KEYS = dict.fromkeys((FractionBet, IntegerBet, ScaleBet), "bet")

# Keys a report derives rather than stores; each names a method without
# arguments whose result is written under that key.
_DERIVED = {
    DimReport: ("half_log2_base",),
    GrowthVerdict: ("ok",),
    RequestLedger: ("kraft_weight",),
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


def _encode(obj):
    cls = type(obj)
    if cls is Fraction:
        return str(obj)
    if cls in _PLAIN:
        return obj
    if cls is list or cls is tuple:
        return [x if type(x) in _PLAIN else _encode(x) for x in obj]
    if cls is dict:
        return {k: v if type(v) in _PLAIN else _encode(v) for k, v in obj.items()}
    shape = _SHAPES.get(cls)
    if shape is not None:
        key, tag, names, derived = shape
        out = {}
        for name in names:
            v = getattr(obj, name)
            out[name] = v if type(v) in _PLAIN else _encode(v)
        if tag is not None:
            out[key] = tag
        for name in derived:
            out[name] = _encode(getattr(obj, name)())
        return out
    if isinstance(obj, Enum):
        return obj.value
    raise WireError(f"cannot serialize {cls.__name__}")


def to_jsonable(obj):
    """Plain-JSON form of a wire object, a report, or a structure of them.

    One rule: None, str, int and bool pass through, a Fraction becomes
    str(Fraction), an enum its value, lists, tuples and dicts recurse, and
    a dataclass in _TAGS becomes its fields plus its tag and any
    _DERIVED keys. Deterministic.
    """
    # recursion stays on _encode, so a wrapper of this public name (the
    # bench tracer's spans) sees one call per object written, not per value
    return _encode(obj)


# Fields a reader may find missing, left to the dataclass default. Other
# defaults (a table's kind and tags) are still required on the wire.
_OPTIONAL = {IntStrategy: ("name",), TestArray: ("flavor",), Fsm: ("start",)}

# declared type -> the function that checks and decodes a JSON value of it
_READERS = {Fraction: parse_frac}


def _reader(tp):
    """The reader of declared type tp, built on first use and kept, so a
    class's field readers are built once and not per value."""
    read = _READERS.get(tp)
    if read is None:
        read = _READERS[tp] = _build_reader(tp)
    return read


def _build_reader(tp):
    if tp in _SHAPES:
        hints = get_type_hints(tp)
        spec = [(name, hints[name]) for name in _SHAPES[tp][2]]
        return _object_reader(tp, spec, _OPTIONAL.get(tp, ()))
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
    if get_origin(tp) is Mapping and args[0] is str:
        item = _reader(args[1])

        def read(v):
            if type(v) is not dict:
                raise WireError(f"expected an object, got {type(v).__name__}")
            return {k: item(x) for k, x in v.items()}
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
    """Deterministic JSON text for an object or plain structure."""
    return json.dumps(_encode(obj), sort_keys=True, indent=2) + "\n"


def dump_json(obj, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise WireError(f"{path}: invalid JSON ({exc})") from exc


def trace_lines(trace: DiagTrace):
    """JSONL encoding of a duel trace: header, one line per bit, then
    checkpoints, certificates, and a closing summary line."""
    yield json.dumps(
        {
            "type": "trace_header",
            "engine": trace.engine_name,
            "mode": trace.mode,
            "target": trace.target,
        },
        sort_keys=True,
    )
    for item in (*trace.records, *trace.checkpoints, *trace.certificates):
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
    """Rebuild a duel trace from its JSONL lines; the records, checkpoints
    and certificates are read like every other wire object."""
    header = summary = None
    records: list[BitRecord] = []
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
            header = _TRACE_HEADER(d)
        elif tag == "summary":
            summary = _TRACE_SUMMARY(d)
        elif tag == "checkpoint":
            checkpoints.append(_reader(Checkpoint)(d))
        elif tag == "cone_certificate":
            certificates.append(_reader(ConeCertificate)(d))
        elif tag is None and "bit" in d:
            records.append(_reader(BitRecord)(d))
        else:
            raise WireError(f"unknown trace line type {tag!r}")
    if header is None or summary is None:
        raise WireError("trace is missing its header or summary line")
    return DiagTrace(
        engine_name=header["engine"],
        mode=header["mode"],
        target=header["target"],
        z=summary["z"],
        records=tuple(records),
        checkpoints=tuple(checkpoints),
        certificates=tuple(certificates),
        reached=summary["reached"],
    )
