"""JSON wire formats: exact rationals as strings, deterministic output.

Strategy tables, bet programs, mixtures, adversary strategies, test
arrays, and block specs round-trip. Reports (diagnoses, level verdicts,
growth verdicts, dimension reports, traces) serialize one way, out.
Every rational crosses the wire as str(Fraction), so nothing is ever
rounded; a file written twice from the same objects is byte-identical.
"""

from __future__ import annotations

import json
import re
from dataclasses import fields
from enum import Enum
from fractions import Fraction

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
from .strategy import Diagnosis, Kind, Parity, Sided, StrategyTable


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


def _parse_enum(cls, raw, what: str):
    try:
        return cls(raw)
    except ValueError as exc:
        raise WireError(f"bad {what} {raw!r}") from exc


def _need(d: dict, key: str):
    if not isinstance(d, dict) or key not in d:
        raise WireError(f"missing key {key!r}")
    return d[key]


def _bet_to_jsonable(bet):
    if bet is None:
        return None
    if isinstance(bet, FractionBet):
        return {"bet": "fraction", "stake": frac_str(bet.fraction)}
    if isinstance(bet, IntegerBet):
        return {"bet": "integer", "wager": bet.wager, "outcome": bet.outcome}
    if isinstance(bet, ScaleBet):
        return {"bet": "scale", "factor": frac_str(bet.factor)}
    raise WireError(f"unknown bet {type(bet).__name__}")


def _bet_from_jsonable(d):
    if d is None:
        return None
    tag = _need(d, "bet")
    if tag == "fraction":
        return FractionBet(parse_frac(_need(d, "stake")))
    if tag == "integer":
        wager, outcome = _need(d, "wager"), _need(d, "outcome")
        if not isinstance(wager, int) or not isinstance(outcome, int):
            raise WireError("integer bet needs integer wager and outcome")
        return IntegerBet(wager, outcome)
    if tag == "scale":
        return ScaleBet(parse_frac(_need(d, "factor")))
    raise WireError(f"unknown bet tag {tag!r}")


def _fsm_to_jsonable(fsm: Fsm) -> dict:
    return {
        "states": [
            {"bet": _bet_to_jsonable(s.bet), "on0": s.on0, "on1": s.on1}
            for s in fsm.states
        ],
        "start": fsm.start,
    }


def _fsm_from_jsonable(d) -> Fsm:
    raw_states = _need(d, "states")
    if not isinstance(raw_states, list) or not raw_states:
        raise WireError("machine needs a nonempty state list")
    states = []
    for s in raw_states:
        on0, on1 = _need(s, "on0"), _need(s, "on1")
        if not isinstance(on0, int) or not isinstance(on1, int):
            raise WireError("state transitions must be integer indices")
        states.append(FsmState(_bet_from_jsonable(_need(s, "bet")), on0, on1))
    start = d.get("start", 0)
    if not isinstance(start, int):
        raise WireError("start must be an integer index")
    return Fsm(tuple(states), start)


# Every dataclass the wire writes, with its "type" tag. Such an object
# becomes its fields plus "type"; components carry no tag.
_TAGS = {
    StrategyTable: "table",
    Component: None,
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
}

# Keys a report derives rather than stores; each names a method without
# arguments whose result is written under that key.
_DERIVED = {
    DimReport: ("half_log2_base",),
    GrowthVerdict: ("ok",),
}

# class -> (tag, field names, derived keys), fixed at import
_SHAPES = {
    cls: (
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
        tag, names, derived = shape
        out = {}
        for name in names:
            v = getattr(obj, name)
            out[name] = v if type(v) in _PLAIN else _encode(v)
        if tag is not None:
            out["type"] = tag
        for name in derived:
            out[name] = _encode(getattr(obj, name)())
        return out
    if isinstance(obj, Enum):
        return obj.value
    if cls is BetProgram:
        return {
            "type": "program",
            "initial": frac_str(obj.initial),
            "form": obj.form,
            "parity": obj.parity.value,
            "sided": obj.sided.value,
            "rule": _fsm_to_jsonable(obj.fsm),
        }
    if cls is RequestLedger:
        return {
            "type": "ledger",
            "requests": [[t, ln] for t, ln in obj.requests],
            "kraft_weight": frac_str(obj.kraft_weight()),
        }
    raise WireError(f"cannot serialize {cls.__name__}")


def to_jsonable(obj):
    """Plain-JSON form of a wire object, a report, or a structure of them.

    One rule: None, str, int and bool pass through, a Fraction becomes
    str(Fraction), an enum its value, lists, tuples and dicts recurse, and
    a dataclass in _TAGS becomes its fields plus its "type" tag and
    any _DERIVED keys. Programs and the ledger have wire shapes of their
    own. Deterministic.
    """
    # recursion stays on _encode, so a wrapper of this public name (the
    # bench tracer's spans) sees one call per object written, not per value
    return _encode(obj)


_PARSERS = {}


def from_jsonable(d):
    """Rebuild a round-trip wire object from its plain-JSON form."""
    if not isinstance(d, dict):
        raise WireError("wire object must be a JSON object")
    tag = _need(d, "type")
    parser = _PARSERS.get(tag)
    if parser is None:
        raise WireError(f"unknown wire type {tag!r}")
    return parser(d)


def _parse_table(d) -> StrategyTable:
    depth = _need(d, "depth")
    if not isinstance(depth, int):
        raise WireError("depth must be an integer")
    raw = _need(d, "values")
    if not isinstance(raw, dict):
        raise WireError("values must be an object")
    values = {s: parse_frac(v) for s, v in raw.items()}
    try:
        return StrategyTable(
            depth,
            values,
            _parse_enum(Kind, _need(d, "kind"), "kind"),
            _parse_enum(Parity, _need(d, "parity"), "parity"),
            _parse_enum(Sided, _need(d, "sided"), "sided"),
        )
    except (ValueError, TypeError) as exc:
        raise WireError(f"bad table: {exc}") from exc


def _parse_program(d) -> BetProgram:
    form = _need(d, "form")
    if form not in ("fractional", "integer", "fsm"):
        raise WireError(f"bad program form {form!r}")
    return BetProgram(
        parse_frac(_need(d, "initial")),
        _fsm_from_jsonable(_need(d, "rule")),
        form,
        _parse_enum(Parity, _need(d, "parity"), "parity"),
        _parse_enum(Sided, _need(d, "sided"), "sided"),
    )


def _parse_component(d) -> Component:
    stage = _need(d, "stage")
    if not isinstance(stage, int):
        raise WireError("component stage must be an integer")
    return Component(
        stage, parse_frac(_need(d, "weight")), _parse_program(_need(d, "program"))
    )


def _parse_mixture(d) -> StageApprox:
    raw = _need(d, "components")
    if not isinstance(raw, list):
        raise WireError("components must be a list")
    return StageApprox(
        tuple(_parse_component(c) for c in raw),
        _parse_enum(Kind, _need(d, "kind"), "kind"),
        _parse_enum(Parity, _need(d, "parity"), "parity"),
        _parse_enum(Sided, _need(d, "sided"), "sided"),
    )


def _parse_int_strategy(d) -> IntStrategy:
    name = d.get("name", "")
    if not isinstance(name, str):
        raise WireError("name must be a string")
    return IntStrategy(_parse_program(_need(d, "program")), name)


def _parse_test_array(d) -> TestArray:
    raw = _need(d, "levels")
    if not isinstance(raw, list):
        raise WireError("levels must be a list")
    levels = []
    for level in raw:
        if not isinstance(level, list) or not all(
            isinstance(m, str) for m in level
        ):
            raise WireError("each level must be a list of bit strings")
        levels.append(tuple(level))
    flavor = d.get("flavor", "block34")
    if not isinstance(flavor, str):
        raise WireError("flavor must be a string")
    return TestArray(tuple(levels), flavor)


def _parse_block_spec(d) -> BlockSpec:
    return BlockSpec(
        parse_frac(_need(d, "m00")),
        parse_frac(_need(d, "m10")),
        parse_frac(_need(d, "n0")),
        parse_frac(_need(d, "n1")),
        parse_frac(_need(d, "c")),
    )


_PARSERS.update(
    {
        "table": _parse_table,
        "program": _parse_program,
        "mixture": _parse_mixture,
        "int_strategy": _parse_int_strategy,
        "test_array": _parse_test_array,
        "block_spec": _parse_block_spec,
    }
)


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
    for rec in trace.records:
        yield json.dumps(
            {
                "adversaries": list(rec.adversaries),
                "bit": rec.bit,
                "engine": rec.engine,
                "rule": rec.rule,
            },
            sort_keys=True,
        )
    for item in (*trace.checkpoints, *trace.certificates):
        yield json.dumps(_encode(item), sort_keys=True)
    yield json.dumps(
        {"type": "summary", "reached": trace.reached, "z": trace.z},
        sort_keys=True,
    )


def parse_trace(lines) -> DiagTrace:
    """Rebuild a duel trace from its JSONL lines."""
    header = None
    records: list[BitRecord] = []
    checkpoints: list[Checkpoint] = []
    certificates: list[ConeCertificate] = []
    summary = None
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
            header = d
        elif tag == "checkpoint":
            checkpoints.append(
                Checkpoint(
                    _need(d, "position"),
                    _need(d, "block_bits"),
                    parse_frac(_need(d, "fraction")),
                )
            )
        elif tag == "cone_certificate":
            certificates.append(
                ConeCertificate(
                    _need(d, "adversary"),
                    _need(d, "prefix"),
                    _need(d, "kind"),
                    _need(d, "machine_state"),
                    _need(d, "position_parity"),
                    _need(d, "constant_value"),
                )
            )
        elif tag == "summary":
            summary = d
        elif tag is None and "bit" in d:
            records.append(
                BitRecord(
                    _need(d, "bit"),
                    _need(d, "rule"),
                    _need(d, "engine"),
                    tuple(_need(d, "adversaries")),
                )
            )
        else:
            raise WireError(f"unknown trace line type {tag!r}")
    if header is None or summary is None:
        raise WireError("trace is missing its header or summary line")
    return DiagTrace(
        engine_name=_need(header, "engine"),
        mode=_need(header, "mode"),
        target=_need(header, "target"),
        z=_need(summary, "z"),
        records=tuple(records),
        checkpoints=tuple(checkpoints),
        certificates=tuple(certificates),
        reached=_need(summary, "reached"),
    )
