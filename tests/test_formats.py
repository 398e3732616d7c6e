"""FORMATS.md against the code: every fenced json block parses, and every
round-trip object it spells reads back and writes the same JSON."""

import json
import re
from pathlib import Path

import pytest

from paritybet import from_jsonable, to_jsonable

FORMATS = Path(__file__).resolve().parent.parent / "FORMATS.md"
ROUND_TRIP = {"table", "program", "mixture", "int_strategy", "test_array", "block_spec"}

_HEADING = re.compile(r"^#+ (.+)$", re.M)
_BLOCK = re.compile(r"^( *)```json\n(.*?)^\1```", re.M | re.S)
# an elided value, "{ ... }" or "{ ... what it stands for ... }", and an
# elided run of entries, ", ..." before a closing bracket
_ELIDED_VALUE = re.compile(r"\{ \.\.\.[^{}]*\}")
_ELIDED_TAIL = re.compile(r",\s*\.\.\.(?=\s*[\]}])")
ELIDED = "<elided>"
_NONE = 'ROADMAP item 1: Parity.NONE and Sided.NONE still spell "unrestricted"'


def _blocks():
    text = FORMATS.read_text(encoding="utf-8")
    seen = {}
    for match in _BLOCK.finditer(text):
        heading = _HEADING.findall(text, 0, match.start())[-1]
        name = re.sub(r"[^a-z0-9]+", "-", heading.lower()).strip("-")
        seen[name] = seen.get(name, 0) + 1
        if seen[name] > 1:
            name += f"-{seen[name]}"
        block = match.group(2)
        # strict: once the code reads "none", these pass and the mark goes
        marks = pytest.mark.xfail(strict=True, reason=_NONE) if '"none"' in block else ()
        yield pytest.param(block, marks=marks, id=name)


def _objects(value):
    """Every JSON object in value, outermost first."""
    if isinstance(value, dict):
        yield value
        for v in value.values():
            yield from _objects(v)
    elif isinstance(value, list):
        for v in value:
            yield from _objects(v)


def _holds_elision(value) -> bool:
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return any(map(_holds_elision, value))
    return value == ELIDED


def _spelled_out(value):
    """value without the array entries that hold an elision."""
    if isinstance(value, dict):
        return {k: _spelled_out(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_spelled_out(v) for v in value if not _holds_elision(v)]
    return value


@pytest.mark.parametrize("block", _blocks())
def test_formats_json_block(block):
    payload = json.loads(_ELIDED_TAIL.sub("", _ELIDED_VALUE.sub(json.dumps(ELIDED), block)))
    for obj in _objects(payload):
        obj = _spelled_out(obj)
        # a round-trip object with an elided field is a sketch, not an object
        if obj.get("type") in ROUND_TRIP and not _holds_elision(obj):
            assert to_jsonable(from_jsonable(obj)) == obj


def test_formats_has_its_blocks():
    ids = [p.id for p in _blocks()]
    assert len(ids) >= 15 and len(set(ids)) == len(ids)
    assert {"table", "program", "mixture", "test-array", "block-spec"} <= set(ids)
