#!/usr/bin/env python3
"""Statements of paritybet that the tier-1 tests never run.

    python3 tests/unrun.py
    python3 tests/unrun.py tests/test_oracles.py tests/test_builder.py

The script runs pytest in this process (on tests/, or on the given
arguments) under a sys.settrace tracer that traces only the frames of
src/paritybet/, and records each line those frames run. Then it lists
every function-body statement of src/paritybet/*.py whose first line
never ran: every statement inside a def, in any block, but not a
docstring and not a global or nonlocal declaration, which compile to
nothing.

Each statement is named by its module, its function (Class.method,
outer.inner) and its text: the whole statement, or the header of a
compound one (an if, a for, a try), with its whitespace collapsed. The
statements allowed to stay unrun are listed by that name, each with its
reason, in tests/unrun_allowed.json.

The trace functions are module-level functions and keep no frame: a
tracer that made a closure per frame left garbage behind, which a test
that counts gc.collect() saw. CPython drops a trace function that
raises, and hypothesis's explain phase on Python before 3.12 calls
sys.settrace(None) after a failing example; either would leave every
later statement looking unrun. So the script checks after the run that
its tracer is still installed, and when it is not it lists nothing and
fails.

Besides the test runner, only the standard library is used. pytest does
not collect this file. Exit status: 0 when the tests pass and exactly
the allow-listed statements go unrun; 1 when a test fails, the tracer
was dropped or replaced, a statement outside the list goes unrun, or a
listed statement ran or is gone.
"""

from __future__ import annotations

import ast
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "paritybet"
ALLOWED = Path(__file__).resolve().parent / "unrun_allowed.json"

_PREFIX = str(SRC) + os.sep
_RAN: set[tuple[str, int]] = set()


def _local(frame, event, arg):
    if event == "line":
        _RAN.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg):
    return _local if frame.f_code.co_filename.startswith(_PREFIX) else None


def _text(source: str, stmt: ast.stmt) -> str:
    """The statement's name text: its header if it holds a block, else
    the whole statement, with whitespace collapsed."""
    lines = source.splitlines()[stmt.lineno - 1:stmt.end_lineno]
    lines[-1] = lines[-1][:stmt.end_col_offset]
    lines[0] = lines[0][stmt.col_offset:]
    body = getattr(stmt, "body", None)
    if isinstance(body, list) and body:
        lines = lines[:max(1, body[0].lineno - stmt.lineno)]
        if body[0].lineno == stmt.lineno:  # if x: return y
            lines = [lines[0][:body[0].col_offset - stmt.col_offset]]
    return " ".join(" ".join(lines).split())


def _is_docstring(node: ast.AST, j: int, stmt: ast.stmt) -> bool:
    return (j == 0 and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str))


def statements(path: Path):
    """(line, function, text) for each function-body statement of the module."""
    source = path.read_text(encoding="utf-8")
    out = []

    def visit(node: ast.AST, scope: str, in_def: bool):
        for field in ("body", "orelse", "finalbody", "handlers"):
            block = getattr(node, field, None)
            if not isinstance(block, list):
                continue
            for j, child in enumerate(block):
                if isinstance(child, ast.ExceptHandler):
                    visit(child, scope, in_def)
                    continue
                if in_def and not _is_docstring(node, j, child) and not isinstance(
                        child, (ast.Global, ast.Nonlocal)):
                    out.append((child.lineno, scope, _text(source, child)))
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    inner = f"{scope}.{child.name}" if scope else child.name
                    is_def = in_def or not isinstance(child, ast.ClassDef)
                    visit(child, inner, is_def)
                else:
                    visit(child, scope, in_def)

    visit(ast.parse(source), "", False)
    return out


def _key(entry: dict) -> tuple[str, str, str]:
    return entry["module"], entry["function"], entry["statement"]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    os.chdir(ROOT)
    start = time.perf_counter()
    sys.settrace(_global)  # the tests start no thread
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *(args or ["tests"])])
        traced = sys.gettrace() is _global
    finally:
        sys.settrace(None)
    seconds = time.perf_counter() - start
    if not traced:
        print("\nunrun: the tracer was dropped or replaced during the run, "
              "so which statements ran is unknown")
        return 1
    import paritybet

    where = Path(paritybet.__file__).resolve().parent
    if where != SRC:
        print(f"unrun: paritybet came from {where}, not from {SRC}")
        return 1
    # an entry without a reason allows nothing
    allowed = {_key(e) for e in json.loads(ALLOWED.read_text(encoding="utf-8")) if e["reason"]}
    every = [(path, *st) for path in sorted(SRC.glob("*.py")) for st in statements(path)]
    missed = [{"module": path.stem, "function": function, "statement": text, "line": line}
              for path, line, function, text in every if (str(path), line) not in _RAN]
    outside = [e for e in missed if _key(e) not in allowed]
    kept = {_key(e) for e in missed}
    stale = [k for k in allowed if k not in kept]
    print(f"\nunrun: {len(missed)} of {len(every)} function-body statements never ran "
          f"({seconds:.0f} s traced); {len(missed) - len(outside)} are allowed")
    for e in missed:
        mark = "allowed" if _key(e) in allowed else "UNRUN"
        print(f"  {mark:7s} {e['module']}.py:{e['line']} {e['function']}: {e['statement']}")
    for module, function, text in stale:
        print(f"  STALE   {module}.py {function}: {text} (listed, but it ran or is gone)")
    if status != 0:
        print(f"unrun: pytest exited {int(status)}")
    return 0 if status == 0 and not outside and not stale else 1


if __name__ == "__main__":
    sys.exit(main())
