#!/usr/bin/env python3
"""Mutation check for one function of paritybet: does some test fail when
the function's code is changed a little?

    python3 tests/mutate.py diagonal _Players.lone
    python3 tests/mutate.py diagonal _repeats --tests tests/test_diagonal.py
    python3 tests/mutate.py programs StageApprox._read

The script copies src/, tests/, demos/, pyproject.toml and FORMATS.md
(which tests/test_demos.py and tests/test_formats.py read) to a fresh
temporary directory, removed at the end, and makes one mutant at a time
of the named function in src/paritybet/<module>.py, from a fixed
list of AST mutations:

- compare: a comparison negated (< to >=, == to !=, is to is not, in to
  not in) or its boundary moved (< to <=, > to >=, and back);
- bound: a range() start or stop, or a slice bound, shifted by +1 or -1;
- clamp: a min() or max() call replaced by one of its arguments;
- shift: // swapped for >> and >> for //;
- delete: a statement replaced by pass (the docstring is kept);
- constant: an int constant shifted by +1 or -1;
- swap: the operands of a non-commutative operator swapped (a - b to
  b - a, and so for /, //, %, **, <<, >>, and a single <, <=, > or >=).

For each mutant it runs pytest, stopping at the first failure, on the
test files that name the function (by its last name, as a word), else on
tests/test_<module>.py, or on the files given with --tests. A mutant is
killed when a test fails or errors, when its run asks for more than
MEMORY_MB megabytes of address space, or when it runs longer than
TIMEOUT_FACTOR times the unmutated run, and at least TIMEOUT_MIN_S seconds
(a mutant can loop or grow a list without end; such a kill is shown as
"killed (timeout)"); it survives when every test passes. The report lists
every mutant with its line and change, then the survivors, each of which is either equivalent
(no input can tell it from the original) or a gap in the tests.
Hypothesis tests draw fresh examples on each run, so a survivor can be
killed on another run; the example database is cleared before each run.
In the copy, a conftest.py at the root loads a hypothesis profile without
the shrink phase before any test module is imported, so a mutant that a
property test catches is killed at its first failing example, not stopped
by the time cap while hypothesis shrinks that example.

Only the standard library is used, and nothing under the checkout is
written. pytest does not collect this file; CI runs it once, on
bits.check_bits, so that it keeps working. Exit status: 0 when every
mutant is killed, 1 when one survives, 2 on bad use.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_FACTOR = 3  # a mutant's run may take this many times the unmutated run
TIMEOUT_MIN_S = 10  # and at least this many seconds
MEMORY_MB = 1024  # address space one test run may take

_NEGATE = {
    ast.Lt: ast.GtE, ast.GtE: ast.Lt, ast.Gt: ast.LtE, ast.LtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
}
_BOUNDARY = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt}
_SHIFT = {ast.FloorDiv: ast.RShift, ast.RShift: ast.FloorDiv}
_SYMBOL = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.Is: "is", ast.IsNot: "is not", ast.In: "in", ast.NotIn: "not in",
    ast.FloorDiv: "//", ast.RShift: ">>", ast.Sub: "-", ast.Div: "/", ast.Mod: "%",
    ast.Pow: "**", ast.LShift: "<<",
}
# operators whose operands do not commute
_SWAP_BIN = (ast.Sub, ast.Div, ast.FloorDiv, ast.Mod, ast.Pow, ast.LShift, ast.RShift)
_SWAP_COMPARE = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
# the copy's root conftest.py: pytest imports it before tests/conftest.py
# and the test modules, so every @settings there inherits these phases
_NO_SHRINK = '''from hypothesis import Phase, settings

settings.register_profile("mutate", phases=[p for p in Phase if p is not Phase.shrink])
settings.load_profile("mutate")
'''


def _shifted(node: ast.expr, by: int) -> ast.expr:
    op = ast.Add() if by > 0 else ast.Sub()
    return ast.BinOp(left=node, op=op, right=ast.Constant(abs(by)))


def _statements(node: ast.AST):
    """Each mutation that deletes a statement of one of node's blocks, as
    (statement, kind, description, apply): apply puts a pass in its place."""
    for field in ("body", "orelse", "finalbody"):
        block = getattr(node, field, None)
        if not isinstance(block, list):
            continue
        for j, stmt in enumerate(block):
            docstring = j == 0 and field == "body" and isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) and isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
            if docstring or isinstance(stmt, ast.Pass):
                continue

            def apply(block=block, j=j):
                block[j] = ast.Pass()
            yield stmt, "delete", f"{type(stmt).__name__.lower()} to pass", apply


def _mutations(node: ast.AST):
    """Each mutation of node itself, as (kind, description, apply): apply
    changes node in place."""
    if isinstance(node, ast.BinOp) and type(node.op) in _SWAP_BIN:
        def apply(node=node):
            node.left, node.right = node.right, node.left
        yield "swap", f"operands of {_SYMBOL[type(node.op)]}", apply
    if isinstance(node, ast.Compare):
        for j, op in enumerate(node.ops):
            for kind, table in (("compare", _NEGATE), ("compare", _BOUNDARY)):
                new = table.get(type(op))
                if new is not None:
                    def apply(node=node, j=j, new=new):
                        node.ops[j] = new()
                    yield kind, f"{_SYMBOL[type(op)]} to {_SYMBOL[new]}", apply
        if len(node.ops) == 1 and type(node.ops[0]) in _SWAP_COMPARE:
            def apply(node=node):
                node.left, node.comparators[0] = node.comparators[0], node.left
            yield "swap", f"operands of {_SYMBOL[type(node.ops[0])]}", apply
    elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in _SHIFT:
        new = _SHIFT[type(node.op)]

        def apply(node=node, new=new):
            node.op = new()
        yield "shift", f"{_SYMBOL[type(node.op)]} to {_SYMBOL[new]}", apply
    elif isinstance(node, ast.Constant) and type(node.value) is int:
        for by in (1, -1):
            def apply(node=node, by=by):
                node.value += by
            yield "constant", f"{node.value} to {node.value + by}", apply
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        name, args = node.func.id, node.args
        if name == "range" and args and not node.keywords:
            for j in range(min(len(args), 2)):
                role = "stop" if len(args) == 1 or j == 1 else "start"
                for by in (1, -1):
                    def apply(args=args, j=j, by=by):
                        args[j] = _shifted(args[j], by)
                    yield "bound", f"range {role} {by:+d}", apply
        if name in ("min", "max") and len(args) >= 2 and not node.keywords:
            for j in range(len(args)):
                def apply(node=node, j=j):
                    node.func, node.args = ast.Name("_keep", ast.Load()), [node.args[j]]
                yield "clamp", f"{name}() to its argument {j}", apply
    elif isinstance(node, ast.Slice):
        for field in ("lower", "upper"):
            if getattr(node, field) is not None:
                for by in (1, -1):
                    def apply(node=node, field=field, by=by):
                        setattr(node, field, _shifted(getattr(node, field), by))
                    yield "bound", f"slice {field} {by:+d}", apply


def _find(tree: ast.Module, qualname: str) -> ast.AST:
    scope, found = tree, None
    for part in qualname.split("."):
        found = next(
            (n for n in ast.iter_child_nodes(scope)
             if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and n.name == part),
            None,
        )
        if found is None:
            raise SystemExit(f"mutate: no {qualname} in the module")
        scope = found
    return found


def _sites(function: ast.AST):
    """Every (node, kind, description, apply) in function, in source order."""
    out = []
    for node in ast.walk(function):
        for kind, text, apply in _mutations(node):
            out.append((node, kind, text, apply))
        out.extend(_statements(node))
    return sorted(out, key=lambda s: (getattr(s[0], "lineno", 0), getattr(s[0], "col_offset", 0)))


def mutants(source: str, qualname: str):
    """(line, kind, description, mutated source) for each mutant."""
    count = len(_sites(_find(ast.parse(source), qualname)))
    for i in range(count):
        tree = ast.parse(source)
        node, kind, text, apply = _sites(_find(tree, qualname))[i]
        apply()
        # _keep(x) is x: a min() or max() with its clamp dropped
        tree.body.append(ast.parse("def _keep(x):\n    return x").body[0])
        yield node.lineno, kind, text, ast.unparse(ast.fix_missing_locations(tree))


def _test_files(module: str, qualname: str, given: list[str] | None) -> list[str]:
    if given:
        return given
    word = re.compile(rf"\b{re.escape(qualname.rsplit('.', 1)[-1])}\b")
    named = sorted(
        str(p.relative_to(ROOT)) for p in (ROOT / "tests").glob("test_*.py")
        if word.search(p.read_text(encoding="utf-8"))
    )
    return named or [f"tests/test_{module}.py"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="module of src/paritybet, e.g. diagonal")
    parser.add_argument("function", help="function or Class.method, e.g. _Players.lone")
    parser.add_argument("--tests", nargs="*", help="test files to run, relative to the checkout")
    args = parser.parse_args(argv)

    path = ROOT / "src" / "paritybet" / f"{args.module}.py"
    if not path.is_file():
        parser.error(f"no module {path}")
    source = path.read_text(encoding="utf-8")
    found = list(mutants(source, args.function))
    tests = _test_files(args.module, args.function, args.tests)

    work = Path(tempfile.mkdtemp(prefix="paritybet-mutate-"))
    try:
        for part in ("src", "tests", "demos"):
            shutil.copytree(ROOT / part, work / part, ignore=shutil.ignore_patterns("__pycache__"))
        for name in ("pyproject.toml", "FORMATS.md"):
            shutil.copy(ROOT / name, work)
        (work / "conftest.py").write_text(_NO_SHRINK, encoding="utf-8")
        target = work / "src" / "paritybet" / f"{args.module}.py"
        env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        where = subprocess.run([sys.executable, "-c", "import paritybet; print(paritybet.__file__)"],
                               cwd=work, env=env, capture_output=True, text=True).stdout.strip()
        if Path(where).resolve().parent != (work / "src" / "paritybet").resolve():
            raise SystemExit(f"mutate: paritybet came from {where!r}, not from the scratch copy")
        print(f"{len(found)} mutants of {args.module}.{args.function}; tests: {' '.join(tests)}")
        limit = MEMORY_MB << 20

        def cap_memory():  # runs in the test process only
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        def run_tests(timeout: float | None) -> str:
            shutil.rmtree(work / ".hypothesis", ignore_errors=True)
            try:
                done = subprocess.run(
                    [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
                    cwd=work, env=env, capture_output=True, timeout=timeout, preexec_fn=cap_memory,
                )
            except subprocess.TimeoutExpired:
                return "killed (timeout)"
            return "survived" if done.returncode == 0 else "killed"

        start = time.perf_counter()
        if run_tests(None) != "survived":
            raise SystemExit("mutate: the tests fail on the unmutated code")
        unmutated_s = time.perf_counter() - start
        timeout = max(TIMEOUT_MIN_S, TIMEOUT_FACTOR * unmutated_s)
        print(f"unmutated run: {unmutated_s:.1f} s; each mutant stops at {timeout:.0f} s")
        survivors = []
        for n, (line, kind, text, mutated) in enumerate(found):
            target.write_text(mutated, encoding="utf-8")
            start = time.perf_counter()
            verdict = run_tests(timeout)
            print(f"{n:3d}  line {line:4d}  {kind:7s}  {text:28s}  {verdict}  "
                  f"{time.perf_counter() - start:.1f} s", flush=True)
            if verdict == "survived":
                survivors.append((n, line, kind, text))
        target.write_text(source, encoding="utf-8")
        print(f"{len(found) - len(survivors)} of {len(found)} killed; survivors:")
        for n, line, kind, text in survivors:
            print(f"{n:3d}  line {line:4d}  {kind:7s}  {text}")
        return 1 if survivors else 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
