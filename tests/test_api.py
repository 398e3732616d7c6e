"""The package's public surface: one declaration, derived from its imports;
and the source's exactness: no float reaches a law."""

import ast
from collections import Counter
from pathlib import Path
from types import ModuleType

import paritybet


def test_all_holds_the_public_objects_and_nothing_else():
    names = paritybet.__all__
    assert len(set(names)) == len(names)
    for name in names:
        obj = getattr(paritybet, name)
        assert not isinstance(obj, ModuleType), name
        if name != "__version__":
            assert obj.__module__.startswith("paritybet"), name
    # removed with no caller left: duplicates of paths that remain, the
    # online view and other unused names
    assert {
        "combine_programs", "dump_json", "frac_str", "OnlineTable", "to_online",
        "from_online", "require_valid", "by_parity_program", "weak_s_random_check",
        "level_measure",
    }.isdisjoint(names)
    star = {}
    exec("from paritybet import *", star)
    del star["__builtins__"]
    assert sorted(star) == sorted(names)


# math functions that take and give exact values (ints, or Fractions
# rounded to ints); math.log and the rest of the module give floats
_EXACT_MATH = {"ceil", "comb", "factorial", "floor", "gcd", "isqrt", "lcm", "perm", "prod"}

# every true division in src/, by the function it sits in: each divides a
# Fraction, so the quotient stays exact. A new one must be looked at and
# added here.
_DIVISIONS = Counter({
    "dimension.compare_scaled_weight": 1,
})


def _inexact_sites():
    """(division sites by qualified function name, other float sources)"""
    divisions, floats = Counter(), []
    for path in sorted(Path(paritybet.__file__).parent.glob("*.py")):
        module = path.stem
        for node, where in _walk(ast.parse(path.read_text(encoding="utf-8")), module):
            site = f"{where}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                divisions[where] += 1
            elif isinstance(node, ast.Constant) and type(node.value) in (float, complex):
                floats.append(f"{site} float literal {node.value!r}")
            elif isinstance(node, ast.Name) and node.id in ("float", "truediv", "itruediv"):
                floats.append(f"{site} {node.id}")
            elif isinstance(node, ast.Attribute) and node.attr in ("truediv", "itruediv"):
                floats.append(f"{site} {node.attr}")
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "math" and node.attr not in _EXACT_MATH):
                floats.append(f"{site} math.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                floats += [f"{site} math.{a.name}" for a in node.names if a.name not in _EXACT_MATH]
    return divisions, floats


def _walk(node, where):
    """Every node under node, with the dotted name of the class and
    function scopes it sits in."""
    for child in ast.iter_child_nodes(node):
        yield child, where
        scope = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        yield from _walk(child, f"{where}.{child.name}" if scope else where)


def test_no_float_reaches_src():
    divisions, floats = _inexact_sites()
    assert floats == []
    assert divisions == _DIVISIONS
