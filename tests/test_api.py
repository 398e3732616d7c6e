"""The package's public surface: one declaration, derived from its imports."""

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
    # duplicates of paths that remain, removed with no caller left
    assert {"combine_programs", "dump_json", "frac_str"}.isdisjoint(names)
    star = {}
    exec("from paritybet import *", star)
    del star["__builtins__"]
    assert sorted(star) == sorted(names)
