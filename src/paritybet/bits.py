"""Finite binary strings.

Strings are plain ``str`` objects over the alphabet {'0', '1'}; the empty
string is the root. Plain ``str`` comparison is exactly the lexicographic
order we need ('0' < '1', prefixes sort first).
"""

from __future__ import annotations

from .errors import StructuralError

EMPTY = ""

_BITCHARS = frozenset("01")


def check_bits(s: str) -> str:
    """Validate that s is a binary string; returns it unchanged."""
    if not isinstance(s, str) or not _BITCHARS.issuperset(s):
        raise StructuralError(f"not a binary string: {s!r}")
    return s


def level(n: int):
    """All binary strings of length n, in lexicographic order."""
    if n == 0:
        yield EMPTY
        return
    for i in range(1 << n):
        yield format(i, "b").zfill(n)


def all_states(depth: int):
    """All binary strings of length <= depth, shortest first."""
    for n in range(depth + 1):
        yield from level(n)
