"""Finite binary strings and the interleaving used by conditional betting.

Strings are plain ``str`` objects over the alphabet {'0', '1'}; the empty
string is the root. Plain ``str`` comparison is exactly the lexicographic
order we need ('0' < '1', prefixes sort first).
"""

from __future__ import annotations

from .errors import PreconditionError, StructuralError

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


def interleave(x: str, y: str) -> str:
    """Alternate the bits of x and y starting with x: x0 y0 x1 y1 ...

    Requires len(x) == len(y) or len(x) == len(y) + 1.
    """
    check_bits(x)
    check_bits(y)
    if len(x) - len(y) not in (0, 1):
        raise PreconditionError(
            f"interleave needs |x| in {{|y|, |y|+1}}, got |x|={len(x)}, |y|={len(y)}"
        )
    out = []
    for a, b in zip(x, y):
        out.append(a)
        out.append(b)
    if len(x) > len(y):
        out.append(x[-1])
    return "".join(out)


def deinterleave(z: str) -> tuple[str, str]:
    """Split z into its even-position and odd-position halves."""
    check_bits(z)
    return z[0::2], z[1::2]
