"""Adversary enumeration over two-bit blocks and the nested test it builds.

The pieces fit together like this. A pair of single-parity strategies
watches a two-bit block above a parent state: one bets only on the first
bit, the other only on the second. Whenever their joint capital crosses a
threshold on both reference leaves, a two-round capital argument pins down
a third leaf the pair cannot also capture. Enumerating at most three of the
four extensions per parent, level after level, yields an array whose levels
shrink geometrically in measure, a path through the array that the pair
never captures, and a packing-style certificate that grows by 4/3 per level
along every array path.

Everything is exact rational arithmetic on monotone stage approximations;
claims are always about the final inspected stage, never about limits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bits import all_states, check_bits
from .decompose import BlockSpec
from .errors import BettingLabError, PreconditionError, StructuralError
from .programs import BetProgram, Component, StageApprox, _exceeds, _joint, at_stage
from .strategy import Kind, Parity, Sided, StrategyTable, as_capital


@dataclass(frozen=True)
class BlockReport:
    """Outcome of checking the two-round inequality on one block.

    hypotheses_ok is False when some assumed inequality fails; the first
    failure is named in witness and the conclusion is then not claimed.
    branch_state is the leaf the argument pins down (second bit fixed by
    comparing the first-bit targets), branch_value the pair's joint capital
    there at the inspected stage.
    """

    parent: str
    hypotheses_ok: bool
    witness: str | None
    branch_state: str
    branch_value: Fraction
    threshold: Fraction
    conclusion_ok: bool
    quantities: tuple[tuple[str, Fraction], ...]


def verify_block_inequality(m, n, parent: str, spec: BlockSpec) -> BlockReport:
    """Check one instance of the two-bit-block capital inequality.

    m bets only on the second bit of the block (value changes when a bit is
    appended to an odd-length state), n only on the first. Hypotheses: m
    reaches the spec's targets at parent+00 and parent+10, n reaches its
    targets at parent+0 and parent+1, the pair's joint capital at the
    parent is at most c, and each column's targets already sum to at least
    c. Conclusion: the pair's joint capital is at most c at parent+01 when
    n0 <= n1, at parent+11 otherwise.

    m and n are read through at_stage, a mixture at its last activation stage.

    This is a checker. A failed hypothesis yields a report naming it, not
    an exception; the caller decides what a rejection means.
    """
    if len(parent) % 2 != 0:
        raise PreconditionError("block parent must have even length")
    m_at, n_at = at_stage(m).value, at_stage(n).value
    p = parent
    vals = {
        "m00": m_at(p + "00"),
        "m10": m_at(p + "10"),
        "n0": n_at(p + "0"),
        "n1": n_at(p + "1"),
        "m_parent": m_at(p),
        "n_parent": n_at(p),
    }
    checks = [
        ("m00", vals["m00"] >= spec.m00),
        ("m10", vals["m10"] >= spec.m10),
        ("n0", vals["n0"] >= spec.n0),
        ("n1", vals["n1"] >= spec.n1),
        ("parent", vals["m_parent"] + vals["n_parent"] <= spec.c),
        ("column0", spec.m00 + spec.n0 >= spec.c),
        ("column1", spec.m10 + spec.n1 >= spec.c),
    ]
    witness = next((name for name, ok in checks if not ok), None)
    branch = p + ("01" if spec.n0 <= spec.n1 else "11")
    branch_value = m_at(branch) + n_at(branch)
    quantities = tuple(sorted(vals.items())) + (
        ("branch", branch_value),
        ("c", spec.c),
    )
    return BlockReport(
        parent=p,
        hypotheses_ok=witness is None,
        witness=witness,
        branch_state=branch,
        branch_value=branch_value,
        threshold=spec.c,
        conclusion_ok=witness is None and branch_value <= spec.c,
        quantities=quantities,
    )


WATCHING = "watching"
CLOSED = "closed"


@dataclass(frozen=True)
class EnumState:
    """Where the at-most-three enumeration above one parent ended.

    enumerated always starts with parent+00 and parent+10; a third string
    (parent+01 or parent+11, never both) appears once the joint capital has
    exceeded the threshold on both reference leaves. last_stage is the last
    stage actually inspected.
    """

    parent: str
    threshold: Fraction
    enumerated: tuple[str, ...]
    phase: str
    last_stage: int
    recorded: BlockSpec | None = None


def enumerate_block(
    parent: str,
    c,
    m: StageApprox,
    n: StageApprox,
    budget: int,
) -> EnumState:
    """Enumerate at most three 2-bit extensions of parent against (m, n).

    parent+00 and parent+10 are enumerated immediately. The watcher then
    scans stages for the first s <= budget at which the joint capital
    exceeds c at both of those leaves; at that moment the four reference
    values are recorded and the third string is parent+01 when n0 <= n1,
    parent+11 otherwise. Capital only changes at component activation
    stages, so only those stages are inspected, and each leaf keeps a
    running sum to which a stage adds only the components waking there.
    """
    if len(parent) % 2 != 0:
        raise PreconditionError("block parent must have even length")
    c = as_capital(c)
    if budget < 0:
        raise PreconditionError("stage budget must be nonnegative")
    return _enumerate_block(m, n, _joint(m, n), check_bits(parent), c, budget)


def _enumerate_block(m: StageApprox, n: StageApprox, joint: StageApprox, parent: str, c: Fraction,
                     budget: int) -> EnumState:
    """enumerate_block on the pair (m, n) and its joint, for arguments
    already checked."""
    p = parent
    leaves = (p + "00", p + "10")
    # each leaf's running sum and the stage it was last read at; the second
    # leaf is read only once the first exceeds c
    sums, since = [(0, 1), (0, 1)], [-1, -1]
    for s in sorted({0} | {comp.stage for comp in joint.components if comp.stage <= budget}):
        for i, leaf in enumerate(leaves):
            sums[i] = joint._read(s, leaf, since[i], sums[i])
            since[i] = s
            if not _exceeds(sums[i], c):
                break
        else:
            rec = BlockSpec(
                m00=m.eval(s, leaves[0]),
                m10=m.eval(s, leaves[1]),
                n0=n.eval(s, p + "0"),
                n1=n.eval(s, p + "1"),
                c=c,
            )
            third = p + ("01" if rec.n0 <= rec.n1 else "11")
            return EnumState(
                parent=p,
                threshold=c,
                enumerated=(leaves[0], leaves[1], third),
                phase=CLOSED,
                last_stage=s,
                recorded=rec,
            )
    return EnumState(
        parent=p,
        threshold=c,
        enumerated=leaves,
        phase=WATCHING,
        last_stage=budget,
    )


@dataclass(frozen=True)
class TestArray:
    """Leveled string array. block34 flavor: level i lives in 2^{2i}, every
    member extends a level-(i-1) member by two bits, at most three children
    per parent, so level i carries measure at most (3/4)^i."""

    levels: tuple[tuple[str, ...], ...]
    flavor: str = "block34"

    def depth(self) -> int:
        return len(self.levels) - 1


def check_block34(array: TestArray) -> None:
    """Validate the block34 shape; raises StructuralError with the first
    offending member."""
    if array.flavor != "block34":
        raise StructuralError(f"not a block34 array: flavor {array.flavor!r}")
    if not array.levels or array.levels[0] != ("",):
        raise StructuralError("level 0 must be exactly the empty string")
    for i in range(1, len(array.levels)):
        parents = set(array.levels[i - 1])
        fanout: dict[str, int] = {}
        seen: set[str] = set()
        for member in array.levels[i]:
            if len(member) != 2 * i:
                raise StructuralError(f"level {i} member {member!r} has wrong length")
            if member in seen:
                raise StructuralError(f"duplicate member {member!r} at level {i}")
            seen.add(member)
            parent = member[:-2]
            if parent not in parents:
                raise StructuralError(f"{member!r} extends no level-{i - 1} member")
            fanout[parent] = fanout.get(parent, 0) + 1
            if fanout[parent] > 3:
                raise StructuralError(f"parent {parent!r} has more than 3 children")


def max_fanout(array: TestArray, level: int) -> int:
    """Largest child count any level-(level-1) member has at this level."""
    if level <= 0 or level > array.depth():
        raise PreconditionError("fanout is defined for levels 1..depth")
    fanout: dict[str, int] = {}
    for member in array.levels[level]:
        parent = member[:-2]
        fanout[parent] = fanout.get(parent, 0) + 1
    return max(fanout.values(), default=0)


def level_measure(array: TestArray, level: int) -> Fraction:
    """Total measure of the cones rooted at the level's members."""
    if level < 0 or level > array.depth():
        raise PreconditionError("measure is defined for levels 0..depth")
    return len(array.levels[level]) * Fraction(1, 4**level)


@dataclass(frozen=True)
class LevelReport:
    """Per-level record from the nested builder: which parent was expanded,
    how its enumeration ended, the children's final joint capitals, which
    of them sit at or below the threshold, and the leftmost such child."""

    level: int
    expanded_parent: str
    phase: str
    trigger_stage: int | None
    children: tuple[str, ...]
    final_values: tuple[tuple[str, Fraction], ...]
    survivors: tuple[str, ...]
    chosen: str


@dataclass(frozen=True)
class ParityTestResult:
    array: TestArray
    path: str
    reports: tuple[LevelReport, ...]
    threshold: Fraction
    stages: int


def build_parity_test(
    m: StageApprox,
    n: StageApprox,
    depth: int,
    stages: int,
) -> ParityTestResult:
    """Build the nested at-most-three test against the pair (m, n).

    Level 0 is the root alone. Above each expanded parent the block
    enumeration contributes its 2 or 3 strings as the next level. The path
    follows, at every level, the leftmost child whose joint final-stage
    capital is at most c = 1; the two-round inequality guarantees such a child
    exists whenever the parent itself sits at or below c, which holds at
    the root by precondition and then inductively along the path. Only
    the path's parent is expanded per level, which keeps deep runs linear
    in depth.
    """
    joint = _joint(m, n)
    c = Fraction(1)
    if depth < 0 or stages < 0:
        raise PreconditionError("depth and stage budget must be nonnegative")
    if _exceeds(joint._read(stages, ""), c):
        raise PreconditionError(
            f"joint root capital {joint.eval(stages, '')} exceeds the threshold {c}"
        )

    levels: list[tuple[str, ...]] = [("",)]
    reports: list[LevelReport] = []
    path = ""
    for level in range(1, depth + 1):
        path_state = _enumerate_block(m, n, joint, path, c, stages)
        children = tuple(sorted(path_state.enumerated))
        reads = [joint._read(stages, child) for child in children]
        survivors = tuple(child for child, r in zip(children, reads) if not _exceeds(r, c))
        if not survivors:
            raise BettingLabError(
                f"no extension of {path!r} stays under {c} at stage {stages}; "
                f"the block argument rules this out for approximations of the "
                f"declared shape"
            )
        chosen = survivors[0]
        reports.append(
            LevelReport(
                level=level,
                expanded_parent=path,
                phase=path_state.phase,
                trigger_stage=path_state.last_stage if path_state.phase == CLOSED else None,
                children=children,
                final_values=tuple((child, Fraction(*r)) for child, r in zip(children, reads)),
                survivors=survivors,
                chosen=chosen,
            )
        )
        levels.append(children)
        path = chosen
    array = TestArray(levels=tuple(levels), flavor="block34")
    check_block34(array)
    return ParityTestResult(
        array=array, path=path, reports=tuple(reports), threshold=c, stages=stages
    )


class PackingCertificate:
    """Lazy value oracle for the 4/3-growth supermartingale of an array.

    On-array states of length 2i carry (4/3)^i. A state of odd length 2i+1
    carries the average of its two children's values, an on-array state of
    length 2i with no materialized level above it stays constant, and
    anything off the array carries 0. Values are computed on demand; a
    total table is only materialized through to_table at small depths.
    """

    def __init__(self, array: TestArray):
        check_block34(array)
        self.array = array
        self._sets = [frozenset(lv) for lv in array.levels]

    def value(self, state: str) -> Fraction:
        check_bits(state)
        top = 2 * len(self._sets) - 2
        if len(state) > top:  # past the deepest member level nothing bets
            state = state[:top]
        i, odd = divmod(len(state), 2)
        if not odd:
            return Fraction(4, 3) ** i if state in self._sets[i] else Fraction(0)
        if state[:-1] not in self._sets[i]:
            return Fraction(0)
        cnt = sum(1 for b in "01" if state + b in self._sets[i + 1])
        return cnt * Fraction(4, 3) ** (i + 1) / 2

    def to_table(self, depth: int) -> StrategyTable:
        values = {s: self.value(s) for s in all_states(depth)}
        return StrategyTable(depth, values, Kind.SUPERMARTINGALE)


@dataclass(frozen=True)
class GrowthLine:
    level: int
    members: int
    on_path_value: Fraction
    measure_bound: Fraction


def packing_certificate(
    array: TestArray,
) -> tuple[PackingCertificate, tuple[GrowthLine, ...]]:
    """Certificate plus its per-level growth report. Along any path through
    the array the certificate's value at level i is exactly (4/3)^i, which
    pins the path's dimension at half the log of 3."""
    cert = PackingCertificate(array)
    lines = tuple(
        GrowthLine(
            level=i,
            members=len(array.levels[i]),
            on_path_value=Fraction(4, 3) ** i,
            measure_bound=min(level_measure(array, i), Fraction(3, 4) ** i),
        )
        for i in range(len(array.levels))
    )
    return cert, lines


def mixture(programs: list[BetProgram] | tuple[BetProgram, ...], parity: Parity) -> StageApprox:
    """Weighted join of unit-scale programs sharing one parity tag.

    Program i joins at stage i with weight 2^-(i+2), so the root value
    stays strictly below 1/2 while the join dominates each member up to
    that constant factor.
    """
    if parity is Parity.NONE:
        raise PreconditionError("mixture needs a single-parity tag")
    progs = tuple(programs)
    if not progs:
        raise PreconditionError("mixture of nothing")
    if any(p.initial > 1 for p in progs):
        raise PreconditionError("mixture components must start with capital <= 1")
    comps = tuple(
        Component(stage=i, weight=Fraction(1, 2 ** (i + 2)), program=p)
        for i, p in enumerate(progs)
    )
    return StageApprox(comps, Kind.of_sum(p.kind for p in progs), parity, Sided.NONE)
