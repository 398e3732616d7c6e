"""Stage machine for a capital-starved prefix with description ledger.

The construction keeps a tower of nested prefixes, one per depth index n,
each a fixed-length extension of the previous chosen greedily so the
joint betting capital along it stays under an explicit per-index budget.
When a later approximation stage pumps capital over the budget the tower
is cut at the offending index and regrown further to the right.

Every stable prefix gets a description request of a prescribed length in
a shared ledger whose Kraft weight must never exceed 1; the parameter
recurrences are sized exactly so the per-index request classes stay
affordable. Martingale floors, one algorithm with or without a parity
restriction, and a growth bound checker for floor increments round out
the toolkit.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from operator import gt

from . import bits
from .errors import BettingLabError, PreconditionError, StructuralError
from .programs import StageApprox, _check_sides, _exceeds, _joint, at_stage
from .strategy import Kind, Parity, StrategyTable, _per_child

HALF = Fraction(1, 2)


@dataclass(frozen=True)
class StageParams:
    """Exact budget parameters for one index of the tower.

    q is the description-density factor, s the prefix length, p the
    change-budget exponent; described_len is the ledger request length
    ceil(q*s). s stays even so prefixes cut cleanly into two-bit blocks.
    """

    n: int
    q: Fraction
    p: int
    s: int
    described_len: int

    def __post_init__(self):
        if self.s % 2:
            raise StructuralError(f"prefix length s_{self.n}={self.s} is odd")


def stage_parameters(n_max: int) -> tuple[StageParams, ...]:
    """Parameter triples for indices 0..n_max via the exact recurrences.

    s_0 = 0 is pinned by the construction; for n >= 1 the recurrence
    s_n = (n+2)(2n+2+sum of earlier p), rounded up to even (the first odd
    value is at n = 7), with p_n = s_n/2 + n + 2 makes the budget
    inequality s_n*q_n - p_n > n + sum of earlier p hold, which is
    verified here for n >= 1; rounding s_n up only widens its margin. At
    n = 0 the pinned s_0 = 0 breaks that inequality (-2 > 0 fails), so
    index 0 is exempt; nothing is ever described at index 0.
    """
    if n_max < 0:
        raise PreconditionError("n_max must be nonnegative")
    out: list[StageParams] = []
    p_sum = 0
    for n in range(n_max + 1):
        q = HALF + Fraction(3, n + 2)
        s = 0 if n == 0 else (n + 2) * (2 * n + 2 + p_sum)
        s += s % 2
        p = s // 2 + n + 2
        if n >= 1 and not s * q - p > n + p_sum:
            raise StructuralError(f"budget inequality fails at index {n}")
        out.append(
            StageParams(n=n, q=q, p=p, s=s, described_len=math.ceil(q * s))
        )
        p_sum += p
    return tuple(out)


def params(n: int) -> StageParams:
    """Single parameter entry for index n."""
    return stage_parameters(n)[n]


def capital_threshold(n: int) -> Fraction:
    """Capital budget for index n: 1/2 plus the geometric slack below n."""
    if n < 0:
        raise PreconditionError("index must be nonnegative")
    return HALF + sum(Fraction(1, 2 ** (i + 2)) for i in range(n))


# mixture -> {(depth, parity, awake components, id(prev)): (prev, floor)};
# an entry lives exactly as long as its mixture and keeps its prev alive,
# so the id in its key is never reused while the key is there
_FLOORS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def floor(
    m,
    depth: int,
    parity: Parity = Parity.NONE,
    stage: int | None = None,
    prev: StrategyTable | None = None,
) -> StrategyTable:
    """Largest martingale below a strategy, to a given depth, that bets
    only at the lengths parity allows (Parity.NONE bets at every length).

    One algorithm floors every input, read through its to_table(depth)
    as integer levels: a bottom-up pass computes the cap each state can
    support (the minimum of its own value and its children's average at
    betting lengths, of its value and both children at copying lengths),
    then a top-down pass splits each betting state, keeping its children
    equal when the caps allow and leaning toward the cheaper cap only
    when forced. The root is the largest any such martingale below the
    input can have. On a supermartingale without parity this is the
    backward average of the bottom level, which it keeps exactly; with
    a parity, bottom-level agreement is impossible in general.

    prev chains parity floors across stages: the new floor is forced to
    dominate prev pointwise, which keeps floor sequences monotone when
    the underlying stages are. prev must be a floor of an earlier stage
    of the same input at the same depth and parity.

    Floors of a mixture are memoised for the mixture's lifetime on
    (depth, parity, the components awake at the stage, prev object):
    every stage that wakes the same components gets the same table, and
    a chained floor is returned again for the same prev, while an equal
    copy of prev is a different key. Tables are never memoised.
    """
    if not isinstance(m, StageApprox):
        return _floor(m, depth, parity, stage, prev)
    memo = _FLOORS.setdefault(m, {})
    awake = m.components if stage is None else tuple(c for c in m.components if c.stage <= stage)
    key = (depth, parity, awake, id(prev))
    hit = memo.get(key)
    if hit is None:
        hit = memo[key] = (prev, _floor(m, depth, parity, stage, prev))
    return hit[1]


def _floor(m, depth: int, parity: Parity, stage: int | None, prev) -> StrategyTable:
    """floor without the memo."""
    if depth < 0:
        raise PreconditionError("depth must be nonnegative")
    # a table answers at its own depth, which may be short of the one asked for
    t = at_stage(m, stage).to_table(depth)
    if t.depth < depth:
        raise PreconditionError(f"floor depth {depth} exceeds table depth {t.depth}")
    if parity == Parity.NONE:
        if prev is not None:
            raise PreconditionError("chaining applies to parity mode only")
    else:
        if depth % 2:
            raise PreconditionError("parity mode needs an even depth")
        if prev is not None and (prev.depth != depth or prev.parity != parity):
            raise PreconditionError("prev floor has a different shape")
    # the input (and prev) as integers over one denominator times 2^depth,
    # so that each level's halving below stays exact
    den = t.values.den if prev is None else math.lcm(t.values.den, prev.values.den)
    up = (den // t.values.den) << depth
    den <<= depth
    bottom = [x * up for x in t.values.levels[depth]]

    # caps: bottom-up, the most each state can support
    caps = [bottom]
    for length in range(depth - 1, -1, -1):
        kids, own = caps[0], [x * up for x in t.values.levels[length]]
        if parity.bets_at(length):
            cap = [min(x, (a + b) >> 1) for x, a, b in zip(own, kids[0::2], kids[1::2])]
        else:
            cap = [min(x, a, b) for x, a, b in zip(own, kids[0::2], kids[1::2])]
        caps.insert(0, cap)
    if prev is None:
        base = [[0] * (1 << n) for n in range(depth + 1)]
    else:
        lift = den // prev.values.den
        base = [[x * lift for x in lv] for lv in prev.values.levels]

    # top-down: split each betting state, keeping its children equal when
    # the caps and prev allow, else leaning toward the cheaper cap
    out = [[caps[0][0]]]
    if out[0][0] < base[0][0]:
        raise PreconditionError("prev floor is not dominated; stages must grow")
    for length in range(depth):
        level = out[length]
        if not parity.bets_at(length):
            out.append(_per_child(level))
            # prev must not bet where the floor copies, or the floor falls below it
            if prev is not None and True in (over := list(map(gt, base[length + 1], out[-1]))):
                at = bits.state(length, over.index(True) // 2)
                raise PreconditionError(f"prev bets at {at!r}; prev is not a chained floor")
            continue
        cap, low, kids = caps[length + 1], base[length + 1], []
        for i, x in enumerate(level):
            lo = max(low[2 * i], 2 * x - cap[2 * i + 1])
            hi = min(cap[2 * i], 2 * x - low[2 * i + 1])
            if lo > hi:
                raise PreconditionError(
                    f"no feasible split at {bits.state(length, i)!r}; prev is not a chained floor"
                )
            left = min(max(x, lo), hi)
            kids += (left, 2 * x - left)
        out.append(kids)
    return StrategyTable._of_levels(den, out, Kind.MARTINGALE, parity)


@dataclass(frozen=True)
class GrowthVerdict:
    """Exact two-sided report of the floor growth bound.

    hypothesis: the summed floor rose by less than 2^-p at sigma between
    the two stages. conclusion: at tau the later floor stays below the
    earlier one plus 2^((|tau|-|sigma|)/2 - p). ok when the implication
    holds (vacuously if the hypothesis fails).
    """

    sigma: str
    tau: str
    stage_s: int
    stage_t: int
    p: int
    delta_at_sigma: Fraction
    hypothesis_holds: bool
    value_s_at_tau: Fraction
    value_t_at_tau: Fraction
    bound: Fraction
    conclusion_holds: bool

    def ok(self) -> bool:
        return not self.hypothesis_holds or self.conclusion_holds


def check_growth_bound(
    n_approx: StageApprox,
    t_approx: StageApprox,
    sigma: str,
    tau: str,
    stage_s: int,
    stage_t: int,
    p: int,
    depth: int | None = None,
) -> GrowthVerdict:
    """Check that small floor growth at sigma stays small along tau.

    Both sides are floored in parity mode at their own tags, the later
    stage chained on the earlier one, and summed. The increment of the
    sum is a nonnegative single-parity martingale per side, and each side
    can at most double per betting step between sigma and tau; that is
    the content of the bound being checked. Reports both sides exactly
    and never raises on a failing instance.
    """
    _check_sides(n_approx, t_approx)
    bits.check_bits(sigma)
    bits.check_bits(tau)
    if len(sigma) % 2:
        raise PreconditionError("sigma must have even length")
    if not tau.startswith(sigma):
        raise PreconditionError("tau must extend sigma")
    if depth is None:
        depth = len(tau)
    if len(tau) != depth or depth % 2:
        raise PreconditionError("tau must fill the even checking depth")
    if not stage_s < stage_t:
        raise PreconditionError("stages must increase")

    fn_s = floor(n_approx, depth, Parity.BETS_ON_ODD, stage=stage_s)
    fn_t = floor(n_approx, depth, Parity.BETS_ON_ODD, stage=stage_t, prev=fn_s)
    ft_s = floor(t_approx, depth, Parity.BETS_ON_EVEN, stage=stage_s)
    ft_t = floor(t_approx, depth, Parity.BETS_ON_EVEN, stage=stage_t, prev=ft_s)

    def m_s(state: str) -> Fraction:
        return fn_s.value(state) + ft_s.value(state)

    def m_t(state: str) -> Fraction:
        return fn_t.value(state) + ft_t.value(state)

    delta = m_t(sigma) - m_s(sigma)
    hypothesis = delta < Fraction(1, 2**p)
    exponent = (len(tau) - len(sigma)) // 2 - p
    bound = Fraction(2) ** exponent
    v_s, v_t = m_s(tau), m_t(tau)
    return GrowthVerdict(
        sigma=sigma,
        tau=tau,
        stage_s=stage_s,
        stage_t=stage_t,
        p=p,
        delta_at_sigma=delta,
        hypothesis_holds=hypothesis,
        value_s_at_tau=v_s,
        value_t_at_tau=v_t,
        bound=bound,
        conclusion_holds=v_t < v_s + bound,
    )


@dataclass(frozen=True)
class RequestLedger:
    """Multiset of description requests with a hard Kraft budget.

    Each request is a (target, length) pair weighing 2^-length; the total
    weight may never exceed 1. k_v reports the shortest requested length
    for a target (None if none), the ledger's stand-in for description
    complexity. add is the one way to change the requests: it replaces
    their tuple and keeps the weight and each target's shortest length,
    which are not fields, so == and the wire do not read them.
    """

    requests: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        # the given requests are checked as add checks each one
        given = self.requests
        object.__setattr__(self, "requests", ())
        object.__setattr__(self, "_weight", Fraction(0))
        object.__setattr__(self, "_shortest", {})
        for target, length in given:
            self.add(target, length)

    def kraft_weight(self) -> Fraction:
        return self._weight

    def add(self, target: str, length: int) -> None:
        bits.check_bits(target)
        if length < 1:
            raise PreconditionError("request length must be positive")
        w = self._weight + Fraction(1, 2**length)
        if w > 1:
            raise BettingLabError(
                f"description request for {target!r} would push Kraft "
                f"weight to {w} > 1"
            )
        object.__setattr__(self, "requests", (*self.requests, (target, length)))
        object.__setattr__(self, "_weight", w)
        self._shortest[target] = min(length, self._shortest.get(target, length))

    def k_v(self, target: str) -> int | None:
        return self._shortest.get(target)


def greedy_leftmost_extension(over, base: str, length: int) -> str:
    """Extend base to the given length, leftmost child under the bound.

    over(state) tells whether the value at state exceeds the bound. The
    value must be a supermartingale on states, so whenever the current
    value is under the bound some child is too: take 0 when it stays
    under, else 1. The whole walk is linear in the target length.
    """
    bits.check_bits(base)
    if length < len(base):
        raise PreconditionError("target length shorter than the base")
    if over(base):
        raise PreconditionError("base already exceeds the bound")
    state = base
    while len(state) < length:
        if not over(state + "0"):
            state += "0"
            continue
        if over(state + "1"):
            raise PreconditionError(
                f"both children exceed the bound at {state!r}; "
                "evaluator is not a supermartingale"
            )
        state += "1"
    return state


@dataclass(frozen=True)
class StageEvent:
    """One trace entry: what happened to index n at a given stage."""

    stage: int
    kind: str  # "define" | "undefine" | "describe"
    n: int
    value: str


@dataclass
class BuilderState:
    """Mutable tower state: current prefixes, counters, trace, ledger."""

    params: tuple[StageParams, ...]
    stage: int = -1
    sigmas: list = field(default_factory=list)  # index n -> str | None
    change_counts: list = field(default_factory=list)
    events: list = field(default_factory=list)
    ledger: RequestLedger = field(default_factory=RequestLedger)

    def deepest_defined(self) -> str:
        best = ""
        for s in self.sigmas:
            if s is not None:
                best = s
        return best


def run_stage_machine(
    n_approx: StageApprox,
    t_approx: StageApprox,
    stages: int,
    n_max: int,
) -> tuple[BuilderState, str, RequestLedger]:
    """Run the tower construction against a pair of staged strategies.

    Per stage: abort if the joint root capital reaches 1/2; find the
    least index needing attention (undefined, or its prefix's joint
    capital exceeds the index budget); define it by a greedy leftmost
    walk bounded by the parent's current capital, or cut the tower there;
    then record one ledger description for the least index whose current
    prefix lacks one. Index 0 is the empty prefix, always defined, never
    described. Each joint capital read is judged against its budget once,
    when it is read. Every other defined prefix was described at the
    stage that defined it, so the one that can lack a description is the
    prefix just defined, which a stage looks up in the ledger (k_v); the
    machine keeps no record of its own. A stage that reads no new capital
    compares no Fraction, and no stage scans the ledger's requests.

    Raises on a capital abort (with the stage in the message), on a
    change-count budget violation, and on a lexicographic regression of
    a redefined prefix under a stable parent; all three are invariant
    failures, not recoverable states.
    """
    joint = _joint(n_approx, t_approx)
    if stages < 0 or n_max < 0:
        raise PreconditionError("stages and n_max must be nonnegative")

    par = stage_parameters(n_max)
    state = BuilderState(params=par)
    state.sigmas = [""] + [None] * n_max
    state.change_counts = [0] * (n_max + 1)
    # change budget tracking inside the current stable-parent interval
    since_parent = [0] * (n_max + 1)
    last_in_interval: list = [None] * (n_max + 1)

    # the joint capital at a state changes with the stage only at an
    # activation stage of either side, so each index keeps the (prefix,
    # joint capital, verdict) it last read until the next activation stage
    # or until its prefix changes. The verdict is whether the capital is
    # over the index's budget; at the root, index 0, whether it reached 1/2
    wakes = {c.stage for c in joint.components}
    budgets = [capital_threshold(n) for n in range(n_max + 1)]
    reads: dict[int, tuple[str, Fraction, bool]] = {}

    def joint_at(u: int, n: int) -> tuple[str, Fraction, bool]:
        sig = state.sigmas[n]
        hit = reads.get(n)
        if hit is None or hit[0] != sig:
            v = joint.eval(u, sig)
            hit = reads[n] = (sig, v, v > budgets[n] if n else v >= HALF)
        return hit

    for u in range(stages + 1):
        state.stage = u
        if u in wakes:
            reads.clear()
        _, root, aborts = joint_at(u, 0)
        if aborts:
            raise PreconditionError(
                f"joint root capital {root} reached 1/2 at stage {u}; aborting"
            )
        # the root, under 1/2, is under its budget 1/2
        for n in range(1, min(u, n_max) + 1):
            if state.sigmas[n] is None or joint_at(u, n)[2]:
                break
        else:
            continue  # no index needs attention
        # index n changes: its children start a fresh interval
        for i in range(n + 1, n_max + 1):
            since_parent[i] = 0
            last_in_interval[i] = None
        if state.sigmas[n] is not None:
            for i in range(n, n_max + 1):
                if state.sigmas[i] is not None:
                    state.events.append(
                        StageEvent(u, "undefine", i, state.sigmas[i])
                    )
                    state.sigmas[i] = None
            continue
        base = state.sigmas[n - 1]
        bound = joint_at(u, n - 1)[1]
        tau = greedy_leftmost_extension(
            lambda st: _exceeds(joint._read(u, st), bound), base, par[n].s)
        prior = last_in_interval[n]
        if prior is not None and tau < prior:
            raise StructuralError(
                f"prefix at index {n} regressed from {prior!r} to {tau!r} "
                f"at stage {u} under a stable parent"
            )
        since_parent[n] += 1
        if since_parent[n] > 2 ** par[n].p:
            raise BettingLabError(
                f"index {n} changed more than 2^{par[n].p} times "
                "under a stable parent"
            )
        state.sigmas[n] = tau
        state.change_counts[n] += 1
        last_in_interval[n] = tau
        state.events.append(StageEvent(u, "define", n, tau))
        # a prefix's length fixes its index and so its request length
        if state.ledger.k_v(tau) is None:
            state.ledger.add(tau, par[n].described_len)
            state.events.append(StageEvent(u, "describe", n, tau))
    return state, state.deepest_defined(), state.ledger
