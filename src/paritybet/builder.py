"""Stage machine for a capital-starved prefix with description ledger.

The construction keeps a tower of nested prefixes, one per depth index n,
each a fixed-length extension of the previous chosen greedily so the
joint betting capital along it stays under an explicit per-index budget.
When a later approximation stage pumps capital over the budget the tower
is cut at the offending index and regrown further to the right.

Every stable prefix gets a description request of a prescribed length in
a shared ledger whose Kraft weight must never exceed 1; the parameter
recurrences are sized exactly so the per-index request classes stay
affordable. Martingale floors (plain and parity-restricted) and a growth
bound checker for floor increments round out the toolkit.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from fractions import Fraction

from . import bits
from .errors import BettingLabError, PreconditionError, StructuralError
from .programs import StageApprox, at_stage
from .strategy import Kind, Parity, Sided, StrategyTable

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
    s_n = (n+2)(2n+2+sum of earlier p) with p_n = s_n/2 + n + 2 makes the
    budget inequality s_n*q_n - p_n > n + sum of earlier p hold, which is
    verified here for n >= 1. At n = 0 the pinned s_0 = 0 breaks that
    inequality (-2 > 0 fails), so index 0 is exempt; nothing is ever
    described at index 0.
    """
    if n_max < 0:
        raise PreconditionError("n_max must be nonnegative")
    out: list[StageParams] = []
    p_sum = 0
    for n in range(n_max + 1):
        q = HALF + Fraction(3, n + 2)
        s = 0 if n == 0 else (n + 2) * (2 * n + 2 + p_sum)
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


# mixture -> {(depth, parity, stage): (prev, floor)}, the last floor taken
# per key; an entry lives exactly as long as its mixture
_FLOORS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def floor(
    m,
    depth: int,
    parity: Parity = Parity.NONE,
    stage: int | None = None,
    prev: StrategyTable | None = None,
) -> StrategyTable:
    """Largest martingale below a supermartingale, to a given depth.

    Plain mode copies the input on the bottom level and backward-averages
    upward; the result agrees with the input on the bottom level exactly
    and is automatically stage-monotone for staged inputs.

    Parity mode produces a parity-restricted martingale below the input
    with the largest possible root: a bottom-up pass computes the cap each
    state can support (minimum with the child average at betting levels,
    with both children at copying levels), then a top-down pass splits
    each betting node, preferring to keep children equal and pushing
    toward the cheaper cap only when forced. Bottom-level agreement is
    not guaranteed in parity mode; it is impossible in general.

    prev chains parity floors across stages: the new floor is forced to
    dominate prev pointwise, which keeps floor sequences monotone when
    the underlying stages are. prev must be a floor of an earlier stage
    of the same input at the same depth and parity.
    """
    if depth < 0:
        raise PreconditionError("depth must be nonnegative")
    memo = None
    if isinstance(m, StageApprox):
        # floors recur with identical arguments during growth checking;
        # a hit needs the very same prev object, so an equal prev that is
        # a different object is floored afresh
        key = (depth, parity, stage)
        memo = _FLOORS.setdefault(m, {})
        hit = memo.get(key)
        if hit is not None and hit[0] is prev:
            return hit[1]
    if isinstance(m, StrategyTable) and depth > m.depth:
        raise PreconditionError(f"floor depth {depth} exceeds table depth {m.depth}")
    ev = at_stage(m, stage).value
    if parity == Parity.NONE:
        if prev is not None:
            raise PreconditionError("chaining applies to parity mode only")
        vals: dict[str, Fraction] = {}
        for state in bits.level(depth):
            vals[state] = Fraction(ev(state))
        for length in range(depth - 1, -1, -1):
            for state in bits.level(length):
                vals[state] = (vals[state + "0"] + vals[state + "1"]) / 2
        result = StrategyTable(depth, vals, Kind.MARTINGALE, Parity.NONE, Sided.NONE)
        if memo is not None:
            memo[key] = (prev, result)
        return result
    if depth % 2:
        raise PreconditionError("parity mode needs an even depth")
    if prev is not None and (prev.depth != depth or prev.parity != parity):
        raise PreconditionError("prev floor has a different shape")

    caps: dict[str, Fraction] = {}
    for state in bits.level(depth):
        caps[state] = Fraction(ev(state))
    for length in range(depth - 1, -1, -1):
        betting = parity.bets_at(length)
        for state in bits.level(length):
            c0, c1 = caps[state + "0"], caps[state + "1"]
            own = Fraction(ev(state))
            caps[state] = min(own, (c0 + c1) / 2) if betting else min(own, c0, c1)

    def base(state: str) -> Fraction:
        return prev.value(state) if prev is not None else Fraction(0)

    out: dict[str, Fraction] = {"": caps[""]}
    if out[""] < base(""):
        raise PreconditionError("prev floor is not dominated; stages must grow")
    for length in range(depth):
        betting = parity.bets_at(length)
        for state in bits.level(length):
            x = out[state]
            if not betting:
                out[state + "0"] = x
                out[state + "1"] = x
                continue
            lo = max(base(state + "0"), 2 * x - caps[state + "1"])
            hi = min(caps[state + "0"], 2 * x - base(state + "1"))
            if lo > hi:
                raise PreconditionError(
                    f"no feasible split at {state!r}; prev is not a chained floor"
                )
            left = min(max(x, lo), hi)
            out[state + "0"] = left
            out[state + "1"] = 2 * x - left
    result = StrategyTable(depth, out, Kind.MARTINGALE, parity, Sided.NONE)
    if memo is not None:
        memo[key] = (prev, result)
    return result


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
    if n_approx.parity != Parity.BETS_ON_ODD:
        raise PreconditionError("first side must bet at odd positions")
    if t_approx.parity != Parity.BETS_ON_EVEN:
        raise PreconditionError("second side must bet at even positions")
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


@dataclass
class RequestLedger:
    """Multiset of description requests with a hard Kraft budget.

    Each request is a (target, length) pair weighing 2^-length; the total
    weight may never exceed 1. k_v reports the shortest requested length
    for a target, the ledger's stand-in for description complexity.
    """

    requests: list[tuple[str, int]] = field(default_factory=list)

    def __post_init__(self):
        self._weight = sum((Fraction(1, 2**ln) for _, ln in self.requests), Fraction(0))

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
        self.requests.append((target, length))
        self._weight = w

    def k_v(self, target: str) -> int | None:
        lengths = [ln for t, ln in self.requests if t == target]
        return min(lengths) if lengths else None

    def class_weights(self) -> dict[int, Fraction]:
        """Total weight per request length."""
        out: dict[int, Fraction] = {}
        for _, ln in self.requests:
            out[ln] = out.get(ln, Fraction(0)) + Fraction(1, 2**ln)
        return out


def greedy_leftmost_extension(evaluator, base: str, bound, length: int) -> str:
    """Extend base to the given length, leftmost child under the bound.

    evaluator must be a supermartingale on states, so whenever the current
    value is under the bound some child is too: take 0 when it stays
    under, else 1. The whole walk is linear in the target length.
    """
    bits.check_bits(base)
    bound = Fraction(bound)
    if length < len(base):
        raise PreconditionError("target length shorter than the base")
    if evaluator(base) > bound:
        raise PreconditionError("base already exceeds the bound")
    state = base
    while len(state) < length:
        if evaluator(state + "0") <= bound:
            state += "0"
            continue
        if evaluator(state + "1") > bound:
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
    described.

    Raises on a capital abort (with the stage in the message), on a
    change-count budget violation, and on a lexicographic regression of
    a redefined prefix under a stable parent; all three are invariant
    failures, not recoverable states.
    """
    if n_approx.parity != Parity.BETS_ON_ODD:
        raise PreconditionError("first side must bet at odd positions")
    if t_approx.parity != Parity.BETS_ON_EVEN:
        raise PreconditionError("second side must bet at even positions")
    if stages < 0 or n_max < 0:
        raise PreconditionError("stages and n_max must be nonnegative")

    par = stage_parameters(n_max)
    state = BuilderState(params=par)
    state.sigmas = [""] + [None] * n_max
    state.change_counts = [0] * (n_max + 1)
    # change budget tracking inside the current stable-parent interval
    since_parent = [0] * (n_max + 1)
    last_in_interval: list = [None] * (n_max + 1)

    def joint(u: int, st: str) -> Fraction:
        return n_approx.eval(u, st) + t_approx.eval(u, st)

    for u in range(stages + 1):
        state.stage = u
        root = joint(u, "")
        if root >= HALF:
            raise PreconditionError(
                f"joint root capital {root} reached 1/2 at stage {u}; aborting"
            )
        acted_n = None
        action = None
        for n in range(min(u, n_max) + 1):
            sig = state.sigmas[n]
            if sig is None:
                acted_n, action = n, "define"
                break
            if joint(u, sig) > capital_threshold(n):
                acted_n, action = n, "undefine"
                break
        if action == "define":
            n = acted_n
            base = state.sigmas[n - 1]
            bound = joint(u, base)
            tau = greedy_leftmost_extension(
                lambda st: joint(u, st), base, bound, par[n].s
            )
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
            # this index just changed: children start a fresh interval
            for i in range(n + 1, n_max + 1):
                since_parent[i] = 0
                last_in_interval[i] = None
            state.events.append(StageEvent(u, "define", n, tau))
        elif action == "undefine":
            n = acted_n
            for i in range(n, n_max + 1):
                if state.sigmas[i] is not None:
                    state.events.append(
                        StageEvent(u, "undefine", i, state.sigmas[i])
                    )
                    state.sigmas[i] = None
            for i in range(n + 1, n_max + 1):
                since_parent[i] = 0
                last_in_interval[i] = None
        for k in range(1, n_max + 1):
            sig = state.sigmas[k]
            if sig is None:
                continue
            known = state.ledger.k_v(sig)
            if known is None or known > par[k].described_len:
                state.ledger.add(sig, par[k].described_len)
                state.events.append(StageEvent(u, "describe", k, sig))
                break
    return state, state.deepest_defined(), state.ledger
