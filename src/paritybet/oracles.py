"""Randomized and exhaustive checking suites for the block inequality,
block minimality, parity floors, and the growth bound. Everything runs
on exact rationals; a suite reports counted failures with reproducible
witnesses instead of raising, so a red run shows exactly which instance
broke.

Scaled-integer grids: two_round_grid, minimality_grid and
floor_parity_grid run their inner loops on integers. two_round_grid
counts in units of 1/den; the other two take, per outer instance, one
unit that the grid's half-step 1/(2 den) and the denominators of the
tables under test divide, and build a Fraction only to spell a failure
witness. The real floor, validate, min_block_martingale and
verify_block_inequality still run once per outer instance, on tables
built from the same integers. Randomized passes draw denominators and
numerators from a seeded random.Random, so a (seed, count) pair pins the
whole instance stream. The one sampler, _draw, works in integer units of
1/840 (840 = lcm(1..8)): every value it draws has a denominator of at
most 8, and every bound built from such values by sums, differences,
doubling, min and max stays on that grid.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from operator import gt

from .blocktest import verify_block_inequality
from .builder import check_growth_bound, floor
from .decompose import BlockSpec, min_block_martingale
from .errors import PreconditionError
from .programs import (
    Component,
    FractionBet,
    StageApprox,
    constant_program,
    follow_program,
)
from .strategy import Kind, Parity, Sided, StrategyTable, validate


@dataclass
class OracleReport:
    """Counted outcome of one suite: failures carry witness payloads."""

    name: str
    total: int = 0
    failures: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures

    def fail(self, **witness) -> None:
        if len(self.failures) < 32:  # keep reports readable
            self.failures.append(witness)
        else:
            self.stats["failures_truncated"] = True


_GRID = 840  # lcm(1..8): the sampler's values are multiples of 1/_GRID


def _draw(rng: random.Random, lo: int, hi: int) -> int:
    """Uniform-ish rational in [lo, hi] with a random denominator of at
    most 8; bounds and result are integers in units of 1/_GRID."""
    if hi < lo:
        raise PreconditionError("empty interval")
    den = rng.randint(1, 8)
    steps = (hi - lo) * den // _GRID
    return lo + rng.randint(0, steps) * (_GRID // den) if steps else lo


def _rand_frac(rng: random.Random, lo: Fraction, hi: Fraction) -> Fraction:
    """_draw between two rationals on the 1/_GRID grid."""
    return Fraction(_draw(rng, int(lo * _GRID), int(hi * _GRID)), _GRID)


def _odd_block_table(den, r, m00, m01, m10, m11) -> StrategyTable:
    """The second-bit block table with the given numerators over den."""
    return StrategyTable._of_levels(
        den, [[r], [r, r], [m00, m01, m10, m11]],
        Kind.SUPERMARTINGALE, Parity.BETS_ON_ODD,
    )


def _even_block_table(den, r, n0, n1) -> StrategyTable:
    """The first-bit block table with the given numerators over den."""
    return StrategyTable._of_levels(
        den, [[r], [n0, n1], [n0, n0, n1, n1]],
        Kind.SUPERMARTINGALE, Parity.BETS_ON_EVEN,
    )


def _scaled(table: StrategyTable, unit: int) -> list:
    """A table's values in units of 1/unit, level by level; unit must be
    a multiple of the table's denominator."""
    k = unit // table.values.den
    return [v * k for lv in table.values.levels for v in lv]


def two_round_random(rng: random.Random, count: int = 10000) -> OracleReport:
    """Randomized instances of the two-round block inequality.

    Draws a second-bit supermartingale, a first-bit supermartingale, a
    budget between the joint root value and the cheaper column, and
    targets with slack inside the admissible windows, so all seven
    hypotheses hold by construction; then checks the concluding branch
    via the block checker.
    """
    report = OracleReport("two-round-random")
    while report.total < count:
        r = _draw(rng, 0, 2 * _GRID)
        a = _draw(rng, 0, 2 * r)
        a2 = _draw(rng, 0, 2 * r - a)
        b = _draw(rng, 0, 2 * r)
        b2 = _draw(rng, 0, 2 * r - b)
        rn = _draw(rng, 0, 2 * _GRID)
        n0v = _draw(rng, 0, 2 * rn)
        n1v = _draw(rng, 0, 2 * rn - n0v)
        lo_c = r + rn
        hi_c = min(a + n0v, b + n1v)
        if hi_c < lo_c:
            continue  # no admissible budget; redraw
        c = _draw(rng, lo_c, hi_c)
        n0 = _draw(rng, max(0, c - a), n0v)
        m00 = _draw(rng, max(0, c - n0), a)
        n1 = _draw(rng, max(0, c - b), n1v)
        m10 = _draw(rng, max(0, c - n1), b)
        spec = BlockSpec(*(Fraction(v, _GRID) for v in (m00, m10, n0, n1, c)))
        m = _odd_block_table(_GRID, r, a, a2, b, b2)
        n = _even_block_table(_GRID, rn, n0v, n1v)
        rep = verify_block_inequality(m, n, "", spec)
        report.total += 1
        if not rep.hypotheses_ok:
            report.fail(kind="hypotheses", witness=rep.witness, spec=str(spec))
        elif not rep.conclusion_ok:
            report.fail(
                kind="conclusion",
                branch=rep.branch_state,
                value=str(rep.branch_value),
                budget=str(spec.c),
                instance=[
                    str(Fraction(v, _GRID)) for v in (r, a, a2, b, b2, rn, n0v, n1v)
                ],
            )
    return report


def two_round_grid(den: int = 8) -> OracleReport:
    """Exhaustive martingale instances on the two-bit block, values in
    units of 1/den with roots up to 1 per side and equality targets.

    Runs on scaled integers for speed; a sparse subsample is replayed
    through the full table checker to tie the fast path to the real one.
    """
    report = OracleReport("two-round-grid")
    replayed = 0
    for r in range(den + 1):
        for a in range(2 * r + 1):
            ao = 2 * r - a
            for b in range(2 * r + 1):
                bo = 2 * r - b
                for rn in range(den + 1):
                    for n0 in range(2 * rn + 1):
                        n1 = 2 * rn - n0
                        hi = min(a + n0, b + n1)
                        lo = r + rn
                        for c in range(lo, hi + 1):
                            report.total += 1
                            # concluding branch: cheaper first-bit target
                            value = ao + n0 if n0 <= n1 else bo + n1
                            if value > c:
                                report.fail(
                                    kind="conclusion",
                                    scaled=[r, a, b, rn, n0, c],
                                    den=den,
                                )
                            if report.total % 4999 == 0:
                                rep = verify_block_inequality(
                                    _odd_block_table(den, r, a, ao, b, bo),
                                    _even_block_table(den, rn, n0, n1),
                                    "",
                                    BlockSpec(*(
                                        Fraction(v, den) for v in (a, b, n0, n1, c)
                                    )),
                                )
                                replayed += 1
                                if not (rep.hypotheses_ok and rep.conclusion_ok):
                                    report.fail(
                                        kind="replay-disagreement",
                                        scaled=[r, a, b, rn, n0, c],
                                    )
    report.stats["replayed_through_tables"] = replayed
    return report


def minimality_grid(den: int = 4, max_value: int = 4) -> OracleReport:
    """Brute-force minimality of the cheapest second-bit block strategy.

    Over every target pair on the grid: (i) among second-bit-parity
    martingales hitting both leaf targets exactly, the constructed table
    is pointwise minimal on all seven states; (ii) among martingales
    whose leaves only dominate the targets, it is minimal on the root,
    both level-1 states, and the two targeted leaves. Full pointwise
    minimality under dominating leaves is false; the suite counts the
    witnesses (their absence would itself be suspicious) instead of
    asserting it.
    """
    report = OracleReport("minimality-grid")
    top = max_value * den
    dominating_violations = 0
    for i00 in range(top + 1):
        for i10 in range(top + 1):
            m00, m10 = Fraction(i00, den), Fraction(i10, den)
            base = min_block_martingale(m00, m10)
            # everything below is in units of 1/unit; the root grid steps
            # by a half-unit of 1/den, the leaves by a whole one
            unit = math.lcm(base.values.den, 2 * den)
            half = unit // (2 * den)
            root0, _, _, _, l01, _, l11 = _scaled(base, unit)
            a, b = 2 * half * i00, 2 * half * i10
            roots = range(root0 // half * half, max_value * unit + 1, half)
            # equality class: the root is the single free choice
            for r in roots:
                if 2 * r - a < 0 or 2 * r - b < 0:
                    report.fail(kind="grid-bug", at=[i00, i10, r // half])
                    continue
                report.total += 1
                if not (r >= root0 and 2 * r - a >= l01 and 2 * r - b >= l11):
                    report.fail(
                        kind="equality-minimality",
                        targets=[str(m00), str(m10)],
                        root=str(Fraction(r, unit)),
                    )
            # dominating class: leaves may exceed the targets
            for r in roots:
                cap = min(2 * r, max_value * unit)
                for va in range(a, cap + 1, 2 * half):
                    below_a = 2 * r - va < l01
                    for vb in range(b, cap + 1, 2 * half):
                        report.total += 1
                        if not (r >= root0 and va >= a and vb >= b):
                            report.fail(
                                kind="sound-subset",
                                targets=[str(m00), str(m10)],
                                table=[str(Fraction(v, unit)) for v in (r, va, vb)],
                            )
                        if below_a or 2 * r - vb < l11:
                            dominating_violations += 1
    report.stats["dominating_pointwise_violations"] = dominating_violations
    if dominating_violations == 0:
        report.fail(
            kind="missing-counterexample",
            note="dominating leaves never dipped below the base table; "
            "the sound-subset restriction would be unnecessary",
        )
    return report


def _random_component(rng: random.Random, parity: Parity) -> Component:
    stage = rng.randint(0, 20)
    weight = Fraction(1, 2 ** rng.randint(1, 5))
    kind = rng.randrange(3)
    if kind == 0:
        v = _rand_frac(rng, Fraction(0), Fraction(1))
        prog = constant_program(v, None, parity)
    elif kind == 1:
        v = _rand_frac(rng, Fraction(1, 8), Fraction(1))
        f = _rand_frac(rng, Fraction(-1), Fraction(1))
        prog = constant_program(v, FractionBet(f), parity)
    else:
        length = rng.randint(2, 12)
        target = "".join(rng.choice("01") for _ in range(length))
        v = Fraction(1, 2 ** rng.randint(0, 4))
        prog = follow_program(target, parity, v)
    return Component(stage, weight, prog)


def _random_mixture(rng: random.Random, parity: Parity) -> StageApprox:
    comps = tuple(
        _random_component(rng, parity) for _ in range(rng.randint(1, 4))
    )
    return StageApprox(comps, Kind.MARTINGALE, parity, Sided.NONE)


def growth_random(rng: random.Random, count: int = 1000) -> OracleReport:
    """Randomized growth-bound instances on depth-8 parity mixtures.

    Mixture pairs are pooled and reused so their value and floor memos amortize;
    p is derived from the observed increment at sigma so the hypothesis
    is genuinely satisfied, never vacuous, in every instance.
    """
    report = OracleReport("growth-random")
    depth = 8
    pool = [
        (
            _random_mixture(rng, Parity.BETS_ON_ODD),
            _random_mixture(rng, Parity.BETS_ON_EVEN),
        )
        for _ in range(max(1, count // 20))
    ]
    vacuous = 0
    while report.total < count:
        n_side, t_side = pool[rng.randrange(len(pool))]
        tau = "".join(rng.choice("01") for _ in range(depth))
        sigma = tau[: 2 * rng.randint(0, depth // 2 - 1)]
        stage_s = rng.randint(0, 20)
        stage_t = stage_s + rng.randint(1, 10)
        probe = check_growth_bound(
            n_side, t_side, sigma, tau, stage_s, stage_t, p=0, depth=depth
        )
        delta = probe.delta_at_sigma
        if delta == 0:
            p = rng.randint(1, 8)
        else:
            p = 0
            while Fraction(1, 2 ** (p + 1)) > delta:
                p += 1
            # now 2^-(p+1) <= delta; check strictness at p
            if Fraction(1, 2**p) <= delta:
                vacuous += 1
                report.total += 1
                continue
        verdict = check_growth_bound(
            n_side, t_side, sigma, tau, stage_s, stage_t, p=p, depth=depth
        )
        report.total += 1
        if not verdict.hypothesis_holds:
            report.fail(kind="hypothesis-derivation", p=p, delta=str(delta))
        elif not verdict.conclusion_holds:
            report.fail(
                kind="conclusion",
                sigma=sigma,
                tau=tau,
                stages=[stage_s, stage_t],
                p=p,
                rise=str(verdict.value_t_at_tau - verdict.value_s_at_tau),
                bound=str(verdict.bound),
            )
    report.stats["skipped_unrepresentable_p"] = vacuous
    return report


def all_in_growth_fixture() -> OracleReport:
    """One constructed instance pushing the growth bound to within a
    factor of two: a component added at the later stage follows tau and
    doubles at every second-bit position along it."""
    report = OracleReport("growth-all-in")
    tau = "010110"
    sigma = "01"
    allin = Component(
        10, Fraction(1), follow_program(tau, Parity.BETS_ON_ODD, Fraction(1, 64))
    )
    quiet = Component(
        0, Fraction(1), constant_program(Fraction(1, 4), None, Parity.BETS_ON_ODD)
    )
    n_side = StageApprox(
        (quiet, allin), Kind.MARTINGALE, Parity.BETS_ON_ODD, Sided.NONE
    )
    t_side = StageApprox(
        (
            Component(
                0,
                Fraction(1),
                constant_program(Fraction(1, 4), None, Parity.BETS_ON_EVEN),
            ),
        ),
        Kind.MARTINGALE,
        Parity.BETS_ON_EVEN,
        Sided.NONE,
    )
    verdict = check_growth_bound(
        n_side, t_side, sigma, tau, stage_s=5, stage_t=15, p=4, depth=6
    )
    report.total = 1
    rise = verdict.value_t_at_tau - verdict.value_s_at_tau
    if not verdict.hypothesis_holds:
        report.fail(kind="hypothesis", delta=str(verdict.delta_at_sigma))
    if not verdict.conclusion_holds:
        report.fail(kind="conclusion", rise=str(rise), bound=str(verdict.bound))
    if 2 * rise < verdict.bound:
        report.fail(
            kind="not-tight",
            rise=str(rise),
            bound=str(verdict.bound),
            note="fixture should come within a factor of two of the bound",
        )
    report.stats["rise"] = str(rise)
    report.stats["bound"] = str(verdict.bound)
    return report


def floor_parity_grid(den: int = 4, max_value: int = 1) -> OracleReport:
    """Exhaustive depth-2 check that the parity floor is a maximal
    second-bit-parity martingale under the input.

    For every grid supermartingale: the floor revalidates with its tags,
    sits under the input, and has the largest root any competitor
    reaches. No dominance check follows: a floor that validates as a
    bets-on-odd martingale copies its root to both level-1 states, so
    each pair of sibling leaves sums to twice the root, and a competitor
    with that root at or above the floor on every leaf equals it.
    """
    report = OracleReport("floor-parity-grid")
    top = max_value * den
    for ri in range(top + 1):
        for a in range(min(top, 2 * ri) + 1):
            for a2 in range(min(top, 2 * ri - a) + 1):
                for b in range(min(top, 2 * ri) + 1):
                    for b2 in range(min(top, 2 * ri - b) + 1):
                        at = [ri, a, a2, b, b2]
                        m = _odd_block_table(den, ri, a, a2, b, b2)
                        x = floor(m, 2, Parity.BETS_ON_ODD)
                        report.total += 1
                        diag = validate(x)
                        if not diag.holds(
                            Kind.MARTINGALE, Parity.BETS_ON_ODD, Sided.NONE
                        ):
                            report.fail(kind="invalid-floor", m=at)
                            continue
                        unit = math.lcm(x.values.den, m.values.den, 2 * den)
                        xs, ms = _scaled(x, unit), _scaled(m, unit)
                        if any(map(gt, xs, ms)):
                            report.fail(kind="not-below", m=at)
                            continue
                        witness = _floor_beaten(xs[0], ms, unit, unit // (2 * den), at)
                        if witness:
                            report.fail(**witness)
    return report


def _floor_beaten(xr: int, ms, unit: int, step: int, at: list) -> dict | None:
    """The failure witness of the first root above the parity floor's
    root xr that a competitor reaches under the input ms, or None. xr and
    ms come in units of 1/unit (ms as _scaled values); a competitor's
    root and free leaf picks lie on the grid of step/unit that the caps
    arithmetic lives on."""
    r, _, _, a, a2, b, b2 = ms
    for ry in range(0, r + 1, step):
        lo0, hi0 = max(0, 2 * ry - a2), min(a, 2 * ry)
        lo1, hi1 = max(0, 2 * ry - b2), min(b, 2 * ry)
        if ry > xr and lo0 <= hi0 and lo1 <= hi1:
            return dict(
                kind="root-not-maximal",
                m=at,
                competitor_root=str(Fraction(ry, unit)),
                floor_root=str(Fraction(xr, unit)),
            )
    return None
