"""Randomized and exhaustive checking suites for the block inequality,
block minimality, parity factorization, parity floors, and the growth
bound. Everything runs on exact rationals; a suite reports counted
failures with reproducible witnesses instead of raising, so a red run
shows exactly which instance broke.

Scaled-integer grids: exhaustive passes represent values as integers in
units of 1/den, which keeps the inner loops allocation-free. Randomized
passes draw denominators and numerators from a seeded random.Random, so
a (seed, count) pair pins the whole instance stream.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import bits
from .blocktest import verify_block_inequality
from .builder import check_growth_bound, floor
from .decompose import BlockSpec, min_block_martingale, parity_factorize
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

    def as_jsonable(self) -> dict:
        return {
            "name": self.name,
            "total": self.total,
            "passed": self.passed,
            "failures": self.failures,
            "stats": dict(sorted(self.stats.items())),
        }


def _rand_frac(rng: random.Random, lo: Fraction, hi: Fraction, den_max: int = 8):
    """Uniform-ish rational in [lo, hi] with a small random denominator."""
    if hi < lo:
        raise PreconditionError("empty interval")
    den = rng.randint(1, den_max)
    span = hi - lo
    steps = int(span * den)
    return lo + Fraction(rng.randint(0, steps), den) if steps else lo


def _odd_block_table(r, m00, m01, m10, m11) -> StrategyTable:
    vals = {
        "": r, "0": r, "1": r,
        "00": m00, "01": m01, "10": m10, "11": m11,
    }
    return StrategyTable(
        2, vals, Kind.SUPERMARTINGALE, Parity.BETS_ON_ODD, Sided.NONE
    )


def _even_block_table(r, n0, n1) -> StrategyTable:
    vals = {
        "": r, "0": n0, "1": n1,
        "00": n0, "01": n0, "10": n1, "11": n1,
    }
    return StrategyTable(
        2, vals, Kind.SUPERMARTINGALE, Parity.BETS_ON_EVEN, Sided.NONE
    )


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
        r = _rand_frac(rng, Fraction(0), Fraction(2))
        a = _rand_frac(rng, Fraction(0), 2 * r)
        a2 = _rand_frac(rng, Fraction(0), 2 * r - a)
        b = _rand_frac(rng, Fraction(0), 2 * r)
        b2 = _rand_frac(rng, Fraction(0), 2 * r - b)
        rn = _rand_frac(rng, Fraction(0), Fraction(2))
        n0v = _rand_frac(rng, Fraction(0), 2 * rn)
        n1v = _rand_frac(rng, Fraction(0), 2 * rn - n0v)
        lo_c = r + rn
        hi_c = min(a + n0v, b + n1v)
        if hi_c < lo_c:
            continue  # no admissible budget; redraw
        c = _rand_frac(rng, lo_c, hi_c)
        n0 = _rand_frac(rng, max(Fraction(0), c - a), n0v)
        m00 = _rand_frac(rng, max(Fraction(0), c - n0), a)
        n1 = _rand_frac(rng, max(Fraction(0), c - b), n1v)
        m10 = _rand_frac(rng, max(Fraction(0), c - n1), b)
        spec = BlockSpec(m00, m10, n0, n1, c)
        m = _odd_block_table(r, a, a2, b, b2)
        n = _even_block_table(rn, n0v, n1v)
        rep = verify_block_inequality(m, n, "", spec)
        report.total += 1
        if not rep.hypotheses_ok:
            report.fail(kind="hypotheses", witness=rep.witness, spec=str(spec))
        elif not rep.conclusion_ok:
            report.fail(
                kind="conclusion",
                branch=rep.branch_state,
                value=str(rep.branch_value),
                budget=str(c),
                instance=[str(v) for v in (r, a, a2, b, b2, rn, n0v, n1v)],
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
                                fr = Fraction
                                rep = verify_block_inequality(
                                    _odd_block_table(
                                        fr(r, den), fr(a, den), fr(ao, den),
                                        fr(b, den), fr(bo, den),
                                    ),
                                    _even_block_table(
                                        fr(rn, den), fr(n0, den), fr(n1, den)
                                    ),
                                    "",
                                    BlockSpec(
                                        fr(a, den), fr(b, den), fr(n0, den),
                                        fr(n1, den), fr(c, den),
                                    ),
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
            root0 = base.value("")
            l01, l11 = base.value("01"), base.value("11")
            # equality class: the root is the single free choice
            r2 = int(root0 * 2 * den)  # root grid in half-units
            for rr in range(r2, 2 * max_value * den + 1):
                r = Fraction(rr, 2 * den)
                if 2 * r - m00 < 0 or 2 * r - m10 < 0:
                    report.fail(kind="grid-bug", at=[i00, i10, rr])
                    continue
                report.total += 1
                ok = (
                    r >= root0
                    and 2 * r - m00 >= l01
                    and 2 * r - m10 >= l11
                )
                if not ok:
                    report.fail(
                        kind="equality-minimality",
                        targets=[str(m00), str(m10)],
                        root=str(r),
                    )
            # dominating class: leaves may exceed the targets
            for rr in range(r2, 2 * max_value * den + 1):
                r = Fraction(rr, 2 * den)
                cap = min(2 * r, Fraction(max_value))
                ai = int((cap - m00) * den)
                bi = int((cap - m10) * den)
                if ai < 0 or bi < 0:
                    continue
                for da in range(ai + 1):
                    va = m00 + Fraction(da, den)
                    for db in range(bi + 1):
                        vb = m10 + Fraction(db, den)
                        report.total += 1
                        if not (
                            r >= root0 and va >= m00 and vb >= m10
                        ):
                            report.fail(
                                kind="sound-subset",
                                targets=[str(m00), str(m10)],
                                table=[str(r), str(va), str(vb)],
                            )
                        if 2 * r - va < l01 or 2 * r - vb < l11:
                            dominating_violations += 1
    report.stats["dominating_pointwise_violations"] = dominating_violations
    if dominating_violations == 0:
        report.fail(
            kind="missing-counterexample",
            note="dominating leaves never dipped below the base table; "
            "the sound-subset restriction would be unnecessary",
        )
    return report


def factorize_roundtrip(
    rng: random.Random, count: int = 200, depth: int = 8
) -> OracleReport:
    """Random positive martingales split into parity factors and rebuilt.

    Checks the exact product identity at every state and that each factor
    revalidates as a martingale of its parity.
    """
    report = OracleReport("factorize-roundtrip")
    for _ in range(count):
        root = _rand_frac(rng, Fraction(1, 4), Fraction(4))
        vals = {"": root}
        for state in bits.all_states(depth - 1):
            v = vals[state]
            den = rng.randint(2, 6)
            x = Fraction(rng.randint(1, 2 * den - 1), den)
            vals[state + "0"] = v * x
            vals[state + "1"] = v * (2 - x)
        table = StrategyTable(
            depth, vals, Kind.MARTINGALE, Parity.NONE, Sided.NONE
        )
        e, o = parity_factorize(table)
        report.total += 1
        bad = None
        for state in vals:
            if root * e.value(state) * o.value(state) != vals[state]:
                bad = state
                break
        if bad is not None:
            report.fail(kind="product", state=bad)
            continue
        de, do = validate(e), validate(o)
        if not de.holds(Kind.MARTINGALE, Parity.BETS_ON_ODD, Sided.NONE):
            report.fail(kind="factor-tags", which="second-bit")
        if not do.holds(Kind.MARTINGALE, Parity.BETS_ON_EVEN, Sided.NONE):
            report.fail(kind="factor-tags", which="first-bit")
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
    sits under the input, has the largest root any competitor reaches,
    and no competitor strictly dominates it.
    """
    report = OracleReport("floor-parity-grid")
    top = max_value * den
    fr = Fraction
    for ri in range(top + 1):
        r = fr(ri, den)
        for a in range(min(top, 2 * ri) + 1):
            for a2 in range(min(top, 2 * ri - a) + 1):
                for b in range(min(top, 2 * ri) + 1):
                    for b2 in range(min(top, 2 * ri - b) + 1):
                        m = _odd_block_table(
                            r, fr(a, den), fr(a2, den), fr(b, den), fr(b2, den)
                        )
                        x = floor(m, 2, Parity.BETS_ON_ODD)
                        report.total += 1
                        diag = validate(x)
                        if not diag.holds(
                            Kind.MARTINGALE, Parity.BETS_ON_ODD, Sided.NONE
                        ):
                            report.fail(kind="invalid-floor", m=[ri, a, a2, b, b2])
                            continue
                        if any(
                            x.value(s) > m.value(s) for s in bits.all_states(2)
                        ):
                            report.fail(kind="not-below", m=[ri, a, a2, b, b2])
                            continue
                        xr = x.value("")
                        # competitors: root ry and free leaf picks, all on
                        # the half-step grid the caps arithmetic lives on
                        bad = False
                        for ry2 in range(int(r * 2 * den) + 1):
                            ry = fr(ry2, 2 * den)
                            lo0 = max(fr(0), 2 * ry - fr(a2, den))
                            hi0 = min(fr(a, den), 2 * ry)
                            lo1 = max(fr(0), 2 * ry - fr(b2, den))
                            hi1 = min(fr(b, den), 2 * ry)
                            if lo0 > hi0 or lo1 > hi1:
                                continue
                            if ry > xr:
                                report.fail(
                                    kind="root-not-maximal",
                                    m=[ri, a, a2, b, b2],
                                    competitor_root=str(ry),
                                    floor_root=str(xr),
                                )
                                bad = True
                                break
                            if ry < xr:
                                continue
                            for y0i in range(int(lo0 * 2 * den), int(hi0 * 2 * den) + 1):
                                y0 = fr(y0i, 2 * den)
                                for y1i in range(int(lo1 * 2 * den), int(hi1 * 2 * den) + 1):
                                    y1 = fr(y1i, 2 * den)
                                    above = (
                                        y0 >= x.value("00")
                                        and 2 * ry - y0 >= x.value("01")
                                        and y1 >= x.value("10")
                                        and 2 * ry - y1 >= x.value("11")
                                    )
                                    strict = y0 != x.value("00") or y1 != x.value("10")
                                    if above and strict:
                                        report.fail(
                                            kind="strictly-dominated",
                                            m=[ri, a, a2, b, b2],
                                            competitor=[str(ry), str(y0), str(y1)],
                                        )
                                        bad = True
                                        break
                                if bad:
                                    break
                            if bad:
                                break
    return report
