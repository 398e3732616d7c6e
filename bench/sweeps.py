"""Size sweeps of the traced run: growth exponents fitted on exact counts.

Each sweep runs one layer at a few sizes under a tracer and reads a work
count from the spans (FSM steps, table states, evaluations), never a
time, so an exponent repeats exactly on the same code and moves only when
an algorithm changes its complexity class. The inputs are the workloads'
fixtures of criteria 4 and 6, drawn from a fixed random.Random(0), so
they do not depend on the workload seed.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import workloads
from tracing import Tracer

VALUE_DEPTHS = (64, 128, 256)
VALIDATE_DEPTHS = (6, 8, 10, 12)
TOWER_STAGES = {2: (250, 500, 1000, 2000), 3: (250, 500, 1000)}


def slope(points) -> float:
    """Least-squares slope of y on x."""
    n = len(points)
    mx = sum(x for x, _ in points) / n
    my = sum(y for _, y in points) / n
    sxx = sum((x - mx) ** 2 for x, _ in points)
    return sum((x - mx) * (y - my) for x, y in points) / sxx


def _measure(tracer: Tracer, name: str, field: str, work) -> int:
    """Run work() on an empty span list; sum the field over spans named name."""
    tracer.spans.clear()
    work()
    if field == "calls":
        return sum(1 for s in tracer.spans if s[0] == name)
    return sum(s[5] for s in tracer.spans if s[0] == name)


def run_sweeps(load) -> dict:
    """All sweep exponents; load() returns a freshly imported paritybet."""
    out = {}
    pb = load()
    tracer = Tracer()
    tracer.install(pb)
    try:
        points = []
        for depth in VALUE_DEPTHS:
            m, n = workloads._parity_pair(pb, random.Random(0), depth)
            bits = _measure(tracer, "programs.BetProgram.value", "count",
                            lambda: pb.build_parity_test(m, n, depth, 10**4))
            points.append((math.log(depth), math.log(bits)))
        out["sweep.value_bits_vs_depth.exponent"] = slope(points)

        points = []
        for depth in VALIDATE_DEPTHS:
            table = pb.constant_program(1, pb.FractionBet(Fraction(1, 3))).to_table(depth)
            states = _measure(tracer, "strategy.validate", "count", lambda: pb.validate(table))
            points.append((depth, math.log2(states)))
        out["sweep.validate_states_vs_depth.exponent"] = slope(points)

        centered = []
        for n_max, stage_list in TOWER_STAGES.items():
            points = []
            for stages in stage_list:
                parts = workloads._tower_components(pb, random.Random(0))
                n_approx, t_approx = workloads._tower_pair(pb, *parts)
                calls = _measure(tracer, "programs.StageApprox.eval", "calls",
                                 lambda: pb.run_stage_machine(n_approx, t_approx, stages, n_max))
                points.append((math.log(stages), math.log(calls)))
            out[f"sweep.eval_calls_vs_stages.nmax{n_max}.exponent"] = slope(points)
            mx = sum(x for x, _ in points) / len(points)
            my = sum(y for _, y in points) / len(points)
            centered += [(x - mx, y - my) for x, y in points]
        # one exponent over both n_max, each series about its own mean
        out["sweep.eval_calls_vs_stages.exponent"] = slope(centered)
    finally:
        tracer.restore()
    return out
