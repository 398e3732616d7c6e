"""Span tracing for the benchmark's traced run.

Tracer.install() replaces the public functions and methods of each
paritybet module, at their definition site (the module global or the
class attribute), with wrappers that record one span per call. Other
modules' bindings of the same function object (``from .x import f``)
are replaced too, so a call is traced whichever name it goes through.
restore() puts every original back. Nothing in src/ changes.

A span is [name, start, end, parent, job, count]: the qualified name
without the package prefix, perf_counter bounds, the index of the
enclosing span (-1 at top level), the job id, and a work count for the
spans that have one (bits walked, table states, bytes written).
"""

from __future__ import annotations

import enum
import functools
import gzip
import importlib
import inspect
import os
import time
from collections import defaultdict

MODULES = (
    "strategy", "programs", "decompose", "blocktest", "diagonal",
    "dimension", "builder", "serialize", "oracles", "cli",
)

# Helpers called once per state, bit or value: a span each would cost more
# than the work it times, so their time counts toward their caller.
SKIP = {
    "strategy.as_capital", "strategy.StrategyTable.value",
    "strategy.StrategyTable.bets_at", "strategy.StrategyTable.interior",
    "strategy.Diagnosis.holds", "strategy.OnlineTable.value",
    "programs.apply_bet", "serialize.frac_str", "serialize.parse_frac",
    "diagonal.Runner.__init__", "diagonal.Runner.step", "diagonal.Runner.live_bet",
}


def _first_arg_size(args, kwargs, result):
    return len(args[0].values)


# span name -> count(args, kwargs, result)
COUNTERS = {
    "programs.BetProgram.value": lambda a, k, r: len(a[1]),
    "strategy.StrategyTable.__post_init__": _first_arg_size,
    "strategy.validate": _first_arg_size,
    "serialize.dumps": lambda a, k, r: len(r),
    "serialize.trace_lines": lambda a, k, r: sum(len(line) + 1 for line in r),
    "serialize.load_json": lambda a, k, r: os.path.getsize(a[0]),
    "diagonal.diagonalize": lambda a, k, r: len(r.z),
}


def _targets(module):
    """(owner, attribute, qualified name) of every traceable callable the
    module defines: its public functions, and the public methods of its
    classes plus the constructor hook (__post_init__ of a dataclass,
    __init__ of a plain class)."""
    short = module.__name__.rsplit(".", 1)[1]
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield module, attr, f"{short}.{attr}"
        elif inspect.isclass(obj) and not issubclass(obj, (BaseException, enum.Enum)):
            members = vars(obj)
            hook = "__post_init__" if "__dataclass_fields__" in members else "__init__"
            for meth, fn in members.items():
                if inspect.isfunction(fn) and (meth == hook or not meth.startswith("_")):
                    yield obj, meth, f"{short}.{attr}.{meth}"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict = defaultdict(int)
        self.job = "setup"
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def note(self, name: str, n: int) -> None:
        """Add a count measured at the benchmark's own boundary."""
        self.counts[name] += n

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count = COUNTERS.get(name)
        materialize = inspect.isgeneratorfunction(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
                if materialize:  # run the generator inside its span
                    result = list(result)
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                rec[5] = count(args, kwargs, result)
            return iter(result) if materialize else result

        return traced

    def install(self, package) -> None:
        modules = [importlib.import_module(f"{package.__name__}.{m}") for m in MODULES]
        everyone = [package] + modules
        for module in modules:
            for owner, attr, name in list(_targets(module)):
                if name in SKIP:
                    continue
                original = vars(owner)[attr]
                wrapped = self._wrap(name, original)
                self._set(owner, attr, wrapped)
                if owner is module:
                    for other in everyone:
                        if other is not module and vars(other).get(attr) is original:
                            self._set(other, attr, wrapped)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def write(self, path: str) -> None:
        """Spans as gzipped TSV: id, parent, job, name, start_ns, end_ns, count."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=3) as fh:
            fh.write("id\tparent\tjob\tname\tstart_ns\tend_ns\tcount\n")
            for i, (name, start, end, parent, job, count) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{job}\t{name}\t{int(start * 1e9)}\t{int(end * 1e9)}\t{count}\n")


# per-layer metric -> the spans it sums
LAYERS = {
    "programs.eval": ("programs.StageApprox.eval",),
    "programs.value": ("programs.BetProgram.value",),
    "programs.to_table": ("programs.BetProgram.to_table",),
    "programs.stage_table": ("programs.StageApprox.table",),
    "builder.floor": ("builder.floor",),
    "builder.check_growth_bound": ("builder.check_growth_bound",),
    "builder.greedy_leftmost_extension": ("builder.greedy_leftmost_extension",),
    "builder.run_stage_machine": ("builder.run_stage_machine",),
    "blocktest.enumerate_block": ("blocktest.enumerate_block",),
    "blocktest.build_parity_test": ("blocktest.build_parity_test",),
    "blocktest.packing_certificate": ("blocktest.packing_certificate",),
    "blocktest.verify_block_inequality": ("blocktest.verify_block_inequality",),
    "dimension.log2_bracket": ("dimension.log2_bracket",),
    "dimension.empirical_dim_bound": ("dimension.empirical_dim_bound",),
    "dimension.validate_s_test": ("dimension.validate_s_test",),
    "dimension.compare_scaled_weight": ("dimension.compare_scaled_weight",),
    "diagonal.diagonalize": ("diagonal.diagonalize",),
    "diagonal.replay_trace": ("diagonal.replay_trace",),
    "strategy.table_init": ("strategy.StrategyTable.__post_init__",),
    "strategy.validate": ("strategy.validate",),
    "decompose.parity_factorize": ("decompose.parity_factorize",),
    "decompose.min_block_martingale": ("decompose.min_block_martingale",),
    "decompose.block_decompose": ("decompose.block_decompose",),
    "serialize.encode": ("serialize.dumps", "serialize.to_jsonable",
                         "serialize.dump_json", "serialize.trace_lines"),
    "serialize.decode": ("serialize.from_jsonable", "serialize.load_json",
                         "serialize.parse_trace"),
    "cli.main": ("cli.main",),
}


def layer_metrics(tracer: Tracer, jobs_s: float) -> dict:
    """Every per-layer figure of one traced pass, from its spans.

    jobs_s is the pass's summed job time; what the spans do not cover of
    it is the benchmark's own per-job code (trace.outside_s).
    """
    spans = tracer.spans
    self_s = [end - start for _, start, end, _, _, _ in spans]
    eval_children = [0] * len(spans)
    top_s = 0.0
    for name, start, end, parent, job, _ in spans:
        if parent >= 0:
            self_s[parent] -= end - start
            if name == "programs.StageApprox.eval":
                eval_children[parent] += 1
        elif job != "setup":
            top_s += end - start

    by_name: dict = defaultdict(lambda: [0, 0.0, 0])  # calls, self seconds, count
    by_module: dict = defaultdict(float)
    floor_recomputed = 0
    construct_s = 0.0
    for i, (name, _, _, _, _, count) in enumerate(spans):
        agg = by_name[name]
        agg[0] += 1
        agg[1] += self_s[i]
        agg[2] += count
        by_module[name.split(".", 1)[0]] += self_s[i]
        if name.startswith("programs.") and name.endswith(".__post_init__"):
            construct_s += self_s[i]
        if name == "builder.floor":
            floor_recomputed += eval_children[i] > 0

    out = {}
    for layer, names in LAYERS.items():
        out[f"{layer}.calls"] = sum(by_name[n][0] for n in names)
        out[f"{layer}.self_s"] = sum(by_name[n][1] for n in names)
    out["programs.value.bits"] = by_name["programs.BetProgram.value"][2]
    out["strategy.table_init.states"] = by_name["strategy.StrategyTable.__post_init__"][2]
    out["strategy.validate.states"] = by_name["strategy.validate"][2]
    out["diagonal.bits"] = by_name["diagonal.diagonalize"][2]
    out["serialize.encode.bytes"] = by_name["serialize.dumps"][2] + by_name["serialize.trace_lines"][2]
    out["serialize.decode.bytes"] = by_name["serialize.load_json"][2] + tracer.counts["serialize.decode.bytes"]
    out["cli.out_bytes"] = tracer.counts["cli.out_bytes"]
    out["builder.floor.recomputed"] = floor_recomputed
    floors = by_name["builder.floor"][0]
    out["builder.floor.hit_ratio"] = 1 - floor_recomputed / floors if floors else 0.0
    out["programs.construct.self_s"] = construct_s
    for module in MODULES:
        out[f"{module}.self_s"] = by_module[module]
    out["trace.outside_s"] = max(0.0, jobs_s - top_s)
    out["trace.spans"] = len(spans)
    return out
