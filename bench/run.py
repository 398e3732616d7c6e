#!/usr/bin/env python3
"""paritybet benchmark: seeded job streams, timed end to end, plus a traced run.

    python3 bench/run.py --workload growth-suite --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --smoke            # a few jobs per workload, checks the report
    python3 bench/run.py --record-digests   # re-record the default seed's wire digests

One workload runs per process, as a closed loop with one client: each job
starts when the previous one has finished. A pass imports paritybet afresh
from src/, builds every input from the seed (set-up), then runs the job
list once; passes repeat until --seconds have gone by, so every pass pays
the cold caches a command-line user pays. The report is a few readable
lines and, as the last line, one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics of a traced pass and the size sweeps with --trace 1.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import sweeps
import workloads
from tracing import MODULES, Tracer, layer_metrics

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DIGESTS = BENCH_DIR / "digests.json"
DEFAULT_SEED = 1
TAIL_BEYOND = 10  # jobs that must lie beyond the reported tail percentile
# A shared host's CPU speed swings by up to 2x within seconds. Every
# reported time is scaled to the speed at which one reference() call takes
# REFERENCE_S, using the median of the REF_AROUND calls on each side of
# the timed work. paritybet code never runs inside reference(), so a change
# to the program cannot move the scale.
REFERENCE_S = 0.0025
REF_AROUND = 3

END_TO_END_UNITS = {
    "wall_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def load_paritybet():
    """Import paritybet afresh from the checkout's src/, dropping any
    earlier import, so each pass pays the import a command-line run pays."""
    for name in [n for n in sys.modules if n == "paritybet" or n.startswith("paritybet.")]:
        del sys.modules[name]
    pb = importlib.import_module("paritybet")
    importlib.import_module("paritybet.cli")
    if Path(pb.__file__).resolve().parent != SRC / "paritybet":
        raise ImportError(f"paritybet came from {pb.__file__}, not from {SRC}")
    return pb


def reference() -> float:
    """Seconds one call of a fixed stdlib kernel takes: exact rationals
    with growing and with small denominators, short strings and a dict,
    like paritybet's own work, with the collector off so that the
    program's heap does not change its cost."""
    enabled = gc.isenabled()
    gc.disable()
    began = time.perf_counter()
    big, small, table, key = Fraction(0), Fraction(0), {}, ""
    for i in range(1, 300):
        big += Fraction(i % 7 + 1, i)
        small = Fraction(0) if i % 16 == 0 else small + Fraction(i % 7 + 1, i % 13 + 1)
        key = (key + "01"[i & 1])[-12:]
        table[key, small] = table.get((key, small), 0) + 1
    took = time.perf_counter() - began
    if enabled:
        gc.enable()
    return took


def at_reference(raw: float, samples: list) -> float:
    """raw seconds, measured while reference() took the median of samples,
    as seconds at the reference speed."""
    return raw * REFERENCE_S / statistics.median(samples)


@dataclass
class Pass:
    setup_s: float  # at the reference speed, like wall_s and latency
    wall_s: float = 0.0
    raw_wall_s: float = 0.0  # as measured
    latency: dict = field(default_factory=dict)  # job id -> seconds
    digest: dict = field(default_factory=dict)  # job id -> sha256 prefix of its wire bytes
    problems: dict = field(default_factory=dict)  # job id -> violations


def run_pass(workload, seed, workdir, tracer=None, limit=None) -> Pass:
    """One fresh pass. reference() runs REF_AROUND times before set-up,
    after set-up, and once before every job, so each job is timed next to
    the machine's speed at that moment (see REFERENCE_S)."""
    before = [reference() for _ in range(REF_AROUND)]
    t0 = time.perf_counter()
    pb = load_paritybet()
    import_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.install(pb)
    t1 = time.perf_counter()
    jobs = workloads.build(workload, pb, seed, workdir,
                           tracer.note if tracer is not None else workloads.noop)
    setup_raw = import_s + time.perf_counter() - t1
    samples = [reference() for _ in range(REF_AROUND)]
    result = Pass(setup_s=at_reference(setup_raw, before + samples))
    if limit is not None:
        jobs = jobs[:: max(1, len(jobs) // limit)][:limit]
    raw = []
    for job in jobs:
        samples.append(reference())
        if tracer is not None:
            tracer.job = job.id
        began = time.perf_counter()
        try:
            wire, problems = job.run()
        except Exception as exc:  # a job that raises is a failed job, not a failed run
            wire, problems = b"", [f"{type(exc).__name__}: {exc}"]
        raw.append(time.perf_counter() - began)
        result.digest[job.id] = hashlib.sha256(wire).hexdigest()[:16]
        if problems:
            result.problems[job.id] = problems
    samples += [reference() for _ in range(REF_AROUND)]
    if tracer is not None:
        tracer.restore()
    # job i ran between samples[REF_AROUND + i] and samples[REF_AROUND + i + 1]
    for i, (job, took) in enumerate(zip(jobs, raw)):
        window = samples[i + 1: i + 1 + 2 * REF_AROUND]
        result.latency[job.id] = at_reference(took, window)
    result.wall_s = sum(result.latency.values())
    result.raw_wall_s = sum(raw)
    return result


def check_digests(passes, workload, seed) -> None:
    """Fail the jobs whose wire bytes differ between passes or, at the
    default seed, from the recorded digests."""
    recorded = None
    if seed == DEFAULT_SEED:
        recorded = json.loads(DIGESTS.read_text())["workloads"][workload]
    for p in passes:
        for job_id, digest in p.digest.items():
            want = passes[0].digest[job_id] if recorded is None else recorded.get(job_id)
            if digest != want:
                p.problems.setdefault(job_id, []).append(f"wire digest {digest}, expected {want}")


def end_to_end(passes) -> tuple[dict, dict]:
    """End-to-end metrics, plus facts printed next to them. Times are at
    the reference speed (see REFERENCE_S). Job latency is each job's median over
    the passes, so the tail percentile depends only on the job count, not
    on how many passes fit into the run."""
    per_job = sorted(statistics.median(p.latency[j] for p in passes) for j in passes[0].latency)
    count = len(per_job)
    if count > TAIL_BEYOND:
        tail, pct = per_job[count - TAIL_BEYOND - 1], 100.0 * (count - TAIL_BEYOND) / count
    else:
        tail, pct = per_job[-1], 100.0
    metrics = {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "jobs_per_s": statistics.median(len(p.latency) / p.wall_s for p in passes),
        "job_p50_ms": 1000 * statistics.median(per_job),
        "job_tail_ms": 1000 * tail,
        "setup_s": statistics.median(p.setup_s for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    facts = {"tail_pct": pct, "jobs": count, "passes": len(passes),
             "raw_wall_s": statistics.median(p.raw_wall_s for p in passes)}
    return metrics, facts


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    for suffix, unit in (("_s", "s"), ("bytes", "bytes"), ("_ratio", "ratio"), (".exponent", "slope")):
        if name.endswith(suffix):
            return unit
    return "count"


def report(args, passes, metrics, notes=(), remarks=None) -> int:
    attempted = sum(len(p.latency) for p in passes)
    failed = sum(len(p.problems) for p in passes)
    for p in passes:
        for job_id, problems in p.problems.items():
            print(f"FAILED {job_id}: {'; '.join(problems)}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in notes:
        print(line)
    for name, value in metrics.items():
        remark = (remarks or {}).get(name, "")
        print(f"  {name:44s} {value:14.6g} {unit_of(name)}{remark}")
    print(f"  {'jobs_failed':44s} {failed / attempted:14.6g} share ({failed} of {attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def repeat(step, seconds: float) -> list:
    """Call step() once, then again while another call, taking as long as
    the median call so far, still ends within the given seconds."""
    deadline = time.perf_counter() + seconds
    results, durations = [], []
    while True:
        began = time.perf_counter()
        results.append(step())
        durations.append(time.perf_counter() - began)
        if time.perf_counter() + statistics.median(durations) > deadline:
            return results


def measure(args, workdir) -> int:
    def fresh_pass(tracer=None):
        gc.collect()
        return run_pass(args.workload, args.seed, workdir, tracer, args.limit)

    if not args.trace:
        passes = repeat(fresh_pass, args.seconds)
        metrics, facts = end_to_end(passes)
        note = (f"  {facts['passes']} passes of {facts['jobs']} jobs; times at the reference speed"
                f" (wall_s as measured: {facts['raw_wall_s']:.6g} s)")
        tail = f" (p{facts['tail_pct']:.1f} of {facts['jobs']} per-job medians)"
        check_digests(passes, args.workload, args.seed)
        return report(args, passes, metrics, [note], {"job_tail_ms": tail})

    last = {}  # the latest tracer; only its spans are written out

    def traced_pair():
        plain = fresh_pass()
        last["tracer"] = tracer = Tracer()
        traced = fresh_pass(tracer)
        return plain, traced, layer_metrics(tracer, traced.raw_wall_s)

    plain, traced, layers = (list(x) for x in zip(*repeat(traced_pair, args.seconds)))
    tracer = last.pop("tracer")
    metrics = {k: statistics.median(layer[k] for layer in layers) for k in layers[0]}
    metrics["trace.overhead_ratio"] = (statistics.median(p.wall_s for p in traced)
                                       / statistics.median(p.wall_s for p in plain))
    spans_path = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
    tracer.write(str(spans_path))
    del tracer
    gc.collect()
    metrics.update(sweeps.run_sweeps(load_paritybet))
    passes = plain + traced
    ranked = sorted(((metrics[k], k) for k in metrics if k.endswith(".self_s")
                     and k.count(".") == 2), reverse=True)
    total = sum(metrics[f"{m}.self_s"] for m in MODULES) + metrics["trace.outside_s"]
    notes = [f"  {len(traced)} traced and {len(plain)} untraced passes; spans in {spans_path}"]
    notes += [f"  {share:6.1%} self time  {name}" for share, name in
              ((v / total, k) for v, k in ranked[:6])]
    check_digests(passes, args.workload, args.seed)
    return report(args, passes, metrics, notes)


def record_digests(workdir) -> int:
    out = {"seed": DEFAULT_SEED, "workloads": {}}
    for name in workloads.WORKLOADS:
        p = run_pass(name, DEFAULT_SEED, workdir)
        if p.problems:
            print(f"{name}: jobs fail their invariants, not recording: {p.problems}", file=sys.stderr)
            return 1
        out["workloads"][name] = dict(sorted(p.digest.items()))
    DIGESTS.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"recorded {sum(len(v) for v in out['workloads'].values())} digests in {DIGESTS}")
    return 0


def smoke() -> int:
    """Run each workload briefly in both modes and check the report's shape."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    bad = 0
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(DEFAULT_SEED), "--seconds", "1", "--trace", str(trace),
                    "--limit", "6"]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
            ok = (proc.returncode == 0 and result.get("failed") == 0
                  and result.get("correct") is True and got == expected[trace])
            bad += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {name} --trace {trace}: "
                  f"{result.get('attempted')} jobs, {result.get('failed')} failed")
            if not ok:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                print(f"     exit {proc.returncode}; missing {missing}; unexpected {extra}\n"
                      f"{proc.stderr[-2000:]}")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--limit", type=int, default=None, help="run only this many jobs per pass")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "paritybet" / "__init__.py").is_file():
        print(f"error: no paritybet sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # the stage budget comes from explicit --stages flags, never the environment
    os.environ.pop("PARITYBET_STAGES", None)
    if args.smoke:
        return smoke()
    if not args.record_digests and args.workload is None:
        parser.error("--workload is required")
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=ROOT / ".bench_work")
    try:
        return record_digests(workdir) if args.record_digests else measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
