#!/usr/bin/env python3
"""Record a baseline of the benchmark on this machine.

    python3 bench/baseline.py --out bench/baseline.json

Runs every workload of BENCHMARK.json with --trace 0, one process at a
time: ten times at the default seed 1, then ten times at seeds 1 to 10;
then once with --trace 1 at seed 1. Writes the machine, the Python
version, the git commit of the measured sources, each end-to-end metric's
values with their median, quartiles and spread (quartile distance over
median) for both sets, and the traced run's per-layer numbers. The
same-seed set shows the machine's noise alone, which is what the bounds
are judged against; the ten-seed set adds the differences between seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUNS = 10
DEFAULT_SEED = 1


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    began = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = time.perf_counter() - began
    return result


def summarize(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model, "platform": platform.platform()}


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_set(name: str, seeds, seconds: int, bounds: dict) -> dict:
    """Run the workload once per seed; each metric's values and summary."""
    values: dict = {}
    for seed in seeds:
        result = run_once(name, seed, seconds, 0)
        for metric, v in result["metrics"].items():
            values.setdefault(metric, []).append(v["value"])
        print(f"{name} seed {seed} ({result['elapsed_s']:.0f} s): " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    summary = {metric: summarize(v) for metric, v in values.items()}
    for metric, s in summary.items():
        print(f"  {metric:14s} median {s['median']:.5g}  spread {s['spread']:.4f}"
              f"  (bound {bounds[metric]})", flush=True)
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=None, help="write the baseline here (default: print it)")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {"machine": machine(), "python": platform.python_version(), "git_sha": git_sha(),
           "run_seconds": seconds, "runs": RUNS, "workloads": {}}
    for w in spec["workloads"]:
        name = w["name"]
        same_seed = run_set(name, [DEFAULT_SEED] * RUNS, seconds, bounds)
        ten_seeds = run_set(name, range(1, RUNS + 1), seconds, bounds)
        traced = run_once(name, DEFAULT_SEED, seconds, 1)
        print(f"{name} traced run at seed {DEFAULT_SEED}: {traced['elapsed_s']:.0f} s", flush=True)
        out["workloads"][name] = {
            "why": w["why"],
            "end_to_end_seed1": same_seed,
            "end_to_end_seeds1to10": ten_seeds,
            "per_layer_seed1": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    text = json.dumps(out, indent=1, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
