#!/usr/bin/env python3
"""Spread and repeatability of the benchmark, run from the repository root.

    python3 perfbench/compare.py --workloads small-polys gen-check --seeds 1 2 3 4 5
    python3 perfbench/compare.py --workloads gen-check --seeds 7 --repeat

The first form runs the end-to-end benchmark once per seed and workload
and prints, for each end-to-end metric, the median, the interquartile
range as a share of the median (``statistics.quantiles(values, n=4)``),
and a third of the metric's bound in BENCHMARK.json; ``WIDE`` marks a
spread above that third. Every run uses ``run_seconds`` of BENCHMARK.json.

``--repeat`` runs each seed twice in each mode and checks that the
input fingerprint and the exact counters (support calls, iterations,
terminations, exits, region codes, dataset retries) are identical.
``--out`` writes every parsed result, with the run's text lines, the
Python version, platform, CPU count and commit, to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result.update(workload=workload, seed=seed, trace=trace, text=lines[:-1])
    for line in lines:
        key, _, value = line.partition(" ")
        if key in ("fingerprint", "counters"):
            result[key] = value
    return result


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], capture_output=True,
                             text=True, cwd=os.path.dirname(HERE), check=False)
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--repeat", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    results = []
    status = 0
    for workload in args.workloads:
        if args.repeat:
            for seed in args.seeds:
                for trace in (0, 1):
                    a = run_once(workload, seed, seconds, trace)
                    b = run_once(workload, seed, seconds, trace)
                    # `attempted` is not compared: with --trace 0 it grows with
                    # the number of timed gen/check sweeps, which depends on speed
                    same = all(a[k] == b[k] for k in ("fingerprint", "counters", "failed"))
                    print(f"{workload} seed {seed} trace {trace}: fingerprint {a['fingerprint']} "
                          f"counters {a['counters']} {'identical' if same else 'DIFFER'}", flush=True)
                    status |= not same
                    results += [a, b]
            continue
        runs = []
        for seed in args.seeds:
            result = run_once(workload, seed, seconds, 0)
            print(f"{workload} seed {seed}: correct {result['correct']}, "
                  f"{result['failed']} wrong of {result['attempted']}", flush=True)
            status |= not result["correct"]
            runs.append(result)
        results += runs
        if len(runs) >= 2:
            print(f"{'metric':<20} {'median':>12} {'spread':>8} {'bound/3':>8}")
            for metric in spec["end_to_end"]:
                values = [r["metrics"][metric["name"]]["value"] for r in runs]
                s = spread(values)
                wide = s >= metric["bound"] / 3
                print(f"{metric['name']:<20} {statistics.median(values):>12.6g} "
                      f"{s:>8.4f} {metric['bound'] / 3:>8.4f} {'WIDE' if wide else ''}")
    if args.out:
        meta = {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "commit": commit(),
            "seconds": seconds,
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "results": results}, fh, indent=1)
    return status


if __name__ == "__main__":
    sys.exit(main())
