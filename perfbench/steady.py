#!/usr/bin/env python3
"""Steadiness check: run every workload N times, alternated, and report the
spread of each end-to-end metric beside its bound from BENCHMARK.json.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1]
        [--save results.jsonl] [--against earlier.jsonl] [--logdir DIR]

Run from the root of a checkout. Every run measures BENCHMARK.json's
run_seconds. Round r runs every workload of BENCHMARK.json once with seed
first_seed + r, starting one workload later each round, so that slow
phases of the host fall on all workloads alike. For each workload and
metric it prints the median, the quartiles (statistics.quantiles, n=4), the
spread (q3 - q1) / median and its ratio to the metric's bound, plus the
share of failed operations. --save writes every result line; --against
compares medians with a saved set and prints each change as a share of the
earlier median, worse-is-positive, beside the bound. --logdir keeps each
run's full standard output (checks, figures) as DIR/<workload>-<seed>.txt.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds, logdir):
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, check=False)
    if logdir:
        Path(logdir, f"{workload}-{seed}.txt").write_text(out.stdout)
    if out.returncode != 0:
        sys.exit(f"steady.py: {workload} seed {seed} exited {out.returncode}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"steady.py: {workload} seed {seed} failed its checks")
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med


def summarize(bench, results):
    by_workload = {}
    for r in results:
        by_workload.setdefault(r["workload"], []).append(r)
    for workload, runs in by_workload.items():
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"{workload}: {len(runs)} runs, failed share {sorted(shares)}")
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3, s = spread(values)
            print(f"  {m['name']:<14} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {s:6.2%}  bound {m['bound']:.0%}  spread/bound {s / m['bound']:.2f}")
    return by_workload


def compare(bench, now, earlier):
    for workload, runs in now.items():
        if workload not in earlier:
            continue
        print(f"{workload}: median change against the earlier set (worse is positive)")
        for m in bench["end_to_end"]:
            a = statistics.median(r["metrics"][m["name"]]["value"] for r in earlier[workload])
            b = statistics.median(r["metrics"][m["name"]]["value"] for r in runs)
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            flag = "" if worse <= m["bound"] else "  OVER BOUND"
            print(f"  {m['name']:<14} {a:<12.6g} -> {b:<12.6g} {worse:+7.2%} "
                  f"(bound {m['bound']:.0%}){flag}")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--save")
    p.add_argument("--against")
    p.add_argument("--logdir")
    a = p.parse_args()
    workloads = [w["name"] for w in bench["workloads"]]
    results = []
    for r in range(a.runs):
        seed = a.first_seed + r
        for i in range(len(workloads)):
            w = workloads[(r + i) % len(workloads)]
            result = run_once(w, seed, bench["run_seconds"], a.logdir)
            result.update(workload=w, seed=seed)
            results.append(result)
            print(f"  run {r + 1}/{a.runs} {w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
    if a.save:
        Path(a.save).write_text("".join(json.dumps(r) + "\n" for r in results))
    now = summarize(bench, results)
    if a.against:
        earlier = {}
        for line in Path(a.against).read_text().splitlines():
            r = json.loads(line)
            earlier.setdefault(r["workload"], []).append(r)
        compare(bench, now, earlier)


if __name__ == "__main__":
    main()
