#!/usr/bin/env python3
"""Steadiness check: repeat each workload, report spreads, compare sets.

    python3 perfbench/steady.py [--first-seed 1] [--trace N] [--save FILE]
    python3 perfbench/steady.py --compare FIRST.json SECOND.json

A set is ten runs of every workload in BENCHMARK.json, seeds first-seed,
first-seed+1, ..., each run in its own process through ``run.py`` for the
file's ``run_seconds``.  For every end-to-end metric it prints the median,
the quartiles (``statistics.quantiles`` with n=4), the spread
(Q3 - Q1) / median and the metric's bound from BENCHMARK.json; a spread at
or under a third of the bound reads "steady", one over the bound fails the
set.  ``--trace N`` adds a traced run for the first N seeds and reports the
tracing overhead: the median untraced jobs/s over the median traced jobs/s,
minus one.  ``--compare`` checks that no median of the second set is worse
than the first by more than its bound and that the share of failed jobs is
the same in both.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m for m in BENCHMARK["end_to_end"]}
RUNS = 10
SECONDS = BENCHMARK["run_seconds"]


def run(workload: str, seed: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(SECONDS), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list) -> tuple:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def collect(args) -> dict:
    results: dict = {}
    for name in (w["name"] for w in BENCHMARK["workloads"]):
        runs, traced = [], []
        for seed in range(args.first_seed, args.first_seed + RUNS):
            runs.append(run(name, seed, 0))
            if seed < args.first_seed + args.trace:
                traced.append(run(name, seed, 1))
            print(f"{name} seed {seed}: " + ", ".join(
                f"{m}={e['value']:.4g}" for m, e in runs[-1]["metrics"].items()), flush=True)
        results[name] = {"runs": runs, "traced": traced}
    return results


def report(results: dict) -> bool:
    ok = True
    for name, data in results.items():
        runs = data["runs"]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        wrong = sum(not r["correct"] for r in runs)
        print(f"\n{name}: {len(runs)} runs, {attempted} jobs attempted, {failed} failed, {wrong} runs wrong")
        print(f"  {'metric':16s} {'median':>12s} {'Q1':>12s} {'Q3':>12s} {'spread':>8s} {'bound':>6s}")
        for metric in runs[0]["metrics"]:
            med, q1, q3, spread = summary([r["metrics"][metric]["value"] for r in runs])
            bound = BOUNDS[metric]["bound"]
            if spread <= bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "within bound"
            else:
                verdict, ok = "TOO WIDE", False
            print(f"  {metric:16s} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f} {bound:6.2f}  {verdict}")
        if data["traced"]:
            plain = statistics.median(r["metrics"]["jobs_per_s"]["value"] for r in runs)
            traced = statistics.median(r["metrics"]["trace.jobs_per_s"]["value"] for r in data["traced"])
            print(f"  tracing overhead: {plain / traced - 1:+.1%} (jobs/s {plain:.4g} untraced, {traced:.4g} traced)")
        ok &= failed == 0 and wrong == 0
    return ok


def compare(first: dict, second: dict) -> bool:
    ok = True
    for name in first:
        a, b = first[name]["runs"], second[name]["runs"]
        share_a = sum(r["failed"] for r in a) / sum(r["attempted"] for r in a)
        share_b = sum(r["failed"] for r in b) / sum(r["attempted"] for r in b)
        print(f"\n{name}: failed share {share_a:.4f} vs {share_b:.4f}")
        ok &= share_a == share_b
        for metric, spec in BOUNDS.items():
            ma = statistics.median(r["metrics"][metric]["value"] for r in a)
            mb = statistics.median(r["metrics"][metric]["value"] for r in b)
            worse = (mb - ma) / ma if spec["better"] == "lower" else (ma - mb) / ma
            verdict = "ok" if worse <= spec["bound"] else "WORSE THAN BOUND"
            ok &= worse <= spec["bound"]
            print(f"  {metric:16s} {ma:12.5g} -> {mb:12.5g}  worse by {worse:+.3f} (bound {spec['bound']:.2f})  {verdict}")
    return ok


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--save", default="")
    p.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = p.parse_args()
    if args.compare:
        first, second = (json.loads(Path(f).read_text()) for f in args.compare)
        return 0 if compare(first, second) else 1
    results = collect(args)
    if args.save:
        Path(args.save).parent.mkdir(parents=True, exist_ok=True)
        Path(args.save).write_text(json.dumps(results))
    return 0 if report(results) else 1


if __name__ == "__main__":
    sys.exit(main())
