#!/usr/bin/env python3
"""Run one workload of the benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

A run is a closed loop with one caller.  It repeats whole passes over a
freshly drawn job list until the timed work reaches ``--seconds``.  Each
pass sets up three times, keeping the last: a set-up builds that pass's
inputs through the package's public constructors, builds the generator
actions and runs one warm-up job on an input of its own.
Every job's output is checked against the references after its timer
stops.  A job that raises counts as failed; a job or warm-up that
raises makes ``correct`` false and the exit code 1, like a wrong
output.  ``--trace 1`` records spans and reports the per-layer metrics
instead of the end-to-end ones; its trace goes to ``.perfbench/`` at
the repository root.  ``--workload all`` runs every workload, each in
its own process, one after another.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The program is
imported from ``src/`` next to this directory and from nowhere else; the
run exits with code 2 if it is missing.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
HASH_SEED = "0"
MIN_PASSES = 3
SETUP_REPEATS = 3  # set-ups per pass; set-up is short, so its median needs many
WALL_LIMIT_S = 150.0

END_TO_END = (
    ("setup_s", "s"),
    ("jobs_per_s", "jobs/s"),
    ("small_job_ms", "ms"),
    ("large_job_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

# Per-layer metrics: self time per job of the named span ("_ms"), a count
# per job, a peak over the run, or a ratio of two counts.
PER_LAYER = (
    ("wd.gamma_ms", "ms"),
    ("wd_presentation.eval_simplex_ms", "ms"),
    ("wd.equivalent_ms", "ms"),
    ("wd_presentation.stratify_ms", "ms"),
    ("maps.rho_ms", "ms"),
    ("wd.wires", "count"),
    ("wd.delay_nodes", "count"),
    ("wd_presentation.leaves", "count"),
    ("uwd.gamma_u_ms", "ms"),
    ("uwd_presentation.stratify_u_ms", "ms"),
    ("actions.eval_structure_map_ms", "ms"),
    ("relational.two_cell_ms", "ms"),
    ("relational.loop_ms", "ms"),
    ("relational.split_ms", "ms"),
    ("relational.rows_built", "rows"),
    ("relational.peak_rows", "rows"),
    ("relational.answer_rows", "rows"),
    ("relational.useful_row_ratio", "ratio"),
    ("propagator.run_ms", "ms"),
    ("propagator.loop_ms", "ms"),
    ("propagator.loop_steps", "calls"),
    ("propagator.two_cell_ms", "ms"),
    ("propagator.name_change_ms", "ms"),
    ("propagator.other_ms", "ms"),
    ("propagator.leaf_steps", "calls"),
    ("propagator.useful_step_ratio", "ratio"),
    ("discrete.two_cell_ms", "ms"),
    ("discrete.loop_ms", "ms"),
    ("discrete.split_ms", "ms"),
    ("discrete.other_ms", "ms"),
    ("discrete.entries_built", "entries"),
    ("discrete.peak_entries", "entries"),
    ("discrete.useful_entry_ratio", "ratio"),
    ("discrete.simulate_ms", "ms"),
    ("trace.jobs_per_s", "jobs/s"),
)

RATIOS = {
    "relational.useful_row_ratio": ("relational.answer_rows", "relational.rows_built"),
    "propagator.useful_step_ratio": ("propagator.useful_steps", "propagator.leaf_steps"),
    "discrete.useful_entry_ratio": ("discrete.final_entries", "discrete.entries_built"),
}
PEAKS = ("relational.peak_rows", "discrete.peak_entries")
WORKLOAD_NAMES = ("wd_roundtrip", "uwd_query", "propagator_stream", "moore_tables")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_package():
    """Import wiring_operads from ROOT/src only; exit 2 if it is not there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import wiring_operads
    except ImportError as exc:
        print(f"perfbench: cannot import wiring_operads from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    if Path(wiring_operads.__file__).resolve().parent.parent != src.resolve():
        print(f"perfbench: wiring_operads was imported from outside {src}", file=sys.stderr)
        sys.exit(2)


def measure(workload, seed: int, seconds: float, tracer) -> dict:
    """Run whole passes until the jobs have taken ``seconds``."""
    from bench_spans import NoTracer

    rng = random.Random(f"{workload.name}/{seed}")
    quiet = NoTracer()
    setups: list[float] = []
    times: dict[str, list[float]] = {cls: [] for cls, _, _ in workload.classes}
    attempted = failed = 0
    mismatches: list[str] = []
    timed = spent = 0.0
    pass_rates: list[float] = []
    started = time.perf_counter()
    passes = 0
    while True:
        plan = workload.plan(rng)
        for _ in range(SETUP_REPEATS):
            warm_cls, warm_spec = workload.warm_up_spec(rng)
            gc.collect()
            t0 = time.perf_counter()
            jobs = [workload.build(cls, spec) for cls, spec in plan]
            action = workload.action(tracer)
            warm = workload.build(warm_cls, warm_spec)
            try:
                warm_out = workload.run(warm, workload.action(quiet), quiet)
            except Exception as exc:
                warm_out = None
                raised(f"warm-up {warm_cls}", exc, mismatches)
            setups.append(time.perf_counter() - t0)
            if warm_out is not None:
                check(workload, warm, warm_out, mismatches)
        pass_start = time.perf_counter()
        pass_jobs, pass_timed = 0, 0.0
        for job in jobs:
            attempted += 1
            tracer.job_id = attempted
            t = time.perf_counter()
            try:
                out = workload.run(job, action, tracer)
            except Exception as exc:
                dt = time.perf_counter() - t
                failed += 1
                spent += dt
                pass_timed += dt
                raised(job.cls, exc, mismatches)
                continue
            dt = time.perf_counter() - t
            spent += dt
            times[job.cls].append(dt)
            pass_jobs += 1
            pass_timed += dt
            check(workload, job, out, mismatches)
            del out
        del jobs
        passes += 1
        timed += pass_timed
        pass_rates.append(pass_jobs / pass_timed if pass_timed else 0.0)
        elapsed = time.perf_counter() - started
        last_pass = time.perf_counter() - pass_start
        if spent >= seconds and passes >= MIN_PASSES:
            break
        if elapsed + last_pass > WALL_LIMIT_S:
            break
    for line in mismatches[:20]:
        print(f"MISMATCH {line}", file=sys.stderr)
    return dict(
        setups=setups, times=times, attempted=attempted, failed=failed,
        mismatches=len(mismatches), timed=timed, passes=passes, pass_rates=pass_rates,
    )


def raised(what: str, exc: Exception, mismatches: list) -> None:
    """A job or warm-up that raises is wrong, like a wrong output."""
    if len(mismatches) < 3:
        traceback.print_exception(exc, file=sys.stderr)
    mismatches.append(f"{what}: raised {type(exc).__name__}: {exc}")


def check(workload, job, output, mismatches: list) -> None:
    try:
        workload.check(job, output)
    except Exception as exc:  # a wrong output may break the check itself
        mismatches.append(f"{job.cls}: {type(exc).__name__}: {exc}")


def median_ms(samples: list) -> float:
    return 1000 * statistics.median(samples) if samples else 0.0  # 0 is refused in run_one


def end_to_end(workload, run: dict) -> dict:
    times = run["times"]
    first, last = workload.classes[0][0], workload.classes[-1][0]
    return {
        "setup_s": statistics.median(run["setups"]),
        "jobs_per_s": statistics.median(run["pass_rates"]),
        "small_job_ms": median_ms(times[first]),
        "large_job_ms": median_ms(times[last]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer, run: dict) -> dict:
    done = max(1, sum(len(v) for v in run["times"].values()))
    self_s = tracer.self_times()
    out = {}
    for name, _ in PER_LAYER:
        if name in RATIOS:
            num, den = RATIOS[name]
            out[name] = tracer.counts[num] / tracer.counts[den] if tracer.counts[den] else 0.0
        elif name in PEAKS:
            out[name] = tracer.peaks[name]
        elif name.endswith("_ms"):
            out[name] = 1000 * self_s.get(name[: -len("_ms")], 0.0) / done
        else:
            out[name] = tracer.counts[name] / done
    out["trace.jobs_per_s"] = statistics.median(run["pass_rates"])
    return out


def run_one(args) -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Fix string hashing so a seed reproduces set orders and counts.
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve())] + sys.argv[1:], env)
    import_package()
    from bench_spans import NoTracer, Tracer
    from bench_workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    tracer = Tracer() if args.trace else NoTracer()
    run = measure(workload, args.seed, args.seconds, tracer)
    if args.trace:
        values = per_layer(tracer, run)
        units = dict(PER_LAYER)
        try:
            OUT_DIR.mkdir(exist_ok=True)
            path = OUT_DIR / f"trace-{workload.name}-seed{args.seed}.csv"
            tracer.write_csv(path)
            print(f"trace: {len(tracer.start)} spans written to {path}")
        except OSError as exc:
            print(f"trace not written: {exc}", file=sys.stderr)
    else:
        values = end_to_end(workload, run)
        units = dict(END_TO_END)
    correct = run["mismatches"] == 0
    if not args.trace:
        # An end-to-end metric is never 0; one that is would read as a gain.
        for name, value in values.items():
            if not value > 0:
                print(f"perfbench: {name} is {value}, not a measurement", file=sys.stderr)
                correct = False
    print(
        f"{workload.name}: seed {args.seed}, {run['passes']} passes, "
        f"{run['attempted']} jobs attempted, {run['failed']} failed, "
        f"{run['mismatches']} wrong, {run['timed']:.2f} s timed"
    )
    for cls, samples in run["times"].items():
        print(f"  class {cls:12s} {len(samples):5d} jobs, median {median_ms(samples):10.3f} ms")
    for name, value in values.items():
        print(f"  {name:40s} {value:14.6g} {units[name]}")
    result = {
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status, results = 0, 0
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
            lines.pop()
        except (IndexError, ValueError):
            result = None
        for line in lines:
            print(line)
        if proc.returncode != 0 or result is None:
            merged["correct"] = False
            status = status or proc.returncode or 1
        if result is None:
            continue
        results += 1
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = entry
    if results:  # no result at all when, say, the package is missing
        print(json.dumps(merged))
    return status or (0 if merged["correct"] else 1)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
