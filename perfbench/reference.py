"""Regenerate the reference figures in perfbench/README.md.

    python3 perfbench/reference.py [--seeds 1-10] [--seconds 12] [--trace-seed 7]
                                   [--workloads verify_all,...] [--no-pytest]

Run from the repository root.  For each workload it runs the benchmark once
per seed with tracing off, then twice with tracing on at one seed, and
prints Markdown tables: median and quartiles of every end-to-end metric with
their spread (Q3 - Q1) / median, the failed share, the op p90 of every
family_sweep and grid_tabulate run with its sample count, the per-layer
figures, whether the traced counters repeated exactly, the tracing overhead
per round, and the tier-1 pytest wall time.  Every run's last line is kept
in perfbench/out/reference.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("verify_all", "oracle_sweep", "family_sweep", "grid_tabulate")


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """(last-line result, raw run record) of one benchmark run."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    raw = json.loads((HERE / "out" / f"run-{workload}-seed{seed}-trace{trace}.json")
                     .read_text(encoding="utf-8"))
    return result, raw


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=float, default=12.0)
    p.add_argument("--trace-seed", type=int, default=7)
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--no-pytest", action="store_true")
    args = p.parse_args()
    seeds = seed_range(args.seeds)
    record = {}

    print("| workload | metric | unit | median | Q1 | Q3 | spread | failed/attempted |")
    print("|---|---|---|---|---|---|---|---|")
    for workload in args.workloads.split(","):
        runs = [run(workload, seed, args.seconds, 0) for seed in seeds]
        record[workload] = {"untraced": [r for r, _ in runs]}
        shares = sorted({f"{r['failed']}/{r['attempted']}" for r, _ in runs})
        correct = all(r["correct"] for r, _ in runs)
        for metric in runs[0][0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r, _ in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            unit = runs[0][0]["metrics"][metric]["unit"]
            print(f"| {workload} | {metric} | {unit} | {med:.4g} | {q1:.4g} | {q3:.4g} "
                  f"| {(q3 - q1) / med:.3f} | {', '.join(shares)}"
                  f"{'' if correct else ' (INCORRECT)'} |")
        if workload in ("family_sweep", "grid_tabulate"):
            for _, raw in runs:
                lat = raw["latencies_scaled_s"]
                p90 = statistics.quantiles(lat, n=10)[-1]
                print(f"| {workload} | op_p90_ms, seed {raw['seed']} | ms | {1e3 * p90:.4g} "
                      f"| | | | {len(lat)} samples |")
        untraced_round = statistics.median(raw["timed_s"] / raw["rounds"] for _, raw in runs)
        traced = [run(workload, args.trace_seed, args.seconds, 1) for _ in range(2)]
        record[workload]["traced"] = [r for r, _ in traced]
        record[workload]["untraced_round_s"] = untraced_round
        record[workload]["traced_round_s"] = [raw["timed_s"] for _, raw in traced]

    print()
    print("| workload | per-layer metric | unit | traced run 1 | traced run 2 |")
    print("|---|---|---|---|---|")
    for workload, rec in record.items():
        first, second = (t["metrics"] for t in rec["traced"])
        for metric, entry in first.items():
            if entry["value"] or second[metric]["value"]:
                print(f"| {workload} | {metric} | {entry['unit']} | {entry['value']:.6g} "
                      f"| {second[metric]['value']:.6g} |")
    print()
    print("| workload | counters repeat exactly | untraced s/round | traced s/round | overhead |")
    print("|---|---|---|---|---|")
    for workload, rec in record.items():
        first, second = (t["metrics"] for t in rec["traced"])
        same = all(first[m]["value"] == second[m]["value"]
                   for m in first if first[m]["unit"] == "count")
        traced_round = statistics.median(rec["traced_round_s"])
        base = rec["untraced_round_s"]
        print(f"| {workload} | {'yes' if same else 'NO'} | {base:.3f} | {traced_round:.3f} "
              f"| {traced_round - base:+.3f} s ({(traced_round - base) / base:+.1%}) |")

    if not args.no_pytest:
        env = dict(os.environ, PYTHONPATH="src")
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                               "--continue-on-collection-errors"],
                              capture_output=True, text=True, env=env, timeout=1800)
        wall = time.perf_counter() - t0
        summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "?"
        print(f"\ntier-1 pytest: {wall:.1f} s wall ({summary})")
        record["pytest_wall_s"] = wall

    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "reference.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
