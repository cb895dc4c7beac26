"""Benchmark of zepl: one workload per run, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; zepl is imported from ./src.  The run repeats
whole rounds of the workload's operations until S seconds of operations
have been timed, checks every result with ``refcheck`` (which never imports
zepl) and prints one JSON object as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (setup_s, ops_per_s,
op_p50_ms, peak_rss_mb), with op times put on one machine-speed scale by
``speed.SpeedProbe``.  With --trace 1 the run does one round with every
layer wrapped by ``tracing.Tracer`` and prints the per-layer metrics; spans go
to perfbench/out/.  The loop is one process with no threads of its own.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from speed import ARRAY_SCALE, PYTHON_SCALE, SpeedProbe

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 150


@dataclass(frozen=True)
class Workload:
    prepare: Callable[[int], list]          # set-up: inputs and first calls
    run: Callable[[object], object]         # one timed operation
    check: Callable[[object, object], str | None]
    fault: Callable[[object], str | None] = lambda item: None
    speed: tuple = PYTHON_SCALE             # kernel that tracks the ops' speed


def workloads() -> dict[str, Workload]:
    import ops
    return {
        "verify_all": Workload(ops.prepare_verify, ops.run_verify, ops.check_verify),
        "oracle_sweep": Workload(ops.prepare_oracle, ops.run_oracle, ops.check_oracle),
        "family_sweep": Workload(ops.prepare_family, ops.run_family, ops.check_family,
                                 fault=lambda item: item[0]),
        "grid_tabulate": Workload(ops.prepare_grid, ops.run_grid, ops.check_grid,
                                  speed=ARRAY_SCALE),
    }


WORKLOAD_NAMES = ("verify_all", "oracle_sweep", "family_sweep", "grid_tabulate")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=12.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="do the workload's set-up in this process and exit "
                        "(used to time set-up in fresh interpreters)")
    return p.parse_args(argv)


def setup_seconds(args, root: Path) -> list[float]:
    """Wall time of the set-up in fresh interpreters: start-up, imports,
    input generation and the first call of each kind."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=root, stdout=subprocess.DEVNULL, check=True,
                       timeout=PROBE_TIMEOUT_S)
        samples.append(time.perf_counter() - t0)
    return samples


def run_rounds(wl: Workload, items: list, seconds: float, *, tracer=None,
               probe: SpeedProbe | None = None) -> dict:
    """Whole rounds until ``seconds`` of operations are timed (one round when
    tracing).  Checks run after each operation, outside timing and trace.
    With a running ``probe``, its samples' time is taken out of each
    operation's latency."""
    latencies, intervals, failed, problems, rounds, timed = [], [], 0, [], 0, 0.0
    while rounds == 0 or (tracer is None and timed < seconds):
        for index, item in enumerate(items):
            if tracer is not None:
                tracer.op, tracer.recording = index, True
            t0 = time.perf_counter()
            try:
                result, problem = wl.run(item), None
            except Exception as exc:  # the op failed; record it and go on
                result, problem = None, f"raised {exc!r}"
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.recording = False
            dt = t1 - t0 - (probe.busy(t0, t1) if probe is not None else 0.0)
            latencies.append(dt)
            intervals.append((t0, t1))
            timed += dt
            if problem is None:
                try:
                    problem = wl.check(item, result)
                except Exception as exc:  # a malformed result fails its check
                    problem = f"check raised {exc!r}"
            if problem is not None:
                failed += 1
                if wl.fault(item) is None:
                    problems.append(f"{item!r}: {problem}")
        rounds += 1
    return {"latencies": latencies, "intervals": intervals, "failed": failed,
            "problems": problems, "rounds": rounds, "timed_s": timed}


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    root = Path.cwd()
    if not (root / "src" / "zepl" / "__init__.py").is_file():
        print("error: ./src/zepl not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    wl = workloads()[args.workload]
    if args.setup_only:
        wl.prepare(args.seed)
        return 0

    outdir = root / "perfbench" / "out"
    outdir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        result, raw = traced_run(wl, args, outdir / f"spans-{stem}.csv")
    else:
        result, raw = measured_run(wl, args, root)
    (outdir / f"run-{stem}.json").write_text(json.dumps(raw), encoding="utf-8")
    for line in raw["problems"]:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def _result(out: dict, metrics: dict) -> dict:
    return {"correct": not out["problems"], "attempted": len(out["latencies"]),
            "failed": out["failed"], "metrics": metrics}


def measured_run(wl: Workload, args, root: Path) -> tuple[dict, dict]:
    """End-to-end metrics, with tracing off."""
    setup = setup_seconds(args, root)
    items = wl.prepare(args.seed)
    probe = SpeedProbe(*wl.speed)
    probe.start()
    try:
        out = run_rounds(wl, items, args.seconds, probe=probe)
    finally:
        probe.stop()
    lat = out["latencies"]
    scaled = [dt * probe.scale(t0, t1) for dt, (t0, t1) in zip(lat, out["intervals"])]
    completed = len(lat) - out["failed"]
    metrics = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "ops_per_s": {"value": completed / sum(scaled), "unit": "1/s"},
        "op_p50_ms": {"value": 1e3 * statistics.median(scaled), "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
    }
    print(f"{args.workload} seed={args.seed}: {out['rounds']} round(s), {len(lat)} ops "
          f"({out['failed']} failed); {out['timed_s']:.3f} s wall of operations, "
          f"{sum(scaled):.3f} s on the reference scale; op_p50_ms over {len(lat)} ops; "
          f"kernel median {1e3 * statistics.median(probe.kernel_s):.3f} ms over "
          f"{len(probe.kernel_s)} samples; setup runs "
          + ", ".join(f"{s:.3f}" for s in setup) + " s")
    raw = {**out, "seed": args.seed, "setup_s": setup, "latencies_scaled_s": scaled,
           "kernel_s": probe.kernel_s, "kernel_starts": probe.starts}
    return _result(out, metrics), raw


def traced_run(wl: Workload, args, spans_path: Path) -> tuple[dict, dict]:
    """Per-layer metrics from one round with every layer wrapped."""
    from tracing import METRIC_UNITS, Tracer
    items = wl.prepare(args.seed)
    tracer = Tracer()
    tracer.install()
    try:
        out = run_rounds(wl, items, args.seconds, tracer=tracer)
    finally:
        tracer.uninstall()
    tracer.write(spans_path)
    values = tracer.metrics()
    print(f"{args.workload} seed={args.seed} traced: {len(out['latencies'])} ops "
          f"({out['failed']} failed) in {out['timed_s']:.3f} s, {len(tracer.spans)} spans")
    raw = {**out, "seed": args.seed}
    del raw["intervals"]
    return _result(out, {k: {"value": values[k], "unit": u}
                         for k, u in METRIC_UNITS.items()}), raw


if __name__ == "__main__":
    sys.exit(main())
