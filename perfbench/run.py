"""The invdiam benchmark: one workload, repeated in fresh interpreters.

    python3 perfbench/run.py --workload {sweep,family,reduce,diameter}
                             --seed N --seconds S --trace {0,1}

A closed loop with one caller and one single-threaded process at a time.
Each round runs the workload's fixed work once in a fresh interpreter
(perfbench/worker.py), so solver-context and move caches start cold as they
do for every CLI run, and checks every verdict against its reference.
Rounds repeat until the next one would end after --seconds; figures are
medians over rounds.  Set-up time is also sampled by set-up-only rounds.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced rounds and reports the per-layer metrics, with the tracing overhead
(traced wall_s minus untraced wall_s).  Human-readable lines come first;
the last line of stdout is the JSON result.  Each run is also appended to
perfbench/out/results.jsonl (with the machine it ran on), which
perfbench/compare.py reads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYER_METRICS

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"
WORKLOAD_NAMES = ("sweep", "family", "reduce", "diameter")
# Set-up-only rounds per run, after one that warms the bytecode cache.
SETUP_SAMPLES = 5
# Percentiles considered for the tail; the highest with >= 10 samples
# beyond it is reported.
TAIL_PERCENTILES = (90.0, 99.0, 99.9, 99.99)
# Every run, whatever --seconds says, ends by this many seconds.
RUN_LIMIT_S = 170


class RoundFailed(Exception):
    pass


def spawn(workload: str, seed: int, deadline: float, *flags: str) -> dict:
    now = time.monotonic()
    cmd = [
        sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
        "--spawned", repr(now), *flags,
    ]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=max(deadline - now, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise RoundFailed(f"round still running {RUN_LIMIT_S} s into the run") from exc
    if proc.returncode != 0:
        raise RoundFailed(f"round exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(samples):
    """(percentile, value, samples beyond) for the highest percentile with at
    least ten samples beyond it, by nearest rank; None if there is none."""
    ordered = sorted(samples)
    n = len(ordered)
    best = None
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= 10:
            best = (p, ordered[rank - 1], n - rank)
    return best


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        with open("/proc/loadavg", encoding="utf-8") as fh:
            load = " ".join(fh.read().split()[:3])
    except OSError:
        load = "unknown"
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "loadavg": load,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Run the rounds; returns (setup samples, untraced rounds, traced rounds)."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    spawn(workload, seed, deadline, "--setup-only")
    setups = [
        spawn(workload, seed, deadline, "--setup-only")["setup_s"] for _ in range(SETUP_SAMPLES)
    ]
    rounds = {False: [], True: []}
    longest = 0.0
    traced = False
    while True:
        began = time.monotonic()
        rounds[traced].append(spawn(workload, seed, deadline, *(["--trace"] if traced else [])))
        longest = max(longest, time.monotonic() - began)
        done = rounds[False] and (rounds[True] or not trace)
        if done and time.monotonic() - start + longest > seconds:
            return setups, rounds[False], rounds[True]
        traced = trace and not traced


def end_to_end(setups, untraced):
    """The metrics BENCHMARK.json gates, as (value, unit)."""
    return {
        "wall_s": (statistics.median(r["wall_s"] for r in untraced), "s"),
        "setup_s": (statistics.median(setups + [r["setup_s"] for r in untraced]), "s"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in untraced), "MB"),
    }


def item_p50_ms(untraced) -> float:
    return 1000.0 * statistics.median(statistics.median(r["item_s"]) for r in untraced)


def per_layer(untraced, traced):
    from_traced = {
        name: statistics.median(r["layers"][name] for r in traced)
        for name in traced[0]["layers"]
    }
    untraced_wall = statistics.median(r["wall_s"] for r in untraced)
    from_traced["trace.untraced_wall_s"] = untraced_wall
    from_traced["trace.overhead_s"] = from_traced["trace.wall_s"] - untraced_wall
    return from_traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = environment()
    try:
        setups, untraced, traced = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except RoundFailed as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 1
    env["loadavg_after"] = environment()["loadavg"]
    rounds = untraced + traced
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    correct = attempted > 0 and failed == 0
    items = [s for r in untraced for s in r["item_s"]]
    tail_item = tail(items)

    print(
        f"env: python {env['python']}, nproc {env['nproc']}, cpu {env['cpu']}, "
        f"loadavg {env['loadavg']} -> {env['loadavg_after']}"
    )
    print(
        f"{args.workload} seed={args.seed}: {len(untraced)} untraced and {len(traced)} "
        f"traced rounds, {len(setups)} set-up-only rounds"
    )
    print("  round wall_s: " + " ".join(
        f"{r['wall_s']:.4f}{'T' if r['layers'] else ''}" for r in untraced + traced
    ))
    if args.trace:
        metrics = per_layer(untraced, traced)
        reported = {name: (metrics[name], unit) for name, unit in LAYER_METRICS.items()}
        accounted = abs(metrics["trace.self_sum_s"] - metrics["trace.wall_s"])
        if accounted > 1e-3 * metrics["trace.wall_s"]:
            print(f"span self times miss the traced wall by {accounted:.6f} s", file=sys.stderr)
            correct = False
    else:
        reported = end_to_end(setups, untraced)
    for name, (value, unit) in reported.items():
        print(f"  {name:<40} {value:.6g} {unit}")
    p50 = item_p50_ms(untraced)
    print(f"  {'item_p50_ms':<40} {p50:.6g} ms (median of each round's median item)")
    if tail_item is not None:
        p, value, beyond = tail_item
        print(f"  {'item_tail_ms':<40} p{p:g} = {1000 * value:.6g} ms "
              f"({len(items)} samples, {beyond} beyond)")
    else:
        print(f"  {'item_tail_ms':<40} undefined ({len(items)} samples; "
              f"no percentile has 10 beyond it)")
    print(f"  {'failed_frac':<40} {failed / max(attempted, 1):.6g} ({failed} of {attempted})")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in reported.items()},
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "env": env, **result,
            "item_p50_ms": p50,
            "item_tail": tail_item and {"percentile": tail_item[0], "ms": 1000 * tail_item[1],
                                        "samples": len(items), "beyond": tail_item[2]},
            "failed_frac": failed / max(attempted, 1),
            "rounds": {"untraced": len(untraced), "traced": len(traced), "setup_only": len(setups)},
        }) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
