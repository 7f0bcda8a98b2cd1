"""One round of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --spawned T
                                [--trace] [--setup-only]

``--spawned`` is the parent's ``time.monotonic()`` just before it started
this process (the clock is system-wide), so set-up time includes
interpreter start and imports, as it does for a user of the CLI.  The last
line of stdout is one JSON object with the round's figures.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"


def _import_invdiam() -> None:
    """Import the package from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import invdiam

    if Path(invdiam.__file__).resolve().parent != src / "invdiam":
        raise SystemExit(f"invdiam imported from {invdiam.__file__}, not {src}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    _import_invdiam()
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from tracing import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
        root = tracer.open("setup")
    inputs = workload.setup(args.seed, workloads.FULL)
    if tracer is not None:
        tracer.close(root)
    setup_s = time.monotonic() - args.spawned
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    layers = None
    if tracer is not None:
        kernels_before = {name: stat[1] for name, stat in tracer.kernels.items()}
        work = tracer.open("work")
    start = time.perf_counter()
    outcome = workload.run(inputs)
    wall_s = time.perf_counter() - start
    if tracer is not None:
        tracer.close(work)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        layers = layer_metrics(tracer, work, kernels_before)
        # First call on a graph minus the same call again (context cached),
        # still traced so that both sides carry the same overhead.
        build_s = 0.0
        for first_s, repeat in outcome.first_calls:
            start = time.perf_counter()
            repeat()
            build_s += first_s - (time.perf_counter() - start)
        layers["assignment.context_build_s"] = build_s
        tracer.uninstall()
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}.jsonl")

    attempted, failed = workload.check(inputs, outcome.verdicts, workload.reference(inputs))
    print(json.dumps({
        "setup_s": setup_s,
        "wall_s": wall_s,
        "item_s": outcome.item_s,
        "rss_mb": rss_mb,
        "attempted": attempted,
        "failed": failed,
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
