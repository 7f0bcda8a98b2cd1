"""Compare two result sets of the benchmark, parent (A) against change (B).

    python3 perfbench/compare.py A/results.jsonl B/results.jsonl

A result set is the perfbench/out/results.jsonl a checkout's runs append
to.  For every end-to-end metric of BENCHMARK.json, and for item_p50_ms,
this prints one row per workload: each side's median and quartiles over its
untraced runs, the pairs B won (the i-th run of A against the i-th of B,
ties counting for neither), and a verdict:

* ``better``: B wins at least nine tenths of the pairs and the medians
  differ by more than A's spread (its interquartile distance);
* ``worse``: B's median is worse than A's by more than the metric's bound;
* ``unresolved``: A's spread, as a share of its median, exceeds the bound,
  unless every run of B reads better than every run of A;
* ``same`` otherwise.

item_p50_ms has no bound (its spread between seeds is too wide to gate), so
it is only ever ``better`` or ``not gated``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    """workload -> metric -> values, in run order, from untraced runs."""
    runs = defaultdict(lambda: defaultdict(list))
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            if record["trace"] == 0:
                for name, metric in record["metrics"].items():
                    runs[record["workload"]][name].append(metric["value"])
                runs[record["workload"]]["item_p50_ms"].append(record["item_p50_ms"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a, b, bound, lower_is_better):
    def better(x, y):
        return x < y if lower_is_better else x > y

    a1, a2, a3 = quartiles(a)
    b2 = quartiles(b)[1]
    pairs = list(zip(a, b))
    wins = sum(better(y, x) for x, y in pairs)
    all_better = all(better(y, x) for y in b for x in a)
    worse_by = (b2 - a2) / a2 if lower_is_better else (a2 - b2) / a2
    gained = (wins >= 0.9 * len(pairs) and abs(b2 - a2) > a3 - a1 and better(b2, a2)) or all_better
    if bound is None:
        return wins, len(pairs), "better" if gained else "not gated"
    if (a3 - a1) / a2 > bound and not all_better:
        return wins, len(pairs), "unresolved"
    if gained:
        return wins, len(pairs), "better"
    if worse_by > bound:
        return wins, len(pairs), "worse"
    return wins, len(pairs), "same"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="result set A (results.jsonl)")
    parser.add_argument("change", help="result set B (results.jsonl)")
    args = parser.parse_args(argv)

    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    a_runs, b_runs = load(args.parent), load(args.change)
    ungated = {"name": "item_p50_ms", "unit": "ms", "better": "lower", "bound": None}
    for metric in spec["end_to_end"] + [ungated]:
        name, bound = metric["name"], metric["bound"]
        limit = "not gated" if bound is None else f"bound {bound:g}"
        print(f"{name} ({metric['unit']}, {metric['better']} is better, {limit})")
        print(f"  {'workload':<10} {'A median [q1, q3]':<32} {'B median [q1, q3]':<32} "
              f"{'B wins':<8} verdict")
        for workload in sorted(set(a_runs) & set(b_runs)):
            a, b = a_runs[workload][name], b_runs[workload][name]
            if not a or not b:
                continue
            wins, pairs, word = verdict(a, b, bound, metric["better"] == "lower")
            qa, qb = quartiles(a), quartiles(b)
            print(f"  {workload:<10} {qa[1]:<10.5g} [{qa[0]:.5g}, {qa[2]:.5g}]".ljust(44)
                  + f" {qb[1]:<10.5g} [{qb[0]:.5g}, {qb[2]:.5g}]".ljust(33)
                  + f" {wins}/{pairs:<6} {word}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
