"""Tests of the benchmark itself: every workload runs and checks clean at a
small size, traced rounds account for their wall time, and a tampered
reference is caught."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracing
import workloads
from workloads import SMALL, WORKLOADS

HERE = Path(__file__).resolve().parent


def _round(name, trace=False):
    workload = WORKLOADS[name]
    inputs = workload.setup(7, SMALL)
    if not trace:
        return workload, inputs, workload.run(inputs), None
    tracer = tracing.Tracer()
    tracer.install()
    try:
        work = tracer.open("work")
        outcome = workload.run(inputs)
        tracer.close(work)
    finally:
        tracer.uninstall()
    return workload, inputs, outcome, tracing.layer_metrics(tracer, work, {})


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_small_round_checks_clean(name):
    workload, inputs, outcome, _ = _round(name)
    attempted, failed = workload.check(inputs, outcome.verdicts, workload.reference(inputs))
    assert attempted > 0
    assert failed == 0
    assert outcome.item_s and all(s >= 0 for s in outcome.item_s)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_round_accounts_for_wall(name):
    _, _, _, layers = _round(name, trace=True)
    assert set(layers) <= set(tracing.LAYER_METRICS)
    assert layers["trace.self_sum_s"] == pytest.approx(layers["trace.wall_s"], rel=1e-6)
    assert 0.0 < layers["trace.layer_share"] <= 1.0


def test_traced_counts_match_the_work():
    _, inputs, _, layers = _round("sweep", trace=True)
    calls = sum(len(labels) for _, _, labels in inputs["jobs"])
    assert layers["assignment.min_dim.calls"] == calls
    assert layers["gf2.solve_bits.calls"] > 0
    assert layers["reducibility.families"] == 0


def test_wrong_family_count_fails():
    workload, inputs, outcome, _ = _round("reduce")
    ref = workload.reference(inputs)
    ref["family_counts"]["P3"] += 1
    attempted, failed = workload.check(inputs, outcome.verdicts, ref)
    assert failed == 1 and failed / attempted > 0


def test_flipped_sweep_verdict_fails():
    workload, inputs, outcome, _ = _round("sweep")
    ref = workload.reference(inputs)
    dist = next(d for d in ref["distances"] if d is not None)
    dist[1] += 1
    attempted, failed = workload.check(inputs, outcome.verdicts, ref)
    assert failed == 1 and failed / attempted > 0


def test_inputs_follow_the_seed():
    a = workloads.sweep_setup(3, SMALL)["jobs"]
    b = workloads.sweep_setup(3, SMALL)["jobs"]
    c = workloads.sweep_setup(4, SMALL)["jobs"]
    key = lambda jobs: [(g.edges, [lab.bits for lab in labels]) for g, _, labels in jobs]
    assert key(a) == key(b)
    assert key(a) != key(c)


def test_refuter_agrees_with_solver_on_small_family():
    lg = workloads.family.build_family(2, 2)
    assert not workloads.refute_without_algebra(lg.graph, lg.label.bits, 3)
    lg = workloads.family.build_family(2, 3)
    assert workloads.refute_without_algebra(lg.graph, lg.label.bits, 3)


def test_fails_without_the_program(tmp_path):
    """Where only the benchmark's files exist, it must exit non-zero and
    print no result."""
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "family", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_benchmark_json_names_the_reported_metrics():
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(tracing.LAYER_METRICS)
    fake = {"wall_s": 1.0, "setup_s": 0.1, "rss_mb": 20.0, "item_s": [0.1]}
    assert list(run.end_to_end([0.1], [fake])) == [m["name"] for m in spec["end_to_end"]]


def test_compare_verdicts():
    import compare

    a = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]
    assert compare.verdict(a, [x * 0.8 for x in a], 0.25, True)[2] == "better"
    assert compare.verdict(a, [x * 1.4 for x in a], 0.25, True)[2] == "worse"
    assert compare.verdict(a, list(a), 0.25, True)[2] == "same"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.verdict(noisy, noisy, 0.25, True)[2] == "unresolved"
    assert compare.verdict(a, list(a), None, True)[2] == "not gated"


def test_bridge_part_checks_one_label_word():
    assert len(list(workloads.bridge_part().label_completions())) == 1
