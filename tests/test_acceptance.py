"""Acceptance suite: one test per criterion, one printed verdict line each.

Criterion 8 is exploratory: it must run and report, but finding no
dimension-4 label within its time budget is reported rather than failed.
The budget defaults to a small value suitable for CI and can be raised via
INVDIAM_SEARCH_BUDGET_S (the full-scale run uses 7200).
"""

from __future__ import annotations

import json
import os
import time
from itertools import combinations

import pytest

from invdiam.assignment import (
    enumerate_assignments,
    hardest_label,
    min_dim,
    solve,
    verify,
)
from invdiam.certificates import check_certificate, refute
from invdiam.cli import main as cli_main
from invdiam.family import (
    build_family,
    probe_clique_independence,
    probe_extension_dichotomy,
)
from invdiam.graph import Graph, Label
from invdiam.inversion import bfs_all_distances, bfs_diameter
from invdiam.reducibility import builtin_mutations, run_suite


def report(num: int, name: str, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {num} ({name}): {verdict} - {detail}", flush=True)


def test_criterion_1_k4_diameter():
    start = time.monotonic()
    g = Graph(4, combinations(range(4), 2))
    from invdiam.assignment import diameter_via_assignment

    via_assign = diameter_via_assignment(g, 6).diameter
    via_bfs = bfs_diameter(g)
    elapsed = time.monotonic() - start
    ok = via_assign == 3 and via_bfs == 3 and elapsed < 5.0
    report(1, "K4 diameter", ok, f"assign={via_assign} bfs={via_bfs} in {elapsed:.2f}s")
    assert via_assign == 3
    assert via_bfs == 3
    assert elapsed < 5.0


def test_criterion_2_treewidth_one_tightness():
    start = time.monotonic()
    lg = build_family(1, 2)  # all-zero initial label
    g, lab = lg.graph, lg.label
    # (a) independent brute-force oracle over all 2^9 one-dim assignments.
    refuted = True
    for words in range(1 << g.n):
        if all(
            ((words >> u) & (words >> v) & 1) == lab.bit(e)
            for e, (u, v) in enumerate(g.edges)
        ):
            refuted = False
            break
    # (b) a verified two-dimensional witness.
    witness = solve(g, lab, 2)
    witness_ok = witness is not None and verify(g, lab, witness)
    computed = min_dim(g, lab, 4)
    elapsed = time.monotonic() - start
    ok = refuted and witness_ok and computed == 2 and elapsed < 1.0
    report(
        2,
        "treewidth-1 tightness",
        ok,
        f"1-dim refuted={refuted} witness={witness_ok} min_dim={computed} in {elapsed:.2f}s",
    )
    assert refuted and witness_ok and computed == 2
    assert elapsed < 1.0


def test_criterion_3_oracle_equivalence(corpus_n5):
    start = time.monotonic()
    mismatches = 0
    labels_checked = 0
    for name, g in corpus_n5:
        dist = bfs_all_distances(g)
        for bits in range(1 << g.m):
            labels_checked += 1
            if min_dim(g, Label(g, bits), g.m) != dist[bits]:
                mismatches += 1
    elapsed = time.monotonic() - start
    ok = mismatches == 0 and elapsed < 600.0
    report(
        3,
        "oracle equivalence",
        ok,
        f"{len(corpus_n5)} graphs, {labels_checked} labels, "
        f"{mismatches} mismatches in {elapsed:.1f}s",
    )
    assert mismatches == 0
    assert elapsed < 600.0


def _seeded_paths_and_cycles(count: int, seed: int):
    import random

    rng = random.Random(seed)
    graphs = []
    for _ in range(count):
        n = rng.randrange(3, 13)
        if rng.random() < 0.5:
            graphs.append(Graph(n, [(i, i + 1) for i in range(n - 1)]))
        else:
            graphs.append(Graph(n, [(i, (i + 1) % n) for i in range(n)]))
    return graphs


def _seeded_max_deg3(count: int, seed: int):
    import random

    rng = random.Random(seed)
    graphs = []
    for _ in range(count):
        n = rng.randrange(4, 13)
        edges = set()
        deg = [0] * n
        for v in range(1, n):
            u = rng.choice([w for w in range(v) if deg[w] < 3])
            edges.add((u, v))
            deg[u] += 1
            deg[v] += 1
        extras = [e for e in combinations(range(n), 2) if e not in edges]
        rng.shuffle(extras)
        for u, v in extras:
            if deg[u] < 3 and deg[v] < 3 and rng.random() < 0.5:
                edges.add((u, v))
                deg[u] += 1
                deg[v] += 1
        graphs.append(Graph(n, edges))
    return graphs


def _labels_for(g: Graph, rng, samples: int = 500):
    if g.m <= 12:
        return range(1 << g.m)
    return [rng.getrandbits(g.m) for _ in range(samples)]


def test_criterion_4_degree_bounds():
    import random

    start = time.monotonic()
    violations = 0
    checked = 0
    rng = random.Random(1001)
    for g in _seeded_paths_and_cycles(200, seed=2024):
        for bits in _labels_for(g, rng):
            checked += 1
            if min_dim(g, Label(g, bits), 2) is None:
                violations += 1
    deg2_done = time.monotonic()
    for g in _seeded_max_deg3(200, seed=2025):
        assert max(g.degree(v) for v in range(g.n)) <= 3
        for bits in _labels_for(g, rng):
            checked += 1
            if min_dim(g, Label(g, bits), 3) is None:
                violations += 1
    elapsed = time.monotonic() - start
    ok = violations == 0 and elapsed < 900.0
    report(
        4,
        "degree bounds",
        ok,
        f"{checked} labels over 400 graphs, {violations} violations "
        f"(deg2 {deg2_done - start:.1f}s, total {elapsed:.1f}s)",
    )
    assert violations == 0
    assert elapsed < 900.0


# Families checked per configuration; the exhaustive scan must reproduce each.
_FAMILY_COUNTS = {
    "K4minus": 1254400,
    "triangle": 88795,
    "P3": 403368,
    "K23": 2744000,
    "C4_a": 9604,
    "C4_b": 67095,
    "bridge": 49787136,
}


def test_criterion_5_reducibility_suite(tmp_path):
    start = time.monotonic()
    suite = run_suite()
    counts = {r.name: r.family_count for r in suite.rows}
    suite_ok = suite.passed and counts == _FAMILY_COUNTS
    lines = [f"{r.name}={r.verdict}({r.family_count})" for r in suite.rows]
    mutation_ok = True
    mutation_notes = []
    for name, mut in sorted(builtin_mutations().items()):
        out = tmp_path / f"reduce_{name}.json"
        code = cli_main(
            ["reduce", "--mutate", name, "--out", str(out), "--no-meta"]
        )
        doc = json.loads(out.read_text())
        produced = code == 1 and not doc["suite_pass"]
        valid, _, notes = check_certificate(doc)
        mutation_ok = mutation_ok and produced and valid
        mutation_notes.append(f"{name}:{'cex' if produced else 'MISSING'}"
                              f"{'' if valid else '/INVALID'}")
    elapsed = time.monotonic() - start
    ok = suite_ok and mutation_ok and elapsed < 1800.0
    report(
        5,
        "reducibility suite",
        ok,
        f"suite={'pass' if suite_ok else 'fail'} [{', '.join(lines)}]; "
        f"mutations [{', '.join(mutation_notes)}] in {elapsed:.1f}s",
    )
    assert suite_ok, lines
    assert mutation_ok, mutation_notes
    assert elapsed < 1800.0


@pytest.mark.parametrize("k,m", [(1, 1), (2, 1), (2, 2)])
def test_criterion_6_lemma_probes(k, m):
    start = time.monotonic()
    lg = build_family(k, m)
    count = 0
    violations = 0
    for f in enumerate_assignments(lg.graph, lg.label, 2 * k - 1, 10**4):
        count += 1
        if not probe_clique_independence(lg, f).passed:
            violations += 1
        if not probe_extension_dichotomy(lg, f).passed:
            violations += 1
    elapsed = time.monotonic() - start
    ok = violations == 0
    report(
        6,
        f"lemma probes k={k} m={m}",
        ok,
        f"{count} assignments, {violations} violations in {elapsed:.1f}s",
    )
    assert violations == 0


_STAGE_VERDICTS = ["sat", "sat", "sat", "unsat", "unsat", "unsat"]


def test_criterion_7_scan_reports():
    # Fixed work: the k=2 family at t=3 on every stage m=0..5.
    start = time.monotonic()
    verdicts, cells = [], []
    for m in range(6):
        lg = build_family(2, m)
        began = time.monotonic()
        verdicts.append("unsat" if solve(lg.graph, lg.label, 3) is None else "sat")
        cells.append(f"m={m}:{verdicts[-1]}({time.monotonic() - began:.1f}s)")
    # Stage 3 certifies a treewidth-2 instance beyond distance 3: cross-check
    # it with a verified 4-dim witness and an independent linear-algebra-free
    # refuter.
    lg = build_family(2, 3)
    witness = solve(lg.graph, lg.label, 4)
    witness_ok = witness is not None and verify(lg.graph, lg.label, witness)
    independent = refute(lg.graph, lg.label, 3)
    elapsed = time.monotonic() - start
    ok = verdicts == _STAGE_VERDICTS and witness_ok and independent is True
    report(
        7,
        "dimension table k=2 t=3",
        ok,
        f"table=[{', '.join(cells)}]; dimension 3 refuted at m=3 (n={lg.graph.n}): "
        f"4-dim witness={witness_ok}, independent refutation={independent} "
        f"in {elapsed:.1f}s",
    )
    assert verdicts == _STAGE_VERDICTS
    assert witness_ok and independent is True


def test_criterion_8_outerplanar_search(outerplanar_corpus):
    budget = float(os.environ.get("INVDIAM_SEARCH_BUDGET_S", "45"))
    deadline = time.monotonic() + budget
    start = time.monotonic()
    best_dim = 0
    best = None
    searched = 0
    # Escalating rounds: each pass over the corpus quadruples the label
    # evaluations per graph (fresh seed), until the wall budget runs out.
    round_no = 0
    while time.monotonic() < deadline and best_dim < 4:
        evals = 40 * (4**round_no)
        for g in outerplanar_corpus:
            if time.monotonic() > deadline:
                break
            searched += 1
            result = hardest_label(g, 4, budget=evals, seed=round_no)
            d = result.dim if result.dim is not None else 5
            if d > best_dim:
                best_dim = d
                best = (g, result.label)
        round_no += 1
    detail = (
        f"budget={budget:.0f}s rounds={round_no} runs={searched} "
        f"over {len(outerplanar_corpus)} graphs, best min_dim={best_dim}"
    )
    found_ok = True
    if best_dim >= 4 and best is not None:
        g, label = best
        witness = solve(g, label, 4)
        refuted = refute(g, label, 3)
        found_ok = witness is not None and verify(g, label, witness) and refuted is True
        detail += (
            f"; dimension-4 instance on n={g.n}: witness="
            f"{witness is not None} independent_t3_refutation={refuted}"
        )
    else:
        detail += "; no dimension-4 label located at this budget (non-blocking)"
    elapsed = time.monotonic() - start
    detail += f" in {elapsed:.1f}s"
    report(8, "outer-planar hard-label search", found_ok, detail)
    assert found_ok
