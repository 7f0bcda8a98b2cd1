"""The four fixed-work workloads of the invdiam benchmark.

Each workload is four functions:

* ``setup(seed, size)`` builds the inputs from the seed; its time is the
  reported set-up time;
* ``run(inputs)`` does the fixed work and returns an ``Outcome`` holding the
  verdicts and one duration per verdict unit; it is the only timed part;
* ``reference(inputs)`` computes what the verdicts must equal, with code the
  timed layer does not use (BFS for the solver, a search without linear
  algebra for the solver's refutations, published counts for reducibility);
* ``check(inputs, verdicts, ref)`` returns ``(attempted, failed)``.

Every call into invdiam goes through a module attribute
(``assignment.min_dim``, never ``from ... import min_dim``) so that the
wrappers of the traced run see it.  Only the ``perfbench`` package's own
files are benchmark code; ``src/`` is measured as it is.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import random
import time
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from invdiam import assignment, certificates, cli, family, graph, inversion, reducibility
from invdiam.graph import Graph, Label

ROOT = Path(__file__).resolve().parent.parent
OUTERPLANAR = ROOT / "tests" / "fixtures" / "outerplanar"

# Exact family counts of the seven builtin configurations (criterion 5).
# Bridge's boundary rules exclude the zero vector whatever the labels, so
# each of its BRIDGE_WORDS label words has the same candidate sets and a
# 1/BRIDGE_WORDS share of its count.
BRIDGE_WORDS = 16
FAMILY_COUNTS = {
    "K4minus": 1254400,
    "triangle": 88795,
    "P3": 403368,
    "K23": 2744000,
    "C4_a": 9604,
    "C4_b": 67095,
    "bridge": 49787136,
}


@dataclass(frozen=True)
class Size:
    """How much fixed work one round does.  ``FULL`` is the benchmark;
    ``SMALL`` exists for the benchmark's own smoke tests."""

    # sweep: every label of P_n and C_n (t_max=2) for these n ...
    path_cycle_n: Tuple[int, ...]
    # ... and (n, m, graphs) seeded max-degree-3 graphs (t_max=3)
    sweep_shapes: Tuple[Tuple[int, int, int], ...]
    # labels drawn per graph with m > FULL_SWEEP_M (sweep and diameter BFS)
    sampled_labels: int
    # family: stages at k=2, and assignments enumerated for the probes
    family_stages: Tuple[int, ...]
    probe_cap: int
    # reduce: configurations (and their mutation controls)
    reduce_configs: Tuple[str, ...]
    # diameter: (n, m, graphs) through both engines, (n, m, graphs) through
    # all-distances BFS, and the hardest_label budget over the fixtures
    diameter_shapes: Tuple[Tuple[int, int, int], ...]
    bfs_shapes: Tuple[Tuple[int, int, int], ...]
    hardest_budget: int
    hardest_fixtures: Optional[int]


FULL = Size(
    path_cycle_n=tuple(range(3, 12)),
    sweep_shapes=(
        (5, 6, 2), (6, 7, 2), (6, 8, 2), (7, 9, 2), (8, 10, 2),
        (9, 13, 3), (10, 14, 3), (10, 15, 3), (11, 15, 3), (11, 16, 3), (12, 17, 3),
    ),
    sampled_labels=250,
    family_stages=(3, 4),
    probe_cap=10**4,
    reduce_configs=tuple(FAMILY_COUNTS),
    diameter_shapes=((7, 9, 2), (8, 10, 2), (9, 11, 2), (10, 12, 2)),
    bfs_shapes=((10, 14, 1),),
    hardest_budget=80,
    hardest_fixtures=None,
)

SMALL = Size(
    path_cycle_n=(3, 4, 5),
    sweep_shapes=((5, 6, 1), (9, 13, 1)),
    sampled_labels=20,
    family_stages=(3,),
    probe_cap=50,
    reduce_configs=("P3", "C4_a", "C4_b", "bridge"),
    diameter_shapes=((6, 7, 1),),
    bfs_shapes=((8, 11, 1),),
    hardest_budget=20,
    hardest_fixtures=3,
)

# Graphs with at most this many edges get every label, and a BFS reference.
FULL_SWEEP_M = 12


@dataclass
class Outcome:
    """What a timed run returns: verdicts for the check, one duration per
    verdict unit, and (for the traced run) the first solver call on each
    graph as (seconds, repeat) so that context build time can be split off."""

    verdicts: dict
    item_s: List[float]
    first_calls: List[Tuple[float, Callable[[], object]]] = field(default_factory=list)


# -- inputs --------------------------------------------------------------------


def max_degree3_graph(rng: random.Random, n: int, m: int) -> Graph:
    """A connected graph with n vertices, exactly m edges and maximum degree 3."""
    if not n - 1 <= m <= 3 * n // 2:
        raise ValueError(f"no connected max-degree-3 graph with n={n}, m={m}")
    while True:
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
            if len(edges) == m:
                break
            if deg[u] < 3 and deg[v] < 3:
                edges.add((u, v))
                deg[u] += 1
                deg[v] += 1
        if len(edges) == m:
            return Graph(n, edges)


def _labels(g: Graph, rng: random.Random, samples: int) -> List[Label]:
    if g.m <= FULL_SWEEP_M:
        return [Label(g, bits) for bits in range(1 << g.m)]
    return [Label(g, rng.getrandbits(g.m)) for _ in range(samples)]


def _shaped_graphs(rng: random.Random, shapes) -> List[Graph]:
    return [max_degree3_graph(rng, n, m) for n, m, count in shapes for _ in range(count)]


def satisfies(g: Graph, label_bits: int, words: Sequence[int]) -> bool:
    """Whether vectors meet every edge equation, checked without invdiam.gf2."""
    return all(
        bin(words[u] & words[v]).count("1") % 2 == (label_bits >> e) & 1
        for e, (u, v) in enumerate(g.edges)
    )


def refute_without_algebra(g: Graph, label_bits: int, t: int) -> bool:
    """True iff no t-dimensional assignment exists, by domain filtering over
    all of F2^t (no linear algebra); the method of the acceptance suite's
    independent refuter."""
    n = g.n
    order = sorted(range(n), key=lambda v: (-len(g.adjacency[v]), v))
    rank = {v: i for i, v in enumerate(order)}
    parity = [bin(x).count("1") & 1 for x in range(1 << t)]

    def descend(i: int, domains: List[List[int]]) -> bool:
        if i == n:
            return False
        v = order[i]
        for value in domains[v]:
            nxt = list(domains)
            nxt[v] = [value]
            for w in g.adjacency[v]:
                if rank[w] > i:
                    b = (label_bits >> g.edge_index(v, w)) & 1
                    nxt[w] = [x for x in nxt[w] if parity[x & value] == b]
                    if not nxt[w]:
                        break
            else:
                if not descend(i + 1, nxt):
                    return False
        return True

    return descend(0, [list(range(1 << t))] * n)


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


# -- sweep -----------------------------------------------------------------------
#
# The criterion-4 degree-bound sweep, scaled to one round: paths and cycles
# need dimension <= 2 and max-degree-3 graphs dimension <= 3 on every label.
# Graph shapes (n, m) are fixed and the seed picks the structure and the
# sampled labels, so every seed does the same number of min_dim calls.


def sweep_setup(seed: int, size: Size) -> dict:
    rng = random.Random(seed)
    graphs = []
    for n in size.path_cycle_n:
        graphs.append((Graph(n, [(i, i + 1) for i in range(n - 1)]), 2))
        graphs.append((Graph(n, [(i, (i + 1) % n) for i in range(n)]), 2))
    graphs += [(g, 3) for g in _shaped_graphs(rng, size.sweep_shapes)]
    return {"jobs": [(g, t_max, _labels(g, rng, size.sampled_labels)) for g, t_max in graphs]}


def sweep_run(inputs: dict) -> Outcome:
    min_dim = assignment.min_dim
    clock = time.perf_counter
    dims: List[List[Optional[int]]] = []
    item_s: List[float] = []
    first_calls = []
    for g, t_max, labels in inputs["jobs"]:
        row = []
        for label in labels:
            start = clock()
            row.append(min_dim(g, label, t_max))
            item_s.append(clock() - start)
        first_calls.append((item_s[-len(labels)], lambda g=g, lab=labels[0], t=t_max: min_dim(g, lab, t)))
        dims.append(row)
    return Outcome({"dims": dims}, item_s, first_calls)


def sweep_reference(inputs: dict) -> dict:
    return {
        "distances": [
            inversion.bfs_all_distances(g) if g.m <= FULL_SWEEP_M else None
            for g, _, _ in inputs["jobs"]
        ]
    }


def sweep_check(inputs: dict, verdicts: dict, ref: dict) -> Tuple[int, int]:
    attempted = failed = 0
    for (g, t_max, labels), dims, dist in zip(inputs["jobs"], verdicts["dims"], ref["distances"]):
        for label, d in zip(labels, dims):
            attempted += 1
            if d is None or d > t_max or (dist is not None and d != dist[label.bits]):
                failed += 1
    return attempted, failed


# -- family ----------------------------------------------------------------------
#
# The k=2 leveled family: the stage-3 graph (n=366) is the smallest with a
# label needing dimension 4, stage 4 (n=3282) is where the O(n^2) vertex
# ordering shows.  Both initial labels of K_2 run; the second reuses the
# cached solver context.  Then the lemma probes over enumerated assignments.


def family_setup(seed: int, size: Size) -> dict:
    return {"stages": size.family_stages, "probe_cap": size.probe_cap}


def family_run(inputs: dict) -> Outcome:
    verdicts = {"stages": [], "probes": []}
    item_s: List[float] = []
    first_calls = []
    for m in inputs["stages"]:
        for initial in (0, 1):
            lg = family.build_family(2, m, initial)
            g, lab = lg.graph, lg.label
            (status, _), unsat_s = _timed(
                assignment.solve_with_deadline, g, lab, 3, time.monotonic() + 600.0
            )
            if initial == 0:
                first_calls.append((
                    unsat_s,
                    lambda g=g, lab=lab: assignment.solve_with_deadline(
                        g, lab, 3, time.monotonic() + 600.0
                    ),
                ))
            witness, sat_s = _timed(assignment.solve, g, lab, 4)
            verified = witness is not None and assignment.verify(g, lab, witness)
            item_s += [unsat_s, sat_s]
            verdicts["stages"].append({
                "m": m, "initial": initial, "graph": g, "label": lab,
                "t3": status, "t4": witness.bits() if witness else None,
                "t4_verified": verified,
            })
    lg = family.build_family(2, 2)
    for f in assignment.enumerate_assignments(lg.graph, lg.label, 3, inputs["probe_cap"]):
        verdicts["probes"].append(
            family.probe_clique_independence(lg, f).passed
            and family.probe_extension_dichotomy(lg, f).passed
        )
    return Outcome(verdicts, item_s, first_calls)


def family_reference(inputs: dict) -> dict:
    """Stage-3 refutations by search without linear algebra, per initial label."""
    return {
        initial: refute_without_algebra(lg.graph, lg.label.bits, 3)
        for initial in (0, 1)
        for lg in [family.build_family(2, 3, initial)]
    }


def _is_labelled_prefix(small: Graph, small_bits: int, big: Graph, big_bits: int) -> bool:
    """Whether big restricted to vertices 0..small.n-1 is small with its label."""
    inside = [(e, uv) for e, uv in enumerate(big.edges) if uv[1] < small.n]
    return [uv for _, uv in inside] == list(small.edges) and all(
        (big_bits >> e) & 1 == (small_bits >> i) & 1 for i, (e, _) in enumerate(inside)
    )


def family_check(inputs: dict, verdicts: dict, refuted: dict) -> Tuple[int, int]:
    attempted = failed = 0
    stage3 = {s["initial"]: s for s in verdicts["stages"] if s["m"] == 3}
    for s in verdicts["stages"]:
        g, bits = s["graph"], s["label"].bits
        # t=3 is unsat: at stage 3 by the independent refutation, later by
        # containing the refuted stage-3 graph as a label-preserving prefix.
        base = stage3.get(s["initial"])
        unsat_ok = (
            s["t3"] == "unsat"
            and refuted[s["initial"]]
            and base is not None
            and _is_labelled_prefix(base["graph"], base["label"].bits, g, bits)
        )
        sat_ok = s["t4_verified"] and s["t4"] is not None and satisfies(g, bits, s["t4"])
        attempted += 2
        failed += (not unsat_ok) + (not sat_ok)
    # One verdict per probed assignment, and one that the enumeration
    # delivered the full cap (stage 2 has more assignments than any cap used).
    attempted += len(verdicts["probes"]) + 1
    failed += verdicts["probes"].count(False) + (len(verdicts["probes"]) != inputs["probe_cap"])
    return attempted, failed


# -- reduce ----------------------------------------------------------------------
#
# The reducibility suite and its mutation controls.  No assignment-solver
# code runs here, so solver changes must leave this workload unchanged.
# Bridge (11 s for all 16 label words) is checked on one of them, so that a
# run holds several rounds.


def bridge_part() -> reducibility.ReducibilityConfiguration:
    """The bridge configuration on one of its label words: every free edge
    pinned to label 0."""
    cfg = reducibility.builtin_configs()["bridge"]
    pinned = tuple((e, 0) for e in cfg.free_edges())
    return dataclasses.replace(cfg, fixed_labels=cfg.fixed_labels + pinned)


def reduce_setup(seed: int, size: Size) -> dict:
    mutations = sorted(
        name for name, mut in reducibility.builtin_mutations().items()
        if mut.config in size.reduce_configs
    )
    return {"configs": size.reduce_configs, "mutations": mutations}


def reduce_run(inputs: dict) -> Outcome:
    rows = []
    item_s: List[float] = []
    for name in inputs["configs"]:
        start = time.perf_counter()
        if name == "bridge":
            reports = [reducibility.check_reducible(bridge_part(), jobs=1)]
        else:
            reports = reducibility.run_suite([name], jobs=1).rows
        item_s.append(time.perf_counter() - start)
        rows += [(name, r.verdict, r.family_count) for r in reports]
    controls = []
    for name in inputs["mutations"]:
        start = time.perf_counter()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["reduce", "--mutate", name, "--no-meta"])
        doc = json.loads(out.getvalue())
        valid, _, _ = certificates.check_certificate(doc)
        item_s.append(time.perf_counter() - start)
        controls.append((name, code, doc.get("suite_pass"), valid))
    return Outcome({"rows": rows, "controls": controls}, item_s)


def reduce_reference(inputs: dict) -> dict:
    counts = dict(FAMILY_COUNTS)
    counts["bridge"] //= BRIDGE_WORDS
    return {"family_counts": counts}


def reduce_check(inputs: dict, verdicts: dict, ref: dict) -> Tuple[int, int]:
    attempted = failed = 0
    for name, verdict, count in verdicts["rows"]:
        attempted += 1
        failed += not (verdict == "reducible" and count == ref["family_counts"].get(name))
    for name, code, suite_pass, valid in verdicts["controls"]:
        attempted += 1
        failed += not (code == cli.EXIT_ADVERSE and suite_pass is False and valid)
    return attempted, failed


# -- diameter ----------------------------------------------------------------------
#
# Whole label spaces of one graph: the Gray-code assignment diameter (warm
# `prefer`) against the BFS diameter, all-distances BFS at m=14 against
# min_dim, and hardest_label over the outer-planar fixtures.  The only
# workload where the inversion-layer BFS runs.


def diameter_setup(seed: int, size: Size) -> dict:
    rng = random.Random(seed)
    fixtures = []
    for path in sorted(OUTERPLANAR.glob("*.ilg")):
        fixtures += [g for g, _ in graph.parse_labeled_graphs(path.read_text())]
    if size.hardest_fixtures is not None:
        fixtures = fixtures[: size.hardest_fixtures]
    bfs_jobs = [
        (g, [Label(g, rng.getrandbits(g.m)) for _ in range(size.sampled_labels)])
        for g in _shaped_graphs(rng, size.bfs_shapes)
    ]
    return {
        "diameter_graphs": _shaped_graphs(rng, size.diameter_shapes),
        "bfs_jobs": bfs_jobs,
        "fixtures": fixtures,
        "budget": size.hardest_budget,
        "seed": seed,
    }


def diameter_run(inputs: dict) -> Outcome:
    clock = time.perf_counter
    verdicts = {"diameters": [], "bfs": [], "hardest": []}
    item_s: List[float] = []
    first_calls = []
    for g in inputs["diameter_graphs"]:
        start = clock()
        via_assignment = assignment.diameter_via_assignment(g, 6).diameter
        via_bfs = inversion.bfs_diameter(g)
        item_s.append(clock() - start)
        verdicts["diameters"].append((via_assignment, via_bfs))
    for g, labels in inputs["bfs_jobs"]:
        start = clock()
        dist = inversion.bfs_all_distances(g)
        dims = []
        for label in labels:
            call_start = clock()
            dims.append(assignment.min_dim(g, label, 4))
            if len(dims) == 1:
                first_calls.append(
                    (clock() - call_start, lambda g=g, lab=label: assignment.min_dim(g, lab, 4))
                )
        item_s.append(clock() - start)
        verdicts["bfs"].append(([dist[label.bits] for label in labels], dims))
    for g in inputs["fixtures"]:
        result, seconds = _timed(
            assignment.hardest_label, g, 4, inputs["budget"], inputs["seed"]
        )
        item_s.append(seconds)
        verdicts["hardest"].append((g, result.label, result.dim))
    return Outcome(verdicts, item_s, first_calls)


def diameter_reference(inputs: dict) -> dict:
    """Nothing to precompute: each engine's verdict is checked against the
    other's, and hardest-label witnesses edge by edge."""
    return {}


def diameter_check(inputs: dict, verdicts: dict, ref: dict) -> Tuple[int, int]:
    attempted = failed = 0
    for via_assignment, via_bfs in verdicts["diameters"]:
        attempted += 1
        failed += via_assignment != via_bfs
    for distances, dims in verdicts["bfs"]:
        attempted += len(dims)
        failed += sum(d != want for d, want in zip(dims, distances))
    for g, label, dim in verdicts["hardest"]:
        attempted += 1
        witness = assignment.solve(g, label, dim) if dim is not None else None
        failed += witness is None or not satisfies(g, label.bits, witness.bits())
    return attempted, failed


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int, Size], dict]
    run: Callable[[dict], Outcome]
    reference: Callable[[dict], dict]
    check: Callable[[dict, dict, dict], Tuple[int, int]]


WORKLOADS: Dict[str, Workload] = {
    "sweep": Workload(sweep_setup, sweep_run, sweep_reference, sweep_check),
    "family": Workload(family_setup, family_run, family_reference, family_check),
    "reduce": Workload(reduce_setup, reduce_run, reduce_reference, reduce_check),
    "diameter": Workload(diameter_setup, diameter_run, diameter_reference, diameter_check),
}
