"""Building and re-validating the JSON certificates the CLI emits.

Every independent check lives here, and all of them that search run one
domain-filtering search (`_search`) that shares no code with the solver or
the reducibility scan.  Embedded witnesses (assignments, inversion
sequences) are checked directly.  Claims that no t-dimensional assignment
exists (unsat and exceeds verdicts, and the lower bound t-1 behind every
least dimension, distance and diameter) are re-searched by `refute` for t
up to REFUTE_MAX_DIM; above that, or past REFUTE_NODE_CAP search nodes,
they are accepted with an explanatory note.  Counterexample families are
re-searched by `check_family`.  Diameters on at most DIAMETER_EDGE_BUDGET
edges are re-derived by the engine that did not produce them, and so are
the label and min_dim of a search-hard entry whose labels all fit its
budget, from all BFS distances.  A reduce document's suite_pass must match
its row verdicts.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from . import reducibility
from .assignment import Assignment, diameter_via_assignment, verify
from .errors import InputFormatError
from .family import LeveledGraph, build_family, reconstruct_leveled
from .family import probe_bad_cliques, probe_clique_independence, probe_extension_dichotomy
from .gf2 import text_to_word, word_to_text
from .graph import Graph, Label, Orientation, parse_labeled_graph, serialize_labeled_graph
from .inversion import DIAMETER_EDGE_BUDGET, bfs_all_distances, bfs_diameter, invert


REFUTE_MAX_DIM = 8
REFUTE_NODE_CAP = 1_000_000


class _Undecided(Exception):
    pass


def _search(
    graph: Graph, label_bits: int, domains: Sequence[Sequence[int]], cap: Optional[int]
) -> Optional[List[int]]:
    """Complete domain-filtering search with no linear algebra: the first
    assignment (words indexed by vertex) drawing each vertex's word from
    its initial domain, or None if there is none.  Raises _Undecided past
    cap search nodes (None: no cap).  Scalar products are computed inline,
    so not even the gf2 kernel is shared with the solver.

    Vertices are placed by descending degree; placing one filters the
    domains of its later neighbours.  The search is iterative, with an
    undo list per level, so its depth is not bounded by the call stack.
    """
    n = graph.n
    if n == 0:
        return []
    order = sorted(range(n), key=lambda v: (-graph.degree(v), v))
    rank = {v: i for i, v in enumerate(order)}
    later = [
        [
            (w, (label_bits >> graph.edge_index(v, w)) & 1)
            for w in graph.adjacency[v]
            if rank[w] > i
        ]
        for i, v in enumerate(order)
    ]
    domains = list(domains)
    words = [0] * n
    stack = [(iter(domains[order[0]]), [])]
    nodes = 0
    while stack:
        values, undo = stack[-1]
        for w, old in undo:
            domains[w] = old
        undo.clear()
        value = next(values, None)
        if value is None:
            stack.pop()
            continue
        nodes += 1
        if cap is not None and nodes > cap:
            raise _Undecided
        i = len(stack) - 1
        words[order[i]] = value
        for w, bit in later[i]:
            undo.append((w, domains[w]))
            domains[w] = [x for x in domains[w] if (x & value).bit_count() & 1 == bit]
            if not domains[w]:
                break
        else:
            if i + 1 == n:
                return words
            stack.append((iter(domains[order[i + 1]]), []))
    return None


def refute(graph: Graph, label: Label, t: int) -> Optional[bool]:
    """Whether no t-dimensional assignment exists: True (none), False (one
    exists), or None (REFUTE_NODE_CAP search nodes did not decide)."""
    try:
        return _search(graph, label.bits, [range(1 << t)] * graph.n, REFUTE_NODE_CAP) is None
    except _Undecided:
        return None


def check_family(
    cfg: reducibility.ReducibilityConfiguration,
    labels: int,
    fam: reducibility.BoundaryFamily,
) -> Optional[Dict[int, int]]:
    """Search for a witness assignment ({vertex: word}) with boundary
    vectors drawn from the family's candidate sets; None means the family
    is stuck.

    Runs refute's search without a node cap, so it shares no code with the
    scan's witness sets and never leaves a family undecided."""
    if not cfg.admissible(labels):
        raise ValueError("label completion violates the admissibility predicate")
    cfg.validate_family(labels, fam)
    domains: List[Sequence[int]] = [reducibility.ALL_VECTORS] * cfg.graph.n
    for u, cset in zip(cfg.boundary, fam.candidates):
        domains[u] = cset
    words = _search(cfg.graph, labels, domains, None)
    return None if words is None else dict(enumerate(words))


def levels_to_text(levels) -> str:
    return "\n".join(f"{v} {lvl}" for v, lvl in enumerate(levels))


def parse_levels_text(text: str, n: int) -> Tuple[int, ...]:
    levels = [-1] * n
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise InputFormatError(f"levels line must be 'v level', got {line!r}")
        try:
            v, lvl = int(parts[0]), int(parts[1])
        except ValueError:
            raise InputFormatError(f"levels line must be integers, got {line!r}") from None
        if not 0 <= v < n:
            raise InputFormatError(f"levels vertex {v} out of range")
        if levels[v] >= 0:
            raise InputFormatError(f"duplicate level for vertex {v}")
        levels[v] = lvl
    if any(l < 0 for l in levels):
        raise InputFormatError("levels file does not cover every vertex")
    return tuple(levels)


def _texts(words) -> List[str]:
    return [word_to_text(w, reducibility.DIM) for w in words]


def _words(texts) -> Tuple[int, ...]:
    return tuple(map(text_to_word, texts))


def family_json(cfg_family: reducibility.BoundaryFamily) -> dict:
    return {
        "candidates": [_texts(cset) for cset in cfg_family.candidates],
        "designated": _texts(cfg_family.designated),
    }


def family_from_json(doc: dict) -> reducibility.BoundaryFamily:
    return reducibility.BoundaryFamily(
        tuple(map(_words, doc["candidates"])), _words(doc["designated"])
    )


def counterexample_json(
    cfg_name: str, mutation: Optional[str], cex: reducibility.Counterexample, graph: Graph
) -> dict:
    doc: dict = {
        "config": cfg_name,
        "mutation": mutation,
        "stage": cex.stage,
        "labels": Label(graph, cex.labels).to_string(),
    }
    if cex.family is not None:
        doc["family"] = family_json(cex.family)
    if cex.choice_instance is not None:
        inst = cex.choice_instance
        doc["choice_instance"] = {
            "t": inst["t"],
            "multi_sets": [_texts(s) for s in inst["multi_sets"]],
            "singles": _texts(inst["singles"]),
        }
    return doc


class CheckResult:
    def __init__(self) -> None:
        self.valid = True
        self.notes: List[str] = []

    def note(self, message: str) -> None:
        self.notes.append(message)

    def fail(self, message: str) -> None:
        self.valid = False
        self.notes.append(f"FAIL: {message}")

    def require(self, condition: bool, message: str) -> bool:
        if not condition:
            self.fail(message)
        return condition


def probe_reports_json(lg: LeveledGraph, assignment: Assignment) -> dict:
    """The three report sections of a probe certificate, as `probe` writes
    them and `check` re-derives them."""
    ind = probe_clique_independence(lg, assignment)
    dich = probe_extension_dichotomy(lg, assignment)
    bad = probe_bad_cliques(lg, assignment)
    return {
        "clique_independence": {
            "checked": ind.checked,
            "failures": [list(map(list, f)) for f in ind.failures],
            "passed": ind.passed,
        },
        "extension_dichotomy": {
            "checked": dich.checked,
            "failures": [list(map(list, f)) for f in dich.failures],
            "passed": dich.passed,
        },
        "bad_cliques": {
            "checked": bad.checked,
            "bad": [list(c) for c in bad.bad],
        },
    }


def _graph_and_label(doc: dict) -> Tuple[Graph, Label]:
    graph, file_label = parse_labeled_graph(doc["graph"])
    if "label" in doc and doc["label"] is not None:
        return graph, Label.from_string(graph, doc["label"])
    return graph, file_label


def _check_refuted(res: CheckResult, graph: Graph, label: Label, t: int, claim: str) -> bool:
    """Re-search the claim that no t-dimensional assignment exists; False
    when the claim was left undecided."""
    refuted = refute(graph, label, t) if t <= REFUTE_MAX_DIM else None
    if refuted is not None and res.require(
        refuted, f"{claim}: a {t}-dimensional assignment exists"
    ):
        res.note(f"{claim} re-searched: no {t}-dimensional assignment")
    return refuted is not None


def _check_assign_like(doc: dict, res: CheckResult) -> None:
    graph, label = _graph_and_label(doc)
    verdict = doc["verdict"]
    if verdict == "sat":
        assignment = Assignment.from_strings(graph, doc["assignment"])
        if res.require(assignment.t == doc["t"], "witness dimension differs from t"):
            res.require(verify(graph, label, assignment), "witness fails an edge equation")
        if doc["kind"] == "mindim" and doc["t"] > 0:
            _check_refuted(res, graph, label, doc["t"] - 1, "lower bound")
    elif verdict in ("unsat", "exceeds"):
        res.require(doc.get("assignment") is None, f"{verdict} verdict carries a witness")
        t = doc["t"] if verdict == "unsat" else doc["t_max"]
        if not _check_refuted(res, graph, label, t, f"{verdict} verdict"):
            res.note(f"{verdict} verdict accepted without re-search")
    else:
        res.fail(f"unknown verdict {verdict!r}")


def _check_distance(doc: dict, res: CheckResult) -> None:
    graph, _ = _graph_and_label(doc)
    o1 = Orientation.from_string(graph, doc["orientation1"])
    o2 = Orientation.from_string(graph, doc["orientation2"])
    diff = Label.from_string(graph, doc["label"])
    res.require(diff.bits == o1.flips ^ o2.flips, "diff label does not match orientations")
    d = doc["distance"]
    if d == 0:
        res.require(diff.bits == 0, "zero distance with differing orientations")
    else:
        assignment = Assignment.from_strings(graph, doc["assignment"])
        if res.require(assignment.t == d, "witness dimension differs from distance"):
            res.require(verify(graph, diff, assignment), "witness fails an edge equation")
        current = o1
        for xs in doc["inversions"]:
            current = invert(current, xs)
        res.require(current == o2, "inversion sequence does not reach the target")
        res.require(len(doc["inversions"]) == d, "inversion count differs from distance")
        _check_refuted(res, graph, diff, d - 1, "lower bound")
    oracle = doc.get("oracle")
    if oracle is not None and oracle.get("skipped") is not None:
        res.require(
            oracle["bfs_distance"] is None and oracle["agree"] is None,
            "skipped oracle reports a result",
        )
        res.note(f"oracle skipped: {oracle['skipped']}")
    elif oracle is not None:
        res.require(
            oracle["agree"] == (oracle["bfs_distance"] == d),
            "oracle agreement flag is inconsistent",
        )
        res.require(oracle["agree"], "engines disagree")


def _check_diameter(doc: dict, res: CheckResult) -> None:
    """Both diameter kinds: the assignment part's hardest label is re-checked
    like a least dimension, the top-level diameter must equal every part,
    and for |E| <= DIAMETER_EDGE_BUDGET the value is re-derived by the
    engine that did not produce it (a BFS value by diameter_via_assignment,
    otherwise by bfs_diameter)."""
    graph, _ = _graph_and_label(doc)
    if doc["kind"] == "bfs-diameter":
        assign_part, bfs_part = None, {"diameter": doc["diameter"]}
    else:
        assign_part, bfs_part = doc.get("assign"), doc.get("bfs")
    if assign_part is not None:
        label = Label.from_string(graph, assign_part["hardest_label"])
        witness = Assignment.from_strings(graph, assign_part["assignment"])
        if res.require(
            witness.t == assign_part["diameter"],
            "witness dimension differs from diameter",
        ):
            res.require(verify(graph, label, witness), "witness fails an edge equation")
        if assign_part["diameter"] > 0:
            _check_refuted(res, graph, label, assign_part["diameter"] - 1, "lower bound")
    parts = [p["diameter"] for p in (assign_part, bfs_part) if p is not None]
    if not parts:
        res.fail("no engine result")
        return
    claimed = doc["diameter"]
    res.require(all(d == claimed for d in parts), "diameter differs from an engine's result")
    if assign_part is not None and bfs_part is not None:
        res.require(doc.get("agree") is True, "engines disagree")
    if graph.m > DIAMETER_EDGE_BUDGET:
        res.note(f"diameter accepted without re-derivation: |E| > {DIAMETER_EDGE_BUDGET}")
    elif bfs_part is not None:
        again = diameter_via_assignment(graph).diameter
        if res.require(again == bfs_part["diameter"], f"assignment diameter is {again}"):
            res.note("bfs diameter re-derived by the assignment engine")
    else:
        again = bfs_diameter(graph)
        if res.require(again == assign_part["diameter"], f"bfs diameter is {again}"):
            res.note("assignment diameter re-derived by bfs")


def _check_family_cert(doc: dict, res: CheckResult) -> None:
    lg = build_family(doc["k"], doc["m"], doc["initial_label"])
    res.require(
        serialize_labeled_graph(lg.graph, lg.label) == doc["graph"],
        "rebuilt family graph differs",
    )
    res.require(levels_to_text(lg.levels) == doc["levels"], "rebuilt levels differ")


def _check_probe_cert(doc: dict, res: CheckResult) -> None:
    graph, label = _graph_and_label(doc)
    levels = parse_levels_text(doc["levels"], graph.n)
    lg = reconstruct_leveled(graph, label, levels, doc["k"])
    res.require(doc["k"] == lg.k and doc["m"] == lg.m, "k or m differs from the family")
    assignment = Assignment.from_strings(graph, doc["assignment"])
    for section, report in probe_reports_json(lg, assignment).items():
        res.require(
            doc[section] == report, f"{section.replace('_', ' ')} report differs on re-run"
        )


def _check_reduce(doc: dict, res: CheckResult) -> None:
    configs = reducibility.builtin_configs()
    res.require(
        doc["suite_pass"] == all(row["verdict"] == "reducible" for row in doc["configs"]),
        "suite_pass differs from the row verdicts",
    )
    for row in doc["configs"]:
        cex = row.get("counterexample")
        if row["verdict"] == "reducible":
            if cex is not None:
                res.fail(f"{row['name']}: reducible verdict carries a counterexample")
                continue
            # Re-derived on the builtin the row names, under the document's mutation.
            cfg = configs.get(row["name"].split("[")[0])
            if cfg is not None and doc["mutation"] is not None:
                cfg = reducibility.apply_mutation(cfg, doc["mutation"])
            if not res.require(
                cfg is not None and cfg.name == row["name"],
                f"{row['name']}: no builtin configuration of this name"
                f" under mutation {doc['mutation']!r}",
            ):
                continue
            report = reducibility.check_reducible(cfg)
            res.require(
                (report.verdict, report.label_count, report.family_count)
                == ("reducible", row["label_count"], row["family_count"]),
                f"{row['name']}: re-derived as {report.verdict} with"
                f" {report.label_count} labels and {report.family_count} families",
            )
            continue
        if not res.require(cex is not None, f"{row['name']}: counterexample missing"):
            continue
        base = configs.get(cex["config"])
        if not res.require(base is not None, f"unknown config {cex['config']!r}"):
            continue
        cfg = base
        if cex.get("mutation"):
            cfg = reducibility.apply_mutation(cfg, cex["mutation"])
        if not res.require(
            cfg.name == row["name"] and cex.get("mutation") == doc["mutation"],
            f"{row['name']}: counterexample is for {cfg.name},"
            f" not this row under mutation {doc['mutation']!r}",
        ):
            continue
        labels = Label.from_string(cfg.graph, cex["labels"]).bits
        if cex["stage"] == "main":
            fam = family_from_json(cex["family"])
            try:
                witness = check_family(cfg, labels, fam)
            except ValueError as exc:
                res.fail(f"{row['name']}: counterexample family invalid: {exc}")
                continue
            res.require(
                witness is None, f"{row['name']}: counterexample family has a witness"
            )
        elif cex["stage"] == "choice":
            if not res.require(cfg.choice_stage, f"{row['name']}: no choice stage"):
                continue
            inst = cex["choice_instance"]
            b = len(cfg.boundary)
            t = inst["t"]
            multi = [_words(ms) for ms in inst["multi_sets"]]
            singles = _words(inst["singles"])
            if len(multi) != 2 or len(singles) != b - 2 or not 1 <= t < b:
                raise ValueError(
                    f"a choice instance has 2 multi sets, {b - 2} singles and 1 <= t < {b}"
                )
            nonzero = set(reducibility.NONZERO_VECTORS)
            if not res.require(
                all(set(ms) <= nonzero and len(set(ms)) >= cfg.choice_multi_min for ms in multi)
                and set(singles) <= nonzero,
                f"{row['name']}: choice instance needs nonzero vectors and multi sets"
                f" of at least {cfg.choice_multi_min} distinct vectors",
            ):
                continue
            feasible = reducibility.admits_choice(b, t, multi[0], multi[1], singles)
            res.require(
                not feasible, f"{row['name']}: choice counterexample admits a choice"
            )
        else:
            res.fail(f"{row['name']}: unknown counterexample stage {cex['stage']!r}")


def _check_hardest_by_bfs(
    res: CheckResult, i: int, graph: Graph, label: Label, claimed_dim, t_max: int
) -> None:
    """An exhaustive entry's label must be the least word at the maximal
    distance D with min_dim D, or, when D > t_max, the least word beyond
    t_max with a null min_dim."""
    dist = bfs_all_distances(graph)
    top = max(dist)
    if top <= t_max:
        want_bits, want_dim = dist.index(top), top
    else:
        want_bits, want_dim = next(w for w, d in enumerate(dist) if d > t_max), None
    want = Label(graph, want_bits).to_string()
    ok = res.require(label.bits == want_bits, f"entry {i}: the hardest label is {want}")
    ok = res.require(claimed_dim == want_dim, f"entry {i}: min_dim should be {want_dim}") and ok
    if ok:
        res.note(f"entry {i}: hardest label re-derived by bfs")


def _check_search_hard(doc: dict, res: CheckResult) -> None:
    """Each entry's verdict is checked like a least dimension.  An entry is
    exhaustive exactly when its 2^|E| labels fit the budget, and then, on at
    most DIAMETER_EDGE_BUDGET edges, its label and min_dim are re-derived
    from all BFS distances."""
    for i, entry in enumerate(doc["entries"]):
        graph, _ = parse_labeled_graph(entry["graph"])
        label = Label.from_string(graph, entry["label"])
        res.require(
            entry["exhaustive"] == ((1 << graph.m) <= max(doc["budget"], 1)),
            f"entry {i}: exhaustive flag differs from the budget",
        )
        if entry["exhaustive"] and graph.m <= DIAMETER_EDGE_BUDGET:
            _check_hardest_by_bfs(res, i, graph, label, entry["min_dim"], doc["t_max"])
        if entry["min_dim"] is None:
            claim = f"entry {i}: above-t_max verdict"
            if not _check_refuted(res, graph, label, doc["t_max"], claim):
                res.note(f"{claim} accepted without re-search")
            continue
        if entry["min_dim"] == 0:
            res.require(label.bits == 0, f"entry {i}: nonzero label with min_dim 0")
            continue
        assignment = Assignment.from_strings(graph, entry["assignment"])
        if res.require(
            assignment.t == entry["min_dim"],
            f"entry {i}: witness dimension differs from min_dim",
        ):
            res.require(
                verify(graph, label, assignment),
                f"entry {i}: witness fails an edge equation",
            )
        _check_refuted(res, graph, label, entry["min_dim"] - 1, f"entry {i}: lower bound")


_CHECKERS = {
    "assign": _check_assign_like,
    "mindim": _check_assign_like,
    "distance": _check_distance,
    "bfs-diameter": _check_diameter,
    "diameter": _check_diameter,
    "family": _check_family_cert,
    "probe": _check_probe_cert,
    "reduce": _check_reduce,
    "search-hard": _check_search_hard,
}


def check_certificate(doc: dict) -> Tuple[bool, str, List[str]]:
    """Re-validate an emitted certificate; returns (valid, kind, notes)."""
    kind = doc.get("kind")
    checker = _CHECKERS.get(kind)
    res = CheckResult()
    if checker is None:
        res.fail(f"unknown certificate kind {kind!r}")
        return res.valid, str(kind), res.notes
    try:
        checker(doc, res)
    except (AttributeError, LookupError, StopIteration, TypeError, ValueError) as exc:
        res.fail(f"malformed certificate: {exc}")
    return res.valid, kind, res.notes


__all__ = [
    "check_certificate",
    "counterexample_json",
    "family_json",
    "family_from_json",
    "levels_to_text",
    "parse_levels_text",
    "probe_reports_json",
    "check_family",
    "refute",
    "CheckResult",
]
