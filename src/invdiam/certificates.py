"""Building and re-validating the JSON certificates the CLI emits.

Every independent check lives here, and all of them that search run one
domain-filtering search (`_search`) that shares no code with the solver or
the reducibility scan.  Embedded witnesses (assignments, inversion
sequences) are checked directly.  Every least dimension (mindim, distance,
diameter, search-hard entries) goes through `_check_least`: a witness at d,
none at d-1.  Claims that no t-dimensional assignment exists (unsat and
exceeds verdicts, search-hard entries above t_max, and every lower bound
d-1) go through `_check_refuted`.  Inverting the two ends of each
1-labelled edge realizes any label, so such a claim is false at any t at
least the label's weight; below that it is re-searched by `refute` for t
up to REFUTE_MAX_DIM, and above that, or past REFUTE_NODE_CAP search
nodes, accepted with a note.  On at most DIAMETER_EDGE_BUDGET edges, the
hardest label and value of a diameter document, and the label and min_dim
of a search-hard entry whose labels all fit its budget, are re-derived
from all BFS distances by `_check_hardest_by_bfs`.

Documents the CLI builds deterministically are rebuilt by the same writer
and compared whole: family documents (apart from files and meta) by
`family_json`, probe reports by `probe_reports_json`, and reduce rows
(apart from wall_s) by `reduce_row_json` on a new `check_reducible` run
of the configuration the row names under the document's mutation.  A
reduce counterexample is then confirmed independently of the scan:
`check_family` re-searches a main-stage family, `admits_choice` re-tests a
choice-stage instance.  A reduce document's suite_pass must match its row
verdicts.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from . import reducibility
from .assignment import Assignment, verify
from .errors import BudgetExceededError, InputFormatError
from .family import LeveledGraph, build_family, reconstruct_leveled
from .family import probe_bad_cliques, probe_clique_independence, probe_extension_dichotomy
from .gf2 import word_to_text
from .graph import Graph, Label, Orientation, parse_labeled_graph, serialize_labeled_graph
from .inversion import DIAMETER_EDGE_BUDGET, bfs_all_distances, invert


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


def reduce_row_json(
    name: str, mutation: Optional[str], report: reducibility.CheckReport, graph: Graph
) -> dict:
    """One row of a reduce document, as `reduce` writes it and `check`
    re-derives it: the report of builtin configuration `name` (graph
    `graph`) under `mutation`."""
    row: dict = {
        "name": report.name,
        "verdict": report.verdict,
        "label_count": report.label_count,
        "family_count": report.family_count,
        "wall_s": round(report.wall_s, 3),
        "counterexample": None,
    }
    cex = report.counterexample
    if cex is not None:
        doc = row["counterexample"] = {
            "config": name,
            "mutation": mutation,
            "stage": cex.stage,
            "labels": Label(graph, cex.labels).to_string(),
        }
        if cex.family is not None:
            doc["family"] = {
                "candidates": [_texts(cset) for cset in cex.family.candidates],
                "designated": _texts(cex.family.designated),
            }
        if cex.choice_instance is not None:
            inst = cex.choice_instance
            doc["choice_instance"] = {
                "t": inst["t"],
                "multi_sets": [_texts(s) for s in inst["multi_sets"]],
                "singles": _texts(inst["singles"]),
            }
    return row


def family_json(k: int, m: int, initial_label: Optional[str]) -> dict:
    """A family document without its files, as `family` writes it and
    `check` re-derives it."""
    lg = build_family(k, m, initial_label)
    return {
        "kind": "family",
        "k": k,
        "m": m,
        "initial_label": "0" * (k * (k - 1) // 2) if initial_label is None else initial_label,
        "vertices": lg.graph.n,
        "edges": lg.graph.m,
        "graph": serialize_labeled_graph(lg.graph, lg.label),
        "levels": levels_to_text(lg.levels),
    }


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


def _dimension(t, name: str = "dimension") -> int:
    """t, if it is a dimension (or another count, called `name`): an int
    (not a bool) of at least 0."""
    if not isinstance(t, int) or isinstance(t, bool) or t < 0:
        raise TypeError(f"{name} {t!r} is not a non-negative integer")
    return t


def _check_refuted(res: CheckResult, graph: Graph, label: Label, t, claim: str) -> None:
    """The claim that no t-dimensional assignment exists: false at t at
    least the label's weight (inverting the two ends of each 1-labelled
    edge realizes any label), otherwise re-searched or noted undecided."""
    if _dimension(t) >= label.bits.bit_count():
        refuted = False
    else:
        refuted = refute(graph, label, t) if t <= REFUTE_MAX_DIM else None
    if refuted is None:
        res.note(f"{claim} accepted without re-search")
    elif res.require(refuted, f"{claim}: a {t}-dimensional assignment exists"):
        res.note(f"{claim} re-searched: no {t}-dimensional assignment")


def _check_witness(
    res: CheckResult, graph: Graph, label: Label, t: int, strings, name: str, prefix: str = ""
) -> None:
    witness = Assignment.from_strings(graph, strings)
    if res.require(witness.t == _dimension(t), f"{prefix}witness dimension differs from {name}"):
        res.require(verify(graph, label, witness), f"{prefix}witness fails an edge equation")


def _check_least(
    res: CheckResult, graph: Graph, label: Label, d: int, strings, name: str, prefix: str = ""
) -> None:
    """The claim that d (the document's `name`) is the least dimension of
    label: a witness at d, none at d - 1.  At d = 0 without a witness the
    label must be zero."""
    if _dimension(d) == 0 and strings is None:
        res.require(label.bits == 0, f"{prefix}nonzero label with {name} 0")
        return
    _check_witness(res, graph, label, d, strings, name, prefix)
    if d > 0:
        _check_refuted(res, graph, label, d - 1, f"{prefix}lower bound")


def _check_assign_like(doc: dict, res: CheckResult) -> None:
    """An `assign` verdict at t, or a `mindim` verdict: sat at its least
    dimension t <= t_max, or exceeds with t = t_max."""
    graph, label = _graph_and_label(doc)
    verdict = doc["verdict"]
    mindim = doc["kind"] == "mindim"
    if mindim:
        t_max = _dimension(doc["t_max"])
        if verdict == "sat":
            res.require(_dimension(doc["t"]) <= t_max, "sat verdict with t above t_max")
        elif verdict == "exceeds":
            res.require(_dimension(doc["t"]) == t_max, "exceeds verdict with t other than t_max")
    if verdict == "sat" and mindim:
        _check_least(res, graph, label, doc["t"], doc["assignment"], "t")
    elif verdict == "sat":
        _check_witness(res, graph, label, doc["t"], doc["assignment"], "t")
    elif verdict in ("unsat", "exceeds"):
        res.require(doc.get("assignment") is None, f"{verdict} verdict carries a witness")
        t = doc["t"] if verdict == "unsat" else doc["t_max"]
        _check_refuted(res, graph, label, t, f"{verdict} verdict")
    else:
        res.fail(f"unknown verdict {verdict!r}")


def _check_distance(doc: dict, res: CheckResult) -> None:
    graph, _ = _graph_and_label(doc)
    o1 = Orientation.from_string(graph, doc["orientation1"])
    o2 = Orientation.from_string(graph, doc["orientation2"])
    diff = Label.from_string(graph, doc["label"])
    res.require(diff.bits == o1.flips ^ o2.flips, "diff label does not match orientations")
    d = doc["distance"]
    _check_least(res, graph, diff, d, doc["assignment"], "distance")
    current = o1
    for xs in doc["inversions"]:
        current = invert(current, xs)
    res.require(current == o2, "inversion sequence does not reach the target")
    res.require(len(doc["inversions"]) == d, "inversion count differs from distance")


def _check_diameter(doc: dict, res: CheckResult) -> None:
    """The diameter is the least dimension of the hardest label, and on at
    most DIAMETER_EDGE_BUDGET edges both are re-derived by BFS."""
    graph, _ = parse_labeled_graph(doc["graph"])
    label = Label.from_string(graph, doc["hardest_label"])
    d = doc["diameter"]
    _check_least(res, graph, label, d, doc["assignment"], "diameter")
    if graph.m > DIAMETER_EDGE_BUDGET:
        res.note(f"diameter accepted without re-derivation: |E| > {DIAMETER_EDGE_BUDGET}")
    else:
        _check_hardest_by_bfs(res, graph, label, d, "diameter")


def _check_family_cert(doc: dict, res: CheckResult) -> None:
    """The document must be the one `family` writes for its k, m and
    initial label: two counts and a text (build_family checks its length
    and characters; it would also take a word)."""
    k, m, initial = _dimension(doc["k"], "k"), _dimension(doc["m"], "m"), doc["initial_label"]
    if not res.require(isinstance(initial, str), f"initial_label {initial!r} is not a text"):
        return
    try:
        rebuilt = family_json(k, m, initial)
    except BudgetExceededError as exc:
        res.fail(str(exc))
        return
    fields = (doc.keys() | rebuilt.keys()) - {"files", "meta"}
    differ = sorted(f for f in fields if doc.get(f) != rebuilt.get(f))
    res.require(not differ, f"rebuilt family differs in {', '.join(differ)}")


def _check_probe_cert(doc: dict, res: CheckResult) -> None:
    graph, label = _graph_and_label(doc)
    levels = parse_levels_text(doc["levels"], graph.n)
    k, m = _dimension(doc["k"], "k"), _dimension(doc["m"], "m")
    lg = reconstruct_leveled(graph, label, levels)
    res.require(k == lg.k and m == lg.m, "k or m differs from the family")
    assignment = Assignment.from_strings(graph, doc["assignment"])
    for section, report in probe_reports_json(lg, assignment).items():
        res.require(
            doc[section] == report, f"{section.replace('_', ' ')} report differs on re-run"
        )


def _check_reduce(doc: dict, res: CheckResult) -> None:
    """Each row is re-derived whole, then its counterexample is confirmed
    by code independent of the scan.  The re-derivation re-runs the scan
    that produced the row, so it catches edited rows, not a fault of the
    scan; the confirmation catches a counterexample the scan got wrong."""
    configs = reducibility.builtin_configs()
    mutation = doc["mutation"]
    res.require(
        doc["suite_pass"] == all(row["verdict"] == "reducible" for row in doc["configs"]),
        "suite_pass differs from the row verdicts",
    )
    for row in doc["configs"]:
        name = row["name"].split("[")[0]
        cfg = configs.get(name)
        if cfg is not None and mutation is not None:
            cfg = reducibility.apply_mutation(cfg, mutation)
        if not res.require(
            cfg is not None and cfg.name == row["name"],
            f"{row['name']}: no builtin configuration of this name under mutation {mutation!r}",
        ):
            continue
        report = reducibility.check_reducible(cfg)
        again = reduce_row_json(name, mutation, report, cfg.graph)
        if any(row[key] != again[key] for key in ("verdict", "label_count", "family_count")):
            res.fail(
                f"{row['name']}: re-derived as {report.verdict} with"
                f" {report.label_count} labels and {report.family_count} families"
            )
            continue
        # wall_s is a timing, and --no-meta drops it.
        if not res.require(
            {**row, "wall_s": None} == {**again, "wall_s": None},
            f"{row['name']}: row differs from its re-derivation",
        ):
            continue
        cex = report.counterexample
        if cex is not None and cex.stage == "main":
            try:
                witness = check_family(cfg, cex.labels, cex.family)
            except ValueError as exc:
                res.fail(f"{row['name']}: counterexample family invalid: {exc}")
                continue
            res.require(witness is None, f"{row['name']}: counterexample family has a witness")
        elif cex is not None:
            inst = cex.choice_instance
            res.require(
                not reducibility.admits_choice(
                    len(cfg.boundary), inst["t"], *inst["multi_sets"], inst["singles"]
                ),
                f"{row['name']}: choice counterexample admits a choice",
            )


def _check_hardest_by_bfs(
    res: CheckResult,
    graph: Graph,
    label: Label,
    claimed,
    name: str,
    prefix: str = "",
    t_max: Optional[int] = None,
) -> None:
    """The one BFS rule for hardest labels: label must be the least word at
    the largest distance D, and claimed (the document's `name`) must be D;
    or, when t_max is given and D > t_max, the least word beyond t_max with
    claimed null."""
    dist = bfs_all_distances(graph)
    top = max(dist)
    if t_max is None or top <= t_max:
        want_bits, want = dist.index(top), top
    else:
        want_bits, want = next(w for w, d in enumerate(dist) if d > t_max), None
    ok = res.require(
        label.bits == want_bits,
        f"{prefix}the hardest label is {Label(graph, want_bits).to_string()}",
    )
    ok = res.require(claimed == want, f"{prefix}{name} should be {want}") and ok
    if ok:
        res.note(f"{prefix}hardest label re-derived by bfs")


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
            _check_hardest_by_bfs(
                res, graph, label, entry["min_dim"], "min_dim", f"entry {i}: ", doc["t_max"]
            )
        if entry["min_dim"] is None:
            _check_refuted(res, graph, label, doc["t_max"], f"entry {i}: above-t_max verdict")
        else:
            _check_least(
                res, graph, label, entry["min_dim"], entry["assignment"], "min_dim", f"entry {i}: "
            )


_CHECKERS = {
    "assign": _check_assign_like,
    "mindim": _check_assign_like,
    "distance": _check_distance,
    "diameter": _check_diameter,
    "family": _check_family_cert,
    "probe": _check_probe_cert,
    "reduce": _check_reduce,
    "search-hard": _check_search_hard,
}


def check_certificate(doc: dict) -> Tuple[bool, str, List[str]]:
    """Re-validate an emitted certificate; returns (valid, kind, notes)."""
    kind = doc.get("kind")
    checker = _CHECKERS.get(kind) if isinstance(kind, str) else None
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
    "family_json",
    "reduce_row_json",
    "levels_to_text",
    "parse_levels_text",
    "probe_reports_json",
    "check_family",
    "refute",
    "CheckResult",
]
