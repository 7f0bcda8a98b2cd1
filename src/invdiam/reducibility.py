"""Exhaustive re-verification of local reducibility configurations.

A configuration describes an induced subgraph H, its boundary vertices
(pairwise nonadjacent, each with designated current values drawn from a
candidate set), partially fixed edge labels, and side constraints the
candidate sets are known to satisfy.  The subgraph is *reducible* when
every admissible label completion and every admissible boundary family
admits a 3-dimensional vector assignment of H plus boundary that picks
boundary vectors from their candidate sets.

Witness existence is monotone in the candidate sets, so the universal
check only needs families whose sets sit at the constraint lower bounds;
forced members are kept and the rest filled up to that minimum.

Vectors of F2^3 are handled as 8-bit masks.  Each admissible label word is
decided from its witness patterns: per assignment of H, the mask of the
vectors each boundary vertex may take.  A candidate set's hit mask marks
the patterns it meets at its vertex (the OR of its members' per-value
masks), and a candidate-set combination is stuck when the AND of its hit
masks is 0.  `masks.walk` visits the combinations in lexicographic order
carrying that AND; a subtree whose every completion stays nonzero is
counted without being entered, from the per-vertex table of
designated-value options, or under a linking rule from how many entries
of each later vertex offer each designated value.

This module only emits verdicts and holds no backtracking search.  Single
families are re-checked by `certificates.check_family`, which runs the
certificate checker's own search, so every counterexample is confirmed by
code independent of the scan.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from functools import partial
from itertools import combinations, combinations_with_replacement, product
from math import prod
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from . import gf2, masks
from .graph import Graph

DIM = 3
ALL_VECTORS = tuple(range(1 << DIM))
NONZERO_VECTORS = tuple(range(1, 1 << DIM))

EXCLUDE_NEVER = "never"
EXCLUDE_ALWAYS = "always"
EXCLUDE_IF_ALL_ZERO = "if-all-zero"


@dataclass(frozen=True)
class BoundaryRule:
    """Constraints on one boundary vertex's candidate set and current value.

    exclude_zero is one of "never", "always", or "if-all-zero"; the last
    drops the zero vector whenever every edge listed in zero_edges is
    labeled zero.
    """

    min_size: int
    exclude_zero: str = EXCLUDE_NEVER
    zero_edges: Tuple[int, ...] = ()
    include_zero: bool = False
    designated_nonzero: bool = False

    def __post_init__(self) -> None:
        if self.exclude_zero not in (EXCLUDE_NEVER, EXCLUDE_ALWAYS, EXCLUDE_IF_ALL_ZERO):
            raise ValueError(f"unknown exclude_zero mode {self.exclude_zero!r}")
        if self.exclude_zero == EXCLUDE_IF_ALL_ZERO and not self.zero_edges:
            raise ValueError("conditional zero exclusion needs zero_edges")
        if self.min_size < 1:
            raise ValueError("min_size must be at least 1")

    def excludes_zero(self, labels: int) -> bool:
        if self.exclude_zero == EXCLUDE_ALWAYS:
            return True
        if self.exclude_zero == EXCLUDE_IF_ALL_ZERO:
            return all(not (labels >> e) & 1 for e in self.zero_edges)
        return False


@dataclass(frozen=True)
class ReducibilityConfiguration:
    """A local structure H with boundary candidate-set constraints."""

    name: str
    graph: Graph
    h_vertices: Tuple[int, ...]
    boundary: Tuple[int, ...]
    fixed_labels: Tuple[Tuple[int, int], ...]  # (edge index, bit)
    required_one_groups: Tuple[Tuple[int, ...], ...] = ()
    rules: Tuple[BoundaryRule, ...] = ()
    linking: Optional[str] = None  # "equalize-to-first" | "no-double-pair"
    choice_stage: bool = False
    choice_multi_min: int = 2

    def __post_init__(self) -> None:
        g = self.graph
        hset = set(self.h_vertices)
        bset = set(self.boundary)
        if hset & bset:
            raise ValueError("H and boundary overlap")
        if hset | bset != set(range(g.n)):
            raise ValueError("H plus boundary must cover all vertices")
        if len(self.rules) != len(self.boundary):
            raise ValueError("one rule per boundary vertex required")
        for u in self.boundary:
            if hset.isdisjoint(g.adjacency[u]):
                raise ValueError(f"boundary vertex {u} has no edge into H")
            if not bset.isdisjoint(g.adjacency[u]):
                raise ValueError(f"boundary vertices {u} adjacency violates independence")
        fixed = dict(self.fixed_labels)
        if len(fixed) != len(self.fixed_labels):
            raise ValueError("duplicate fixed label")
        for e, b in fixed.items():
            if not 0 <= e < g.m or b not in (0, 1):
                raise ValueError(f"bad fixed label ({e}, {b})")
        for group in self.required_one_groups:
            for e in group:
                if not 0 <= e < g.m:
                    raise ValueError(f"admissibility group references edge {e}")
        for rule in self.rules:
            if rule.include_zero and rule.excludes_zero(0) and rule.exclude_zero != EXCLUDE_IF_ALL_ZERO:
                raise ValueError("rule both forces and excludes the zero vector")
        if self.choice_stage and len(self.boundary) < 2:
            raise ValueError("the choice stage needs two boundary vertices")

    # -- labels ------------------------------------------------------------

    def free_edges(self) -> Tuple[int, ...]:
        fixed = dict(self.fixed_labels)
        return tuple(e for e in range(self.graph.m) if e not in fixed)

    def label_completions(self) -> Iterator[int]:
        """All label words with the fixed bits set, free bits enumerated
        in ascending order."""
        base = 0
        for e, b in self.fixed_labels:
            base |= b << e
        free = self.free_edges()
        for val in range(1 << len(free)):
            word = base
            for i, e in enumerate(free):
                if (val >> i) & 1:
                    word |= 1 << e
            yield word

    def admissible(self, labels: int) -> bool:
        return all(
            any((labels >> e) & 1 for e in group) for group in self.required_one_groups
        )

    # -- families ----------------------------------------------------------

    def candidate_sets(self, i: int, labels: int) -> List[Tuple[int, ...]]:
        """Minimum-cardinality candidate sets for boundary vertex i, in
        lexicographic order."""
        rule = self.rules[i]
        universe = NONZERO_VECTORS if rule.excludes_zero(labels) else ALL_VECTORS
        forced: Tuple[int, ...] = (0,) if rule.include_zero else ()
        if forced and 0 not in universe:
            return []
        fill = rule.min_size - len(forced)
        pool = tuple(v for v in universe if v not in forced)
        if fill < 0 or fill > len(pool):
            return []
        return [tuple(sorted(forced + combo)) for combo in combinations(pool, fill)]

    def designated_options(self, i: int, candidate_set: Tuple[int, ...]) -> Tuple[int, ...]:
        rule = self.rules[i]
        if rule.designated_nonzero:
            return tuple(v for v in candidate_set if v != 0)
        return candidate_set

    def linking_ok(self, designated: Sequence[int]) -> bool:
        if self.linking is None:
            return True
        if self.linking == "equalize-to-first":
            # If every later value coincides, the first must coincide too.
            rest = designated[1:]
            if len(set(rest)) == 1 and designated[0] != rest[0]:
                return False
            return True
        if self.linking == "no-double-pair":
            return not _is_double_pair(designated)
        raise ValueError(f"unknown linking rule {self.linking!r}")

    def validate_family(self, labels: int, fam: "BoundaryFamily") -> None:
        if len(fam.candidates) != len(self.boundary) or len(fam.designated) != len(
            self.boundary
        ):
            raise ValueError("family arity does not match the boundary")
        for i, (cset, f) in enumerate(zip(fam.candidates, fam.designated)):
            rule = self.rules[i]
            if f not in cset:
                raise ValueError(f"designated value {f} outside candidate set {cset}")
            if len(set(cset)) != len(cset) or tuple(sorted(cset)) != cset:
                raise ValueError(f"candidate set {cset} not sorted/distinct")
            if len(cset) < rule.min_size:
                raise ValueError(f"candidate set {cset} below minimum {rule.min_size}")
            if rule.excludes_zero(labels) and 0 in cset:
                raise ValueError(f"candidate set {cset} must exclude the zero vector")
            if rule.include_zero and 0 not in cset:
                raise ValueError(f"candidate set {cset} must include the zero vector")
            if rule.designated_nonzero and f == 0:
                raise ValueError("designated value must be nonzero")
            if any(not 0 <= v < (1 << DIM) for v in cset):
                raise ValueError(f"candidate set {cset} outside F2^{DIM}")
        if not self.linking_ok(fam.designated):
            raise ValueError("designated values violate the linking rule")


@dataclass(frozen=True)
class BoundaryFamily:
    """Per boundary vertex: a candidate set and its designated value."""

    candidates: Tuple[Tuple[int, ...], ...]
    designated: Tuple[int, ...]


def _is_double_pair(values: Sequence[int]) -> bool:
    """True iff the four values split into two equal pairs."""
    s = sorted(values)
    return len(s) == 4 and s[0] == s[1] and s[2] == s[3]


def _family_table(
    cfg: ReducibilityConfiguration, labels: int
) -> List[List[Tuple[Tuple[int, ...], Tuple[int, ...]]]]:
    """Per boundary vertex, its minimum candidate sets in lexicographic
    order, each with its designated-value options."""
    return [
        [(cset, cfg.designated_options(i, cset)) for cset in cfg.candidate_sets(i, labels)]
        for i in range(len(cfg.boundary))
    ]


def _designated_tuples(
    cfg: ReducibilityConfiguration, options: Sequence[Tuple[int, ...]]
) -> Iterator[Tuple[int, ...]]:
    """Designated-value tuples allowed by the linking rule, in
    lexicographic order."""
    for designated in product(*options):
        if cfg.linking_ok(designated):
            yield designated


def enumerate_families(
    cfg: ReducibilityConfiguration, labels: int
) -> Iterator[BoundaryFamily]:
    """Minimum-cardinality families in lexicographic order: candidate
    sets first, then designated values (the order the scan uses)."""
    if not cfg.admissible(labels):
        raise ValueError("label completion violates the admissibility predicate")
    for row in product(*_family_table(cfg, labels)):
        csets, options = zip(*row)
        for designated in _designated_tuples(cfg, options):
            yield BoundaryFamily(csets, designated)


# -- witness patterns ---------------------------------------------------------

# _SPLIT[w][bit]: the mask of the vectors x with w·x = bit.
_SPLIT = tuple(
    tuple(sum(1 << x for x in ALL_VECTORS if gf2.dot_bits(w, x) == bit) for bit in (0, 1))
    for w in ALL_VECTORS
)


def _allowed(vectors: Tuple[int, ...], ties: Sequence[Tuple[int, int]]) -> int:
    """The mask of the x with vectors[p]·x = bit for every (p, bit)."""
    mask = 255
    for p, bit in ties:
        mask &= _SPLIT[vectors[p]][bit]
    return mask


def _witness_patterns(cfg: ReducibilityConfiguration, labels: int) -> List[Tuple[int, ...]]:
    """The distinct witness patterns, sorted, of the assignments of H that
    satisfy H's inner labels: per boundary vertex in boundary order, the
    mask of the vectors it may take; patterns with an empty mask are left
    out.  Boundary vertices are pairwise nonadjacent, so the boundary
    tuples that extend into H are the union of the patterns' products.  H
    is assigned vertex by vertex, each inner edge checked as soon as both
    its ends are placed."""
    graph = cfg.graph
    order = sorted(cfg.h_vertices)
    pos = {v: i for i, v in enumerate(order)}
    earlier = [
        [(pos[u], (labels >> graph.edge_index(u, v)) & 1) for u in graph.adjacency[v]
         if u in pos and pos[u] < pos[v]]
        for v in order
    ]
    ties = [
        [(pos[h], (labels >> graph.edge_index(u, h)) & 1) for h in graph.adjacency[u]]
        for u in cfg.boundary
    ]
    assignments: List[Tuple[int, ...]] = [()]
    for edges in earlier:
        assignments = [a + (x,) for a in assignments for x in masks.MEMBERS[_allowed(a, edges)]]
    patterns = {tuple(_allowed(a, tie) for tie in ties) for a in assignments}
    return sorted(p for p in patterns if all(p))


@dataclass(frozen=True)
class Counterexample:
    stage: str  # "main" | "choice"
    labels: int
    family: Optional[BoundaryFamily]
    choice_instance: Optional[dict] = None


@dataclass(frozen=True)
class CheckReport:
    name: str
    verdict: str  # "reducible" | "counterexample"
    label_count: int
    family_count: int
    wall_s: float
    counterexample: Optional[Counterexample] = None

    @property
    def reducible(self) -> bool:
        return self.verdict == "reducible"


def admits_choice(
    b: int, t: int, multi0: Sequence[int], multi_t: Sequence[int], singles: Sequence[int]
) -> bool:
    """True iff some x0 in multi0 at position 0 and xt in multi_t at
    position t, with the singles filling the other b - 2 positions in
    order, avoid splitting into two equal pairs."""
    for x0 in multi0:
        for xt in multi_t:
            values = [0] * b
            values[0] = x0
            values[t] = xt
            si = iter(singles)
            for i in range(1, b):
                if i != t:
                    values[i] = next(si)
            if not _is_double_pair(values):
                return True
    return False


def _check_choice_stage(
    cfg: ReducibilityConfiguration,
) -> Tuple[int, Optional[Counterexample]]:
    """Verify the pre-step of the singleton configurations derived from a
    cycle with one multi-candidate pair: for each nonadjacent partner t,
    every candidate-set combination admits a choice that is not two equal
    pairs.  Returns (combinations checked, first failure).

    admits_choice tests the sorted values, so its verdict depends neither
    on t nor on the order of the singles: the pass at t = 1 decides every
    t, and a clean pass counts for all b - 1 of them.  Each pair (b0, bt)
    tests every sorted multiset of singles once; only a pair with a
    failing multiset walks its tuples in order, to the first failure."""
    b = len(cfg.boundary)
    checked = 0
    multi_sets = list(combinations(NONZERO_VECTORS, cfg.choice_multi_min))
    for b0 in multi_sets:
        for bt in multi_sets:
            if all(
                admits_choice(b, 1, b0, bt, singles)
                for singles in combinations_with_replacement(NONZERO_VECTORS, b - 2)
            ):
                checked += len(NONZERO_VECTORS) ** (b - 2)
                continue
            for singles in product(NONZERO_VECTORS, repeat=b - 2):
                checked += 1
                if not admits_choice(b, 1, b0, bt, singles):
                    labels = next(cfg.label_completions())
                    return checked, Counterexample(
                        "choice",
                        labels,
                        None,
                        {
                            "t": 1,
                            "multi_sets": [list(b0), list(bt)],
                            "singles": list(singles),
                        },
                    )
    return checked * (b - 1), None


def _designated_count(
    cfg: ReducibilityConfiguration, counts: Dict[tuple, int], options: tuple, later: tuple
) -> int:
    """The families below a prefix of candidate sets with designated-value
    options `options`: the designated tuples the linking rule allows, each
    weighted by how many entries of each later level offer its value there
    (`later`, as in `masks.walk`).  Memoized in counts by (options, later)."""
    key = (options, later)
    count = counts.get(key)
    if count is None:
        weights = [dict(pairs) for pairs in later]
        count = counts[key] = sum(
            prod(w[v] for w, v in zip(weights, designated[len(options):]))
            for designated in _designated_tuples(cfg, options + tuple(map(tuple, weights)))
        )
    return count


def _scan_labels(
    cfg: ReducibilityConfiguration,
    label_words: Iterable[int],
) -> Tuple[int, int, Optional[Counterexample]]:
    """Scan complete label words; returns (labels, families, counterexample).

    Each admissible word is decided by `masks.walk` over the hit masks of
    its witness patterns.  Witness existence never depends on the
    designated values, so those are only counted (under a linking rule by
    `_designated_count`, a whole subtree at a time), and materialized for
    a counterexample.
    """
    labels_checked = 0
    families_checked = 0
    count = None if cfg.linking is None else partial(_designated_count, cfg, {})
    for labels in label_words:
        if not cfg.admissible(labels):
            continue
        labels_checked += 1
        patterns = _witness_patterns(cfg, labels)
        # A candidate set without designated-value options has no families.
        table = [[entry for entry in level if entry[1]] for level in _family_table(cfg, labels)]
        hits = masks.hit_masks(patterns, table)
        families, stuck = masks.walk(table, hits, (1 << len(patterns)) - 1, count)
        families_checked += families
        if stuck is not None:
            csets, options = stuck
            first = next(_designated_tuples(cfg, options))
            return (
                labels_checked,
                families_checked,
                Counterexample("main", labels, BoundaryFamily(csets, first)),
            )
    return labels_checked, families_checked, None


def check_reducible(cfg: ReducibilityConfiguration, jobs: int = 1) -> CheckReport:
    """Exhaustively confirm reducibility, or return the first failing pair.

    The counterexample, when present, is the first in (label word,
    candidate sets, designated values) lexicographic order.
    """
    # `jobs` does nothing; it stays only while perfbench/workloads.py passes it.
    start = time.monotonic()
    family_count = 0
    cex = None
    if cfg.choice_stage:
        family_count, cex = _check_choice_stage(cfg)
    labels_checked = 0
    if cex is None:
        labels_checked, families, cex = _scan_labels(cfg, cfg.label_completions())
        family_count += families
    verdict = "counterexample" if cex else "reducible"
    return CheckReport(
        cfg.name, verdict, labels_checked, family_count, time.monotonic() - start, cex
    )


# -- builtin configurations --------------------------------------------------


def _cfg_k4minus() -> ReducibilityConfiguration:
    # H = {v0, v1} inside a K4 missing the u0u1 edge; every vertex of the
    # ambient cubic graph needs an incident 1-label among its shown edges.
    g = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    e = g.edge_index
    return ReducibilityConfiguration(
        name="K4minus",
        graph=g,
        h_vertices=(0, 1),
        boundary=(2, 3),
        fixed_labels=(),
        required_one_groups=(
            (e(0, 1), e(0, 2), e(0, 3)),
            (e(0, 1), e(1, 2), e(1, 3)),
        ),
        rules=(
            BoundaryRule(4, EXCLUDE_IF_ALL_ZERO, (e(0, 2), e(1, 2)), designated_nonzero=True),
            BoundaryRule(4, EXCLUDE_IF_ALL_ZERO, (e(0, 3), e(1, 3)), designated_nonzero=True),
        ),
    )


def _cfg_triangle() -> ReducibilityConfiguration:
    # Triangle v0v1v2 with one pendant boundary vertex per corner; u1, u2
    # are pinned to their current values, u0 may move.
    g = Graph(6, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 5)])
    e = g.edge_index
    return ReducibilityConfiguration(
        name="triangle",
        graph=g,
        h_vertices=(0, 1, 2),
        boundary=(3, 4, 5),
        fixed_labels=(),
        required_one_groups=(
            (e(0, 1), e(0, 2), e(0, 3)),
            (e(0, 1), e(1, 2), e(1, 4)),
            (e(0, 2), e(1, 2), e(2, 5)),
        ),
        rules=(
            BoundaryRule(2, EXCLUDE_IF_ALL_ZERO, (e(0, 3),), designated_nonzero=True),
            BoundaryRule(1, EXCLUDE_ALWAYS, designated_nonzero=True),
            BoundaryRule(1, EXCLUDE_ALWAYS, designated_nonzero=True),
        ),
        linking="equalize-to-first",
    )


def _cfg_p3() -> ReducibilityConfiguration:
    # Center w of a 1-labeled path, with its remaining neighbors; the far
    # path edge forces u0 away from the zero vector.
    g = Graph(4, [(0, 1), (0, 2), (0, 3)])
    e = g.edge_index
    return ReducibilityConfiguration(
        name="P3",
        graph=g,
        h_vertices=(0,),
        boundary=(1, 2, 3),
        fixed_labels=((e(0, 1), 1),),
        rules=(
            BoundaryRule(2, EXCLUDE_ALWAYS),
            BoundaryRule(2, EXCLUDE_IF_ALL_ZERO, (e(0, 2),)),
            BoundaryRule(2, EXCLUDE_IF_ALL_ZERO, (e(0, 3),)),
        ),
    )


def _cfg_k23() -> ReducibilityConfiguration:
    # Complete bipartite {v0, v1} x {u0, u1, u2}; exactly the two marked
    # edges are 1-labeled, which pins the zero-vector membership pattern.
    g = Graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
    e = g.edge_index
    return ReducibilityConfiguration(
        name="K23",
        graph=g,
        h_vertices=(0, 1),
        boundary=(2, 3, 4),
        fixed_labels=(
            (e(0, 2), 1),
            (e(0, 3), 0),
            (e(0, 4), 0),
            (e(1, 2), 0),
            (e(1, 3), 0),
            (e(1, 4), 1),
        ),
        rules=(
            BoundaryRule(4, include_zero=True),
            BoundaryRule(4, EXCLUDE_ALWAYS),
            BoundaryRule(4, include_zero=True),
        ),
    )


def _c4_graph() -> Graph:
    # 4-cycle v0-v1-v3-v2-v0 with one pendant per cycle vertex.
    return Graph(8, [(0, 1), (0, 2), (1, 3), (2, 3), (0, 4), (1, 5), (2, 6), (3, 7)])


def _cfg_c4_a() -> ReducibilityConfiguration:
    g = _c4_graph()
    e = g.edge_index
    return ReducibilityConfiguration(
        name="C4_a",
        graph=g,
        h_vertices=(0, 1, 2, 3),
        boundary=(4, 5, 6, 7),
        fixed_labels=((e(0, 1), 1), (e(0, 2), 0), (e(1, 3), 0), (e(2, 3), 0)),
        required_one_groups=(
            (e(0, 1), e(0, 2), e(0, 4)),
            (e(0, 1), e(1, 3), e(1, 5)),
            (e(0, 2), e(2, 3), e(2, 6)),
            (e(1, 3), e(2, 3), e(3, 7)),
        ),
        rules=tuple(
            BoundaryRule(1, EXCLUDE_ALWAYS, designated_nonzero=True) for _ in range(4)
        ),
    )


def _cfg_c4_b() -> ReducibilityConfiguration:
    g = _c4_graph()
    e = g.edge_index
    return ReducibilityConfiguration(
        name="C4_b",
        graph=g,
        h_vertices=(0, 1, 2, 3),
        boundary=(4, 5, 6, 7),
        fixed_labels=(
            (e(0, 1), 1),
            (e(0, 2), 0),
            (e(1, 3), 0),
            (e(2, 3), 1),
            (e(0, 4), 0),
            (e(1, 5), 0),
            (e(2, 6), 0),
            (e(3, 7), 0),
        ),
        rules=tuple(
            BoundaryRule(1, EXCLUDE_ALWAYS, designated_nonzero=True) for _ in range(4)
        ),
        linking="no-double-pair",
        choice_stage=True,
    )


def _cfg_bridge() -> ReducibilityConfiguration:
    # A 1-labeled edge v0v1 in a cubic triangle-free, 1-labeled-C4-free
    # graph; all four outer neighbors are distinct and nonadjacent.
    g = Graph(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])
    e = g.edge_index
    return ReducibilityConfiguration(
        name="bridge",
        graph=g,
        h_vertices=(0, 1),
        boundary=(2, 3, 4, 5),
        fixed_labels=((e(0, 1), 1),),
        rules=tuple(BoundaryRule(2, EXCLUDE_ALWAYS) for _ in range(4)),
    )


def builtin_configs() -> Dict[str, ReducibilityConfiguration]:
    configs = [
        _cfg_k4minus(),
        _cfg_triangle(),
        _cfg_p3(),
        _cfg_k23(),
        _cfg_c4_a(),
        _cfg_c4_b(),
        _cfg_bridge(),
    ]
    return {c.name: c for c in configs}


# -- mutations ----------------------------------------------------------------


@dataclass(frozen=True)
class Mutation:
    """A named weakening of one builtin configuration, used as a control:
    dropping the constraint must surface a counterexample."""

    name: str
    config: str
    description: str
    transform: Callable[[ReducibilityConfiguration], ReducibilityConfiguration]


def _rules_with(**changes) -> Callable[[ReducibilityConfiguration], ReducibilityConfiguration]:
    """The transform that applies the same field changes to every rule."""
    return lambda cfg: replace(cfg, rules=tuple(replace(r, **changes) for r in cfg.rules))


def apply_mutation(cfg: ReducibilityConfiguration, mutation_name: str) -> ReducibilityConfiguration:
    mut = builtin_mutations().get(mutation_name)
    if mut is None:
        raise ValueError(f"unknown mutation {mutation_name!r}")
    if mut.config != cfg.name:
        raise ValueError(f"mutation {mutation_name!r} targets {mut.config}, not {cfg.name}")
    return mut.transform(replace(cfg, name=f"{cfg.name}[{mutation_name}]"))


def builtin_mutations() -> Dict[str, Mutation]:
    singletons = "candidate sets may be singletons"
    muts = [
        Mutation("k4minus-drop-min-size", "K4minus", singletons, _rules_with(min_size=1)),
        Mutation(
            "triangle-drop-linking",
            "triangle",
            "drop the equal-values linking rule",
            lambda cfg: replace(cfg, linking=None),
        ),
        Mutation("p3-drop-min-size", "P3", singletons, _rules_with(min_size=1)),
        Mutation("k23-drop-min-size", "K23", singletons, _rules_with(min_size=1)),
        Mutation(
            "c4a-allow-zero",
            "C4_a",
            "allow the zero vector as a current value",
            _rules_with(exclude_zero=EXCLUDE_NEVER, designated_nonzero=False),
        ),
        Mutation(
            "c4b-shrink-choice",
            "C4_b",
            "choice-stage sets may be singletons",
            lambda cfg: replace(cfg, choice_multi_min=1),
        ),
        Mutation(
            "bridge-allow-zero-singletons",
            "bridge",
            "allow zero vectors and singleton candidate sets",
            _rules_with(min_size=1, exclude_zero=EXCLUDE_NEVER),
        ),
    ]
    return {m.name: m for m in muts}


# -- suite --------------------------------------------------------------------


@dataclass(frozen=True)
class SuiteReport:
    rows: Tuple[CheckReport, ...]

    @property
    def passed(self) -> bool:
        return all(r.reducible for r in self.rows)


def run_suite(
    names: Optional[Sequence[str]] = None,
    mutation: Optional[str] = None,
    jobs: int = 1,
) -> SuiteReport:
    # `jobs` does nothing; it stays only while perfbench/workloads.py passes it.
    configs = builtin_configs()
    if names is None:
        names = list(configs)
    rows = []
    for name in names:
        if name not in configs:
            raise ValueError(f"unknown configuration {name!r}")
        cfg = configs[name]
        if mutation is not None:
            cfg = apply_mutation(cfg, mutation)
        rows.append(check_reducible(cfg))
    return SuiteReport(tuple(rows))


__all__ = [
    "DIM",
    "ALL_VECTORS",
    "NONZERO_VECTORS",
    "BoundaryRule",
    "ReducibilityConfiguration",
    "BoundaryFamily",
    "Counterexample",
    "CheckReport",
    "SuiteReport",
    "Mutation",
    "enumerate_families",
    "admits_choice",
    "check_reducible",
    "builtin_configs",
    "builtin_mutations",
    "apply_mutation",
    "run_suite",
]
