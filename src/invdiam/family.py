"""Leveled clique-expansion families and probes over their assignments.

The construction starts from a k-clique and, at every stage, attaches
2^k fresh vertices to each k-clique of the previous stage, one per
boundary label pattern in F2^k.  Edge labels added this way never change
afterwards, so the stage-i graph is literally a prefix of every later
stage.  These families drive the worst-case distance against dimension
2k-1 as the number of stages grows.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from . import gf2
from .assignment import Assignment, verify
from .errors import BudgetExceededError, InputFormatError
from .graph import Graph, Label

GROWTH_GUARD = 10**6


@dataclass(slots=True)
class CliqueRecord:
    """A registered k-clique: sorted vertices, level, children per stage."""

    vertices: Tuple[int, ...]
    level: int
    children: List[Tuple[int, int]] = field(default_factory=list)  # (vertex, stage)


@dataclass
class LeveledGraph:
    """A stage-m family with its clique registry.  The clique plans below
    depend on the registry alone, so each probe reads them instead of
    filtering the registry again; the registry must not change after they
    are first read."""

    graph: Graph
    label: Label
    levels: Tuple[int, ...]
    k: int
    m: int
    cliques: Tuple[CliqueRecord, ...]

    @functools.cached_property
    def expanded_cliques(self) -> Tuple[Tuple[int, ...], ...]:
        """Vertices of each clique expanded at least once (level <= m-1),
        in registry order."""
        return tuple(c.vertices for c in self.cliques if c.level <= self.m - 1)

    @functools.cached_property
    def extension_plan(self) -> Tuple[Tuple[Tuple[int, ...], Tuple[int, ...]], ...]:
        """(vertices, children of the next stage) of each clique expanded
        twice (level <= m-2), in registry order."""
        return tuple(
            (c.vertices, tuple(u for u, stage in c.children if stage == c.level + 1))
            for c in self.cliques
            if c.level <= self.m - 2
        )

    @functools.cached_property
    def sub_cliques(self) -> Tuple[Tuple[int, ...], ...]:
        """Every nonempty sub-clique of a registered clique, by size and
        then vertices."""
        subsets = set()
        for clique in self.cliques:
            for p in range(1, len(clique.vertices) + 1):
                subsets.update(combinations(clique.vertices, p))
        return tuple(sorted(subsets, key=lambda s: (len(s), s)))


def projected_family_size(k: int, m: int) -> Tuple[int, int, int]:
    """(vertices, edges, registered cliques) of the stage-m family.

    Every clique gains 2^k children per stage and each child registers k
    new cliques, so clique counts multiply by 1 + k*2^k each stage.  Raises
    BudgetExceededError at the first stage whose total passes GROWTH_GUARD,
    so a huge k or m costs no more than the stages under the guard.
    """
    vertices = k
    edges = k * (k - 1) // 2
    cliques = 1
    stage = 0
    while vertices + edges + cliques <= GROWTH_GUARD:
        if stage == m:
            return vertices, edges, cliques
        new_vertices = cliques << k
        vertices += new_vertices
        edges += new_vertices * k
        cliques += new_vertices * k
        stage += 1
    raise BudgetExceededError(
        f"family k={k}, m={m} grows past the guard of {GROWTH_GUARD} vertices, edges"
        f" and cliques at stage {stage}"
    )


def _normalize_initial_label(k: int, initial_label) -> int:
    m0 = k * (k - 1) // 2
    if initial_label is None:
        return 0
    if isinstance(initial_label, Label):
        if initial_label.graph.n != k or initial_label.graph.m != m0:
            raise ValueError("initial label must live on the complete graph K_k")
        return initial_label.bits
    if isinstance(initial_label, str):
        if len(initial_label) == m0:
            try:
                return gf2.text_to_word(initial_label)
            except ValueError:
                pass
        raise ValueError(f"initial label must be {m0} bits, got {initial_label!r}")
    bits = int(initial_label)
    if not 0 <= bits < (1 << m0):
        raise ValueError(f"initial label word must fit {m0} edges")
    return bits


def build_family(k: int, m: int, initial_label=None) -> LeveledGraph:
    """Construct the stage-m family with its cumulative label.

    The initial k-clique label may be given as a Label on K_k, a bit
    string, or a word over the canonical K_k edge order (default zero).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    projected_family_size(k, m)  # raises past GROWTH_GUARD
    init_bits = _normalize_initial_label(k, initial_label)

    pairs: List[Tuple[int, int]] = list(combinations(range(k), 2))
    ones = [pair for i, pair in enumerate(pairs) if (init_bits >> i) & 1]
    levels: List[int] = [0] * k
    registry: List[CliqueRecord] = [CliqueRecord(tuple(range(k)), 0)]
    n = k
    for stage in range(1, m + 1):
        snapshot = len(registry)
        for ci in range(snapshot):
            clique = registry[ci]
            for pattern in range(1 << k):
                u = n
                n += 1
                levels.append(stage)
                for j, v in enumerate(clique.vertices):
                    pair = (v, u)
                    pairs.append(pair)
                    if (pattern >> j) & 1:
                        ones.append(pair)
                clique.children.append((u, stage))
                for keep in combinations(clique.vertices, k - 1):
                    registry.append(
                        CliqueRecord(tuple(sorted(keep + (u,))), stage)
                    )
    graph = Graph(n, pairs)
    bits = 0
    for pair in ones:
        bits |= 1 << graph.edge_index(*pair)
    return LeveledGraph(graph, Label(graph, bits), tuple(levels), k, m, tuple(registry))


def is_k_tree(graph: Graph, k: int) -> bool:
    """True iff the graph peels down to K_k through simplicial degree-k vertices."""
    if k < 1 or graph.n < k:
        return False
    adj = [set(s) for s in graph.adjacency]
    alive = set(range(graph.n))
    candidates = [v for v in alive if len(adj[v]) == k]
    while len(alive) > k:
        found = None
        while candidates:
            v = candidates.pop()
            if v not in alive or len(adj[v]) != k:
                continue
            nbrs = list(adj[v])
            if all(b in adj[a] for a, b in combinations(nbrs, 2)):
                found = v
                break
        if found is None:
            return False
        alive.discard(found)
        for w in adj[found]:
            adj[w].discard(found)
            if len(adj[w]) == k:
                candidates.append(w)
        adj[found].clear()
    return all(len(adj[v]) == k - 1 for v in alive)


@dataclass(frozen=True)
class ProbeReport:
    name: str
    checked: int
    failures: Tuple[Tuple[Tuple[int, ...], ...], ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def _check_probe_input(lg: LeveledGraph, f: Assignment) -> None:
    expected = 2 * lg.k - 1
    if f.t != expected:
        raise ValueError(f"assignment dimension must be {expected}, got {f.t}")
    if not verify(lg.graph, lg.label, f):
        raise ValueError("assignment does not satisfy the family label")


def probe_clique_independence(lg: LeveledGraph, f: Assignment) -> ProbeReport:
    """Check linear independence of the vectors on every clique that has
    been expanded at least once (level <= m-1)."""
    _check_probe_input(lg, f)
    bits = f.words
    failures = tuple(
        (vertices,)
        for vertices in lg.expanded_cliques
        if gf2.rank_bits([bits[v] for v in vertices], f.t) != lg.k
    )
    return ProbeReport("clique_independence", len(lg.expanded_cliques), failures)


def probe_extension_dichotomy(lg: LeveledGraph, f: Assignment) -> ProbeReport:
    """For each twice-expanded clique and each immediate child, check that
    the child vector extends the clique independently or equals its sum."""
    _check_probe_input(lg, f)
    bits = f.words
    checked = 0
    failures = []
    for vertices, children in lg.extension_plan:
        base = [bits[v] for v in vertices]
        total = 0
        for b in base:
            total ^= b
        checked += len(children)
        for child in children:
            cw = bits[child]
            if cw != total and gf2.rank_bits(base + [cw], f.t) != lg.k + 1:
                failures.append((vertices, (child,)))
    return ProbeReport("extension_dichotomy", checked, tuple(failures))


@dataclass(frozen=True)
class BadCliqueReport:
    checked: int
    bad: Tuple[Tuple[int, ...], ...]


def _self_orthogonal_dim(words: Sequence[int], dim: int) -> int:
    """dim(span V intersect V-perp) via the Gram matrix of a basis of V.

    That dimension is r - rank(Gram) for any basis of V, so the echelon
    basis serves."""
    basis = gf2.echelon_bits(words, dim)
    r = len(basis)
    if r == 0:
        return 0
    gram = []
    for a in basis:
        row = 0
        for j, b in enumerate(basis):
            if gf2.dot_bits(a, b):
                row |= 1 << j
        gram.append(row)
    return r - gf2.rank_bits(gram, r)


def probe_bad_cliques(lg: LeveledGraph, f: Assignment) -> BadCliqueReport:
    """List every sub-clique C of a registered clique whose span V satisfies
    dim(V intersect V-perp) >= |C| - 1."""
    _check_probe_input(lg, f)
    bits = f.words
    bad = tuple(
        sub
        for sub in lg.sub_cliques
        if _self_orthogonal_dim([bits[v] for v in sub], f.t) >= len(sub) - 1
    )
    return BadCliqueReport(len(lg.sub_cliques), bad)


def reconstruct_leveled(
    graph: Graph, label: Label, levels: Sequence[int], k: Optional[int] = None
) -> LeveledGraph:
    """Rebuild the clique registry of a family from its graph and levels.

    Validates the defining shape: level-0 vertices form a k-clique, every
    later vertex has exactly k lower-level neighbors forming a clique,
    and each expanded clique receives all 2^k label patterns per stage.
    """
    if len(levels) != graph.n:
        raise InputFormatError(
            f"levels cover {len(levels)} vertices, graph has {graph.n}"
        )
    base = [v for v in range(graph.n) if levels[v] == 0]
    if k is None:
        k = len(base)
    if k < 1:
        raise InputFormatError(f"a family needs k >= 1 level-0 vertices, got k = {k}")
    if len(base) != k or base != list(range(k)):
        raise InputFormatError("level-0 vertices must be exactly 0..k-1")
    for u, v in combinations(base, 2):
        if not graph.has_edge(u, v):
            raise InputFormatError("level-0 vertices must form a clique")
    m = max(levels, default=0)
    parents: Dict[int, Tuple[int, ...]] = {}
    for v in range(graph.n):
        lv = levels[v]
        if lv == 0:
            continue
        lower = tuple(sorted(w for w in graph.adjacency[v] if levels[w] < lv))
        if len(lower) != k:
            raise InputFormatError(
                f"vertex {v} has {len(lower)} lower-level neighbors, expected {k}"
            )
        for a, b in combinations(lower, 2):
            if not graph.has_edge(a, b):
                raise InputFormatError(f"parents of vertex {v} are not a clique")
        parents[v] = lower
    registry: Dict[Tuple[int, ...], CliqueRecord] = {
        tuple(range(k)): CliqueRecord(tuple(range(k)), 0)
    }
    for v in sorted(parents, key=lambda x: (levels[x], x)):
        parent = parents[v]
        if parent not in registry:
            raise InputFormatError(
                f"vertex {v} attaches to unregistered clique {parent}"
            )
        registry[parent].children.append((v, levels[v]))
        for keep in combinations(parent, k - 1):
            verts = tuple(sorted(keep + (v,)))
            registry[verts] = CliqueRecord(verts, levels[v])
    for rec in registry.values():
        by_stage: Dict[int, List[int]] = {}
        for child, stage in rec.children:
            by_stage.setdefault(stage, []).append(child)
        if sorted(by_stage) != list(range(rec.level + 1, m + 1)):
            raise InputFormatError(
                f"clique {rec.vertices} is not expanded at every stage after "
                f"level {rec.level}"
            )
        for stage, children in by_stage.items():
            patterns = set()
            for child in children:
                pat = 0
                for j, v in enumerate(rec.vertices):
                    if label.bit(graph.edge_index(v, child)):
                        pat |= 1 << j
                patterns.add(pat)
            if len(children) != 1 << k or len(patterns) != 1 << k:
                raise InputFormatError(
                    f"clique {rec.vertices} lacks the full pattern set at stage {stage}"
                )
    return LeveledGraph(graph, label, tuple(levels), k, m, tuple(registry.values()))


__all__ = [
    "GROWTH_GUARD",
    "CliqueRecord",
    "LeveledGraph",
    "ProbeReport",
    "BadCliqueReport",
    "projected_family_size",
    "build_family",
    "is_k_tree",
    "probe_clique_independence",
    "probe_extension_dichotomy",
    "probe_bad_cliques",
    "reconstruct_leveled",
]
