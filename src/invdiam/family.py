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
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, List, Sequence, Tuple

from . import gf2
from .assignment import Assignment, verify
from .errors import BudgetExceededError, InputFormatError
from .graph import Graph, Label

GROWTH_GUARD = 10**6


@dataclass(frozen=True, slots=True)
class CliqueRecord:
    """A registered k-clique: sorted vertices, level, children per stage.

    Immutable, because the records of a stage are shared by every family
    built on it (see build_family)."""

    vertices: Tuple[int, ...]
    level: int
    children: Tuple[Tuple[int, int], ...] = ()  # (vertex, stage)


class _ProbeSlots:
    """The slots of a word-parallel probe, in registry order: the failure
    entry each slot reports, and a gatherer of every slot's vertex in
    column 0, then in column 1, and so on, from an assignment's words."""

    __slots__ = ("entries", "n_columns", "gather")

    def __init__(self, entries: Sequence[tuple], columns: Sequence[Sequence[int]]):
        self.entries = tuple(entries)
        self.n_columns = len(columns)
        self.gather = gf2.gatherer([v for column in columns for v in column])

    def unpack(self, words: Sequence[int], t: int) -> Tuple[List[int], int, int]:
        """(packed columns, low, top) for words of F2^t, t odd (see
        _slot_shape)."""
        width, bits, low, top = _slot_shape(len(self.entries), t)
        packed = gf2.pack_slots(self.gather(words), width)
        mask = (1 << bits) - 1
        columns = []
        for _ in range(self.n_columns):
            columns.append(packed & mask)
            packed >>= bits
        return columns, low, top

    def failures(self, passed: int, t: int) -> tuple:
        """The entries of the slots whose bit t in `passed` is clear."""
        width, _, _, top = _slot_shape(len(self.entries), t)
        if passed == top:
            return ()
        flags = gf2.slot_flags(passed >> t, len(self.entries), width)
        return tuple(entry for entry, flag in zip(self.entries, flags) if not flag)


@functools.lru_cache(maxsize=64)
def _slot_shape(count: int, t: int) -> Tuple[int, int, int, int]:
    """(slot width, bits of one packed column, low, top) for `count` slots
    of words of F2^t, t odd: low holds 2^t - 1 and top 2^t in every slot.
    Since t is odd, t < 8 * width and every slot has a spare top bit, so
    adding low to a packed column sets bit t of exactly its nonzero slots,
    with no carry between slots."""
    width = gf2.slot_width(t)
    ones = gf2.slot_ones(count, width)
    return width, 8 * width * count, ones * ((1 << t) - 1), ones << t


@dataclass
class LeveledGraph:
    """A stage-m family with its clique registry.  The probe slots below
    depend on the registry and m alone, so each probe reads them instead of
    filtering the registry again."""

    graph: Graph
    label: Label
    levels: Tuple[int, ...]
    k: int
    m: int
    cliques: Tuple[CliqueRecord, ...]

    @functools.cached_property
    def independence_slots(self) -> _ProbeSlots:
        """One slot per clique expanded at least once (level <= m-1), with
        entry (vertices,) and a column per clique position."""
        cliques = [c.vertices for c in self.cliques if c.level <= self.m - 1]
        return _ProbeSlots(
            [(vertices,) for vertices in cliques],
            [[c[j] for c in cliques] for j in range(self.k)],
        )

    @functools.cached_property
    def extension_slots(self) -> _ProbeSlots:
        """One slot per immediate child of a clique expanded twice (level <=
        m-2), with entry (vertices, (child,)), a column per clique position
        and a last column for the child."""
        entries = [
            (c.vertices, (u,))
            for c in self.cliques
            if c.level <= self.m - 2
            for u, stage in c.children
            if stage == c.level + 1
        ]
        return _ProbeSlots(
            entries,
            [[e[0][j] for e in entries] for j in range(self.k)] + [[e[1][0] for e in entries]],
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


@dataclass(frozen=True)
class _Stage:
    """The part of a stage-m family that no initial label changes: the
    graph, levels and clique registry, the label word of the pattern edges
    (every edge outside K_k), and the indices of the K_k edges in the
    canonical K_k edge order."""

    graph: Graph
    levels: Tuple[int, ...]
    cliques: Tuple[CliqueRecord, ...]
    pattern_bits: int
    base_edges: Tuple[int, ...]


@functools.lru_cache(maxsize=1)
def _stage(k: int, m: int) -> _Stage:
    pairs: List[Tuple[int, int]] = list(combinations(range(k), 2))
    ones: List[Tuple[int, int]] = []
    levels: List[int] = [0] * k
    # Registry columns; the records are made once every child is known.
    cliques: List[Tuple[int, ...]] = [tuple(range(k))]
    cliques_level: List[int] = [0]
    children: List[List[Tuple[int, int]]] = [[]]
    n = k
    for stage in range(1, m + 1):
        for ci in range(len(cliques)):
            vertices = cliques[ci]
            for pattern in range(1 << k):
                u = n
                n += 1
                levels.append(stage)
                for j, v in enumerate(vertices):
                    pair = (v, u)
                    pairs.append(pair)
                    if (pattern >> j) & 1:
                        ones.append(pair)
                children[ci].append((u, stage))
                for keep in combinations(vertices, k - 1):
                    cliques.append(tuple(sorted(keep + (u,))))
                    cliques_level.append(stage)
                    children.append([])
    graph = Graph(n, pairs)
    text = bytearray(b"0") * graph.m
    for pair in ones:
        text[graph.edge_index(*pair)] = 49
    return _Stage(
        graph,
        tuple(levels),
        tuple(map(CliqueRecord, cliques, cliques_level, map(tuple, children))),
        int(text[::-1] or b"0", 2),
        tuple(graph.edge_index(*pair) for pair in combinations(range(k), 2)),
    )


def build_family(k: int, m: int, initial_label=None) -> LeveledGraph:
    """Construct the stage-m family with its cumulative label.

    The initial k-clique label may be given as a bit string or a word over
    the canonical K_k edge order (default zero).

    The label-independent part of the stage (graph, levels, registry and
    the pattern edges' label word) is built once per (k, m) and kept for
    the next call: families of one stage share one Graph and one registry,
    and each differs from the others only in the bits it sets on the K_k
    edges.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    projected_family_size(k, m)  # raises past GROWTH_GUARD
    init_bits = _normalize_initial_label(k, initial_label)
    stage = _stage(k, m)
    bits = stage.pattern_bits
    for i, e in enumerate(stage.base_edges):
        if (init_bits >> i) & 1:
            bits |= 1 << e
    return LeveledGraph(
        stage.graph, Label(stage.graph, bits), stage.levels, k, m, stage.cliques
    )


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


def _subset_sums(columns: Sequence[int]) -> Iterator[int]:
    """The XOR of every nonempty subset of the packed columns, in Gray-code
    order: each differs from the one before by one column."""
    s = 0
    for i in range(1, 1 << len(columns)):
        s ^= columns[(i & -i).bit_length() - 1]
        yield s


def probe_clique_independence(lg: LeveledGraph, f: Assignment) -> ProbeReport:
    """Check linear independence of the vectors on every clique that has
    been expanded at least once (level <= m-1).

    Evaluated word-parallel, one slot per clique (lg.independence_slots):
    k vectors are independent iff each of their 2^k - 1 nonempty subset
    sums is nonzero, and one XOR of packed columns forms a subset sum in
    every slot at once."""
    _check_probe_input(lg, f)
    slots = lg.independence_slots
    columns, low, passed = slots.unpack(f.words, f.t)
    for s in _subset_sums(columns):
        passed &= s + low
    return ProbeReport("clique_independence", len(slots.entries), slots.failures(passed, f.t))


def probe_extension_dichotomy(lg: LeveledGraph, f: Assignment) -> ProbeReport:
    """For each twice-expanded clique and each immediate child, check that
    the child vector extends the clique independently or equals its sum.

    Evaluated word-parallel, one slot per (clique, child) pair
    (lg.extension_slots): the child extends the clique independently iff
    every nonempty subset sum of the clique is nonzero and the child
    differs from every subset sum, the empty one included."""
    _check_probe_input(lg, f)
    slots = lg.extension_slots
    (*clique, child), low, top = slots.unpack(f.words, f.t)
    passed = top & (child + low)
    for s in _subset_sums(clique):
        passed &= (s + low) & ((child ^ s) + low)
    rest = child  # the child plus the clique's sum
    for column in clique:
        rest ^= column
    passed |= top & ~(rest + low)  # rest is zero: the child is the sum
    return ProbeReport("extension_dichotomy", len(slots.entries), slots.failures(passed, f.t))


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


def reconstruct_leveled(graph: Graph, label: Label, levels: Sequence[int]) -> LeveledGraph:
    """The family that a graph, its label and its levels describe: the stage
    is read off them, rebuilt by build_family and compared whole.

    k is the number of level-0 vertices, m the highest level, and the
    initial label the label's bits on the K_k edges, in canonical pair
    order.  The graph's size is compared with the stage's before anything is
    built, so levels claiming a huge m cost nothing.  Raises InputFormatError
    naming the graph, the label or the levels if any of them differs from
    build_family(k, m, initial); otherwise returns that build, which shares
    the stage's Graph and registry.
    """
    k = sum(1 for level in levels if level == 0)
    if k < 1:
        raise InputFormatError(f"a family needs k >= 1 level-0 vertices, got k = {k}")
    m = max(levels)
    stage = f"the stage-{m} family at k = {k}"
    try:
        fits = projected_family_size(k, m)[0] == graph.n
    except BudgetExceededError:
        fits = False
    base = list(combinations(range(k), 2)) if fits else []
    if not (fits and all(graph.has_edge(*p) for p in base)):
        raise InputFormatError(f"graph is not {stage}")
    initial = sum(label.bit(graph.edge_index(*p)) << i for i, p in enumerate(base))
    lg = build_family(k, m, initial)
    for name, given, built in (
        ("graph", graph, lg.graph),
        ("levels", tuple(levels), lg.levels),
        ("label", label, lg.label),
    ):
        if given != built:
            raise InputFormatError(f"{name} differs from {stage}")
    return lg


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
