"""Inverting vertex sets and brute-force search over the orientation graph.

States are edge-flip words, so two orientations are adjacent exactly when
their XOR is a word realizable as "all edges inside some vertex set X".
Distances therefore depend only on the XOR of the two states, and every
search runs from the all-zero word.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, List, Tuple

from .errors import BudgetExceededError, InvariantError
from .graph import Graph, Label, Orientation

DISTANCE_EDGE_BUDGET = 20
DIAMETER_EDGE_BUDGET = 12
# The alpha of Beamer, Asanovic & Patterson's direction-optimizing BFS
# (SC 2012): a layer goes bottom-up once the frontier's outgoing edges exceed
# 1/alpha of the unreached words' edges; they found alpha = 14 to work well.
# Every word has the same number of moves, so edge counts reduce to word counts.
BOTTOM_UP_ALPHA = 14


def inversion_word(graph: Graph, x: Iterable[int]) -> int:
    """Edge word with bit e set iff both endpoints of edge e lie in x."""
    xset = frozenset(x)
    for v in xset:
        if not 0 <= v < graph.n:
            raise ValueError(f"vertex {v} out of range")
    word = 0
    for e, (u, v) in enumerate(graph.edges):
        if u in xset and v in xset:
            word |= 1 << e
    return word


def invert(orientation: Orientation, x: Iterable[int]) -> Orientation:
    """Reverse every arc with both endpoints in x."""
    graph = orientation.graph
    return Orientation(graph, orientation.flips ^ inversion_word(graph, x))


def diff_label(o1: Orientation, o2: Orientation) -> Label:
    if o1.graph != o2.graph:
        raise ValueError("orientations belong to different graphs")
    return Label(o1.graph, o1.flips ^ o2.flips)


def _component_words(graph: Graph, comp: List[int]) -> List[int]:
    """Distinct inversion words over subsets of one connected component.

    Gray-code subset walk: toggling vertex v flips exactly the edges
    between v and the rest of the current subset.
    """
    local = {v: i for i, v in enumerate(comp)}
    incident: List[List[Tuple[int, int]]] = [[] for _ in comp]
    for e, (u, v) in enumerate(graph.edges):
        if u in local and v in local:
            incident[local[u]].append((local[v], 1 << e))
            incident[local[v]].append((local[u], 1 << e))
    words = {0}
    word = 0
    subset = 0
    for i in range(1, 1 << len(comp)):
        j = (i & -i).bit_length() - 1
        for other, bit in incident[j]:
            if (subset >> other) & 1:
                word ^= bit
        subset ^= 1 << j
        words.add(word)
    return sorted(words)


@lru_cache(maxsize=128)
def inversion_moves(graph: Graph) -> Tuple[int, ...]:
    """All nonzero edge words achievable by a single inversion.

    A set X decomposes over connected components, so the word set is the
    XOR product of per-component word sets; trivial X (no induced edge)
    collapses to 0 and is dropped.
    """
    seen = set()
    comps: List[List[int]] = []
    for start in range(graph.n):
        if start in seen or not graph.adjacency[start]:
            continue
        comp = []
        stack = [start]
        seen.add(start)
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in graph.adjacency[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        comps.append(sorted(comp))
    words = {0}
    for comp in comps:
        cw = _component_words(graph, comp)
        words = {a ^ b for a in words for b in cw}
    words.discard(0)
    return tuple(sorted(words))


def _distances_from_zero(graph: Graph) -> List[int]:
    """BFS distance of every flip word from the zero word; raises
    InvariantError if some word stays unreached (never expected).

    Direction-optimizing and layer-synchronous: a layer goes bottom-up (each
    unreached word takes the first move back into the previous layer) when
    BOTTOM_UP_ALPHA * |frontier| > unreached, and top-down otherwise.
    """
    moves = inversion_moves(graph)
    size = 1 << graph.m
    dist = [-1] * size
    dist[0] = 0
    frontier = [0]
    unreached = size - 1
    d = 0
    while frontier and unreached:
        d += 1
        layer = []
        if BOTTOM_UP_ALPHA * len(frontier) > unreached:
            frontier.clear()  # only its size was needed; free it before the scan
            prev = d - 1
            for state in range(size):
                if dist[state] < 0:
                    for mv in moves:
                        if dist[state ^ mv] == prev:
                            dist[state] = d
                            layer.append(state)
                            break
        else:
            for state in frontier:
                for mv in moves:
                    nxt = state ^ mv
                    if dist[nxt] < 0:
                        dist[nxt] = d
                        layer.append(nxt)
        unreached -= len(layer)
        frontier = layer
    if unreached:
        raise InvariantError("orientation graph is disconnected")
    return dist


def bfs_all_distances(graph: Graph) -> List[int]:
    """Distance from the canonical orientation to every flip word."""
    if graph.m > DISTANCE_EDGE_BUDGET:
        raise BudgetExceededError(
            f"bfs_all_distances needs |E| <= {DISTANCE_EDGE_BUDGET}, got {graph.m}"
        )
    return _distances_from_zero(graph)


def bfs_diameter(graph: Graph) -> int:
    """Diameter of the orientation graph.

    XOR by a fixed word is an automorphism, so the diameter equals the
    eccentricity of the all-zero word; one BFS suffices.
    """
    if graph.m > DIAMETER_EDGE_BUDGET:
        raise BudgetExceededError(
            f"bfs_diameter needs |E| <= {DIAMETER_EDGE_BUDGET}, got {graph.m}"
        )
    return max(_distances_from_zero(graph))


__all__ = [
    "DISTANCE_EDGE_BUDGET",
    "DIAMETER_EDGE_BUDGET",
    "inversion_word",
    "invert",
    "diff_label",
    "inversion_moves",
    "bfs_all_distances",
    "bfs_diameter",
]
