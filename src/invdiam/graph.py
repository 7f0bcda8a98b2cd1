"""Undirected graphs, edge labels, orientations, and their file formats.

The single alignment contract: edges are stored sorted lexicographically
as (u, v) pairs with u < v, and the bit at position e of a Label or
Orientation word refers to the edge with canonical index e.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from .errors import InputFormatError
from .gf2 import text_to_word, word_to_text


class Graph:
    """Simple undirected graph on vertices 0..n-1 with canonical edge order.

    `edges` holds the canonical (u, v) pairs, u < v, sorted; `adjacency[v]`
    is the ascending tuple of v's neighbours.  The hash is computed once, so
    the per-graph caches keyed by graphs do not re-hash the edge tuple.
    """

    __slots__ = ("n", "edges", "adjacency", "_edge_index", "_hash")

    def __init__(self, n: int, edges: Iterable[Tuple[int, int]]):
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        canon: List[Tuple[int, int]] = []
        for pair in edges:
            u, v = pair
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if u > v:
                u, v = v, u
                pair = (u, v)
            elif type(pair) is not tuple:
                pair = (u, v)
            # else the caller's tuple is already canonical and is kept as is
            if not (0 <= u < v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            canon.append(pair)
        canon.sort()
        for i in range(1, len(canon)):
            if canon[i] == canon[i - 1]:
                raise ValueError(f"duplicate edge {canon[i]}")
        self.n = n
        self.edges: Tuple[Tuple[int, int], ...] = tuple(canon)
        # Edges are sorted, so appending in edge order keeps each list ascending.
        adj: List[List[int]] = [[] for _ in range(n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        self.adjacency: Tuple[Tuple[int, ...], ...] = tuple(map(tuple, adj))
        self._edge_index: Dict[Tuple[int, int], int] = {
            pair: e for e, pair in enumerate(self.edges)
        }
        self._hash = hash((n, self.edges))

    @property
    def m(self) -> int:
        return len(self.edges)

    def edge_index(self, u: int, v: int) -> int:
        if u > v:
            u, v = v, u
        try:
            return self._edge_index[(u, v)]
        except KeyError:
            raise ValueError(f"no edge ({u},{v})") from None

    def has_edge(self, u: int, v: int) -> bool:
        if u > v:
            u, v = v, u
        return (u, v) in self._edge_index

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, Graph) and self.n == other.n and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _check_bits(graph: Graph, bits: int) -> None:
    if not 0 <= bits < (1 << graph.m):
        raise ValueError(f"bit word 0b{bits:b} does not fit {graph.m} edges")


def _edge_word(graph: Graph, text: str, what: str) -> int:
    """The word of a text with one 0/1 character per edge."""
    if len(text) == graph.m:
        try:
            return text_to_word(text)
        except ValueError:
            pass
    raise InputFormatError(f"{what} must be {graph.m} characters of 0/1, got {text!r}")


@dataclass(frozen=True)
class Label:
    """One bit per canonical edge index."""

    graph: Graph
    bits: int

    def __post_init__(self) -> None:
        _check_bits(self.graph, self.bits)

    def bit(self, e: int) -> int:
        return (self.bits >> e) & 1

    def to_string(self) -> str:
        return word_to_text(self.bits, self.graph.m)

    @classmethod
    def from_string(cls, graph: Graph, text: str) -> "Label":
        return cls(graph, _edge_word(graph, text, "label string"))


@dataclass(frozen=True)
class Orientation:
    """Edge directions as flip bits against the canonical (u, v), u < v.

    Flip bit 0 means the arc runs u -> v; 1 means v -> u.
    """

    graph: Graph
    flips: int

    def __post_init__(self) -> None:
        _check_bits(self.graph, self.flips)

    def to_string(self) -> str:
        return word_to_text(self.flips, self.graph.m)

    @classmethod
    def from_string(cls, graph: Graph, text: str) -> "Orientation":
        return cls(graph, _edge_word(graph, text.strip(), "orientation"))


def parse_labeled_graph(text: str) -> Tuple[Graph, Label]:
    """Parse the .ilg format: "n m" then m lines "u v b" with 0 <= u < v < n."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise InputFormatError("empty graph file")
    head = lines[0].split()
    if len(head) != 2:
        raise InputFormatError(f"header must be 'n m', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise InputFormatError(f"header must be two integers, got {lines[0]!r}") from None
    if len(lines) - 1 != m:
        raise InputFormatError(f"expected {m} edge lines, found {len(lines) - 1}")
    pairs: List[Tuple[int, int]] = []
    labeled: Dict[Tuple[int, int], int] = {}
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3:
            raise InputFormatError(f"edge line must be 'u v b', got {ln!r}")
        try:
            u, v, b = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            raise InputFormatError(f"edge line must be integers, got {ln!r}") from None
        if u == v:
            raise InputFormatError(f"loop at vertex {u}")
        if not 0 <= u < v < n:
            raise InputFormatError(f"edge ({u},{v}) violates 0 <= u < v < {n}")
        if b not in (0, 1):
            raise InputFormatError(f"label bit must be 0 or 1, got {b}")
        if (u, v) in labeled:
            raise InputFormatError(f"duplicate edge ({u},{v})")
        pairs.append((u, v))
        labeled[(u, v)] = b
    graph = Graph(n, pairs)
    bits = 0
    for e, pair in enumerate(graph.edges):
        if labeled[pair]:
            bits |= 1 << e
    return graph, Label(graph, bits)


def serialize_labeled_graph(graph: Graph, label: Label) -> str:
    if label.graph != graph:
        raise ValueError("label belongs to a different graph")
    out = [f"{graph.n} {graph.m}"]
    for e, (u, v) in enumerate(graph.edges):
        out.append(f"{u} {v} {label.bit(e)}")
    return "\n".join(out)


def parse_labeled_graphs(text: str) -> List[Tuple[Graph, Label]]:
    """Parse a collection file: .ilg blocks separated by blank lines."""
    blocks: List[List[str]] = [[]]
    for raw in text.splitlines():
        if raw.strip():
            blocks[-1].append(raw)
        elif blocks[-1]:
            blocks.append([])
    return [parse_labeled_graph("\n".join(b)) for b in blocks if b]


def relabel(graph: Graph, perm: Sequence[int]) -> Graph:
    """Apply a vertex permutation and re-canonicalize."""
    return Graph(graph.n, [(perm[u], perm[v]) for u, v in graph.edges])


def relabel_label(graph: Graph, label: Label, perm: Sequence[int]) -> Label:
    new_graph = relabel(graph, perm)
    bits = 0
    for e, (u, v) in enumerate(graph.edges):
        if label.bit(e):
            bits |= 1 << new_graph.edge_index(perm[u], perm[v])
    return Label(new_graph, bits)


__all__ = [
    "Graph",
    "Label",
    "Orientation",
    "parse_labeled_graph",
    "serialize_labeled_graph",
    "parse_labeled_graphs",
    "relabel",
    "relabel_label",
]
