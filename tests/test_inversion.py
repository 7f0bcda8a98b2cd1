import random
from collections import deque
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from invdiam import inversion
from invdiam.errors import BudgetExceededError, InvariantError
from invdiam.graph import Graph, Orientation
from invdiam.inversion import (
    _distances_from_zero,
    bfs_all_distances,
    bfs_diameter,
    diff_label,
    invert,
    inversion_moves,
    inversion_word,
)


def complete(n):
    return Graph(n, combinations(range(n), 2))


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def distance_by_bfs(graph, o1, o2):
    """Distance from o1 to o2: XOR by a fixed word is an automorphism of the
    orientation graph, so it is the distance of o1 ^ o2 from zero."""
    return bfs_all_distances(graph)[o1.flips ^ o2.flips]


def oracle_distance(graph, o1, o2):
    """Independent BFS: neighbors generated by trying every vertex subset."""
    subsets = [inversion_word(graph, [v for v in range(graph.n) if (x >> v) & 1])
               for x in range(1 << graph.n)]
    dist = {o1.flips: 0}
    frontier = [o1.flips]
    while o2.flips not in dist:
        nxt = []
        for state in frontier:
            for w in subsets:
                s2 = state ^ w
                if s2 != state and s2 not in dist:
                    dist[s2] = dist[state] + 1
                    nxt.append(s2)
        frontier = nxt
        assert frontier, "disconnected"
    return dist[o2.flips]


class TestInvert:
    def test_empty_set(self):
        g = path(3)
        o = Orientation(g, 0b10)
        assert invert(o, set()) == o

    def test_k2_full(self):
        g = Graph(2, [(0, 1)])
        assert invert(Orientation(g, 0), {0, 1}).flips == 1

    def test_p3_prefix(self):
        g = path(3)
        o = invert(Orientation(g, 0), {0, 1})
        assert o.flips == 1 << g.edge_index(0, 1)

    def test_involution(self):
        rng = random.Random(3)
        g = cycle(5)
        for _ in range(30):
            o = Orientation(g, rng.getrandbits(g.m))
            x = {v for v in range(g.n) if rng.random() < 0.5}
            assert invert(invert(o, x), x) == o


class TestDiffLabel:
    def test_equal(self):
        g = path(3)
        o = Orientation(g, 0b01)
        assert diff_label(o, o).bits == 0

    def test_single_edge(self):
        g = path(3)
        assert diff_label(Orientation(g, 0), Orientation(g, 0b10)).bits == 0b10

    def test_matches_inversion_word(self):
        g = complete(4)
        rng = random.Random(4)
        for _ in range(20):
            o = Orientation(g, rng.getrandbits(g.m))
            x = {v for v in range(4) if rng.random() < 0.5}
            assert diff_label(o, invert(o, x)).bits == inversion_word(g, x)

    def test_commutes_with_invert(self):
        g = cycle(4)
        rng = random.Random(8)
        for _ in range(20):
            o1 = Orientation(g, rng.getrandbits(g.m))
            o2 = Orientation(g, rng.getrandbits(g.m))
            x = {v for v in range(4) if rng.random() < 0.5}
            assert diff_label(invert(o1, x), invert(o2, x)) == diff_label(o1, o2)

    def test_graph_mismatch(self):
        with pytest.raises(ValueError):
            diff_label(Orientation(path(3), 0), Orientation(cycle(3), 0))


class TestMoves:
    def test_k2(self):
        assert inversion_moves(Graph(2, [(0, 1)])) == (1,)

    def test_disconnected_product(self):
        # Two disjoint edges: either, or both, can be flipped at once.
        g = Graph(4, [(0, 1), (2, 3)])
        assert inversion_moves(g) == (0b01, 0b10, 0b11)


class TestDistance:
    def test_zero(self):
        g = cycle(4)
        o = Orientation(g, 0b1010)
        assert distance_by_bfs(g, o, o) == 0

    def test_single_edge_flip(self):
        g = path(4)
        assert distance_by_bfs(g, Orientation(g, 0), Orientation(g, 0b100)) == 1

    def test_c4_opposite_pair(self):
        g = cycle(4)
        word = (1 << g.edge_index(0, 1)) | (1 << g.edge_index(2, 3))
        o1, o2 = Orientation(g, 0), Orientation(g, word)
        assert oracle_distance(g, o1, o2) == 2
        assert distance_by_bfs(g, o1, o2) == 2

    def test_matches_oracle(self):
        rng = random.Random(17)
        for g in (path(4), cycle(5), complete(4)):
            for _ in range(10):
                o1 = Orientation(g, rng.getrandbits(g.m))
                o2 = Orientation(g, rng.getrandbits(g.m))
                assert distance_by_bfs(g, o1, o2) == oracle_distance(g, o1, o2)

    def test_metric_properties(self):
        g = cycle(4)
        rng = random.Random(23)
        orientations = [Orientation(g, rng.getrandbits(g.m)) for _ in range(6)]
        for o1 in orientations:
            for o2 in orientations:
                d12 = distance_by_bfs(g, o1, o2)
                assert d12 == distance_by_bfs(g, o2, o1)
                for o3 in orientations:
                    assert d12 <= distance_by_bfs(g, o1, o3) + distance_by_bfs(g, o3, o2)

    def test_translation_invariance(self):
        g = complete(4)
        rng = random.Random(31)
        for _ in range(10):
            o1 = Orientation(g, rng.getrandbits(g.m))
            o2 = Orientation(g, rng.getrandbits(g.m))
            shift = rng.getrandbits(g.m)
            s1 = Orientation(g, o1.flips ^ shift)
            s2 = Orientation(g, o2.flips ^ shift)
            # The oracle searches from o1 itself, so this checks the premise
            # of distance_by_bfs rather than the XOR it takes.
            assert oracle_distance(g, o1, o2) == oracle_distance(g, s1, s2)

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            bfs_all_distances(path(22))  # 21 edges


class TestDiameter:
    def test_k2(self):
        assert bfs_diameter(Graph(2, [(0, 1)])) == 1

    def test_c4(self):
        assert bfs_diameter(cycle(4)) == 2

    def test_k4(self):
        assert bfs_diameter(complete(4)) == 3

    def test_matches_eccentricity_of_every_state(self):
        # Vertex-transitivity: the all-zero eccentricity is the diameter.
        g = path(4)
        dist = bfs_all_distances(g)
        diam = bfs_diameter(g)
        for word in range(1 << g.m):
            o = Orientation(g, word)
            ecc = max(
                oracle_distance(g, o, Orientation(g, w2)) for w2 in range(1 << g.m)
            )
            assert ecc == diam

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            bfs_diameter(path(14))  # 13 edges

    @pytest.mark.parametrize("bfs", [bfs_all_distances, bfs_diameter])
    def test_unreached_word_is_an_invariant_error(self, monkeypatch, bfs):
        # With no moves the BFS reaches only the zero word.
        monkeypatch.setattr(inversion, "inversion_moves", lambda graph: ())
        with pytest.raises(InvariantError, match="disconnected"):
            bfs(path(3))


def deque_distances(graph):
    """Plain top-down BFS from the all-zero word over a queue."""
    moves = inversion_moves(graph)
    dist = [-1] * (1 << graph.m)
    dist[0] = 0
    queue = deque([0])
    while queue:
        state = queue.popleft()
        for mv in moves:
            if dist[state ^ mv] < 0:
                dist[state ^ mv] = dist[state] + 1
                queue.append(state ^ mv)
    return dist


@st.composite
def graphs(draw):
    """A random graph with at most 14 edges."""
    n = draw(st.integers(1, 8))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=14)) if pairs else []
    return Graph(n, edges)


class TestDirectionOptimizing:
    """Bottom-up layers run whenever the frontier outgrows the unreached
    words by the alpha rule (from the first layer on K2, in the last
    layers of the larger graphs); the distances are those of a queue BFS."""

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(graphs())
    @example(Graph(2, [(0, 1)]))
    @example(complete(6))
    def test_matches_queue_bfs(self, g):
        assert _distances_from_zero(g) == deque_distances(g)

