import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invdiam.errors import InputFormatError
from invdiam.graph import (
    Graph,
    Label,
    Orientation,
    parse_labeled_graph,
    parse_labeled_graphs,
    relabel,
    serialize_labeled_graph,
)


def complete(n):
    return Graph(n, combinations(range(n), 2))


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def random_graph(rng, n, p=0.4):
    edges = [e for e in combinations(range(n), 2) if rng.random() < p]
    return Graph(n, edges)


class TestParse:
    def test_k2(self):
        g, label = parse_labeled_graph("2 1\n0 1 1")
        assert g.n == 2 and g.edges == ((0, 1),)
        assert label.to_string() == "1"

    def test_triangle(self):
        g, label = parse_labeled_graph("3 3\n0 1 1\n0 2 0\n1 2 0")
        assert g.edges == ((0, 1), (0, 2), (1, 2))
        assert label.to_string() == "100"

    def test_canonicalizes_file_order(self):
        g, label = parse_labeled_graph("3 2\n1 2 1\n0 1 0")
        assert g.edges == ((0, 1), (1, 2))
        assert label.to_string() == "01"

    def test_duplicate_edge(self):
        with pytest.raises(InputFormatError, match="duplicate"):
            parse_labeled_graph("2 2\n0 1 0\n0 1 1")

    def test_loop(self):
        with pytest.raises(InputFormatError, match="loop"):
            parse_labeled_graph("2 1\n1 1 0")

    def test_out_of_range(self):
        with pytest.raises(InputFormatError):
            parse_labeled_graph("2 1\n0 2 0")
        with pytest.raises(InputFormatError):
            parse_labeled_graph("3 1\n1 0 0")  # requires u < v

    def test_malformed(self):
        with pytest.raises(InputFormatError):
            parse_labeled_graph("2 1\n0 1")
        with pytest.raises(InputFormatError):
            parse_labeled_graph("")
        with pytest.raises(InputFormatError):
            parse_labeled_graph("2 2\n0 1 1")
        with pytest.raises(InputFormatError):
            parse_labeled_graph("2 1\n0 1 2")

    def test_collection(self):
        text = "2 1\n0 1 1\n\n3 1\n0 2 0\n"
        parsed = parse_labeled_graphs(text)
        assert [g.n for g, _ in parsed] == [2, 3]
        assert parse_labeled_graphs("") == []


class TestSerialize:
    def test_k2(self):
        g = Graph(2, [(0, 1)])
        assert serialize_labeled_graph(g, Label(g, 1)) == "2 1\n0 1 1"

    def test_triangle_zero(self):
        g = complete(3)
        text = serialize_labeled_graph(g, Label(g, 0))
        assert text.splitlines()[1:] == ["0 1 0", "0 2 0", "1 2 0"]

    def test_round_trip_random(self):
        rng = random.Random(99)
        for _ in range(100):
            g = random_graph(rng, rng.randrange(1, 11))
            label = Label(g, rng.getrandbits(g.m))
            text = serialize_labeled_graph(g, label)
            g2, label2 = parse_labeled_graph(text)
            assert g2 == g and label2.bits == label.bits
            assert serialize_labeled_graph(g2, label2) == text


class TestGraph:
    def test_edge_index_inverse(self):
        g = cycle(5)
        for e, (u, v) in enumerate(g.edges):
            assert g.edge_index(u, v) == e
            assert g.edge_index(v, u) == e

    def test_missing_edge(self):
        g = path(3)
        with pytest.raises(ValueError):
            g.edge_index(0, 2)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 0)])
        with pytest.raises(ValueError):
            Graph(3, [(0, 1), (1, 0)])
        with pytest.raises(ValueError):
            Graph(2, [(0, 2)])

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_adjacency_is_ascending_neighbours(self, data):
        n = data.draw(st.integers(0, 12))
        pairs = list(combinations(range(n), 2))
        pairs = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        # Pairs arrive shuffled, as tuples, reversed tuples or lists.
        forms = st.sampled_from([lambda u, v: (u, v), lambda u, v: (v, u), lambda u, v: [u, v]])
        given_pairs = data.draw(st.permutations([data.draw(forms)(u, v) for u, v in pairs]))
        g = Graph(n, given_pairs)
        assert g.edges == tuple(sorted(pairs))
        for v in range(n):
            want = tuple(sorted(a + b - v for a, b in g.edges if v in (a, b)))
            assert type(g.adjacency[v]) is tuple and g.adjacency[v] == want
        for e, (u, v) in enumerate(g.edges):
            assert g.edge_index(v, u) == e
        # The edge index is keyed by the stored edge tuples themselves.
        assert all(key is pair for key, pair in zip(g._edge_index, g.edges))
        # The hash, computed once when a graph is built, ignores the order
        # and orientation of the given pairs.
        canonical = Graph(n, pairs)
        assert g == canonical and hash(g) == hash(canonical)

    def test_orientation_strings(self):
        g = path(3)
        o = Orientation.from_string(g, "10\n")
        assert o.to_string() == "10"
        with pytest.raises(InputFormatError):
            Orientation.from_string(g, "101")


class TestRelabel:
    def test_preserves_degree_multiset(self):
        rng = random.Random(11)
        for _ in range(30):
            g = random_graph(rng, 7)
            perm = list(range(7))
            rng.shuffle(perm)
            g2 = relabel(g, perm)
            assert g2.m == g.m
            degs = sorted(g.degree(v) for v in range(7))
            degs2 = sorted(g2.degree(v) for v in range(7))
            assert degs == degs2
