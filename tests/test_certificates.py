import pytest

from invdiam import certificates
from invdiam.assignment import min_dim, solve
from invdiam.certificates import check_certificate, refute
from invdiam.family import build_family
from invdiam.graph import Graph, Label, serialize_labeled_graph


class TestRefute:
    def test_agrees_with_min_dim(self, corpus_n5):
        for _, g in corpus_n5:
            for bits in range(0, 1 << g.m, 7):
                label = Label(g, bits)
                d = min_dim(g, label, g.m)
                if d > 0:
                    assert refute(g, label, d - 1) is True
                assert refute(g, label, d) is False

    def test_deep_family_graph(self):
        # Stage 4 of the k=2 family has 3282 vertices: the search must go
        # that deep without the call stack.
        lg = build_family(2, 4)
        assert refute(lg.graph, lg.label, 3) is True
        assert refute(lg.graph, lg.label, 4) is False

    def test_empty_graph_has_an_assignment(self):
        assert refute(Graph(0, []), Label(Graph(0, []), 0), 1) is False

    def test_node_cap_leaves_the_claim_undecided(self, monkeypatch):
        lg = build_family(2, 3)
        monkeypatch.setattr(certificates, "REFUTE_NODE_CAP", 10)
        assert refute(lg.graph, lg.label, 3) is None


def _unsat_doc(graph, label, t):
    return {
        "kind": "assign",
        "graph": serialize_labeled_graph(graph, label),
        "label": label.to_string(),
        "t": t,
        "assignment": None,
        "verdict": "unsat",
    }


def _padded_mindim_doc(graph, label, t, padded_t):
    """A mindim certificate claiming padded_t, with a t-dimensional witness
    zero-padded to padded_t."""
    witness = solve(graph, label, t)
    return {
        "kind": "mindim",
        "graph": serialize_labeled_graph(graph, label),
        "label": label.to_string(),
        "t": padded_t,
        "t_max": padded_t,
        "assignment": [w + "0" * (padded_t - t) for w in witness.to_strings()],
        "verdict": "sat",
    }


class TestUndecidedClaims:
    """Claims the refuter cannot decide are accepted with a note."""

    def test_above_max_dim(self):
        # A 10-edge matching labelled all ones has weight 10, so the claim
        # at t = 9 is neither refuted by the weight nor re-searched.
        g = Graph(20, [(2 * i, 2 * i + 1) for i in range(10)])
        doc = _unsat_doc(g, Label(g, (1 << 10) - 1), certificates.REFUTE_MAX_DIM + 1)
        assert check_certificate(doc) == (
            True, "assign", ["unsat verdict accepted without re-search"]
        )

    def test_node_cap_hit(self, monkeypatch):
        lg = build_family(2, 3)
        monkeypatch.setattr(certificates, "REFUTE_NODE_CAP", 10)
        valid, _, notes = check_certificate(_unsat_doc(lg.graph, lg.label, 3))
        assert valid and notes == ["unsat verdict accepted without re-search"]

    def test_least_dimension_above_the_weight_is_invalid(self):
        # C4 with label 0101 needs 2 dimensions; its weight is 2, so the
        # lower bound 9 is false even though 9 is too high for the refuter.
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        doc = _padded_mindim_doc(g, Label.from_string(g, "0101"), 2, 10)
        assert check_certificate(doc) == (
            False, "mindim", ["FAIL: lower bound: a 9-dimensional assignment exists"]
        )

    def test_undecided_lower_bound_is_noted(self):
        # A 10-edge matching labelled all ones needs 1 dimension, but a
        # claim of 10 is within its weight and cannot be re-searched.
        g = Graph(20, [(2 * i, 2 * i + 1) for i in range(10)])
        doc = _padded_mindim_doc(g, Label(g, (1 << 10) - 1), 1, 10)
        assert check_certificate(doc) == (
            True, "mindim", ["lower bound accepted without re-search"]
        )

    @pytest.mark.parametrize("t", [-1, "3", 9.5, True])
    def test_malformed_dimension_is_invalid(self, t):
        g = Graph(2, [(0, 1)])
        valid, _, notes = check_certificate(_unsat_doc(g, Label(g, 1), t))
        assert not valid and notes[-1].startswith("FAIL: malformed certificate")
