import pytest

from invdiam import certificates
from invdiam.assignment import min_dim
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


class TestUndecidedClaims:
    """Claims the refuter cannot decide keep the note they had before."""

    def test_above_max_dim(self):
        g = Graph(2, [(0, 1)])
        doc = _unsat_doc(g, Label(g, 1), certificates.REFUTE_MAX_DIM + 1)
        assert check_certificate(doc) == (
            True, "assign", ["unsat verdict accepted without re-search"]
        )

    def test_node_cap_hit(self, monkeypatch):
        lg = build_family(2, 3)
        monkeypatch.setattr(certificates, "REFUTE_NODE_CAP", 10)
        valid, _, notes = check_certificate(_unsat_doc(lg.graph, lg.label, 3))
        assert valid and notes == ["unsat verdict accepted without re-search"]

    @pytest.mark.parametrize("t", [-1, "3"])
    def test_malformed_dimension_is_invalid(self, t):
        g = Graph(2, [(0, 1)])
        valid, _, notes = check_certificate(_unsat_doc(g, Label(g, 1), t))
        assert not valid and notes[-1].startswith("FAIL: malformed certificate")
