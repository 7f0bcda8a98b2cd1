from __future__ import annotations

from pathlib import Path

import pytest

from invdiam import assignment
from invdiam.graph import parse_labeled_graph, parse_labeled_graphs

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def corpus_n5():
    """Isomorph-free connected graphs on <= 5 vertices with <= 8 edges."""
    graphs = []
    for path in sorted((FIXTURES / "corpus_n5").glob("*.ilg")):
        graph, _ = parse_labeled_graph(path.read_text())
        graphs.append((path.name, graph))
    assert len(graphs) == 29
    return graphs


@pytest.fixture(scope="session")
def outerplanar_corpus():
    graphs = []
    for path in sorted((FIXTURES / "outerplanar").glob("*.ilg")):
        for graph, _ in parse_labeled_graphs(path.read_text()):
            graphs.append(graph)
    return graphs


@pytest.fixture
def lost_witness(monkeypatch):
    """Break the invariant that a label's min_dim has a witness: every
    search without `prefer` reports no assignment."""
    least = assignment._least

    def broken(ctx, bits, t_lo, t_hi, prefer=None, deadline=None):
        if prefer is None:
            return None, None
        return least(ctx, bits, t_lo, t_hi, prefer, deadline)

    monkeypatch.setattr(assignment, "_least", broken)
