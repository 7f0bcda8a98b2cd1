import dataclasses
import functools
import operator
import random
from itertools import combinations

import pytest

from invdiam import family
from invdiam.assignment import Assignment, enumerate_assignments, min_dim, solve
from invdiam.errors import BudgetExceededError, InputFormatError
from invdiam.family import (
    BadCliqueReport,
    CliqueRecord,
    LeveledGraph,
    ProbeReport,
    build_family,
    is_k_tree,
    probe_bad_cliques,
    probe_clique_independence,
    probe_extension_dichotomy,
    projected_family_size,
    reconstruct_leveled,
)
from invdiam.gf2 import dot_bits
from invdiam.graph import Graph, Label, parse_labeled_graph, serialize_labeled_graph


def complete(n):
    return Graph(n, combinations(range(n), 2))


def count_k_cliques(graph, k):
    """Independent clique counter by direct enumeration."""
    return sum(
        1
        for verts in combinations(range(graph.n), k)
        if all(graph.has_edge(u, v) for u, v in combinations(verts, 2))
    )


def _dict_family(k, m, init_bits):
    """The stage-m family built through a dict from each edge to its label
    bit: (edges, label bits, levels, cliques as (vertices, level, children))."""
    base_edges = list(combinations(range(k), 2))
    edge_bits = {pair: (init_bits >> i) & 1 for i, pair in enumerate(base_edges)}
    levels = [0] * k
    registry = [(tuple(range(k)), 0, [])]
    n = k
    for stage in range(1, m + 1):
        for ci in range(len(registry)):
            vertices, _, children = registry[ci]
            for pattern in range(1 << k):
                u = n
                n += 1
                levels.append(stage)
                for j, v in enumerate(vertices):
                    edge_bits[(v, u)] = (pattern >> j) & 1
                children.append((u, stage))
                for keep in combinations(vertices, k - 1):
                    registry.append((tuple(sorted(keep + (u,))), stage, []))
    graph = Graph(n, edge_bits.keys())
    bits = 0
    for pair, b in edge_bits.items():
        if b:
            bits |= 1 << graph.edge_index(*pair)
    return graph.edges, bits, tuple(levels), [(v, lv, tuple(c)) for v, lv, c in registry]


class TestBuild:
    @pytest.mark.parametrize("k, m", [(k, m) for k in (1, 2, 3) for m in range(4)])
    def test_same_as_dict_builder(self, k, m):
        for init_bits in range(1 << (k * (k - 1) // 2)):
            lg = build_family(k, m, init_bits)
            edges, bits, levels, registry = _dict_family(k, m, init_bits)
            assert lg.graph.edges == edges and lg.label.bits == bits
            assert lg.levels == levels
            assert [(c.vertices, c.level, c.children) for c in lg.cliques] == registry

    @pytest.mark.parametrize("k, m", [(1, 2), (2, 2), (3, 1), (4, 1)])
    def test_initial_labels_share_one_stage(self, k, m):
        """Every initial label gets the same Graph, levels and registry
        objects, and a label word that differs from the zero label's only on
        the K_k edges, by the initial label."""
        zero = build_family(k, m, 0)
        base = [zero.graph.edge_index(u, v) for u, v in combinations(range(k), 2)]
        for init_bits in range(1 << len(base)):
            lg = build_family(k, m, init_bits)
            assert lg.graph is zero.graph
            assert lg.cliques is zero.cliques and lg.levels is zero.levels
            assert lg.label.bits ^ zero.label.bits == sum(
                1 << e for i, e in enumerate(base) if (init_bits >> i) & 1
            )

    def test_shared_records_are_immutable(self):
        rec = build_family(2, 2).cliques[0]
        assert type(rec.children) is tuple
        with pytest.raises(dataclasses.FrozenInstanceError):
            rec.level = 5
        with pytest.raises(dataclasses.FrozenInstanceError):
            rec.children = ()

    def test_m0_is_base_clique(self):
        lg = build_family(2, 0, "1")
        assert lg.graph.n == 2 and lg.graph.m == 1
        assert lg.label.to_string() == "1"
        assert lg.levels == (0, 0)

    def test_k1_m1(self):
        lg = build_family(1, 1)
        assert lg.graph.n == 3 and lg.graph.m == 2
        # One child per boundary pattern: a 0-labeled and a 1-labeled edge.
        assert sorted(lg.label.bit(e) for e in range(2)) == [0, 1]

    def test_k2_m1(self):
        lg = build_family(2, 1)
        assert lg.graph.n == 6 and lg.graph.m == 9

    def test_vertex_recurrence_vs_clique_counter(self):
        for k, m_max in ((1, 3), (2, 2), (3, 1)):
            previous = None
            for m in range(m_max + 1):
                lg = build_family(k, m)
                if previous is not None:
                    expected = previous.graph.n + (
                        count_k_cliques(previous.graph, k) << k
                    )
                    assert lg.graph.n == expected
                # The registry holds exactly the k-cliques of the graph.
                assert len(lg.cliques) == count_k_cliques(lg.graph, k)
                previous = lg

    def test_registry_entries_are_cliques_with_levels(self):
        lg = build_family(2, 2)
        for rec in lg.cliques:
            for u, v in combinations(rec.vertices, 2):
                assert lg.graph.has_edge(u, v)
            assert rec.level == max(lg.levels[v] for v in rec.vertices)

    def test_level_restriction_is_prefix(self):
        full = build_family(2, 2, "1")
        for i in (0, 1):
            part = build_family(2, i, "1")
            keep = [v for v in range(full.graph.n) if full.levels[v] <= i]
            assert keep == list(range(part.graph.n))
            sub_edges = [
                (u, v) for (u, v) in full.graph.edges if full.levels[u] <= i and full.levels[v] <= i
            ]
            assert tuple(sub_edges) == part.graph.edges
            for e, (u, v) in enumerate(part.graph.edges):
                assert part.label.bit(e) == full.label.bit(full.graph.edge_index(u, v))
            assert part.levels == full.levels[: part.graph.n]

    def test_guard(self):
        with pytest.raises(BudgetExceededError):
            build_family(2, 6)
        # One stage under the guard still builds.
        assert projected_family_size(2, 5) == (29526, 59049, 59049)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            build_family(0, 1)
        with pytest.raises(ValueError):
            build_family(1, -1)
        with pytest.raises(ValueError):
            build_family(2, 1, "11")


class TestIsKTree:
    def test_base_cliques(self):
        for k in (1, 2, 3):
            assert is_k_tree(complete(k), k)

    def test_families_are_k_trees(self):
        for k, m in ((1, 3), (2, 2), (3, 1)):
            assert is_k_tree(build_family(k, m).graph, k)

    def test_c4_is_not_a_tree(self):
        assert not is_k_tree(Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]), 1)

    def test_k4_is_not_a_2_tree(self):
        assert not is_k_tree(complete(4), 2)

    def test_k3_as_2_tree(self):
        assert is_k_tree(complete(3), 2)

    def test_path_is_1_tree(self):
        assert is_k_tree(Graph(3, [(0, 1), (1, 2)]), 1)


class TestProbes:
    def test_k1_m1_root_nonzero(self):
        lg = build_family(1, 1)
        found = list(enumerate_assignments(lg.graph, lg.label, 1, 100))
        assert found  # the label is satisfiable in one dimension
        for f in found:
            report = probe_clique_independence(lg, f)
            assert report.passed and report.checked == 1
            assert f.words[0] != 0

    def test_k2_m1_base_pair_independent(self):
        lg = build_family(2, 1)
        for f in enumerate_assignments(lg.graph, lg.label, 3, 500):
            assert probe_clique_independence(lg, f).passed

    def test_dimension_contract(self):
        lg = build_family(1, 1)
        f = next(enumerate_assignments(lg.graph, lg.label, 1, 1))
        padded = Assignment.from_bits(lg.graph, 2, f.bits())
        with pytest.raises(ValueError, match="dimension"):
            probe_clique_independence(lg, padded)

    def test_invalid_assignment_rejected(self):
        lg = build_family(1, 1)
        bad = Assignment.from_bits(lg.graph, 1, [0] * 3)
        with pytest.raises(ValueError, match="label"):
            probe_extension_dichotomy(lg, bad)

    def test_dichotomy_vacuous_at_m1(self):
        lg = build_family(2, 1)
        f = next(enumerate_assignments(lg.graph, lg.label, 3, 1))
        report = probe_extension_dichotomy(lg, f)
        assert report.passed and report.checked == 0

    def test_dichotomy_k2_m2(self):
        lg = build_family(2, 2)
        for f in enumerate_assignments(lg.graph, lg.label, 3, 200):
            report = probe_extension_dichotomy(lg, f)
            assert report.passed
            assert report.checked == 4  # base clique, its four children


def _span(words):
    span = {0}
    for w in words:
        span |= {x ^ w for x in span}
    return span


def _reference_rank(words):
    return len(_span(words)).bit_length() - 1


def _reference_independence(lg, f):
    """Reference clique independence probe: filters lg.cliques on each call
    and takes ranks from listed spans."""
    bits = f.words
    checked = 0
    failures = []
    for clique in lg.cliques:
        if clique.level > lg.m - 1:
            continue
        checked += 1
        if _reference_rank([bits[v] for v in clique.vertices]) != lg.k:
            failures.append((clique.vertices,))
    return ProbeReport("clique_independence", checked, tuple(failures))


def _reference_dichotomy(lg, f):
    """Reference extension dichotomy probe: filters lg.cliques on each call
    and takes ranks from listed spans."""
    bits = f.words
    checked = 0
    failures = []
    for clique in lg.cliques:
        if clique.level > lg.m - 2:
            continue
        base = [bits[v] for v in clique.vertices]
        total = 0
        for b in base:
            total ^= b
        for child, stage in clique.children:
            if stage != clique.level + 1:
                continue
            checked += 1
            cw = bits[child]
            if cw != total and _reference_rank(base + [cw]) != lg.k + 1:
                failures.append((clique.vertices, (child,)))
    return ProbeReport("extension_dichotomy", checked, tuple(failures))


def _reference_bad_cliques(lg, f):
    """Sub-cliques whose span V has |V intersect V-perp| >= 2^(|C|-1), by
    listing V."""
    subsets = set()
    for clique in lg.cliques:
        for p in range(1, len(clique.vertices) + 1):
            subsets.update(combinations(clique.vertices, p))
    bad = []
    for sub in sorted(subsets, key=lambda s: (len(s), s)):
        span = _span([f.words[v] for v in sub])
        radical = [x for x in span if all(dot_bits(x, y) == 0 for y in span)]
        if len(radical) >= 1 << (len(sub) - 1):
            bad.append(sub)
    return BadCliqueReport(len(subsets), tuple(bad))


def _probe_cases():
    for k, m in ((1, 1), (2, 1), (2, 2), (3, 1), (3, 2)):
        lg = build_family(k, m)
        # Claiming one stage more makes the unexpanded cliques count as
        # expanded: a family the lemmas do not cover, so probes fail.
        for fam in (lg, dataclasses.replace(lg, m=m + 1)):
            for f in enumerate_assignments(fam.graph, fam.label, 2 * k - 1, 40):
                yield fam, f


class TestProbesAgainstReference:
    def test_same_reports(self):
        failing = 0
        for lg, f in _probe_cases():
            ind = probe_clique_independence(lg, f)
            assert ind == _reference_independence(lg, f)
            dich = probe_extension_dichotomy(lg, f)
            assert dich == _reference_dichotomy(lg, f)
            assert probe_bad_cliques(lg, f) == _reference_bad_cliques(lg, f)
            failing += bool(ind.failures) + bool(dich.failures)
        assert failing > 0

    @pytest.mark.parametrize("k, m", [(1, 2), (2, 2), (3, 1), (4, 1), (5, 1)])
    def test_word_parallel_reports_match_reference(self, k, m):
        """At t = 2k-1 (two-byte slots at k = 5), on the family's own
        registry and with one stage more claimed: at stage m = 1 only the
        base clique is expanded.  Words come from random subspaces, and
        some children get the sum of their clique, so both probes fail on
        some cliques and the dichotomy meets children equal to the sum."""
        rng = random.Random(k)
        t = 2 * k - 1
        stage = build_family(k, m)
        g = stage.graph
        seen = {"failures": 0, "passes": 0, "sums": 0}
        for _ in range(30):
            basis = [rng.getrandbits(t) for _ in range(rng.randint(1, t))]
            words = [
                functools.reduce(operator.xor, (b for b in basis if rng.getrandbits(1)), 0)
                for _ in range(g.n)
            ]
            for c in stage.cliques:
                total = functools.reduce(operator.xor, (words[v] for v in c.vertices))
                for u, _ in c.children:
                    if rng.random() < 0.2:
                        words[u] = total
                        seen["sums"] += 1
            bits = sum(dot_bits(words[u], words[v]) << e for e, (u, v) in enumerate(g.edges))
            f = Assignment(g, t, tuple(words))
            for claimed in (m, m + 1):
                lg = LeveledGraph(g, Label(g, bits), stage.levels, k, claimed, stage.cliques)
                for probe, reference in (
                    (probe_clique_independence, _reference_independence),
                    (probe_extension_dichotomy, _reference_dichotomy),
                ):
                    report = probe(lg, f)
                    assert report == reference(lg, f)
                    seen["failures" if report.failures else "passes"] += 1
        assert min(seen.values()) > 0, seen
        if m == 1:
            assert len(stage.independence_slots.entries) == 1

    @staticmethod
    def _hand_built(m, vectors, label_bits):
        """K2 on {0, 1}, with child 2 at stage 1 if three vectors are given."""
        n = len(vectors)
        graph = Graph(n, combinations(range(n), 2))
        cliques = [CliqueRecord((0, 1), 0, ((2, 1),) if n == 3 else ())]
        if n == 3:
            cliques += [CliqueRecord((0, 2), 1), CliqueRecord((1, 2), 1)]
        lg = LeveledGraph(graph, Label(graph, label_bits), (0, 0, 1)[:n], 2, m, tuple(cliques))
        return lg, Assignment.from_strings(graph, vectors)

    def test_k2_registered_at_m1_without_children(self):
        lg, f = self._hand_built(1, ["110", "110"], 0)
        assert probe_clique_independence(lg, f) == ProbeReport(
            "clique_independence", 1, (((0, 1),),)
        )
        assert probe_extension_dichotomy(lg, f) == ProbeReport("extension_dichotomy", 0, ())

    def test_dependent_child_fails_both_probes(self):
        # Edges (0,1), (0,2), (1,2): 100.010 = 0, 100.100 = 1, 010.100 = 0.
        lg, f = self._hand_built(2, ["100", "010", "100"], 0b010)
        ind = probe_clique_independence(lg, f)
        dich = probe_extension_dichotomy(lg, f)
        assert ind == ProbeReport("clique_independence", 3, (((0, 2),),))
        assert dich == ProbeReport("extension_dichotomy", 1, (((0, 1), (2,)),))
        assert (ind, dich) == (_reference_independence(lg, f), _reference_dichotomy(lg, f))

    def test_child_equal_to_the_sum_passes(self):
        # The child 110 is the sum of 100 and 010: 100.110 = 1, 010.110 = 1.
        lg, f = self._hand_built(2, ["100", "010", "110"], 0b110)
        assert probe_extension_dichotomy(lg, f) == ProbeReport("extension_dichotomy", 1, ())


class TestBadCliques:
    def test_single_vertex_always_bad(self):
        lg = build_family(2, 0)
        f = Assignment.from_strings(lg.graph, ["100", "010"])
        report = probe_bad_cliques(lg, f)
        assert (0,) in report.bad and (1,) in report.bad

    def test_k2_odd_vectors_not_bad(self):
        lg = build_family(2, 0)  # zero label: 100 . 010 = 0
        f = Assignment.from_strings(lg.graph, ["100", "010"])
        assert (0, 1) not in probe_bad_cliques(lg, f).bad

    def test_k2_even_vectors_not_bad(self):
        lg = build_family(2, 0, "1")  # 110 . 011 = 1
        f = Assignment.from_strings(lg.graph, ["110", "011"])
        assert (0, 1) not in probe_bad_cliques(lg, f).bad

    def test_self_orthogonal_pair_is_bad(self):
        lg = build_family(2, 0)  # 110 . 101 = 1? no: overlap 100 -> 1; use orthogonal evens
        f = Assignment.from_strings(lg.graph, ["000", "110"])  # dot = 0, V = {0, 110}
        report = probe_bad_cliques(lg, f)
        assert (0, 1) in report.bad


class TestScan:
    # Per-level solvability of the k=1 family at a fixed dimension t.
    def test_k1_t1(self):
        verdicts = [solve(*_gl(1, m), 1) is not None for m in range(3)]
        assert verdicts == [True, True, False]

    def test_k1_t2_all_sat(self):
        assert all(solve(*_gl(1, m), 2) is not None for m in range(5))


class TestMinDimGrowth:
    def test_k1_family_min_dims(self):
        assert min_dim(*_gl(1, 0), 4) == 0
        assert min_dim(*_gl(1, 1), 4) == 1
        assert min_dim(*_gl(1, 2), 4) == 2

    def test_k1_m2_one_dim_refutation(self):
        # Independent oracle: all 2^9 one-dimensional assignments fail.
        lg = build_family(1, 2)
        g, lab = lg.graph, lg.label
        for words in range(1 << g.n):
            ok = all(
                dot_bits((words >> u) & 1, (words >> v) & 1) == lab.bit(e)
                for e, (u, v) in enumerate(g.edges)
            )
            assert not ok
        assert solve(g, lab, 2) is not None


def _gl(k, m):
    lg = build_family(k, m)
    return lg.graph, lg.label


def _swapped(lg, a, b):
    """The graph and label of lg with vertices a and b swapped."""
    swap = {a: b, b: a}
    pairs = [(swap.get(u, u), swap.get(v, v)) for u, v in lg.graph.edges]
    graph = Graph(lg.graph.n, pairs)
    bits = sum(lg.label.bit(e) << graph.edge_index(*p) for e, p in enumerate(pairs))
    return graph, Label(graph, bits)


class TestReconstruct:
    def test_round_trip(self):
        """Every family a parsed graph file describes rebuilds to the shared
        stage, whatever its initial label."""
        stages = [(1, m) for m in range(4)] + [(k, m) for k in (2, 3) for m in range(3)]
        for k, m in stages:
            for initial in range(1 << (k * (k - 1) // 2)):
                lg = build_family(k, m, initial)
                graph, label = parse_labeled_graph(serialize_labeled_graph(lg.graph, lg.label))
                rebuilt = reconstruct_leveled(graph, label, list(lg.levels))
                assert rebuilt.graph is lg.graph and rebuilt.cliques is lg.cliques
                assert (rebuilt.k, rebuilt.m, rebuilt.levels) == (k, m, lg.levels)
                assert rebuilt.label == lg.label

    def test_rejects_relabelled_children(self):
        # Children 2 and 3 of the base clique differ only in their pattern,
        # so every clique still meets every pattern; but the stage-2
        # children of the cliques through 2 and 3 trade places.
        lg = build_family(2, 2)
        graph, label = _swapped(lg, 2, 3)
        with pytest.raises(InputFormatError, match="graph differs"):
            reconstruct_leveled(graph, label, lg.levels)

    def test_rejects_flipped_pattern_edge(self):
        lg = build_family(2, 2)
        e = lg.graph.edge_index(0, 2)
        label = Label(lg.graph, lg.label.bits ^ (1 << e))
        with pytest.raises(InputFormatError, match="label differs"):
            reconstruct_leveled(lg.graph, label, lg.levels)

    def test_rejects_missing_base_edge(self):
        lg = build_family(2, 1)
        graph = Graph(lg.graph.n, [p for p in lg.graph.edges if p != (0, 1)])
        with pytest.raises(InputFormatError, match="graph is not"):
            reconstruct_leveled(graph, Label(graph, 0), lg.levels)

    def test_rejects_huge_m_without_building(self, monkeypatch):
        lg = build_family(1, 1)
        monkeypatch.setattr(family, "_stage", None)  # building would fail
        with pytest.raises(InputFormatError, match="graph is not the stage-100000"):
            reconstruct_leveled(lg.graph, lg.label, lg.levels[:-1] + (100000,))

    def test_rejects_levels_swapped_across_stages(self):
        lg = build_family(2, 2)
        levels = list(lg.levels)
        levels[2], levels[-1] = levels[-1], levels[2]
        with pytest.raises(InputFormatError, match="levels differ"):
            reconstruct_leveled(lg.graph, lg.label, levels)

    def test_rejects_corrupt_levels(self):
        lg = build_family(2, 1)
        broken = list(lg.levels)
        broken[-1] = 5
        with pytest.raises(InputFormatError):
            reconstruct_leveled(lg.graph, lg.label, tuple(broken))

    def test_rejects_non_family_graph(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        with pytest.raises(InputFormatError):
            reconstruct_leveled(g, Label(g, 0), (0, 1, 1, 1))
