import random
from dataclasses import replace
from functools import reduce
from itertools import combinations, islice, product
from math import prod
from operator import and_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invdiam import gf2
from invdiam.assignment import Assignment, verify
from invdiam.certificates import check_family
from invdiam.graph import Graph, Label
from invdiam.reducibility import (
    ALL_VECTORS,
    EXCLUDE_ALWAYS,
    EXCLUDE_IF_ALL_ZERO,
    EXCLUDE_NEVER,
    NONZERO_VECTORS,
    BoundaryFamily,
    BoundaryRule,
    Counterexample,
    ReducibilityConfiguration,
    admits_choice,
    apply_mutation,
    builtin_configs,
    builtin_mutations,
    check_reducible,
    enumerate_families,
    run_suite,
)
from invdiam.reducibility import (
    _check_choice_stage,
    _designated_tuples,
    _family_table,
    _scan_labels,
    _witness_patterns,
)


def star_config(pendant_label, min_size=1, exclude="never"):
    """A single inner vertex with one boundary neighbor; ad-hoc test rig."""
    g = Graph(2, [(0, 1)])
    return ReducibilityConfiguration(
        name="star",
        graph=g,
        h_vertices=(0,),
        boundary=(1,),
        fixed_labels=((0, pendant_label),),
        rules=(BoundaryRule(min_size, exclude),),
    )


class TestBuiltins:
    def test_names_and_count(self):
        configs = builtin_configs()
        assert sorted(configs) == [
            "C4_a",
            "C4_b",
            "K23",
            "K4minus",
            "P3",
            "bridge",
            "triangle",
        ]
        assert len(configs) == 7

    def test_k23_shape(self):
        cfg = builtin_configs()["K23"]
        assert len(cfg.boundary) == 3
        assert len(cfg.h_vertices) == 2
        assert not cfg.free_edges()  # all six labels pinned

    def test_bridge_shape(self):
        cfg = builtin_configs()["bridge"]
        assert len(cfg.h_vertices) == 2
        assert len(cfg.boundary) == 4
        assert len(cfg.free_edges()) == 4

    def test_bridge_per_vertex_choice_count(self):
        cfg = builtin_configs()["bridge"]
        labels = next(cfg.label_completions())
        for i in range(4):
            sets = cfg.candidate_sets(i, labels)
            assert len(sets) == 21  # 2-subsets of the seven nonzero vectors
            pairs = sum(len(cfg.designated_options(i, s)) for s in sets)
            assert pairs == 42

    def test_k23_candidate_set_counts(self):
        cfg = builtin_configs()["K23"]
        labels = next(cfg.label_completions())
        assert [len(cfg.candidate_sets(i, labels)) for i in range(3)] == [35, 35, 35]
        for cset in cfg.candidate_sets(0, labels):
            assert 0 in cset
        for cset in cfg.candidate_sets(1, labels):
            assert 0 not in cset


class TestEnumerateFamilies:
    def test_unsatisfiable_constraints_empty(self):
        cfg = star_config(0, min_size=8, exclude="always")
        labels = next(cfg.label_completions())
        assert list(enumerate_families(cfg, labels)) == []

    def test_families_are_valid_and_distinct(self):
        cfg = builtin_configs()["P3"]
        labels = next(cfg.label_completions())
        sample = list(islice(enumerate_families(cfg, labels), 500))
        seen = set()
        for fam in sample:
            cfg.validate_family(labels, fam)
            key = (fam.candidates, fam.designated)
            assert key not in seen
            seen.add(key)

    def test_inadmissible_labels_rejected(self):
        cfg = builtin_configs()["C4_a"]
        bad = next(iter(cfg.label_completions()))  # pendants of v2, v3 zero
        assert not cfg.admissible(bad)
        with pytest.raises(ValueError):
            next(enumerate_families(cfg, bad))


class TestCheckFamily:
    def test_witness_found(self):
        cfg = star_config(1)
        fam = BoundaryFamily(((1,),), (1,))
        witness = check_family(cfg, 1, fam)
        assert witness is not None
        assert witness[1] == 1 and (witness[0] & 1) == 1

    def test_stuck_on_zero(self):
        cfg = star_config(1)
        fam = BoundaryFamily(((0,),), (0,))
        assert check_family(cfg, 1, fam) is None

    def test_invalid_family_rejected(self):
        cfg = star_config(1, min_size=2)
        with pytest.raises(ValueError):
            check_family(cfg, 1, BoundaryFamily(((1,),), (1,)))
        with pytest.raises(ValueError):
            check_family(cfg, 1, BoundaryFamily(((1, 2),), (3,)))

    def test_witness_revalidates_via_verify(self):
        cfg = builtin_configs()["triangle"]
        rng = random.Random(2)
        for labels in cfg.label_completions():
            if not cfg.admissible(labels):
                continue
            fams = list(islice(enumerate_families(cfg, labels), 40))
            for fam in rng.sample(fams, min(5, len(fams))):
                witness = check_family(cfg, labels, fam)
                assert witness is not None
                vectors = [witness[v] for v in range(cfg.graph.n)]
                assignment = Assignment.from_bits(cfg.graph, 3, vectors)
                assert verify(cfg.graph, Label(cfg.graph, labels), assignment)
                for i, u in enumerate(cfg.boundary):
                    assert witness[u] in fam.candidates[i]

    def test_monotone_in_candidate_sets(self):
        cfg = star_config(1, min_size=1)
        rng = random.Random(3)
        for _ in range(50):
            base = tuple(sorted(rng.sample(range(8), 2)))
            fam = BoundaryFamily((base,), (base[0],))
            bigger_set = tuple(sorted(set(base) | {rng.randrange(8)}))
            bigger = BoundaryFamily((bigger_set,), (base[0],))
            if check_family(cfg, 1, fam) is not None:
                assert check_family(cfg, 1, bigger) is not None

    def test_coordinate_permutation_preserves_status(self):
        # Permuting F2^3 coordinates preserves scalar products.
        cfg = builtin_configs()["P3"]
        labels = next(cfg.label_completions())

        def permute(word):
            return ((word & 1) << 2) | ((word >> 1) & 1) << 0 | ((word >> 2) & 1) << 1

        for fam in islice(enumerate_families(cfg, labels), 100):
            mapped = BoundaryFamily(
                tuple(tuple(sorted(permute(v) for v in cset)) for cset in fam.candidates),
                tuple(permute(v) for v in fam.designated),
            )
            got = check_family(cfg, labels, fam) is not None
            assert got == (check_family(cfg, labels, mapped) is not None)


class TestCheckReducible:
    def test_fast_configs_reducible(self):
        for name in ("P3", "triangle", "C4_a", "C4_b", "K23"):
            report = check_reducible(builtin_configs()[name])
            assert report.reducible, name

    def test_order_independent_verdict(self):
        for name in ("P3", "C4_a", "triangle"):
            cfg = builtin_configs()[name]
            words = list(cfg.label_completions())
            forward = _scan_labels(cfg, words)
            backward = _scan_labels(cfg, list(reversed(words)))
            assert forward == backward and forward[2] is None

    def test_mutated_verdict_order_independent(self):
        cfg = apply_mutation(builtin_configs()["P3"], "p3-drop-min-size")
        words = list(cfg.label_completions())
        for scan_words in (words, list(reversed(words))):
            cex = _scan_labels(cfg, scan_words)[2]
            assert cex is not None
            assert check_family(cfg, cex.labels, cex.family) is None

    def test_counterexample_is_stuck_and_valid(self):
        cfg = apply_mutation(builtin_configs()["P3"], "p3-drop-min-size")
        report = check_reducible(cfg)
        cex = report.counterexample
        assert cex is not None and cex.stage == "main"
        cfg.validate_family(cex.labels, cex.family)
        assert check_family(cfg, cex.labels, cex.family) is None


def _scan_cases():
    configs = builtin_configs()
    cases = [configs[name] for name in ("triangle", "C4_a", "C4_b")]
    for name, mut in sorted(builtin_mutations().items()):
        cases.append(apply_mutation(configs[mut.config], name))
    return cases


def _hit_mask(patterns, i, cset):
    """Bit j is set iff the candidate set meets patterns[j] at boundary
    vertex i, by a scan of every pattern."""
    members = sum(1 << v for v in cset)
    return sum(1 << j for j, pattern in enumerate(patterns) if pattern[i] & members)


def _stuck(patterns, candidates):
    """The scan's predicate: no pattern is met by every candidate set."""
    every = (1 << len(patterns)) - 1
    return reduce(and_, (_hit_mask(patterns, i, c) for i, c in enumerate(candidates)), every) == 0


class TestScanAgreesWithCheckFamily:
    """The scan's hit-mask decision against the independent backtracking
    search of check_family, and its family count against the enumerator."""

    @pytest.mark.parametrize("cfg", _scan_cases(), ids=lambda cfg: cfg.name)
    def test_per_label_word(self, cfg):
        rng = random.Random(cfg.name)
        for labels in cfg.label_completions():
            if not cfg.admissible(labels):
                continue
            patterns = _witness_patterns(cfg, labels)
            fams = list(enumerate_families(cfg, labels))
            for fam in rng.sample(fams, min(12, len(fams))):
                stuck = _stuck(patterns, fam.candidates)
                assert stuck == (check_family(cfg, labels, fam) is None)
            _, count, cex = _scan_labels(cfg, [labels])
            if cex is None:
                assert count == len(fams)
                continue
            # The counterexample is the first stuck family the enumerator
            # yields, and the count runs through its candidate-set combination.
            assert cex.family == next(f for f in fams if check_family(cfg, labels, f) is None)
            assert count == sum(1 for f in fams if f.candidates <= cex.family.candidates)


# -- the scan before witness patterns, kept as the reference ------------------


def _reference_witness_set(cfg, labels):
    """Boundary tuples (in boundary order, over all of F2^3) that extend to
    an assignment of H satisfying every label, over all 8^|H| assignments."""
    g = cfg.graph
    pos = {v: i for i, v in enumerate(sorted(cfg.h_vertices))}
    inner = [
        (pos[u], pos[v], (labels >> e) & 1)
        for e, (u, v) in enumerate(g.edges)
        if u in pos and v in pos
    ]
    ties = [
        [(pos[h], (labels >> g.edge_index(u, h)) & 1) for h in g.adjacency[u]]
        for u in cfg.boundary
    ]
    witnesses = set()
    for vectors in product(ALL_VECTORS, repeat=len(pos)):
        if all(gf2.dot_bits(vectors[a], vectors[b]) == bit for a, b, bit in inner):
            allowed = [
                [w for w in ALL_VECTORS if all(gf2.dot_bits(w, vectors[h]) == bit for h, bit in tie)]
                for tie in ties
            ]
            witnesses.update(product(*allowed))
    return witnesses


def _reference_scan(cfg, label_words):
    """(labels, families, counterexample), testing each candidate-set
    combination's product against the witness set.  Unlike the scan it
    replaced, it also unpacks the one empty row of an empty boundary."""
    labels_checked = 0
    families_checked = 0
    for labels in label_words:
        if not cfg.admissible(labels):
            continue
        labels_checked += 1
        witnesses = _reference_witness_set(cfg, labels)
        for row in product(*_family_table(cfg, labels)):
            csets, options = zip(*row) if row else ((), ())
            if cfg.linking is None:
                count = prod(map(len, options))
            else:
                count = sum(1 for _ in _designated_tuples(cfg, options))
            if count == 0:
                continue
            families_checked += count
            if witnesses.isdisjoint(product(*csets)):
                first = next(_designated_tuples(cfg, options))
                return (
                    labels_checked,
                    families_checked,
                    Counterexample("main", labels, BoundaryFamily(csets, first)),
                )
    return labels_checked, families_checked, None


def _reference_choice_stage(cfg):
    """The choice stage with every partner t checked."""
    b = len(cfg.boundary)
    checked = 0
    multi_sets = list(combinations(NONZERO_VECTORS, cfg.choice_multi_min))
    for t in range(1, b):
        for b0 in multi_sets:
            for bt in multi_sets:
                for singles in product(NONZERO_VECTORS, repeat=b - 2):
                    checked += 1
                    if not admits_choice(b, t, b0, bt, singles):
                        return checked, (t, list(b0), list(bt), list(singles))
    return checked, None


def _pattern_union(patterns):
    return {
        tuple(w)
        for pattern in patterns
        for w in product(*([x for x in ALL_VECTORS if mask >> x & 1] for mask in pattern))
    }


def _reference_cases():
    """Every builtin and every mutation control; bridge on one pinned word."""
    configs = builtin_configs()
    cases = list(configs.values())
    cases += [apply_mutation(configs[m.config], name) for name, m in sorted(builtin_mutations().items())]
    pinned = tuple((e, 0) for e in configs["bridge"].free_edges())
    return [
        replace(cfg, fixed_labels=cfg.fixed_labels + pinned) if cfg.name == "bridge" else cfg
        for cfg in cases
    ]


class TestScanAgreesWithReference:
    """The hit-mask scan against the tuple witness-set scan it replaced."""

    @pytest.mark.parametrize("cfg", _reference_cases(), ids=lambda cfg: cfg.name)
    def test_same_scan(self, cfg):
        words = list(cfg.label_completions())
        for labels in words:
            assert _scan_labels(cfg, [labels]) == _reference_scan(cfg, [labels])
            patterns = _witness_patterns(cfg, labels)
            assert _pattern_union(patterns) == _reference_witness_set(cfg, labels)
        assert _scan_labels(cfg, words) == _reference_scan(cfg, words)

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(st.data())
    def test_random_configurations(self, data):
        cfg = data.draw(_small_configs())
        words = list(cfg.label_completions())
        for labels in words:
            assert _pattern_union(_witness_patterns(cfg, labels)) == _reference_witness_set(
                cfg, labels
            )
            assert _scan_labels(cfg, [labels]) == _reference_scan(cfg, [labels])
        assert _scan_labels(cfg, words) == _reference_scan(cfg, words)

    @pytest.mark.parametrize("multi_min", [1, 2, 3])
    def test_choice_stage(self, multi_min):
        cfg = replace(builtin_configs()["C4_b"], choice_multi_min=multi_min)
        checked, failure = _check_choice_stage(cfg)
        expected_checked, expected = _reference_choice_stage(cfg)
        assert checked == expected_checked
        if expected is None:
            assert failure is None
        else:
            t, b0, bt, singles = expected
            assert failure.choice_instance == {"t": t, "multi_sets": [b0, bt], "singles": singles}

    @pytest.mark.parametrize("b", [3, 5])
    def test_choice_stage_other_boundary_sizes(self, b):
        # With three or five values no tuple is a double pair, so every
        # pair (b0, bt) is counted from its multisets alone.
        cfg = replace(_star(b), choice_stage=True, choice_multi_min=1)
        checked, failure = _check_choice_stage(cfg)
        assert (checked, failure) == _reference_choice_stage(cfg)
        assert checked == 7**b * (b - 1)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.data())
    def test_choice_verdict_ignores_t_and_single_order(self, data):
        b = data.draw(st.integers(3, 5))
        vectors = st.sampled_from(ALL_VECTORS)
        multi0, multi_t = (data.draw(st.lists(vectors, min_size=1, max_size=3)) for _ in "01")
        singles = data.draw(st.lists(vectors, min_size=b - 2, max_size=b - 2))
        verdict = admits_choice(b, 1, multi0, multi_t, singles)
        t = data.draw(st.integers(1, b - 1))
        shuffled = data.draw(st.permutations(singles))
        assert admits_choice(b, t, multi0, multi_t, shuffled) == verdict


def _star(b):
    """One inner vertex joined to b boundary vertices, every label 1."""
    g = Graph(b + 1, [(0, u) for u in range(1, b + 1)])
    return ReducibilityConfiguration(
        name=f"star{b}",
        graph=g,
        h_vertices=(0,),
        boundary=tuple(range(1, b + 1)),
        fixed_labels=tuple((e, 1) for e in range(g.m)),
        rules=tuple(BoundaryRule(1) for _ in range(b)),
    )


@st.composite
def _small_configs(draw):
    """|H| <= 3, at most 3 boundary vertices, at most 2 free edges, random
    rules, admissibility groups and linking rule.  The no-double-pair rule
    needs four values to reject anything, so its draws have |H| <= 2 and
    four boundary vertices, all with singleton candidate sets but the
    first, whose sets have at most two vectors."""
    linking = draw(st.sampled_from([None, "equalize-to-first", "no-double-pair"]))
    four = linking == "no-double-pair"
    h = draw(st.integers(1, 2 if four else 3))
    b = 4 if four else draw(st.integers(0, 3))
    edges = [(u, v) for u, v in combinations(range(h), 2) if draw(st.booleans())]
    for u in range(h, h + b):
        ends = draw(st.lists(st.integers(0, h - 1), min_size=1, max_size=h, unique=True))
        edges += [(v, u) for v in ends]
    g = Graph(h + b, edges)
    edge_ids = st.integers(0, g.m - 1)
    free = set(draw(st.lists(edge_ids, max_size=2, unique=True))) if g.m else set()
    fixed = tuple((e, draw(st.integers(0, 1))) for e in range(g.m) if e not in free)
    groups = draw(st.lists(st.lists(edge_ids, min_size=1, max_size=2), max_size=2)) if g.m else []
    rules = []
    for u in range(h, h + b):
        mode = draw(st.sampled_from([EXCLUDE_NEVER, EXCLUDE_ALWAYS, EXCLUDE_IF_ALL_ZERO]))
        zero_edges = tuple(g.edge_index(u, v) for v in sorted(g.adjacency[u]))
        rules.append(
            BoundaryRule(
                draw(st.integers(1, 1 if four and u > h else 3 if b < 3 else 2)),
                mode,
                zero_edges if mode == EXCLUDE_IF_ALL_ZERO else (),
                include_zero=mode != EXCLUDE_ALWAYS and draw(st.booleans()),
                designated_nonzero=draw(st.booleans()),
            )
        )
    return ReducibilityConfiguration(
        name="random",
        graph=g,
        h_vertices=tuple(range(h)),
        boundary=tuple(range(h, h + b)),
        fixed_labels=fixed,
        required_one_groups=tuple(map(tuple, groups)),
        rules=tuple(rules),
        linking=linking,
    )


class TestMutations:
    def test_registry_covers_every_config(self):
        muts = builtin_mutations()
        assert len(muts) == 7
        assert sorted({m.config for m in muts.values()}) == sorted(builtin_configs())

    def test_unknown_mutation(self):
        with pytest.raises(ValueError):
            apply_mutation(builtin_configs()["P3"], "nope")
        with pytest.raises(ValueError):
            apply_mutation(builtin_configs()["P3"], "k23-drop-min-size")

    def test_mutation_localized(self):
        # A mutated config fails while the untouched ones still pass.
        report = run_suite(["P3", "C4_a"])
        assert report.passed
        mutated = run_suite(["P3"], mutation="p3-drop-min-size")
        assert not mutated.passed
        clean = run_suite(["C4_a"])
        assert clean.passed


class TestConfigValidation:
    def test_boundary_adjacency_rejected(self):
        g = Graph(3, [(0, 1), (0, 2), (1, 2)])
        with pytest.raises(ValueError, match="independence"):
            ReducibilityConfiguration(
                name="bad",
                graph=g,
                h_vertices=(0,),
                boundary=(1, 2),
                fixed_labels=(),
                rules=(BoundaryRule(1), BoundaryRule(1)),
            )

    def test_boundary_needs_edge_into_h(self):
        g = Graph(3, [(0, 1)])
        with pytest.raises(ValueError, match="no edge into H"):
            ReducibilityConfiguration(
                name="bad",
                graph=g,
                h_vertices=(0,),
                boundary=(1, 2),
                fixed_labels=(),
                rules=(BoundaryRule(1), BoundaryRule(1)),
            )
