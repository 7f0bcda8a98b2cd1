import contextlib
import functools
import random
import time
from itertools import combinations, islice, product
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from invdiam import assignment, gf2
from invdiam.assignment import (
    Assignment,
    _SolveContext,
    assignment_to_inversions,
    diameter_via_assignment,
    enumerate_assignments,
    hardest_label,
    least_dim,
    min_dim,
    solve,
    solve_with_deadline,
    verify,
)
from invdiam.errors import BudgetExceededError, InvariantError
from invdiam.family import build_family
from invdiam.gf2 import dot_bits
from invdiam.graph import Graph, Label, Orientation, relabel, relabel_label
from invdiam.inversion import bfs_all_distances, bfs_diameter, invert


def complete(n):
    return Graph(n, combinations(range(n), 2))


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def k2():
    return Graph(2, [(0, 1)])


def c4_opposite():
    g = cycle(4)
    return g, Label(g, (1 << g.edge_index(0, 1)) | (1 << g.edge_index(2, 3)))


@st.composite
def graphs(draw, max_n=14, max_m=30):
    """A random graph on at most max_n vertices and max_m edges, often with
    isolated vertices and several components."""
    n = draw(st.integers(0, max_n))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=max_m)) if pairs else []
    return Graph(n, edges)


def brute_force_sat(graph, label, t):
    """Independent oracle: try every assignment in (2^t)^n."""
    for words in product(range(1 << t), repeat=graph.n):
        if all(
            dot_bits(words[u], words[v]) == label.bit(e)
            for e, (u, v) in enumerate(graph.edges)
        ):
            return True
    return False


def _reference_verify(graph, label, f):
    """The per-edge check, one scalar product per edge."""
    return all(
        dot_bits(f.words[u], f.words[v]) == label.bit(e) for e, (u, v) in enumerate(graph.edges)
    )


@st.composite
def assignments_and_labels(draw):
    """A random assignment and two labels; half the time the first label is
    the one the assignment realizes."""
    g = draw(graphs(max_n=9, max_m=20))
    t = draw(st.integers(0, 4))
    words = draw(st.lists(st.integers(0, (1 << t) - 1), min_size=g.n, max_size=g.n))
    f = Assignment(g, t, tuple(words))
    realized = sum(dot_bits(f.words[u], f.words[v]) << e for e, (u, v) in enumerate(g.edges))
    first = realized if draw(st.booleans()) else draw(st.integers(0, (1 << g.m) - 1))
    second = draw(st.integers(0, (1 << g.m) - 1))
    return f, Label(g, first), Label(g, second)


class TestVerify:
    def test_k2_examples(self):
        g = k2()
        lab = Label(g, 1)
        assert verify(g, lab, Assignment.from_strings(g, ["1", "1"]))
        assert not verify(g, lab, Assignment.from_strings(g, ["1", "0"]))

    def test_triangle_all_ones(self):
        g = complete(3)
        lab = Label(g, 0b111)
        assert verify(g, lab, Assignment.from_strings(g, ["1", "1", "1"]))

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(assignments_and_labels())
    def test_matches_per_edge_reference(self, case):
        f, first, second = case
        g = f.graph
        expected = [_reference_verify(g, lab, f) for lab in (first, second)]
        # Two equal assignments, each checked against both labels, in both
        # orders: the word one of them caches belongs to neither label.
        again = Assignment(g, f.t, f.words)
        assert [verify(g, lab, f) for lab in (first, second)] == expected
        assert [verify(g, lab, again) for lab in (second, first)] == expected[::-1]
        # A graph equal to the assignment's but a different object.
        twin = Graph(g.n, g.edges)
        assert verify(twin, Label(twin, first.bits), f) == expected[0]

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        graphs(max_n=12, max_m=40),
        st.sampled_from([0, 1, 7, 8, 9, 16, 17, 31, 32]),
        st.randoms(use_true_random=False),
    )
    @example(Graph(0, []), 32, random.Random(0))
    @example(Graph(2, [(0, 1)]), 32, random.Random(0))
    def test_induced_bits_is_per_edge_parity(self, g, t, rng):
        """The word-parallel label word, at every slot width (1, 2 and 4
        bytes) and with 0, 1 or more edges."""
        # Words with their top coordinate set more often than not, so that
        # bits next to a slot boundary occur.
        words = [rng.getrandbits(t) | (rng.getrandbits(1) << t >> 1) for _ in range(g.n)]
        f = Assignment(g, t, tuple(words))
        assert f.induced_bits == sum(
            dot_bits(words[u], words[v]) << e for e, (u, v) in enumerate(g.edges)
        )

    def test_one_flipped_edge_fails_stage_4(self):
        lg = build_family(2, 4)
        g, lab = lg.graph, lg.label
        witness = solve(g, lab, 4)
        assert verify(g, lab, witness)
        for e in range(g.m):
            assert not verify(g, Label(g, lab.bits ^ (1 << e)), witness)
        assert verify(g, lab, witness)

    def test_mismatched_graphs_raise(self):
        g, other = path(3), cycle(3)
        f = Assignment.from_strings(g, ["1", "1", "1"])
        with pytest.raises(ValueError, match="assignment belongs"):
            verify(other, Label(other, 0), f)
        with pytest.raises(ValueError, match="label belongs"):
            verify(g, Label(other, 0), f)


class TestSolve:
    def test_zero_label_t0(self):
        g = cycle(4)
        found = solve(g, Label(g, 0), 0)
        assert found is not None and found.t == 0
        assert verify(g, Label(g, 0), found)

    def test_nonzero_label_t0(self):
        g = k2()
        assert solve(g, Label(g, 1), 0) is None

    def test_k2_labeled_one(self):
        g = k2()
        found = solve(g, Label(g, 1), 1)
        assert found is not None and found.to_strings() == ["1", "1"]

    def test_c4_opposite(self):
        g, lab = c4_opposite()
        assert not brute_force_sat(g, lab, 1)
        assert solve(g, lab, 1) is None
        found = solve(g, lab, 2)
        assert found is not None and verify(g, lab, found)

    def test_completeness_small_scale(self):
        rng = random.Random(42)
        for _ in range(40):
            n = rng.randrange(1, 6)
            edges = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
            g = Graph(n, edges)
            lab = Label(g, rng.getrandbits(g.m))
            for t in (0, 1, 2):
                assert (solve(g, lab, t) is not None) == brute_force_sat(g, lab, t)

    def test_witnesses_always_verify(self):
        rng = random.Random(43)
        for _ in range(30):
            n = rng.randrange(2, 7)
            edges = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
            g = Graph(n, edges)
            lab = Label(g, rng.getrandbits(g.m))
            for t in (1, 2, 3):
                found = solve(g, lab, t)
                if found is not None:
                    assert verify(g, lab, found)

    def test_monotone_in_t(self):
        rng = random.Random(44)
        for _ in range(20):
            n = rng.randrange(2, 6)
            g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < 0.6])
            lab = Label(g, rng.getrandbits(g.m))
            for t in (1, 2):
                found = solve(g, lab, t)
                if found is not None:
                    # Padding with a zero coordinate stays valid one level up.
                    padded = Assignment.from_bits(g, t + 1, found.bits())
                    assert verify(g, lab, padded)
                    assert solve(g, lab, t + 1) is not None

    def test_deadline_verdicts(self):
        g, lab = c4_opposite()
        import time

        verdict, found = solve_with_deadline(g, lab, 2, time.monotonic() + 10)
        assert verdict == "sat" and found is not None
        verdict, found = solve_with_deadline(g, lab, 1, time.monotonic() + 10)
        assert verdict == "unsat" and found is None


class TestEnumerate:
    def test_k2_zero(self):
        g = k2()
        got = [a.to_strings() for a in enumerate_assignments(g, Label(g, 0), 1, 100)]
        assert got == [["0", "0"], ["0", "1"], ["1", "0"]]

    def test_k2_one(self):
        g = k2()
        got = [a.to_strings() for a in enumerate_assignments(g, Label(g, 1), 1, 100)]
        assert got == [["1", "1"]]

    def test_cap_is_prefix(self):
        g = path(3)
        full = [a.to_strings() for a in enumerate_assignments(g, Label(g, 0), 1, 100)]
        capped = [a.to_strings() for a in enumerate_assignments(g, Label(g, 0), 1, 3)]
        assert capped == full[:3]

    def test_cap_pulls_no_more_than_asked(self, monkeypatch):
        """The search hands over min(cap, total) assignments: none for cap
        0, and not one more once the cap is reached."""
        g = path(3)
        lab = Label(g, 0)
        total = len(list(enumerate_assignments(g, lab, 1, 100)))
        pulled = [0]
        search = _SolveContext.search

        def counting(self, *args, **kwargs):
            for words in search(self, *args, **kwargs):
                pulled[0] += 1
                yield words

        monkeypatch.setattr(_SolveContext, "search", counting)
        for cap in range(total + 3):
            pulled[0] = 0
            got = list(enumerate_assignments(g, lab, 1, cap))
            assert len(got) == pulled[0] == min(cap, total)

    def test_matches_brute_force(self):
        g = path(3)
        lab = Label(g, 0b01)
        got = {tuple(a.bits()) for a in enumerate_assignments(g, lab, 2, 10**4)}
        expected = {
            words
            for words in product(range(4), repeat=3)
            if all(
                dot_bits(words[u], words[v]) == lab.bit(e)
                for e, (u, v) in enumerate(g.edges)
            )
        }
        assert got == expected


class TestMinDim:
    def test_zero_label(self):
        g = cycle(5)
        assert min_dim(g, Label(g, 0), 3) == 0

    def test_c4_opposite(self):
        g, lab = c4_opposite()
        assert min_dim(g, lab, 4) == 2

    def test_exceeds(self):
        g = k2()
        assert min_dim(g, Label(g, 1), 0) is None

    def test_matches_bfs_oracle(self):
        k5_minus_edge = Graph(
            5, [e for e in combinations(range(5), 2) if e != (3, 4)]
        )  # nine edges
        for g in (path(3), cycle(4), complete(4), k5_minus_edge):
            dist = bfs_all_distances(g)
            for bits in range(1 << g.m):
                assert min_dim(g, Label(g, bits), g.m) == dist[bits]

    def test_permutation_invariance(self):
        rng = random.Random(45)
        for _ in range(15):
            n = rng.randrange(2, 6)
            g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < 0.6])
            lab = Label(g, rng.getrandbits(g.m))
            perm = list(range(n))
            rng.shuffle(perm)
            g2 = relabel(g, perm)
            lab2 = relabel_label(g, lab, perm)
            assert min_dim(g, lab, n) == min_dim(g2, lab2, n)


class TestDiameter:
    def test_k2(self):
        assert diameter_via_assignment(k2(), 2).diameter == 1

    def test_k4(self):
        result = diameter_via_assignment(complete(4), 6)
        assert result.diameter == 3
        assert verify(complete(4), result.hardest_label, result.witness)

    def test_p3(self):
        assert diameter_via_assignment(path(3), 2).diameter == 1

    def test_agrees_with_bfs(self):
        for g in (path(4), cycle(5), complete(4)):
            assert diameter_via_assignment(g, g.m).diameter == bfs_diameter(g)

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            diameter_via_assignment(path(26), 4)

    def test_permutation_invariance(self):
        g = cycle(4)
        perm = [2, 0, 3, 1]
        assert (
            diameter_via_assignment(g, 4).diameter
            == diameter_via_assignment(relabel(g, perm), 4).diameter
        )

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(graphs(max_n=7, max_m=10))
    @example(Graph(0, []))
    @example(complete(5))
    def test_matches_bfs_all_distances(self, g):
        # The hardest label is the least word at the largest BFS distance,
        # and the witness is solve's for it.  Below that distance, exhaustive
        # hardest_label names the least word beyond t_max and the diameter
        # raises naming the same label.
        dist = bfs_all_distances(g)
        top = max(dist)
        result = diameter_via_assignment(g)
        assert result.diameter == top
        assert result.hardest_label.bits == dist.index(top)
        assert verify(g, result.hardest_label, result.witness)
        assert result.witness == solve(g, result.hardest_label, result.diameter)
        for t_max in range(1, 5):
            hard = hardest_label(g, t_max, 1 << g.m)
            assert hard.exhaustive and hard.evaluations == 2**g.m
            if top <= t_max:
                assert hard.label.bits == dist.index(top) and hard.dim == top
                assert hard.witness == solve(g, hard.label, top)
            else:
                assert hard.label.bits == next(w for w, d in enumerate(dist) if d > t_max)
                assert hard.dim is None and hard.witness is None
                message = f"label {hard.label.to_string()} exceeds"
                with pytest.raises(BudgetExceededError, match=message):
                    diameter_via_assignment(g, t_max)

    def test_lost_witness_is_invariant_error(self, lost_witness):
        # The walk prefers its witnesses; only the final search loses one.
        with pytest.raises(InvariantError, match="no witness for label 101100 at its min_dim 3"):
            diameter_via_assignment(complete(4), 6)


class TestHardestLabel:
    def test_k4_exhaustive(self):
        result = hardest_label(complete(4), 4, budget=64)
        assert result.exhaustive and result.dim == 3

    def test_c4_exhaustive(self):
        result = hardest_label(cycle(4), 4, budget=16)
        assert result.exhaustive and result.dim == 2

    def test_edgeless(self):
        result = hardest_label(Graph(3, []), 2, budget=10)
        assert result.label.bits == 0 and result.dim == 0

    def test_hill_climb_deterministic(self):
        g = cycle(8)
        a = hardest_label(g, 3, budget=40, seed=5)
        b = hardest_label(g, 3, budget=40, seed=5)
        assert (a.label.bits, a.dim) == (b.label.bits, b.dim)
        assert not a.exhaustive
        assert a.dim == 2  # any nonzero-distance label on a cycle caps at 2

    def test_lost_witness_is_invariant_error(self, lost_witness):
        with pytest.raises(InvariantError, match="no witness for label 101100 at its min_dim 3"):
            hardest_label(complete(4), 4, budget=64)


class TestDegreeBounds:
    def test_max_degree_two(self):
        # Connected graphs with degree at most 2 stay within dimension 2.
        rng = random.Random(46)
        for _ in range(10):
            n = rng.randrange(3, 9)
            g = cycle(n) if rng.random() < 0.5 else path(n)
            for _ in range(20):
                lab = Label(g, rng.getrandbits(g.m))
                assert min_dim(g, lab, 2) is not None

    def test_max_degree_three(self):
        rng = random.Random(47)
        for _ in range(8):
            g = _random_connected_max_deg(rng, rng.randrange(4, 9), 3)
            for _ in range(15):
                lab = Label(g, rng.getrandbits(g.m))
                assert min_dim(g, lab, 3) is not None

    def test_partial_k_tree_bound(self):
        from invdiam.family import build_family

        rng = random.Random(48)
        for k in (1, 2):
            lg = build_family(k, 2 if k == 1 else 1)
            g = lg.graph
            keep = [e for e in g.edges if rng.random() < 0.8]
            sub = Graph(g.n, keep)
            for _ in range(10):
                lab = Label(sub, rng.getrandbits(sub.m))
                assert min_dim(sub, lab, 2 * k) is not None


def _random_connected_max_deg(rng, n, dmax):
    edges = set()
    deg = [0] * n
    for v in range(1, n):
        u = rng.choice([w for w in range(v) if deg[w] < dmax])
        edges.add((u, v))
        deg[u] += 1
        deg[v] += 1
    for u, v in combinations(range(n), 2):
        if (u, v) not in edges and deg[u] < dmax and deg[v] < dmax and rng.random() < 0.3:
            edges.add((u, v))
            deg[u] += 1
            deg[v] += 1
    return Graph(n, edges)


class TestInversionDecomposition:
    def test_round_trip(self):
        # Applying the coordinate inversion sets realizes the label.
        rng = random.Random(49)
        g = complete(4)
        for _ in range(10):
            lab = Label(g, rng.getrandbits(g.m))
            d = min_dim(g, lab, g.m)
            found = solve(g, lab, d)
            o = Orientation(g, rng.getrandbits(g.m))
            target = Orientation(g, o.flips ^ lab.bits)
            current = o
            for xs in assignment_to_inversions(found):
                current = invert(current, xs)
            assert current == target

    def test_corpus_n5(self, corpus_n5):
        rng = random.Random(51)
        for _, g in corpus_n5:
            for _ in range(8):
                lab = Label(g, rng.getrandbits(g.m))
                _, found = least_dim(g, lab, g.m)
                current = Orientation(g, 0)
                for xs in assignment_to_inversions(found):
                    current = invert(current, xs)
                assert current.flips == lab.bits


class TestAssignmentWords:
    @pytest.mark.parametrize(
        "t, words",
        [
            (1, [1]),  # wrong vector count
            (1, [1, 2]),  # a word >= 2**t
            (2, [0, -1]),
            (33, [0, 0]),  # t beyond the widest supported vector
        ],
    )
    def test_invalid_words(self, t, words):
        with pytest.raises(ValueError):
            Assignment.from_bits(k2(), t, words)

    @pytest.mark.parametrize(
        "strings", [["1", "10"], ["10", ""], ["1", "x"], ["01", "0 "], ["1_0", "100"]]
    )
    def test_invalid_strings(self, strings):
        with pytest.raises(ValueError):
            Assignment.from_strings(k2(), strings)

    def test_string_round_trip(self):
        rng = random.Random(50)
        g = Graph(3, [(0, 1)])
        for t in (0, 1, 5, 32):
            words = [rng.getrandbits(t) for _ in range(3)]
            a = Assignment.from_bits(g, t, words)
            strings = a.to_strings()
            assert all(len(s) == t for s in strings)
            assert Assignment.from_strings(g, strings) == a
        assert Assignment.from_strings(g, ["110", "000", "001"]).words == (0b011, 0, 0b100)


def _reference_order(graph):
    """The solver's vertex order by the plain quadratic rule: most neighbours
    already placed first, ties to the lowest index."""
    placed = []
    in_prefix = [False] * graph.n
    deg_into = [0] * graph.n
    for _ in range(graph.n):
        best = -1
        for v in range(graph.n):
            if not in_prefix[v] and (best < 0 or deg_into[v] > deg_into[best]):
                best = v
        placed.append(best)
        in_prefix[best] = True
        for w in graph.adjacency[best]:
            deg_into[w] += 1
    return placed


def _reference_search(graph, label_bits, t, prefer, nodes):
    """The solver's search tree rebuilt from scratch: after each placement
    the whole system of every unplaced neighbour is re-solved.  Yields
    words indexed by vertex and counts the nodes in nodes[0]."""
    n = graph.n
    if n == 0:
        if label_bits == 0:
            yield []
        return
    order = _reference_order(graph)
    pos_of = {v: p for p, v in enumerate(order)}
    back = [
        [(pos_of[w], graph.edge_index(v, w)) for w in graph.adjacency[v] if pos_of[w] < p]
        for p, v in enumerate(order)
    ]
    forward = [
        sorted(pos_of[w] for w in graph.adjacency[v] if pos_of[w] > p)
        for p, v in enumerate(order)
    ]
    vecs = [0] * n

    def system(p, depth):
        placed = [(q, e) for q, e in back[p] if q < depth]
        rows = [vecs[order[q]] for q, _ in placed]
        rhs = [(label_bits >> e) & 1 for _, e in placed]
        return gf2.solve_bits(rows, rhs, t)

    def candidates(p):
        sol = system(p, p)
        if sol is None:
            return None
        cands = gf2.affine_solutions_bits(*sol)
        if prefer is not None and prefer[order[p]] in cands:
            cands.remove(prefer[order[p]])
            cands.insert(0, prefer[order[p]])
        return cands[::-1]

    stack = [candidates(0)]
    while stack:
        nodes[0] += 1
        top = stack[-1]
        if not top:
            stack.pop()
            continue
        p = len(stack) - 1
        vecs[order[p]] = top.pop()
        if p + 1 == n:
            yield list(vecs)
            continue
        if any(system(q, p + 1) is None for q in forward[p] if q > p + 1):
            continue
        nxt = candidates(p + 1)
        if nxt is not None:
            stack.append(nxt)


def _reference_hardest(graph, t_max, budget, seed):
    """hardest_label's hill-climb with every label evaluated cold: least_dim
    from t = 1, and the first witness of the best label kept.  For 2^|E| >
    budget; returns (label word, dim, evaluations, witness)."""
    m = graph.m
    evaluated = {}
    best = [0, 0, Assignment.from_bits(graph, 0, [0] * graph.n)]

    def score(d):
        return 10**9 if d is None else d

    def evaluate(bits):
        if bits not in evaluated:
            d, witness = least_dim(graph, Label(graph, bits), t_max)
            evaluated[bits] = d
            if score(d) > score(best[1]) or (score(d) == score(best[1]) and bits < best[0]):
                best[:] = bits, d, witness
        return evaluated[bits]

    rng = random.Random(seed)
    current = rng.getrandbits(m)
    current_dim = evaluate(current)
    stall = 0
    attempts = 0
    while len(evaluated) < budget and attempts < 64 * budget:
        attempts += 1
        neighbor = current ^ (1 << rng.randrange(m))
        d = evaluate(neighbor)
        if score(d) >= score(current_dim):
            improved = score(d) > score(current_dim)
            current, current_dim = neighbor, d
            if improved:
                stall = 0
                continue
        stall += 1
        if stall > 3 * m:
            current = rng.getrandbits(m)
            current_dim = evaluate(current)
            stall = 0
    return best[0], best[1], len(evaluated), best[2]


def _is_canonical(order, words, t):
    """Whether the vectors, read along order, are each left-justified in
    every run of the coordinate partition that the earlier ones refined:
    the partition starts as one run, and each vector splits every run into
    its ones and its zeros."""
    runs = [list(range(t))] if t else []
    for v in order:
        refined = []
        for run in runs:
            ones = [i for i in run if (words[v] >> i) & 1]
            if ones != run[: len(ones)]:
                return False
            refined += [part for part in (run[: len(ones)], run[len(ones) :]) if part]
        runs = refined
    return True


class TestVertexOrder:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(graphs())
    @example(Graph(0, []))
    @example(Graph(7, [(1, 2), (4, 5), (4, 6), (5, 6)]))
    def test_matches_quadratic_rule(self, g):
        assert _SolveContext(g).order == _reference_order(g)

    @pytest.mark.parametrize("m", [3, 4])
    @pytest.mark.parametrize("initial", [0, 1])
    def test_family_stages(self, m, initial):
        g = build_family(2, m, initial).graph
        assert _SolveContext(g).order == _reference_order(g)


@contextlib.contextmanager
def _counting_nodes():
    """Count the nodes of solver searches that run with a deadline: with a
    check interval of 1 every node reads the clock once, and the clock
    stands at 0."""
    calls = [0]

    def monotonic():
        calls[0] += 1
        return 0.0

    saved = assignment._DEADLINE_CHECK_INTERVAL, assignment.time
    assignment._DEADLINE_CHECK_INTERVAL = 1
    assignment.time = SimpleNamespace(monotonic=monotonic)
    try:
        yield calls
    finally:
        assignment._DEADLINE_CHECK_INTERVAL, assignment.time = saved


class TestSearchTree:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(graphs(max_n=9, max_m=18), st.integers(0, 4), st.data())
    def test_matches_from_scratch_search(self, g, t, data):
        """The same assignments in the same order, after the same number of
        nodes, up to a cap on the yields."""
        label_bits = data.draw(st.integers(0, (1 << g.m) - 1))
        prefer = data.draw(
            st.none() | st.lists(st.integers(0, (1 << t) - 1), min_size=g.n, max_size=g.n)
        )
        cap = data.draw(st.integers(1, 40))
        expected_nodes = [0]
        expected = list(islice(_reference_search(g, label_bits, t, prefer, expected_nodes), cap))
        with _counting_nodes() as nodes:
            got = list(islice(_SolveContext(g).search(label_bits, t, 1.0, prefer), cap))
        assert got == expected
        assert nodes == expected_nodes

    @pytest.mark.parametrize(
        "m, initial, t, verdict, nodes",
        [
            (3, 0, 3, "unsat", 3176),
            (3, 1, 3, "unsat", 1574),
            (4, 0, 3, "unsat", 3176),
            (4, 0, 4, "sat", 3543),
        ],
    )
    def test_family_node_counts(self, m, initial, t, verdict, nodes):
        # The plain search, as enumerate_assignments runs it.
        lg = build_family(2, m, initial)
        with _counting_nodes() as counted:
            words = next(_SolveContext(lg.graph).search(lg.label.bits, t, 1.0), None)
        assert ("unsat" if words is None else "sat", counted[0]) == (verdict, nodes)

    @pytest.mark.parametrize(
        "k, m, initial, t, verdict, nodes",
        [
            (2, 3, 0, 3, "unsat", 545),
            (2, 3, 1, 3, "unsat", 274),
            (2, 4, 0, 3, "unsat", 545),
            (2, 4, 0, 4, "sat", 3543),
            (3, 3, 0, 4, "unsat", 7552),
        ],
    )
    def test_solve_with_deadline_node_counts(self, k, m, initial, t, verdict, nodes):
        # Canonical: the refutations shrink, the satisfiable tree does not.
        lg = build_family(k, m, initial)
        with _counting_nodes() as counted:
            got, _ = solve_with_deadline(lg.graph, lg.label, t, 1.0)
        assert (got, counted[0]) == (verdict, nodes)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(graphs(max_n=8, max_m=14), st.integers(0, 4), st.data())
    def test_canonical_is_filtered_plain_search(self, g, t, data):
        """The canonical yields are the plain ones that are canonical along
        the vertex order, in the same order, up to a cap on the plain
        yields; and one exists iff any assignment does."""
        label_bits = data.draw(st.integers(0, (1 << g.m) - 1))
        ctx = _SolveContext(g)
        cap = 2000
        plain = list(islice(ctx.search(label_bits, t), cap))
        expected = [words for words in plain if _is_canonical(ctx.order, words, t)]
        canonical = ctx.search(label_bits, t, canonical=True)
        assert list(islice(canonical, len(expected))) == expected
        if len(plain) < cap:
            assert next(canonical, None) is None
        # The lemma of _SolveContext.search: the first plain yield is canonical.
        assert expected[:1] == plain[:1]

    def test_canonical_family_node_count(self):
        # The plain refutation of stage 3 at t = 3 takes 3,176 nodes
        # (test_family_node_counts); coordinate symmetry leaves 545.
        lg = build_family(2, 3, 0)
        ctx = _SolveContext(lg.graph)
        with _counting_nodes() as counted:
            assert next(ctx.search(lg.label.bits, 3, 1.0, canonical=True), None) is None
        assert counted[0] == 545

    def test_timeout_leaves_no_search_state(self):
        lg = build_family(3, 3, 0)
        g, lab = lg.graph, lg.label
        # The first clock check comes at node 2,048 of the 7,552-node refutation.
        assert solve_with_deadline(g, lab, 4, time.monotonic() - 1) == ("timeout", None)
        assert solve_with_deadline(g, lab, 4, time.monotonic() + 600) == ("unsat", None)
        fresh = next(_SolveContext(g).search(lab.bits, 5))
        assert solve(g, lab, 5) == Assignment.from_bits(g, 5, fresh)


@st.composite
def climb_graphs(draw):
    """A random graph on 4 to 9 vertices with 4 to 16 edges."""
    n = draw(st.integers(4, 9))
    pairs = list(combinations(range(n), 2))
    m = draw(st.integers(4, min(16, len(pairs))))
    return Graph(n, draw(st.lists(st.sampled_from(pairs), unique=True, min_size=m, max_size=m)))


class TestClimbMatchesReference:
    @staticmethod
    def check(g, t_max, budget, seed):
        result = hardest_label(g, t_max, budget, seed)
        assert not result.exhaustive
        got = (result.label.bits, result.dim, result.evaluations, result.witness)
        assert got == _reference_hardest(g, t_max, budget, seed)

    # t_max is drawn from a list that starts at 4, because hypothesis favours
    # a list's first entry, and at t_max = 1 most labels lie beyond t_max.
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(climb_graphs(), st.sampled_from([4, 3, 5, 2, 1]), st.integers(0, 9), st.data())
    def test_same_result_as_cold_climb(self, g, t_max, seed, data):
        """Label, dim, evaluation count and witness equal those of a climb
        that evaluates every label from scratch."""
        self.check(g, t_max, data.draw(st.integers(1, min(120, (1 << g.m) - 1))), seed)

    def test_outerplanar_fixtures(self, outerplanar_corpus):
        # Longer climbs, with restarts, at the diameter workload's t_max.
        for g in [g for g in outerplanar_corpus if 1 << g.m > 200][::4]:
            self.check(g, 4, 200, 1)


@st.composite
def labeled_graphs(draw):
    """A random graph on at most 6 vertices and 10 edges, with a label."""
    n = draw(st.integers(1, 6))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=10)) if pairs else []
    g = Graph(n, edges)
    return g, Label(g, draw(st.integers(0, (1 << g.m) - 1)))


_driver_settings = settings(max_examples=40, derandomize=True, deadline=None)


class TestDriverProperties:
    @_driver_settings
    @given(labeled_graphs(), st.data())
    def test_edge_flip_moves_min_dim_by_at_most_one(self, case, data):
        g, lab = case
        if g.m == 0:
            return
        e = data.draw(st.integers(0, g.m - 1))
        # Every label has dimension at most |E|, so None never occurs.
        d = min_dim(g, lab, g.m)
        d_flipped = min_dim(g, Label(g, lab.bits ^ (1 << e)), g.m)
        assert abs(d - d_flipped) <= 1

    @_driver_settings
    @given(labeled_graphs())
    def test_sat_is_monotone_in_t(self, case):
        g, lab = case
        sat = [solve(g, lab, t) is not None for t in range(g.m + 2)]
        assert sat == sorted(sat)

    @_driver_settings
    @given(labeled_graphs())
    def test_least_dim_matches_min_dim_and_solve(self, case):
        g, lab = case
        t, witness = least_dim(g, lab, g.m)
        assert t == min_dim(g, lab, g.m)
        assert verify(g, lab, witness)
        assert witness == solve(g, lab, t)

    def test_least_dim_exceeds(self):
        g, lab = c4_opposite()
        assert least_dim(g, lab, 1) == (None, None)

    @_driver_settings
    @given(labeled_graphs(), st.data())
    def test_relabelling_invariance(self, case, data):
        g, lab = case
        perm = data.draw(st.permutations(range(g.n)))
        g2 = relabel(g, perm)
        lab2 = relabel_label(g, lab, perm)
        assert min_dim(g, lab, g.m) == min_dim(g2, lab2, g.m)
        assert least_dim(g, lab, g.m)[0] == least_dim(g2, lab2, g.m)[0]

    @settings(max_examples=12, derandomize=True, deadline=None)
    @given(st.integers(1, 3), st.sampled_from([0, 1]))
    def test_family_prefix_monotonicity(self, m, initial):
        small = build_family(2, m, initial)
        big = build_family(2, m + 1, initial)
        assert _is_labelled_prefix(small.graph, small.label, big.graph, big.label)
        assert _family_min_dim(m, initial) <= _family_min_dim(m + 1, initial)


def _is_labelled_prefix(small, small_label, big, big_label):
    """Whether big restricted to vertices 0..small.n-1 is small with its label."""
    inside = [(e, uv) for e, uv in enumerate(big.edges) if uv[1] < small.n]
    return [uv for _, uv in inside] == list(small.edges) and all(
        big_label.bit(e) == small_label.bit(i) for i, (e, _) in enumerate(inside)
    )


@functools.lru_cache(maxsize=None)
def _family_min_dim(m, initial):
    """min_dim of the k=2 family at stage m; treewidth 2 caps it at 4."""
    lg = build_family(2, m, initial)
    return min_dim(lg.graph, lg.label, 4)
