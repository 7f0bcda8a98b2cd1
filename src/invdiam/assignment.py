"""Vector assignments: solving f(u).f(v) = label(uv) over F2^t.

The minimum dimension admitting an assignment for the XOR label of two
orientations equals their inversion distance, so this solver is the CLI's
exact distance/diameter engine; `check` re-derives small diameters by BFS.
"""

from __future__ import annotations

import functools
import heapq
import random
import time
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from . import gf2
from .errors import BudgetExceededError, InvariantError
from .graph import Graph, Label

DIAMETER_LABEL_BUDGET = 24
# The root of a search lists all 2^t words of F2^t (2^24 words take about
# 1 GB); a search at a larger t raises BudgetExceededError.
SEARCH_DIM_BUDGET = 24
_DEADLINE_CHECK_INTERVAL = 2048


@dataclass(frozen=True)
class Assignment:
    """One vector of F2^t per vertex, as words: coordinate i of vertex v's
    vector is bit i of words[v] (the text form puts coordinate 0 first)."""

    graph: Graph
    t: int
    words: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.words) != self.graph.n:
            raise ValueError(f"expected {self.graph.n} vectors, got {len(self.words)}")
        _check_t(self.t)
        if self.words and not (0 <= min(self.words) and max(self.words) < 1 << self.t):
            raise ValueError(f"a vector has set bits at or above dimension t={self.t}")

    @functools.cached_property
    def induced_bits(self) -> int:
        """The label word these vectors realize: bit e is f(u).f(v) on edge
        e.  Evaluated word-parallel: the graph's cached gatherer picks the
        first end's word of every edge, then the second end's, and packs
        them one slot each (gf2.pack_slots); one AND of the two halves
        leaves every edge's product in its slot, whose parity
        gf2.slot_parity_word reads."""
        m = self.graph.m
        width = gf2.slot_width(self.t)
        ends = gf2.pack_slots(_edge_ends(self.graph)(self.words), width)
        return gf2.slot_parity_word(ends & (ends >> (8 * width * m)), m, width)

    def bits(self) -> List[int]:
        return list(self.words)

    def to_strings(self) -> List[str]:
        return [gf2.word_to_text(w, self.t) for w in self.words]

    @classmethod
    def from_bits(cls, graph: Graph, t: int, bits: Sequence[int]) -> "Assignment":
        return cls(graph, t, tuple(bits))

    @classmethod
    def from_strings(cls, graph: Graph, strings: Sequence[str]) -> "Assignment":
        t = len(strings[0]) if strings else 0
        for s in strings:
            if len(s) != t:
                raise ValueError(f"vector {s!r} has length {len(s)}, expected {t}")
        return cls(graph, t, tuple(map(gf2.text_to_word, strings)))


@functools.lru_cache(maxsize=256)
def _edge_ends(graph: Graph) -> Callable[[Sequence[int]], Tuple[int, ...]]:
    """A gatherer of the first end of every edge, in edge order, and then
    of the second end of every edge."""
    return gf2.gatherer([u for u, _ in graph.edges] + [v for _, v in graph.edges])


def verify(graph: Graph, label: Label, assignment: Assignment) -> bool:
    """True iff f(u).f(v) = label(uv) on every edge."""
    if assignment.graph != graph:
        raise ValueError("assignment belongs to a different graph")
    if label.graph != graph:
        raise ValueError("label belongs to a different graph")
    return assignment.induced_bits == label.bits


class _Timeout(Exception):
    pass


class _SolveContext:
    """Per-graph search preparation, reusable across labels and dimensions.

    Vertices are ordered by descending adjacency into the already-placed
    prefix (ties by index), so each new vertex meets the largest possible
    linear system and candidates come from its affine solution set.  The
    order is built in O(m log n): buckets[c] is a min-heap of the vertices
    that reached c placed neighbours, `top` is the highest bucket that may
    hold an unplaced vertex at its current count, and an entry whose vertex
    has since reached a higher count is dropped when it surfaces.  A placed
    vertex stops counting, so its entries left in lower buckets are stale.

    `forward[p]` lists, for the vertex at position p, its (later position,
    edge index) pairs in ascending order: the equations a placement at p
    adds to later systems.  `incident[v]`, built on first use, holds the
    indices of v's edges in the order of graph.adjacency[v], for witness
    repair.  The context holds no search state, so searches on it may be
    abandoned or interleaved.
    """

    def __init__(self, graph: Graph):
        self.graph = graph
        n = graph.n
        placed: List[int] = []
        in_prefix = [False] * n
        deg_into = [0] * n
        buckets: List[List[int]] = [list(range(n))]
        top = 0
        for _ in range(n):
            while True:
                bucket = buckets[top]
                if not bucket:
                    top -= 1
                    continue
                best = heapq.heappop(bucket)
                if deg_into[best] == top:  # else a stale entry
                    break
            placed.append(best)
            in_prefix[best] = True
            for w in graph.adjacency[best]:
                if in_prefix[w]:
                    continue
                c = deg_into[w] = deg_into[w] + 1
                if c == len(buckets):
                    buckets.append([])
                heapq.heappush(buckets[c], w)
                if c > top:
                    top = c
        self.order = placed
        pos_of = {v: p for p, v in enumerate(placed)}
        self.forward: List[List[Tuple[int, int]]] = [
            sorted(
                (pos_of[w], graph.edge_index(v, w))
                for w in graph.adjacency[v]
                if pos_of[w] > p
            )
            for p, v in enumerate(placed)
        ]

    @functools.cached_property
    def incident(self) -> List[Tuple[int, ...]]:
        graph = self.graph
        return [tuple(graph.edge_index(v, w) for w in graph.adjacency[v]) for v in range(graph.n)]

    def search(
        self,
        label_bits: int,
        t: int,
        deadline: Optional[float] = None,
        prefer: Optional[Sequence[int]] = None,
        canonical: bool = False,
    ) -> Iterator[List[int]]:
        """Yield every valid assignment (words indexed by vertex), in order.

        Backtracking is complete: the candidate list at each vertex is
        exactly the affine solution set of its constraints against the
        assigned prefix, ascending (a preferred word, if given and legal,
        is tried first).  On a nonempty graph a t above SEARCH_DIM_BUDGET
        raises BudgetExceededError when the search starts.

        With `canonical`, only coordinate-canonical assignments are
        yielded.  Each stack level holds an ordered partition of the t
        coordinates into runs, as a word with bit i set where a run starts;
        the root has one run.  A candidate must be left-justified in every
        run (its ones in a run come first, from the low coordinate), and
        placing it splits each run where its ones end; once every run is a
        single coordinate the filter passes everything.  This loses no
        existence verdict: the placed vectors are constant on each run, so
        permuting coordinates inside runs keeps them, and a permutation of
        coordinates keeps every dot product.  Any assignment can thus be
        made canonical vertex by vertex, in order.

        Without `prefer`, the first canonical yield is the plain search's
        first yield W (the lex-leader argument of symmetry-breaking
        predicates).  The plain search yields in lexicographic order of
        the words along `order`.  If the word W places at position p were
        not left-justified in some run of the partition the earlier words
        refined, swapping a set coordinate h of that run with a clear
        coordinate l < h of the same run would fix every earlier word and
        keep every dot product, giving a solution whose word at p is
        smaller by 2^h - 2^l: W would not be first.  So W is canonical,
        and the canonical search, which visits a subset of the plain
        nodes in the same order, yields it first.  A preferred word breaks
        the ascending order, so the argument needs `prefer` to be None.

        Forward checking is incremental: each position keeps the echelon
        rows of its equations against its placed neighbours, a row being a
        word with the right-hand side in bit t and its lowest set bit as
        pivot.  Placing vector x at a position reduces the row
        x | label(e) << t into the echelon of each later neighbour; a new
        pivot appends the row, and a row reduced to 0 = 1 prunes the branch
        as soon as the contradiction is determined, not when the neighbour
        is reached.  A trail records which positions gained a row, and each
        stack level marks the trail's length, so backtracking pops rows
        back to that level.
        """
        n = self.graph.n
        if n == 0:
            if label_bits == 0:
                yield []
            return
        if t > SEARCH_DIM_BUDGET:
            raise BudgetExceededError(
                f"a search at t={t} lists 2^{t} root words; the budget is t <= {SEARCH_DIM_BUDGET}"
            )
        order = self.order
        forward = self.forward
        solve_bits = gf2.solve_bits
        mask = (1 << t) - 1
        vecs = [0] * n
        echelon: List[List[int]] = [[] for _ in range(n)]
        trail: List[int] = []
        marks: List[int] = []
        stack: List[List[int]] = []
        # Run starts per stack level, for canonical searches at t > 1; at a
        # level whose runs are single coordinates (runs[p] == mask) the
        # filter passes everything.
        split = canonical and t > 1
        runs: List[int] = [1] if split else []
        nodes = 0

        def candidates(p: int) -> List[int]:
            rows = echelon[p]
            # Independent rows with nonzero coefficients are always solvable.
            particular, basis = solve_bits([r & mask for r in rows], [r >> t for r in rows], t)
            cands = gf2.affine_solutions_bits(particular, basis)
            if split and runs[p] != mask:
                starts = runs[p]
                # A run of ones may begin only where a coordinate run starts.
                cands = [x for x in cands if not x & ~((x << 1) | starts)]
            if prefer is not None:
                want = prefer[order[p]]
                if want in cands:
                    cands.remove(want)
                    cands.insert(0, want)
            # Reversed so list.pop() consumes them in ascending order.
            cands.reverse()
            return cands

        stack.append(candidates(0))
        marks.append(0)
        while stack:
            nodes += 1
            if deadline is not None and nodes % _DEADLINE_CHECK_INTERVAL == 0:
                if time.monotonic() > deadline:
                    raise _Timeout()
            top = stack[-1]
            if not top:
                stack.pop()
                marks.pop()
                if split:
                    runs.pop()
                continue
            p = len(stack) - 1
            mark = marks[p]
            while len(trail) > mark:
                echelon[trail.pop()].pop()
            x = vecs[order[p]] = top.pop()
            if p + 1 == n:
                yield list(vecs)
                continue
            for q, e in forward[p]:
                row = x | ((label_bits >> e) & 1) << t
                rows = echelon[q]
                for r in rows:
                    if row & r & -r:
                        row ^= r
                if row & mask:
                    rows.append(row)
                    trail.append(q)
                elif row:
                    break
            else:
                if split:
                    runs.append(runs[p] | (x << 1) & ~x & mask)
                stack.append(candidates(p + 1))
                marks.append(len(trail))


@functools.lru_cache(maxsize=256)
def _context(graph: Graph) -> _SolveContext:
    return _SolveContext(graph)


def _check_label(graph: Graph, label: Label) -> None:
    if label.graph != graph:
        raise ValueError("label belongs to a different graph")


def _check_t(t: int) -> None:
    if not 0 <= t <= gf2.MAX_DIM:
        raise ValueError(f"t must be in 0..{gf2.MAX_DIM}, got {t}")


def _least(
    ctx: _SolveContext,
    bits: int,
    t_lo: int,
    t_hi: int,
    prefer: Optional[Sequence[int]] = None,
    deadline: Optional[float] = None,
) -> Tuple[Optional[int], Optional[List[int]]]:
    """Least t in t_lo..t_hi admitting an assignment, with the plain
    search's first witness at t (words indexed by vertex, preferred words
    tried first); (None, None) if every t fails.

    Without `prefer` each search runs canonically: by the lemma in
    _SolveContext.search it finds the same first witness, and it refutes a
    t in fewer nodes.  With `prefer` the searches stay plain."""
    for t in range(t_lo, t_hi + 1):
        words = next(ctx.search(bits, t, deadline, prefer, canonical=prefer is None), None)
        if words is not None:
            return t, words
    return None, None


def _repair(ctx: _SolveContext, words: List[int], bits: int, edge: int, t: int) -> bool:
    """Absorb a flip of `edge` into `words`, a witness at dimension t for
    the label bits ^ (1 << edge): re-solve one endpoint's vector against its
    neighbours' under `bits`, the first endpoint first.  Changes one word in
    place and returns True, or returns False and changes nothing."""
    graph = ctx.graph
    for x in graph.edges[edge]:
        sol = gf2.solve_bits(
            [words[w] for w in graph.adjacency[x]],
            [(bits >> e) & 1 for e in ctx.incident[x]],
            t,
        )
        if sol is not None:
            words[x] = sol[0]
            return True
    return False


def solve(graph: Graph, label: Label, t: int) -> Optional[Assignment]:
    """Find a valid t-dimensional assignment, or None if none exists.

    The witness is the plain search's first, found by a canonical search
    (see _least)."""
    _check_label(graph, label)
    _check_t(t)
    _, words = _least(_context(graph), label.bits, t, t)
    return None if words is None else Assignment.from_bits(graph, t, words)


def solve_with_deadline(
    graph: Graph, label: Label, t: int, deadline: float
) -> Tuple[str, Optional[Assignment]]:
    """Like solve, but stops at a monotonic-clock deadline, read every
    _DEADLINE_CHECK_INTERVAL nodes of the same canonical search.

    Returns ("sat", assignment), ("unsat", None) or ("timeout", None).
    """
    _check_label(graph, label)
    _check_t(t)
    try:
        _, words = _least(_context(graph), label.bits, t, t, deadline=deadline)
    except _Timeout:
        return "timeout", None
    if words is None:
        return "unsat", None
    return "sat", Assignment.from_bits(graph, t, words)


def enumerate_assignments(
    graph: Graph, label: Label, t: int, cap: int
) -> Iterator[Assignment]:
    """Yield distinct valid assignments in deterministic order, up to cap.

    The search is asked for no more than cap assignments, and for none at
    all when cap <= 0."""
    _check_label(graph, label)
    _check_t(t)
    if cap <= 0:
        return
    for words in islice(_context(graph).search(label.bits, t), cap):
        yield Assignment.from_bits(graph, t, words)


def min_dim(graph: Graph, label: Label, t_max: int) -> Optional[int]:
    """Least t in 0..t_max admitting an assignment; None if all fail.

    Decided by the canonical searches of least_dim (see _least), without
    building the witness."""
    _check_label(graph, label)
    _check_t(t_max)
    if label.bits == 0:
        return 0
    return _least(_context(graph), label.bits, 1, t_max)[0]


def least_dim(
    graph: Graph, label: Label, t_max: int
) -> Tuple[Optional[int], Optional[Assignment]]:
    """min_dim together with the witness solve would return at that t.

    The zero label gets the all-zero 0-dimensional assignment; (None, None)
    if every t <= t_max fails.
    """
    _check_label(graph, label)
    _check_t(t_max)
    if label.bits == 0:
        return 0, Assignment.from_bits(graph, 0, [0] * graph.n)
    t, words = _least(_context(graph), label.bits, 1, t_max)
    if words is None:
        return None, None
    return t, Assignment.from_bits(graph, t, words)


def _witness(ctx: _SolveContext, label: Label, t: int) -> Assignment:
    """solve's witness for a label whose min_dim a walk or climb found to
    be t; InvariantError if there is none."""
    words = _least(ctx, label.bits, t, t)[1]
    if words is None:
        raise InvariantError(f"no witness for label {label.to_string()} at its min_dim {t}")
    return Assignment.from_bits(ctx.graph, t, words)


@dataclass(frozen=True)
class DiameterResult:
    diameter: int
    hardest_label: Label
    witness: Assignment


def _walk_labels(ctx: _SolveContext, t_max: int) -> Tuple[Optional[int], int]:
    """The largest min_dim over all labels and the least label word at it;
    (None, w) when some label needs more than t_max, w the least such word.

    Labels are visited in Gray-code order, keeping `best` (the largest
    min_dim so far) and `words`, a witness at dimension `best` for label
    `words_bits`; lower-dimensional witnesses count, padded with zero
    coordinates.  When `words_bits` is the previous label, the new one
    differs from it on one edge, and `_repair` tries to absorb the flip.
    Otherwise, or if neither endpoint absorbs it, a search at `best`
    preferring the old witness takes over, and only if that fails does the
    search climb from best + 1, which sets a new record.

    Ties go to the numerically least label word: a label that fits in
    `best` and undercuts the current hardest label replaces it when a
    canonical search refutes best - 1.  A label that needs more than t_max
    becomes `over` and `best` becomes t_max; from then on only a smaller
    word can change the answer, so every word above `over` is skipped and
    ties are no longer checked.
    """
    graph = ctx.graph
    best = 0
    best_label_bits = 0
    over: Optional[int] = None
    words = [0] * graph.n
    words_bits = 0
    for i in range(1, 1 << graph.m):
        bits = i ^ (i >> 1)
        if over is not None and bits > over:
            continue
        edge = (i & -i).bit_length() - 1
        # Repair only a witness of the previous label; a skipped label or one
        # beyond t_max leaves an older one.
        if words_bits != bits ^ (1 << edge) or not _repair(ctx, words, bits, edge, best):
            found_t, found = _least(ctx, bits, best, t_max, prefer=words)
            if found_t is None:
                over, best = bits, t_max
                continue
            if found_t > best:
                best, best_label_bits, words, words_bits = found_t, bits, found, bits
                continue
            words = found
        words_bits = bits
        if (
            over is None
            and bits < best_label_bits
            and next(ctx.search(bits, best - 1, canonical=True), None) is None
        ):
            best_label_bits = bits
    return (best, best_label_bits) if over is None else (None, over)


def diameter_via_assignment(graph: Graph, t_max: int = gf2.MAX_DIM) -> DiameterResult:
    """Max over all labels of min_dim, with a witnessing hardest label.

    The hardest label is the numerically least label word at the diameter
    (found by `_walk_labels`), and the witness is solve's for it at the
    diameter (all-zero at t = 0 when there are no edges).  Raises
    BudgetExceededError naming the least label word that needs more than
    t_max, if there is one.
    """
    if graph.m > DIAMETER_LABEL_BUDGET:
        raise BudgetExceededError(
            f"diameter_via_assignment needs |E| <= {DIAMETER_LABEL_BUDGET}, got {graph.m}"
        )
    _check_t(t_max)
    ctx = _context(graph)
    best, bits = _walk_labels(ctx, t_max)
    label = Label(graph, bits)
    if best is None:
        raise BudgetExceededError(f"label {label.to_string()} exceeds t_max={t_max}")
    return DiameterResult(best, label, _witness(ctx, label, best))


@dataclass(frozen=True)
class HardestResult:
    """Best label found; dim is None when it defeats every t <= t_max.

    witness is the first assignment at dim (all-zero words for dim 0),
    None when dim is None."""

    label: Label
    dim: Optional[int]
    exhaustive: bool
    evaluations: int
    witness: Optional[Assignment]


def _score(dim: Optional[int]) -> int:
    return 10**9 if dim is None else dim


_Evaluation = Tuple[Optional[int], Optional[List[int]]]


def _flip_dim(
    ctx: _SolveContext, bits: int, edge: int, d0: int, words0: List[int], t_max: int
) -> _Evaluation:
    """min_dim of `bits` (None beyond t_max) with a witness, given words0,
    a witness at d0 >= 1, the exact min_dim of bits ^ (1 << edge).

    One flipped edge moves min_dim by at most one.  `_repair`, or else a
    search at d0 preferring words0, decides whether bits fits in d0; if not,
    the climb from d0 + 1 preferring words0 gives the answer.  A fit at
    d0 > 1 is settled by one canonical search at d0 - 1.
    """
    words: Optional[List[int]] = list(words0)
    if not _repair(ctx, words, bits, edge, d0):
        d, words = _least(ctx, bits, d0, t_max, prefer=words0)
        if d != d0:
            return d, words
    if d0 > 1:
        lower = next(ctx.search(bits, d0 - 1, canonical=True), None)
        if lower is not None:
            return d0 - 1, lower
    return d0, words


def hardest_label(
    graph: Graph, t_max: int, budget: int, seed: int = 0
) -> HardestResult:
    """Search label space for a label maximizing min_dim.

    Exhaustive when 2^|E| fits the budget: the Gray-code walk of
    diameter_via_assignment over all labels, counted as 2^|E| evaluations,
    whose label is the least word at the largest min_dim, or the least word
    that needs more than t_max (dim None).  Otherwise seeded hill-climbing
    over single-bit flips with sideways moves and restarts, with the zero
    label as the starting best.  Deterministic for a fixed seed; ties
    prefer the numerically least label word.  The witness is solve's for
    the label at dim.

    The climb keeps a witness with each evaluated label, and evaluates a
    neighbour of a label at dimension d0 >= 1 from that label's witness
    (`_flip_dim`).  The start, restarts and the neighbours of labels at
    dimension 0 or beyond t_max are evaluated by canonical searches from
    t = 1.
    """
    _check_t(t_max)
    m = graph.m
    budget = max(budget, 1)
    ctx = _context(graph)
    if (1 << m) <= budget:
        dim, bits = _walk_labels(ctx, t_max)
        exhaustive, evaluations = True, 1 << m
    else:
        dim, bits, evaluations = _climb(ctx, t_max, budget, seed)
        exhaustive = False
    label = Label(graph, bits)
    witness = None if dim is None else _witness(ctx, label, dim)
    return HardestResult(label, dim, exhaustive, evaluations, witness)


def _climb(
    ctx: _SolveContext, t_max: int, budget: int, seed: int
) -> Tuple[Optional[int], int, int]:
    """hardest_label's hill-climb: (dim, label word, evaluations)."""
    m = ctx.graph.m
    zeros = [0] * ctx.graph.n
    evaluated: Dict[int, _Evaluation] = {}
    best_bits, best_dim = 0, 0

    def evaluate(bits: int, edge: int = -1, base: _Evaluation = (None, None)) -> _Evaluation:
        """Evaluate bits, from `base`, the evaluation of bits ^ (1 << edge),
        when that is at a dimension d0 >= 1 (and so has a witness)."""
        nonlocal best_bits, best_dim
        if bits not in evaluated:
            d0, words0 = base
            if not bits:
                found: _Evaluation = (0, zeros)
            elif d0:
                found = _flip_dim(ctx, bits, edge, d0, words0, t_max)
            else:
                found = _least(ctx, bits, 1, t_max)
            evaluated[bits] = found
            d = found[0]
            if _score(d) > _score(best_dim) or (
                _score(d) == _score(best_dim) and bits < best_bits
            ):
                best_bits, best_dim = bits, d
        return evaluated[bits]

    rng = random.Random(seed)
    current = rng.getrandbits(m)
    current_eval = evaluate(current)
    stall = 0
    attempts = 0
    while len(evaluated) < budget and attempts < 64 * budget:
        attempts += 1
        edge = rng.randrange(m)
        neighbor = current ^ (1 << edge)
        found = evaluate(neighbor, edge, current_eval)
        if _score(found[0]) >= _score(current_eval[0]):
            improved = _score(found[0]) > _score(current_eval[0])
            current, current_eval = neighbor, found
            if improved:
                stall = 0
                continue
        stall += 1
        if stall > 3 * m:
            current = rng.getrandbits(m)
            current_eval = evaluate(current)
            stall = 0
    return best_dim, best_bits, len(evaluated)


def assignment_to_inversions(assignment: Assignment) -> List[List[int]]:
    """Decompose an assignment into inversion sets, one per coordinate.

    Inverting X_i = {v : coordinate i of f(v) is 1} for i = 0..t-1 flips
    each edge uv exactly f(u).f(v) times mod 2, i.e. realizes the label
    the assignment certifies.
    """
    words = assignment.words
    return [[v for v, w in enumerate(words) if (w >> i) & 1] for i in range(assignment.t)]


__all__ = [
    "DIAMETER_LABEL_BUDGET",
    "Assignment",
    "DiameterResult",
    "HardestResult",
    "verify",
    "solve",
    "solve_with_deadline",
    "enumerate_assignments",
    "min_dim",
    "least_dim",
    "diameter_via_assignment",
    "hardest_label",
    "assignment_to_inversions",
]
