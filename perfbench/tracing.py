"""Span tracing for the traced benchmark run, from the benchmark's side.

``Tracer.install`` replaces public functions of the invdiam modules by
wrappers that record a span (name, start, end, parent) per call, and the
two GF(2) kernels and the BFS move generator by wrappers that only count
their calls (and time them, except the cheap ``dot_bits``); ``uninstall``
puts the originals back.  Nothing in
``src/`` changes.  A span's self time is its duration minus the time its
child spans and kernel calls cover; the run is single-threaded, so children
never overlap.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Dict, List

# Span record fields (lists, so that close() can fill them in place).
ID, PARENT, NAME, START, END, CHILD = range(6)


def _min_dim_tries(result, args) -> int:
    """t values min_dim attempted: 1..result, all of 1..t_max on failure,
    none for the zero label."""
    return args[2] if result is None else result


def _adding(counter: str, amount):
    """A span observer adding amount(result, args) to one counter."""

    def observe(counts, rec, result, args):
        counts[counter] += amount(result, args)

    return observe


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.kernels: Dict[str, List[float]] = {}  # name -> [calls, seconds]
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._saved: List[tuple] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [len(self.spans), parent, name, time.perf_counter(), 0.0, 0.0]
        self.spans.append(rec)
        self._stack.append(rec[ID])
        return rec

    def close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._stack.pop()
        if rec[PARENT] >= 0:
            self.spans[rec[PARENT]][CHILD] += rec[END] - rec[START]

    @staticmethod
    def self_s(rec: list) -> float:
        return rec[END] - rec[START] - rec[CHILD]

    # -- wrappers ----------------------------------------------------------

    def _patch(self, module, attr: str, wrapper) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _span(self, module, attr: str, observe=None) -> None:
        fn = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"

        def wrapper(*args, **kwargs):
            rec = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(rec)
            if observe is not None:
                observe(self.counts, rec, result, args)
            return result

        self._patch(module, attr, wrapper)

    def _span_generator(self, module, attr: str, counter: str) -> None:
        """One span per item drawn, since the consumer's work interleaves."""
        fn = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"

        def wrapper(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                rec = self.open(name)
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    self.close(rec)
                self.counts[counter] += 1
                yield item

        self._patch(module, attr, wrapper)

    def _kernel(self, module, attr: str, timed: bool = True) -> None:
        fn = getattr(module, attr)
        stat = self.kernels.setdefault(f"{module.__name__.rsplit('.', 1)[-1]}.{attr}", [0, 0.0])
        if not timed:
            def counted(*args):
                stat[0] += 1
                return fn(*args)

            self._patch(module, attr, counted)
            return
        clock, spans, stack = time.perf_counter, self.spans, self._stack

        def wrapper(*args):
            start = clock()
            result = fn(*args)
            seconds = clock() - start
            stat[0] += 1
            stat[1] += seconds
            if stack:
                spans[stack[-1]][CHILD] += seconds
            return result

        self._patch(module, attr, wrapper)

    def install(self) -> None:
        # Imported here so that run.py can read LAYER_METRICS without invdiam.
        from invdiam import assignment, certificates, cli, family, gf2, graph, inversion, reducibility

        moves = inversion.inversion_moves  # the cached original, for observers

        def bfs(counts, rec, result, args):
            counts["inversion.bfs.states"] += 1 << args[0].m
            counts["inversion.moves.count"] += len(moves(args[0]))

        def check_reducible(counts, rec, result, args):
            counts["reducibility.labels"] += result.label_count
            counts["reducibility.families"] += result.family_count
            if args[0].name == "bridge":
                counts["reducibility.bridge.self_s"] += self.self_s(rec)

        self._kernel(gf2, "solve_bits")
        self._kernel(gf2, "dot_bits", timed=False)
        self._kernel(inversion, "inversion_moves")
        self._span(graph, "parse_labeled_graph")
        self._span(graph, "parse_labeled_graphs")
        self._span(inversion, "bfs_all_distances", bfs)
        self._span(inversion, "bfs_diameter", bfs)
        self._span(assignment, "min_dim", _adding("assignment.min_dim.tries", _min_dim_tries))
        self._span(assignment, "solve")
        self._span(assignment, "solve_with_deadline")
        self._span(assignment, "verify")
        self._span_generator(assignment, "enumerate_assignments", "assignment.enumerate.count")
        self._span(
            assignment, "diameter_via_assignment",
            _adding("assignment.diameter.labels", lambda result, args: 1 << args[0].m),
        )
        self._span(
            assignment, "hardest_label",
            _adding("assignment.hardest_label.evaluations", lambda result, args: result.evaluations),
        )
        self._span(
            family, "build_family",
            _adding("family.vertices", lambda result, args: result.graph.n),
        )
        probed = _adding("family.probe.checked", lambda result, args: result.checked)
        self._span(family, "probe_clique_independence", probed)
        self._span(family, "probe_extension_dichotomy", probed)
        self._span(reducibility, "run_suite")
        self._span(reducibility, "check_reducible", check_reducible)
        self._span(certificates, "check_certificate")
        self._span(cli, "main")

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- results -----------------------------------------------------------

    def by_name(self) -> Dict[str, List[float]]:
        """name -> [calls, self seconds, total seconds]."""
        out: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for rec in self.spans:
            agg = out[rec[NAME]]
            agg[0] += 1
            agg[1] += self.self_s(rec)
            agg[2] += rec[END] - rec[START]
        return out

    def write(self, path) -> None:
        """Spans as JSON lines (id, parent, name, start, end), kernels first."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"kernels": self.kernels}) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec[:CHILD]) + "\n")


# Per-layer metrics of the traced run, with their units.  Every traced run
# reports all of them; a layer a workload does not use reads 0.
LAYER_METRICS = {
    "gf2.solve_bits.calls": "count",
    "gf2.solve_bits.self_s": "s",
    "gf2.dot_bits.calls": "count",
    "graph.parse.self_s": "s",
    "inversion.bfs.states": "count",
    "inversion.bfs.self_s": "s",
    "inversion.bfs.states_per_s": "1/s",
    "inversion.moves.count": "count",
    "inversion.inversion_moves.self_s": "s",
    "assignment.min_dim.calls": "count",
    "assignment.min_dim.self_s": "s",
    "assignment.min_dim.tries": "count",
    "assignment.min_dim.useful_ratio": "ratio",
    "assignment.context_build_s": "s",
    "assignment.solve.self_s": "s",
    "assignment.enumerate.count": "count",
    "assignment.enumerate.self_s": "s",
    "assignment.diameter.labels": "count",
    "assignment.diameter.self_s": "s",
    "assignment.diameter.labels_per_s": "1/s",
    "assignment.hardest_label.evaluations": "count",
    "assignment.hardest_label.self_s": "s",
    "family.build_family.self_s": "s",
    "family.vertices": "count",
    "family.probe.checked": "count",
    "family.probe.self_s": "s",
    "reducibility.labels": "count",
    "reducibility.families": "count",
    "reducibility.families_per_s": "1/s",
    "reducibility.check_reducible.self_s": "s",
    "reducibility.bridge.self_s": "s",
    "certificates.check_certificate.calls": "count",
    "certificates.check_certificate.self_s": "s",
    "cli.main.self_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.self_sum_s": "s",
    "trace.layer_share": "ratio",
    "trace.spans": "count",
}


def layer_metrics(tracer: Tracer, work: list, kernels_before: Dict[str, float]) -> Dict[str, float]:
    """Per-layer values of one traced round.  ``work`` is the root span of
    the timed region, ``kernels_before`` the kernel seconds at its start.
    The caller fills in ``assignment.context_build_s``."""
    spans = tracer.by_name()
    counts = tracer.counts

    def self_s(*names):
        return sum(spans[n][1] for n in names if n in spans)

    def total_s(*names):
        return sum(spans[n][2] for n in names if n in spans)

    def calls(name):
        return spans[name][0] if name in spans else 0

    def kernel(name, field):
        return tracer.kernels.get(name, [0, 0.0])[field]

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    bfs = ("inversion.bfs_all_distances", "inversion.bfs_diameter")
    min_dim_calls = calls("assignment.min_dim")
    kernel_work_s = sum(
        stat[1] - kernels_before.get(name, 0.0) for name, stat in tracer.kernels.items()
    )
    in_work = [rec for rec in tracer.spans if rec[ID] >= work[ID]]
    wall = work[END] - work[START]
    values = {
        "gf2.solve_bits.calls": kernel("gf2.solve_bits", 0),
        "gf2.solve_bits.self_s": kernel("gf2.solve_bits", 1),
        "gf2.dot_bits.calls": kernel("gf2.dot_bits", 0),
        "graph.parse.self_s": self_s("graph.parse_labeled_graph", "graph.parse_labeled_graphs"),
        "inversion.bfs.states": counts["inversion.bfs.states"],
        "inversion.bfs.self_s": self_s(*bfs),
        "inversion.bfs.states_per_s": rate(counts["inversion.bfs.states"], total_s(*bfs)),
        "inversion.moves.count": counts["inversion.moves.count"],
        "inversion.inversion_moves.self_s": kernel("inversion.inversion_moves", 1),
        "assignment.min_dim.calls": min_dim_calls,
        "assignment.min_dim.self_s": self_s("assignment.min_dim"),
        "assignment.min_dim.tries": counts["assignment.min_dim.tries"],
        "assignment.min_dim.useful_ratio": rate(min_dim_calls, counts["assignment.min_dim.tries"]),
        "assignment.context_build_s": 0.0,
        "assignment.solve.self_s": self_s("assignment.solve", "assignment.solve_with_deadline"),
        "assignment.enumerate.count": counts["assignment.enumerate.count"],
        "assignment.enumerate.self_s": self_s("assignment.enumerate_assignments"),
        "assignment.diameter.labels": counts["assignment.diameter.labels"],
        "assignment.diameter.self_s": self_s("assignment.diameter_via_assignment"),
        "assignment.diameter.labels_per_s": rate(
            counts["assignment.diameter.labels"], total_s("assignment.diameter_via_assignment")
        ),
        "assignment.hardest_label.evaluations": counts["assignment.hardest_label.evaluations"],
        "assignment.hardest_label.self_s": self_s("assignment.hardest_label"),
        "family.build_family.self_s": self_s("family.build_family"),
        "family.vertices": counts["family.vertices"],
        "family.probe.checked": counts["family.probe.checked"],
        "family.probe.self_s": self_s(
            "family.probe_clique_independence", "family.probe_extension_dichotomy"
        ),
        "reducibility.labels": counts["reducibility.labels"],
        "reducibility.families": counts["reducibility.families"],
        "reducibility.families_per_s": rate(
            counts["reducibility.families"], total_s("reducibility.check_reducible")
        ),
        "reducibility.check_reducible.self_s": self_s("reducibility.check_reducible"),
        "reducibility.bridge.self_s": counts["reducibility.bridge.self_s"],
        "certificates.check_certificate.calls": calls("certificates.check_certificate"),
        "certificates.check_certificate.self_s": self_s("certificates.check_certificate"),
        "cli.main.self_s": self_s("cli.main"),
        "trace.wall_s": wall,
        "trace.self_sum_s": sum(Tracer.self_s(rec) for rec in in_work) + kernel_work_s,
        "trace.layer_share": 1.0 - Tracer.self_s(work) / wall if wall > 0 else 0.0,
        "trace.spans": len(tracer.spans),
    }
    return {name: float(v) for name, v in values.items()}
