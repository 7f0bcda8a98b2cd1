"""Command-line front end: every run emits one JSON certificate.

Exit codes: 0 completed (any verdict), 1 adverse verification verdict
(reducibility counterexample, invalid certificate), 2 input error,
3 budget exceeded, 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional, Tuple

from . import __version__, gf2, reducibility
from .assignment import (
    Assignment,
    assignment_to_inversions,
    diameter_via_assignment,
    hardest_label,
    least_dim,
    solve,
)
from .certificates import (
    check_certificate,
    family_json,
    levels_to_text,
    parse_levels_text,
    probe_reports_json,
    reduce_row_json,
)
from .errors import BudgetExceededError, InputFormatError, InvariantError
from .family import reconstruct_leveled
from .graph import (
    Label,
    Orientation,
    parse_labeled_graph,
    parse_labeled_graphs,
    serialize_labeled_graph,
)
from .inversion import diff_label

EXIT_OK = 0
EXIT_ADVERSE = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_INVARIANT = 4


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from None


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputFormatError(f"cannot write {path}: {exc}") from None


def _read_json(path: str, name: str):
    """The JSON value in a file; nesting too deep for the parser is an input
    error like any other unparsable text."""
    try:
        return json.loads(_read(path))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InputFormatError(f"{name} is not valid JSON: {exc}") from None


def _load_graph(path: str):
    return parse_labeled_graph(_read(path))


def _dimension(value: int, flag: str) -> int:
    if not 0 <= value <= gf2.MAX_DIM:
        raise InputFormatError(f"{flag} must be in 0..{gf2.MAX_DIM}, got {value}")
    return value


def _t_max(args, graph) -> int:
    """--t-max if given, else |E| clamped to the largest supported dimension."""
    if args.t_max is None:
        return min(graph.m, gf2.MAX_DIM)
    return _dimension(args.t_max, "--t-max")


def cmd_assign(args) -> Tuple[dict, int]:
    graph, label = _load_graph(args.graph)
    found = solve(graph, label, _dimension(args.t, "--t"))
    return {
        "kind": "assign",
        "graph": serialize_labeled_graph(graph, label),
        "label": label.to_string(),
        "t": args.t,
        "assignment": found.to_strings() if found else None,
        "verdict": "sat" if found else "unsat",
    }, EXIT_OK


def cmd_mindim(args) -> Tuple[dict, int]:
    graph, label = _load_graph(args.graph)
    t_max = _t_max(args, graph)
    d, witness = least_dim(graph, label, t_max)
    return {
        "kind": "mindim",
        "graph": serialize_labeled_graph(graph, label),
        "label": label.to_string(),
        "t": d if d is not None else t_max,
        "t_max": t_max,
        "assignment": witness.to_strings() if witness else None,
        "verdict": "sat" if d is not None else "exceeds",
    }, EXIT_OK


def cmd_distance(args) -> Tuple[dict, int]:
    graph, label = _load_graph(args.graph)
    o1 = Orientation.from_string(graph, _read(args.orientation1))
    o2 = Orientation.from_string(graph, _read(args.orientation2))
    diff = diff_label(o1, o2)
    t_max = _t_max(args, graph)
    d, witness = least_dim(graph, diff, t_max)
    if d is None:
        raise BudgetExceededError(f"distance exceeds t_max={t_max}")
    return {
        "kind": "distance",
        "graph": serialize_labeled_graph(graph, label),
        "orientation1": o1.to_string(),
        "orientation2": o2.to_string(),
        "label": diff.to_string(),
        "distance": d,
        "assignment": witness.to_strings() if d > 0 else None,
        "inversions": assignment_to_inversions(witness) if d > 0 else [],
    }, EXIT_OK


def cmd_diameter(args) -> Tuple[dict, int]:
    graph, label = _load_graph(args.graph)
    result = diameter_via_assignment(graph, _t_max(args, graph))
    return {
        "kind": "diameter",
        "graph": serialize_labeled_graph(graph, label),
        "diameter": result.diameter,
        "hardest_label": result.hardest_label.to_string(),
        "assignment": result.witness.to_strings(),
    }, EXIT_OK


def cmd_family(args) -> Tuple[dict, int]:
    try:
        doc = family_json(args.k, args.m, args.initial_label)
    except ValueError as exc:  # --k, --m or --initial-label out of range
        raise InputFormatError(str(exc)) from None
    files = {}
    for key, path in (("graph", args.graph_out), ("levels", args.levels_out)):
        if path:
            _write(path, doc[key] + "\n")
            files[key] = path
    return {**doc, "files": files or None}, EXIT_OK


def cmd_probe(args) -> Tuple[dict, int]:
    graph, label = _load_graph(args.graph)
    levels = parse_levels_text(_read(args.levels), graph.n)
    cert = _read_json(args.assignment, "--assignment")
    strings = cert.get("assignment") if isinstance(cert, dict) else cert
    if strings is None:
        raise InputFormatError("assignment certificate carries no witness")
    lg = reconstruct_leveled(graph, label, levels)
    try:
        assignment = Assignment.from_strings(graph, strings)
        reports = probe_reports_json(lg, assignment)  # checks dimension and label
    except (TypeError, ValueError) as exc:
        raise InputFormatError(f"unusable --assignment: {exc}") from None
    return {
        "kind": "probe",
        "k": lg.k,
        "m": lg.m,
        "graph": serialize_labeled_graph(graph, label),
        "levels": levels_to_text(levels),
        "assignment": strings,
        **reports,
    }, EXIT_OK


def cmd_reduce(args) -> Tuple[dict, int]:
    configs = reducibility.builtin_configs()
    if args.config:
        if args.config not in configs:
            raise InputFormatError(f"unknown configuration {args.config!r}")
        names = [args.config]
    else:
        names = list(configs)
    if args.mutate:
        muts = reducibility.builtin_mutations()
        if args.mutate not in muts:
            raise InputFormatError(f"unknown mutation {args.mutate!r}")
        target = muts[args.mutate].config
        if args.config and args.config != target:
            raise InputFormatError(
                f"mutation {args.mutate!r} targets {target}, not {args.config}"
            )
        names = [target]
    report = reducibility.run_suite(names, mutation=args.mutate)
    rows = [
        reduce_row_json(name, args.mutate, row, configs[name].graph)
        for name, row in zip(names, report.rows)
    ]
    doc = {
        "kind": "reduce",
        "mutation": args.mutate,
        "configs": rows,
        "suite_pass": report.passed,
    }
    if args.pretty:
        for row in rows:
            print(
                f"{row['name']:<40} {row['verdict']:<16} labels={row['label_count']:<6}"
                f" families={row['family_count']:<10} {row['wall_s']:.2f}s",
                file=sys.stderr,
            )
    return doc, EXIT_OK if report.passed else EXIT_ADVERSE


def cmd_search_hard(args) -> Tuple[dict, int]:
    _dimension(args.t_max, "--t-max")
    if args.budget < 1:
        raise InputFormatError(f"--budget must be >= 1, got {args.budget}")
    text = _read(args.graphs)
    entries = []
    for graph, _ in parse_labeled_graphs(text):
        result = hardest_label(graph, args.t_max, args.budget, args.seed)
        entries.append(
            {
                "graph": serialize_labeled_graph(graph, Label(graph, 0)),
                "label": result.label.to_string(),
                "min_dim": result.dim,
                "assignment": result.witness.to_strings() if result.dim else None,
                "exhaustive": result.exhaustive,
                "evaluations": result.evaluations,
            }
        )
    return {
        "kind": "search-hard",
        "t_max": args.t_max,
        "budget": args.budget,
        "seed": args.seed,
        "entries": entries,
    }, EXIT_OK


def cmd_check(args) -> Tuple[dict, int]:
    doc = _read_json(args.certificate, "the certificate")
    if not isinstance(doc, dict):
        raise InputFormatError("a certificate must be a JSON object")
    valid, kind, notes = check_certificate(doc)
    return {
        "kind": "check",
        "target_kind": kind,
        "valid": valid,
        "notes": notes,
    }, EXIT_OK if valid else EXIT_ADVERSE


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="write the JSON document here instead of stdout")
    p.add_argument("--pretty", action="store_true", help="indent JSON; print summary tables to stderr")
    p.add_argument("--no-meta", action="store_true", help="omit timestamps and wall times")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="invdiam",
        description="Exact computation and verification for graph orientation inversions.",
    )
    parser.add_argument("--version", action="version", version=f"invdiam {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("assign", help="solve for a fixed-dimension vector assignment")
    p.add_argument("graph")
    p.add_argument("--t", type=int, required=True)
    p.set_defaults(handler=cmd_assign)
    _add_common(p)

    p = sub.add_parser("mindim", help="least dimension admitting an assignment")
    p.add_argument("graph")
    p.add_argument("--t-max", type=int, default=None)
    p.set_defaults(handler=cmd_mindim)
    _add_common(p)

    p = sub.add_parser("distance", help="inversion distance between two orientations")
    p.add_argument("graph")
    p.add_argument("orientation1")
    p.add_argument("orientation2")
    p.add_argument("--t-max", type=int, default=None)
    p.set_defaults(handler=cmd_distance)
    _add_common(p)

    p = sub.add_parser("diameter", help="inversion diameter")
    p.add_argument("graph")
    p.add_argument("--t-max", type=int, default=None)
    p.set_defaults(handler=cmd_diameter)
    _add_common(p)

    p = sub.add_parser("family", help="build a leveled clique-expansion family")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--initial-label", default=None, help="bits for the base clique edges")
    p.add_argument("--graph-out")
    p.add_argument("--levels-out")
    p.set_defaults(handler=cmd_family)
    _add_common(p)

    p = sub.add_parser("probe", help="run family lemma probes on an assignment")
    p.add_argument("graph")
    p.add_argument("--levels", required=True)
    p.add_argument("--assignment", required=True, help="JSON certificate with a witness")
    p.set_defaults(handler=cmd_probe)
    _add_common(p)

    p = sub.add_parser("reduce", help="run reducibility configuration checks")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--config")
    group.add_argument("--all", action="store_true")
    p.add_argument("--mutate", default=None, help="apply a named constraint-dropping control")
    p.set_defaults(handler=cmd_reduce)
    _add_common(p)

    p = sub.add_parser("search-hard", help="search labels maximizing min_dim per graph")
    p.add_argument("graphs", help="file of blank-line separated labeled graphs")
    p.add_argument("--t-max", type=int, default=4)
    p.add_argument("--budget", type=int, default=2048)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=cmd_search_hard)
    _add_common(p)

    p = sub.add_parser("check", help="re-validate an emitted certificate")
    p.add_argument("certificate")
    p.set_defaults(handler=cmd_check)
    _add_common(p)

    return parser


def _meta(args, started: float) -> dict:
    meta = {"tool": "invdiam", "version": __version__}
    for key in ("seed", "budget", "t", "t_max", "k", "m"):
        if hasattr(args, key) and getattr(args, key) is not None:
            meta[key] = getattr(args, key)
    if not args.no_meta:
        meta["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())
        meta["wall_s"] = round(time.monotonic() - started, 3)
    return meta


def _strip_timings(doc: dict) -> None:
    if doc.get("kind") == "reduce":
        for row in doc.get("configs", []):
            row.pop("wall_s", None)


def _emit(doc: dict, args, out: Optional[str]) -> None:
    text = json.dumps(doc, indent=2 if args.pretty else None, sort_keys=True) + "\n"
    if out:
        _write(out, text)
    else:
        sys.stdout.write(text)


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        doc, code = args.handler(args)
        doc["meta"] = _meta(args, started)
        if args.no_meta:
            _strip_timings(doc)
        _emit(doc, args, args.out)
        return code
    except InputFormatError as exc:
        error, code = {"error": str(exc), "category": "input"}, EXIT_INPUT
    except BudgetExceededError as exc:
        error, code = {"error": str(exc), "category": "budget"}, EXIT_BUDGET
    except InvariantError as exc:
        error, code = {"error": str(exc), "category": "invariant"}, EXIT_INVARIANT
    error["kind"] = "error"
    try:
        _emit(error, args, args.out)
    except InputFormatError:  # --out itself cannot be written
        _emit(error, args, None)
    return code


if __name__ == "__main__":
    sys.exit(main())
