#!/usr/bin/env python3
"""Run a fixed corpus of CLI invocations with --no-meta and record each one.

OUT_DIR/<name>.out holds an invocation's exit code, then its stdout;
<name>.check.out the same for `invdiam check` on that output.  Compare two
checkouts with `diff -r` on their directories:

    PYTHONPATH=src python3 tools/no_meta_corpus.py /tmp/corpus-new

A traceback is recorded as `exit traceback ...`; the script then still
runs the rest.  It exits 1, listing them on stderr, if any invocation
ended in a traceback, or emitted a document other than an error document
that `check` did not accept.  It exits 1 before running anything, naming
the directory, if tests/fixtures/corpus_n5 or tests/fixtures/outerplanar
holds no .ilg file.

Corpus: each corpus_n5 and outer-planar fixture graph, relabelled 1010...,
through `assign --t 1..4`, `mindim`, `distance` (all-zero to the
alternating orientation) and, if m <= 12, `diameter`;
`search-hard --budget 256`, `search-hard --t-max 1
--budget 512` and `search-hard --seed 3 --budget 1024` (longer climbs,
with restarts) on each outer-planar file; `reduce --all` and the seven
`reduce --mutate` controls, with `check` on the `k23-drop-min-size` control
forged into a reducible row;
`family --k 2 --m 2` and `--m 3`; the stage-3 and stage-4 k=2 family graphs
(n=366 and n=3,282) and the stage-3 k=3 family graph (n=5,211) written by
`family --graph-out`, through `assign` at their least dimension (4, 4
and 5) and one below it (unsat), and the stage-3 k=2 graph through
`mindim`; the families at (k, m) = (1, 1), (2, 2) and (3, 1), and at
(2, 2) and (3, 1) with initial labels 1 and 101, through `assign --t 2k-1`
and `probe` on that witness.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import traceback
from pathlib import Path

from invdiam.cli import main
from invdiam.graph import Label, parse_labeled_graphs, serialize_labeled_graph
from invdiam.reducibility import builtin_mutations

FIXTURES = Path(__file__).resolve().parent.parent / "tests" / "fixtures"


def run(name: str, argv) -> None:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        try:
            code = main(list(argv) + ["--no-meta"])
        except Exception:  # a traceback is a finding; record it, keep going
            code = "traceback " + traceback.format_exc().splitlines()[-1]
    Path(f"{name}.out").write_text(f"exit {code}\n{stdout.getvalue()}")
    if argv[0] != "check":
        Path(f"{name}.json").write_text(stdout.getvalue())
        run(f"{name}.check", ["check", f"{name}.json"])


def fixture_files(name: str):
    """The .ilg files of tests/fixtures/<name>, sorted; exits 1 naming the
    directory if it holds none."""
    paths = sorted((FIXTURES / name).glob("*.ilg"))
    if not paths:
        sys.exit(f"no .ilg fixture files in {FIXTURES / name}")
    return paths


def corpus(small, outerplanar):
    for path in small:
        yield path.stem, parse_labeled_graphs(path.read_text())[0][0]
    for path in outerplanar:
        for i, (graph, _) in enumerate(parse_labeled_graphs(path.read_text())):
            yield f"{path.stem}_{i:02d}", graph


def main_corpus(out_dir: Path) -> None:
    small, outerplanar = fixture_files("corpus_n5"), fixture_files("outerplanar")
    out_dir.mkdir(parents=True, exist_ok=True)
    os.chdir(out_dir)  # relative paths keep the outputs independent of OUT_DIR
    for name, graph in corpus(small, outerplanar):
        alternating = "".join("1" if e % 2 == 0 else "0" for e in range(graph.m))
        label = Label.from_string(graph, alternating)
        Path(f"{name}.ilg").write_text(serialize_labeled_graph(graph, label) + "\n")
        Path(f"{name}.o1").write_text("0" * graph.m + "\n")
        Path(f"{name}.o2").write_text(alternating + "\n")
        for t in range(1, 5):
            run(f"{name}.assign{t}", ["assign", f"{name}.ilg", "--t", str(t)])
        run(f"{name}.mindim", ["mindim", f"{name}.ilg"])
        run(f"{name}.distance", ["distance", f"{name}.ilg", f"{name}.o1", f"{name}.o2"])
        if graph.m <= 12:
            run(f"{name}.diameter", ["diameter", f"{name}.ilg"])
    for path in outerplanar:
        run(f"{path.stem}.search-hard", ["search-hard", str(path), "--budget", "256"])
        run(
            f"{path.stem}.search-hard-t1",
            ["search-hard", str(path), "--t-max", "1", "--budget", "512"],
        )
        run(
            f"{path.stem}.search-hard-seed3",
            ["search-hard", str(path), "--seed", "3", "--budget", "1024"],
        )
    run("reduce-all", ["reduce", "--all"])
    for mutation in sorted(builtin_mutations()):
        run(f"reduce-{mutation}", ["reduce", "--mutate", mutation])
    forged = json.loads(Path("reduce-k23-drop-min-size.json").read_text())
    forged["suite_pass"] = True
    del forged["configs"][0]["counterexample"]
    forged["configs"][0].update(verdict="reducible", family_count=12345)
    Path("reduce-k23-forged-reducible.json").write_text(json.dumps(forged))
    run("reduce-k23-forged-reducible.check", ["check", "reduce-k23-forged-reducible.json"])
    for m in (2, 3):
        run(f"family-k2-m{m}", ["family", "--k", "2", "--m", str(m)])
    # The least dimension of each graph and the one below it.
    for k, m, t_min in ((2, 3, 4), (2, 4, 4), (3, 3, 5)):
        stage = f"family-k{k}-m{m}-graph"
        run(stage, ["family", "--k", str(k), "--m", str(m), "--graph-out", f"{stage}.ilg"])
        for t in (t_min - 1, t_min):
            run(f"{stage}.assign{t}", ["assign", f"{stage}.ilg", "--t", str(t)])
    run("family-k2-m3-graph.mindim", ["mindim", "family-k2-m3-graph.ilg"])
    for k, m, initial in ((1, 1, ""), (2, 2, ""), (3, 1, ""), (2, 2, "1"), (3, 1, "101")):
        stem = f"family-k{k}-m{m}{'-i' + initial if initial else ''}-probe"
        label = ["--initial-label", initial] if initial else []
        run(
            stem,
            ["family", "--k", str(k), "--m", str(m), *label,
             "--graph-out", f"{stem}.ilg", "--levels-out", f"{stem}.levels"],
        )
        run(f"{stem}.assign", ["assign", f"{stem}.ilg", "--t", str(2 * k - 1)])
        run(
            f"{stem}.probe",
            ["probe", f"{stem}.ilg", "--levels", f"{stem}.levels",
             "--assignment", f"{stem}.assign.json"],
        )


def _document(record: Path):
    """The JSON document a .out record holds, or None after a traceback."""
    try:
        return json.loads(record.read_text().partition("\n")[2])
    except json.JSONDecodeError:
        return None


def unaccepted(out_dir: Path):
    """Invocations whose document is not an error document but whose check
    is not valid: true.  A forged document checked on its own has no
    invocation record and is skipped."""
    for check in sorted(out_dir.glob("*.check.out")):
        record = check.with_name(check.name[: -len(".check.out")] + ".out")
        if not record.exists():
            continue
        doc, verdict = _document(record), _document(check)
        if doc is None or doc.get("kind") == "error":
            continue
        if verdict is None or verdict.get("valid") is not True:
            yield record.stem


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: no_meta_corpus.py OUT_DIR")
    out = Path(sys.argv[1]).resolve()
    main_corpus(out)
    crashed = [
        p.stem for p in sorted(out.glob("*.out")) if p.read_text().startswith("exit traceback")
    ]
    findings = (
        ("invocations that ended in a traceback:", crashed),
        ("invocations whose document check did not accept:", list(unaccepted(out))),
    )
    for heading, names in findings:
        if names:
            print(heading, *names, sep="\n  ", file=sys.stderr)
    if any(names for _, names in findings):
        sys.exit(1)
