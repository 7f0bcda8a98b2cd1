import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from invdiam import assignment, gf2, reducibility
from invdiam.assignment import (
    assignment_to_inversions,
    hardest_label,
    least_dim,
    min_dim,
    solve,
)
from invdiam.certificates import levels_to_text
from invdiam.cli import main
from invdiam.errors import BudgetExceededError
from invdiam.family import build_family
from invdiam.graph import (
    Label,
    parse_labeled_graph,
    parse_labeled_graphs,
    serialize_labeled_graph,
)
from invdiam.inversion import DISTANCE_EDGE_BUDGET, bfs_all_distances, bfs_diameter
from invdiam.reducibility import CheckReport, Counterexample, builtin_configs, enumerate_families

FIXTURES = Path(__file__).parent / "fixtures"

K2_ONE = "2 1\n0 1 1\n"
C4 = "4 4\n0 1 1\n1 2 0\n2 3 1\n0 3 0\n"  # opposite edges labeled
K4 = "4 6\n" + "\n".join(
    f"{u} {v} 0" for u, v in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
) + "\n"


def _swap_vertices(text, a, b):
    """A .ilg text with vertices a and b swapped."""
    swap = {a: b, b: a}
    head, *lines = text.splitlines()
    edges = []
    for line in lines:
        u, v, bit = map(int, line.split())
        u, v = sorted((swap.get(u, u), swap.get(v, v)))
        edges.append(f"{u} {v} {bit}")
    return "\n".join([head, *edges])


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


@pytest.fixture
def k2_file(tmp_path):
    p = tmp_path / "k2.ilg"
    p.write_text(K2_ONE)
    return str(p)


@pytest.fixture
def c4_file(tmp_path):
    p = tmp_path / "c4.ilg"
    p.write_text(C4)
    return str(p)


@pytest.fixture
def k4_file(tmp_path):
    p = tmp_path / "k4.ilg"
    p.write_text(K4)
    return str(p)


class TestAssign:
    def test_sat(self, capsys, k2_file):
        code, doc = run_cli(capsys, "assign", k2_file, "--t", "1", "--no-meta")
        assert code == 0
        assert doc["verdict"] == "sat" and doc["assignment"] == ["1", "1"]

    def test_unsat(self, capsys, c4_file):
        code, doc = run_cli(capsys, "assign", c4_file, "--t", "1", "--no-meta")
        assert code == 0 and doc["verdict"] == "unsat" and doc["assignment"] is None

    def test_parse_error_exit_2(self, capsys, tmp_path):
        p = tmp_path / "bad.ilg"
        p.write_text("2 1\n0 1\n")
        code = main(["assign", str(p), "--t", "1"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 2 and doc["kind"] == "error"


class TestMindim:
    def test_c4(self, capsys, c4_file):
        code, doc = run_cli(capsys, "mindim", c4_file, "--no-meta")
        assert code == 0 and doc["verdict"] == "sat" and doc["t"] == 2

    def test_exceeds(self, capsys, k2_file):
        code, doc = run_cli(capsys, "mindim", k2_file, "--t-max", "0", "--no-meta")
        assert code == 0 and doc["verdict"] == "exceeds"


def _count_searches(monkeypatch):
    """A one-element list counting the solver searches started from now on."""
    calls = [0]
    search = assignment._SolveContext.search

    def counted(self, *args, **kwargs):
        calls[0] += 1
        return search(self, *args, **kwargs)

    monkeypatch.setattr(assignment._SolveContext, "search", counted)
    return calls


class TestSingleSearch:
    """mindim, distance and search-hard take the dimension and the witness
    from one search per dimension tried."""

    @pytest.mark.parametrize("command", ["mindim", "distance"])
    def test_as_many_solves_as_min_dim(self, capsys, monkeypatch, tmp_path, c4_file, command):
        calls = _count_searches(monkeypatch)
        graph, label = parse_labeled_graph(C4)
        # The baseline is least_dim, min_dim with its witness: both run the
        # same canonical searches.
        assert least_dim(graph, label, graph.m)[0] == 2
        expected, calls[0] = calls[0], 0
        if command == "mindim":
            code, doc = run_cli(capsys, "mindim", c4_file, "--no-meta")
            assert code == 0 and doc["t"] == 2
        else:
            o1 = tmp_path / "o1.txt"
            o2 = tmp_path / "o2.txt"
            o1.write_text("0000\n")
            o2.write_text(label.to_string() + "\n")
            code, doc = run_cli(capsys, "distance", c4_file, str(o1), str(o2), "--no-meta")
            assert code == 0 and doc["distance"] == 2
        assert calls[0] == expected > 0

    def test_search_hard_solves_only_in_hardest_label(self, capsys, monkeypatch, tmp_path):
        calls = _count_searches(monkeypatch)
        text = (FIXTURES / "outerplanar" / "outerplanar_n8.ilg").read_text()
        graph, _ = parse_labeled_graphs(text)[0]
        result = hardest_label(graph, 4, 256)
        assert result.dim > 0
        expected, calls[0] = calls[0], 0
        p = tmp_path / "graph.ilg"
        p.write_text(serialize_labeled_graph(graph, Label(graph, 0)) + "\n")
        code, doc = run_cli(capsys, "search-hard", str(p), "--budget", "256", "--no-meta")
        assert code == 0 and doc["entries"][0]["min_dim"] == result.dim
        assert calls[0] == expected > 0
        assert doc["entries"][0]["assignment"] == result.witness.to_strings()


class TestDistance:
    def test_identical(self, capsys, c4_file, tmp_path):
        o = tmp_path / "o.txt"
        o.write_text("0000\n")
        code, doc = run_cli(capsys, "distance", c4_file, str(o), str(o), "--no-meta")
        assert code == 0 and doc["distance"] == 0

    def test_single_flip(self, capsys, c4_file, tmp_path):
        o1 = tmp_path / "o1.txt"
        o2 = tmp_path / "o2.txt"
        o1.write_text("0000\n")
        o2.write_text("1000\n")
        code, doc = run_cli(capsys, "distance", c4_file, str(o1), str(o2), "--no-meta")
        assert code == 0 and doc["distance"] == 1

    def test_oracle_agreement(self, capsys, c4_file, tmp_path):
        # The distance the solver emits is the BFS distance of the test.
        o1 = tmp_path / "o1.txt"
        o2 = tmp_path / "o2.txt"
        o1.write_text("0000\n")
        # Canonical edge order (0,1),(0,3),(1,2),(2,3): flip the opposite pair.
        o2.write_text("1001\n")
        code, doc = run_cli(capsys, "distance", c4_file, str(o1), str(o2), "--no-meta")
        assert code == 0 and doc["distance"] == 2
        graph, _ = parse_labeled_graph(C4)
        assert bfs_all_distances(graph)[Label.from_string(graph, doc["label"]).bits] == 2

    def test_oracle_skipped_beyond_bfs_budget(self, capsys, tmp_path):
        # A 21-edge outer-planar fixture: one edge over the BFS budget, so
        # only the solver's distance and check's re-search vouch for it.
        fixture = FIXTURES / "outerplanar" / "outerplanar_n12.ilg"
        graph, _ = parse_labeled_graphs(fixture.read_text())[0]
        assert graph.m == DISTANCE_EDGE_BUDGET + 1
        with pytest.raises(BudgetExceededError):
            bfs_all_distances(graph)
        g = tmp_path / "g.ilg"
        g.write_text(serialize_labeled_graph(graph, Label(graph, 0)) + "\n")
        o1 = tmp_path / "o1.txt"
        o2 = tmp_path / "o2.txt"
        o1.write_text("0" * graph.m + "\n")
        alternating = "".join("1" if e % 2 == 0 else "0" for e in range(graph.m))
        o2.write_text(alternating + "\n")
        cert = tmp_path / "cert.json"
        code = main(["distance", str(g), str(o1), str(o2), "--out", str(cert), "--no-meta"])
        assert code == 0
        doc = json.loads(cert.read_text())
        assert doc["distance"] == min_dim(graph, Label.from_string(graph, alternating), graph.m)
        code, check_doc = run_cli(capsys, "check", str(cert), "--no-meta")
        assert code == 0 and check_doc["valid"], check_doc
        assert "Traceback" not in capsys.readouterr().err


class TestDiameter:
    def test_k4_both_engines(self, capsys, k4_file):
        # The solver's diameter against BFS run in the test.
        code, doc = run_cli(capsys, "diameter", k4_file, "--no-meta")
        assert code == 0 and doc["diameter"] == 3 == bfs_diameter(parse_labeled_graph(K4)[0])
        assert doc["hardest_label"] == "101100" and len(doc["assignment"][0]) == 3

    def test_k2(self, capsys, k2_file):
        code, doc = run_cli(capsys, "diameter", k2_file, "--no-meta")
        assert code == 0 and doc["diameter"] == 1

    def test_p3(self, capsys, tmp_path):
        p = tmp_path / "p3.ilg"
        p.write_text("3 2\n0 1 0\n1 2 0\n")
        code, doc = run_cli(capsys, "diameter", str(p), "--no-meta")
        assert code == 0 and doc["diameter"] == 1

    def test_bfs_budget_exit_3(self, capsys, tmp_path):
        # 25 edges: one over the label budget of the assignment diameter.
        edges = "\n".join(f"{i} {i+1} 0" for i in range(25))
        p = tmp_path / "long.ilg"
        p.write_text(f"26 25\n{edges}\n")
        code = main(["diameter", str(p)])
        doc = json.loads(capsys.readouterr().out)
        assert code == 3 and doc["category"] == "budget"

    @pytest.mark.parametrize("command", [["diameter"], ["search-hard", "--budget", "64"]])
    def test_lost_witness_exit_4(self, capsys, k4_file, lost_witness, command):
        code = main([command[0], k4_file, *command[1:]])
        out = capsys.readouterr()
        doc = json.loads(out.out)
        assert code == 4 and doc["kind"] == "error" and doc["category"] == "invariant"
        assert "no witness for label 101100" in doc["error"] and out.err == ""


class TestFamily:
    def test_k1_m2(self, capsys, tmp_path):
        gout = tmp_path / "fam.ilg"
        lout = tmp_path / "fam.levels"
        code, doc = run_cli(
            capsys,
            "family", "--k", "1", "--m", "2",
            "--graph-out", str(gout), "--levels-out", str(lout), "--no-meta",
        )
        assert code == 0 and doc["vertices"] == 9 and doc["edges"] == 8
        assert gout.read_text().startswith("9 8\n")
        assert lout.read_text().splitlines()[0] == "0 0"

    def test_k2_m1(self, capsys):
        code, doc = run_cli(capsys, "family", "--k", "2", "--m", "1", "--no-meta")
        assert code == 0 and doc["vertices"] == 6 and doc["edges"] == 9

    def test_guard_exit_3(self, capsys):
        code = main(["family", "--k", "2", "--m", "6"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 3 and doc["category"] == "budget"

    def test_check_beyond_guard_is_invalid_at_once(self, capsys, tmp_path):
        cert = tmp_path / "family.json"
        cert.write_text(json.dumps({"kind": "family", "k": 1, "m": 200000, "initial_label": ""}))
        start = time.monotonic()
        code, doc = run_cli(capsys, "check", str(cert), "--no-meta")
        assert time.monotonic() - start < 1.0
        assert code == 1 and doc["notes"] == [
            "FAIL: family k=1, m=200000 grows past the guard of 1000000 vertices,"
            " edges and cliques at stage 12"
        ]

    @pytest.mark.parametrize(
        "tamper, differs",
        [
            (lambda doc: doc.update(vertices=999), "vertices"),
            (lambda doc: doc.update(edges=0, levels=""), "edges, levels"),
            (lambda doc: doc.update(extra=1), "extra"),
        ],
        ids=["vertices", "edges-and-levels", "extra-field"],
    )
    def test_check_compares_the_whole_document(self, capsys, tmp_path, tamper, differs):
        doc = _emitted(tmp_path, ["family", "--k", "2", "--m", "1"])
        tamper(doc)
        cert = tmp_path / "family.json"
        cert.write_text(json.dumps(doc))
        code, check_doc = run_cli(capsys, "check", str(cert), "--no-meta")
        assert code == 1 and check_doc["notes"] == [f"FAIL: rebuilt family differs in {differs}"]


    @pytest.mark.parametrize(
        "tamper, note",
        [
            (
                lambda doc: doc.update(m=True),
                "FAIL: malformed certificate: m True is not a non-negative integer",
            ),
            (
                lambda doc: doc.update(initial_label=0),
                "FAIL: initial_label 0 is not a text",
            ),
        ],
        ids=["m-true", "initial-label-0"],
    )
    def test_check_rejects_forged_parameters(self, capsys, tmp_path, tamper, note):
        # Both forgeries rebuild the very same k=1, m=1 family.
        doc = _emitted(tmp_path, ["family", "--k", "1", "--m", "1"])
        tamper(doc)
        cert = tmp_path / "family.json"
        cert.write_text(json.dumps(doc))
        code, check_doc = run_cli(capsys, "check", str(cert), "--no-meta")
        assert code == 1 and check_doc["notes"] == [note]


class TestProbeFlow:
    def test_family_mindim_probe_check(self, capsys, tmp_path):
        gout = tmp_path / "fam.ilg"
        lout = tmp_path / "fam.levels"
        assert main(
            ["family", "--k", "2", "--m", "1",
             "--graph-out", str(gout), "--levels-out", str(lout),
             "--out", str(tmp_path / "fam.json"), "--no-meta"]
        ) == 0
        capsys.readouterr()
        # Probes demand dimension 2k-1 = 3, so solve at that fixed dimension.
        cert = tmp_path / "assign3.json"
        assert main(["assign", str(gout), "--t", "3", "--out", str(cert), "--no-meta"]) == 0
        probe_out = tmp_path / "probe.json"
        code = main(
            ["probe", str(gout), "--levels", str(lout), "--assignment", str(cert),
             "--out", str(probe_out), "--no-meta"]
        )
        assert code == 0
        doc = json.loads(probe_out.read_text())
        assert doc["clique_independence"]["passed"]
        assert doc["extension_dichotomy"]["passed"]
        code, check_doc = run_cli(capsys, "check", str(probe_out), "--no-meta")
        assert code == 0 and check_doc["valid"]


    @pytest.mark.parametrize(
        "tamper, note",
        [
            (lambda doc: doc["bad_cliques"].update(checked=999), "bad cliques"),
            (
                lambda doc: doc["clique_independence"].update(failures=[[[0, 1]]]),
                "clique independence",
            ),
            (
                lambda doc: doc["extension_dichotomy"].update(failures=[[[0, 1], [2]]]),
                "extension dichotomy",
            ),
        ],
        ids=["bad-cliques-checked-999", "independence-failure", "dichotomy-failure"],
    )
    def test_tampered_report_rejected(self, capsys, tmp_path, tamper, note):
        doc = self._k2_m2_probe(capsys, tmp_path)
        tamper(doc)
        assert self._check(capsys, tmp_path, doc) == [f"FAIL: {note} report differs on re-run"]

    def test_tampered_m_rejected(self, capsys, tmp_path):
        doc = self._k2_m2_probe(capsys, tmp_path)
        doc["m"] = 7
        assert self._check(capsys, tmp_path, doc) == ["FAIL: k or m differs from the family"]

    def test_k_true_rejected(self, capsys, tmp_path):
        # True == 1, so a bool k would pass every comparison with the family.
        gout, lout, cert = tmp_path / "fam.ilg", tmp_path / "fam.levels", tmp_path / "a.json"
        assert main(
            ["family", "--k", "1", "--m", "1", "--graph-out", str(gout),
             "--levels-out", str(lout), "--no-meta"]
        ) == 0
        assert main(["assign", str(gout), "--t", "1", "--out", str(cert), "--no-meta"]) == 0
        capsys.readouterr()
        code, doc = run_cli(
            capsys, "probe", str(gout), "--levels", str(lout), "--assignment", str(cert),
            "--no-meta",
        )
        assert code == 0 and doc["k"] == 1
        doc["k"] = True
        assert self._check(capsys, tmp_path, doc) == [
            "FAIL: malformed certificate: k True is not a non-negative integer"
        ]

    def test_relabelled_family_rejected(self, capsys, tmp_path):
        # A valid witness on the relabelled graph, so only the graph differs.
        doc = self._k2_m2_probe(capsys, tmp_path)
        doc["graph"] = _swap_vertices(doc["graph"], 2, 3)
        words = doc["assignment"]
        words[2], words[3] = words[3], words[2]
        assert self._check(capsys, tmp_path, doc) == [
            "FAIL: malformed certificate: graph differs from the stage-2 family at k = 2"
        ]

    @staticmethod
    def _k2_m2_probe(capsys, tmp_path):
        gout, lout, cert = tmp_path / "fam.ilg", tmp_path / "fam.levels", tmp_path / "a.json"
        assert main(
            ["family", "--k", "2", "--m", "2", "--graph-out", str(gout),
             "--levels-out", str(lout), "--no-meta"]
        ) == 0
        assert main(["assign", str(gout), "--t", "3", "--out", str(cert), "--no-meta"]) == 0
        capsys.readouterr()
        code, doc = run_cli(
            capsys, "probe", str(gout), "--levels", str(lout), "--assignment", str(cert),
            "--no-meta",
        )
        assert code == 0 and doc["clique_independence"]["passed"]
        return doc

    @staticmethod
    def _check(capsys, tmp_path, doc):
        """Check a probe certificate that must be rejected; its FAIL notes."""
        path = tmp_path / "probe.json"
        path.write_text(json.dumps(doc))
        code = main(["check", str(path), "--no-meta"])
        out = capsys.readouterr()
        check_doc = json.loads(out.out)
        assert code == 1 and not check_doc["valid"] and out.err == ""
        return [n for n in check_doc["notes"] if n.startswith("FAIL")]


def _claimed_choice(tmp_path, config, instance):
    """The reducible C4_b row rewritten to claim a choice-stage
    counterexample of `config`."""
    cert = tmp_path / "reduce.json"
    assert main(["reduce", "--config", "C4_b", "--out", str(cert), "--no-meta"]) == 0
    doc = json.loads(cert.read_text())
    doc["suite_pass"] = False
    doc["configs"][0].update(
        verdict="counterexample",
        counterexample={
            "config": config,
            "mutation": None,
            "stage": "choice",
            "labels": "0" * builtin_configs()[config].graph.m,
            "choice_instance": instance,
        },
    )
    return doc


def _shrunk_choice(tmp_path, **instance):
    """The c4b-shrink-choice counterexample with its instance rewritten."""
    cert = tmp_path / "reduce.json"
    assert main(["reduce", "--mutate", "c4b-shrink-choice", "--out", str(cert), "--no-meta"]) == 1
    doc = json.loads(cert.read_text())
    doc["configs"][0]["counterexample"]["choice_instance"].update(instance)
    return doc


# Each forgery fails the whole-row comparison with the re-derived row.
_C4B_REDUCIBLE = "FAIL: C4_b: re-derived as reducible with 1 labels and 67095 families"
_SHRUNK_DIFFERS = "FAIL: C4_b[c4b-shrink-choice]: row differs from its re-derivation"
_FORGED_CHOICES = {
    "empty-multi-sets": (
        lambda tmp: _claimed_choice(
            tmp, "C4_b", {"t": 1, "multi_sets": [[], []], "singles": ["100", "010"]}
        ),
        _C4B_REDUCIBLE,
    ),
    "other-config": (
        lambda tmp: _claimed_choice(
            tmp, "bridge", {"t": 1, "multi_sets": [[], []], "singles": ["100", "010"]}
        ),
        _C4B_REDUCIBLE,
    ),
    "document-unmutated": (
        lambda tmp: {**_shrunk_choice(tmp), "mutation": None},
        "FAIL: C4_b[c4b-shrink-choice]: no builtin configuration of this name"
        " under mutation None",
    ),
    "t-minus-1-extra-single": (
        lambda tmp: _shrunk_choice(tmp, t=-1, singles=["100", "100", "100"]),
        _SHRUNK_DIFFERS,
    ),
    "extra-single": (
        lambda tmp: _shrunk_choice(tmp, singles=["100", "100", "010"]),
        _SHRUNK_DIFFERS,
    ),
    "zero-vectors": (
        lambda tmp: _shrunk_choice(tmp, multi_sets=[["000"], ["000"]], singles=["000", "000"]),
        _SHRUNK_DIFFERS,
    ),
    "zero-singles": (
        lambda tmp: _shrunk_choice(tmp, singles=["000", "000"]),
        _SHRUNK_DIFFERS,
    ),
}


class TestReduce:
    def test_single_config(self, capsys):
        code, doc = run_cli(capsys, "reduce", "--config", "P3", "--no-meta")
        assert code == 0 and doc["suite_pass"]
        assert doc["configs"][0]["verdict"] == "reducible"
        assert "wall_s" not in doc["configs"][0]

    def test_unknown_config_exit_2(self, capsys):
        code = main(["reduce", "--config", "nosuch"])
        assert code == 2
        assert json.loads(capsys.readouterr().out)["kind"] == "error"

    def test_mutation_counterexample_and_check(self, capsys, tmp_path):
        out = tmp_path / "reduce.json"
        code = main(
            ["reduce", "--mutate", "p3-drop-min-size", "--out", str(out), "--no-meta"]
        )
        assert code == 1
        doc = json.loads(out.read_text())
        assert not doc["suite_pass"]
        assert doc["configs"][0]["counterexample"]["stage"] == "main"
        code, check_doc = run_cli(capsys, "check", str(out), "--no-meta")
        assert code == 0 and check_doc["valid"]

    def test_false_suite_pass_rejected(self, capsys, tmp_path):
        out = tmp_path / "reduce.json"
        assert main(["reduce", "--mutate", "p3-drop-min-size", "--out", str(out), "--no-meta"]) == 1
        doc = json.loads(out.read_text())
        doc["configs"][0].update(verdict="reducible", counterexample=None)
        out.write_text(json.dumps(doc))
        code, check_doc = run_cli(capsys, "check", str(out), "--no-meta")
        assert code == 1 and not check_doc["valid"]
        assert check_doc["notes"] == [
            "FAIL: suite_pass differs from the row verdicts",
            "FAIL: P3[p3-drop-min-size]: re-derived as counterexample with 1 labels and 1 families",
        ]

    def test_forged_reducible_row_rejected(self, capsys, tmp_path):
        out = tmp_path / "reduce.json"
        assert main(["reduce", "--mutate", "k23-drop-min-size", "--out", str(out), "--no-meta"]) == 1
        doc = json.loads(out.read_text())
        doc["suite_pass"] = True
        del doc["configs"][0]["counterexample"]
        doc["configs"][0].update(verdict="reducible", family_count=12345)
        out.write_text(json.dumps(doc))
        code, check_doc = run_cli(capsys, "check", str(out), "--no-meta")
        assert code == 1 and not check_doc["valid"]
        assert check_doc["notes"] == [
            "FAIL: K23[k23-drop-min-size]: re-derived as counterexample with 1 labels and 1 families"
        ]
        doc["configs"][0]["name"] = "K23"
        out.write_text(json.dumps(doc))
        code, check_doc = run_cli(capsys, "check", str(out), "--no-meta")
        assert code == 1 and check_doc["notes"] == [
            "FAIL: K23: no builtin configuration of this name under mutation 'k23-drop-min-size'"
        ]

    def test_triangle_drop_linking_counts(self, capsys, tmp_path):
        # The counts up to the first counterexample; check re-derives them.
        cert = tmp_path / "reduce.json"
        argv = ["reduce", "--mutate", "triangle-drop-linking", "--out", str(cert), "--no-meta"]
        assert main(argv) == 1
        row = json.loads(cert.read_text())["configs"][0]
        assert (row["label_count"], row["family_count"]) == (6, 10780)
        code, check_doc = run_cli(capsys, "check", str(cert), "--no-meta")
        assert code == 0 and check_doc["valid"] and check_doc["notes"] == []

    @pytest.mark.parametrize(
        "forge, note", list(_FORGED_CHOICES.values()), ids=list(_FORGED_CHOICES)
    )
    def test_forged_choice_counterexample_rejected(self, capsys, tmp_path, forge, note):
        cert = tmp_path / "forged.json"
        cert.write_text(json.dumps(forge(tmp_path)))
        code, check_doc = run_cli(capsys, "check", str(cert), "--no-meta")
        assert code == 1 and not check_doc["valid"]
        assert check_doc["notes"] == [note]

    @pytest.mark.parametrize("config", ["P3", "C4_b"])
    def test_false_scan_counterexample_rejected(self, capsys, tmp_path, monkeypatch, config):
        # A scan fault that reports a false counterexample: `reduce` emits
        # it and `check` re-derives the same row, so only the independent
        # confirmation can reject it.
        cfg = builtin_configs()[config]
        labels = next(w for w in cfg.label_completions() if cfg.admissible(w))
        if config == "P3":
            cex = Counterexample("main", labels, next(enumerate_families(cfg, labels)))
            note = "FAIL: P3: counterexample family has a witness"
        else:
            instance = {"t": 1, "multi_sets": [[1, 2], [1, 2]], "singles": [3, 4]}
            cex = Counterexample("choice", labels, None, instance)
            note = "FAIL: C4_b: choice counterexample admits a choice"
        monkeypatch.setattr(
            reducibility,
            "check_reducible",
            lambda cfg: CheckReport(cfg.name, "counterexample", 0, 0, 0.0, cex),
        )
        cert = tmp_path / "reduce.json"
        assert main(["reduce", "--config", config, "--out", str(cert), "--no-meta"]) == 1
        code, check_doc = run_cli(capsys, "check", str(cert), "--no-meta")
        assert code == 1 and check_doc["notes"] == [note]

    def test_choice_claim_without_choice_stage_rejected(self, capsys, tmp_path):
        cert = tmp_path / "reduce.json"
        assert main(["reduce", "--config", "bridge", "--out", str(cert), "--no-meta"]) == 0
        doc = json.loads(cert.read_text())
        doc["suite_pass"] = False
        doc["configs"][0].update(
            verdict="counterexample",
            counterexample={
                "config": "bridge",
                "mutation": None,
                "stage": "choice",
                "labels": "00000",
                "choice_instance": {"t": 1, "multi_sets": [[], []], "singles": []},
            },
        )
        cert.write_text(json.dumps(doc))
        code, check_doc = run_cli(capsys, "check", str(cert), "--no-meta")
        assert code == 1 and check_doc["notes"] == [
            "FAIL: bridge: re-derived as reducible with 16 labels and 49787136 families"
        ]

    def test_all_configs_checked(self, capsys, tmp_path):
        out = tmp_path / "suite.json"
        code = main(["reduce", "--all", "--out", str(out), "--no-meta"])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["suite_pass"] and len(doc["configs"]) == 7
        assert all(row["verdict"] == "reducible" for row in doc["configs"])
        code, check_doc = run_cli(capsys, "check", str(out), "--no-meta")
        assert code == 0 and check_doc["valid"]


class TestSearchHard:
    def test_k4(self, capsys, tmp_path):
        p = tmp_path / "graphs.ilg"
        p.write_text(K4)
        code, doc = run_cli(
            capsys, "search-hard", str(p), "--budget", "64", "--no-meta"
        )
        assert code == 0
        assert doc["entries"][0]["min_dim"] == 3
        assert doc["entries"][0]["exhaustive"]

    def test_empty_file(self, capsys, tmp_path):
        p = tmp_path / "empty.ilg"
        p.write_text("\n")
        code, doc = run_cli(capsys, "search-hard", str(p), "--no-meta")
        assert code == 0 and doc["entries"] == []


def _emitted(tmp_path, argv):
    cert = tmp_path / "emitted.json"
    assert main(argv + ["--out", str(cert), "--no-meta"]) == 0
    return json.loads(cert.read_text())


def _c4_exceeds(tmp_path, c4):
    # C4 with opposite edges labelled 1 needs t = 2.
    doc = _emitted(tmp_path, ["mindim", c4])
    doc.update(verdict="exceeds", t=4, t_max=4, assignment=None)
    return doc


def _c4_unsat(tmp_path, c4):
    doc = _emitted(tmp_path, ["assign", c4, "--t", "2"])
    doc.update(verdict="unsat", assignment=None)
    return doc


def _c4_mindim_too_high(tmp_path, c4):
    graph, label = parse_labeled_graph(C4)
    doc = _emitted(tmp_path, ["mindim", c4])
    doc.update(t=3, assignment=solve(graph, label, 3).to_strings())
    return doc


def _c4_distance_too_high(tmp_path, c4):
    o1, o2 = tmp_path / "o1.txt", tmp_path / "o2.txt"
    o1.write_text("0000\n")
    o2.write_text("1001\n")
    doc = _emitted(tmp_path, ["distance", c4, str(o1), str(o2)])
    graph, _ = parse_labeled_graph(C4)
    witness = solve(graph, Label.from_string(graph, doc["label"]), 3)
    doc.update(
        distance=3,
        assignment=witness.to_strings(),
        inversions=assignment_to_inversions(witness),
    )
    return doc


def _k4_search_hard_null(tmp_path, c4):
    graphs = tmp_path / "graphs.ilg"
    graphs.write_text(K4)
    doc = _emitted(tmp_path, ["search-hard", str(graphs), "--budget", "64"])
    doc["entries"][0].update(min_dim=None, assignment=None)
    return doc


def _k4_search_hard_too_high(tmp_path, c4):
    # The hardest K4 label needs t = 3; claim 4 with a valid witness.
    graphs = tmp_path / "graphs.ilg"
    graphs.write_text(K4)
    doc = _emitted(tmp_path, ["search-hard", str(graphs), "--budget", "64"])
    entry = doc["entries"][0]
    graph, _ = parse_labeled_graph(entry["graph"])
    witness = solve(graph, Label.from_string(graph, entry["label"]), 4)
    entry.update(min_dim=4, assignment=witness.to_strings())
    return doc


def _k4_diameter_too_high(tmp_path, c4):
    graphs = tmp_path / "k4.ilg"
    graphs.write_text(K4)
    doc = _emitted(tmp_path, ["diameter", str(graphs)])
    graph, _ = parse_labeled_graph(K4)
    witness = solve(graph, Label.from_string(graph, doc["hardest_label"]), 4)
    doc.update(diameter=4, assignment=witness.to_strings())
    return doc


def _c4_unsat_above_weight(tmp_path, c4):
    # C4's label 1010 has weight 2, so it has an assignment at every t >= 2,
    # even where the refuter does not search.
    return dict(_c4_unsat(tmp_path, c4), t=20)


def _c4_exceeds_above_weight(tmp_path, c4):
    return dict(_c4_exceeds(tmp_path, c4), t=20, t_max=20)


def _stage4_exceeds(tmp_path, c4):
    # The k=2 family at stage 4 (3282 vertices) has a 4-dimensional assignment.
    lg = build_family(2, 4)
    return {
        "kind": "mindim",
        "graph": serialize_labeled_graph(lg.graph, lg.label),
        "label": lg.label.to_string(),
        "t": 4,
        "t_max": 4,
        "assignment": None,
        "verdict": "exceeds",
    }


def _c4_exceeds_t_above_t_max(tmp_path, c4):
    return dict(_emitted(tmp_path, ["mindim", c4, "--t-max", "1"]), t=99)


def _c4_mindim_above_t_max(tmp_path, c4):
    return dict(_emitted(tmp_path, ["mindim", c4]), t_max=1)


def _c4_mindim_without_t_max(tmp_path, c4):
    doc = _emitted(tmp_path, ["mindim", c4])
    del doc["t_max"]
    return doc


_EXISTS = "-dimensional assignment exists"

# Negative verdicts and lower bounds edited to be false: check re-searches
# each and finds the assignment the claim denies.  The last three are mindim
# documents whose t contradicts t_max, or that lack it: C4 needs t = 2.
_FALSE_NEGATIVES = {
    "c4-exceeds": (_c4_exceeds, _EXISTS),
    "c4-unsat": (_c4_unsat, _EXISTS),
    "c4-unsat-above-weight": (_c4_unsat_above_weight, _EXISTS),
    "c4-exceeds-above-weight": (_c4_exceeds_above_weight, _EXISTS),
    "c4-mindim-too-high": (_c4_mindim_too_high, _EXISTS),
    "c4-distance-too-high": (_c4_distance_too_high, _EXISTS),
    "k4-search-hard-null": (_k4_search_hard_null, _EXISTS),
    "k4-search-hard-too-high": (_k4_search_hard_too_high, _EXISTS),
    "k4-diameter-too-high": (_k4_diameter_too_high, _EXISTS),
    "stage4-exceeds": (_stage4_exceeds, _EXISTS),
    "c4-exceeds-t-above-t-max": (_c4_exceeds_t_above_t_max, "with t other than t_max"),
    "c4-sat-above-t-max": (_c4_mindim_above_t_max, "with t above t_max"),
    "c4-sat-without-t-max": (_c4_mindim_without_t_max, "malformed certificate: 't_max'"),
}


class TestCheckCommand:
    @pytest.mark.parametrize(
        "argv",
        [
            ["assign", "{k2}", "--t", "1"],
            ["assign", "{c4}", "--t", "1"],
            ["mindim", "{c4}"],
            ["diameter", "{k4}"],
            ["family", "--k", "1", "--m", "2"],
        ],
    )
    def test_accepts_emitted_certificates(self, capsys, tmp_path, k2_file, c4_file, k4_file, argv):
        paths = {"k2": k2_file, "c4": c4_file, "k4": k4_file}
        argv = [a.format(**paths) for a in argv]
        cert = tmp_path / "cert.json"
        assert main(argv + ["--out", str(cert), "--no-meta"]) == 0
        code, doc = run_cli(capsys, "check", str(cert), "--no-meta")
        assert code == 0 and doc["valid"], doc

    def test_distance_certificate(self, capsys, tmp_path, c4_file):
        o1 = tmp_path / "o1.txt"
        o2 = tmp_path / "o2.txt"
        o1.write_text("0000\n")
        o2.write_text("1010\n")
        cert = tmp_path / "cert.json"
        assert main(
            ["distance", c4_file, str(o1), str(o2), "--out", str(cert), "--no-meta"]
        ) == 0
        code, doc = run_cli(capsys, "check", str(cert), "--no-meta")
        assert code == 0 and doc["valid"]

    def test_tampered_certificate_rejected(self, capsys, tmp_path, k2_file):
        cert = tmp_path / "cert.json"
        assert main(["assign", k2_file, "--t", "1", "--out", str(cert), "--no-meta"]) == 0
        doc = json.loads(cert.read_text())
        doc["assignment"] = ["1", "0"]
        cert.write_text(json.dumps(doc))
        code, check_doc = run_cli(capsys, "check", str(cert), "--no-meta")
        assert code == 1 and not check_doc["valid"]

    def test_search_hard_certificate(self, capsys, tmp_path):
        self._check_search_hard_k4(capsys, tmp_path, [])

    def test_search_hard_certificate_beyond_t_max(self, capsys, tmp_path):
        # K4's diameter is 3, so at --t-max 2 the hardest label's min_dim is null.
        self._check_search_hard_k4(capsys, tmp_path, ["--t-max", "2"])

    @staticmethod
    def _check_search_hard_k4(capsys, tmp_path, extra):
        p = tmp_path / "graphs.ilg"
        p.write_text(K4)
        cert = tmp_path / "cert.json"
        argv = ["search-hard", str(p), "--budget", "64", *extra, "--out", str(cert), "--no-meta"]
        assert main(argv) == 0
        code, doc = run_cli(capsys, "check", str(cert), "--no-meta")
        assert code == 0 and doc["valid"]
        assert doc["notes"][0] == "entry 0: hardest label re-derived by bfs"

    @pytest.mark.parametrize(
        "exhaustive, fails",
        [
            (True, ["FAIL: entry 0: the hardest label is 101100", "FAIL: entry 0: min_dim should be 3"]),
            (False, ["FAIL: entry 0: exhaustive flag differs from the budget"]),
        ],
        ids=["exhaustive", "flag-cleared"],
    )
    def test_false_hardest_label_rejected(self, capsys, tmp_path, exhaustive, fails):
        # One edge needs one dimension: the witness and the lower bound hold,
        # but this is not K4's hardest label, and 2^6 labels fit budget 64.
        p = tmp_path / "graphs.ilg"
        p.write_text(K4)
        doc = _emitted(tmp_path, ["search-hard", str(p), "--budget", "64"])
        entry = doc["entries"][0]
        graph, _ = parse_labeled_graph(entry["graph"])
        entry.update(
            label="100000",
            min_dim=1,
            assignment=solve(graph, Label.from_string(graph, "100000"), 1).to_strings(),
            exhaustive=exhaustive,
        )
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(doc))
        code, check_doc = run_cli(capsys, "check", str(cert), "--no-meta")
        assert code == 1 and not check_doc["valid"]
        assert [n for n in check_doc["notes"] if n.startswith("FAIL")] == fails

    @pytest.mark.parametrize(
        "tamper, note",
        [
            (lambda doc: doc.update(configs=["not a row"]), "FAIL: malformed certificate"),
            (
                lambda doc: doc["configs"][0]["counterexample"]["choice_instance"].update(
                    multi_sets=[["100"]]
                ),
                _SHRUNK_DIFFERS,
            ),
            (
                lambda doc: doc["configs"][0]["counterexample"]["choice_instance"].update(
                    singles=[]
                ),
                _SHRUNK_DIFFERS,
            ),
        ],
        ids=["row-not-object", "one-multi-set", "too-few-singles"],
    )
    def test_malformed_certificate_is_invalid(self, capsys, tmp_path, tamper, note):
        cert = tmp_path / "cert.json"
        assert main(
            ["reduce", "--mutate", "c4b-shrink-choice", "--out", str(cert), "--no-meta"]
        ) == 1
        doc = json.loads(cert.read_text())
        tamper(doc)
        cert.write_text(json.dumps(doc))
        code, check_doc = run_cli(capsys, "check", str(cert), "--no-meta")
        assert code == 1 and not check_doc["valid"]
        assert check_doc["notes"][0].startswith(note)

    def test_bad_json_exit_2(self, capsys, tmp_path):
        p = tmp_path / "junk.json"
        p.write_text("{")
        assert main(["check", str(p)]) == 2

    @pytest.mark.parametrize("kind", [[], {}], ids=["list", "object"])
    def test_kind_not_a_string_is_unknown(self, capsys, tmp_path, kind):
        p = tmp_path / "cert.json"
        p.write_text(json.dumps({"kind": kind}))
        code = main(["check", str(p), "--no-meta"])
        out = capsys.readouterr()
        doc = json.loads(out.out)
        assert code == 1 and not doc["valid"] and out.err == ""
        assert doc["notes"] == [f"FAIL: unknown certificate kind {kind!r}"]

    @pytest.mark.parametrize(
        "argv, note",
        [
            (["assign", "{c4}", "--t", "1"], "unsat verdict"),
            (["mindim", "{c4}"], "lower bound"),
            (["mindim", "{c4}", "--t-max", "1"], "exceeds verdict"),
        ],
        ids=["unsat", "lower-bound", "exceeds"],
    )
    def test_negative_verdicts_re_searched(self, capsys, tmp_path, c4_file, argv, note):
        cert = tmp_path / "cert.json"
        assert main([a.format(c4=c4_file) for a in argv] + ["--out", str(cert), "--no-meta"]) == 0
        code, doc = run_cli(capsys, "check", str(cert), "--no-meta")
        assert code == 0 and doc["valid"]
        assert doc["notes"] == [f"{note} re-searched: no 1-dimensional assignment"]

    @pytest.mark.parametrize(
        "tamper, note", list(_FALSE_NEGATIVES.values()), ids=list(_FALSE_NEGATIVES)
    )
    def test_false_negative_verdict_rejected(self, capsys, tmp_path, c4_file, tamper, note):
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(tamper(tmp_path, c4_file)))
        code = main(["check", str(cert), "--no-meta"])
        out = capsys.readouterr()
        doc = json.loads(out.out)
        assert code == 1 and not doc["valid"] and out.err == ""
        assert any(n.startswith("FAIL") and n.endswith(note) for n in doc["notes"]), doc


def _k4_other_hardest_label(doc):
    # 010011 also needs 3 dimensions, but it is not the least such word.
    graph, _ = parse_labeled_graph(K4)
    witness = solve(graph, Label.from_string(graph, "010011"), 3)
    doc.update(hardest_label="010011", assignment=witness.to_strings())


class TestDiameterClaims:
    """check re-derives each diameter by one BFS rule: the hardest label is
    the least word at the largest BFS distance, and the diameter is that
    distance.  K4's diameter is 3, first reached at 101100."""

    def test_true_claims_re_derived(self, capsys, tmp_path, corpus_n5):
        for name, graph in corpus_n5:
            p = tmp_path / name
            p.write_text(serialize_labeled_graph(graph, Label(graph, 0)) + "\n")
            cert = tmp_path / "cert.json"
            assert main(["diameter", str(p), "--out", str(cert), "--no-meta"]) == 0
            code, doc = run_cli(capsys, "check", str(cert), "--no-meta")
            assert code == 0 and doc["valid"], (name, doc)
            assert doc["notes"][-1] == "hardest label re-derived by bfs", (name, doc)

    @pytest.mark.parametrize(
        "tamper, fails",
        [
            (
                lambda doc: doc.update(diameter=7),
                [
                    "FAIL: witness dimension differs from diameter",
                    "FAIL: lower bound: a 6-dimensional assignment exists",
                    "FAIL: diameter should be 3",
                ],
            ),
            (
                lambda doc: doc.update(diameter=2),
                ["FAIL: witness dimension differs from diameter", "FAIL: diameter should be 3"],
            ),
            (_k4_other_hardest_label, ["FAIL: the hardest label is 101100"]),
        ],
        ids=["diameter-7", "diameter-2", "hardest-label-010011"],
    )
    def test_false_claims_rejected(self, capsys, tmp_path, k4_file, tamper, fails):
        doc = _emitted(tmp_path, ["diameter", k4_file])
        tamper(doc)
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(doc))
        code = main(["check", str(cert), "--no-meta"])
        out = capsys.readouterr()
        check_doc = json.loads(out.out)
        assert code == 1 and not check_doc["valid"] and out.err == "", check_doc
        assert [n for n in check_doc["notes"] if n.startswith("FAIL")] == fails


# Each argument error exits 2 with a JSON error document, and a distance
# beyond --t-max exits 3.
_ERROR_CASES = {
    "assign-t-40": (["assign", "{c4}", "--t", "40"], 2, "input"),
    "assign-t-negative": (["assign", "{c4}", "--t", "-1"], 2, "input"),
    "mindim-t-max-negative": (["mindim", "{c4}", "--t-max", "-1"], 2, "input"),
    "mindim-t-max-40": (["mindim", "{c4}", "--t-max", "40"], 2, "input"),
    "distance-t-max-40": (["distance", "{c4}", "{o1}", "{o2}", "--t-max", "40"], 2, "input"),
    "diameter-t-max-negative": (["diameter", "{c4}", "--t-max", "-1"], 2, "input"),
    "diameter-t-max-40": (["diameter", "{c4}", "--t-max", "40"], 2, "input"),
    "search-hard-t-max-negative": (["search-hard", "{c4}", "--t-max", "-1"], 2, "input"),
    "search-hard-t-max-40": (["search-hard", "{c4}", "--t-max", "40"], 2, "input"),
    "search-hard-budget-0": (["search-hard", "{c4}", "--budget", "0"], 2, "input"),
    "search-hard-budget-negative": (["search-hard", "{c4}", "--budget", "-3"], 2, "input"),
    "family-k-0": (["family", "--k", "0", "--m", "1"], 2, "input"),
    "family-m-negative": (["family", "--k", "2", "--m", "-1"], 2, "input"),
    # The guard stops at stage 12, without the huge counts of stage 100000.
    "family-m-huge": (["family", "--k", "1", "--m", "100000"], 3, "budget"),
    "family-initial-label-too-long": (
        ["family", "--k", "2", "--m", "1", "--initial-label", "11"], 2, "input"
    ),
    "check-json-array": (["check", "{array}"], 2, "input"),
    # Nesting too deep for the JSON parser.
    "check-deep-json": (["check", "{deep}"], 2, "input"),
    "probe-assignment-deep-json": (
        ["probe", "{fam}", "--levels", "{levels}", "--assignment", "{deep}"], 2, "input"
    ),
    "probe-assignment-not-json": (
        ["probe", "{fam}", "--levels", "{levels}", "--assignment", "{not_json}"], 2, "input"
    ),
    "probe-assignment-no-witness": (
        ["probe", "{fam}", "--levels", "{levels}", "--assignment", "{no_witness}"], 2, "input"
    ),
    "probe-assignment-wrong-dimension": (
        ["probe", "{fam}", "--levels", "{levels}", "--assignment", "{t4_witness}"], 2, "input"
    ),
    "probe-assignment-bad-vector": (
        ["probe", "{fam}", "--levels", "{levels}", "--assignment", "{bad_vector}"], 2, "input"
    ),
    # Every vertex on level 1 leaves no base clique, so k would be 0.
    "probe-no-level-0": (
        ["probe", "{fam}", "--levels", "{no_base}", "--assignment", "{witness}"], 2, "input"
    ),
    # Graph, label and levels must be exactly those of a stage `family` writes.
    "probe-relabelled-children": (
        ["probe", "{relabelled}", "--levels", "{levels2}", "--assignment", "{witness}"],
        2,
        "input",
    ),
    "probe-flipped-pattern-edge": (
        ["probe", "{flipped}", "--levels", "{levels}", "--assignment", "{witness}"], 2, "input"
    ),
    "probe-missing-base-edge": (
        ["probe", "{no_base_edge}", "--levels", "{levels}", "--assignment", "{witness}"],
        2,
        "input",
    ),
    # The stage's size is compared before anything is built: an input error, not a budget.
    "probe-levels-m-huge": (
        ["probe", "{fam}", "--levels", "{huge_levels}", "--assignment", "{witness}"], 2, "input"
    ),
    "assign-out-unwritable": (
        ["assign", "{c4}", "--t", "2", "--out", "{missing}/x.json"], 2, "input"
    ),
    "family-graph-out-unwritable": (
        ["family", "--k", "2", "--m", "1", "--graph-out", "{missing}/g.ilg"], 2, "input"
    ),
    "assign-graph-not-utf8": (["assign", "{not_utf8}", "--t", "2"], 2, "input"),
    # The C4 orientations are at distance 2.
    "distance-exceeds-t-max": (
        ["distance", "{c4}", "{o1}", "{o2}", "--t-max", "1"], 3, "budget"
    ),
    "diameter-exceeds-t-max": (["diameter", "{c4}", "--t-max", "1"], 3, "budget"),
    # A search at t = 30 would list 2^30 words at its first vertex.
    "assign-t-30": (["assign", "{k2}", "--t", "30"], 3, "budget"),
}


class TestExitContract:
    @pytest.mark.parametrize(
        "argv, code, category", list(_ERROR_CASES.values()), ids=list(_ERROR_CASES)
    )
    def test_error_document(self, capsys, tmp_path, k2_file, c4_file, argv, code, category):
        lg = build_family(2, 1)
        witness = solve(lg.graph, lg.label, 3).to_strings()
        fam = serialize_labeled_graph(lg.graph, lg.label)
        stage2 = build_family(2, 2)
        texts = {
            "o1": "0000",
            "o2": "1001",
            "array": "[1, 2]",
            "deep": "[" * 100000 + "]" * 100000,
            "fam": fam,
            "levels": levels_to_text(lg.levels),
            "relabelled": _swap_vertices(
                serialize_labeled_graph(stage2.graph, stage2.label), 2, 3
            ),
            "levels2": levels_to_text(stage2.levels),
            "flipped": fam.replace("\n0 2 0\n", "\n0 2 1\n"),
            "no_base_edge": fam.replace("6 9\n0 1 0\n", "6 8\n"),
            "huge_levels": levels_to_text(lg.levels[:-1] + (100000,)),
            "no_base": levels_to_text([1] * lg.graph.n),
            "witness": json.dumps({"assignment": witness}),
            "not_json": "{",
            "no_witness": json.dumps({"kind": "assign"}),
            "t4_witness": json.dumps({"assignment": solve(lg.graph, lg.label, 4).to_strings()}),
            "bad_vector": json.dumps({"assignment": ["01x"] + witness[1:]}),
        }
        paths = {"k2": k2_file, "c4": c4_file, "missing": str(tmp_path / "missing")}
        paths["not_utf8"] = str(tmp_path / "not_utf8")
        (tmp_path / "not_utf8").write_bytes(b"\xff\xfe4 4\n")
        for name, text in texts.items():
            paths[name] = str(tmp_path / name)
            (tmp_path / name).write_text(text + "\n")
        assert main([a.format(**paths) for a in argv]) == code
        out = capsys.readouterr()
        doc = json.loads(out.out)
        assert doc["kind"] == "error" and doc["category"] == category
        assert out.err == ""

    def test_mindim_beyond_max_dim_edges(self, capsys, tmp_path):
        # The stage-3 k=2 family graph has 729 edges; t_max clamps to 32.
        gout = tmp_path / "fam.ilg"
        assert main(["family", "--k", "2", "--m", "3", "--graph-out", str(gout), "--no-meta"]) == 0
        capsys.readouterr()
        cert = tmp_path / "mindim.json"
        assert main(["mindim", str(gout), "--out", str(cert), "--no-meta"]) == 0
        doc = json.loads(cert.read_text())
        assert doc["verdict"] == "sat" and doc["t"] == 4 and doc["t_max"] == gf2.MAX_DIM
        code, check_doc = run_cli(capsys, "check", str(cert), "--no-meta")
        assert code == 0 and check_doc["valid"]


class TestDeterminism:
    def test_byte_identical_reruns(self, capsys, k4_file, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for out in (a, b):
            assert main(["diameter", k4_file, "--out", str(out), "--no-meta"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_search_hard_seeded(self, capsys, tmp_path):
        p = tmp_path / "graphs.ilg"
        lines = [f"{i} {i + 1} 0" for i in range(8)] + ["0 8 0"]
        p.write_text("9 9\n" + "\n".join(lines) + "\n")
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for out in (a, b):
            assert main(
                ["search-hard", str(p), "--budget", "20", "--seed", "7",
                 "--out", str(out), "--no-meta"]
            ) == 0
        assert a.read_bytes() == b.read_bytes()


class TestEntryPoint:
    def test_module_invocation(self, k2_file):
        proc = subprocess.run(
            [sys.executable, "-m", "invdiam.cli", "assign", k2_file, "--t", "1", "--no-meta"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["verdict"] == "sat"
