import argparse
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from typing import Optional

import numpy as np
import pytest

import usomat
from usomat import (
    USO_PAIR_CAP,
    InfluenceGraph,
    Orientation,
    PLCPInstance,
    RationalMatrix,
    build_matousek,
    extract_influence_graph,
    flip_facet,
)
from usomat.cli import _build_parser, _orientation_json, main
from usomat.cube import mask_to_dims
from usomat.random_facet import FAMILIES, family_graph
from oracles import tree_to_uso


def write_graph(path, g: InfluenceGraph) -> str:
    path.write_text(json.dumps(g.to_json_obj()))
    return str(path)


def write_orientation(path, o: Orientation) -> str:
    path.write_text(json.dumps(o.to_json_obj()))
    return str(path)


CHAIN3 = InfluenceGraph(3, [(1, 2), (1, 3), (2, 3)])
G1 = InfluenceGraph(3, [(1, 2), (2, 3)])
G2 = InfluenceGraph(3, [(1, 3), (2, 3)])


def assert_one_error_line(captured, *fragments):
    """No output; only the banner and one ``error:`` line on stderr, no usage text or traceback."""
    assert captured.out == ""
    banner, *rest = captured.err.splitlines()
    assert banner == "usomat 0.1.0"
    assert len(rest) == 1 and rest[0].startswith("error: "), rest
    for fragment in fragments:
        assert fragment in rest[0]


def test_version_banner_on_stderr(tmp_path, capsys):
    src = write_graph(tmp_path / "g.json", InfluenceGraph(2, []))
    assert main(["build", src]) == 0
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["usomat 0.1.0"]


def test_two_main_calls_build_one_parser(tmp_path):
    src = write_graph(tmp_path / "g.json", InfluenceGraph(2, []))
    _build_parser.cache_clear()
    out = str(tmp_path / "o.json")
    assert main(["build", src, "--out", out]) == 0
    assert main(["check", out]) == 0
    assert _build_parser.cache_info().misses == 1


def test_settable_values_per_subcommand():
    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    dests = {
        name: sorted(a.dest for a in p._actions if not isinstance(a, argparse._HelpAction))
        for name, p in sub.choices.items()
    }
    assert dests == {
        "build": ["family", "format", "graph", "n", "out"],
        "check": ["orientation"],
        "realize": ["family", "graph", "n", "out"],
        "bench": ["family", "n", "out", "seed", "trials"],
        "enumerate": ["format", "n", "out"],
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "--family", "path", "--n", "2", "--seed", "7"],
        ["check", "o.json", "--seed", "7"],
        ["check", "o.json", "--out", "f.txt"],
        ["realize", "--family", "path", "--n", "2", "--seed", "7"],
        ["bench", "--family", "path", "--n", "3", "--format", "csv"],
        ["enumerate", "--n", "2", "--seed", "7"],
        ["enumerate", "--n", "two"],
        ["build", "--family", "path", "--n"],
    ],
)
def test_syntax_errors_stay_with_argparse(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["build", "--family", "zigzag", "--n", "3"], "unknown family 'zigzag'"),
        (["realize", "--family", "zigzag", "--n", "3"], "unknown family 'zigzag'"),
        (["build", "--family", "path"], "--family needs --n"),
        (["realize", "--family", "path"], "--family needs --n"),
        (["build"], "need a graph file or --family"),
        (["realize"], "need a graph file or --family"),
        (["bench", "--family", "path", "--n", "3,x"], "bad cube size list"),
        (["bench", "--family", "path", "--n", "4..2"], "bad cube size list"),
        (["bench", "--family", "path", "--n", "0"], "bad cube size list"),
        (["bench", "--family", "path", "--n", "1..1000000000000"], "bad cube size list"),
        (["enumerate", "--n", "0"], "--n must be between 1 and 6"),
        (["bench", "--family", "path", "--n", "65"], "sizes are 1..64"),
        (["build", "--family", "path", "--n", "21"], "cube dimension must be in 1..20"),
        (["realize", "--family", "path", "--n", "65"], "cube dimension must be in 1..64"),
        (
            ["bench", "--family", "path", "--n", "3", "--seed", "-1"],
            "expected non-negative integer",
        ),
        (["build", "-", "--n", "7"], "--n goes with --family"),  # refused before stdin is read
        (["realize", "-", "--n", "7"], "--n goes with --family"),
    ],
)
def test_semantic_errors_exit_1_with_one_error_line(argv, fragment, capsys):
    assert main(argv) == 1
    assert_one_error_line(capsys.readouterr(), fragment)


def test_build_loops_gives_uniform(tmp_path, capsys):
    src = write_graph(tmp_path / "g.json", InfluenceGraph(2, []))
    out = tmp_path / "o.json"
    assert main(["build", src, "--out", str(out)]) == 0
    o = Orientation.from_json_obj(json.loads(out.read_text()))
    assert o == Orientation(2, range(4))
    assert capsys.readouterr().err.count("warning") == 0


def test_build_family_to_stdout(capsys):
    assert main(["build", "--family", "path", "--n", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert Orientation.from_json_obj(doc).outmaps == (0, 3, 2, 1)


def test_build_writes_the_bytes_of_the_indent_encoder(tmp_path, capsys):
    """``build`` output equals ``json.dumps(..., indent=2)``: uniform tables, family builds, arbitrary tables."""
    rng = np.random.default_rng(11)
    for n in range(1, 9):
        cases = [Orientation(n, range(1 << n)), Orientation(n, (0,) * (1 << n))]
        cases += [build_matousek(family_graph(family, n)) for family in FAMILIES]
        cases.append(Orientation(n, tuple(int(x) for x in rng.integers(0, 1 << n, size=1 << n))))
        for o in cases:
            assert _orientation_json(o) == json.dumps(o.to_json_obj(), indent=2)
    out = tmp_path / "o.json"
    assert main(["build", "--family", "merged", "--n", "5", "--out", str(out)]) == 0
    assert out.read_text() == json.dumps(build_matousek(family_graph("merged", 5)).to_json_obj(), indent=2)


def test_build_warns_on_forbidden_graph(tmp_path, capsys):
    src = write_graph(tmp_path / "g.json", G1)
    out = tmp_path / "o.json"
    assert main(["build", src, "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "warning: not realizable" in captured.err
    assert '"G1"' in captured.err
    assert out.exists()  # construction still succeeds


def test_build_dot_format(tmp_path, capsys):
    src = write_graph(tmp_path / "g.json", CHAIN3)
    assert main(["build", src, "--format", "dot"]) == 0
    out = capsys.readouterr().out
    assert "digraph" in out and '1 -> 3 [style="dashed"];' in out


def test_build_rejects_graph_plus_family(tmp_path, capsys):
    src = write_graph(tmp_path / "g.json", CHAIN3)
    assert main(["build", src, "--family", "path", "--n", "3"]) == 1
    assert_one_error_line(capsys.readouterr(), "either a graph file or --family")


@pytest.mark.parametrize("command", ["build", "realize"])
def test_graph_file_refuses_n(command, tmp_path, capsys):
    """--n next to a 3-dimensional graph file is refused, whether it disagrees with the file or not."""
    src = write_graph(tmp_path / "g.json", CHAIN3)
    for n in ("7", "3"):
        assert main([command, src, "--n", n]) == 1
        assert_one_error_line(capsys.readouterr(), "--n goes with --family")


def test_build_cyclic_graph_fails(tmp_path, capsys):
    doc = {"n": 2, "edges": [[1, 2], [2, 1]]}
    src = tmp_path / "g.json"
    src.write_text(json.dumps(doc))
    assert main(["build", str(src)]) == 1
    assert "error:" in capsys.readouterr().err


def test_build_malformed_json_fails(tmp_path, capsys):
    src = tmp_path / "g.json"
    src.write_text("{not json")
    assert main(["build", str(src)]) == 1
    assert "error:" in capsys.readouterr().err


DEEP_JSON = "[" * 100_000 + "]" * 100_000


def test_check_deeply_nested_stdin_fails_with_one_error_line(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(DEEP_JSON))
    assert main(["check", "-"]) == 1
    assert_one_error_line(capsys.readouterr(), "nested too deeply")


def test_build_deeply_nested_graph_file_fails_with_one_error_line(tmp_path, capsys):
    src = tmp_path / "g.json"
    src.write_text(DEEP_JSON)
    assert main(["build", str(src)]) == 1
    assert_one_error_line(capsys.readouterr(), "nested too deeply")


@pytest.mark.parametrize(
    "doc",
    [
        {"n": 2.7, "edges": [[1.9, 2]]},
        {"n": 2.0, "edges": [[1, 2]]},
        {"n": "3", "edges": []},
        {"n": 3, "edges": [[1, "2"]]},
        {"n": 3, "edges": [[1, 2, 3]]},
        {"n": 3, "edges": [1, 2]},
        {"n": 3, "edges": "12"},
        {"n": 3},
        [3, [[1, 2]]],
    ],
)
def test_build_rejects_loosely_typed_graph(tmp_path, capsys, doc):
    src = tmp_path / "g.json"
    src.write_text(json.dumps(doc))
    assert main(["build", str(src)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err
    assert "Traceback" not in captured.err


def test_check_realizable(tmp_path, capsys):
    src = write_orientation(tmp_path / "o.json", build_matousek(CHAIN3))
    assert main(["check", src]) == 0
    out = capsys.readouterr().out
    assert "USO: yes" in out
    assert "Matousek: yes" in out
    assert "realizable: yes" in out


def test_check_forbidden(tmp_path, capsys):
    src = write_orientation(tmp_path / "o.json", build_matousek(G1))
    assert main(["check", src]) == 0
    out = capsys.readouterr().out
    assert "realizable: no (G1 at 1,2,3)" in out
    assert '"witness"' not in out  # witness JSON is its own line
    assert "witness: {" in out


def test_check_non_matousek(tmp_path, capsys):
    twisted = Orientation(3, (0, 1, 2, 3, 4, 7, 6, 5))
    src = write_orientation(tmp_path / "o.json", twisted)
    assert main(["check", src]) == 0
    out = capsys.readouterr().out
    assert "USO: yes" in out
    assert "Matousek: no (flip pattern varies across vertices)" in out


def test_check_cyclic_pattern(tmp_path, capsys):
    src = write_orientation(tmp_path / "o.json", Orientation(2, (0, 3, 3, 0)))
    assert main(["check", src]) == 0
    out = capsys.readouterr().out
    assert "USO: no" in out
    assert "Matousek: no (influence pattern is cyclic)" in out


def test_check_inconsistent(tmp_path, capsys):
    src = tmp_path / "o.json"
    src.write_text(json.dumps({"n": 1, "outmaps": [[1], [1]]}))
    assert main(["check", str(src)]) == 1
    assert "inconsistent" in capsys.readouterr().out


@pytest.mark.parametrize(
    "doc",
    [
        {"n": 2, "outmaps": [[], ["1"], [2], [1, 2]]},  # a dimension given as a string
        {"n": 2, "outmaps": [[], [1.0], [2], [1, 2]]},
        {"n": 2, "outmaps": [[], 1, [2], [1, 2]]},
        {"n": 2, "outmaps": "abcd"},
        {"n": "2", "outmaps": [[], [1], [2], [1, 2]]},
        {"n": 2.0, "outmaps": [[], [1], [2], [1, 2]]},
        [2, [[], [1], [2], [1, 2]]],
    ],
)
def test_check_rejects_malformed_orientation(tmp_path, capsys, doc):
    src = tmp_path / "o.json"
    src.write_text(json.dumps(doc))
    assert main(["check", str(src)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err
    assert "Traceback" not in err


def test_check_non_matousek_above_the_pair_cap(tmp_path, capsys):
    """A consistent non-Matousek table with n > USO_PAIR_CAP is refused, not scanned."""
    n = USO_PAIR_CAP + 1
    twisted = (0, 1, 2, 3, 4, 7, 6, 5)
    o = Orientation(n, tuple(twisted[v & 7] | v & ~7 for v in range(1 << n)))
    src = write_orientation(tmp_path / "o.json", o)
    assert main(["check", src]) == 1
    captured = capsys.readouterr()
    assert f"error: USO check needs 4^{n} vertex pairs" in captured.err
    assert "USO:" not in captured.out


def test_realize_names_the_disagreeing_route(tmp_path, capsys, monkeypatch):
    """An LCP route that comes back with one facet flipped is caught and located."""
    import usomat.cli

    real = usomat.cli.plcp_to_uso
    seen = []

    def flipped(inst):
        seen.append(flip_facet(real(inst), 1))
        return seen[-1]

    monkeypatch.setattr(usomat.cli, "plcp_to_uso", flipped)
    prefix = tmp_path / "path3"
    assert main(["realize", "--family", "path", "--n", "3", "--out", str(prefix)]) == 1
    got = build_matousek(extract_influence_graph(seen[0])).outmaps  # the canonical form
    want = build_matousek(InfluenceGraph(3, [(1, 2), (1, 3), (2, 3)])).outmaps
    v = next(v for v in range(8) if got[v] != want[v])
    err = capsys.readouterr().err
    assert (
        f"verification failed: LCP route disagrees with the graph at vertex {mask_to_dims(v)} "
        f"of the canonical form: LCP outmap {mask_to_dims(got[v])}, "
        f"graph outmap {mask_to_dims(want[v])}; nothing written"
    ) in err
    assert not list(tmp_path.iterdir())


def test_realize_names_an_lcp_route_without_a_matousek_uso(tmp_path, capsys, monkeypatch):
    import usomat.cli

    monkeypatch.setattr(usomat.cli, "plcp_to_uso", lambda inst: Orientation(3, (0, 1, 2, 3, 4, 7, 6, 5)))
    assert main(["realize", "--family", "path", "--n", "3", "--out", str(tmp_path / "path3")]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines()[1:] == [
        "verification failed: LCP route gives no Matousek USO (flip pattern of dimension 3 varies "
        "across vertices (first at vertex [1, 3])); nothing written"
    ]
    assert not list(tmp_path.iterdir())


def test_realize_reports_a_non_closure_without_a_witness(capsys, monkeypatch):
    """The two realizability tests disagreeing is an error, not a verdict."""
    import usomat.cli

    monkeypatch.setattr(usomat.cli, "find_forbidden", lambda g: None)
    assert main(["realize", "--family", "merged", "--n", "3"]) == 1
    assert_one_error_line(capsys.readouterr(), "graph is not a branching closure, yet no forbidden pattern was found")


def _realize_refusal(tmp_path, capsys, monkeypatch, inst: PLCPInstance) -> str:
    """What ``realize`` says when its LCP is ``inst``: one verification line, no error line and no file."""
    import usomat.cli

    monkeypatch.setattr(usomat.cli, "translate_to_plcp", lambda ext: inst)
    assert main(["realize", "--family", "path", "--n", "3", "--out", str(tmp_path / "path3")]) == 1
    captured = capsys.readouterr()
    assert "error:" not in captured.err
    assert not list(tmp_path.iterdir())
    return captured.err.splitlines()[-1]


@pytest.mark.parametrize("m", [[[1, 1, 0], [1, 1, 0], [0, 0, 1]], [[1, 2, 0], [2, 1, 0], [0, 0, 1]]])
def test_realize_names_the_lcp_route_when_it_refuses_m(tmp_path, capsys, monkeypatch, m):
    """A singular or an indefinite M with a zero entry is not Cauchy-like: refused by that entry; the oracle tree finds it is no P-matrix."""
    inst = PLCPInstance(3, RationalMatrix(m), (Fraction(-1), Fraction(-2), Fraction(-3)))
    assert _realize_refusal(tmp_path, capsys, monkeypatch, inst) == (
        "verification failed: LCP route: [M | q] is not Cauchy-like (M[1, 3] is 0); nothing written"
    )
    with pytest.raises(ValueError, match=r"^M is not a P-matrix: det\(M\[S, S\]\) is (zero|negative) for S = \[1, 2\]$"):
        tree_to_uso(inst)


@pytest.mark.parametrize(
    "m, q, minor",
    [
        ([[1, 1, 1], [1, 1, 1], [1, 1, 1]], (-1, -2, -3), "zero"),
        ([[1, 2, 1], [2, 1, 1], ["2/3", "2/3", "1/2"]], (1, "1/2", "1/3"), "negative"),
    ],
    ids=["singular", "indefinite"],
)
def test_realize_names_the_lcp_route_when_it_refuses_a_cauchy_like_m(tmp_path, capsys, monkeypatch, m, q, minor):
    """A Cauchy-like singular or indefinite M is refused as not a P-matrix, by its first nonpositive minor."""
    inst = PLCPInstance(3, RationalMatrix(m), q)
    assert _realize_refusal(tmp_path, capsys, monkeypatch, inst) == (
        f"verification failed: LCP route: M is not a P-matrix: det(M[S, S]) is {minor} for S = [1, 2]; nothing written"
    )


def test_realize_builds_no_table_from_rows(capsys, monkeypatch):
    """Both routes are compared with the graph by their canonical rows, not by 2^n tables."""
    import usomat.cube

    def no_table(base, rows):
        raise AssertionError("a table was built from rows")

    monkeypatch.setattr(usomat.cube, "xor_table", no_table)
    assert main(["realize", "--family", "path", "--n", "6"]) == 0
    assert capsys.readouterr().out.startswith("round-trip: exact match\n")


def test_realize_runs_past_the_table_cap_without_a_table(capsys, monkeypatch):
    """At n = 24 all three routes, the LCP certificate included, stay in row form."""
    import usomat.cube

    def no_table(base, rows):
        raise AssertionError("a table was built from rows")

    monkeypatch.setattr(usomat.cube, "xor_table", no_table)
    assert main(["realize", "--family", "path", "--n", "24"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("round-trip: exact match\n")
    plcp = json.loads(out[out.rindex("\n{") :])
    assert plcp["n"] == 24 and len(plcp["M"]) == 24


def test_realize_writes_both_documents(tmp_path, capsys):
    src = write_graph(tmp_path / "g.json", CHAIN3)
    prefix = tmp_path / "chain3"
    assert main(["realize", src, "--out", str(prefix)]) == 0
    out = capsys.readouterr().out
    assert "round-trip: exact match" in out
    ext = json.loads((tmp_path / "chain3.ext.json").read_text())
    assert ext["order"] == [1, 2, 3, 6, 5, 4, "q"]
    assert ext["F"] == [4, 6]
    plcp = json.loads((tmp_path / "chain3.plcp.json").read_text())
    assert plcp["n"] == 3
    assert len(plcp["M"]) == 3 and len(plcp["q"]) == 3


def test_realize_trivial_family(capsys):
    assert main(["realize", "--family", "loops", "--n", "1"]) == 0
    out = capsys.readouterr().out
    assert "round-trip: exact match" in out
    plcp = json.loads(out[out.rindex("\n{") :])  # last printed document
    assert plcp["M"] == [["1"]]
    assert plcp["q"] == ["-1"]


def test_realize_forbidden_graph(tmp_path, capsys):
    src = write_graph(tmp_path / "g.json", G2)
    assert main(["realize", src]) == 1
    captured = capsys.readouterr()
    witness = json.loads(captured.out)
    assert witness["kind"] == "G2"
    assert "not realizable: G2 at" in captured.err


def test_realize_cyclic_graph_fails(tmp_path, capsys):
    src = tmp_path / "g.json"
    src.write_text(json.dumps({"n": 2, "edges": [[1, 2], [2, 1]]}))
    assert main(["realize", str(src)]) == 1
    assert_one_error_line(capsys.readouterr(), "non-loop cycle")


def test_bench_deterministic(tmp_path, capsys):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    args = ["bench", "--family", "path", "--n", "3,4", "--trials", "50", "--seed", "9"]
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    lines = out_a.read_text().splitlines()
    assert lines[0] == "family,n,trials,seed,mean,stddev,min,max"
    assert len(lines) == 3
    assert lines[1].startswith("path,3,50,9,")


def test_bench_range_syntax(capsys):
    assert main(["bench", "--family", "loops", "--n", "2..4", "--trials", "10"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert [r.split(",")[1] for r in rows[1:]] == ["2", "3", "4"]


def test_bench_unknown_family(capsys):
    assert main(["bench", "--family", "zigzag", "--n", "3", "--trials", "10"]) == 1
    assert_one_error_line(capsys.readouterr(), "unknown family", "loops")


def test_bench_zero_trials_is_usage_error(capsys):
    assert main(["bench", "--family", "path", "--n", "3", "--trials", "0"]) == 1
    assert_one_error_line(capsys.readouterr(), "trials must be at least 1")


def test_enumerate_csv(capsys):
    assert main(["enumerate", "--n", "3", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == [
        "n,dags,uso_failures,realizable,mismatches",
        "3,25,0,16,0",
    ]


def test_enumerate_json(capsys):
    assert main(["enumerate", "--n", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"n": 2, "dags": 3, "uso_failures": 0, "realizable": 3, "mismatches": 0}


def test_enumerate_counts_a_cyclic_graph_as_a_uso_failure(capsys, monkeypatch):
    """The acyclicity pass decides: a cyclic input is a counted failure, not an error line."""
    import usomat.cli

    two_cycle = np.array([InfluenceGraph(2, [(1, 2), (2, 1)]).rows], dtype=np.uint8)
    monkeypatch.setattr(usomat.cli, "dag_blocks", lambda n: iter([two_cycle]))
    assert main(["enumerate", "--n", "2"]) == 1
    captured = capsys.readouterr()
    assert "error:" not in captured.err
    doc = json.loads(captured.out)
    # the 2-cycle has no three-dimension pattern, yet is no branching closure
    assert doc == {"n": 2, "dags": 1, "uso_failures": 1, "realizable": 1, "mismatches": 1}


def test_enumerate_rejects_large_n(capsys):
    assert main(["enumerate", "--n", "7"]) == 1
    assert_one_error_line(capsys.readouterr(), "--n must be between 1 and 6")


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "usomat.cli", "enumerate", "--n", "2", "--format", "csv"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "2,3,0,3,0" in proc.stdout
    assert "usomat 0.1.0" in proc.stderr


def _fresh_interpreter(script: str) -> str:
    """The stdout of ``python -c script`` in a fresh interpreter that imports usomat from this checkout."""
    src = os.path.dirname(os.path.dirname(usomat.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _loaded_after(module: str, argv: Optional[list[str]]) -> bool:
    """Whether importing usomat.cli and running ``main(argv)`` in a fresh interpreter imports ``module``.

    The module's parent package is imported first; if that alone loads the
    module, the test skips.  argv None runs no command.
    """
    parent = module.rpartition(".")[0]
    script = (
        "import io, sys, contextlib\n"
        + (f"import {parent}\n" if parent else "")
        + f"eager = {module!r} in sys.modules\n"
        "import usomat, usomat.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = 0 if {argv!r} is None else usomat.cli.main({argv!r})\n"
        f"print(code, eager, {module!r} in sys.modules)\n"
    )
    code, eager, loaded = _fresh_interpreter(script).splitlines()[-1].split()
    if eager == "True":
        pytest.skip(f"this interpreter imports {module} before usomat")
    assert code == "0"
    return loaded == "True"


def test_commands_without_draws_leave_numpy_random_unloaded():
    """Only the Random Facet functions import numpy.random, when they run."""
    assert not _loaded_after("numpy.random", ["enumerate", "--n", "3"])


def test_lockstep_bench_leaves_numpy_random_unloaded():
    """bench's default 1,000 trials step their PCG64 streams in numpy; 999 use numpy.random."""
    assert not _loaded_after("numpy.random", ["bench", "--family", "path", "--n", "4"])
    assert _loaded_after("numpy.random", ["bench", "--family", "path", "--n", "4", "--trials", "999"])


def test_only_commands_that_compute_with_arrays_import_numpy(tmp_path):
    """Importing the package, realize, build and check of a Matousek table leave numpy unloaded."""
    matousek = str(tmp_path / "path5.json")
    twisted = write_orientation(tmp_path / "twisted.json", Orientation(3, (0, 1, 2, 3, 4, 7, 6, 5)))
    assert main(["build", "--family", "path", "--n", "5", "--out", matousek]) == 0
    for argv in (
        None,
        ["realize", "--family", "path", "--n", "10", "--out", str(tmp_path / "path10")],
        ["build", "--family", "path", "--n", "5", "--out", str(tmp_path / "again.json")],
        ["check", matousek],
    ):
        assert not _loaded_after("numpy", argv), argv
    # the census, the trials and the pair test of a table that is not Matousek-type
    for argv in (["enumerate", "--n", "3"], ["bench", "--family", "path", "--n", "4"], ["check", twisted]):
        assert _loaded_after("numpy", argv), argv


# Each function that computes with arrays imports numpy itself; called first
# in a fresh interpreter, it must set up every numpy scalar it uses.
FIRST_CALL_IMPORTS = (
    "from usomat import Orientation, build_matousek, random_facet, run_trials, uso_by_pairs\n"
    "from usomat.enumeration import classify_block, dag_blocks\n"
    "from usomat.random_facet import path_family, trial_seed_words\n"
)
TWISTED = "Orientation(3, (0, 1, 2, 3, 4, 7, 6, 5))"  # a USO that is not Matousek-type
FIRST_CALLS = {
    "uso_by_pairs": f"[uso_by_pairs(o) for o in ({TWISTED}, Orientation(2, (0, 3, 3, 0)))]",
    "trial_seed_words": "[trial_seed_words(7, first, 3).tolist() for first in (0, 2**32 + 5)]",
    "run_trials": "run_trials('path', [4, 9], 1000, 0)",  # one lockstep block per n
    "classify_block": "[[v.tolist() for v in classify_block(rows)] for rows in dag_blocks(3)]",
    "random_facet": f"[random_facet(o, seed=3) for o in ({TWISTED}, build_matousek(path_family(6)))]",
}


@pytest.mark.parametrize("call", FIRST_CALLS.values(), ids=FIRST_CALLS)
def test_first_call_in_a_fresh_interpreter_returns_what_it_returns_here(call):
    script = f"import sys\n{FIRST_CALL_IMPORTS}assert 'numpy' not in sys.modules\nprint(repr({call}))\n"
    namespace: dict = {}
    exec(FIRST_CALL_IMPORTS, namespace)
    assert _fresh_interpreter(script) == repr(eval(call, namespace)) + "\n"
