import argparse
import json
import subprocess
import sys

import pytest

from usomat import (
    USO_PAIR_CAP,
    InfluenceGraph,
    Orientation,
    build_matousek,
    canonicalize,
    flip_facet,
)
from usomat.cli import _build_parser, main
from usomat.cube import mask_to_dims


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
        (["enumerate", "--n", "0"], "--n must be between 1 and 5"),
        (["bench", "--family", "path", "--n", "65"], "sizes are 1..64"),
        (["build", "--family", "path", "--n", "21"], "cube dimension must be in 1..20"),
        (["realize", "--family", "path", "--n", "21"], "cube dimension must be in 1..20"),
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
    assert o == Orientation.uniform(2)
    assert capsys.readouterr().err.count("warning") == 0


def test_build_family_to_stdout(capsys):
    assert main(["build", "--family", "path", "--n", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert Orientation.from_json_obj(doc).outmaps == (0, 3, 2, 1)


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
    got = canonicalize(seen[0]).outmaps
    want = build_matousek(InfluenceGraph(3, [(1, 2), (1, 3), (2, 3)])).outmaps
    v = next(v for v in range(8) if got[v] != want[v])
    err = capsys.readouterr().err
    assert (
        f"verification failed: LCP route disagrees with the graph at vertex {mask_to_dims(v)} "
        f"of the canonical form: LCP outmap {mask_to_dims(got[v])}, "
        f"graph outmap {mask_to_dims(want[v])}; nothing written"
    ) in err
    assert not list(tmp_path.iterdir())


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


def test_enumerate_rejects_large_n(capsys):
    assert main(["enumerate", "--n", "6"]) == 1
    assert_one_error_line(capsys.readouterr(), "--n must be between 1 and 5")


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "usomat.cli", "enumerate", "--n", "2", "--format", "csv"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "2,3,0,3,0" in proc.stdout
    assert "usomat 0.1.0" in proc.stderr
