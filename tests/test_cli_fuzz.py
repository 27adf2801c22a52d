"""Fuzz all five subcommands: every run ends in a clean exit, never a traceback.

``main`` must return 0 or 1, or exit 2 from argparse (a syntax error).  An
exit 1 ends stderr with an ``error:`` line, unless it is one of the two
verdicts that are not errors: ``check`` on an edge-inconsistent table and
``realize`` on a graph with a forbidden pattern.  Any other exception fails
the test.  Inputs are JSON documents for the file-reading subcommands,
well-shaped and mistyped, and option values drawn from a small grammar for
``bench`` and ``enumerate``.
"""

import contextlib
import io
import json

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from usomat.cli import main

FUZZ = settings(derandomize=True, deadline=None, max_examples=200)

json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-3, 8)
    | st.floats(-10, 10)
    | st.sampled_from([float("inf"), float("nan")])
    | st.text(max_size=3)
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["n", "edges", "outmaps", "x"]), inner, max_size=3),
    max_leaves=12,
)
sizes = st.integers(-2, 6)



@st.composite
def graph_docs(draw):
    """Edges anywhere in -1..7, or non-loop edges inside 1..n (half of those forward: a DAG)."""
    n = draw(sizes)
    if draw(st.booleans()):
        return {"n": n, "edges": draw(st.lists(st.lists(st.integers(-1, 7), min_size=2, max_size=2), max_size=8))}
    pairs = st.tuples(st.integers(1, max(n, 1)), st.integers(1, max(n, 1))).filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(pairs, max_size=8))
    if draw(st.booleans()):
        edges = [sorted(e) for e in edges]
    return {"n": n, "edges": [list(e) for e in edges]}


@st.composite
def orientation_docs(draw):
    """Free outmap lists of about 2^n entries, or an edge-consistent XOR table."""
    n = draw(sizes)
    if n >= 1 and draw(st.booleans()):
        table = [draw(st.integers(0, (1 << n) - 1))]
        for d in range(n):
            row = draw(st.integers(0, (1 << n) - 1)) | 1 << d
            table += [out ^ row for out in table]
        outmaps = [[d + 1 for d in range(n) if out >> d & 1] for out in table]
    else:
        size = max(0, (1 << max(n, 0)) + draw(st.sampled_from([0, 0, 0, -1, 1])))
        dims = st.lists(st.integers(0, 7), max_size=4)
        outmaps = draw(st.lists(dims, min_size=size, max_size=size))
    return {"n": n, "outmaps": outmaps}


@st.composite
def mistyped(draw, well):
    """A well-shaped document with one key dropped or replaced by any JSON value."""
    doc = dict(draw(well))
    key = draw(st.sampled_from(sorted(doc)))
    if draw(st.booleans()):
        del doc[key]
    else:
        doc[key] = draw(json_values)
    return doc


@st.composite
def documents(draw, well):
    """File contents: half well-shaped documents, then mistyped ones, arbitrary JSON and raw bytes."""
    kind = draw(st.sampled_from(["well", "well", "well", "mistyped", "json", "bytes"]))
    if kind == "bytes":
        return draw(st.binary(max_size=16))
    doc = draw({"well": well, "mistyped": mistyped(well), "json": json_values}[kind])
    return json.dumps(doc).encode()


def run(argv):
    """Run the CLI, assert a clean exit, and return (exit code, stdout, stderr lines)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
            assert rc in (0, 1), argv
        except SystemExit as exc:
            assert exc.code == 2, argv
            rc = 2
    event(f"exit {rc}")
    lines = err.getvalue().splitlines()
    assert not any("Traceback" in line for line in lines), argv
    return rc, out.getvalue(), lines


def assert_clean(argv):
    rc, out, lines = run(argv)
    if rc != 1:
        return
    verdict = (argv[0] == "check" and out.startswith("orientation: inconsistent")) or (
        argv[0] == "realize" and lines[-1].startswith("not realizable: ")
    )
    assert verdict or lines[-1].startswith("error: "), (argv, lines)


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.json"


@FUZZ
@given(command=st.sampled_from(["build", "realize"]), raw=documents(graph_docs()))
def test_graph_documents(doc_path, command, raw):
    doc_path.write_bytes(raw)
    assert_clean([command, str(doc_path)])


@FUZZ
@given(raw=documents(orientation_docs()))
def test_orientation_documents(doc_path, raw):
    doc_path.write_bytes(raw)
    assert_clean(["check", str(doc_path)])


families = st.sampled_from(["loops", "path", "star", "merged", "zigzag", "", "PATH"])
numbers = st.integers(-2, 6).map(str)
n_lists = (
    numbers
    | st.lists(numbers, min_size=1, max_size=3).map(",".join)
    | st.tuples(numbers, numbers).map("..".join)
    | st.sampled_from(["", "x", "3,", ",", "..", "1..", "2..x", "1.5", " 3", "99", "1..99"])
)
trial_counts = st.integers(-1, 4).map(str) | st.sampled_from(["", "x", "1.5"])


@FUZZ
@given(family=families, n=n_lists, trials=trial_counts, seed=st.integers(-1, 3).map(str))
def test_bench_options(family, n, trials, seed):
    assert_clean(["bench", "--family", family, "--n", n, "--trials", trials, "--seed", seed])


# n = 5 is left out: its 29,281 DAGs take seconds, and the bench covers it
enumerate_sizes = st.integers(-2, 4).map(str) | st.sampled_from(["7", "99", "", "x", "2.0", "1,2"])


@settings(derandomize=True, deadline=None, max_examples=40)
@given(n=enumerate_sizes, fmt=st.sampled_from(["json", "csv", "xml"]))
def test_enumerate_options(n, fmt):
    assert_clean(["enumerate", "--n", n, "--format", fmt])
