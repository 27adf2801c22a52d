"""Input rules, each checked once: the JSON envelope by its reader, integers by the constructors.

Every reader takes its named keys through one helper, so a non-object or
a missing key is a ``ValueError`` that names the document; the integer
``n``, table and row entries, dimensions, vertices, edges, parent links,
tokens, flip elements, trial counts and seeds are checked by the code that
uses them, so a direct library call fails the same way a document does.
Table entries, row-form base and rows, and graph rows share one mask rule.
"""

import importlib
import json
import re

import numpy as np
import pytest

from usomat import (
    Branching,
    CyclicExtension,
    InfluenceGraph,
    Orientation,
    PLCPInstance,
    build_matousek,
    dims_to_mask,
    family_graph,
    flip_facet,
    random_facet,
    RationalMatrix,
    run_trials,
)
from usomat.cli import main

from oracles import solve_candidate

# one well-formed document of each kind, and the subcommands that read it
DOCUMENTS = {
    InfluenceGraph: ({"n": 3, "edges": [[1, 2]]}, ["build", "realize"]),
    Orientation: ({"n": 1, "outmaps": [[1], []]}, ["check"]),
    CyclicExtension: ({"n": 1, "order": [1, 2, "q"], "F": [2]}, []),
    PLCPInstance: ({"n": 1, "M": [["1"]], "q": ["1"]}, []),
}


def malformed(doc):
    """Two non-objects, the document with each key missing in turn, and three non-integer sizes."""
    yield []
    yield "x"
    for key in doc:
        yield {k: v for k, v in doc.items() if k != key}
    for n in (True, 1.0, "3"):
        yield {**doc, "n": n}


@pytest.mark.parametrize("kind", list(DOCUMENTS), ids=lambda kind: kind.__name__)
def test_malformed_documents_are_value_errors(kind, tmp_path, capsys):
    doc, commands = DOCUMENTS[kind]
    assert kind.from_json_obj(doc).to_json_obj() == doc
    src = tmp_path / "doc.json"
    for bad in malformed(doc):
        with pytest.raises(ValueError):
            kind.from_json_obj(bad)
        src.write_text(json.dumps(bad))
        for command in commands:
            assert main([command, str(src)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            banner, *rest = captured.err.splitlines()
            assert len(rest) == 1 and rest[0].startswith("error: "), (command, bad, rest)


USO = build_matousek(family_graph("path", 3))
INSTANCE = PLCPInstance.from_json_obj(DOCUMENTS[PLCPInstance][0])

# each call puts a non-integer, or a bool, where an integer belongs; the
# PLCPInstance calls put a float, a bool or a non-fraction string in q, or
# a list of lists for M, where an exact entry or a RationalMatrix belongs;
# the oracle solve_candidate refuses a float or a bool vertex the same way
NON_INTEGER_CALLS = [
    (InfluenceGraph, ("3",)),
    (InfluenceGraph, (True,)),
    (InfluenceGraph, (3, [(1.0, 2)])),
    (InfluenceGraph.from_rows, ("2", [1, 2])),
    (Orientation, (2.0, range(4))),
    (Orientation.from_rows, (2.0, 0, [1, 2])),
    (Orientation, (1, [0.0, 1])),
    (Orientation, (1, [True, 0])),
    (Orientation.from_rows, (2, 0, [1.0, 3])),
    (Orientation.from_rows, (2, True, [1, 2])),
    (InfluenceGraph.from_rows, (2, [1.0, 2])),
    (InfluenceGraph.from_rows, (2, [True, 2])),
    (flip_facet, (USO, 1.0)),
    (flip_facet, (USO, True)),
    (random_facet, (USO, 7.0, 0)),
    (random_facet, (USO, True, 0)),
    (random_facet, (USO, 7, True)),
    (random_facet, (USO, 7, 1.5)),
    (solve_candidate, (INSTANCE, 1.0)),
    (solve_candidate, (INSTANCE, True)),
    (PLCPInstance, (2, RationalMatrix([[2, 1], [1, 2]]), (1.5, 2))),
    (PLCPInstance, (2, RationalMatrix([[2, 1], [1, 2]]), (True, 2))),
    (PLCPInstance, (2, RationalMatrix([[2, 1], [1, 2]]), ("x", 2))),
    (PLCPInstance, (2, [[2, 1], [1, 2]], (1, 2))),
    (dims_to_mask, ([True], 2)),
    (Branching, ("3", {})),
    (Branching, (3, {2.0: 1})),
    (family_graph, ("path", "3")),
    (CyclicExtension, (1, [1, [2], "q"], [])),
    (CyclicExtension, (1, [1, 2, "q"], [[2]])),
]


@pytest.mark.parametrize(
    "func, args",
    NON_INTEGER_CALLS,
    ids=[f"{func.__qualname__}({', '.join(map(repr, args))})" for func, args in NON_INTEGER_CALLS],
)
def test_library_calls_with_non_integers_are_value_errors(func, args):
    with pytest.raises(ValueError):
        func(*args)


@pytest.mark.parametrize(
    "trials, seed, message",
    [
        (True, 0, "trials must be at least 1 and an integer, got True"),
        (10.0, 0, "trials must be at least 1 and an integer, got 10.0"),
        (10, True, "expected non-negative integer, got True"),
        (10, 1.5, "expected non-negative integer, got 1.5"),
    ],
)
def test_run_trials_refuses_non_integer_trials_and_seeds_before_any_trial(trials, seed, message, monkeypatch):
    def no_trial(*args):
        raise AssertionError("a trial ran")

    module = importlib.import_module("usomat.random_facet")  # the package attribute is the function
    for name in ("random_facet", "random_facet_lanes"):
        monkeypatch.setattr(module, name, no_trial)
    with pytest.raises(ValueError, match=message):
        run_trials("path", [4], trials, seed)


# at n = 2: a bool, a numpy integer, a float, a negative value and bit n + 1
BAD_MASKS = [True, np.int64(1), 1.0, -1, 1 << 2]


def mask_calls(bad):
    """Each constructor that takes masks, with ``bad`` in one place, and the name its error gives that place."""
    yield Orientation, (2, (0, 1, bad, 3)), "outmap of vertex 2"
    yield Orientation.from_rows, (2, bad, [1, 2]), "base"
    yield Orientation.from_rows, (2, 0, [1, bad]), "row of dimension 2"
    yield InfluenceGraph.from_rows, (2, [1, bad]), "row of dimension 2"


@pytest.mark.parametrize("bad", BAD_MASKS, ids=repr)
def test_one_mask_rule_for_tables_orientation_rows_and_graph_rows(bad):
    for func, args, name in mask_calls(bad):
        with pytest.raises(ValueError, match=re.escape(f"{name} is {bad!r}, not an integer with bits in 1..2 only")):
            func(*args)


@pytest.mark.parametrize("rows", [[1], [1, 2, 4]], ids=["too few", "too many"])
def test_row_counts_are_checked_before_the_rows(rows):
    for func, args in [(Orientation.from_rows, (2, 0, rows)), (InfluenceGraph.from_rows, (2, rows))]:
        with pytest.raises(ValueError, match=f"need 2 rows, got {len(rows)}"):
            func(*args)
