"""Input rules, each checked once: the JSON envelope by its reader, integers by the constructors.

Every reader takes its named keys through one helper, so a non-object or
a missing key is a ``ValueError`` that names the document; the integer
``n``, table and row entries, dimensions, vertices, edges, parent links,
tokens and flip elements are checked by the code that uses them, so a
direct library call fails the same way a document does.
"""

import json

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
    solve_candidate,
)
from usomat.cli import main

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

# each call puts a non-integer, or a bool, where an integer belongs
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
    (solve_candidate, (INSTANCE, 1.0)),
    (solve_candidate, (INSTANCE, True)),
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
