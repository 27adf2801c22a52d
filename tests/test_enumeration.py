import json
from itertools import product

import numpy as np
import pytest

from usomat import Orientation, find_forbidden, is_branching_closure, is_uso
from usomat.cli import main
from usomat.enumeration import (
    BLOCK_BYTES,
    ENUMERATE_CAP,
    _dag_columns,
    all_dags,
    classify_block,
    dag_blocks,
)
from usomat.matousek import InfluenceGraph
from usomat.random_facet import FAMILIES, family_graph
from oracles import all_dags_by_orders, census_by_graphs, transitive_closure


@pytest.mark.parametrize("n, count", [(1, 1), (2, 3), (3, 25), (4, 543), (5, 29281)])
def test_all_dags_yields_each_dag_once(n, count):
    """The vertex-extension generator writes each DAG once and finds the same set as the order filter."""
    rows = [g.rows for g in all_dags(n)]
    assert len(rows) == count
    assert len(set(rows)) == count
    assert set(rows) == {g.rows for g in all_dags_by_orders(n)}


def test_dags_are_enumerated_up_to_the_cap_only():
    """n = 7 already has 1,138,779,265 DAGs, so both generators refuse it before writing any."""
    assert ENUMERATE_CAP == 6
    for n in (0, 7, 65):
        with pytest.raises(ValueError, match="1 to 6 vertices"):
            next(dag_blocks(n))
        with pytest.raises(ValueError, match="1 to 6 vertices"):
            next(all_dags(n))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_blocks_are_bounded_and_reach_masks_are_the_closures(n):
    lines = 0
    for cols, reach in _dag_columns(n):
        assert cols.dtype == reach.dtype == np.uint8
        assert cols.shape == reach.shape and cols.nbytes <= BLOCK_BYTES
        lines += cols.shape[1]
        for row, closure in zip(cols.T.tolist(), reach.T.tolist()):
            assert tuple(closure) == transitive_closure(InfluenceGraph.from_rows(n, row)).rows
    assert lines == [1, 3, 25, 543, 29281][n - 1]


def every_digraph_block(n):
    """Every digraph on n vertices, loop bits set and cyclic ones included, as one block."""
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    lines = []
    for picks in product((0, 1), repeat=len(pairs)):
        rows = [1 << d for d in range(n)]
        for (a, b), pick in zip(pairs, picks):
            rows[a] |= pick << b
        lines.append(rows)
    return np.array(lines, dtype=np.uint8)


def scalar_twins(n, rows):
    """The scalar predicates whose verdicts classify_block batches."""
    graphs = [InfluenceGraph.from_rows(n, line) for line in rows.tolist()]
    return [
        [is_uso(Orientation.from_rows(n, 0, g.rows)) for g in graphs],
        [find_forbidden(g) is None for g in graphs],
        [is_branching_closure(g) is not None for g in graphs],
    ]


def block_passes(rows):
    return [verdicts.tolist() for verdicts in classify_block(rows)]


def test_block_passes_match_their_scalar_twins_on_every_digraph_up_to_4():
    """All 4,165 digraphs with n <= 4, cyclic ones included, in every row dtype."""
    for n in (1, 2, 3, 4):
        rows = every_digraph_block(n)
        want = scalar_twins(n, rows)
        assert block_passes(rows) == want
        assert not all(want[0]) or n == 1  # cyclic graphs are in the block
        for dtype in (np.uint16, np.uint32, np.uint64):
            assert block_passes(rows.astype(dtype)) == want


def test_block_passes_match_their_scalar_twins_on_every_dag_at_5():
    checked = 0
    for rows in dag_blocks(5):
        assert block_passes(rows) == scalar_twins(5, rows)
        checked += len(rows)
    assert checked == 29281


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_block_passes_match_their_scalar_twins_on_the_families(family):
    """Wide rows: every family at the first and last size of each dtype, plus one with a cycle."""
    for n in (1, 8, 9, 16, 17, 32, 33, 64):
        g = family_graph(family, n)
        rows = np.array([g.rows], dtype=np.min_scalar_type((1 << n) - 1))  # the narrowest n-bit dtype
        assert block_passes(rows) == scalar_twins(n, rows)
        if n > 1:
            looped = rows.copy()
            looped[0, n - 1] |= looped.dtype.type(1)  # n -> 1 closes a cycle through any path to n
            assert block_passes(looped) == scalar_twins(n, looped)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_enumerate_matches_the_census_one_graph_at_a_time(capsys, n):
    assert main(["enumerate", "--n", str(n)]) == 0
    assert json.loads(capsys.readouterr().out) == census_by_graphs(n)


def test_enumerate_at_6_proves_the_theorem_on_every_dag(capsys):
    """All 3,781,503 labeled DAGs at n = 6: every one a USO, witness-free exactly on the 7^5 branching closures."""
    assert main(["enumerate", "--n", "6"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"n": 6, "dags": 3781503, "uso_failures": 0, "realizable": 7**5, "mismatches": 0}
