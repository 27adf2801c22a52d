"""Recognition of Matousek-type tables by one XOR-doubling rebuild.

``is_uso``, ``extract_influence_graph`` and ``check_orientation`` read a
table through ``matousek_rows``.  Each is checked here against the slow
definitions in ``oracles.py`` on exhaustive families of tables: the same
answer, or the same exception class.
"""

from itertools import product

import pytest

from usomat import (
    USO_PAIR_CAP,
    CyclicInfluence,
    InfluenceGraph,
    NotMatousekType,
    Orientation,
    build_matousek,
    check_orientation,
    extract_influence_graph,
    global_sink,
    is_uso,
)
from usomat.cube import matousek_rows, xor_table
from usomat.matousek import orientation_from_rows
from usomat.random_facet import path_family
from oracles import (
    edge_consistent_scan,
    extract_influence_graph_by_scan,
    sink_by_scan,
    szabo_welzl_pairs,
)

TWISTED = Orientation(3, (0, 1, 2, 3, 4, 7, 6, 5))  # USO but not Matousek-type


def outcome(f, o):
    """f(o), or the class of the ValueError it raises."""
    try:
        return f(o)
    except ValueError as exc:
        return type(exc)


def uso_by_definition(o):
    if not edge_consistent_scan(o):
        raise ValueError("outmap table is not an orientation")
    return szabo_welzl_pairs(o)


def sink_outcome(f, o):
    """f(o), or the text of the ValueError it raises."""
    try:
        return f(o)
    except ValueError as exc:
        return str(exc)


def agree(o):
    """Check the four fast routes against the oracles; return the extraction outcome."""
    assert check_orientation(o) == edge_consistent_scan(o), o
    assert outcome(is_uso, o) == outcome(uso_by_definition, o), o
    assert sink_outcome(global_sink, o) == sink_outcome(sink_by_scan, o), o
    extracted = outcome(extract_influence_graph, o)
    assert extracted == outcome(extract_influence_graph_by_scan, o), o
    return extracted


def kinds(outcomes):
    return {x if isinstance(x, type) else InfluenceGraph for x in outcomes}


ALL_KINDS = {InfluenceGraph, ValueError, NotMatousekType, CyclicInfluence}


def test_every_xor_table_n_le_3():
    """All bases and all row sets, loop bits present or not."""
    seen = []
    for n in (1, 2, 3):
        for base in range(1 << n):
            for rows in product(range(1 << n), repeat=n):
                seen.append(agree(Orientation(n, xor_table(base, rows))))
    assert len(seen) == 2 * 2 + 4 * 16 + 8 * 512
    # Matousek-type by construction, so never NotMatousekType
    assert kinds(seen) == ALL_KINDS - {NotMatousekType}


def test_every_row_set_with_loops_n4():
    seen = []
    for offs in product(range(8), repeat=4):
        rows = []
        for d, off in enumerate(offs):
            low = off & ((1 << d) - 1)
            rows.append(low | 1 << d | (off & ~((1 << d) - 1)) << 1)
        seen.append(agree(Orientation(4, xor_table(0, rows))))
    assert len(seen) == 4096
    graphs = [x for x in seen if isinstance(x, InfluenceGraph)]
    assert len(graphs) == 543  # the labeled DAGs on 4 vertices
    assert kinds(seen) == {InfluenceGraph, CyclicInfluence}


def edge_consistent_tables(n):
    """Every orientation of the n-cube: one direction per edge."""
    edges = [(v, 1 << d) for d in range(n) for v in range(1 << n) if not v >> d & 1]
    for ups in product((False, True), repeat=len(edges)):
        table = [0] * (1 << n)
        for (v, bit), up in zip(edges, ups):
            table[v if up else v | bit] |= bit
        yield Orientation(n, tuple(table))


def test_every_orientation_n_le_3():
    for n, usos, matousek in ((1, 2, 2), (2, 12, 12), (3, 744, 200)):
        tables = list(edge_consistent_tables(n))
        assert len(tables) == 2 ** (n << (n - 1))
        extracted = [agree(o) for o in tables]
        # 744 USOs of the 3-cube; Matousek USOs: labeled DAGs times 2^n sink positions
        assert sum(is_uso(o) for o in tables) == usos
        assert sum(isinstance(x, InfluenceGraph) for x in extracted) == matousek
    assert kinds(extracted) == ALL_KINDS - {ValueError}


def test_every_table_n_le_2():
    """Inconsistent tables too: every outmap table of the 1- and 2-cube."""
    seen = []
    for n in (1, 2):
        for table in product(range(1 << n), repeat=1 << n):
            seen.append(agree(Orientation(n, table)))
    # every orientation of a cube of dimension 2 or less has constant flip rows
    assert kinds(seen) == ALL_KINDS - {NotMatousekType}


def test_mismatch_names_dimension_and_vertex():
    rows, mismatch = matousek_rows(TWISTED)
    assert rows == (1, 2, 4) and mismatch == 0b101
    with pytest.raises(NotMatousekType, match=r"dimension 3 .*vertex \[1, 3\]"):
        extract_influence_graph(TWISTED)


def test_rows_of_a_built_table():
    g = InfluenceGraph(3, [(1, 2), (2, 3)])
    assert matousek_rows(build_matousek(g)) == (g.rows, None)


def twisted_times_uniform(n):
    """TWISTED on dimensions 1..3, uniform on the rest: consistent, not Matousek-type."""
    return Orientation(n, tuple(TWISTED.outmaps[v & 7] | v & ~7 for v in range(1 << n)))


def test_pair_test_is_capped():
    o = twisted_times_uniform(USO_PAIR_CAP + 1)
    assert check_orientation(o)
    with pytest.raises(ValueError, match=rf"4\^{USO_PAIR_CAP + 1}"):
        is_uso(o)


def test_cyclic_rows_above_the_cap_are_no_uso():
    """Constant rows with loop bits and a cycle are refused without the pair test."""
    o = orientation_from_rows(17, [2, 1] + [1 << d for d in range(2, 17)])
    assert check_orientation(o)
    assert is_uso(o) is False


def test_matousek_table_above_the_cap_is_uso():
    assert is_uso(build_matousek(path_family(20)))
