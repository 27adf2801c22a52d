import pytest

from usomat import (
    CyclicInfluence,
    InfluenceGraph,
    NotMatousekType,
    Orientation,
    build_matousek,
    canonicalize,
    extract_influence_graph,
    flip_facet,
    global_sink,
    is_uso,
)
from usomat.enumeration import all_dags
from usomat.matousek import orientation_from_rows
from oracles import Isomorphism, apply_isomorphism, transitive_closure

TWISTED = Orientation(3, (0, 1, 2, 3, 4, 7, 6, 5))  # USO but not Matousek-type


def chain_closure(n):
    return InfluenceGraph(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


def test_graph_construction():
    g = InfluenceGraph(3, [(1, 2), (2, 3)])
    assert g.edges == ((1, 2), (2, 3))
    assert g.has_edge(1, 2) and not g.has_edge(2, 1)
    assert g.has_edge(2, 2)  # implicit loop
    assert g.out_row(1) == 0b011


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        InfluenceGraph(2, [(1, 3)])
    with pytest.raises(ValueError):
        InfluenceGraph(2, [(1, 1)])


def test_from_rows_adds_loops():
    g = InfluenceGraph.from_rows(2, [0b10, 0b10])
    assert g.rows == (0b11, 0b10)
    assert g == InfluenceGraph(2, [(1, 2)])


def test_acyclicity():
    assert InfluenceGraph(3, [(1, 2), (2, 3), (1, 3)]).is_acyclic()
    assert not InfluenceGraph(2, [(1, 2), (2, 1)]).is_acyclic()
    assert not InfluenceGraph(3, [(1, 2), (2, 3), (3, 1)]).is_acyclic()


def test_transitive_closure():
    g = InfluenceGraph(3, [(1, 2), (2, 3)])
    assert transitive_closure(g) == InfluenceGraph(3, [(1, 2), (2, 3), (1, 3)])
    closed = chain_closure(4)
    assert transitive_closure(closed) == closed


def test_graph_json_round_trip():
    g = InfluenceGraph(3, [(2, 1), (3, 1)])
    assert InfluenceGraph.from_json_obj(g.to_json_obj()) == g
    assert g.to_json_obj() == {"n": 3, "edges": [[2, 1], [3, 1]]}
    with pytest.raises(ValueError):
        InfluenceGraph.from_json_obj({"n": 2})


def test_dot_marks_transitive_edges():
    dot = chain_closure(3).to_dot()
    assert "1 -> 3 [style=\"dashed\"];" in dot
    assert "1 -> 2;" in dot
    assert "loop" not in dot


def test_build_loops_only_gives_uniform():
    assert build_matousek(InfluenceGraph(2)) == Orientation.uniform(2)


def test_build_single_edge_table():
    o = build_matousek(InfluenceGraph(2, [(1, 2)]))
    # m(emptyset)=0, m({1})={1,2}, m({2})={2}, m({1,2})={1}
    assert o.outmaps == (0, 0b11, 0b10, 0b01)


def test_build_transitive_chain_is_uso():
    assert is_uso(build_matousek(chain_closure(3)))


def test_build_rejects_cyclic():
    with pytest.raises(CyclicInfluence):
        build_matousek(InfluenceGraph(2, [(1, 2), (2, 1)]))


def test_cyclic_rows_give_non_uso():
    """Constant but cyclic flip patterns produce edge-consistent non-USOs."""
    o = orientation_from_rows(2, [0b11, 0b11])
    assert o.outmaps == (0, 3, 3, 0)  # the double-sink table
    assert not is_uso(o)
    for rows in ([0b011, 0b110, 0b101], [0b0011, 0b0110, 0b1100, 0b1001]):
        o = orientation_from_rows(len(rows), rows)
        assert not is_uso(o)


def test_extract_uniform():
    g = extract_influence_graph(Orientation.uniform(3))
    assert g.edges == ()


def test_extract_round_trip_exhaustive():
    for n in (1, 2, 3, 4):
        for g in all_dags(n):
            assert extract_influence_graph(build_matousek(g)) == g


def test_build_is_uso_sampled_n6():
    rows6 = [0b000011, 0b000110, 0b001100, 0b011000, 0b110000, 0b100000]
    assert is_uso(build_matousek(InfluenceGraph.from_rows(6, rows6)))
    assert is_uso(build_matousek(chain_closure(6)))


def test_extract_rejects_varying_pattern():
    with pytest.raises(NotMatousekType):
        extract_influence_graph(TWISTED)


def test_extract_rejects_cyclic_pattern():
    with pytest.raises(CyclicInfluence):
        extract_influence_graph(Orientation(2, (0, 3, 3, 0)))


def test_extract_rejects_inconsistent_table():
    with pytest.raises(ValueError):
        extract_influence_graph(Orientation(1, (0, 0)))


def test_canonicalize_fixed_point():
    o = build_matousek(chain_closure(3))
    assert canonicalize(o) == o


def test_canonicalize_undoes_mirror():
    o = build_matousek(InfluenceGraph(3, [(1, 2), (1, 3)]))
    for mirror in range(8):
        mirrored = apply_isomorphism(o, Isomorphism.mirror_only(mirror, 3))
        assert canonicalize(mirrored) == o


def test_canonicalize_moves_sink():
    mirrored = Orientation(2, (3, 2, 1, 0))
    assert global_sink(mirrored) != 0
    assert canonicalize(mirrored) == Orientation.uniform(2)


def test_canonicalize_matches_the_mirror_route_n4():
    """Rebuilding from the rows equals mirroring along the sink, for every sink."""
    checked = 0
    for g in all_dags(4):
        o = build_matousek(g)
        for mirror in range(16):
            mirrored = apply_isomorphism(o, Isomorphism.mirror_only(mirror, 4))
            by_mirror = apply_isomorphism(mirrored, Isomorphism.mirror_only(global_sink(mirrored), 4))
            assert canonicalize(mirrored) == by_mirror == o
            checked += 1
    assert checked == 543 * 16


def test_canonicalize_rejects_non_matousek():
    with pytest.raises(NotMatousekType):
        canonicalize(TWISTED)


def test_flip_facet_n1_is_identity():
    o = Orientation.uniform(1)
    assert flip_facet(o, 1, upper=False) == o
    assert flip_facet(o, 1, upper=True) == o


def test_flip_facet_adds_influence_edge():
    o = flip_facet(Orientation.uniform(2), 1, upper=False)
    assert extract_influence_graph(o) == InfluenceGraph(2, [(1, 2)])


def test_flip_facet_involution():
    o = build_matousek(chain_closure(3))
    for d in (1, 2, 3):
        for upper in (False, True):
            assert flip_facet(flip_facet(o, d, upper), d, upper) == o


def test_flip_facet_opposite_facets_commute():
    o = build_matousek(InfluenceGraph(3, [(2, 1)]))
    a = flip_facet(flip_facet(o, 2, upper=False), 2, upper=True)
    b = flip_facet(flip_facet(o, 2, upper=True), 2, upper=False)
    assert a == b


def test_flip_facet_range():
    with pytest.raises(ValueError):
        flip_facet(Orientation.uniform(2), 3)


def test_flip_facet_can_break_uso():
    """Flipping a facet of the chain 3-cube creates a cyclic influence pattern."""
    o = build_matousek(chain_closure(3))
    flipped = flip_facet(o, 3, upper=False)
    with pytest.raises(CyclicInfluence):
        extract_influence_graph(flipped)
    assert not is_uso(flipped)
