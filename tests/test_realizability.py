from itertools import product

import pytest

from usomat import (
    Branching,
    Face,
    ForbiddenWitness,
    InfluenceGraph,
    Orientation,
    build_matousek,
    containment_graph,
    find_forbidden,
    holt_klee_3face,
    is_branching_closure,
    synthesize_extension,
    validate_conditions,
)
from usomat.enumeration import all_dags
from usomat.matousek import orientation_from_rows
from usomat.random_facet import FAMILIES, family_graph
from oracles import all_branchings, find_forbidden_by_triples, holt_klee_by_paths

G1 = InfluenceGraph(3, [(1, 2), (2, 3)])
G2 = InfluenceGraph(3, [(1, 3), (2, 3)])


def test_witness_validation():
    ForbiddenWitness("G1", (1, 2, 3))
    with pytest.raises(ValueError):
        ForbiddenWitness("G3", (1, 2, 3))
    with pytest.raises(ValueError):
        ForbiddenWitness("G1", (1, 1, 2))


def test_witness_json():
    w = ForbiddenWitness("G2", (3, 1, 2))
    assert w.to_json_obj() == {"kind": "G2", "vertices": [3, 1, 2]}


def test_find_forbidden_loops_only():
    assert find_forbidden(InfluenceGraph(4)) is None


def test_find_forbidden_g1():
    w = find_forbidden(G1)
    assert w == ForbiddenWitness("G1", (1, 2, 3))


def test_find_forbidden_g2():
    w = find_forbidden(G2)
    assert w == ForbiddenWitness("G2", (3, 1, 2))


def test_find_forbidden_prefers_g1():
    g = InfluenceGraph(4, [(1, 2), (2, 3), (1, 4), (3, 4)])
    w = find_forbidden(g)
    assert w is not None and w.kind == "G1"


def test_transitive_chain_has_no_witness():
    g = InfluenceGraph(3, [(1, 2), (2, 3), (1, 3)])
    assert find_forbidden(g) is None


def test_branching_validation():
    b = Branching(3, {2: 1, 3: 2})
    assert b.roots() == [1]
    assert b.children(1) == [2]
    assert b.ancestors(3) == [2, 1]
    with pytest.raises(ValueError):
        Branching(2, {1: 2, 2: 1})
    with pytest.raises(ValueError):
        Branching(2, {1: 1})
    with pytest.raises(ValueError):
        Branching(2, {1: 3})


def test_branching_closure():
    b = Branching(3, {2: 1, 3: 2})
    assert b.transitive_closure() == InfluenceGraph(3, [(1, 2), (2, 3), (1, 3)])


def test_is_branching_closure_loops_only():
    b = is_branching_closure(InfluenceGraph(3))
    assert b == Branching(3, {})
    assert b.roots() == [1, 2, 3]


def test_is_branching_closure_chain():
    g = InfluenceGraph(3, [(1, 2), (2, 3), (1, 3)])
    assert is_branching_closure(g) == Branching(3, {2: 1, 3: 2})


def test_is_branching_closure_rejects_g1_g2():
    assert is_branching_closure(G1) is None
    assert is_branching_closure(G2) is None


def test_characterization_agreement_small():
    """Forbidden-pattern freeness coincides with being a branching closure."""
    for n in (1, 2, 3, 4):
        for g in all_dags(n):
            b = is_branching_closure(g)
            if find_forbidden(g) is None:
                assert b is not None
                assert b.transitive_closure() == g
            else:
                assert b is None


def every_digraph(n):
    pairs = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1) if a != b]
    for bits in range(1 << len(pairs)):
        yield InfluenceGraph(n, [p for i, p in enumerate(pairs) if bits >> i & 1])


def test_find_forbidden_matches_the_triple_loop():
    """The same witness, or None, as the triple loop: every digraph (cycles included) with n <= 4, and the families."""
    for n in (1, 2, 3, 4):
        for g in every_digraph(n):
            assert find_forbidden(g) == find_forbidden_by_triples(g)
    for family in FAMILIES:
        for n in range(1, 17):
            g = family_graph(family, n)
            assert find_forbidden(g) == find_forbidden_by_triples(g)
    assert find_forbidden(family_graph("merged", 5)) is not None


def test_is_branching_closure_on_every_digraph_n_le_4():
    """None, or a branching whose closure is g; never an exception, and None on every cycle."""
    count = closures = 0
    for n in (1, 2, 3, 4):
        for g in every_digraph(n):
            count += 1
            b = is_branching_closure(g)
            if g.is_acyclic() and find_forbidden(g) is None:
                assert b.transitive_closure() == g
                closures += 1
            else:
                assert b is None
    assert count == 4165
    assert closures == 1 + 3 + 16 + 125  # labeled rooted forests: (n + 1)^(n - 1)


def test_branching_closure_round_trip():
    for n in (1, 2, 3, 4):
        for b in all_branchings(n):
            assert is_branching_closure(b.transitive_closure()) == b


def test_holt_klee_uniform():
    o = build_matousek(InfluenceGraph(3))
    assert holt_klee_3face(o, Face(0, 0b111))


def test_holt_klee_fails_on_g1_and_g2():
    for g in (G1, G2):
        o = build_matousek(g)
        assert not holt_klee_3face(o, Face(0, 0b111))


def test_holt_klee_needs_3face():
    o = build_matousek(InfluenceGraph(3))
    with pytest.raises(ValueError):
        holt_klee_3face(o, Face(0, 0b011))


def test_holt_klee_rejects_a_face_outside_the_cube():
    rows = build_matousek(InfluenceGraph(3))
    for o in (rows, Orientation(3, rows.outmaps)):  # row form and table form
        for face in (Face(0, 0b1110), Face(0b1000, 0b0111)):
            with pytest.raises(ValueError, match="leaves the 3-cube"):
                holt_klee_3face(o, face)


def test_holt_klee_rejects_double_sink_face():
    o = orientation_from_rows(3, [0b011, 0b011, 0b100])  # 2-cycle between 1 and 2
    with pytest.raises(ValueError):
        holt_klee_3face(o, Face(0, 0b111))


def test_realizable_n3_passes_holt_klee():
    for b in all_branchings(3):
        o = build_matousek(b.transitive_closure())
        assert holt_klee_3face(o, Face(0, 0b111))


def every_3cube_orientation():
    """All 2^12 edge-consistent orientations of the 3-cube, cyclic ones included."""
    edges = [(v, 1 << d) for v in range(8) for d in range(3) if not v >> d & 1]
    for picks in product((0, 1), repeat=len(edges)):
        out = [0] * 8
        for (v, bit), up in zip(edges, picks):
            out[v if up else v | bit] |= bit
        yield Orientation(3, tuple(out))


def holt_klee_or_error(check, o, face):
    try:
        return check(o, face)
    except ValueError as exc:
        return str(exc)


def test_holt_klee_cut_test_matches_the_path_search():
    """The same verdict or the same error on every 3-cube orientation and every 3-face of the n = 4 DAG USOs."""
    verdicts = {True: 0, False: 0}
    for o in every_3cube_orientation():
        got = holt_klee_or_error(holt_klee_3face, o, Face(0, 0b111))
        assert got == holt_klee_or_error(holt_klee_by_paths, o, Face(0, 0b111))
        if isinstance(got, bool):
            verdicts[got] += 1
    assert verdicts == {True: 1224, False: 144}  # the other 2,728 have no unique source and sink
    faces = [Face(fixed, 0b1111 ^ 1 << d) for d in range(4) for fixed in (0, 1 << d)]
    for g in all_dags(4):
        o = build_matousek(g)
        for face in faces:
            assert holt_klee_or_error(holt_klee_3face, o, face) == holt_klee_or_error(holt_klee_by_paths, o, face)


def test_witness_face_fails_holt_klee():
    """The 3-face spanned by a forbidden triple, fixed at zero, fails the check."""
    for n in (3, 4):
        for g in all_dags(n):
            w = find_forbidden(g)
            if w is None:
                continue
            span = 0
            for d in w.vertices:
                span |= 1 << (d - 1)
            o = build_matousek(g)
            assert not holt_klee_3face(o, Face(0, span))


def test_synthesize_trivial():
    ext = synthesize_extension(Branching(1, {}))
    assert ext.order == (1, 2, "q")
    assert ext.flipped == frozenset({2})


def test_synthesize_two_roots():
    ext = synthesize_extension(Branching(2, {}))
    assert ext.order == (1, 3, 2, 4, "q")
    assert ext.flipped == frozenset({3, 4})


def test_synthesize_chain():
    ext = synthesize_extension(Branching(2, {2: 1}))
    assert ext.order == (1, 2, 4, 3, "q")
    assert ext.flipped == frozenset({4})


def test_synthesize_is_valid_and_round_trips():
    for n in (1, 2, 3, 4):
        for b in all_branchings(n):
            ext = synthesize_extension(b)
            assert validate_conditions(ext)
            assert containment_graph(ext) == b.transitive_closure()
