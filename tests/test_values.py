"""The package's objects as values: equality, hashing, repr and fields fixed when built.

``InfluenceGraph``, ``Branching``, ``RationalMatrix`` and ``PLCPInstance``
are frozen dataclasses, so no field can be reassigned after the
constructor has checked it.  ``Orientation`` and ``CyclicExtension`` keep
plain attributes, but compare, hash and print as values too.
"""

import dataclasses
from fractions import Fraction
from itertools import permutations

import pytest

from usomat import (
    Branching,
    CyclicExtension,
    InfluenceGraph,
    Orientation,
    PLCPInstance,
    Q,
    RationalMatrix,
    build_matousek,
    flip_facet,
    validate_conditions,
)
from oracles import all_branchings, all_dags

TWISTED = Orientation(3, (0, 1, 2, 3, 4, 7, 6, 5))  # no Matousek-type orientation: table form only

MATRICES = [
    [],
    [[1]],
    [[Fraction(1, 2), -3]],
    [[2, 1], [1, 3]],
    [[Fraction(-7, 3), 0, 1], [0, 1, 0], [5, Fraction(1, 9), 2]],
]


def graphs():
    return [g for n in (1, 2, 3) for g in all_dags(n)]


def extensions():
    """Every (order, F) with n <= 2 that meets the P-matroid conditions, q anywhere."""
    out = []
    for n in (1, 2):
        elements = range(1, 2 * n + 1)
        for order in permutations([*elements, Q]):
            for f_mask in range(1 << (2 * n)):
                ext = CyclicExtension(n, order, [e for e in elements if f_mask >> (e - 1) & 1])
                if validate_conditions(ext):
                    out.append(ext)
    return out


def orientations():
    rows = [build_matousek(g) for g in graphs()]
    tables = [TWISTED] + [flip_facet(TWISTED, d, upper) for d in (1, 2, 3) for upper in (False, True)]
    assert all(o.rows is not None for o in rows) and all(o.rows is None for o in tables)
    return rows + tables


def frozen_values():
    instance = PLCPInstance(2, RationalMatrix(MATRICES[3]), (Fraction(1), Fraction(-1)))
    branchings = [b for n in (1, 2, 3) for b in all_branchings(n)]
    return graphs() + branchings + [RationalMatrix(m) for m in MATRICES] + [instance]


def test_equal_values_hash_equal():
    for g in graphs():
        copy = InfluenceGraph(g.n, g.edges)
        assert copy == g and hash(copy) == hash(g)
        rebuilt = InfluenceGraph.from_rows(g.n, g.rows)
        assert rebuilt == g and hash(rebuilt) == hash(g)
    for ext in extensions():
        copy = CyclicExtension(ext.n, list(ext.order), sorted(ext.flipped, reverse=True))
        assert copy == ext and hash(copy) == hash(ext)
    for m in MATRICES:
        exact = RationalMatrix([[Fraction(x) for x in row] for row in m])
        assert exact == RationalMatrix(m) and hash(exact) == hash(RationalMatrix(m))
    assert len(set(graphs())) == 1 + 3 + 25
    assert len(set(extensions())) == len(extensions())
    assert len({RationalMatrix(m) for m in MATRICES}) == len(MATRICES)
    assert RationalMatrix([[1, 2]]) != RationalMatrix([[1], [2]])
    assert RationalMatrix([[2, 1], [1, 4]]) != RationalMatrix(MATRICES[3])


def test_repr_rebuilds_the_value():
    names = {"InfluenceGraph": InfluenceGraph, "CyclicExtension": CyclicExtension, "Orientation": Orientation}
    for x in graphs() + extensions() + orientations():
        assert eval(repr(x), names) == x, x
    assert repr(InfluenceGraph(3, [(1, 2), (1, 3)])) == "InfluenceGraph(n=3, edges=[(1, 2), (1, 3)])"
    assert repr(TWISTED) == "Orientation(n=3, outmaps=(0, 1, 2, 3, 4, 7, 6, 5))"
    assert repr(Branching(3, {3: 1, 2: 1})) == "Branching(n=3, {2->1, 3->1})"
    assert repr(Branching(2, {})) == "Branching(n=2, {})"
    assert repr(RationalMatrix([[Fraction(1, 2), 0], [-1, 3]])) == "RationalMatrix[1/2 0; -1 3]"


def test_branchings_compare_by_their_links():
    for n in (1, 2, 3):
        branchings = list(all_branchings(n))
        for a in branchings:
            assert a == Branching(n, dict(a.parent))
            assert [b for b in branchings if b == a] == [a]


def test_orientation_is_no_integer():
    assert Orientation(1, (1, 0)).__eq__(3) is NotImplemented
    assert (Orientation(1, (1, 0)) == 3) is False
    assert (TWISTED == "twisted") is False


def test_frozen_fields_refuse_assignment():
    for x in frozen_values():
        for field in dataclasses.fields(x):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(x, field.name, getattr(x, field.name))
    b = Branching(3, {2: 1})
    for key, value in ((2, 3), (3, 1)):
        with pytest.raises(TypeError):
            b.parent[key] = value
    assert b.parent == {2: 1}


def test_a_checked_graph_cannot_take_a_bool_row():
    g = InfluenceGraph(2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.rows = (True, 2)
    assert g.rows == (1, 2) and build_matousek(g) == Orientation.from_rows(2, 0, (1, 2))


def test_branching_copies_its_links():
    links = {2: 1}
    b = Branching(3, links)
    links[3] = 2
    assert b.parent == {2: 1} and b.transitive_closure() == InfluenceGraph(3, [(1, 2)])


def test_instance_keeps_q_as_a_tuple():
    q = [Fraction(1), Fraction(-1)]
    inst = PLCPInstance(2, RationalMatrix(MATRICES[3]), q)
    q[0] = Fraction(5)
    assert inst.q == (Fraction(1), Fraction(-1))
