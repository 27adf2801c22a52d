import re

import pytest

from usomat import (
    Face,
    Orientation,
    check_orientation,
    dims_to_mask,
    global_sink,
    is_uso,
    mask_to_dims,
)
from oracles import (
    Isomorphism,
    apply_isomorphism,
    edge_consistent_scan,
    szabo_welzl_pairs,
    unique_sink_every_face_scan,
)

# n=2 table with sinks at both 0 and {1,2}; edge-consistent but not a USO
DOUBLE_SINK = Orientation(2, (0, 3, 3, 0))

# n=3 USO gluing a uniform lower 3-facet to a chain-like upper one; its
# dimension-1 flip pattern differs between the facets
TWISTED = Orientation(3, (0, 1, 2, 3, 4, 7, 6, 5))


def test_mask_round_trip():
    assert dims_to_mask([1, 3], 3) == 0b101
    assert mask_to_dims(0b101) == [1, 3]
    assert mask_to_dims(0) == []
    for mask in range(16):
        assert dims_to_mask(mask_to_dims(mask), 4) == mask


def test_dims_to_mask_range():
    with pytest.raises(ValueError):
        dims_to_mask([0], 3)
    with pytest.raises(ValueError):
        dims_to_mask([4], 3)


def test_orientation_validation():
    with pytest.raises(ValueError):
        Orientation(2, (0, 1, 2))
    with pytest.raises(ValueError):
        Orientation(1, (2, 0))
    with pytest.raises(ValueError):
        Orientation(0, ())


@pytest.mark.parametrize("table", [(0, 1, -1, 3), (0, 1, 4, 3), (0, 1, 4, -1)])
def test_orientation_names_the_first_bad_vertex(table):
    with pytest.raises(ValueError, match="vertex 2 "):
        Orientation(2, table)


def test_orientation_rejects_fractional_outmaps():
    with pytest.raises(ValueError, match="outmap of vertex 2 is 2.5, not an integer"):
        Orientation(2, (0, 1, 2.5, 3))


def test_uniform_is_orientation():
    assert check_orientation(Orientation(2, range(4)))
    assert edge_consistent_scan(Orientation(2, range(4)))


def test_both_endpoints_inward_rejected():
    o = Orientation(1, (0, 0))
    assert not check_orientation(o)
    assert not edge_consistent_scan(o)


def test_check_orientation_agrees_with_scan():
    for table in [(0, 1, 2, 3), (0, 3, 3, 0), (3, 2, 1, 0), (1, 0, 3, 2), (0, 0, 3, 3)]:
        o = Orientation(2, table)
        assert check_orientation(o) == edge_consistent_scan(o)


def test_uniform_is_uso():
    assert is_uso(Orientation(2, range(4)))
    assert is_uso(Orientation(4, range(16)))


def test_double_sink_is_not_uso():
    assert check_orientation(DOUBLE_SINK)
    assert not is_uso(DOUBLE_SINK)
    assert not unique_sink_every_face_scan(DOUBLE_SINK)


def test_is_uso_rejects_inconsistent_table():
    with pytest.raises(ValueError):
        is_uso(Orientation(1, (0, 0)))


def test_twisted_table_is_uso():
    assert is_uso(TWISTED)
    assert unique_sink_every_face_scan(TWISTED)


def test_uso_equivalence_with_face_oracle():
    """is_uso and the 3^n face scan agree, also via the test-local oracle."""
    cases = [
        Orientation(3, range(8)),
        DOUBLE_SINK,
        TWISTED,
        Orientation(2, (3, 2, 1, 0)),  # uniform mirrored along {1,2}
    ]
    for o in cases:
        expected = szabo_welzl_pairs(o)
        assert is_uso(o) == expected
        assert unique_sink_every_face_scan(o) == expected


def test_global_sink():
    assert global_sink(Orientation(3, range(8))) == 0
    mirrored = Orientation(2, (3, 2, 1, 0))  # o(v) = v xor {1,2}
    assert global_sink(mirrored) == 0b11
    with pytest.raises(ValueError):
        global_sink(DOUBLE_SINK)
    with pytest.raises(ValueError):
        global_sink(Orientation(1, (1, 1)))


def test_face_basics():
    f = Face(fixed=0b100, spanning=0b011)
    assert f.dimension == 2
    assert sorted(f.vertices()) == [0b100, 0b101, 0b110, 0b111]
    assert f.contains(0b101)
    assert not f.contains(0b001)
    with pytest.raises(ValueError):
        Face(fixed=0b001, spanning=0b011)


def test_face_masks_are_ints_of_at_least_0():
    """A negative, bool or float mask is refused, as _check_masks refuses it in a table.

    Face(-16, 7) would pass holt_klee_3face's range check at n = 4 and
    screen vertices -16..-9, which a table reads from its end.
    """
    for bad in (-16, -1, True, 1.0):
        with pytest.raises(ValueError, match=re.escape(f"fixed mask is {bad!r}, not an integer of at least 0")):
            Face(bad, 0b111)
        with pytest.raises(ValueError, match=re.escape(f"spanning mask is {bad!r}, not an integer of at least 0")):
            Face(0b1000, bad)


def test_zero_dimensional_face():
    f = Face(fixed=0b10, spanning=0)
    assert f.dimension == 0
    assert list(f.vertices()) == [0b10]


def test_isomorphism_validation():
    with pytest.raises(ValueError):
        Isomorphism(0, (1, 1))
    with pytest.raises(ValueError):
        Isomorphism(0b100, (1, 2))
    iso = Isomorphism(0, (2, 1))
    assert iso.apply_to_mask(0b01) == 0b10


def test_identity_isomorphism():
    o = TWISTED
    assert apply_isomorphism(o, Isomorphism.identity(3)) == o


def test_mirror_is_involution():
    o = TWISTED
    iso = Isomorphism.mirror_only(0b101, 3)
    assert apply_isomorphism(apply_isomorphism(o, iso), iso) == o


def test_mirror_moves_sink_to_origin():
    o = Orientation(2, (3, 2, 1, 0))
    iso = Isomorphism.mirror_only(global_sink(o), 2)
    assert global_sink(apply_isomorphism(o, iso)) == 0


def test_relabel_swap_fixes_uniform():
    o = Orientation(2, range(4))
    assert apply_isomorphism(o, Isomorphism(0, (2, 1))) == o


def test_isomorphism_defining_equation():
    o = TWISTED
    iso = Isomorphism(0b010, (2, 3, 1))
    o2 = apply_isomorphism(o, iso)
    for v in range(8):
        assert iso.apply_to_mask(o.outmap(v)) == o2.outmap(iso.apply_to_mask(v ^ iso.mirror))


def test_isomorphism_preserves_uso():
    iso = Isomorphism(0b011, (3, 1, 2))
    assert is_uso(apply_isomorphism(TWISTED, iso))
    assert not is_uso(apply_isomorphism(DOUBLE_SINK, Isomorphism.mirror_only(0b01, 2)))


def test_isomorphism_dimension_mismatch():
    with pytest.raises(ValueError):
        apply_isomorphism(Orientation(2, range(4)), Isomorphism.identity(3))


def test_orientation_json_round_trip():
    for o in [Orientation(3, range(8)), TWISTED, DOUBLE_SINK]:
        assert Orientation.from_json_obj(o.to_json_obj()) == o


def test_orientation_json_shape():
    obj = Orientation(2, range(4)).to_json_obj()
    assert obj == {"n": 2, "outmaps": [[], [1], [2], [1, 2]]}


def test_orientation_json_errors():
    with pytest.raises(ValueError):
        Orientation.from_json_obj({"n": 2, "outmaps": [[], [1]]})
    with pytest.raises(ValueError):
        Orientation.from_json_obj({"outmaps": []})
    with pytest.raises(ValueError):
        Orientation.from_json_obj({"n": 1, "outmaps": [[2], []]})
