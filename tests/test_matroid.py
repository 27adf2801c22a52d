import copy
import pickle
import random
from itertools import permutations

import pytest

from usomat import (
    Branching,
    CyclicExtension,
    InfluenceGraph,
    Orientation,
    Q,
    containment_graph,
    extension_to_uso,
    extract_influence_graph,
    flip_facet,
    is_uso,
    push_q_left,
    synthesize_extension,
    validate_conditions,
)
from oracles import (
    SignedSet,
    all_branchings,
    all_circuits,
    axioms_hold,
    containment_graph_by_positions,
    extension_to_uso_by_circuits,
    fundamental_circuit,
    is_p_matroid,
    read_off_signs,
    verify_circuit_axioms,
)

TRIVIAL = CyclicExtension(1, (1, 2, Q), {2})
CHAIN2 = CyclicExtension(2, (1, 2, 4, 3, Q), {4})
TWO_ROOTS = CyclicExtension(2, (1, 3, 2, 4, Q), {3, 4})
CROSSING = CyclicExtension(2, (1, 2, 3, 4, Q), {3, 4})  # pairs interleave


def all_extensions(n):
    """Every q-last extension: all pair-element orders crossed with all flip sets."""
    elements = list(range(1, 2 * n + 1))
    for perm in permutations(elements):
        for f_mask in range(1 << (2 * n)):
            flipped = [e for e in elements if f_mask >> (e - 1) & 1]
            yield CyclicExtension(n, perm + (Q,), flipped)


def test_signed_set_basics():
    s = SignedSet(frozenset({1}), frozenset({2}))
    assert s.support == {1, 2}
    assert (-s).plus == {2}
    assert s.sign(1) == 1 and s.sign(2) == -1 and s.sign(3) == 0
    with pytest.raises(ValueError):
        SignedSet(frozenset({1}), frozenset({1}))


def test_extension_validation():
    with pytest.raises(ValueError):
        CyclicExtension(1, (1, 2), ())  # q missing
    with pytest.raises(ValueError):
        CyclicExtension(1, (1, 1, Q), ())
    with pytest.raises(ValueError):
        CyclicExtension(1, (1, 2, Q), {3})
    with pytest.raises(ValueError):
        CyclicExtension(1, (1, 2, Q), {Q})  # q can never be flipped


@pytest.mark.parametrize(
    "n, order, flipped",
    [
        (1, (1.0, 2, Q), {2}),
        (1, (True, 2, Q), {2}),
        (1, (1, 2, Q), {True}),
        (1, (1, 2, Q), {2.0}),
        (1.0, (1, 2, Q), {2}),
        (True, (1, 2, Q), {2}),
    ],
)
def test_extension_rejects_non_int_elements(n, order, flipped):
    """1.0 and True equal the integer 1 but would not survive the JSON round trip."""
    with pytest.raises(ValueError):
        CyclicExtension(n, order, flipped)


def test_extension_positions():
    assert CHAIN2.position == {1: 1, 2: 2, 4: 3, 3: 4, Q: 5}
    moved = CyclicExtension(2, (1, 2, Q, 4, 3), {4})
    assert moved.position == {1: 1, 2: 2, Q: 3, 4: 4, 3: 5}


def test_extension_json_round_trip():
    for ext in (TRIVIAL, CHAIN2, TWO_ROOTS):
        assert CyclicExtension.from_json_obj(ext.to_json_obj()) == ext
    assert CHAIN2.to_json_obj() == {"n": 2, "order": [1, 2, 4, 3, "q"], "F": [4]}


def test_synthesized_extensions_json_round_trip():
    rng = random.Random(5)
    for n in (1, 2, 4, 8):
        for _ in range(5):
            ext = synthesize_extension(random_branching(n, rng))
            assert CyclicExtension.from_json_obj(ext.to_json_obj()) == ext


@pytest.mark.parametrize(
    "obj",
    [
        {"n": 2.0, "order": [1, 2, 4, 3, "q"], "F": [4]},
        {"n": "2", "order": [1, 2, 4, 3, "q"], "F": [4]},
        {"n": 1, "order": [1, "2", "q"], "F": [2]},
        {"n": 1, "order": [1, 2.0, "q"], "F": [2]},
        {"n": 1, "order": [1, 2, "Q"], "F": [2]},
        {"n": 1, "order": "12q", "F": [2]},
        {"n": 1, "order": [1, 2, "q"], "F": [2.5]},
        {"n": 1, "order": [1, 2, "q"], "F": ["2"]},
        {"n": 1, "order": [1, 2, "q"], "F": 2},
        {"n": 1, "order": [1, 2, "q"], "F": [True]},
        {"n": 1, "order": [1, 2, "q"]},
        [1, 2, "q"],
    ],
)
def test_extension_json_rejects_loose_types(obj):
    with pytest.raises(ValueError):
        CyclicExtension.from_json_obj(obj)


def test_validate_conditions_examples():
    assert validate_conditions(TRIVIAL)
    assert validate_conditions(CHAIN2)
    assert validate_conditions(TWO_ROOTS)
    assert not validate_conditions(CROSSING)
    # valid nesting but empty flip set: the even-gap pairs are unhit
    assert not validate_conditions(CyclicExtension(2, (1, 2, 4, 3, Q), ()))


def test_validate_conditions_ignores_q_position():
    """The conditions only see pair positions with q deleted."""
    tokens = [t for t in CHAIN2.order if t != Q]
    for slot in range(5):
        order = tokens[:slot] + [Q] + tokens[slot:]
        assert validate_conditions(CyclicExtension(2, order, {4}))


def test_read_off_alternation():
    c = read_off_signs(TWO_ROOTS, {1, 2, Q})
    assert c.plus == {1, Q}
    assert c.minus == {2}


def test_fundamental_circuit_trivial():
    c = fundamental_circuit(TRIVIAL, {1}, Q)
    assert c.plus == {Q} and c.minus == {1}
    c = fundamental_circuit(TRIVIAL, {2}, Q)
    assert c.plus == {2, Q} and c.minus == set()


def test_fundamental_circuit_two_roots():
    c = fundamental_circuit(TWO_ROOTS, {1, 2}, Q)
    assert c.plus == {1, Q} and c.minus == {2}


def test_fundamental_circuit_negation():
    c = fundamental_circuit(CHAIN2, {2, 3}, 1)
    assert c.support == {1, 2, 3} and 1 in c.plus
    d = fundamental_circuit(CHAIN2, {2, 3}, Q)
    assert d.support == {2, 3, Q} and Q in d.plus
    neg = -c
    assert neg.plus == c.minus and neg.minus == c.plus


def test_fundamental_circuit_validation():
    with pytest.raises(ValueError):
        fundamental_circuit(CHAIN2, {1}, Q)
    with pytest.raises(ValueError):
        fundamental_circuit(CHAIN2, {1, 2}, 1)


def test_is_p_matroid_examples():
    assert is_p_matroid(TRIVIAL)
    assert is_p_matroid(CHAIN2)
    assert not is_p_matroid(CROSSING)
    assert not is_p_matroid(CyclicExtension(1, (1, 2, Q), ()))


def test_is_p_matroid_cap():
    ext = synthesize_extension(Branching(9, {}))
    with pytest.raises(ValueError):
        is_p_matroid(ext)


def test_containment_graph_nested():
    assert containment_graph(CHAIN2) == InfluenceGraph(2, [(1, 2)])


def test_containment_graph_disjoint():
    assert containment_graph(TWO_ROOTS) == InfluenceGraph(2)


def test_containment_graph_rejects_invalid():
    with pytest.raises(ValueError):
        containment_graph(CROSSING)


def test_extension_to_uso_trivial():
    o = extension_to_uso(TRIVIAL)
    assert o.outmaps == (1, 0)  # sink at {1}


def test_extension_to_uso_chain():
    o = extension_to_uso(CHAIN2)
    assert is_uso(o)
    assert extract_influence_graph(o) == InfluenceGraph(2, [(1, 2)])


def test_q_at_end_pipeline_small():
    for n in (1, 2, 3):
        for b in all_branchings(n):
            ext = synthesize_extension(b)
            assert extract_influence_graph(extension_to_uso(ext)) == containment_graph(ext)


def with_q_at(ext, slot):
    """The same pair order and flip set with q moved to 0-based position slot."""
    tokens = [t for t in ext.order if t != Q]
    return CyclicExtension(ext.n, tokens[:slot] + [Q] + tokens[slot:], ext.flipped)


def every_q_position(ext):
    return [with_q_at(ext, slot) for slot in range(2 * ext.n + 1)]


def random_branching(n, rng):
    """A forest on 1..n: each vertex of a shuffled order hangs below an earlier one or is a root."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    parent = {}
    for k in range(1, n):
        j = rng.randrange(k + 1)
        if j < k:
            parent[order[k]] = order[j]
    return Branching(n, parent)


def scramble(ext, rng):
    """Swap the members of random pairs and redraw F among its valid choices.

    Both keep the P-matroid conditions: nesting ignores which member comes
    first, and parity only fixes how many members of each pair F hits.
    """
    n = ext.n
    swap = {i for i in range(1, n + 1) if rng.random() < 0.5}
    order = [
        t if t == Q or (t if t <= n else t - n) not in swap else (t + n if t <= n else t - n)
        for t in ext.order
    ]
    flipped = set()
    for i in range(1, n + 1):
        if (i in ext.flipped) + (i + n in ext.flipped) == 1:
            flipped.add(rng.choice((i, i + n)))
        elif rng.random() < 0.5:
            flipped |= {i, i + n}
    return CyclicExtension(n, order, flipped)


def test_closed_form_matches_circuits_exhaustively_n_le_3():
    """Every valid (order, F, q position) with n <= 3 against the circuit route."""
    states = 0
    for n in (1, 2, 3):
        for ext in all_extensions(n):
            if not validate_conditions(ext):
                continue
            for moved in every_q_position(ext):
                assert extension_to_uso(moved) == extension_to_uso_by_circuits(moved), moved
                states += 1
    assert states == 4 * 3 + 64 * 5 + 1920 * 7


def test_closed_form_matches_circuits_sampled_n4():
    rng = random.Random(4)
    states = 0
    while states < 400:
        perm = list(range(1, 9))
        rng.shuffle(perm)
        flipped = {e for e in range(1, 9) if rng.random() < 0.5}
        ext = with_q_at(CyclicExtension(4, perm + [Q], flipped), rng.randrange(9))
        if not validate_conditions(ext):
            continue
        assert extension_to_uso(ext) == extension_to_uso_by_circuits(ext), ext
        states += 1


def test_closed_form_matches_circuits_synthesized_n8():
    rng = random.Random(8)
    for _ in range(8):
        ext = synthesize_extension(random_branching(8, rng))
        for candidate in (ext, scramble(ext, rng)):
            for moved in every_q_position(candidate):
                assert extension_to_uso(moved) == extension_to_uso_by_circuits(moved), moved


def test_closed_form_rejects_what_the_circuits_reject():
    """Crossing pairs and wrong flip parities raise, for every q position, n <= 2."""
    for bad in (CROSSING, CyclicExtension(2, (1, 2, 4, 3, Q), ())):
        for moved in every_q_position(bad):
            with pytest.raises(ValueError):
                extension_to_uso(moved)
    raised = 0
    for n in (1, 2):
        for ext in all_extensions(n):
            for moved in every_q_position(ext):
                try:
                    want = extension_to_uso_by_circuits(moved)
                except ValueError:
                    with pytest.raises(ValueError):
                        extension_to_uso(moved)
                    raised += 1
                else:
                    assert extension_to_uso(moved) == want
    assert raised == (2 * 4 - 4) * 3 + (24 * 16 - 64) * 5


def test_conditions_match_brute_force_at_every_q_position():
    """The conditions ignore q: at every q position they give the q-last
    brute-force verdict, on every (order, F) with n <= 3."""
    states = 0
    for n in (1, 2, 3):
        for ext in all_extensions(n):
            want = is_p_matroid(ext)
            for moved in every_q_position(ext):
                assert validate_conditions(moved) == want, moved
                states += 1
    assert states == 8 * 3 + 384 * 5 + 46080 * 7


def test_containment_graph_matches_the_position_loop():
    """Every valid (order, F, q position) with n <= 3 against the position
    loop; every invalid one with n <= 2 raises."""
    valid = raised = 0
    for n in (1, 2, 3):
        for ext in all_extensions(n):
            ok = validate_conditions(ext)
            if not ok and n == 3:
                continue
            for moved in every_q_position(ext):
                if ok:
                    assert containment_graph(moved) == containment_graph_by_positions(moved), moved
                    valid += 1
                else:
                    with pytest.raises(ValueError, match="does not satisfy the P-matroid conditions"):
                        containment_graph(moved)
                    raised += 1
    assert valid == 4 * 3 + 64 * 5 + 1920 * 7
    assert raised == (2 * 4 - 4) * 3 + (24 * 16 - 64) * 5


def test_push_q_left():
    moved, d, upper = push_q_left(CHAIN2)
    assert moved == CyclicExtension(2, (1, 2, 4, Q, 3), {4})
    assert moved.position[Q] == 4 and CHAIN2.position[Q] == 5
    assert (d, upper) == (1, True)  # crossed element 3 = pair 1 second member
    moved2, d2, upper2 = push_q_left(moved)
    assert moved2.order == (1, 2, Q, 4, 3)
    assert (d2, upper2) == (2, True)
    with pytest.raises(ValueError):
        ext = CyclicExtension(1, (Q, 1, 2), {2})
        push_q_left(ext)


def test_extension_is_read_only():
    for name, value in (("n", 3), ("order", CHAIN2.order[::-1]), ("flipped", frozenset())):
        with pytest.raises(AttributeError):
            setattr(CHAIN2, name, value)
        with pytest.raises(AttributeError):
            delattr(CHAIN2, name)
    assert CHAIN2 == CyclicExtension(2, (1, 2, 4, 3, Q), {4})


def outcome(f, *args):
    """f's value, or the text of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def test_extension_pickles_and_copies():
    """Fresh and walked extensions, scanned or not, survive pickle and copy."""
    walked, _, _ = push_q_left(push_q_left(CHAIN2)[0])
    extension_to_uso(walked)
    unscanned, _, _ = push_q_left(CyclicExtension(2, (1, 2, 4, 3, Q), {4}))
    for ext in (TRIVIAL, CHAIN2, CROSSING, walked, unscanned):
        for clone in (pickle.loads(pickle.dumps(ext)), copy.copy(ext), copy.deepcopy(ext)):
            assert type(clone) is CyclicExtension
            assert clone == ext and hash(clone) == hash(ext)
            assert outcome(extension_to_uso, clone) == outcome(extension_to_uso, ext)
            with pytest.raises(AttributeError):
                clone.n = 1


def test_walked_extensions_cannot_be_told_from_fresh_ones():
    """Walk q from last to first in every (order, F) with n <= 3, valid or
    not: each step reads as the same extension built from scratch."""
    steps = 0
    for n in (1, 2, 3):
        for ext in all_extensions(n):
            valid = validate_conditions(ext)  # scans, so every step below is carried
            while ext.order[0] != Q:
                ext, _, _ = push_q_left(ext)
                fresh = CyclicExtension(n, ext.order, ext.flipped)
                assert validate_conditions(ext) == validate_conditions(fresh) == valid
                assert outcome(extension_to_uso, ext) == outcome(extension_to_uso, fresh)
                assert outcome(containment_graph, ext) == outcome(containment_graph, fresh)
                assert ext == fresh and hash(ext) == hash(fresh)
                steps += 1
    assert steps == 8 * 2 + 384 * 4 + 46080 * 6


def test_row_cap_is_checked_before_the_scan():
    """An n = 65 extension is refused for its size, whether or not its pairs nest."""
    crossing = CyclicExtension(65, list(range(1, 131)) + [Q], ())
    with pytest.raises(ValueError, match="cube dimension must be in 1..64, got 65"):
        extension_to_uso(crossing)
    assert not validate_conditions(crossing)
    with pytest.raises(ValueError, match="cube dimension must be in 1..64, got 65"):
        extension_to_uso(synthesize_extension(Branching(65, {})))


def test_q_move_is_facet_flip():
    """Each q transposition changes the induced orientation by one facet flip."""
    for n in (1, 2, 3):
        for b in all_branchings(n):
            ext = synthesize_extension(b)
            o = extension_to_uso(ext)
            for _ in range(2 * n):
                ext, d, upper = push_q_left(ext)
                o = flip_facet(o, d, upper)
                assert extension_to_uso(ext) == o


def test_all_circuits_count():
    assert len(all_circuits(TRIVIAL)) == 2 * 3  # C(3,2) supports, two signings


def test_verify_circuit_axioms_valid():
    assert verify_circuit_axioms(TRIVIAL)
    assert verify_circuit_axioms(CHAIN2)
    assert verify_circuit_axioms(TWO_ROOTS)


def test_verify_circuit_axioms_cap():
    ext = synthesize_extension(Branching(4, {}))
    with pytest.raises(ValueError):
        verify_circuit_axioms(ext)


def test_corrupted_circuit_list_fails_axioms():
    circuits = all_circuits(CHAIN2)
    assert axioms_hold(circuits)
    target = circuits[0]
    moved = min(target.support, key=CHAIN2.position.__getitem__)
    corrupted = SignedSet(
        frozenset(target.plus - {moved}) | ({moved} - target.plus),
        frozenset(target.minus - {moved}) | ({moved} - target.minus),
    )
    assert not axioms_hold([corrupted] + circuits[1:])
