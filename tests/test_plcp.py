from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from usomat import (
    Branching,
    CyclicExtension,
    DegenerateQ,
    InfluenceGraph,
    Orientation,
    PLCPInstance,
    Q,
    RationalMatrix,
    build_matousek,
    canonicalize,
    containment_graph,
    extension_to_uso,
    global_sink,
    is_branching_closure,
    is_p_matrix,
    plcp_to_uso,
    realization_matrix,
    solve_candidate,
    synthesize_extension,
    translate_to_plcp,
)
from usomat.enumeration import all_branchings
from usomat.plcp import CandidateSolution, format_fraction, parse_fraction
from usomat.random_facet import FAMILIES
from oracles import (
    fundamental_circuit,
    identity_matrix,
    is_p_matrix_by_minors,
    kernel_signs,
    plcp_to_uso_per_vertex,
)

TRIVIAL = CyclicExtension(1, (1, 2, Q), {2})
CHAIN2 = CyclicExtension(2, (1, 2, 4, 3, Q), {4})


def test_fraction_round_trip():
    for s in ("0", "5", "-5", "3/4", "-22/7"):
        assert format_fraction(parse_fraction(s)) == s
    assert parse_fraction("4/8") == Fraction(1, 2)
    with pytest.raises(ValueError):
        parse_fraction("x")
    with pytest.raises(ValueError):
        parse_fraction("1/0")


def test_matrix_shape_validation():
    with pytest.raises(ValueError):
        RationalMatrix([[1, 2], [3]])


def test_matrix_solve():
    a = RationalMatrix([[2, 1], [1, 3]])
    x = a.solve([5, 10])
    assert x == (Fraction(1), Fraction(3))
    with pytest.raises(ValueError):
        RationalMatrix([[1, 2], [2, 4]]).solve([1, 1])


def test_matrix_solve_matrix_inverse():
    a = RationalMatrix([[2, 1], [1, 3]])
    inv = a.solve_matrix(identity_matrix(2))
    product = [
        [sum(a[i, k] * inv[k, j] for k in range(2)) for j in range(2)]
        for i in range(2)
    ]
    assert RationalMatrix(product) == identity_matrix(2)


def test_matrix_text():
    m = RationalMatrix([[Fraction(1, 2), 3]])
    assert m.to_text() == "1/2 3"


def test_realization_matrix_trivial():
    v = realization_matrix(TRIVIAL, abscissae=[1, 2, 3])
    assert v.rows == ((Fraction(1), Fraction(-1), Fraction(1)),)


def test_realization_matrix_default_abscissae():
    v = realization_matrix(TRIVIAL)
    assert v == realization_matrix(TRIVIAL, abscissae=[1, 2, 3])


def test_realization_matrix_rejects_bad_abscissae():
    with pytest.raises(ValueError):
        realization_matrix(TRIVIAL, abscissae=[1, 2])
    with pytest.raises(ValueError):
        realization_matrix(TRIVIAL, abscissae=[1, 3, 2])
    with pytest.raises(ValueError):
        realization_matrix(TRIVIAL, abscissae=[1, 1, 2])


def test_kernel_signs_match_reading_off():
    """Moment-curve linear dependencies reproduce the combinatorial circuit signs."""
    for n in (1, 2, 3):
        for b in all_branchings(n):
            ext = synthesize_extension(b)
            v = realization_matrix(ext)
            elements = list(range(1, 2 * n + 1)) + [Q]
            col = {e: [v[r, j] for r in range(n)] for j, e in enumerate(elements)}
            for support in combinations(elements, n + 1):
                circuit = fundamental_circuit(ext, set(support[:-1]), support[-1])
                signs = kernel_signs([col[e] for e in support])
                assert all(s != 0 for s in signs)
                flip = 1 if (signs[-1] > 0) == (support[-1] in circuit.plus) else -1
                for e, s in zip(support, signs):
                    want = 1 if e in circuit.plus else -1
                    assert s * flip == want


def test_translate_trivial():
    inst = translate_to_plcp(realization_matrix(TRIVIAL), TRIVIAL)
    assert inst.M.rows == ((Fraction(1),),)
    assert inst.q == (Fraction(-1),)


def test_translate_identity_blocks():
    n = 3
    cols = []
    for i in range(n):
        cols.append([Fraction(int(r == i)) for r in range(n)])
    for i in range(n):
        cols.append([Fraction(-int(r == i)) for r in range(n)])
    cols.append([Fraction(-1)] * n)
    v = RationalMatrix([[cols[j][i] for j in range(2 * n + 1)] for i in range(n)])
    inst = translate_to_plcp(v)
    assert inst.M == identity_matrix(n)
    assert inst.q == (Fraction(1),) * n


def test_translate_shape_checks():
    v = realization_matrix(TRIVIAL)
    with pytest.raises(ValueError):
        translate_to_plcp(RationalMatrix([[1, 2]]))
    with pytest.raises(ValueError):
        translate_to_plcp(v, CHAIN2)


def test_is_p_matrix_examples():
    assert is_p_matrix(identity_matrix(4))
    assert not is_p_matrix(RationalMatrix([[0, 1], [1, 0]]))
    assert not is_p_matrix(RationalMatrix([[1, 0], [0, -1]]))
    chain3 = synthesize_extension(Branching(3, {2: 1, 3: 2}))
    inst = translate_to_plcp(realization_matrix(chain3), chain3)
    assert is_p_matrix(inst.M)


def test_is_p_matrix_validation():
    with pytest.raises(ValueError):
        is_p_matrix(RationalMatrix([[1, 2]]))
    with pytest.raises(ValueError):
        is_p_matrix(identity_matrix(13))


def test_plcp_instance_json():
    inst = translate_to_plcp(realization_matrix(CHAIN2), CHAIN2)
    again = PLCPInstance.from_json_obj(inst.to_json_obj())
    assert again == inst
    with pytest.raises(ValueError):
        PLCPInstance.from_json_obj({"n": 1, "M": [["1"]]})


def test_plcp_instance_json_accepts_ints_and_fraction_strings():
    inst = PLCPInstance.from_json_obj({"n": 2, "M": [[1, "1/2"], ["0", 3]], "q": [-1, "2"]})
    assert inst.M == RationalMatrix([[1, Fraction(1, 2)], [0, 3]])
    assert inst.q == (Fraction(-1), Fraction(2))


@pytest.mark.parametrize(
    "doc",
    [
        {"n": 2, "M": [["1", "0"], ["0", "1"]], "q": "12"},  # a string is not a list
        {"n": 1, "M": [[1.5]], "q": ["1"]},  # JSON floats are not exact
        {"n": 1, "M": [["1"]], "q": [0.5]},
        {"n": 1, "M": [[True]], "q": ["1"]},
        {"n": 1, "M": [[None]], "q": ["1"]},
        {"n": 1, "M": ["1"], "q": ["1"]},
        {"n": 1, "M": "1", "q": ["1"]},
        {"n": "1", "M": [["1"]], "q": ["1"]},
        {"n": 1.0, "M": [["1"]], "q": ["1"]},
        {"n": 2, "M": [["1"]], "q": ["1"]},
        ["n", "M", "q"],
    ],
)
def test_plcp_instance_json_rejects_malformed(doc):
    with pytest.raises(ValueError):
        PLCPInstance.from_json_obj(doc)


def test_solve_candidate_identity():
    inst = PLCPInstance(2, identity_matrix(2), (Fraction(1), Fraction(1)))
    sol = solve_candidate(inst, 0)
    assert sol.w == (1, 1) and sol.z == (0, 0)
    assert sol.feasible
    sol = solve_candidate(inst, 0b11)
    assert sol.w == (0, 0) and sol.z == (-1, -1)
    assert not sol.feasible


def test_solve_candidate_negative_q():
    inst = PLCPInstance(1, RationalMatrix([[1]]), (Fraction(-1),))
    sol = solve_candidate(inst, 0b1)
    assert sol.w == (0,) and sol.z == (1,)


def test_solve_candidate_degenerate():
    inst = PLCPInstance(2, identity_matrix(2), (Fraction(0), Fraction(1)))
    with pytest.raises(DegenerateQ):
        solve_candidate(inst, 0)


def test_solve_candidate_range():
    inst = PLCPInstance(1, RationalMatrix([[1]]), (Fraction(-1),))
    with pytest.raises(ValueError):
        solve_candidate(inst, 2)


def test_plcp_to_uso_identity():
    inst = PLCPInstance(3, identity_matrix(3), (Fraction(1),) * 3)
    assert plcp_to_uso(inst) == Orientation.uniform(3)


def test_plcp_to_uso_trivial():
    inst = PLCPInstance(1, RationalMatrix([[1]]), (Fraction(-1),))
    o = plcp_to_uso(inst)
    assert o.outmaps == (1, 0)
    assert global_sink(o) == 1


def test_plcp_to_uso_propagates_degenerate():
    inst = PLCPInstance(2, identity_matrix(2), (Fraction(0), Fraction(1)))
    with pytest.raises(DegenerateQ):
        plcp_to_uso(inst)


def test_unique_feasible_candidate_is_sink():
    for ext in (TRIVIAL, CHAIN2, synthesize_extension(Branching(3, {2: 1}))):
        inst = translate_to_plcp(realization_matrix(ext), ext)
        o = plcp_to_uso(inst)
        feasible = [
            v for v in range(1 << inst.n) if solve_candidate(inst, v).feasible
        ]
        assert feasible == [global_sink(o)]


def test_pipeline_agrees_with_extension_uso():
    for n in (1, 2, 3):
        for b in all_branchings(n):
            ext = synthesize_extension(b)
            inst = translate_to_plcp(realization_matrix(ext), ext)
            assert plcp_to_uso(inst) == extension_to_uso(ext)


def test_random_increasing_abscissae_same_uso():
    """Any strictly increasing abscissae realize the same orientation."""
    rng = np.random.default_rng(20240817)
    for b in all_branchings(3):
        ext = synthesize_extension(b)
        base = plcp_to_uso(translate_to_plcp(realization_matrix(ext), ext))
        steps = rng.integers(1, 50, size=7)
        total = 0
        xs = []
        for s in steps:
            total += int(s)
            xs.append(Fraction(total, 7))
        other = plcp_to_uso(translate_to_plcp(realization_matrix(ext, xs), ext))
        assert other == base


def test_chain_pipeline_canonicalizes_to_matousek():
    inst = translate_to_plcp(realization_matrix(CHAIN2), CHAIN2)
    assert canonicalize(plcp_to_uso(inst)) == build_matousek(InfluenceGraph(2, [(1, 2)]))


def _realize(ext: CyclicExtension) -> PLCPInstance:
    return translate_to_plcp(realization_matrix(ext), ext)


def test_cube_walk_matches_oracles_on_every_branching():
    for n in (1, 2, 3, 4):
        for b in all_branchings(n):
            inst = _realize(synthesize_extension(b))
            assert plcp_to_uso(inst) == plcp_to_uso_per_vertex(inst)
            assert is_p_matrix(inst.M) and is_p_matrix_by_minors(inst.M)


@pytest.mark.parametrize("family", ["path", "star"])
def test_cube_walk_matches_oracles_on_families(family):
    for n in range(1, 9):
        inst = _realize(synthesize_extension(is_branching_closure(FAMILIES[family](n))))
        assert plcp_to_uso(inst) == plcp_to_uso_per_vertex(inst)
        assert is_p_matrix(inst.M) and is_p_matrix_by_minors(inst.M)


small_fractions = st.fractions(min_value=Fraction(-3), max_value=Fraction(3), max_denominator=3)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.data())
def test_cube_walk_matches_oracles_on_random_rationals(n, data):
    """Random rational (M, q), most of them not P-matrices, some q degenerate."""
    rows = data.draw(st.lists(st.lists(small_fractions, min_size=n, max_size=n), min_size=n, max_size=n))
    q = data.draw(st.lists(small_fractions, min_size=n, max_size=n))
    inst = PLCPInstance(n, RationalMatrix(rows), tuple(q))
    p_matrix = is_p_matrix_by_minors(inst.M)
    assert is_p_matrix(inst.M) == p_matrix
    try:
        want = plcp_to_uso_per_vertex(inst)
    except ValueError as exc:
        want = exc
    try:
        got = plcp_to_uso(inst)
    except ValueError as exc:
        got = exc
    if isinstance(want, Orientation):
        assert got == want
    else:
        assert isinstance(got, ValueError)
        if p_matrix:
            assert isinstance(want, DegenerateQ) and isinstance(got, DegenerateQ)


def test_plcp_to_uso_certifies_the_sink(monkeypatch):
    """A direct solve whose signs disagree with the walk's is reported, not ignored."""
    import usomat.plcp

    real = usomat.plcp.solve_candidate

    def negated(inst, v):
        sol = real(inst, v)
        return CandidateSolution(v, tuple(-x for x in sol.w), tuple(-x for x in sol.z))

    monkeypatch.setattr(usomat.plcp, "solve_candidate", negated)
    with pytest.raises(ArithmeticError, match="disagree at vertex"):
        plcp_to_uso(_realize(CHAIN2))


def test_cube_walk_reports_singular_bases():
    inst = PLCPInstance(2, RationalMatrix([[1, 1], [1, 1]]), (Fraction(1), Fraction(2)))
    with pytest.raises(ValueError, match="singular"):
        plcp_to_uso(inst)
    assert not is_p_matrix(inst.M)
