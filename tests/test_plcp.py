import ast
import random
import re
from fractions import Fraction
from itertools import combinations, permutations
from math import lcm, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from usomat import (
    MAX_DIMENSION,
    Branching,
    CyclicExtension,
    DegenerateQ,
    InfluenceGraph,
    Orientation,
    PLCPInstance,
    Q,
    RationalMatrix,
    build_matousek,
    containment_graph,
    extension_to_uso,
    extract_influence_graph,
    global_sink,
    is_branching_closure,
    is_p_matrix,
    plcp_to_uso,
    synthesize_extension,
    translate_to_plcp,
)
from usomat.plcp import _integer_rows, _pivot_step, parse_fraction
from usomat.random_facet import FAMILIES
import oracles
from oracles import (
    CandidateSolution,
    _det,
    all_branchings,
    fundamental_circuit,
    identity_matrix,
    is_p_matrix_by_minors,
    kernel_signs,
    not_cauchy_like_by_minors,
    pivot_tree,
    plcp_to_uso_per_vertex,
    realization_matrix,
    solve_candidate,
    translate_by_elimination,
    tree_is_p_matrix,
    tree_to_uso,
)

TRIVIAL = CyclicExtension(1, (1, 2, Q), {2})
CHAIN2 = CyclicExtension(2, (1, 2, 4, 3, Q), {4})


def test_fraction_round_trip():
    for s in ("0", "5", "-5", "3/4", "-22/7"):
        assert str(parse_fraction(s)) == s
    assert parse_fraction("4/8") == Fraction(1, 2)
    with pytest.raises(ValueError):
        parse_fraction("x")
    with pytest.raises(ValueError):
        parse_fraction("1/0")


def test_matrix_shape_validation():
    with pytest.raises(ValueError):
        RationalMatrix([[1, 2], [3]])


@pytest.mark.parametrize("entry", [0.1, 2.0, True, False, np.float64(0.5), None, [1], 1j])
def test_matrix_refuses_inexact_entries(entry):
    """A float or a bool is refused, not read as its binary value, as the JSON reader refuses floats; so is any non-number."""
    with pytest.raises(ValueError, match=re.escape(f"matrix entries must be exact rationals, got {entry!r}")):
        RationalMatrix([[Fraction(1, 3), entry]])
    assert RationalMatrix([[Fraction(1, 3), 1, np.int64(-2), "3/4"]]).rows == (
        (Fraction(1, 3), Fraction(1), Fraction(-2), Fraction(3, 4)),
    )


def test_matrix_refuses_strings_that_are_not_fractions():
    for text in ("1/0", "x"):
        with pytest.raises(ValueError, match=re.escape(f"not a rational number: {text!r}")):
            RationalMatrix([[text]])


def test_matrix_solve():
    a = RationalMatrix([[2, 1], [1, 3]])
    x = a.solve_matrix([[5], [10]])
    assert x == RationalMatrix([[1], [3]])
    with pytest.raises(ValueError, match="singular"):
        RationalMatrix([[1, 2], [2, 4]]).solve_matrix([[1], [1]])


def test_matrix_solve_refuses_mismatched_shapes():
    with pytest.raises(ValueError, match="solve needs a square matrix"):
        RationalMatrix([[1, 2]]).solve_matrix([[1]])
    with pytest.raises(ValueError, match="right-hand side has mismatched row count"):
        RationalMatrix([[2, 1], [1, 3]]).solve_matrix([[1], [2], [3]])


def test_matrix_solve_matrix_inverse():
    a = RationalMatrix([[2, 1], [1, 3]])
    inv = a.solve_matrix(identity_matrix(2))
    product = [
        [sum(a[i, k] * inv[k, j] for k in range(2)) for j in range(2)]
        for i in range(2)
    ]
    assert RationalMatrix(product) == identity_matrix(2)


def test_solve_matrix_on_sparse_random_systems():
    """Seeded sparse systems up to 6 x 6, so that pivots often swap rows: exact solve or "singular"."""
    rng = random.Random(20261018)
    solved = singular = 0
    for _ in range(500):
        size, width, density = rng.randint(1, 6), rng.randint(1, 3), rng.uniform(0.35, 0.7)

        def entry():
            return Fraction(rng.randint(-9, 9), rng.randint(1, 7)) if rng.random() < density else Fraction(0)

        a = [[entry() for _ in range(size)] for _ in range(size)]
        b = [[entry() for _ in range(width)] for _ in range(size)]
        if _det(a) == 0:
            with pytest.raises(ValueError, match="singular"):
                RationalMatrix(a).solve_matrix(b)
            singular += 1
            continue
        x = RationalMatrix(a).solve_matrix(b)
        assert (x.nrows, x.ncols) == (size, width)
        for i in range(size):
            for j in range(width):
                assert sum(a[i][k] * x[k, j] for k in range(size)) == b[i][j]
        solved += 1
    assert solved > 150 and singular > 150


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
    inst = translate_to_plcp(TRIVIAL)
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
    inst = translate_by_elimination(v)
    assert inst.M == identity_matrix(n)
    assert inst.q == (Fraction(1),) * n


def test_translate_shape_checks():
    v = realization_matrix(TRIVIAL)
    with pytest.raises(ValueError):
        translate_by_elimination(RationalMatrix([[1, 2]]))
    with pytest.raises(ValueError):
        translate_by_elimination(v, CHAIN2)


def _same_as_elimination(ext: CyclicExtension) -> bool:
    return translate_to_plcp(ext) == translate_by_elimination(realization_matrix(ext), ext)


def test_closed_form_matches_elimination_on_every_extension_up_to_n2():
    """All orders and flip sets, P-matroid or not: M = -V_S^-1 V_T needs only distinct positions."""
    count = 0
    for n in (1, 2):
        tokens = [*range(1, 2 * n + 1), Q]
        for order in permutations(tokens):
            for flips in range(1 << 2 * n):
                ext = CyclicExtension(n, order, [e for e in range(1, 2 * n + 1) if flips >> e - 1 & 1])
                assert _same_as_elimination(ext), ext
                count += 1
    assert count == 1944


def test_closed_form_matches_elimination_on_every_branching_up_to_n5():
    count = 0
    for n in range(1, 6):
        for b in all_branchings(n):
            assert _same_as_elimination(synthesize_extension(b)), b
            count += 1
    assert count == 1441


def test_closed_form_matches_elimination_on_arbitrary_extensions():
    rng = random.Random(20261019)
    for _ in range(300):
        n = rng.randint(3, 6)
        order = [*range(1, 2 * n + 1), Q]
        rng.shuffle(order)
        ext = CyclicExtension(n, order, [e for e in range(1, 2 * n + 1) if rng.random() < 0.5])
        assert _same_as_elimination(ext), ext


@pytest.mark.parametrize("family", ["path", "star"])
def test_closed_form_matches_elimination_on_families_at_n32(family):
    assert _same_as_elimination(synthesize_extension(is_branching_closure(FAMILIES[family](32))))


def test_closed_form_residual_at_n64():
    """V_S [M | q] = -[V_T | v_q] exactly, each column of [M | q] scaled to integers."""
    n = 64
    ext = synthesize_extension(is_branching_closure(FAMILIES["path"](n)))
    inst = translate_to_plcp(ext)
    v = [[int(x) for x in row] for row in realization_matrix(ext).rows]
    for t, col in enumerate([*zip(*inst.M.rows), inst.q]):
        scale = lcm(*(x.denominator for x in col))
        ints = [int(x * scale) for x in col]
        for row in v:
            assert sum(a * b for a, b in zip(row, ints)) == -row[n + t] * scale


def _refusal(reader, arg) -> str:
    """The text of the plain ``ValueError`` (not ``DegenerateQ``) that ``reader(arg)`` raises."""
    with pytest.raises(ValueError) as info:
        reader(arg)
    assert type(info.value) is ValueError
    return str(info.value)


def test_is_p_matrix_examples():
    """Matrices with a zero entry are the oracle tree's; the library refuses them by that entry."""
    for m, p_matrix, zero in (
        (identity_matrix(4), True, "M[1, 2]"),
        (RationalMatrix([[0, 1], [1, 0]]), False, "M[1, 1]"),
        (RationalMatrix([[1, 0], [0, -1]]), False, "M[1, 2]"),
    ):
        assert tree_is_p_matrix(m) == p_matrix
        assert _refusal(is_p_matrix, m) == f"M is not Cauchy-like ({zero} is 0)"
    # every M of size 2 without a zero entry is Cauchy-like
    assert is_p_matrix(RationalMatrix([[2, 1], [1, 2]]))
    assert not is_p_matrix(RationalMatrix([[1, 2], [2, 1]]))
    assert not is_p_matrix(RationalMatrix([[-1, 1], [1, 1]]))
    chain3 = synthesize_extension(Branching(3, {2: 1, 3: 2}))
    inst = translate_to_plcp(chain3)
    assert is_p_matrix(inst.M)


def test_is_p_matrix_validation():
    with pytest.raises(ValueError):
        is_p_matrix(RationalMatrix([[1, 2]]))
    assert _refusal(is_p_matrix, identity_matrix(MAX_DIMENSION + 1)) == "M is not Cauchy-like (M[1, 2] is 0)"


def test_is_p_matrix_runs_past_n_12():
    """The library's verdict at n = 13 is the pivot tree's, which runs up to the table cap."""
    m = translate_to_plcp(synthesize_extension(is_branching_closure(FAMILIES["path"](13)))).M
    assert tree_is_p_matrix(m) and is_p_matrix(m)


def test_plcp_instance_json():
    inst = translate_to_plcp(CHAIN2)
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


@pytest.mark.parametrize("n", [0, -1])
def test_plcp_instance_rejects_sizes_below_one(n):
    with pytest.raises(ValueError, match="instance size must be an integer of at least 1"):
        PLCPInstance.from_json_obj({"n": n, "M": [], "q": []})
    with pytest.raises(ValueError, match="instance size must be an integer of at least 1"):
        PLCPInstance(n, RationalMatrix([]), ())


def test_plcp_instance_rejects_a_q_of_the_wrong_length():
    for q in ((), (Fraction(1),) * 3):
        with pytest.raises(ValueError, match="q must have 2 entries"):
            PLCPInstance(2, RationalMatrix([[1, 0], [0, 1]]), q)


def test_plcp_instance_reads_q_by_the_entry_rule_of_the_matrix():
    """A fraction string and an integer in q become Fractions, so the readers take the instance (``tests/test_inputs.py`` has the refusals)."""
    inst = PLCPInstance(2, RationalMatrix([[2, 1], [1, 2]]), ["1/2", 2])
    assert inst.q == (Fraction(1, 2), Fraction(2)) and all(type(x) is Fraction for x in inst.q)
    assert plcp_to_uso(inst) == tree_to_uso(inst)


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
    """A vertex outside 0..2^n - 1, a float or a bool is refused."""
    inst = PLCPInstance(1, RationalMatrix([[1]]), (Fraction(-1),))
    for vertex in (2, 1.0, True):
        with pytest.raises(ValueError, match=re.escape(f"vertex {vertex!r} is not an integer in 0..1")):
            solve_candidate(inst, vertex)


def test_plcp_to_uso_identity():
    """The oracle tree orients the identity uniformly; the library refuses it by its first zero entry."""
    inst = PLCPInstance(3, identity_matrix(3), (Fraction(1),) * 3)
    assert tree_to_uso(inst) == Orientation(3, range(8))
    assert _refusal(plcp_to_uso, inst) == "[M | q] is not Cauchy-like (M[1, 2] is 0)"


def test_plcp_to_uso_trivial():
    inst = PLCPInstance(1, RationalMatrix([[1]]), (Fraction(-1),))
    o = plcp_to_uso(inst)
    assert o.outmaps == (1, 0)
    assert global_sink(o) == 1


def test_plcp_to_uso_propagates_degenerate():
    """A zero e(1, 2): M_12 q_2 = M_22 q_1 puts a zero w_1 at vertex {2}, as a direct solve finds."""
    inst = PLCPInstance(2, RationalMatrix([[2, 1], [1, 2]]), (Fraction(1), Fraction(2)))
    with pytest.raises(DegenerateQ, match="^zero component in the basic solution at vertex 2$"):
        plcp_to_uso(inst)
    with pytest.raises(DegenerateQ, match="^zero component in the basic solution at vertex 2$"):
        solve_candidate(inst, 2)
    # a zero q entry is the oracle tree's DegenerateQ, and outside the library's domain
    inst = PLCPInstance(2, identity_matrix(2), (Fraction(0), Fraction(1)))
    with pytest.raises(DegenerateQ):
        tree_to_uso(inst)
    assert _refusal(plcp_to_uso, inst) == "[M | q] is not Cauchy-like (M[1, 2] is 0)"
    inst = PLCPInstance(2, RationalMatrix([[2, 1], [1, 2]]), (Fraction(1), Fraction(0)))
    with pytest.raises(DegenerateQ):
        tree_to_uso(inst)
    assert _refusal(plcp_to_uso, inst) == "[M | q] is not Cauchy-like (q[2] is 0)"


def test_unique_feasible_candidate_is_sink():
    for ext in (TRIVIAL, CHAIN2, synthesize_extension(Branching(3, {2: 1}))):
        inst = translate_to_plcp(ext)
        o = plcp_to_uso(inst)
        feasible = [
            v for v in range(1 << inst.n) if solve_candidate(inst, v).feasible
        ]
        assert feasible == [global_sink(o)]


def test_pipeline_agrees_with_extension_uso():
    for n in (1, 2, 3):
        for b in all_branchings(n):
            ext = synthesize_extension(b)
            inst = translate_to_plcp(ext)
            assert plcp_to_uso(inst) == extension_to_uso(ext)


def test_three_routes_agree_on_every_branching_n5():
    """Graph, extension and LCP read off one influence graph for each of the 6^4 branchings at n = 5."""
    count = 0
    for b in all_branchings(5):
        ext = synthesize_extension(b)
        via_graph = extract_influence_graph(build_matousek(b.transitive_closure()))
        via_matroid = extract_influence_graph(extension_to_uso(ext))
        via_lcp = extract_influence_graph(plcp_to_uso(translate_to_plcp(ext)))
        assert via_graph == via_matroid == via_lcp, b
        count += 1
    assert count == 1296


def test_random_increasing_abscissae_same_uso():
    """Any strictly increasing abscissae realize the same orientation."""
    rng = np.random.default_rng(20240817)
    for b in all_branchings(3):
        ext = synthesize_extension(b)
        base = plcp_to_uso(translate_to_plcp(ext))
        steps = rng.integers(1, 50, size=7)
        total = 0
        xs = []
        for s in steps:
            total += int(s)
            xs.append(Fraction(total, 7))
        other = plcp_to_uso(translate_by_elimination(realization_matrix(ext, xs), ext))
        assert other == base


def test_chain_pipeline_canonicalizes_to_matousek():
    inst = translate_to_plcp(CHAIN2)
    assert extract_influence_graph(plcp_to_uso(inst)) == InfluenceGraph(2, [(1, 2)])


def test_cube_walk_matches_oracles_on_every_branching():
    for n in (1, 2, 3, 4):
        for b in all_branchings(n):
            inst = translate_to_plcp(synthesize_extension(b))
            assert plcp_to_uso(inst) == plcp_to_uso_per_vertex(inst)
            assert is_p_matrix(inst.M) and is_p_matrix_by_minors(inst.M)


@pytest.mark.parametrize("family", ["path", "star"])
def test_cube_walk_matches_oracles_on_families(family):
    for n in range(1, 9):
        inst = translate_to_plcp(synthesize_extension(is_branching_closure(FAMILIES[family](n))))
        assert plcp_to_uso(inst) == plcp_to_uso_per_vertex(inst)
        assert is_p_matrix(inst.M) and is_p_matrix_by_minors(inst.M)


def _readers(inst: PLCPInstance):
    """(P-matrix test, orientation reader) for ``inst``: the library's where it is Cauchy-like, else the oracle tree's.

    Outside its domain the library must refuse, in the words of the
    brute-force rank oracle.
    """
    m_flaw = not_cauchy_like_by_minors(inst.M.rows, "M")
    lcp_flaw = not_cauchy_like_by_minors([row + (x,) for row, x in zip(inst.M.rows, inst.q)], "[M | q]")
    if m_flaw is not None:
        assert _refusal(is_p_matrix, inst.M) == f"M is not Cauchy-like ({m_flaw})"
    if lcp_flaw is not None:
        assert _refusal(plcp_to_uso, inst) == f"[M | q] is not Cauchy-like ({lcp_flaw})"
    return is_p_matrix if m_flaw is None else tree_is_p_matrix, plcp_to_uso if lcp_flaw is None else tree_to_uso


def _against_oracles(inst: PLCPInstance) -> str:
    """The reader refuses a non-P M, naming a nonpositive minor, whatever q is; else it does what the per-vertex oracle does."""
    p_test, reader = _readers(inst)
    p_matrix = is_p_matrix_by_minors(inst.M)
    assert p_test(inst.M) == p_matrix
    if not p_matrix:
        with pytest.raises(ValueError, match="not a P-matrix") as info:
            reader(inst)
        message = str(info.value)
        idx = [d - 1 for d in ast.literal_eval(message.rpartition("S = ")[2])]
        minor = _det([[inst.M[i, j] for j in idx] for i in idx])
        assert minor <= 0 and ("is zero" if minor == 0 else "is negative") in message
        return "refused"
    try:
        want = plcp_to_uso_per_vertex(inst)
    except DegenerateQ:
        with pytest.raises(DegenerateQ):
            reader(inst)
        return "degenerate"
    assert reader(inst) == want
    return "orientation"


def _dominant_shift(m: RationalMatrix) -> RationalMatrix:
    """M + c I with c = 1 + n max |m_ij|: strictly diagonally dominant with a positive diagonal, so a P-matrix."""
    n = m.nrows
    c = 1 + n * max(abs(x) for row in m.rows for x in row)
    return RationalMatrix([[x + c * (i == j) for j, x in enumerate(row)] for i, row in enumerate(m.rows)])


small_fractions = st.fractions(min_value=Fraction(-3), max_value=Fraction(3), max_denominator=3)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.data())
def test_cube_walk_matches_oracles_on_random_rationals(n, data):
    """Random rational (M, q), most M not P-matrices, some q degenerate; M + c I is a P-matrix with mixed signs."""
    rows = data.draw(st.lists(st.lists(small_fractions, min_size=n, max_size=n), min_size=n, max_size=n))
    q = tuple(data.draw(st.lists(small_fractions, min_size=n, max_size=n)))
    m = RationalMatrix(rows)
    _against_oracles(PLCPInstance(n, m, q))
    assert _against_oracles(PLCPInstance(n, _dominant_shift(m), q)) != "refused"


def test_plcp_to_uso_certifies_the_sink(monkeypatch):
    """A z at the sink that is negative is reported, not ignored, by the one certificate: the sink's set is {2}."""
    import usomat.plcp

    real, basic = oracles.solve_candidate, usomat.plcp._basic_values

    def negated(inst, v):
        sol = real(inst, v)
        return CandidateSolution(v, tuple(-x for x in sol.w), tuple(-x for x in sol.z))

    monkeypatch.setattr(oracles, "solve_candidate", negated)
    monkeypatch.setattr(usomat.plcp, "_basic_values", lambda a, v: [-x for x in basic(a, v)])
    for reader in (tree_to_uso, plcp_to_uso):
        with pytest.raises(ArithmeticError, match="^the sink certificate fails at vertex 2, pair 2$"):
            reader(translate_to_plcp(CHAIN2))


@pytest.mark.parametrize("n", [2, 3, MAX_DIMENSION + 1])
def test_plcp_to_uso_refuses_a_non_cauchy_instance_at_every_n(n):
    """There is no cap: the identity is refused by its first zero entry, within the table cap and past it."""
    inst = PLCPInstance(n, identity_matrix(n), (Fraction(1),) * n)
    assert _refusal(plcp_to_uso, inst) == "[M | q] is not Cauchy-like (M[1, 2] is 0)"
    assert _refusal(is_p_matrix, inst.M) == "M is not Cauchy-like (M[1, 2] is 0)"


def test_cube_walk_reports_singular_bases():
    inst = PLCPInstance(2, RationalMatrix([[1, 1], [1, 1]]), (Fraction(1), Fraction(2)))
    with pytest.raises(ValueError, match=r"not a P-matrix: det\(M\[S, S\]\) is zero for S = \[1, 2\]"):
        plcp_to_uso(inst)
    assert not is_p_matrix(inst.M)


def _row_scales(m: RationalMatrix, q) -> list[int]:
    """The lcm of each row's denominators in [M | q]: the positive scales of the integer rows."""
    return [lcm(*(x.denominator for x in row), q_r.denominator) for row, q_r in zip(m.rows, q)]


def _members(s: int) -> list[int]:
    return [i for i in range(s.bit_length()) if s >> i & 1]


def _tree_order(n: int, s: int = 0, first: int = 0):
    """Each node, then its children S + {k}, k > max(S), in decreasing k."""
    yield s
    for k in range(n - 1, first - 1, -1):
        yield from _tree_order(n, s | 1 << k, k + 1)


def _random_matrix(rng, n: int, high: int, denominators=(1,)) -> list[list[Fraction]]:
    return [
        [Fraction(int(rng.integers(-high, high + 1)), int(rng.choice(denominators))) for _ in range(n)]
        for _ in range(n)
    ]


def _pivot_by_divmod(vec: list[int], pivot_vec: list[int], pos: int, d: int) -> list[int]:
    """The Bareiss step with a division of every entry, remainders collected."""
    p, b = pivot_vec[pos], vec[pos]
    parts = [divmod(a * p - f * b, d) for a, f in zip(vec, pivot_vec)]
    assert not any(rem for _, rem in parts)
    return [quo for quo, _ in parts]


def test_pivot_step_without_a_divisor_equals_the_divmod_step():
    """At d = 1 no division runs; the result is the divmod step's, and the step scaled by k divides back exactly."""
    rng = random.Random(219)
    for _ in range(300):
        width = rng.randint(1, 8)
        vec = [rng.randint(-10**6, 10**6) for _ in range(width)]
        pivot_vec = [rng.randint(-10**6, 10**6) for _ in range(width)]
        pos = rng.randrange(width)
        want = _pivot_by_divmod(vec, pivot_vec, pos, 1)
        assert _pivot_step(vec, pivot_vec, pos, 1) == want
        k = rng.choice([-7, -1, 2, 3, 10**9 + 7])
        assert _pivot_step([k * a for a in vec], pivot_vec, pos, k) == want


def test_pivot_step_raises_at_an_inexact_division():
    # (1*1 - 3*2, 2*1 - 1*2) = (-5, 0): -5 / 2 leaves a remainder
    with pytest.raises(ArithmeticError, match="^inexact fraction-free pivot$"):
        _pivot_step([1, 2], [3, 1], 1, 2)
    with pytest.raises(ArithmeticError, match="^inexact fraction-free pivot$"):
        _pivot_step([2, 0, 1], [4, 2, 3], 1, 4)  # (4, 0, 2): the last entry alone is inexact
    assert _pivot_step([2, 0, 2], [4, 2, 3], 1, 4) == [1, 0, 1]


def test_pivot_tree_visits_every_subset_once_with_its_minor():
    """d is each principal minor of the row-scaled M; x is d times the row-scaled basic w; a zero minor ends the tree."""
    rng = np.random.default_rng(2024)
    complete = ended = 0
    for n in range(1, 7):
        for trial in range(12):
            m = RationalMatrix(_random_matrix(rng, n, 3 if trial % 3 else 1, (1, 1, 2, 3)))
            q = tuple(Fraction(int(rng.integers(1, 9)) * int(rng.choice([-1, 1])), 2) for _ in range(n))
            scale = _row_scales(m, q)
            want_order = list(_tree_order(n))
            got = list(pivot_tree(_integer_rows(row + (x,) for row, x in zip(m.rows, q)), n))
            assert [s for s, _, _, _ in got] == want_order[: len(got)]
            for s, d, free, x in got:
                idx = _members(s)
                minor = _det([[m[i, j] for j in idx] for i in idx]) if idx else Fraction(1)
                assert d == prod(scale[i] for i in idx) * minor
                if d == 0:
                    break
                assert free == [r for r in range(n) if r not in idx]
                try:
                    sol = solve_candidate(PLCPInstance(n, m, q), s)
                except DegenerateQ:
                    continue
                assert x == [d * scale[r] * sol.w[r] for r in free]
            if got[-1][1] == 0:
                ended += 1
                assert all(d != 0 for _, d, _, _ in got[:-1])
            else:
                complete += 1
                assert len(got) == 1 << n
    assert complete > 20 and ended > 10


def test_pivot_tree_without_q_yields_the_same_minors():
    rng = np.random.default_rng(7)
    for n in range(1, 7):
        m = RationalMatrix(_random_matrix(rng, n, 5))
        with_q = [(s, d) for s, d, _, _ in pivot_tree(_integer_rows(row + (Fraction(1),) for row in m.rows), n)]
        without = list(pivot_tree(_integer_rows(m.rows), n))
        assert [(s, d) for s, d, _, _ in without] == with_q
        assert all(x == [] for _, _, _, x in without)


def _cycle_matrix(n: int, a: int) -> RationalMatrix:
    """I + a P with P the cyclic shift: every proper principal minor is 1, the full one 1 - (-a)^n."""
    return RationalMatrix([[int(i == j) + a * int(j == (i + 1) % n) for j in range(n)] for i in range(n)])


def _vanishing_minors(m: RationalMatrix) -> list[tuple[int, ...]]:
    n = m.nrows
    return [
        idx
        for size in range(1, n + 1)
        for idx in combinations(range(n), size)
        if _det([[m[i, j] for j in idx] for i in idx]) == 0
    ]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_is_p_matrix_reads_the_last_node(n):
    """The full set is the tree's last node; a matrix failing only there is not a P-matrix."""
    assert list(_tree_order(n))[-1] == (1 << n) - 1
    for a, full in ((-2, 1 - 2**n), (-1, 0)):
        m = _cycle_matrix(n, a)
        for size in range(1, n):
            for idx in combinations(range(n), size):
                assert _det([[m[i, j] for j in idx] for i in idx]) == 1
        assert _det([list(row) for row in m.rows]) == full
        inst = PLCPInstance(n, m, (Fraction(1),) * n)
        p_test, reader = _readers(inst)  # the library's at n = 2 only: I + aP has zeros from n = 3 on
        assert not p_test(m) and not is_p_matrix_by_minors(m)
        sign = "negative" if full else "zero"
        with pytest.raises(ValueError, match=rf"is {sign} for S = \[{', '.join(map(str, range(1, n + 1)))}\]$"):
            reader(inst)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_plcp_to_uso_reports_the_singular_minor_whatever_q_is(n):
    """Singular only at {n}, the tree's first node after the root, or only at the full set, its last node."""
    rng = np.random.default_rng(n)
    while True:
        rows = _random_matrix(rng, n, 4)
        rows[n - 1][n - 1] = Fraction(0)
        first_in_tree = RationalMatrix(rows)
        if _vanishing_minors(first_in_tree) == [(n - 1,)]:
            break
    last_in_tree = _cycle_matrix(n, -1)
    assert _vanishing_minors(last_in_tree) == [tuple(range(n))]
    for m, named in ((first_in_tree, [n]), (last_in_tree, list(range(1, n + 1)))):
        for q in ((Fraction(1),) * n, (Fraction(0),) * n, tuple(Fraction(int(v)) for v in rng.integers(-3, 4, n))):
            p_test, reader = _readers(PLCPInstance(n, m, q))
            with pytest.raises(ValueError, match="not a P-matrix") as info:
                reader(PLCPInstance(n, m, q))
            assert str(info.value).endswith(f"is zero for S = {named}")
            assert not p_test(m)


def test_plcp_to_uso_refuses_exactly_the_non_p_matrices():
    """Random rationals, n <= 4, and their diagonally dominant shifts: refused iff not a P-matrix, else the oracle's result."""
    rng = np.random.default_rng(99)
    kinds = {"refused": 0, "degenerate": 0, "orientation": 0}
    for _ in range(400):
        n = int(rng.integers(1, 5))
        m = RationalMatrix(_random_matrix(rng, n, 2, (1, 2)))
        q = tuple(Fraction(int(v), 2) for v in rng.integers(-2, 3, n))
        for matrix in (m, _dominant_shift(m)):
            kinds[_against_oracles(PLCPInstance(n, matrix, q))] += 1
    # 800 instances: over 400 P-matrix ones compared with the oracle, over 150 of each outcome
    assert kinds["degenerate"] + kinds["orientation"] > 400 and min(kinds.values()) > 150, kinds


@pytest.mark.parametrize("family", ["path", "star"])
@pytest.mark.parametrize("n", [5, 6])
def test_p_matrix_with_a_degenerate_q_raises(family, n):
    """q = B_S x with x_r = 0 puts a zero basic component at vertex S, on the w side or the z side."""
    m = translate_to_plcp(synthesize_extension(is_branching_closure(FAMILIES[family](n)))).M
    assert is_p_matrix(m)
    rng = np.random.default_rng(n)
    for _ in range(6):
        s = int(rng.integers(0, 1 << n))
        r = int(rng.integers(0, n))
        x = [Fraction(int(rng.integers(1, 6)) * int(rng.choice([-1, 1]))) for _ in range(n)]
        x[r] = Fraction(0)
        # column i of the basis at s: -M e_i when pair i is on the z side, else e_i
        q = tuple(
            sum((-m[row, i] if s >> i & 1 else Fraction(int(row == i))) * x[i] for i in range(n))
            for row in range(n)
        )
        inst = PLCPInstance(n, m, q)
        with pytest.raises(DegenerateQ):
            solve_candidate(inst, s)
        _, reader = _readers(inst)
        with pytest.raises(DegenerateQ, match="zero component in the basic solution at vertex"):
            reader(inst)
