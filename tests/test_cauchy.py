"""The Cauchy route: the orientation and the P-matrix test of a Cauchy-like LCP from 1x1 and 2x2 signs.

The pivot tree (``_tree_to_uso``, ``_tree_is_p_matrix``) is the
independent witness throughout: ``plcp_to_uso`` and ``is_p_matrix`` must
return its orientation and its verdict, and refuse exactly the matrices
it refuses.  A direct solve (``solve_candidate``) is the witness of the
closed-form z that certifies the sink, and the brute-force
oracles of ``tests/oracles.py`` are the witnesses on seeded Cauchy-like
instances with repeated and infinite nodes.
"""

import ast
import random
from fractions import Fraction

import pytest

from usomat import (
    MAX_DIMENSION,
    Branching,
    CyclicExtension,
    Orientation,
    PLCPInstance,
    Q,
    RationalMatrix,
    DegenerateQ,
    extension_to_uso,
    global_sink,
    is_branching_closure,
    is_p_matrix,
    plcp_to_uso,
    solve_candidate,
    synthesize_extension,
    translate_to_plcp,
)
from usomat.plcp import CandidateSolution, _basic_values, _integer_rows, _tree_is_p_matrix, _tree_to_uso
from usomat.random_facet import FAMILIES
from oracles import _det, all_branchings, is_p_matrix_by_minors, plcp_to_uso_per_vertex


def _random_branching(rng: random.Random, n: int) -> Branching:
    """Each dimension after the first, in a shuffled order, hangs below an earlier one or starts a tree."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    parent = {v: rng.choice(order[:i]) for i, v in enumerate(order) if i and rng.random() < 0.8}
    return Branching(n, parent)


def _random_extension(rng: random.Random, n: int) -> CyclicExtension:
    """Any order and flip set: most are not P-matroids, and their M are not P-matrices."""
    order = [*range(1, 2 * n + 1), Q]
    rng.shuffle(order)
    return CyclicExtension(n, order, [e for e in range(1, 2 * n + 1) if rng.random() < 0.5])


def _own(ext: CyclicExtension) -> Orientation:
    return plcp_to_uso(translate_to_plcp(ext))


def _family(name: str, n: int) -> CyclicExtension:
    return synthesize_extension(is_branching_closure(FAMILIES[name](n)))


def test_same_orientation_as_the_pivot_tree_on_every_branching_up_to_n5():
    count = 0
    for n in range(1, 6):
        for b in all_branchings(n):
            ext = synthesize_extension(b)
            assert _own(ext) == _tree_to_uso(translate_to_plcp(ext)), b
            count += 1
    assert count == 1441


def test_same_orientation_as_the_pivot_tree_on_seeded_branchings_up_to_n8():
    rng = random.Random(20261020)
    for _ in range(60):
        ext = synthesize_extension(_random_branching(rng, rng.randint(6, 8)))
        assert _own(ext) == _tree_to_uso(translate_to_plcp(ext)), ext


def test_pair_rule_refuses_exactly_what_the_pivot_tree_refuses():
    """Seeded (order, F) with n <= 6: the first nonpositive 1x1 or 2x2 minor is named, else the tree's orientation."""
    rng = random.Random(27)
    accepted = refused = 0
    for _ in range(3000):
        ext = _random_extension(rng, rng.randint(1, 6))
        inst = translate_to_plcp(ext)
        p_matrix = _tree_is_p_matrix(inst.M)
        assert is_p_matrix(inst.M) == p_matrix, ext
        if p_matrix:
            assert plcp_to_uso(inst) == _tree_to_uso(inst), ext
            accepted += 1
            continue
        with pytest.raises(ValueError, match=r"^M is not a P-matrix: det\(M\[S, S\]\) is negative for S = ") as info:
            plcp_to_uso(inst)
        named = [d - 1 for d in ast.literal_eval(str(info.value).rpartition("S = ")[2])]
        assert len(named) in (1, 2)
        assert _det([[inst.M[i, j] for j in named] for i in named]) < 0
        refused += 1
    assert accepted > 300 and refused > 2000, (accepted, refused)


def _first_refusal(size: int) -> tuple[CyclicExtension, list[int]]:
    """A seeded extension whose first nonpositive minor, in the route's order, has ``size`` indices."""
    rng = random.Random(size)
    while True:
        ext = _random_extension(rng, 4)
        m = translate_to_plcp(ext).M
        singles = [[i] for i in range(4) if m[i, i] <= 0]
        pairs = [
            [i, j] for i in range(4) for j in range(i + 1, 4) if _det([[m[a, b] for b in (i, j)] for a in (i, j)]) <= 0
        ]
        first = (singles or pairs or [None])[0]
        if first is not None and len(first) == size:
            return ext, [i + 1 for i in first]


@pytest.mark.parametrize("size", [1, 2])
def test_failure_names_the_first_negative_minor(size):
    ext, named = _first_refusal(size)
    with pytest.raises(ValueError) as info:
        _own(ext)
    assert str(info.value) == f"M is not a P-matrix: det(M[S, S]) is negative for S = {named}"
    m = translate_to_plcp(ext).M
    assert not is_p_matrix(m) and not _tree_is_p_matrix(m)


def test_own_instances_never_reach_the_pivot_tree(monkeypatch):
    import usomat.plcp

    def walk(*args):
        raise AssertionError("the pivot tree ran")

    monkeypatch.setattr(usomat.plcp, "_pivot_tree", walk)
    for name in ("path", "star", "merged"):
        for n in (1, 5, 10, 64):
            if is_branching_closure(FAMILIES[name](n)) is not None:
                ext = _family(name, n)
                assert _own(ext) == extension_to_uso(ext)
                assert is_p_matrix(translate_to_plcp(ext).M)


@pytest.mark.parametrize("name", ["path", "star"])
def test_families_past_the_table_cap_match_the_extension(name):
    """At n = 64 too, the LCP route's sign products and the extension's scan give the same rows."""
    for n in (32, 64):
        ext = _family(name, n)
        o = _own(ext)
        assert o == extension_to_uso(ext)
        assert o.rows is not None and o._table is None


def test_seeded_branchings_at_n64_match_the_extension():
    rng = random.Random(64)
    for _ in range(3):
        ext = synthesize_extension(_random_branching(rng, 64))
        o = _own(ext)
        assert o == extension_to_uso(ext), ext
        assert o._table is None


def test_a_foreign_instance_goes_to_the_pivot_tree_within_the_cap(monkeypatch):
    """M + I for a Cauchy-like P-matrix M is a P-matrix whose reciprocal has rank above 2: the tree reads it, both verdicts agree."""
    import usomat.plcp

    inst = translate_to_plcp(_family("star", 6))
    shifted = RationalMatrix([[x + (i == j) for j, x in enumerate(row)] for i, row in enumerate(inst.M.rows)])
    foreign = PLCPInstance(6, shifted, inst.q)
    calls = []
    real = usomat.plcp._tree_to_uso
    monkeypatch.setattr(usomat.plcp, "_tree_to_uso", lambda i: calls.append(i) or real(i))
    assert plcp_to_uso(foreign) == real(foreign) == plcp_to_uso_per_vertex(foreign)
    assert calls == [foreign]
    assert is_p_matrix(shifted) and _tree_is_p_matrix(shifted)
    # a matrix the pivot tree refuses is refused in its words
    bad = PLCPInstance(3, RationalMatrix([[1, 2, 0], [2, 1, 0], [0, 0, 1]]), (Fraction(-1), Fraction(-2), Fraction(-3)))
    with pytest.raises(ValueError, match=r"is negative for S = \[1, 2\]$"):
        plcp_to_uso(bad)
    assert calls[-1] == bad


def _with_entry(inst: PLCPInstance, j: int, t: int, value: Fraction) -> PLCPInstance:
    rows = [list(row) for row in inst.M.rows]
    rows[j][t] = value
    return PLCPInstance(inst.n, RationalMatrix(rows), inst.q)


def test_a_non_cauchy_instance_past_the_cap_is_refused_by_its_first_flaw(monkeypatch):
    """Past the tree's cap, an altered instance is refused naming its first zero entry or its first row outside the span."""
    import usomat.plcp

    def tree(*args):
        raise AssertionError("the pivot tree ran past the table cap")

    monkeypatch.setattr(usomat.plcp, "_pivot_tree", tree)
    n = MAX_DIMENSION + 4
    inst = translate_to_plcp(_family("path", n))
    one = _with_entry(inst, 6, 2, inst.M[6, 2] + 1)
    zero = _with_entry(one, 9, 0, Fraction(0))
    moved_q = PLCPInstance(n, inst.M, inst.q[:-1] + (-inst.q[-1],))
    cap = f"), and principal minor enumeration is capped at n={MAX_DIMENSION}"
    for changed, label, flaw in (
        (one, "[M | q]", "row 7 of 1/[M | q] is outside the span of rows 1 and 2"),
        (zero, "[M | q]", "M[10, 1] is 0"),
        (moved_q, "[M | q]", f"row {n} of 1/[M | q] is outside the span of rows 1 and 2"),
    ):
        with pytest.raises(ValueError) as info:
            plcp_to_uso(changed)
        assert str(info.value) == f"{label} is not Cauchy-like ({flaw}{cap}"
    for changed, flaw in ((one, "row 7 of 1/M is outside the span of rows 1 and 2"), (zero, "M[10, 1] is 0")):
        with pytest.raises(ValueError) as info:
            is_p_matrix(changed.M)
        assert str(info.value) == f"M is not Cauchy-like ({flaw}{cap}"
    assert is_p_matrix(moved_q.M)  # M itself is untouched, and Cauchy-like


def _sink(ext: CyclicExtension) -> int:
    return global_sink(extension_to_uso(ext))


def _products(inst: PLCPInstance, vertex: int) -> CandidateSolution:
    """The z of the Cauchy products at ``vertex``, and w = q + M z from it."""
    z = tuple(_basic_values(_integer_rows(row + (x,) for row, x in zip(inst.M.rows, inst.q)), vertex))
    w = tuple(q_r + sum(m * x for m, x in zip(row, z)) for row, q_r in zip(inst.M.rows, inst.q))
    return CandidateSolution(vertex, w, z)


def test_closed_form_values_equal_a_direct_solve_on_every_branching_up_to_n5():
    """At the sink and at one seeded vertex of every branching: each value is the same Fraction."""
    rng = random.Random(5)
    count = 0
    for n in range(1, 6):
        for b in all_branchings(n):
            ext = synthesize_extension(b)
            inst = translate_to_plcp(ext)
            for v in (_sink(ext), rng.randrange(1 << n)):
                assert _products(inst, v) == solve_candidate(inst, v), (b, v)
            count += 1
    assert count == 1441


@pytest.mark.parametrize("n", [8, 12, 16])
def test_closed_form_values_equal_a_direct_solve_on_seeded_branchings(n):
    rng = random.Random(n)
    for _ in range(4):
        ext = synthesize_extension(_random_branching(rng, n))
        inst = translate_to_plcp(ext)
        sink = _sink(ext)
        assert _products(inst, sink).feasible
        for v in (sink, rng.randrange(1 << n)):
            assert _products(inst, v) == solve_candidate(inst, v), (ext, v)


def _faulty_sink_z(monkeypatch, fault) -> None:
    """``fault`` applied to the z that each route's certificate reads: the Cauchy products and the tree's direct solve."""
    import usomat.plcp

    basic, solve = usomat.plcp._basic_values, usomat.plcp.solve_candidate

    def solved(inst, v):
        sol = solve(inst, v)
        return CandidateSolution(v, sol.w, tuple(fault(list(sol.z))))

    monkeypatch.setattr(usomat.plcp, "_basic_values", lambda a, v: fault(basic(a, v)))
    monkeypatch.setattr(usomat.plcp, "solve_candidate", solved)


def test_the_sink_is_certified_by_w_minus_mz_equals_q(monkeypatch):
    """A z on the support that is off, with its sign kept, breaks w = q + M z, on both routes.

    At the star n = 4 sink {2, 4}, doubling z_2 drives the off-support w_1
    below 0, so pair 1 is named; z_2 times 1001/1000 keeps w_1 positive and
    leaves w_2 nonzero, so pair 2 is.
    """
    ext = _family("star", 4)
    assert _sink(ext) == 0b1010
    for factor, pair in ((2, 1), (Fraction(1001, 1000), 2)):
        with monkeypatch.context() as patch:
            _faulty_sink_z(patch, lambda z: z[:1] + [factor * z[1]] + z[2:])
            for reader in (plcp_to_uso, _tree_to_uso):
                with pytest.raises(ArithmeticError, match=rf"^the sink certificate fails at vertex 10, pair {pair}$"):
                    reader(translate_to_plcp(ext))


def test_a_negative_closed_form_value_is_reported(monkeypatch):
    """At the path n = 3 sink, the full set, a negated z fails at pair 1, on both routes."""
    ext = _family("path", 3)
    assert _sink(ext) == 0b111
    _faulty_sink_z(monkeypatch, lambda z: [-x for x in z])
    for reader in (plcp_to_uso, _tree_to_uso):
        with pytest.raises(ArithmeticError, match="^the sink certificate fails at vertex 7, pair 1$"):
            reader(translate_to_plcp(ext))


def test_a_wrong_sink_is_refused_by_its_negative_z(monkeypatch):
    """At a neighbour of the star n = 4 sink, {1, 2, 4}, the basic solution has w = 0 on its set but z_1 < 0."""
    import usomat.plcp

    ext = _family("star", 4)
    assert _sink(ext) == 0b1010
    monkeypatch.setattr(usomat.plcp, "global_sink", lambda o: 0b1011)
    for reader in (plcp_to_uso, _tree_to_uso):
        with pytest.raises(ArithmeticError, match="^the sink certificate fails at vertex 11, pair 1$"):
            reader(translate_to_plcp(ext))


def test_own_instances_never_reach_solve_matrix(monkeypatch):
    def solve(*args):
        raise AssertionError("a linear solve ran")

    monkeypatch.setattr(RationalMatrix, "solve_matrix", solve)
    for name in ("path", "star", "merged"):
        for n in (1, 5, 10, 64):
            if is_branching_closure(FAMILIES[name](n)) is not None:
                ext = _family(name, n)
                assert _own(ext) == extension_to_uso(ext)
                assert is_p_matrix(translate_to_plcp(ext).M)


def test_a_size_mismatch_is_refused_within_the_cap(capsys, monkeypatch):
    """An LCP of another n than the graph's is refused by name in ``realize``, not compared over the shorter rows."""
    import usomat.cli

    monkeypatch.setattr(usomat.cli, "translate_to_plcp", lambda ext: translate_to_plcp(_family("path", 4)))
    assert usomat.cli.main(["realize", "--family", "path", "--n", "6"]) == 1
    assert capsys.readouterr().err.splitlines()[1:] == [
        "verification failed: LCP route gives an orientation of n = 4, the graph has n = 6; nothing written"
    ]


def _rank_two_reciprocal(rng: random.Random, n: int) -> PLCPInstance:
    """[M | q] = 1 / (D (P R^T) F) entrywise: P and R integer in -5..5, D and F positive diagonal scalings.

    Half of the draws take finite nodes p_i = (1, -a_i) and r_t = (b_t, 1),
    the a below the b and in the opposite order, so that M is often a
    P-matrix; the other half take any factors, with their infinite nodes
    (p_i1 = 0 or r_t2 = 0).  A fifth of the draws repeat a row node and a
    fifth a column node, q's included: a repeated node makes some 2x2
    minor or some e(r, t) zero.  Any K = P R^T with a zero entry is drawn
    again, and most rows get a positive diagonal K_ii.
    """
    while True:
        if rng.random() < 0.5:
            a = sorted(rng.sample(range(-5, 0), n))
            b = sorted(rng.sample(range(1, 6), n), reverse=True)
            if rng.random() < 0.5:
                i, j = rng.randrange(n), rng.randrange(n)
                b[i], b[j] = b[j], b[i]
            p = [[1, -x] for x in a]
            r = [[y, 1] for y in b] + [[rng.randint(-5, 5), 1]]
        else:
            p = [[rng.randint(-5, 5), rng.randint(-5, 5)] for _ in range(n)]
            r = [[rng.randint(-5, 5), rng.randint(-5, 5)] for _ in range(n + 1)]
        if n > 1 and rng.random() < 0.2:
            i, j = rng.sample(range(n), 2)
            p[j] = [rng.choice([-2, -1, 1, 2]) * x for x in p[i]]
        if rng.random() < 0.2:
            i, j = rng.sample(range(n + 1), 2)
            r[j] = [rng.choice([-2, -1, 1, 2]) * x for x in r[i]]
        k = [[pi[0] * rt[0] + pi[1] * rt[1] for rt in r] for pi in p]
        if all(x for row in k for x in row):
            break
    k = [[-x for x in row] if row[i] < 0 and rng.random() < 0.9 else row for i, row in enumerate(k)]
    d = [Fraction(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(n)]
    f = [Fraction(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(n + 1)]
    rows = [[1 / (d[i] * k[i][t] * f[t]) for t in range(n + 1)] for i in range(n)]
    return PLCPInstance(n, RationalMatrix(row[:n] for row in rows), tuple(row[n] for row in rows))


def test_seeded_cauchy_like_instances_match_the_oracles(monkeypatch):
    """2,000 rank-2-reciprocal [M | q], n <= 5, against cofactor minors and one solve per vertex, never the tree.

    ``plcp_to_uso_per_vertex`` does not refuse a non-P M, so there the
    witness is ``is_p_matrix_by_minors`` and the named index set's own
    minor; on a P-matrix both give the same orientation or both raise
    ``DegenerateQ``, and the named vertex has a zero basic value.
    """
    import usomat.plcp

    def tree(*args):
        raise AssertionError("the pivot tree ran on a Cauchy-like instance")

    monkeypatch.setattr(usomat.plcp, "_pivot_tree", tree)
    rng = random.Random(2029)
    kinds = {"refused": 0, "zero minor": 0, "degenerate": 0, "orientation": 0}
    for _ in range(2000):
        inst = _rank_two_reciprocal(rng, rng.randint(1, 5))
        p_matrix = is_p_matrix_by_minors(inst.M)
        assert is_p_matrix(inst.M) == p_matrix, inst
        if not p_matrix:
            with pytest.raises(ValueError, match=r"^M is not a P-matrix: det\(M\[S, S\]\) is ") as info:
                plcp_to_uso(inst)
            assert type(info.value) is ValueError
            message = str(info.value)
            idx = [d - 1 for d in ast.literal_eval(message.rpartition("S = ")[2])]
            minor = _det([[inst.M[i, j] for j in idx] for i in idx])
            assert minor <= 0 and ("is zero" if minor == 0 else "is negative") in message, inst
            kinds["zero minor" if minor == 0 else "refused"] += 1
            continue
        try:
            want = plcp_to_uso_per_vertex(inst)
        except DegenerateQ:
            with pytest.raises(DegenerateQ) as info:
                plcp_to_uso(inst)
            vertex = int(str(info.value).rpartition(" ")[2])
            with pytest.raises(DegenerateQ):
                solve_candidate(inst, vertex)
            kinds["degenerate"] += 1
            continue
        assert plcp_to_uso(inst) == want, inst
        kinds["orientation"] += 1
    assert min(kinds.values()) > 150, kinds


def test_the_rank_test_carries_the_shortcut():
    """No zero entry and every 2x2 principal minor 51/50, yet det M < 0: the reciprocal has rank 3, so the signs alone decide nothing."""
    c = Fraction(1, 100)
    m = RationalMatrix([[1, -2, c], [c, 1, -2], [-2, c, 1]])
    for s, t in ((0, 1), (0, 2), (1, 2)):
        assert m[s, s] * m[t, t] - m[s, t] * m[t, s] == Fraction(51, 50)
    assert _det([list(row) for row in m.rows]) < 0
    assert not is_p_matrix(m) and not _tree_is_p_matrix(m)
    with pytest.raises(ValueError, match=r"is negative for S = \[1, 2, 3\]$"):
        plcp_to_uso(PLCPInstance(3, m, (Fraction(1), Fraction(2), Fraction(3))))
