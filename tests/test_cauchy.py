"""The Cauchy route: the LCP orientation of an extension's own instance from 1x1 and 2x2 signs.

The pivot tree (``plcp_to_uso``, ``is_p_matrix``) is the independent
witness throughout: the route must return its orientation, and refuse
exactly the matrices it refuses.  A direct solve (``solve_candidate``)
is the witness of the closed-form basic values that certify the sink.
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
    cauchy_to_uso,
    extension_to_uso,
    global_sink,
    is_branching_closure,
    is_p_matrix,
    plcp_to_uso,
    solve_candidate,
    synthesize_extension,
    translate_to_plcp,
)
from usomat.plcp import CandidateSolution, _cauchy_solution
from usomat.random_facet import FAMILIES
from oracles import _det, all_branchings


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
    return cauchy_to_uso(ext, translate_to_plcp(ext))


def _family(name: str, n: int) -> CyclicExtension:
    return synthesize_extension(is_branching_closure(FAMILIES[name](n)))


def test_same_orientation_as_the_pivot_tree_on_every_branching_up_to_n5():
    count = 0
    for n in range(1, 6):
        for b in all_branchings(n):
            ext = synthesize_extension(b)
            assert _own(ext) == plcp_to_uso(translate_to_plcp(ext)), b
            count += 1
    assert count == 1441


def test_same_orientation_as_the_pivot_tree_on_seeded_branchings_up_to_n8():
    rng = random.Random(20261020)
    for _ in range(60):
        ext = synthesize_extension(_random_branching(rng, rng.randint(6, 8)))
        assert _own(ext) == plcp_to_uso(translate_to_plcp(ext)), ext


def test_pair_rule_refuses_exactly_what_the_pivot_tree_refuses():
    """Seeded (order, F) with n <= 6: the first nonpositive 1x1 or 2x2 minor is named, else the tree's orientation."""
    rng = random.Random(27)
    accepted = refused = 0
    for _ in range(3000):
        ext = _random_extension(rng, rng.randint(1, 6))
        inst = translate_to_plcp(ext)
        if is_p_matrix(inst.M):
            assert cauchy_to_uso(ext, inst) == plcp_to_uso(inst), ext
            accepted += 1
            continue
        with pytest.raises(ValueError, match=r"^M is not a P-matrix: det\(M\[S, S\]\) is negative for S = ") as info:
            cauchy_to_uso(ext, inst)
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
    assert not is_p_matrix(translate_to_plcp(ext).M)


def test_own_instances_never_reach_the_pivot_tree(monkeypatch):
    import usomat.plcp

    def walk(*args):
        raise AssertionError("the pivot tree ran")

    monkeypatch.setattr(usomat.plcp, "_pivot_tree", walk)
    for name in ("path", "star", "merged"):
        for n in (1, 5, 10):
            if is_branching_closure(FAMILIES[name](n)) is not None:
                ext = _family(name, n)
                assert _own(ext) == extension_to_uso(ext)


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
    import usomat.plcp

    ext, other = _family("path", 6), _family("star", 6)
    inst = translate_to_plcp(other)
    calls = []
    real = usomat.plcp.plcp_to_uso
    monkeypatch.setattr(usomat.plcp, "plcp_to_uso", lambda i: calls.append(i) or real(i))
    assert cauchy_to_uso(ext, inst) == real(inst) == extension_to_uso(other)
    assert calls == [inst]
    # a matrix the pivot tree refuses is refused in its words
    bad = PLCPInstance(2, RationalMatrix([[1, 2], [2, 1]]), (Fraction(-1), Fraction(-2)))
    with pytest.raises(ValueError, match=r"is negative for S = \[1, 2\]"):
        cauchy_to_uso(_family("path", 2), bad)


def _with_entry(inst: PLCPInstance, j: int, t: int, value: Fraction) -> PLCPInstance:
    rows = [list(row) for row in inst.M.rows]
    rows[j][t] = value
    return PLCPInstance(inst.n, RationalMatrix(rows), inst.q)


def test_a_foreign_instance_past_the_cap_names_the_first_differing_entry(monkeypatch):
    import usomat.plcp

    def tree(inst):
        raise AssertionError("plcp_to_uso ran past the table cap")

    monkeypatch.setattr(usomat.plcp, "plcp_to_uso", tree)
    n = MAX_DIMENSION + 4
    ext = _family("path", n)
    inst = translate_to_plcp(ext)
    want = inst.M[6, 2]
    one = _with_entry(inst, 6, 2, want + 1)
    for changed in (one, _with_entry(one, 9, 0, Fraction(0))):
        with pytest.raises(ValueError) as info:
            cauchy_to_uso(ext, changed)
        assert str(info.value) == (
            f"M is not the extension's Cauchy matrix: M[7, 3] is {want + 1}, the closed form gives {want}"
        )
    moved_q = PLCPInstance(n, inst.M, inst.q[:-1] + (-inst.q[-1],))
    with pytest.raises(ValueError, match=rf"^M is not the extension's Cauchy matrix: q\[{n}\] is "):
        cauchy_to_uso(ext, moved_q)
    with pytest.raises(ValueError, match=rf"the instance has n = {n}, the extension n = {n + 1}$"):
        cauchy_to_uso(_family("path", n + 1), inst)


def _sink(ext: CyclicExtension) -> int:
    return global_sink(extension_to_uso(ext))


def test_closed_form_values_equal_a_direct_solve_on_every_branching_up_to_n5():
    """At the sink and at one seeded vertex of every branching: each value is the same Fraction."""
    rng = random.Random(5)
    count = 0
    for n in range(1, 6):
        for b in all_branchings(n):
            ext = synthesize_extension(b)
            inst = translate_to_plcp(ext)
            for v in (_sink(ext), rng.randrange(1 << n)):
                assert _cauchy_solution(ext, inst, v) == solve_candidate(inst, v), (b, v)
            count += 1
    assert count == 1441


@pytest.mark.parametrize("n", [8, 12, 16])
def test_closed_form_values_equal_a_direct_solve_on_seeded_branchings(n):
    rng = random.Random(n)
    for _ in range(4):
        ext = synthesize_extension(_random_branching(rng, n))
        inst = translate_to_plcp(ext)
        sink = _sink(ext)
        assert _cauchy_solution(ext, inst, sink).feasible
        for v in (sink, rng.randrange(1 << n)):
            assert _cauchy_solution(ext, inst, v) == solve_candidate(inst, v), (ext, v)


def test_the_sink_is_certified_by_w_minus_mz_equals_q(monkeypatch):
    """A closed-form value that is off, with its sign kept, fails its row of w - M z = q, and that row is named."""
    import usomat.plcp

    real = usomat.plcp._cauchy_solution
    ext = _family("star", 4)
    sink = _sink(ext)
    r = max(i for i in range(4) if not sink >> i & 1)  # w_r is basic, so doubling it breaks row r + 1 alone
    assert r > 0

    def doubled(e, inst, v):
        sol = real(e, inst, v)
        return CandidateSolution(v, sol.w[:r] + (2 * sol.w[r],) + sol.w[r + 1 :], sol.z)

    monkeypatch.setattr(usomat.plcp, "_cauchy_solution", doubled)
    with pytest.raises(ArithmeticError, match=rf"^the basic values at vertex {sink} fail row {r + 1} of w - M z = q$"):
        _own(ext)


def test_a_negative_closed_form_value_is_reported(monkeypatch):
    import usomat.plcp

    real = usomat.plcp._cauchy_solution

    def negated(e, inst, v):
        sol = real(e, inst, v)
        return CandidateSolution(v, tuple(-x for x in sol.w), tuple(-x for x in sol.z))

    monkeypatch.setattr(usomat.plcp, "_cauchy_solution", negated)
    ext = _family("path", 3)
    want = f"^Cauchy signs and the sink's basic values disagree at vertex {_sink(ext)}$"
    with pytest.raises(ArithmeticError, match=want):
        _own(ext)


def test_own_instances_never_reach_solve_matrix(monkeypatch):
    def solve(*args):
        raise AssertionError("a linear solve ran")

    monkeypatch.setattr(RationalMatrix, "solve_matrix", solve)
    for name in ("path", "star", "merged"):
        for n in (1, 5, 10, 64):
            if is_branching_closure(FAMILIES[name](n)) is not None:
                ext = _family(name, n)
                assert _own(ext) == extension_to_uso(ext)


def test_a_size_mismatch_is_refused_within_the_cap():
    """An instance of another n is refused by name, not sent to the pivot tree, whose cube would have its n."""
    ext, inst = _family("path", 6), translate_to_plcp(_family("path", 4))
    with pytest.raises(ValueError) as info:
        cauchy_to_uso(ext, inst)
    assert str(info.value) == "M is not the extension's Cauchy matrix: the instance has n = 4, the extension n = 6"
