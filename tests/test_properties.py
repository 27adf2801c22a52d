"""Randomized invariant checks over generated graphs and orientations."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from usomat import (
    CyclicExtension,
    InfluenceGraph,
    Orientation,
    build_matousek,
    canonicalize,
    extension_to_uso,
    extract_influence_graph,
    find_forbidden,
    flip_facet,
    global_sink,
    is_branching_closure,
    is_uso,
    random_facet,
    synthesize_extension,
)
from usomat.matroid import validate_conditions
from usomat.plcp import RationalMatrix, parse_fraction, format_fraction
from oracles import (
    Isomorphism,
    _det,
    apply_isomorphism,
    brute_force_sink,
    fundamental_circuit,
    szabo_welzl_pairs,
)


@st.composite
def influence_graphs(draw, max_n: int = 5) -> InfluenceGraph:
    """A random acyclic influence graph: forward edges of a random order."""
    n = draw(st.integers(1, max_n))
    order = draw(st.permutations(range(1, n + 1)))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                edges.append((order[i], order[j]))
    return InfluenceGraph(n, edges)


@st.composite
def branchings(draw, max_n: int = 5):
    from usomat import Branching

    n = draw(st.integers(1, max_n))
    order = draw(st.permutations(range(1, n + 1)))
    parent = {}
    for i in range(1, n):
        choice = draw(st.integers(0, i))
        if choice:
            parent[order[i]] = order[choice - 1]
    return Branching(n, parent)


@given(influence_graphs())
def test_build_always_uso(g):
    o = build_matousek(g)
    assert is_uso(o)
    assert szabo_welzl_pairs(o)


@given(influence_graphs())
def test_sink_always_origin(g):
    assert global_sink(build_matousek(g)) == 0


@given(influence_graphs())
def test_extract_round_trip(g):
    assert extract_influence_graph(build_matousek(g)) == g


@given(influence_graphs())
def test_canonicalize_idempotent(g):
    o = build_matousek(g)
    assert canonicalize(o) == o  # sink already at the origin
    mirrored = apply_isomorphism(o, Isomorphism.mirror_only((1 << o.n) - 1, o.n))
    assert canonicalize(mirrored) == o


@given(influence_graphs(max_n=4), st.integers(0, 1 << 20))
def test_isomorphism_preserves_uso(g, bits):
    o = build_matousek(g)
    mirror = bits & ((1 << o.n) - 1)
    iso = Isomorphism.mirror_only(mirror, o.n)
    assert is_uso(apply_isomorphism(o, iso))


@given(influence_graphs(max_n=4), st.integers(1, 4), st.booleans())
def test_flip_facet_involution(g, d, upper):
    o = build_matousek(g)
    if d > o.n:
        d = 1 + (d - 1) % o.n
    once = flip_facet(o, d, upper)
    assert flip_facet(once, d, upper) == o


@given(influence_graphs(max_n=4), st.integers(0, 2**32 - 1))
def test_random_facet_finds_the_sink(g, seed):
    o = build_matousek(g)
    res = random_facet(o, seed=seed)
    assert res.sink == brute_force_sink(o)
    assert res.evaluations <= 1 << o.n


@given(branchings())
def test_closure_round_trip(b):
    g = b.transitive_closure()
    assert find_forbidden(g) is None
    recovered = is_branching_closure(g)
    assert recovered == b


@given(branchings(max_n=4))
def test_synthesized_extension_realizes(b):
    ext = synthesize_extension(b)
    assert validate_conditions(ext)
    assert canonicalize(extension_to_uso(ext)) == build_matousek(b.transitive_closure())


@given(branchings(max_n=3), st.integers(0, 2**20))
def test_circuit_negation(b, bits):
    ext = synthesize_extension(b)
    n = ext.n
    basis = frozenset(i + n if bits >> (i - 1) & 1 else i for i in range(1, n + 1))
    for e in sorted(set(range(1, 2 * n + 1)) - basis):
        c = fundamental_circuit(ext, basis, e)
        assert e in c.plus
        assert c.support <= basis | {e}
        neg = -c
        assert neg.plus == c.minus and neg.minus == c.plus


@given(
    st.fractions(
        min_value=Fraction(-1000), max_value=Fraction(1000), max_denominator=999
    )
)
def test_fraction_text_round_trip(x):
    assert parse_fraction(format_fraction(x)) == x


@given(st.integers(1, 4), st.data())
def test_matrix_solve_verifies(size, data):
    entries = data.draw(
        st.lists(
            st.fractions(min_value=Fraction(-9), max_value=Fraction(9), max_denominator=7),
            min_size=size * size,
            max_size=size * size,
        )
    )
    m = RationalMatrix(
        tuple(tuple(entries[i * size + j] for j in range(size)) for i in range(size))
    )
    rhs = tuple(Fraction(k + 1) for k in range(size))
    if _det([list(row) for row in m.rows]) == 0:
        return
    x = m.solve(rhs)
    for i in range(size):
        assert sum(m[i, j] * x[j] for j in range(size)) == rhs[i]


@settings(max_examples=25)
@given(influence_graphs(max_n=3))
def test_realizable_graphs_round_trip_through_plcp(g):
    from usomat.plcp import plcp_to_uso, realization_matrix, translate_to_plcp

    b = is_branching_closure(g)
    if b is None:
        return
    ext = synthesize_extension(b)
    inst = translate_to_plcp(realization_matrix(ext), ext)
    assert canonicalize(plcp_to_uso(inst)) == build_matousek(g)
