"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written the slow, obvious way, without
reusing library internals beyond plain data access.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Iterable, Sequence

from usomat import (
    CyclicExtension,
    CyclicInfluence,
    InfluenceGraph,
    NotMatousekType,
    Orientation,
    PLCPInstance,
    Q,
    RationalMatrix,
    solve_candidate,
)

P_MATROID_BRUTE_FORCE_CAP = 8  # n 2^(n-1) almost-complementary supports
CIRCUIT_AXIOM_CAP = 3  # full circuit list has 2 C(2n+1, n+1) members


def edge_consistent_scan(o: Orientation) -> bool:
    """Each cube edge claimed by exactly one endpoint, by direct loop."""
    for v in range(1 << o.n):
        for d in range(1, o.n + 1):
            bit = 1 << (d - 1)
            here = bool(o.outmaps[v] & bit)
            there = bool(o.outmaps[v ^ bit] & bit)
            if here == there:
                return False
    return True


def szabo_welzl_pairs(o: Orientation) -> bool:
    """Pairwise USO condition: differing coordinates must see differing outmaps."""
    size = 1 << o.n
    for v in range(size):
        for w in range(v + 1, size):
            if not (v ^ w) & (o.outmaps[v] ^ o.outmaps[w]):
                return False
    return True


def extract_influence_graph_by_scan(o: Orientation) -> InfluenceGraph:
    """Every vertex's flip pattern in every dimension against the pattern at vertex 0.

    Raises like the library: ``ValueError`` for a table that is not an
    orientation, ``NotMatousekType`` for a varying pattern and
    ``CyclicInfluence`` for a constant one with a non-loop cycle.
    """
    if not edge_consistent_scan(o):
        raise ValueError("outmap table is not an orientation")
    n = o.n
    rows = []
    for d in range(1, n + 1):
        bit = 1 << (d - 1)
        pattern = o.outmaps[0] ^ o.outmaps[bit]
        for v in range(1 << n):
            if o.outmaps[v] ^ o.outmaps[v ^ bit] != pattern:
                raise NotMatousekType(f"flip pattern of dimension {d} varies across vertices")
        rows.append(pattern)
    # reach[d]: dimensions reachable from d along one or more non-loop edges
    reach = [row & ~(1 << d) for d, row in enumerate(rows)]
    for _ in range(n):
        for d in range(n):
            for e in range(n):
                if reach[d] >> e & 1:
                    reach[d] |= reach[e]
    if any(reach[d] >> d & 1 for d in range(n)):
        raise CyclicInfluence("constant flip pattern but cyclic")
    return InfluenceGraph.from_rows(n, rows)


def brute_force_sink(o: Orientation) -> int:
    sinks = [v for v in range(1 << o.n) if o.outmaps[v] == 0]
    assert len(sinks) == 1, f"expected one sink, found {sinks}"
    return sinks[0]


def _det(rows: list[list[Fraction]]) -> Fraction:
    """Cofactor-expansion determinant, independent of the library solver."""
    k = len(rows)
    if k == 1:
        return rows[0][0]
    total = Fraction(0)
    for j in range(k):
        if rows[0][j] == 0:
            continue
        minor = [[row[c] for c in range(k) if c != j] for row in rows[1:]]
        term = rows[0][j] * _det(minor)
        total += term if j % 2 == 0 else -term
    return total


def is_p_matrix_by_minors(m: RationalMatrix) -> bool:
    """Every principal minor positive, each by its own cofactor expansion."""
    n = m.nrows
    for size in range(1, n + 1):
        for idx in combinations(range(n), size):
            if _det([[m[i, j] for j in idx] for i in idx]) <= 0:
                return False
    return True


def plcp_to_uso_per_vertex(instance: PLCPInstance) -> Orientation:
    """One fresh exact solve per vertex: pair i is outgoing when its basic value is negative."""
    n = instance.n
    table = []
    for v in range(1 << n):
        sol = solve_candidate(instance, v)
        out = 0
        for i in range(n):
            val = sol.z[i] if v >> i & 1 else sol.w[i]
            if val < 0:
                out |= 1 << i
        table.append(out)
    return Orientation(n, tuple(table))


def kernel_signs(columns: list[list[Fraction]]) -> list[int]:
    """Signs of the one-dimensional kernel of an n x (n+1) column list.

    Component j of the kernel vector is (-1)^j times the determinant of
    the matrix with column j removed (Cramer).  Returned up to global
    negation; callers normalize.
    """
    n = len(columns[0])
    assert len(columns) == n + 1
    signs = []
    for j in range(n + 1):
        kept = [columns[c] for c in range(n + 1) if c != j]
        rows = [[kept[c][r] for c in range(n)] for r in range(n)]
        d = _det(rows)
        value = d if j % 2 == 0 else -d
        signs.append(0 if value == 0 else (1 if value > 0 else -1))
    return signs


def unique_sink_every_face_scan(o: Orientation) -> bool:
    """All 3^n faces, generated by choosing a spanning set then a position."""
    n = o.n
    dims = range(1, n + 1)
    for r in range(n + 1):
        for span_dims in combinations(dims, r):
            span = 0
            for d in span_dims:
                span |= 1 << (d - 1)
            co = ((1 << n) - 1) ^ span
            fixed = co
            positions = []
            sub = co
            while True:
                positions.append(sub)
                if sub == 0:
                    break
                sub = (sub - 1) & co
            for pos in positions:
                sinks = 0
                sub = span
                while True:
                    v = pos | sub
                    if o.outmaps[v] & span == 0:
                        sinks += 1
                    if sub == 0:
                        break
                    sub = (sub - 1) & span
                if sinks != 1:
                    return False
    return True


# -- circuits of a cyclic extension, read off one support at a time ----------


@dataclass(frozen=True)
class SignedSet:
    """A pair of disjoint element sets carrying + and - signs."""

    plus: frozenset
    minus: frozenset

    def __post_init__(self) -> None:
        if self.plus & self.minus:
            raise ValueError("signed set has overlapping plus and minus parts")

    @property
    def support(self) -> frozenset:
        return self.plus | self.minus

    def __neg__(self) -> "SignedSet":
        return SignedSet(self.minus, self.plus)

    def sign(self, e) -> int:
        if e in self.plus:
            return 1
        if e in self.minus:
            return -1
        return 0


def read_off_signs(ext: CyclicExtension, support: Iterable) -> SignedSet:
    """Circuit signs on a support: alternate along the position order, flip F.

    Starts with + at the smallest position; callers that need a particular
    normalisation negate afterwards.
    """
    ordered = sorted(support, key=ext.position.__getitem__)
    plus, minus = set(), set()
    for k, e in enumerate(ordered):
        positive = k % 2 == 0
        if e in ext.flipped:
            positive = not positive
        (plus if positive else minus).add(e)
    return SignedSet(frozenset(plus), frozenset(minus))


def fundamental_circuit(ext: CyclicExtension, basis: Iterable, e) -> SignedSet:
    """The circuit supported on basis + {e}, normalised so that e is positive.

    The matroid is uniform of rank n, so every n-element set is a basis and
    every (n+1)-element support carries exactly one circuit up to negation.
    """
    base = frozenset(basis)
    if len(base) != ext.n:
        raise ValueError(f"basis must have {ext.n} elements, got {len(base)}")
    if e in base:
        raise ValueError(f"extending element {e!r} already lies in the basis")
    circuit = read_off_signs(ext, base | {e})
    return circuit if e in circuit.plus else -circuit


def is_p_matroid(ext: CyclicExtension) -> bool:
    """Brute-force search for an almost-complementary sign-reversing circuit.

    Enumerates every support containing exactly one complementary pair (the
    pair itself plus one member of each remaining pair) and reads off its
    signs; q never participates.  Must agree with validate_conditions.
    """
    n = ext.n
    if n > P_MATROID_BRUTE_FORCE_CAP:
        raise ValueError(f"brute force capped at n={P_MATROID_BRUTE_FORCE_CAP}")
    for i in range(1, n + 1):
        others = [j for j in range(1, n + 1) if j != i]
        for picks in product((0, n), repeat=n - 1):
            support = {i, i + n}
            support.update(j + off for j, off in zip(others, picks))
            circuit = read_off_signs(ext, support)
            if (i in circuit.plus) != (i + n in circuit.plus):
                return False
    return True


def extension_to_uso_by_circuits(ext: CyclicExtension) -> Orientation:
    """The induced orientation, one fundamental circuit through q per vertex.

    Vertex v keeps the pair elements {i : i not in v} + {i+n : i in v} as its
    basis; the circuit (normalised q-positive) marks dimension i outgoing when
    the pair member in the support is negative.  Rejects non-P-matroids by the
    brute-force circuit search.
    """
    if not is_p_matroid(ext):
        raise ValueError("extension is not a P-matroid")
    n = ext.n
    table = []
    for v in range(1 << n):
        basis = frozenset(i + n if v >> (i - 1) & 1 else i for i in range(1, n + 1))
        circuit = fundamental_circuit(ext, basis, Q)
        out = 0
        for e in circuit.minus:
            if e != Q:
                i = e if e <= n else e - n
                out |= 1 << (i - 1)
        table.append(out)
    return Orientation(n, tuple(table))


def all_circuits(ext: CyclicExtension) -> list[SignedSet]:
    """Every circuit of the extension: both sign choices on all (n+1)-supports."""
    ground = list(range(1, 2 * ext.n + 1)) + [Q]
    out = []
    for support in combinations(ground, ext.n + 1):
        c = read_off_signs(ext, support)
        out.append(c)
        out.append(-c)
    return out


def axioms_hold(circuits: Sequence[SignedSet]) -> bool:
    """Circuit axioms on an explicit list: nonempty supports, symmetry,
    support incomparability, weak elimination."""
    pool = set(circuits)
    for c in circuits:
        if not c.support:
            return False  # C0
        if -c not in pool:
            return False  # C1
    for x in circuits:
        for y in circuits:
            if x.support <= y.support and x not in (y, -y):
                return False  # C2
    for x in circuits:
        for y in circuits:
            if x == -y:
                continue
            for e in x.plus & y.minus:
                allowed_plus = (x.plus | y.plus) - {e}
                allowed_minus = (x.minus | y.minus) - {e}
                if not any(
                    z.plus <= allowed_plus and z.minus <= allowed_minus
                    for z in circuits
                ):
                    return False  # C3
    return True


def verify_circuit_axioms(ext: CyclicExtension) -> bool:
    """Check the circuit axioms on the full read-off circuit list (tiny n only)."""
    if ext.n > CIRCUIT_AXIOM_CAP:
        raise ValueError(f"axiom enumeration capped at n={CIRCUIT_AXIOM_CAP}")
    return axioms_hold(all_circuits(ext))
