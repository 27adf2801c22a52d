"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written the slow, obvious way, without
reusing library internals beyond plain data access.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from usomat import (
    MAX_DIMENSION,
    Branching,
    CyclicExtension,
    CyclicInfluence,
    Face,
    ForbiddenWitness,
    InfluenceGraph,
    NotMatousekType,
    Orientation,
    PLCPInstance,
    Q,
    RationalMatrix,
    TrialStats,
    build_matousek,
    family_graph,
    find_forbidden,
    global_sink,
    is_branching_closure,
    is_uso,
    mask_to_dims,
    random_facet,
    solve_candidate,
)
from usomat.enumeration import dag_blocks

P_MATROID_BRUTE_FORCE_CAP = 8  # n 2^(n-1) almost-complementary supports
CIRCUIT_AXIOM_CAP = 3  # full circuit list has 2 C(2n+1, n+1) members


@dataclass(frozen=True)
class Isomorphism:
    """Mirror along the dimensions in ``mirror``, then relabel by a permutation.

    ``relabel[d-1]`` is the image of dimension d.  The transformed orientation
    o' satisfies  relabel(o(v)) = o'(relabel(v xor mirror))  for every vertex.
    """

    mirror: int
    relabel: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.relabel)
        if sorted(self.relabel) != list(range(1, n + 1)):
            raise ValueError(f"relabel {self.relabel} is not a permutation of 1..{n}")
        if self.mirror & ~((1 << n) - 1):
            raise ValueError("mirror set uses dimensions outside the permutation")

    @classmethod
    def identity(cls, n: int) -> "Isomorphism":
        return cls(0, tuple(range(1, n + 1)))

    @classmethod
    def mirror_only(cls, mirror: int, n: int) -> "Isomorphism":
        return cls(mirror, tuple(range(1, n + 1)))

    def apply_to_mask(self, mask: int) -> int:
        out = 0
        for d, image in enumerate(self.relabel, start=1):
            if mask >> (d - 1) & 1:
                out |= 1 << (image - 1)
        return out


def apply_isomorphism(o: Orientation, iso: Isomorphism) -> Orientation:
    """Mirror and relabel an orientation's table, vertex by vertex; preserves the USO property."""
    if len(iso.relabel) != o.n:
        raise ValueError(f"isomorphism is on {len(iso.relabel)} dimensions, cube has {o.n}")
    size = 1 << o.n
    table = [0] * size
    for v in range(size):
        table[iso.apply_to_mask(v ^ iso.mirror)] = iso.apply_to_mask(o.outmaps[v])
    return Orientation(o.n, tuple(table))


def transitive_closure(g: InfluenceGraph) -> InfluenceGraph:
    """Add d -> e whenever e is reachable from d, by repeated row unions."""
    rows = list(g.rows)
    changed = True
    while changed:
        changed = False
        for d in range(g.n):
            acc = rows[d]
            for e in range(g.n):
                if e != d and rows[d] >> e & 1:
                    acc |= rows[e]
            if acc != rows[d]:
                rows[d] = acc
                changed = True
    return InfluenceGraph.from_rows(g.n, rows)


def identity_matrix(k: int) -> RationalMatrix:
    return RationalMatrix([[1 if i == j else 0 for j in range(k)] for i in range(k)])


def orientation_from_rows(n: int, rows: Iterable[int]) -> Orientation:
    """The edge-flip orientation of any rows, loop bits added; a USO exactly when they are acyclic."""
    return Orientation.from_rows(n, 0, InfluenceGraph.from_rows(n, rows).rows)


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


def matousek_rows_by_rebuild(table: Sequence[int]) -> tuple[int, tuple[int, ...], int | None]:
    """o(0), the flip rows o(0) xor o({d}), and the first vertex where they fail to rebuild the table.

    The whole table is rebuilt from the rows by XOR doubling and compared
    entry by entry; the vertex is None when the rebuild is the table.
    """
    base = table[0]
    rows = tuple(base ^ table[1 << d] for d in range(len(table).bit_length() - 1))
    rebuilt = [base]
    for row in rows:
        rebuilt += [out ^ row for out in rebuilt]
    mismatch = next((v for v, (a, b) in enumerate(zip(rebuilt, table)) if a != b), None)
    return base, rows, mismatch


def sink_by_scan(o: Orientation) -> int:
    """The only vertex with an empty outmap, or the ValueError naming none or the two lowest."""
    sinks = [v for v in range(1 << o.n) if o.outmaps[v] == 0]
    if not sinks:
        raise ValueError("no vertex has an empty outmap")
    if len(sinks) > 1:
        raise ValueError(f"multiple sinks: {sinks[0]} and {sinks[1]}")
    return sinks[0]


def brute_force_sink(o: Orientation) -> int:
    sinks = [v for v in range(1 << o.n) if o.outmaps[v] == 0]
    assert len(sinks) == 1, f"expected one sink, found {sinks}"
    return sinks[0]


def random_facet_by_memo(
    o: Orientation, start: int, seed: int | np.random.SeedSequence
) -> tuple[int, int]:
    """Random Facet as the plain recursion, counting distinct vertices in a memo.

    Draws the same picks as ``usomat.random_facet``: one numpy float64
    uniform per nonempty face from a PCG64 generator, read in blocks of 256
    (the library's block size differs, the values do not), index
    ``min(int(u * k), k - 1)`` into the face's dimensions in increasing
    order.  Returns (sink, evaluations) or raises the library's
    ``ValueError`` when the search ends on a vertex with a nonempty outmap.
    """
    entropy = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    rng = np.random.Generator(np.random.PCG64(entropy))
    buf = rng.random(256)
    used = 0
    evaluated: dict[int, int] = {}

    def pick(k: int) -> int:
        nonlocal buf, used
        if used == len(buf):
            buf = rng.random(256)
            used = 0
        u = buf[used]
        used += 1
        return min(int(u * k), k - 1)

    def evaluate(v: int) -> int:
        if v not in evaluated:
            evaluated[v] = o.outmaps[v]
        return evaluated[v]

    def solve(span: tuple[int, ...], v: int) -> int:
        if not span:
            evaluate(v)
            return v
        idx = pick(len(span))
        d = span[idx]
        rest = span[:idx] + span[idx + 1 :]
        w = solve(rest, v)
        bit = 1 << (d - 1)
        if not evaluate(w) & bit:
            return w
        return solve(rest, w ^ bit)

    sink = solve(tuple(range(1, o.n + 1)), start)
    if evaluated[sink]:
        raise ValueError(f"search ended on vertex {sink} with a nonempty outmap: not a USO")
    return sink, len(evaluated)


def run_trials_by_seedsequence(
    family: str, n_list: Sequence[int], trials: int, seed: int
) -> list[TrialStats]:
    """``usomat.run_trials`` with a fresh ``SeedSequence((seed, t))`` per trial.

    The library computes the same seeding words for a block of trials in
    one numpy pass and runs large blocks in lockstep, on rows; this is the
    per-trial loop it replaced, reading the table up to n = MAX_DIMENSION.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    out = []
    for n in n_list:
        o = build_matousek(family_graph(family, n))
        if n <= MAX_DIMENSION:
            o.outmaps
        sink = global_sink(o)
        start = sink ^ ((1 << n) - 1)
        total = squares = high = 0
        low = 1 << n
        for t in range(trials):
            res = random_facet(o, start, np.random.SeedSequence((seed, t)))
            if res.sink != sink:
                raise RuntimeError(f"run {t} on n={n} returned {res.sink}, sink is {sink}")
            x = res.evaluations
            total += x
            squares += x * x
            low = min(low, x)
            high = max(high, x)
        out.append(
            TrialStats(
                family=family,
                n=n,
                trials=trials,
                seed=seed,
                mean=total / trials,
                stddev=math.sqrt(Fraction(trials * squares - total * total, trials * trials)),
                min=low,
                max=high,
            )
        )
    return out


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


def realization_matrix(
    ext: CyclicExtension, abscissae: Optional[Sequence[Fraction | int]] = None
) -> RationalMatrix:
    """Moment-curve vectors of all 2n+1 elements, flip-set columns negated.

    Column order is 1..n, n+1..2n, q.  The element on position p sits at
    parameter abscissae[p-1] (default p) and contributes the powers
    1, x, ..., x^(n-1).
    """
    n = ext.n
    if abscissae is None:
        xs = [Fraction(p) for p in range(1, 2 * n + 2)]
    else:
        xs = [Fraction(x) for x in abscissae]
        if len(xs) != 2 * n + 1:
            raise ValueError(f"need {2 * n + 1} abscissae, got {len(xs)}")
        if any(a >= b for a, b in zip(xs, xs[1:])):
            raise ValueError("abscissae must be strictly increasing")
    position = ext.position
    cols = []
    for e in list(range(1, 2 * n + 1)) + [Q]:
        x = xs[position[e] - 1]
        sign = -1 if e in ext.flipped else 1
        cols.append([sign * x**k for k in range(n)])
    return RationalMatrix([[cols[j][i] for j in range(2 * n + 1)] for i in range(n)])


def translate_by_elimination(v: RationalMatrix, ext: Optional[CyclicExtension] = None) -> PLCPInstance:
    """Fold a realization matrix into (M, q) by eliminating its first block.

    With V = [V_S | V_T | v_q] split after columns n and 2n, the basis
    change to the first block gives M = -V_S^{-1} V_T and q = -V_S^{-1} v_q.
    Passing the source extension just adds a dimension cross-check.
    """
    n = v.nrows
    if v.ncols != 2 * n + 1:
        raise ValueError(f"realization matrix must be {n}x{2 * n + 1}")
    if ext is not None and ext.n != n:
        raise ValueError(f"extension has n={ext.n}, matrix has n={n}")
    v_s = RationalMatrix(row[:n] for row in v.rows)
    folded = v_s.solve_matrix([[-x for x in row[n:]] for row in v.rows]).rows
    return PLCPInstance(n, RationalMatrix(row[:n] for row in folded), tuple(row[n] for row in folded))


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


def find_forbidden_by_triples(g: InfluenceGraph) -> ForbiddenWitness | None:
    """The first forbidden pattern by a triple loop over dimensions, G1 before G2."""
    n = g.n
    for x in range(1, n + 1):
        for y in range(1, n + 1):
            if y == x or not g.has_edge(x, y):
                continue
            for z in range(1, n + 1):
                if z in (x, y):
                    continue
                if g.has_edge(y, z) and not g.has_edge(x, z):
                    return ForbiddenWitness("G1", (x, y, z))
    for x in range(1, n + 1):
        for y in range(1, n + 1):
            if y == x or not g.has_edge(y, x):
                continue
            for z in range(y + 1, n + 1):
                if z == x or not g.has_edge(z, x):
                    continue
                if not g.has_edge(y, z) and not g.has_edge(z, y):
                    return ForbiddenWitness("G2", (x, y, z))
    return None


def holt_klee_by_paths(o: Orientation, face: Face) -> bool:
    """Holt-Klee on a 3-face: every simple source-to-sink path, then a triple with disjoint interiors."""
    if face.dimension != 3:
        raise ValueError(f"Holt-Klee screening needs a 3-face, got dimension {face.dimension}")
    if face.fixed | face.spanning >= 1 << o.n:
        raise ValueError(f"face {face} leaves the {o.n}-cube")
    span = face.spanning
    sources = [v for v in face.vertices() if o.outmap(v) & span == span]
    sinks = [v for v in face.vertices() if not o.outmap(v) & span]
    if len(sources) != 1 or len(sinks) != 1:
        raise ValueError("face restriction must have a unique source and sink")
    src, dst = sources[0], sinks[0]
    paths = []

    def walk(path: list[int]) -> None:
        v = path[-1]
        if v == dst:
            paths.append(tuple(path))
            return
        for d in mask_to_dims(span):
            w = v ^ (1 << (d - 1))
            if o.outmap(v) >> (d - 1) & 1 and w not in path:
                walk(path + [w])

    walk([src])
    interiors = [frozenset(p[1:-1]) for p in paths]
    return any(not (a & b or a & c or b & c) for a, b, c in combinations(interiors, 3))


def containment_graph_by_positions(ext: CyclicExtension) -> InfluenceGraph:
    """Edge (i, j) when both members of pair j sit strictly inside pair i's interval.

    Reads positions only and checks no condition, so it answers on invalid
    extensions too.
    """
    n = ext.n
    pos = ext.position
    edges = []
    for i in range(1, n + 1):
        a, b = sorted((pos[i], pos[i + n]))
        for j in range(1, n + 1):
            if j != i and a < pos[j] < b and a < pos[j + n] < b:
                edges.append((i, j))
    return InfluenceGraph(n, edges)


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


# -- exhaustive generators, by filtering ------------------------------------


def all_dags(n: int) -> Iterator[InfluenceGraph]:
    """Every acyclic digraph on vertices 1..n, each exactly once: the lines of ``dag_blocks``."""
    for rows in dag_blocks(n):
        for line in rows.tolist():
            yield InfluenceGraph.from_rows(n, line)


def all_dags_by_orders(n: int) -> Iterator[InfluenceGraph]:
    """Every acyclic digraph on 1..n: each topological order times each
    forward-edge subset, with repeats dropped by edge bitmask."""
    if n < 1:
        raise ValueError("need at least one vertex")
    pair_bit = {}
    for d in range(1, n + 1):
        for d2 in range(1, n + 1):
            if d != d2:
                pair_bit[d, d2] = len(pair_bit)
    seen: set[int] = set()
    for perm in permutations(range(1, n + 1)):
        forward = [
            pair_bit[perm[i], perm[j]]
            for i in range(n)
            for j in range(i + 1, n)
        ]
        for subset in range(1 << len(forward)):
            mask = 0
            rest = subset
            while rest:
                low = rest & -rest
                mask |= 1 << forward[low.bit_length() - 1]
                rest ^= low
            if mask in seen:
                continue
            seen.add(mask)
            edges = [pair for pair, b in pair_bit.items() if mask >> b & 1]
            yield InfluenceGraph(n, edges)


def census_by_graphs(n: int) -> dict:
    """The counts of ``usomat enumerate --n n``, one graph at a time through the scalar predicates."""
    dags = uso_failures = realizable = mismatches = 0
    for g in all_dags_by_orders(n):
        dags += 1
        # build_matousek's orientation, without its own acyclicity check: is_uso decides that
        if not is_uso(Orientation.from_rows(g.n, 0, g.rows)):
            uso_failures += 1
        witness_free = find_forbidden(g) is None
        branching = is_branching_closure(g) is not None
        if witness_free:
            realizable += 1
        if witness_free != branching:
            mismatches += 1
    return {
        "n": n,
        "dags": dags,
        "uso_failures": uso_failures,
        "realizable": realizable,
        "mismatches": mismatches,
    }


def all_branchings(n: int) -> Iterator[Branching]:
    """Every forest of arborescences on 1..n ((n+1)^(n-1) of them)."""
    if n < 1:
        raise ValueError("need at least one vertex")
    choices = [[0] + [p for p in range(1, n + 1) if p != v] for v in range(1, n + 1)]
    for picks in product(*choices):
        parent = {v: p for v, p in enumerate(picks, start=1) if p}
        ok = True
        for start in parent:
            v = start
            hops = 0
            while v in parent:
                v = parent[v]
                hops += 1
                if hops > n:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            yield Branching(n, parent)
