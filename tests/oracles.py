"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written the slow, obvious way, without
reusing library internals beyond plain data access.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from usomat import Orientation, PLCPInstance, RationalMatrix, solve_candidate


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
