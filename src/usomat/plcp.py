"""Exact-rational linear complementarity instances from cyclic extensions.

A cyclic extension is realized by vectors on the moment curve, one per
element, negated for flip-set members.  Splitting the resulting n x (2n+1)
matrix into the blocks of the first pair members, the second pair members
and q turns the complementarity problem over the matroid into a standard
LCP: find w, z >= 0 with w - M z = q and w^T z = 0.  All arithmetic is
exact over the rationals so sign decisions are never at the mercy of
floating point.

The cube walk behind :func:`plcp_to_uso` and :func:`is_p_matrix` visits all
2^n complementary bases in Gray-code order, one fraction-free principal
pivot per step: O(2^n n^2) operations on Python ints, with no Fraction
inside the loop.  Each vertex's basic solution, and each principal minor,
is read off the current tableau (Stickney & Watson 1978; the P-matrix test
is the Schur-complement recursion of Tsatsomeros & Li, BIT 2000, in
Gray-code order).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator, Optional, Sequence

from .cube import Orientation
from .matroid import Q, CyclicExtension

P_MATRIX_CAP = 12  # the cube walk doubles per extra dimension


class DegenerateQ(ValueError):
    """A complementary basic solution has an exactly-zero component."""


def format_fraction(x: Fraction) -> str:
    return str(x)


def parse_fraction(s: str) -> Fraction:
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {s!r}") from exc


def _json_fraction(x: object) -> Fraction:
    """A JSON entry that is exact: a fraction string or an integer, never a float."""
    if isinstance(x, str):
        return parse_fraction(x)
    if type(x) is int:
        return Fraction(x)
    raise ValueError(f"entries must be fraction strings or integers, got {x!r}")


class RationalMatrix:
    """A dense matrix of Fractions with exact elimination-based solvers."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, rows: Iterable[Iterable[Fraction | int]]) -> None:
        self.rows = tuple(tuple(Fraction(x) for x in row) for row in rows)
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        if any(len(row) != self.ncols for row in self.rows):
            raise ValueError("rows have unequal lengths")

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RationalMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"RationalMatrix[{body}]"

    def to_text(self) -> str:
        """Rows of whitespace-separated fractions, one line per row."""
        return "\n".join(" ".join(format_fraction(x) for x in row) for row in self.rows)

    def __neg__(self) -> "RationalMatrix":
        return RationalMatrix([[-x for x in row] for row in self.rows])

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(row[j] for row in self.rows)

    def columns(self, js: Sequence[int]) -> "RationalMatrix":
        return RationalMatrix([[row[j] for j in js] for row in self.rows])

    def solve(self, rhs: Sequence[Fraction | int]) -> tuple[Fraction, ...]:
        """Exact solution of A x = rhs for square invertible A."""
        return tuple(self.solve_matrix([[b] for b in rhs]).column(0))

    def solve_matrix(self, rhs: "RationalMatrix | Sequence[Sequence[Fraction | int]]") -> "RationalMatrix":
        if self.nrows != self.ncols:
            raise ValueError("solve needs a square matrix")
        b = rhs if isinstance(rhs, RationalMatrix) else RationalMatrix(rhs)
        if b.nrows != self.nrows:
            raise ValueError("right-hand side has mismatched row count")
        k = self.nrows
        a = [list(self.rows[i]) + list(b.rows[i]) for i in range(k)]
        width = k + b.ncols
        for col in range(k):
            pivot = next((r for r in range(col, k) if a[r][col]), None)
            if pivot is None:
                raise ValueError("matrix is singular")
            a[col], a[pivot] = a[pivot], a[col]
            p = a[col][col]
            for c in range(col, width):
                a[col][c] /= p
            for r in range(k):
                if r != col and a[r][col]:
                    f = a[r][col]
                    for c in range(col, width):
                        a[r][c] -= f * a[col][c]
        return RationalMatrix([row[k:] for row in a])


@dataclass(frozen=True)
class PLCPInstance:
    """Data (M, q) of the problem: find w, z >= 0, w - M z = q, w^T z = 0."""

    n: int
    M: RationalMatrix
    q: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.M.nrows != self.n or self.M.ncols != self.n:
            raise ValueError(f"M must be {self.n}x{self.n}")
        if len(self.q) != self.n:
            raise ValueError(f"q must have {self.n} entries")

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "M": [[format_fraction(x) for x in row] for row in self.M.rows],
            "q": [format_fraction(x) for x in self.q],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "PLCPInstance":
        try:
            n, rows, q = obj["n"], obj["M"], obj["q"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"instance JSON needs 'n', 'M', 'q': {exc}") from exc
        if type(n) is not int:
            raise ValueError(f"instance JSON: 'n' must be an integer, got {n!r}")
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise ValueError("instance JSON: 'M' must be a list of rows")
        if not isinstance(q, list):
            raise ValueError("instance JSON: 'q' must be a list")
        m = RationalMatrix([[_json_fraction(x) for x in row] for row in rows])
        return cls(n, m, tuple(_json_fraction(x) for x in q))


@dataclass(frozen=True)
class CandidateSolution:
    """The complementary point with z supported on a chosen index set."""

    vertex: int
    w: tuple[Fraction, ...]
    z: tuple[Fraction, ...]

    @property
    def feasible(self) -> bool:
        return all(x >= 0 for x in self.w) and all(x >= 0 for x in self.z)


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
    cols = []
    for e in list(range(1, 2 * n + 1)) + [Q]:
        x = xs[ext.position[e] - 1]
        sign = -1 if e in ext.flipped else 1
        cols.append([sign * x**k for k in range(n)])
    return RationalMatrix([[cols[j][i] for j in range(2 * n + 1)] for i in range(n)])


def translate_to_plcp(v: RationalMatrix, ext: Optional[CyclicExtension] = None) -> PLCPInstance:
    """Fold a realization matrix into (M, q).

    With V = [V_S | V_T | v_q] split after columns n and 2n, the basis
    change to the first block gives M = -V_S^{-1} V_T and q = -V_S^{-1} v_q.
    Passing the source extension just adds a dimension cross-check.
    """
    n = v.nrows
    if v.ncols != 2 * n + 1:
        raise ValueError(f"realization matrix must be {n}x{2 * n + 1}")
    if ext is not None and ext.n != n:
        raise ValueError(f"extension has n={ext.n}, matrix has n={n}")
    v_s = v.columns(range(n))
    rest = v.columns(range(n, 2 * n + 1))
    folded = -v_s.solve_matrix(rest)
    m = folded.columns(range(n))
    q = folded.column(n)
    return PLCPInstance(n, m, q)


def _scaled_tableau(m: RationalMatrix, q: Sequence[Fraction] = ()) -> list[list[int]]:
    """Rows of [L*M | L*q] as ints, L the lcm of every denominator.

    Scaling by L > 0 keeps the sign of every basic solution and of every
    principal minor, and makes the walk below integer-only.
    """
    rows = [list(row) + ([q[r]] if q else []) for r, row in enumerate(m.rows)]
    scale = lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (scale // x.denominator) for x in row] for row in rows]


def _gray_walk(tab: list[list[int]], n: int) -> Iterator[tuple[int, int]]:
    """Principal pivots through every cube vertex in Gray-code order.

    ``tab`` holds the integer tableau of vertex 0, where the basic
    variables are w = q + M z (rows 0..n-1; column n, if present, is q).
    After yielding (v, d), ``tab`` is d times the tableau of the basis of
    vertex v, and d is the principal minor det(M[v, v]) of the integer M.
    Step k swaps pair i = ctz(k) by one fraction-free (Bareiss) pivot; every
    entry stays a minor of the integer matrix [I | -M | q], so each division
    by the previous d is exact.  A zero pivot means the next vertex's basis
    is singular: it is yielded with d = 0 and the walk ends.
    """
    v, d = 0, 1
    yield v, d
    for k in range(1, 1 << n):
        i = (k & -k).bit_length() - 1
        v ^= 1 << i
        pivot_row = tab[i]
        p = pivot_row[i]
        if p == 0:
            yield v, 0
            return
        for r, row in enumerate(tab):
            if r == i:
                continue
            f = row[i]
            parts = [divmod(a * p - f * b, d) for a, b in zip(row, pivot_row)]
            if any(rem for _, rem in parts):
                raise ArithmeticError(f"inexact fraction-free pivot at vertex {v}")
            new = [quo for quo, _ in parts]
            new[i] = f
            tab[r] = new
        new = [-b for b in pivot_row]
        new[i] = d
        tab[i] = new
        d = p
        yield v, d


def is_p_matrix(m: RationalMatrix) -> bool:
    """All principal minors positive, checked exactly with early exit.

    One cube walk visits every index subset, and its denominator there is
    that principal minor times a positive scale.
    """
    if m.nrows != m.ncols:
        raise ValueError("P-matrix test needs a square matrix")
    n = m.nrows
    if n > P_MATRIX_CAP:
        raise ValueError(f"principal minor enumeration capped at n={P_MATRIX_CAP}")
    return all(d > 0 for _, d in _gray_walk(_scaled_tableau(m), n))


def solve_candidate(instance: PLCPInstance, vertex: int) -> CandidateSolution:
    """Solve w - M z = q with z supported on the vertex set, w on the rest.

    vertex is a bitmask over dimensions 1..n; bit i-1 set moves pair i to
    the z side.  The free components must come out nonzero, otherwise the
    instance cannot discriminate an orientation and DegenerateQ is raised.
    """
    n = instance.n
    if not 0 <= vertex < 1 << n:
        raise ValueError(f"vertex {vertex} out of range for n={n}")
    cols = []
    for i in range(n):
        if vertex >> i & 1:
            cols.append([-instance.M[r, i] for r in range(n)])
        else:
            cols.append([Fraction(int(r == i)) for r in range(n)])
    basis = RationalMatrix([[cols[j][i] for j in range(n)] for i in range(n)])
    x = basis.solve(instance.q)
    if any(val == 0 for val in x):
        raise DegenerateQ(f"zero component in the basic solution at vertex {vertex}")
    w = tuple(Fraction(0) if vertex >> i & 1 else x[i] for i in range(n))
    z = tuple(x[i] if vertex >> i & 1 else Fraction(0) for i in range(n))
    for r in range(n):
        lhs = w[r] - sum(instance.M[r, j] * z[j] for j in range(n))
        if lhs != instance.q[r]:
            raise ArithmeticError(f"complementary solve at vertex {vertex} fails row {r + 1}")
    return CandidateSolution(vertex, w, z)


def plcp_to_uso(instance: PLCPInstance) -> Orientation:
    """Orient each cube vertex by the signs of its basic solution.

    Dimension i points away from vertex v exactly when the basic pair-i
    component is negative; for a P-matrix M this is a unique sink
    orientation whose sink is the feasible complementary basis.  The signs
    come from one cube walk; the sink (for a table without one, the vertex
    with the smallest outmap) is then re-solved from scratch as a
    certificate that the walk read them right.
    """
    n = instance.n
    tab = _scaled_tableau(instance.M, instance.q)
    table = [0] * (1 << n)
    for v, d in _gray_walk(tab, n):
        if d == 0:
            raise ValueError("matrix is singular")
        out = 0
        for r, row in enumerate(tab):
            x = row[n]
            if x == 0:
                raise DegenerateQ(f"zero component in the basic solution at vertex {v}")
            if (x < 0) != (d < 0):
                out |= 1 << r
        table[v] = out
    sink = min(range(1 << n), key=table.__getitem__)
    sol = solve_candidate(instance, sink)
    basic = [sol.z[i] if sink >> i & 1 else sol.w[i] for i in range(n)]
    if sum(1 << i for i, x in enumerate(basic) if x < 0) != table[sink]:
        raise ArithmeticError(f"cube walk and direct solve disagree at vertex {sink}")
    return Orientation(n, tuple(table))
