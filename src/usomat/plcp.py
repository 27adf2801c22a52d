"""Exact-rational linear complementarity instances from cyclic extensions.

A cyclic extension is realized by vectors on the moment curve, one per
element, negated for flip-set members.  Writing the vectors of the second
pair members and q in the basis of the first pair members turns the
complementarity problem over the matroid into a standard LCP: find
w, z >= 0 with w - M z = q and w^T z = 0.  That basis is a Vandermonde
matrix with signed columns, so :func:`translate_to_plcp` reads M and q
off the Lagrange basis on its nodes, in closed form.  All arithmetic is
exact, so sign decisions are never at the mercy of floating point:
Fractions at the boundary, Python ints in every elimination.  One
fraction-free step, :func:`_pivot_step`, serves both the linear solves and
the pivot tree.

That M is a diagonally scaled Cauchy matrix, so by Cauchy's determinant
each of its principal minors and each basic value is a product of one
factor per index and one per pair of indices.  With a_i = pos(i),
b_i = pos(i + n) and b_q = pos(q), the pair factors are

    g(s, t) = det M[{s, t}] / (M_ss M_tt) = (a_s - a_t)(b_t - b_s) / ((b_t - a_s)(b_s - a_t)),
    e(r, t) = w_r({t}) / q_r = (a_r - a_t)(b_t - b_q) / ((b_t - a_r)(b_q - a_t)).

:func:`cauchy_to_uso` certifies the instances of ``usomat realize`` that
way: an exact check of every entry against the closed form, n(n+1)/2 sign
tests for the P-matrix property, the orientation read off the signs of e
in row form, and at its sink S the basic values w_r = q_r prod_{t in S}
e(r, t) and z_s = -q_s prod e(s, t) / (M_ss prod g(s, t)), checked by one
exact product w - M z = q.  M[S, S] is nonsingular, so that product is a
full certificate, as a solve would be, in O(n^2) integer products.  It
needs no table and no elimination, so it runs up to n = 64.

The pivot tree serves a general M.  It sits behind :func:`plcp_to_uso`
and :func:`is_p_matrix`, the independent witnesses of the tests, and
reaches all 2^n complementary bases with one fraction-free principal
pivot each, depth first through the binomial tree of index subsets, and
updates only the free rows and the columns that later pivots read:
O(n 2^n) operations on Python ints.  Each node holds one principal minor
det(M[S, S]) and the basic values of the w variables outside S (Stickney
& Watson 1978; the P-matrix test is the Schur-complement recursion of
Tsatsomeros & Li, BIT 2000, in fraction-free form).  :func:`plcp_to_uso`
accepts P-matrices only, so every d it meets is positive and z_s(S) < 0
exactly when w_s(S - {s}) > 0: the z signs are the edge-consistent
complements of the w signs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import lcm, prod
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .cube import MAX_DIMENSION, Orientation, _json_fields, global_sink, mask_to_dims
from .matroid import Q, CyclicExtension


class DegenerateQ(ValueError):
    """A complementary basic solution has an exactly-zero component."""


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


def _exact(x: Fraction | int) -> Fraction:
    """A matrix entry as a Fraction; a float or a bool is refused, not read as its binary value."""
    if isinstance(x, (float, bool)):
        raise ValueError(f"matrix entries must be exact rationals, got {x!r}")
    return Fraction(x)


@dataclass(frozen=True, slots=True)
class RationalMatrix:
    """A read-only dense matrix of Fractions with exact elimination-based solvers."""

    rows: tuple[tuple[Fraction, ...], ...]
    nrows: int
    ncols: int

    def __init__(self, rows: Iterable[Iterable[Fraction | int]]) -> None:
        rows = tuple(tuple(map(_exact, row)) for row in rows)
        ncols = len(rows[0]) if rows else 0
        if any(len(row) != ncols for row in rows):
            raise ValueError("rows have unequal lengths")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", ncols)

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self.rows[i][j]

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"RationalMatrix[{body}]"

    def to_text(self) -> str:
        """Rows of whitespace-separated fractions, one line per row."""
        return "\n".join(" ".join(str(x) for x in row) for row in self.rows)

    def solve_matrix(self, rhs: "RationalMatrix | Sequence[Sequence[Fraction | int]]") -> "RationalMatrix":
        """Exact X with A X = B, by fraction-free Gauss-Jordan on the integer [A | B].

        Each pivot is the first nonzero entry of its column on or below the
        diagonal, and :func:`_pivot_step` updates every other row.  Then
        each pivoted row has d, the latest pivot, on the diagonal and zeros
        elsewhere in A, so X = B / d at the end.
        """
        if self.nrows != self.ncols:
            raise ValueError("solve needs a square matrix")
        b = rhs if isinstance(rhs, RationalMatrix) else RationalMatrix(rhs)
        if b.nrows != self.nrows:
            raise ValueError("right-hand side has mismatched row count")
        k = self.nrows
        tab = _scaled_tableau(RationalMatrix(a + r for a, r in zip(self.rows, b.rows)))
        d = 1
        for col in range(k):
            pivot = next((r for r in range(col, k) if tab[r][col]), None)
            if pivot is None:
                raise ValueError("matrix is singular")
            tab[col], tab[pivot] = tab[pivot], tab[col]
            top = tab[col]
            tab = [row if row is top else _pivot_step(row, top, col, d) for row in tab]
            d = top[col]
        return RationalMatrix([Fraction(x, d) for x in row[k:]] for row in tab)


@dataclass(frozen=True)
class PLCPInstance:
    """Data (M, q) of the problem: find w, z >= 0, w - M z = q, w^T z = 0.

    Read-only all the way down: M is a :class:`RationalMatrix` and q is
    kept as a tuple.
    """

    n: int
    M: RationalMatrix
    q: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if type(self.n) is not int or self.n < 1:
            raise ValueError(f"instance size must be an integer of at least 1, got {self.n!r}")
        if self.M.nrows != self.n or self.M.ncols != self.n:
            raise ValueError(f"M must be {self.n}x{self.n}")
        if len(self.q) != self.n:
            raise ValueError(f"q must have {self.n} entries")
        object.__setattr__(self, "q", tuple(self.q))

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "M": [[str(x) for x in row] for row in self.M.rows],
            "q": [str(x) for x in self.q],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "PLCPInstance":
        n, rows, q = _json_fields(obj, "instance", "n", "M", "q")
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


def translate_to_plcp(ext: CyclicExtension) -> PLCPInstance:
    """The LCP data (M, q) of an extension's moment-curve realization, in closed form.

    Element e sits at x_e, its position, with sign s_e (-1 on the flip
    set), and contributes s_e (1, x_e, ..., x_e^(n-1)).  Folding through
    the basis of elements 1..n, a Vandermonde matrix with signed columns,
    gives M[j][t] = -s_j s_t L_j(x_t) and q_j = -s_j s_q L_j(x_q), where
    L_j is the Lagrange basis on the positions of elements 1..n.  With P
    the product of (x - x_k) over those nodes, L_j(x_t) is
    P(x_t) / ((x_t - x_j) P'(x_j)): one Fraction per entry, no elimination.
    """
    n, x = ext.n, ext.position
    s = {e: -1 if e in ext.flipped else 1 for e in x}
    nodes = range(1, n + 1)
    cols = [*range(n + 1, 2 * n + 1), Q]
    weight = [s[j] * prod(x[j] - x[k] for k in nodes if k != j) for j in nodes]  # s_j P'(x_j)
    value = [s[t] * prod(x[t] - x[k] for k in nodes) for t in cols]  # s_t P(x_t)
    rows = [[Fraction(-v, w * (x[t] - x[j])) for t, v in zip(cols, value)] for j, w in zip(nodes, weight)]
    return PLCPInstance(n, RationalMatrix(row[:n] for row in rows), tuple(row[n] for row in rows))


def _scaled_tableau(m: RationalMatrix, q: Sequence[Fraction] = ()) -> list[list[int]]:
    """Rows of [L*M | L*q] as ints, L the lcm of every denominator.

    Scaling by L > 0 keeps the sign of every basic solution and of every
    principal minor, and makes the pivot tree below integer-only.
    """
    rows = [list(row) + ([q[r]] if q else []) for r, row in enumerate(m.rows)]
    scale = lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (scale // x.denominator) for x in row] for row in rows]


def _pivot_step(vec: list[int], pivot_vec: list[int], pos: int, d: int) -> list[int]:
    """(p * vec - vec[pos] * pivot_vec) / d with p = pivot_vec[pos], exactly.

    Both callers keep every entry a minor of their integer input and pass
    the previous pivot as d, so each division is exact (Bareiss 1968); a
    remainder raises ArithmeticError.
    """
    p, b = pivot_vec[pos], vec[pos]
    if d == 1:  # the first pivot of a solve, or a child of the tree's root
        return [a * p - f * b for a, f in zip(vec, pivot_vec)]
    out = []
    for a, f in zip(vec, pivot_vec):
        quo, rem = divmod(a * p - f * b, d)
        if rem:
            raise ArithmeticError("inexact fraction-free pivot")
        out.append(quo)
    return out


def _pivot_tree(tab: list[list[int]], n: int) -> Iterator[tuple[int, int, list[int], list[int]]]:
    """Fraction-free principal pivots to every index subset, depth first.

    ``tab`` holds the integer tableau of the empty subset, where the basic
    variables are w = q + M z (rows 0..n-1; column n, if present, is q).
    The subsets form the binomial tree: the children of S are S + {k} for
    every k > max(S), each reached by one Bareiss pivot on (k, k).  Each
    node comes out before its children, and they in decreasing k, so the
    full set is the last node.  Yields (S, d, free, x): d is the principal
    minor det(M[S, S]) of the integer M, ``free`` lists the rows r not in
    S in increasing order, and x[i] is d times the basic value w of row
    free[i] (the q column of S's tableau; empty when ``tab`` has none).

    A node keeps, for its free rows only, d times the tableau columns past
    max(S) and q, one list per column: its descendants pivot on nothing
    else.  A pivot on k therefore touches (rows outside S) x (columns past
    k), and the whole tree makes 2^n - 1 pivots in O(n 2^n) operations on
    Python ints.  Every entry stays a minor of the integer [I | -M | q], so
    :func:`_pivot_step` divides by the parent's d exactly.  A zero pivot
    means S + {k} has a singular principal minor: it is yielded with d = 0
    and the tree ends.
    """
    width = len(tab[0]) if tab else n
    cols = [[row[c] for row in tab] for c in range(width)]
    free = list(range(n))
    yield 0, 1, free, cols[n] if width > n else []
    # a pending child: parent S, the parent's first kept column j, its d,
    # its free rows and kept columns, and the pivot k
    stack = [(0, 0, 1, free, cols, k) for k in range(n)]
    while stack:
        s, j, d, free, cols, k = stack.pop()
        s |= 1 << k
        pos = k - n + len(free)  # every row from j on is free, so row k sits here
        pivot_col = cols[k - j]
        p = pivot_col[pos]
        if p == 0:
            yield s, 0, [], []
            return
        child = []
        for col in cols[k - j + 1 :]:
            new = _pivot_step(col, pivot_col, pos, d)
            del new[pos]  # row k leaves the free rows (its entry is p*b - b*p = 0)
            child.append(new)
        free = free[:pos] + free[pos + 1 :]
        yield s, p, free, child[-1] if width > n else []
        stack.extend((s, k + 1, p, free, child, c) for c in range(k + 1, n))


def is_p_matrix(m: RationalMatrix) -> bool:
    """All principal minors positive, checked exactly with early exit.

    The pivot tree visits every index subset, and its d there is that
    principal minor times a positive scale.
    """
    if m.nrows != m.ncols:
        raise ValueError("P-matrix test needs a square matrix")
    n = m.nrows
    if n > MAX_DIMENSION:
        raise ValueError(f"principal minor enumeration capped at n={MAX_DIMENSION}")
    return all(d > 0 for _, d, _, _ in _pivot_tree(_scaled_tableau(m), n))


def solve_candidate(instance: PLCPInstance, vertex: int) -> CandidateSolution:
    """Solve w - M z = q with z supported on the vertex set, w on the rest.

    vertex is a bitmask over dimensions 1..n; bit i-1 set moves pair i to
    the z side.  The free components must come out nonzero, otherwise the
    instance cannot discriminate an orientation and DegenerateQ is raised.
    """
    n = instance.n
    if type(vertex) is not int or not 0 <= vertex < 1 << n:
        raise ValueError(f"vertex {vertex!r} is not an integer in 0..{(1 << n) - 1}")
    m = instance.M.rows
    basis = RationalMatrix([-m[r][i] if vertex >> i & 1 else int(r == i) for i in range(n)] for r in range(n))
    x = [row[0] for row in basis.solve_matrix([[b] for b in instance.q]).rows]
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
    """Orient each cube vertex by the signs of its basic solution, for a P-matrix M.

    Dimension i points away from vertex v exactly when the basic pair-i
    component is negative; since M is a P-matrix this is a unique sink
    orientation whose sink is the feasible complementary basis.  The w
    signs come from the pivot tree and the z signs by edge consistency; the
    sink is then re-solved from scratch as a certificate that they were
    read right.

    A nonpositive principal minor raises ``ValueError`` naming its index
    set, before any zero basic component raises ``DegenerateQ``.
    """
    n = instance.n
    if n > MAX_DIMENSION:
        raise ValueError(f"principal minor enumeration capped at n={MAX_DIMENSION}")
    table = np.zeros(1 << n, dtype=np.int64)  # bit r, for r outside S: w_r < 0 at vertex S
    degenerate = None
    for v, d, free, x in _pivot_tree(_scaled_tableau(instance.M, instance.q), n):
        if d <= 0:
            sign = "zero" if d == 0 else "negative"
            raise ValueError(f"M is not a P-matrix: det(M[S, S]) is {sign} for S = {mask_to_dims(v)}")
        if degenerate is None and 0 in x:
            degenerate = v
        table[v] = sum(1 << r for r, val in zip(free, x) if val < 0)
    if degenerate is not None:
        raise DegenerateQ(f"zero component in the basic solution at vertex {degenerate}")
    # bit s of a set S holding s: z_s(S) < 0 exactly when w_s(S - {s}) > 0
    for s in range(n):
        halves = table.reshape(-1, 2, 1 << s)
        halves[:, 1, :] |= ~halves[:, 0, :] & 1 << s
    sink = int(table.argmin())
    sol = solve_candidate(instance, sink)
    basic = [sol.z[i] if sink >> i & 1 else sol.w[i] for i in range(n)]
    if sum(1 << i for i, x in enumerate(basic) if x < 0) != table[sink]:
        raise ArithmeticError(f"pivot tree and direct solve disagree at vertex {sink}")
    return Orientation(n, tuple(table.tolist()))


def _first_difference(inst: PLCPInstance, ref: PLCPInstance) -> Optional[str]:
    """The first entry of M, then of q, where ``inst`` differs from ``ref`` of the same n, or None."""
    n = inst.n
    cells = zip(chain(*inst.M.rows, inst.q), chain(*ref.M.rows, ref.q))
    for k, (x, y) in enumerate(cells):
        if x != y:
            name = f"M[{k // n + 1}, {k % n + 1}]" if k < n * n else f"q[{k - n * n + 1}]"
            return f"{name} is {x}, the closed form gives {y}"
    return None


def _cauchy_nodes(ext: CyclicExtension) -> tuple[list[int], list[int], int]:
    """The positions a_i = pos(i) and b_i = pos(i + n) for i = 1..n (0-based lists), and b_q = pos(q).

    In them the LCP of :func:`translate_to_plcp` is M_it = alpha_i beta_t / (b_t - a_i)
    and q_i = alpha_i beta_q / (b_q - a_i), with alpha_i = -s_i / P'(a_i) and
    beta_t = s_t P(b_t) nonzero.
    """
    n, x = ext.n, ext.position
    return [x[i] for i in range(1, n + 1)], [x[i] for i in range(n + 1, 2 * n + 1)], x[Q]


def _cauchy_solution(ext: CyclicExtension, inst: PLCPInstance, vertex: int) -> CandidateSolution:
    """The basic solution of ``inst``, the LCP of ``ext``, at ``vertex`` from Cauchy products, with no solve.

    With S the vertex set, w_r = q_r prod_{t in S} e(r, t) for r outside S,
    and z_s = -(q_s / M_ss) prod_{t in S - {s}} e(s, t) / g(s, t) for s in
    S, where e(s, t) / g(s, t) = (b_t - b_q)(b_s - a_t) / ((b_q - a_t)(b_t - b_s)):
    the numerator and the denominator of each value are products of ints,
    and each value is one Fraction.  Nothing here checks that ``inst`` is
    the closed form of ``ext``, or the values against w - M z = q:
    :func:`cauchy_to_uso` does both.  A zero value raises ``DegenerateQ``,
    as :func:`solve_candidate` does.
    """
    n, m, q = inst.n, inst.M.rows, inst.q
    a, b, bq = _cauchy_nodes(ext)
    support = [t for t in range(n) if vertex >> t & 1]
    x = []
    for r in range(n):
        if vertex >> r & 1:
            others = [t for t in support if t != r]
            num = -q[r].numerator * m[r][r].denominator * prod((b[t] - bq) * (b[r] - a[t]) for t in others)
            den = q[r].denominator * m[r][r].numerator * prod((bq - a[t]) * (b[t] - b[r]) for t in others)
        else:
            num = q[r].numerator * prod((a[r] - a[t]) * (b[t] - bq) for t in support)
            den = q[r].denominator * prod((b[t] - a[r]) * (bq - a[t]) for t in support)
        x.append(Fraction(num, den))
    if any(val == 0 for val in x):
        raise DegenerateQ(f"zero component in the basic solution at vertex {vertex}")
    w = tuple(Fraction(0) if vertex >> i & 1 else x[i] for i in range(n))
    z = tuple(x[i] if vertex >> i & 1 else Fraction(0) for i in range(n))
    return CandidateSolution(vertex, w, z)


def cauchy_to_uso(ext: CyclicExtension, inst: PLCPInstance) -> Orientation:
    """The orientation of ``inst``, the LCP of ``ext``, in row form from O(n^2) exact integer products.

    :func:`translate_to_plcp` writes [M | q] as D C D', with
    C[i][t] = 1/(b_t - a_i) a Cauchy matrix on the distinct positions
    a_i = pos(i), b_t = pos(t + n) and b_q = pos(q) (q is one more column).
    By Cauchy's determinant, a square submatrix N of it whose i-th row and
    column are paired has

        det N = prod_i N_ii * prod_{i<j} det N[{i, j}] / (N_ii N_jj),

    a product of nonzero factors, one per index and one per pair.  So M is
    a P-matrix exactly when every M_ii and every det M[{s, t}] is positive,
    and det M[{s, t}] = M_ss M_tt g(s, t) with

        g(s, t) = (a_s - a_t)(b_t - b_s) / ((b_t - a_s)(b_s - a_t)).

    Bordering M[S, S] with row r outside S and column q gives, by Schur's
    complement, w_r(S) = q_r prod_{t in S} e(r, t), with

        e(r, t) = w_r({t}) / q_r = (a_r - a_t)(b_t - b_q) / ((b_t - a_r)(b_q - a_t)).

    So for r outside S, bit r of o(S) is [q_r < 0] XOR the [e(r, t) < 0]
    over t in S.  For r in S, z_r(S) < 0 exactly when w_r(S - {r}) > 0, so
    bit r is the same XOR over S - {r}, XOR 1.  That is the row form:
    o(0) = [q < 0], and row t has bit r != t set when e(r, t) < 0, and its
    loop bit t.  At the sink S the same products give every basic value
    (:func:`_cauchy_solution`): w_r = q_r prod_{t in S} e(r, t) for r
    outside S, and z_s = -q_s prod_{t in S - {s}} e(s, t) / (M_ss
    prod_{t in S - {s}} g(s, t)) for s in S.

    Certified in full: every entry of ``inst`` equals the closed form for
    ``ext`` exactly; the n(n+1)/2 minors are positive (a failure raises
    ``ValueError`` naming S, as :func:`plcp_to_uso` does); the sink's
    values are nonzero (else ``DegenerateQ``) and nonnegative; and they
    satisfy w - M z = q exactly, row by row, else ``ArithmeticError``
    naming the vertex and the row.  M[S, S] is nonsingular, its
    determinant a product of certified positive factors, so the
    complementary system at S has exactly one solution, and values that
    satisfy it are that solution: the product proves what a direct solve
    would, in O(n^2).  An ``inst`` of another n raises ``ValueError``.  One
    that is not the closed form goes to :func:`plcp_to_uso` up to
    ``MAX_DIMENSION``, and past it raises ``ValueError`` naming the first
    entry that differs.
    """
    if inst.n != ext.n:
        raise ValueError(
            f"M is not the extension's Cauchy matrix: the instance has n = {inst.n}, the extension n = {ext.n}"
        )
    difference = _first_difference(inst, translate_to_plcp(ext))
    if difference is not None:
        if inst.n <= MAX_DIMENSION:
            return plcp_to_uso(inst)
        raise ValueError(f"M is not the extension's Cauchy matrix: {difference}")
    n, m, q = inst.n, inst.M.rows, inst.q
    a, b, bq = _cauchy_nodes(ext)
    # once M_ss, M_tt > 0, det M[{s, t}] has the sign of g(s, t): that of the product of its four factors
    minors = [([i], m[i][i]) for i in range(n)]
    minors += [
        ([s, t], (a[s] - a[t]) * (b[t] - b[s]) * (b[t] - a[s]) * (b[s] - a[t]))
        for s in range(n)
        for t in range(s + 1, n)
    ]
    for s, d in minors:
        if d <= 0:
            sign = "zero" if d == 0 else "negative"
            raise ValueError(f"M is not a P-matrix: det(M[S, S]) is {sign} for S = {[i + 1 for i in s]}")
    base = sum(1 << r for r in range(n) if q[r] < 0)
    rows = tuple(
        sum(1 << r for r in range(n) if r == t or (a[r] - a[t]) * (b[t] - bq) * (b[t] - a[r]) * (bq - a[t]) < 0)
        for t in range(n)
    )
    o = Orientation._from_checked_rows(n, base, rows)
    sink = global_sink(o)
    sol = _cauchy_solution(ext, inst, sink)
    if not sol.feasible:
        raise ArithmeticError(f"Cauchy signs and the sink's basic values disagree at vertex {sink}")
    support = [(t, sol.z[t]) for t in range(n) if sink >> t & 1]
    for r in range(n):
        if sol.w[r] - sum(m[r][t] * z for t, z in support) != q[r]:
            raise ArithmeticError(f"the basic values at vertex {sink} fail row {r + 1} of w - M z = q")
    return o
