"""Exact-rational linear complementarity instances from cyclic extensions.

A cyclic extension is realized by vectors on the moment curve, one per
element, negated for flip-set members.  Writing the vectors of the second
pair members and q in the basis of the first pair members turns the
complementarity problem over the matroid into a standard LCP: find
w, z >= 0 with w - M z = q and w^T z = 0.  That basis is a Vandermonde
matrix with signed columns, so :func:`translate_to_plcp` reads M and q
off the Lagrange basis on its nodes, in closed form.  All arithmetic is
exact, so sign decisions are never at the mercy of floating point:
Fractions at the boundary, Python ints in every elimination.  One integer
form, each row times the lcm of its own denominators
(:func:`_integer_rows`), feeds the linear solves, the pivot tree and the
Cauchy route, and one fraction-free step, :func:`_pivot_step`, serves
both the solves and the tree.

That M is a diagonally scaled Cauchy matrix, and the route that reads an
LCP back needs nothing else.  Call [M | q] Cauchy-like when it has no
zero entry and its entrywise reciprocal K = [1 / A_it] has rank at most
2.  Then K = P R^T with P and R of width 2, and A is a scaled Cauchy
matrix A_it = 1 / (u_i v_t (b_t - a_i)) on nodes that may include
infinity (a first coordinate of p_i or a second one of r_t that is 0).
Cauchy's determinant gives, for finite nodes, two identities:

    det M[S, S] = prod_{i in S} M_ii * prod_{i<j in S} g(i, j),   g(i, j) = 1 - M_ij M_ji / (M_ii M_jj),
    w_r(S) = q_r * prod_{t in S} e(r, t) for r not in S,        e(r, t) = 1 - M_rt q_t / (M_tt q_r),

where w_r(S) is the basic value of w_r at the complementary basis with z
supported on S.  Each side is a rational function of (P, R) whose
denominators are products of entries of K, and the two agree on the
dense set of finite nodes, so they agree wherever both sides are
defined: at infinite and repeated nodes too.  So a Cauchy-like M is a
P-matrix exactly when its n diagonal entries and n(n-1)/2 2x2 principal
minors are positive, and each basic value has the sign of a product of
1x1 and 2x2 signs.  :func:`is_p_matrix` and :func:`plcp_to_uso` test for
that shape in integers (:func:`_not_cauchy_like`) and then decide in
O(n^2) integer products, at any n: ``usomat realize`` certifies its
instances up to n = 64 that way.  The z of the sink's basic solution is
a product of the same factors.  The instances of
:func:`translate_to_plcp` are Cauchy-like, on the positions of the
extension's elements.

Any other M goes to the pivot tree, the independent witness of the
tests (:func:`_tree_is_p_matrix`, :func:`_tree_to_uso`), which reaches
all 2^n complementary bases with one fraction-free principal pivot
each, depth first through the binomial tree of index subsets, and
updates only the free rows and the columns that later pivots read:
O(n 2^n) operations on Python ints, capped at ``MAX_DIMENSION``.  Each
node holds one principal minor det(M[S, S]) and the basic values of the
w variables outside S (Stickney & Watson 1978; the P-matrix test is the
Schur-complement recursion of Tsatsomeros & Li, BIT 2000, in
fraction-free form).  It accepts P-matrices only, so every d it meets is
positive and z_s(S) < 0 exactly when w_s(S - {s}) > 0: the z signs are
the edge-consistent complements of the w signs; the tree re-solves the
z of its sink with :func:`solve_candidate`.  Past the cap an input that
is not Cauchy-like is refused, named by its first zero entry or its first
row of K outside the span of the two reference rows: :func:`_past_the_cap`
is the one place that enforces the cap.

Both readers end in one certificate, :func:`_certified`: at the sink S,
z > 0 on S, and w = q + M z, one exact integer product, zero on S and
positive off it.  M[S, S] is nonsingular for a P-matrix, so a point that
passes is the feasible basic solution at S.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm, prod
from numbers import Rational
from typing import Callable, Iterable, Iterator, Optional, Sequence

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


def _exact(x: object) -> Fraction:
    """An exact entry as a Fraction: a fraction string, an integer or a Fraction.

    A float or a bool is refused, not read as its binary value, and so is
    anything else.
    """
    if isinstance(x, str):
        return parse_fraction(x)
    if isinstance(x, Rational) and not isinstance(x, bool):
        return Fraction(x)
    raise ValueError(f"matrix entries must be exact rationals, got {x!r}")


@dataclass(frozen=True, slots=True)
class RationalMatrix:
    """A read-only dense matrix of Fractions with exact elimination-based solvers."""

    rows: tuple[tuple[Fraction, ...], ...]
    nrows: int
    ncols: int

    def __init__(self, rows: Iterable[Iterable[Fraction | int | str]]) -> None:
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
        """Exact X with A X = B, by fraction-free Gauss-Jordan on the integer rows of [A | B].

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
        tab = _integer_rows(a + r for a, r in zip(self.rows, b.rows))
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
        return cls(n, RationalMatrix(rows), tuple(map(_exact, q)))


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


def _integer_rows(rows: Iterable[Iterable[Fraction]]) -> list[list[int]]:
    """Each row times the lcm of its own denominators, as ints: the one integer form.

    A positive scale per row keeps every solution of a system, the sign of
    every principal minor and of every basic value, and leaves every
    factor e and g unchanged, so the solves, the pivot tree and the Cauchy
    route all read these rows.
    """
    out = []
    for row in rows:
        scale = lcm(*(x.denominator for x in row))
        out.append([x.numerator * (scale // x.denominator) for x in row])
    return out


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


def _tree_is_p_matrix(m: RationalMatrix) -> bool:
    """All principal minors of a square M positive, by the pivot tree, with early exit.

    The tree visits every index subset, and its d there is that principal
    minor times the positive row scales over the subset.  Its caller keeps
    n within ``MAX_DIMENSION`` (:func:`_past_the_cap`).
    """
    return all(d > 0 for _, d, _, _ in _pivot_tree(_integer_rows(m.rows), m.nrows))


def _not_cauchy_like(a: list[list[int]], label: str) -> Optional[str]:
    """Why the integer rows ``a`` of ``label`` (M or [M | q]) are not Cauchy-like, or None.

    Cauchy-like is no zero entry and an entrywise reciprocal of rank at
    most 2.  Row i of the reciprocal times the lcm of a_i is the integer
    row k_i; scaling rows keeps the rank.  With k_j the first row not
    proportional to k_0, and a column c where the two are independent
    (delta != 0), every later row must satisfy
    alpha k_0 + beta k_j = delta k_i, alpha and beta read off columns 0
    and c by Cramer's rule: O(n^2) integer products.
    """
    n = len(a)
    for i, row in enumerate(a):
        for t, x in enumerate(row):
            if x == 0:
                name = f"M[{i + 1}, {t + 1}]" if t < n else f"q[{i + 1}]"
                return f"{name} is 0"
    if n < 3:  # two rows span at most two dimensions
        return None
    k = []
    for row in a:
        scale = lcm(*row)
        k.append([scale // x for x in row])
    r0 = k[0]
    j = next((i for i, row in enumerate(k) if any(x * r0[0] != y * row[0] for x, y in zip(row, r0))), None)
    if j is None:  # rank 1
        return None
    r1 = k[j]
    c = next(c for c, (x, y) in enumerate(zip(r1, r0)) if x * r0[0] != y * r1[0])
    delta = r0[0] * r1[c] - r0[c] * r1[0]
    for i in range(j + 1, n):  # the rows before k_j are multiples of k_0
        row = k[i]
        alpha = row[0] * r1[c] - row[c] * r1[0]
        beta = r0[0] * row[c] - r0[c] * row[0]
        if any(alpha * x + beta * y != delta * z for x, y, z in zip(r0, r1, row)):
            return f"row {i + 1} of 1/{label} is outside the span of rows 1 and {j + 1}"
    return None


def _past_the_cap(n: int, label: str, reason: str) -> None:
    """Refuse an input that is not Cauchy-like once n is past the pivot tree's cap."""
    if n > MAX_DIMENSION:
        raise ValueError(
            f"{label} is not Cauchy-like ({reason}), and principal minor enumeration is capped at n={MAX_DIMENSION}"
        )


def _not_a_p_matrix(idx: Sequence[int], d: int) -> str:
    """The refusal of M by a nonpositive principal minor d on the 0-based index set ``idx``."""
    sign = "zero" if d == 0 else "negative"
    return f"M is not a P-matrix: det(M[S, S]) is {sign} for S = {[i + 1 for i in idx]}"


def _first_nonpositive_minor(a: list[list[int]]) -> Optional[str]:
    """For Cauchy-like integer rows of M (q may follow), the refusal by the first nonpositive minor, or None.

    The 1x1 minors come first, then the 2x2 ones in lexicographic order.
    Once M_ss and M_tt are positive, det M[{s, t}] = M_ss M_tt g(s, t), so
    by the product theorem (module docstring) these n(n+1)/2 signs decide
    every principal minor.
    """
    n = len(a)
    singles = (([i], a[i][i]) for i in range(n))
    pairs = (([s, t], a[s][s] * a[t][t] - a[s][t] * a[t][s]) for s in range(n) for t in range(s + 1, n))
    return next((_not_a_p_matrix(idx, d) for idx, d in chain(singles, pairs) if d <= 0), None)


def is_p_matrix(m: RationalMatrix) -> bool:
    """All principal minors positive, decided exactly.

    A Cauchy-like M is a P-matrix exactly when its n diagonal entries and
    its n(n-1)/2 2x2 principal minors are positive, by the product theorem
    of the module docstring: O(n^2) integer products at any n.  Any other
    M goes to the pivot tree, which enumerates all 2^n principal minors up
    to ``MAX_DIMENSION``; past it M is refused with a ``ValueError`` that
    names its first zero entry, or the first row of 1/M outside the span
    of the two reference rows.
    """
    if m.nrows != m.ncols:
        raise ValueError("P-matrix test needs a square matrix")
    a = _integer_rows(m.rows)
    reason = _not_cauchy_like(a, "M")
    if reason is None:
        return _first_nonpositive_minor(a) is None
    _past_the_cap(m.nrows, "M", reason)
    return _tree_is_p_matrix(m)


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


def _certified(a: list[list[int]], o: Orientation, z_at: Callable[[int], Sequence[Fraction]]) -> Orientation:
    """``o``, once the basic solution at its sink checks out, for integer rows ``a`` of [M | q].

    With S the sink's set and z = ``z_at(sink)``, z must be positive on S,
    and w = q + M z, computed in one exact integer product (each row times
    its positive scale), zero on S and positive off it.  M[S, S] is
    nonsingular for a P-matrix, so a point that passes is the basic
    solution at S, and it is feasible: the sink of ``o`` is the LCP's
    solution.  Else ``ArithmeticError`` names the vertex and the first
    pair that fails.
    """
    n = o.n
    sink = global_sink(o)
    z = z_at(sink)
    support = [t for t in range(n) if sink >> t & 1]
    d = lcm(*(z[t].denominator for t in support))
    dz = [(t, z[t].numerator * (d // z[t].denominator)) for t in support]
    for r, row in enumerate(a):
        w = row[n] * d + sum(row[t] * x for t, x in dz)  # d times the row's scale times w_r
        if not (z[r] > 0 and w == 0 if sink >> r & 1 else w > 0):
            raise ArithmeticError(f"the sink certificate fails at vertex {sink}, pair {r + 1}")
    return o


def _tree_to_uso(instance: PLCPInstance) -> Orientation:
    """Orient each cube vertex by the signs of its basic solution, read off the pivot tree.

    The w signs come from the tree and the z signs by edge consistency;
    the sink's z is then re-solved from scratch (:func:`solve_candidate`)
    and certified (:func:`_certified`) as a check that they were read
    right.  A nonpositive principal minor raises ``ValueError`` naming its
    index set, before any zero basic component raises ``DegenerateQ``.
    Its caller keeps n within ``MAX_DIMENSION`` (:func:`_past_the_cap`).
    """
    n = instance.n
    a = _integer_rows(row + (x,) for row, x in zip(instance.M.rows, instance.q))
    table = np.zeros(1 << n, dtype=np.int64)  # bit r, for r outside S: w_r < 0 at vertex S
    degenerate = None
    for v, d, free, x in _pivot_tree(a, n):
        if d <= 0:
            raise ValueError(_not_a_p_matrix([i - 1 for i in mask_to_dims(v)], d))
        if degenerate is None and 0 in x:
            degenerate = v
        table[v] = sum(1 << r for r, val in zip(free, x) if val < 0)
    if degenerate is not None:
        raise DegenerateQ(f"zero component in the basic solution at vertex {degenerate}")
    # bit s of a set S holding s: z_s(S) < 0 exactly when w_s(S - {s}) > 0
    for s in range(n):
        halves = table.reshape(-1, 2, 1 << s)
        halves[:, 1, :] |= ~halves[:, 0, :] & 1 << s
    return _certified(a, Orientation(n, tuple(table.tolist())), lambda sink: solve_candidate(instance, sink).z)


def _basic_values(a: list[list[int]], vertex: int) -> list[Fraction]:
    """The z half of the basic solution at ``vertex``, by Cauchy products, for integer rows ``a`` of [M | q].

    With S the vertex set, z_s = -(q_s / M_ss) prod_{t in S - {s}} e(s, t) / g(s, t)
    for s in S, where e(s, t) / g(s, t) = (M_tt q_s - M_st q_t) M_ss / (q_s det M[{s, t}]),
    and z_s = 0 off S.  The row scales of ``a`` leave these unchanged.
    They hold for a Cauchy-like [M | q] whose M is a P-matrix, and nothing
    here checks that: :func:`plcp_to_uso` does.  Each product cancels
    common factors across, factor by factor, as a Fraction product would,
    which keeps its integers near the size of the values.
    """
    n = len(a)
    support = [t for t in range(n) if vertex >> t & 1]
    z = [Fraction(0)] * n
    for s in support:
        row = a[s]
        q_s, m_ss = row[n], row[s]
        num, den = -q_s, m_ss
        for t in support:
            if t != s:
                f_num = (a[t][t] * q_s - row[t] * a[t][n]) * m_ss
                f_den = q_s * (m_ss * a[t][t] - row[t] * a[t][s])
                g, h = gcd(f_num, den), gcd(num, f_den)
                num, den = num // h * (f_num // g), den // g * (f_den // h)
        z[s] = Fraction(num, den)
    return z


def plcp_to_uso(instance: PLCPInstance) -> Orientation:
    """Orient each cube vertex by the signs of its basic solution, for a P-matrix M.

    Dimension i points away from vertex v exactly when the basic pair-i
    component is negative; since M is a P-matrix this is a unique sink
    orientation whose sink is the feasible complementary basis.

    A Cauchy-like [M | q] (module docstring) is read in O(n^2) integer
    products at any n.  Its n(n+1)/2 1x1 and 2x2 principal minors decide
    the P-matrix property.  The orientation comes back in row form:
    w_r(S) = q_r prod_{t in S} e(r, t) for r outside S, and for r in S,
    z_r(S) < 0 exactly when w_r(S - {r}) > 0, so o(0) = [q < 0] and row t
    has bit r != t set when e(r, t) < 0, and its loop bit t.  At its sink
    S the z of :func:`_basic_values`, products of the same factors, goes
    to the certificate that the pivot tree ends in too
    (:func:`_certified`): z > 0 on S, and w = q + M z, one exact integer
    product, zero on S and positive off it, else ``ArithmeticError``.
    M[S, S] is nonsingular, its determinant a product of certified
    positive factors, so a point that passes is the basic solution at S:
    the product proves what a solve would.

    Any other instance goes to the pivot tree (:func:`_tree_to_uso`) up to
    ``MAX_DIMENSION``, and past it is refused with a ``ValueError`` that
    names its first zero entry, or the first row of 1/[M | q] outside the
    span of the two reference rows.

    Either way a nonpositive principal minor raises ``ValueError`` naming
    its index set, before a zero basic component raises ``DegenerateQ``:
    on the Cauchy route that is a zero e(r, t), a zero w_r at vertex {t}.
    """
    n, q = instance.n, instance.q
    a = _integer_rows(row + (x,) for row, x in zip(instance.M.rows, q))
    reason = _not_cauchy_like(a, "[M | q]")
    if reason is not None:
        _past_the_cap(n, "[M | q]", reason)
        return _tree_to_uso(instance)
    refusal = _first_nonpositive_minor(a)
    if refusal is not None:
        raise ValueError(refusal)
    rows = []
    for t, pivot in enumerate(a):
        row = 1 << t
        for r, other in enumerate(a):
            if r != t:
                # e(r, t) = nu / (M_tt q_r) with M_tt > 0, so it is negative when nu and q_r differ in sign
                nu = pivot[t] * other[n] - other[t] * pivot[n]
                if nu == 0:
                    raise DegenerateQ(f"zero component in the basic solution at vertex {1 << t}")
                if (nu < 0) != (other[n] < 0):
                    row |= 1 << r
        rows.append(row)
    o = Orientation._from_checked_rows(n, sum(1 << r for r in range(n) if q[r] < 0), tuple(rows))
    return _certified(a, o, lambda sink: _basic_values(a, sink))
