"""Exact-rational linear complementarity instances from cyclic extensions.

A cyclic extension is realized by vectors on the moment curve, one per
element, negated for flip-set members.  Writing the vectors of the second
pair members and q in the basis of the first pair members turns the
complementarity problem over the matroid into a standard LCP: find
w, z >= 0 with w - M z = q and w^T z = 0.  That basis is a Vandermonde
matrix with signed columns, so :func:`translate_to_plcp` reads M and q
off the Lagrange basis on its nodes, in closed form.  All arithmetic is
exact, so sign decisions are never at the mercy of floating point:
Fractions at the boundary, Python ints in every product and elimination.
One integer form, each row times the lcm of its own denominators
(:func:`_integer_rows`), feeds the Cauchy route below and the exact solve
:meth:`RationalMatrix.solve_matrix`, whose fraction-free step is
:func:`_pivot_step`.

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
1x1 and 2x2 signs.  :func:`is_p_matrix` and :func:`plcp_to_uso` read
Cauchy-like LCPs only, the instances of :func:`translate_to_plcp` among
them (on the positions of the extension's elements).  They test for that
shape in integers (:func:`_cauchy_like_rows`) and then decide in O(n^2)
integer products, at any n: ``usomat realize`` certifies its instances
up to n = 64 that way.  Any other input is refused at every n, named by
its first zero entry or its first row of K outside the span of the two
reference rows.  The z of the sink's basic solution is a product of the
same factors, and :func:`_certified` checks it: at the sink S, z > 0 on
S, and w = q + M z, one exact integer product, zero on S and positive
off it.  M[S, S] is nonsingular for a P-matrix, so a point that passes
is the feasible basic solution at S.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm, prod
from numbers import Rational
from typing import Callable, Iterable, Optional, Sequence

from .cube import Orientation, _json_fields, global_sink
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
    """A read-only dense matrix of Fractions.

    No route of the package solves a linear system: :meth:`solve_matrix`
    serves the test oracles (their direct solve of a complementary basis
    and their elimination of a realization matrix), and the benchmark's
    tracer patches it to count linear solves.
    """

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

    Read-only and exact all the way down: M must be a
    :class:`RationalMatrix`, and q is kept as a tuple of Fractions, read
    by the entry rule of the matrix (fraction strings, integers or
    Fractions; a float, a bool or anything else is a ``ValueError``).
    """

    n: int
    M: RationalMatrix
    q: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if type(self.n) is not int or self.n < 1:
            raise ValueError(f"instance size must be an integer of at least 1, got {self.n!r}")
        if not isinstance(self.M, RationalMatrix):
            raise ValueError(f"M must be a RationalMatrix, got {type(self.M).__name__}")
        if self.M.nrows != self.n or self.M.ncols != self.n:
            raise ValueError(f"M must be {self.n}x{self.n}")
        q = tuple(map(_exact, self.q))
        if len(q) != self.n:
            raise ValueError(f"q must have {self.n} entries")
        object.__setattr__(self, "q", q)

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
        return cls(n, RationalMatrix(rows), q)


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
    factor e and g unchanged, so the Cauchy route, the solves and the
    tests' pivot tree all read these rows.
    """
    out = []
    for row in rows:
        scale = lcm(*(x.denominator for x in row))
        out.append([x.numerator * (scale // x.denominator) for x in row])
    return out


def _pivot_step(vec: list[int], pivot_vec: list[int], pos: int, d: int) -> list[int]:
    """(p * vec - vec[pos] * pivot_vec) / d with p = pivot_vec[pos], exactly.

    Both callers, :meth:`RationalMatrix.solve_matrix` and the tests' pivot
    tree, keep every entry a minor of their integer input and pass
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


def _cauchy_like_rows(rows: Iterable[Iterable[Fraction]], label: str) -> list[list[int]]:
    """The integer rows ``a`` of ``label`` (M or [M | q]), once they are Cauchy-like, else a ``ValueError``.

    Cauchy-like is no zero entry and an entrywise reciprocal of rank at
    most 2.  Row i of the reciprocal times the lcm of a_i is the integer
    row k_i; scaling rows keeps the rank.  With k_j the first row not
    proportional to k_0, and a column c where the two are independent
    (delta != 0), every later row must satisfy
    alpha k_0 + beta k_j = delta k_i, alpha and beta read off columns 0
    and c by Cramer's rule: O(n^2) integer products.  The refusal names
    the first zero entry, or the first row k_i outside that span.
    """
    a = _integer_rows(rows)
    n = len(a)
    for i, row in enumerate(a):
        for t, x in enumerate(row):
            if x == 0:
                name = f"M[{i + 1}, {t + 1}]" if t < n else f"q[{i + 1}]"
                raise ValueError(f"{label} is not Cauchy-like ({name} is 0)")
    if n < 3:  # two rows span at most two dimensions
        return a
    k = []
    for row in a:
        scale = lcm(*row)
        k.append([scale // x for x in row])
    r0 = k[0]
    j = next((i for i, row in enumerate(k) if any(x * r0[0] != y * row[0] for x, y in zip(row, r0))), None)
    if j is None:  # rank 1
        return a
    r1 = k[j]
    c = next(c for c, (x, y) in enumerate(zip(r1, r0)) if x * r0[0] != y * r1[0])
    delta = r0[0] * r1[c] - r0[c] * r1[0]
    for i in range(j + 1, n):  # the rows before k_j are multiples of k_0
        row = k[i]
        alpha = row[0] * r1[c] - row[c] * r1[0]
        beta = r0[0] * row[c] - r0[c] * row[0]
        if any(alpha * x + beta * y != delta * z for x, y, z in zip(r0, r1, row)):
            raise ValueError(
                f"{label} is not Cauchy-like (row {i + 1} of 1/{label} is outside the span of rows 1 and {j + 1})"
            )
    return a


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
    """All principal minors of a Cauchy-like M positive, decided exactly.

    Such an M is a P-matrix exactly when its n diagonal entries and its
    n(n-1)/2 2x2 principal minors are positive, by the product theorem of
    the module docstring: O(n^2) integer products at any n.  Any other M
    is refused with a ``ValueError`` that names its first zero entry, or
    the first row of 1/M outside the span of the two reference rows.
    """
    if m.nrows != m.ncols:
        raise ValueError("P-matrix test needs a square matrix")
    return _first_nonpositive_minor(_cauchy_like_rows(m.rows, "M")) is None


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
    """Orient each cube vertex by the signs of its basic solution, for a Cauchy-like [M | q] with M a P-matrix.

    Dimension i points away from vertex v exactly when the basic pair-i
    component is negative; since M is a P-matrix this is a unique sink
    orientation whose sink is the feasible complementary basis.

    A Cauchy-like [M | q] (module docstring) is read in O(n^2) integer
    products at any n; any other instance is refused with a
    ``ValueError`` that names its first zero entry, or the first row of
    1/[M | q] outside the span of the two reference rows, so a zero q
    entry is refused that way rather than as ``DegenerateQ``.  The
    n(n+1)/2 1x1 and 2x2 principal minors of M decide the P-matrix
    property.  The orientation comes back in row form:
    w_r(S) = q_r prod_{t in S} e(r, t) for r outside S, and for r in S,
    z_r(S) < 0 exactly when w_r(S - {r}) > 0, so o(0) = [q < 0] and row t
    has bit r != t set when e(r, t) < 0, and its loop bit t.  At its sink
    S the z of :func:`_basic_values`, products of the same factors, goes
    to the certificate (:func:`_certified`): z > 0 on S, and w = q + M z,
    one exact integer product, zero on S and positive off it, else
    ``ArithmeticError``.
    M[S, S] is nonsingular, its determinant a product of certified
    positive factors, so a point that passes is the basic solution at S:
    the product proves what a solve would.

    A nonpositive principal minor raises ``ValueError`` naming its index
    set, before a zero basic component raises ``DegenerateQ``: that is a
    zero e(r, t), a zero w_r at vertex {t}.
    """
    n, q = instance.n, instance.q
    a = _cauchy_like_rows((row + (x,) for row, x in zip(instance.M.rows, q)), "[M | q]")
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
