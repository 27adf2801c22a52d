"""Hypercube vertices, orientations, USO checks and faces.

Vertices of the n-cube are subsets of the dimension set {1, ..., n},
encoded as bitmasks with dimension d stored in bit d-1.  An orientation
assigns every vertex its *outmap*: the set of dimensions whose incident
edge points away from the vertex.  An orientation is a unique sink
orientation (USO) when every subcube has exactly one sink.

Every check below decides a Matousek-type orientation from its n+1 flip
integers (see :class:`Orientation`) and reads the dense table only for
orientations that are not of that type.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

MAX_DIMENSION = 20  # dense 2^n table; beyond this the table itself is the problem
MAX_ROW_DIMENSION = 64  # row form: n+1 integers, so only the cost of a search bounds n
USO_PAIR_CAP = 16  # 4^16 vertex pairs take about a minute in numpy


def dims_to_mask(dims: Iterable[int], n: int) -> int:
    """Encode a collection of dimensions from {1..n} as a bitmask."""
    mask = 0
    for d in dims:
        if not 1 <= d <= n:
            raise ValueError(f"dimension {d} out of range 1..{n}")
        mask |= 1 << (d - 1)
    return mask


def mask_to_dims(mask: int) -> list[int]:
    """Decode a bitmask into a sorted list of dimensions."""
    dims = []
    d = 1
    while mask:
        if mask & 1:
            dims.append(d)
        mask >>= 1
        d += 1
    return dims


def _check_n(n: int, cap: int = MAX_DIMENSION) -> None:
    if not 1 <= n <= cap:
        raise ValueError(f"cube dimension must be in 1..{cap}, got {n}")


class Orientation:
    """A cube orientation with two views: the dense outmap table and the flip rows.

    ``outmaps[v]`` is the outmap bitmask of the vertex with bitmask ``v``:
    2^n entries using only the low n bits.  A Matousek-type orientation
    (every dimension d flips one constant set r_d) is also described by
    n+1 integers: o(v) = ``base`` XOR the ``rows`` r_d of the dimensions d
    in v.  ``Orientation(n, outmaps)`` starts from a table and
    :meth:`from_rows` from rows; the other view is computed on first read
    and cached.  The table is refused above ``MAX_DIMENSION``; the row view
    is None for a table that is not Matousek-type.  Two orientations are
    equal when their tables are, so they compare and hash by rows when
    both are Matousek-type.  Edge consistency is *not* enforced here, use
    :func:`check_orientation`.
    """

    __slots__ = ("n", "_table", "_flip")

    def __init__(self, n: int, outmaps: Sequence[int]) -> None:
        self.n = n
        self._table: Optional[tuple[int, ...]] = tuple(outmaps)
        # (base, candidate rows, first vertex they fail to rebuild or None), once known
        self._flip: Optional[tuple[int, tuple[int, ...], Optional[int]]] = None
        self.__post_init__()

    def __post_init__(self) -> None:
        """Validate the table given to the constructor.

        Kept under this name so that the benchmark's tracer, which wraps
        it, counts the table entries built.
        """
        _check_n(self.n)
        size = 1 << self.n
        table = self._table
        if len(table) != size:
            raise ValueError(f"outmap table needs {size} entries for n={self.n}, got {len(table)}")
        full = size - 1
        # one C-level pass; a negative entry has high bits set as well
        if reduce(or_, table) & ~full:
            v = next(v for v, out in enumerate(table) if out & ~full)
            raise ValueError(f"outmap of vertex {v} uses bits outside 1..{self.n}")

    @classmethod
    def from_rows(cls, n: int, base: int, rows: Iterable[int]) -> "Orientation":
        """The orientation o(v) = base XOR the rows of the dimensions in v, up to n = MAX_ROW_DIMENSION."""
        _check_n(n, MAX_ROW_DIMENSION)
        rows = tuple(rows)
        if len(rows) != n:
            raise ValueError(f"need {n} rows, got {len(rows)}")
        if reduce(or_, rows, base) & ~((1 << n) - 1):
            raise ValueError(f"base or rows use bits outside 1..{n}")
        o = cls.__new__(cls)
        o.n, o._table, o._flip = n, None, (base, rows, None)
        return o

    @classmethod
    def uniform(cls, n: int) -> "Orientation":
        """The orientation o(v) = v: all edges point towards larger vertices."""
        return cls(n, tuple(range(1 << n)))

    @property
    def outmaps(self) -> tuple[int, ...]:
        """The dense table, built from the rows on first read."""
        if self._table is None:
            if self.n > MAX_DIMENSION:
                raise ValueError(
                    f"an outmap table has 2^{self.n} entries; tables are capped at n = {MAX_DIMENSION}"
                )
            base, rows, _ = self._flip
            self._table = xor_table(base, rows)
        return self._table

    @property
    def has_table(self) -> bool:
        """Whether the dense table is built: from birth, or since ``outmaps`` was read."""
        return self._table is not None

    @property
    def known_rows(self) -> Optional[tuple[int, ...]]:
        """The flip rows if the row view is already known, else None; never reads the table."""
        return None if self._flip is None else self.rows

    @property
    def rows(self) -> Optional[tuple[int, ...]]:
        """The flip rows r_d, or None when the orientation is not Matousek-type."""
        if self._flip is None:
            matousek_rows(self)
        _, rows, mismatch = self._flip
        return rows if mismatch is None else None

    @property
    def base(self) -> Optional[int]:
        """o(0) when the orientation is Matousek-type, else None."""
        return None if self.rows is None else self._flip[0]

    def outmap(self, v: int) -> int:
        if self._table is not None:
            return self._table[v]
        out, rows, _ = self._flip
        for d, row in enumerate(rows):
            if v >> d & 1:
                out ^= row
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Orientation):
            return NotImplemented
        if self.n != other.n:
            return False
        mine, theirs = self.rows, other.rows
        if mine is None and theirs is None:
            return self._table == other._table
        return mine == theirs and self._flip[0] == other._flip[0]

    def __hash__(self) -> int:
        rows = self.rows
        return hash((self.n, self._table) if rows is None else (self.n, self._flip[0], rows))

    def __repr__(self) -> str:
        if self._table is not None:
            return f"Orientation(n={self.n}, outmaps={self._table!r})"
        base, rows, _ = self._flip
        return f"Orientation.from_rows({self.n}, {base}, {rows!r})"

    def to_json_obj(self) -> dict:
        return {"n": self.n, "outmaps": [mask_to_dims(m) for m in self.outmaps]}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Orientation":
        try:
            n = obj["n"]
            rows = obj["outmaps"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"orientation JSON needs 'n' and 'outmaps': {exc}") from exc
        if type(n) is not int:
            raise ValueError(f"orientation JSON: 'n' must be an integer, got {n!r}")
        _check_n(n)
        if not isinstance(rows, list) or not all(
            isinstance(row, list) and all(type(d) is int for d in row) for row in rows
        ):
            raise ValueError("orientation JSON: 'outmaps' must be a list of lists of integer dimensions")
        if len(rows) != 1 << n:
            raise ValueError(
                f"orientation JSON: expected {1 << n} outmaps for n={n}, got {len(rows)}"
            )
        return cls(n, tuple(dims_to_mask(row, n) for row in rows))


@dataclass(frozen=True)
class Face:
    """A subcube: fixed values outside the spanning dimensions.

    ``spanning`` is the bitmask of free dimensions, ``fixed`` the bitmask of
    coordinates on the non-spanning dimensions.  Bits of ``fixed`` inside
    ``spanning`` must be zero.
    """

    fixed: int
    spanning: int

    def __post_init__(self) -> None:
        if self.fixed & self.spanning:
            raise ValueError("fixed coordinates overlap the spanning set")

    @property
    def dimension(self) -> int:
        return self.spanning.bit_count()

    def vertices(self) -> Iterator[int]:
        """All vertices of the face, as bitmasks of the ambient cube."""
        span = self.spanning
        sub = 0
        while True:
            yield self.fixed | sub
            if sub == span:
                return
            sub = (sub - span) & span  # next subset of span

    def contains(self, v: int) -> bool:
        return v & ~self.spanning == self.fixed


def _outmap_array(o: Orientation) -> np.ndarray:
    return np.fromiter(o.outmaps, dtype=np.int64, count=1 << o.n)


def xor_table(base: int, rows: Iterable[int]) -> tuple[int, ...]:
    """Entry v is base XOR the rows of the dimensions in v, by XOR doubling.

    Each row doubles the table: the vertices with that dimension's bit set
    are the ones without it, XORed with the row.
    """
    table = [base]
    for row in rows:
        table += [out ^ row for out in table]
    return tuple(table)


def matousek_rows(o: Orientation) -> tuple[tuple[int, ...], Optional[int]]:
    """Flip rows r_d = o(0) xor o({d}) and the first vertex the rows fail to rebuild.

    o is Matousek-type (every dimension flips one constant set) exactly when
    ``xor_table(o(0), rows)`` rebuilds the whole table; then the vertex is
    None.  Otherwise it is the first vertex v where the rebuild differs.  All
    lower vertices match, so with d the highest dimension in v the pattern
    o(v) xor o(v xor {d}) differs from r_d: v locates dimension d's
    variation.  n+1 table reads, one XOR-doubling rebuild, one tuple compare,
    once per orientation: the result is cached, and an orientation built
    from rows has it from the start.
    """
    if o._flip is None:
        outs = o.outmaps
        base = outs[0]
        rows = tuple(base ^ outs[1 << d] for d in range(o.n))
        rebuilt = xor_table(base, rows)
        mismatch = None
        if rebuilt != outs:
            mismatch = next(v for v, (a, b) in enumerate(zip(rebuilt, outs)) if a != b)
        o._flip = (base, rows, mismatch)
    _, rows, mismatch = o._flip
    return rows, mismatch


def rows_acyclic(rows: Sequence[int]) -> bool:
    """Whether the digraph with out-neighbour masks ``rows`` has no cycle besides loops.

    Strips sinks (dimensions with no live out-neighbour other than
    themselves) until none are left, or none can go.
    """
    alive = (1 << len(rows)) - 1
    while alive:
        removable = 0
        for d in mask_to_dims(alive):
            if rows[d - 1] & alive & ~(1 << (d - 1)) == 0:
                removable |= 1 << (d - 1)
        if removable == 0:
            return False
        alive &= ~removable
    return True


def check_orientation(o: Orientation) -> bool:
    """Edge consistency: each cube edge points out of exactly one endpoint.

    With flip rows, o(v) and o(v xor {d}) differ in bit d exactly when r_d
    has its loop bit d, so known rows decide it in O(n).  A table whose
    rows have not been read yet is checked edge by edge.
    """
    rows = o.known_rows
    if rows is not None:
        return all(row >> d & 1 for d, row in enumerate(rows))
    outs = _outmap_array(o)
    for d in range(o.n):
        # each block of 2^(d+1) vertices, split into its halves without and with bit d
        halves = outs.reshape(-1, 2, 1 << d)
        if not np.all((halves[:, 0] ^ halves[:, 1]) & (1 << d)):
            return False
    return True


def is_uso(o: Orientation) -> bool:
    """Whether o is a unique sink orientation.

    o must be an edge-consistent orientation (``ValueError`` otherwise).
    A Matousek-type one is decided by its rows alone, with no pair test:
    acyclic rows make a USO by construction.  Cyclic rows never do: a
    shortest cycle C has no chords, so each of its dimensions has exactly
    one in-neighbour in C, the rows over C XOR to a set that misses C, and
    the pair (0, C) fails.  Any other table goes through
    :func:`uso_by_pairs`, capped at ``USO_PAIR_CAP`` dimensions.
    """
    if not check_orientation(o):
        raise ValueError("outmap table is not an orientation (edge consistency fails)")
    rows = o.rows
    if rows is not None:
        return rows_acyclic(rows)
    if o.n > USO_PAIR_CAP:
        raise ValueError(
            f"USO check needs 4^{o.n} vertex pairs unless the flip rows are constant "
            f"with loop bits; the pair test is capped at n = {USO_PAIR_CAP}"
        )
    return uso_by_pairs(o)


def uso_by_pairs(o: Orientation) -> bool:
    """The pairwise USO condition, for an edge-consistent orientation.

    For every pair of distinct vertices v, w the sets v xor w and
    o(v) xor o(w) must intersect.  4^n pairs, in numpy row blocks.
    """
    size = 1 << o.n
    verts = np.arange(size, dtype=np.int64)
    outs = _outmap_array(o)
    # row blocks keep the pair matrices around 2^22 entries
    block = max(1, (1 << 22) >> o.n)
    for lo in range(0, size, block):
        hi = min(lo + block, size)
        vd = verts[lo:hi, None] ^ verts[None, :]
        od = outs[lo:hi, None] ^ outs[None, :]
        if np.any(((vd & od) == 0) & (vd != 0)):
            return False
    return True


def _xor_solutions(rows: Sequence[int], target: int) -> tuple[Optional[int], list[int]]:
    """The vertices v whose rows XOR to target, over GF(2).

    Returns the smallest solution (None if there is none) and a kernel
    basis.  Rows are eliminated in increasing dimension order, keyed by
    their leading bit; a row that reduces to zero gives the kernel vector
    of its dimension d, whose other dimensions are all lower pivots.  The
    particular solution uses pivot dimensions only, so it is the smallest
    solution, and the next one up adds the kernel vector of the lowest
    free dimension, which is ``kernel[0]``.
    """
    pivots: dict[int, tuple[int, int]] = {}  # leading bit -> (reduced row, its dimensions)

    def reduced(value: int, combo: int) -> tuple[int, int]:
        while value:
            pivot = pivots.get(value.bit_length())
            if pivot is None:
                break
            value ^= pivot[0]
            combo ^= pivot[1]
        return value, combo

    kernel = []
    for d, row in enumerate(rows):
        value, combo = reduced(row, 1 << d)
        if value:
            pivots[value.bit_length()] = (value, combo)
        else:
            kernel.append(combo)
    value, combo = reduced(target, 0)
    return (None if value else combo), kernel


def global_sink(o: Orientation) -> int:
    """The unique vertex with empty outmap; raises if it is not unique.

    With flip rows this solves o(v) = 0, i.e. the rows of v XOR to o(0),
    over GF(2) in O(n^2), and reports no sink or the two smallest sinks
    exactly as the table scan does.  For acyclic rows with loop bits the
    system is unitriangular in topological order, so the sink is unique;
    for a built orientation o(0) = 0 and the sink is the empty vertex.
    A table whose rows have not been read yet is scanned.
    """
    rows = o.known_rows
    if rows is not None:
        sink, kernel = _xor_solutions(rows, o.base)
        if sink is None:
            raise ValueError("no vertex has an empty outmap")
        if kernel:
            raise ValueError(f"multiple sinks: {sink} and {sink ^ kernel[0]}")
        return sink
    outs = o.outmaps
    try:
        sink = outs.index(0)
    except ValueError:
        raise ValueError("no vertex has an empty outmap") from None
    if outs.count(0) > 1:
        raise ValueError(f"multiple sinks: {sink} and {outs.index(0, sink + 1)}")
    return sink
