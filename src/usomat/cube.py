"""Hypercube vertices, orientations, USO checks and faces.

Vertices of the n-cube are subsets of the dimension set {1, ..., n},
encoded as bitmasks with dimension d stored in bit d-1.  An orientation
assigns every vertex its *outmap*: the set of dimensions whose incident
edge points away from the vertex.  An orientation is a unique sink
orientation (USO) when every subcube has exactly one sink.

An orientation knows from birth whether it is Matousek-type: one built
from a table is recognised by its constructor.  Every check below decides
a Matousek-type orientation from its n+1 flip integers (see
:class:`Orientation`) and reads the dense table only for orientations
that are not of that type.  A table is built from rows only when
``outmaps`` is read: for output, and by code that reads a table vertex
by vertex.  Outmaps, o(0) and flip rows follow one rule, :func:`_check_masks`,
checked where they enter (the table constructor and both ``from_rows``);
rows that the library computes from checked ones skip it.  A vertex is
checked where it is read, by :meth:`Orientation.outmap`, whatever the form.

numpy is imported only by the functions that compute with arrays: the
table branch of :func:`check_orientation` and :func:`uso_by_pairs`, both
for tables that are not Matousek-type.  Importing the module, and every
check of a Matousek-type orientation, leaves numpy unloaded.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional, Sequence

if TYPE_CHECKING:
    import numpy as np

MAX_DIMENSION = 20  # dense 2^n table; beyond this the table itself is the problem
MAX_ROW_DIMENSION = 64  # row form: n+1 integers, so only the cost of a search bounds n
USO_PAIR_CAP = 16  # 4^16 vertex pairs take about a minute in numpy


def dims_to_mask(dims: Iterable[int], n: int) -> int:
    """Encode a collection of dimensions from {1..n} as a bitmask."""
    mask = 0
    for d in dims:
        if type(d) is not int or not 1 <= d <= n:
            raise ValueError(f"dimension {d!r} is not an integer in 1..{n}")
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
    if type(n) is not int or not 1 <= n <= cap:
        raise ValueError(f"cube dimension must be in 1..{cap}, got {n!r}")


def _check_masks(n: int, masks: Sequence[int], name: Callable[[int], str]) -> None:
    """Refuse a mask that is not an int (a bool is not one) or has bits outside 1..n; ``name(i)`` names mask i."""
    # one C-level pass each, the OR only over ints; a negative mask has high bits set as well
    if set(map(type, masks)) != {int} or reduce(or_, masks) >> n:
        i = next(i for i, mask in enumerate(masks) if type(mask) is not int or mask >> n)
        raise ValueError(f"{name(i)} is {masks[i]!r}, not an integer with bits in 1..{n} only")


def _json_fields(obj: object, kind: str, *keys: str) -> list:
    """The values of ``keys`` in a JSON document, or a ValueError naming the document's kind."""
    try:
        return [obj[key] for key in keys]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{kind} JSON needs {', '.join(map(repr, keys))}: {exc}") from exc


class Orientation:
    """A cube orientation: a dense outmap table, or flip rows for a Matousek-type one.

    ``outmaps[v]`` is the outmap bitmask of the vertex with bitmask ``v``:
    2^n entries using only the low n bits.  A Matousek-type orientation
    (every dimension d flips one constant set r_d) is also described by
    n+1 integers: o(v) = ``base`` XOR the ``rows`` r_d of the dimensions d
    in v.  ``Orientation(n, outmaps)`` starts from a table and recognises it
    once, when it is made (:func:`matousek_rows`); :meth:`from_rows` starts
    from rows and builds the table only if ``outmaps`` is read.  For a table
    that is not Matousek-type, ``base`` and ``rows`` are None and
    ``mismatch`` is the first vertex where the flip rows o(0) xor o({d})
    fail to rebuild it; otherwise ``mismatch`` is None.  The table is
    refused above ``MAX_DIMENSION``.  Two orientations are equal when their
    tables are, so they compare and hash by rows when both are
    Matousek-type.  Edge consistency is *not* enforced here, use
    :func:`check_orientation`.
    """

    __slots__ = ("n", "base", "rows", "mismatch", "_table")

    def __init__(self, n: int, outmaps: Sequence[int]) -> None:
        self.n = n
        self._table: Optional[tuple[int, ...]] = tuple(outmaps)
        self.__post_init__()
        rows, self.mismatch = matousek_rows(self._table)
        if self.mismatch is None:
            self.base, self.rows = self._table[0], rows
        else:
            self.base = self.rows = None

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
        _check_masks(self.n, table, lambda v: f"outmap of vertex {v}")

    @classmethod
    def from_rows(cls, n: int, base: int, rows: Iterable[int]) -> "Orientation":
        """o(v) = base XOR the rows of the dimensions in v, up to n = MAX_ROW_DIMENSION; masks checked as in tables."""
        _check_n(n, MAX_ROW_DIMENSION)
        rows = tuple(rows)
        if len(rows) != n:
            raise ValueError(f"need {n} rows, got {len(rows)}")
        _check_masks(n, (base, *rows), lambda d: f"row of dimension {d}" if d else "base")
        return cls._from_checked_rows(n, base, rows)

    @classmethod
    def _from_checked_rows(cls, n: int, base: int, rows: tuple[int, ...]) -> "Orientation":
        """The row form of values that :meth:`from_rows` would accept, rows a tuple; nothing is checked."""
        o = cls.__new__(cls)
        o.n, o.base, o.rows, o.mismatch, o._table = n, base, rows, None, None
        return o

    @property
    def outmaps(self) -> tuple[int, ...]:
        """The dense table; one born in row form builds it on first read."""
        if self._table is None:
            if self.n > MAX_DIMENSION:
                raise ValueError(
                    f"an outmap table has 2^{self.n} entries; tables are capped at n = {MAX_DIMENSION}"
                )
            self._table = xor_table(self.base, self.rows)
        return self._table

    def outmap(self, v: int) -> int:
        """The outmap of vertex v; a ValueError unless v is an int (a bool is not one) in 0..2^n - 1."""
        if type(v) is not int or v < 0 or v >> self.n:
            raise ValueError(f"vertex {v!r} is not an integer in 0..{(1 << self.n) - 1}")
        if self._table is not None:
            return self._table[v]
        out = self.base
        for d, row in enumerate(self.rows):
            if v >> d & 1:
                out ^= row
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Orientation):
            return NotImplemented
        if self.n != other.n:
            return False
        if self.rows is None and other.rows is None:
            return self._table == other._table
        return self.rows == other.rows and self.base == other.base

    def __hash__(self) -> int:
        rows = self.rows
        return hash((self.n, self._table) if rows is None else (self.n, self.base, rows))

    def __repr__(self) -> str:
        if self.rows is None:
            return f"Orientation(n={self.n}, outmaps={self._table!r})"
        return f"Orientation.from_rows({self.n}, {self.base}, {self.rows!r})"

    def to_json_obj(self) -> dict:
        return {"n": self.n, "outmaps": [mask_to_dims(m) for m in self.outmaps]}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Orientation":
        n, rows = _json_fields(obj, "orientation", "n", "outmaps")
        _check_n(n)  # before 2^n dimension lists are read
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise ValueError("orientation JSON: 'outmaps' must be a list of lists of integer dimensions")
        return cls(n, tuple(dims_to_mask(row, n) for row in rows))


@dataclass(frozen=True)
class Face:
    """A subcube: fixed values outside the spanning dimensions.

    ``spanning`` is the bitmask of free dimensions, ``fixed`` the bitmask of
    coordinates on the non-spanning dimensions.  Both are ints (a bool is
    not one) of at least 0, as :func:`_check_masks` asks of every mask, and
    bits of ``fixed`` inside ``spanning`` must be zero.
    """

    fixed: int
    spanning: int

    def __post_init__(self) -> None:
        for name, mask in (("fixed", self.fixed), ("spanning", self.spanning)):
            if type(mask) is not int or mask < 0:
                raise ValueError(f"{name} mask is {mask!r}, not an integer of at least 0")
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
    import numpy as np

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


def matousek_rows(table: tuple[int, ...]) -> tuple[tuple[int, ...], Optional[int]]:
    """Flip rows r_d = o(0) xor o({d}) of an outmap table, and the first vertex they fail to rebuild.

    The table is Matousek-type (every dimension flips one constant set)
    exactly when every vertex v has o(v) = o(0) xor the rows of the
    dimensions in v; then the vertex is None.  It is checked half-cube by
    half-cube: for bit d = 0..n-1, entries [2^d, 2^(d+1)) must be entries
    [0, 2^d) XOR the row of bit d, and the first block that differs stops
    the scan.  All lower vertices are rebuilt correctly, so the block's
    first differing vertex v is the first vertex where the whole rebuild
    differs, and o(v) xor o(v - 2^d) differs from the row of bit d: v
    locates the variation of its highest dimension.  O(2^n), once per
    table, by the constructor; no second 2^n tuple is built.
    """
    base = table[0]
    rows = tuple(base ^ table[1 << d] for d in range(len(table).bit_length() - 1))
    for d, row in enumerate(rows):
        low = 1 << d
        upper = table[low : 2 * low]
        rebuilt = tuple([out ^ row for out in table[:low]])
        if upper != rebuilt:
            return rows, low + next(v for v, (a, b) in enumerate(zip(upper, rebuilt)) if a != b)
    return rows, None


def rows_acyclic(rows: Sequence[int]) -> bool:
    """Whether the digraph with out-neighbour masks ``rows`` has no cycle besides loops.

    Strips sinks (dimensions with no live out-neighbour other than
    themselves) until none are left, or none can go.
    """
    alive = (1 << len(rows)) - 1
    while alive:
        removable = 0
        rest = alive
        while rest:
            low = rest & -rest
            rest ^= low
            if rows[low.bit_length() - 1] & alive & ~low == 0:
                removable |= low
        if removable == 0:
            return False
        alive ^= removable
    return True


def check_orientation(o: Orientation) -> bool:
    """Edge consistency: each cube edge points out of exactly one endpoint.

    With flip rows, o(v) and o(v xor {d}) differ in bit d exactly when r_d
    has its loop bit d, so a Matousek-type orientation is decided in O(n).
    Any other table is checked edge by edge.
    """
    rows = o.rows
    if rows is not None:
        return all(row >> d & 1 for d, row in enumerate(rows))
    import numpy as np

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
    import numpy as np

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
    Any other table is scanned.
    """
    rows = o.rows
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
