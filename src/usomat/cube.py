"""Hypercube vertices, orientations, USO checks, faces and isomorphisms.

Vertices of the n-cube are subsets of the dimension set {1, ..., n},
encoded as bitmasks with dimension d stored in bit d-1.  An orientation
assigns every vertex its *outmap*: the set of dimensions whose incident
edge points away from the vertex.  An orientation is a unique sink
orientation (USO) when every subcube has exactly one sink.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

MAX_DIMENSION = 20  # dense 2^n table; beyond this the table itself is the problem
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


def _check_n(n: int) -> None:
    if not 1 <= n <= MAX_DIMENSION:
        raise ValueError(f"cube dimension must be in 1..{MAX_DIMENSION}, got {n}")


@dataclass(frozen=True)
class Orientation:
    """A cube orientation given by its dense outmap table.

    ``outmaps[v]`` is the outmap bitmask of the vertex with bitmask ``v``.
    The table always has ``2**n`` entries and only uses the low ``n`` bits;
    edge consistency is *not* enforced here, use :func:`check_orientation`.
    """

    n: int
    outmaps: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_n(self.n)
        size = 1 << self.n
        if len(self.outmaps) != size:
            raise ValueError(
                f"outmap table needs {size} entries for n={self.n}, got {len(self.outmaps)}"
            )
        full = size - 1
        # one C-level pass; a negative entry has high bits set as well
        if reduce(or_, self.outmaps) & ~full:
            v = next(v for v, out in enumerate(self.outmaps) if out & ~full)
            raise ValueError(f"outmap of vertex {v} uses bits outside 1..{self.n}")

    @classmethod
    def uniform(cls, n: int) -> "Orientation":
        """The orientation o(v) = v: all edges point towards larger vertices."""
        return cls(n, tuple(range(1 << n)))

    def outmap(self, v: int) -> int:
        return self.outmaps[v]

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
    variation.  n+1 table reads, one XOR-doubling rebuild, one tuple compare.
    """
    outs = o.outmaps
    base = outs[0]
    rows = tuple(base ^ outs[1 << d] for d in range(o.n))
    rebuilt = xor_table(base, rows)
    if rebuilt == outs:
        return rows, None
    return rows, next(v for v, (a, b) in enumerate(zip(rebuilt, outs)) if a != b)


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
    """Edge consistency: each cube edge points out of exactly one endpoint."""
    outs = _outmap_array(o)
    for d in range(o.n):
        # each block of 2^(d+1) vertices, split into its halves without and with bit d
        halves = outs.reshape(-1, 2, 1 << d)
        if not np.all((halves[:, 0] ^ halves[:, 1]) & (1 << d)):
            return False
    return True


def is_uso(o: Orientation) -> bool:
    """Whether o is a unique sink orientation.

    A Matousek-type table (see :func:`matousek_rows`) whose rows carry their
    loop bits is decided by its rows alone, with no pair test: acyclic rows
    make a USO by construction.  Cyclic rows never do: a shortest cycle C
    has no chords, so each of its dimensions has exactly one in-neighbour
    in C, the rows over C XOR to a set that misses C, and the pair (0, C)
    fails.  Any other table must be an edge-consistent orientation
    (``ValueError`` otherwise) and goes through :func:`uso_by_pairs`, capped
    at ``USO_PAIR_CAP`` dimensions.
    """
    rows, mismatch = matousek_rows(o)
    if mismatch is None and all(row >> d & 1 for d, row in enumerate(rows)):
        return rows_acyclic(rows)
    if not check_orientation(o):
        raise ValueError("outmap table is not an orientation (edge consistency fails)")
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


def global_sink(o: Orientation) -> int:
    """The unique vertex with empty outmap; raises if it is not unique."""
    outs = o.outmaps
    try:
        sink = outs.index(0)
    except ValueError:
        raise ValueError("no vertex has an empty outmap") from None
    if outs.count(0) > 1:
        raise ValueError(f"multiple sinks: {sink} and {outs.index(0, sink + 1)}")
    return sink


def apply_isomorphism(o: Orientation, iso: Isomorphism) -> Orientation:
    """Mirror and relabel an orientation; preserves the USO property."""
    if len(iso.relabel) != o.n:
        raise ValueError(f"isomorphism is on {len(iso.relabel)} dimensions, cube has {o.n}")
    size = 1 << o.n
    table = [0] * size
    for v in range(size):
        table[iso.apply_to_mask(v ^ iso.mirror)] = iso.apply_to_mask(o.outmaps[v])
    return Orientation(o.n, tuple(table))
