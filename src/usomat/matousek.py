"""Dimension influence graphs and the orientations they generate.

A dimension influence graph is a digraph on the dimension set {1..n} with
an implicit loop at every vertex and no other cycles.  Walking along a cube
edge in dimension d flips the outmap exactly in the out-neighbourhood of d,
which pins down a unique orientation with sink at the empty vertex.  These
are the Matousek-type orientations; every one of them is a USO.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .cube import (
    MAX_ROW_DIMENSION,
    Orientation,
    _check_masks,
    _check_n,
    _json_fields,
    check_orientation,
    mask_to_dims,
    rows_acyclic,
)


class NotMatousekType(ValueError):
    """The orientation's edge-flip pattern is not constant per dimension."""


class CyclicInfluence(ValueError):
    """The influence pattern contains a directed cycle besides the loops."""


@dataclass(frozen=True, slots=True)
class InfluenceGraph:
    """Loop-augmented digraph on dimensions, stored as out-neighbour bitmasks.

    ``rows[d-1]`` holds the out-neighbours of dimension d including the
    implicit loop bit, so applying one cube step in dimension d is a single
    XOR with the row.  The graph itself may contain cycles (several
    operations need to represent and then reject them); use
    :meth:`is_acyclic` or the consuming operation's validation.  The
    fields are fixed once the constructor has checked them.
    """

    n: int
    rows: tuple[int, ...]

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        _check_n(n, MAX_ROW_DIMENSION)
        rows = [1 << (d - 1) for d in range(1, n + 1)]
        for d, d2 in edges:
            if not (type(d) is int and type(d2) is int and 1 <= d <= n and 1 <= d2 <= n):
                raise ValueError(f"edge ({d!r},{d2!r}) is not a pair of integer dimensions in 1..{n}")
            if d == d2:
                raise ValueError("loops are implicit; do not list them as edges")
            rows[d - 1] |= 1 << (d2 - 1)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", tuple(rows))

    @classmethod
    def from_rows(cls, n: int, rows: Iterable[int]) -> "InfluenceGraph":
        """Build from out-neighbour masks, checked as table entries are; the loop bit may be present or not."""
        _check_n(n, MAX_ROW_DIMENSION)
        rows = tuple(rows)
        if len(rows) != n:
            raise ValueError(f"need {n} rows, got {len(rows)}")
        _check_masks(n, rows, lambda i: f"row of dimension {i + 1}")
        g = cls.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "rows", tuple(row | 1 << d for d, row in enumerate(rows)))
        return g

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Non-loop edges, sorted."""
        out = []
        for d in range(1, self.n + 1):
            row = self.rows[d - 1] & ~(1 << (d - 1))
            for d2 in mask_to_dims(row):
                out.append((d, d2))
        return tuple(out)

    def has_edge(self, d: int, d2: int) -> bool:
        return bool(self.rows[d - 1] >> (d2 - 1) & 1)

    def is_acyclic(self) -> bool:
        """True when the non-loop edges form a DAG (repeatedly strip sinks)."""
        return rows_acyclic(self.rows)

    def __repr__(self) -> str:
        return f"InfluenceGraph(n={self.n}, edges={list(self.edges)})"

    def to_json_obj(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in self.edges]}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "InfluenceGraph":
        n, edges = _json_fields(obj, "influence graph", "n", "edges")
        if not isinstance(edges, list) or not all(isinstance(e, list) and len(e) == 2 for e in edges):
            raise ValueError("influence graph JSON: 'edges' must be a list of [integer, integer] pairs")
        return cls(n, [tuple(e) for e in edges])

    def to_dot(self) -> str:
        """Graphviz rendering; loops omitted, transitive edges dashed."""
        lines = ["digraph influence {"]
        for d in range(1, self.n + 1):
            lines.append(f"  {d};")
        for d, d2 in self.edges:
            implied = any(
                self.has_edge(d, mid) and self.has_edge(mid, d2)
                for mid in range(1, self.n + 1)
                if mid not in (d, d2)
            )
            style = ' [style="dashed"]' if implied else ""
            lines.append(f"  {d} -> {d2}{style};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_matousek(g: InfluenceGraph) -> Orientation:
    """The unique orientation with sink at the empty vertex generated by g, in row form.

    Rejects graphs with non-loop cycles: those generate edge-consistent
    tables that are not USOs.
    """
    if not g.is_acyclic():
        raise CyclicInfluence(f"influence graph has a non-loop cycle: {list(g.edges)}")
    return Orientation._from_checked_rows(g.n, 0, g.rows)


def extract_influence_graph(o: Orientation) -> InfluenceGraph:
    """Read the influence graph back off a Matousek-type orientation.

    The flip pattern outmap(v) xor outmap(v xor {d}) must be one constant
    set per dimension d; otherwise the orientation is not of Matousek type.
    A constant but cyclic pattern is reported separately, since it certifies
    a non-USO table.  A table that is no orientation at all raises a plain
    ``ValueError``.  The rows and the first mismatch vertex are the ones
    the orientation holds from birth, so a Matousek-type one takes O(n^2)
    and reads no table.
    """
    if not check_orientation(o):
        raise ValueError("outmap table is not an orientation")
    if o.rows is None:
        raise NotMatousekType(
            f"flip pattern of dimension {o.mismatch.bit_length()} varies across vertices "
            f"(first at vertex {mask_to_dims(o.mismatch)})"
        )
    g = InfluenceGraph.from_rows(o.n, o.rows)
    if not g.is_acyclic():
        raise CyclicInfluence(f"constant flip pattern but cyclic: {list(g.edges)}")
    return g


def flip_facet(o: Orientation, d: int, upper: bool = False) -> Orientation:
    """Reverse every edge lying inside the chosen d-facet.

    Edges in dimension d itself are untouched.  The result is always an
    orientation but need not be a USO.  For Matousek-type input the
    influence row of d is toggled on every other dimension; flipping the
    lower facet changes o(0) as well.  That is O(n) on the rows.  Any other
    table is flipped vertex by vertex.
    """
    if type(d) is not int or not 1 <= d <= o.n:
        raise ValueError(f"dimension {d!r} is not an integer in 1..{o.n}")
    bit = 1 << (d - 1)
    others = ((1 << o.n) - 1) ^ bit
    rows = o.rows
    if rows is not None:
        base = o.base if upper else o.base ^ others
        return Orientation._from_checked_rows(o.n, base, rows[: d - 1] + (rows[d - 1] ^ others,) + rows[d:])
    side = bit if upper else 0
    table = [
        out ^ others if v & bit == side else out for v, out in enumerate(o.outmaps)
    ]
    return Orientation(o.n, tuple(table))
