"""Which influence graphs admit a realizable orientation.

An influence graph yields a polytope-realizable (equivalently, P-LCP
realizable) orientation exactly when it contains neither of two induced
patterns: a transitivity violation (edges x->y->z without x->z) or two
incomparable dimensions influencing a common third.  Both absent means
the graph is the transitive closure of a branching, i.e. a forest of
arborescences, and from that branching a realizing cyclic extension can
be written down directly.

Holt-Klee checking on 3-faces is the standard combinatorial screen for
non-realizability of concrete orientations.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from types import MappingProxyType
from typing import Mapping, Optional

from .cube import Face, Orientation
from .matousek import InfluenceGraph
from .matroid import Q, CyclicExtension


@dataclass(frozen=True)
class ForbiddenWitness:
    """An induced three-dimension pattern certifying non-realizability.

    kind "G1": edges (x, y) and (y, z) present, (x, z) missing.
    kind "G2": edges (y, x) and (z, x) present, y and z incomparable.
    """

    kind: str
    vertices: tuple[int, int, int]

    def __post_init__(self) -> None:
        if self.kind not in ("G1", "G2"):
            raise ValueError(f"witness kind must be 'G1' or 'G2', got {self.kind!r}")
        if len(self.vertices) != 3 or len(set(self.vertices)) != 3:
            raise ValueError(f"witness needs three distinct dimensions, got {self.vertices}")

    def to_json_obj(self) -> dict:
        return {"kind": self.kind, "vertices": list(self.vertices)}


def _in_masks(g: InfluenceGraph) -> list[int]:
    """In-neighbour masks with the loop bit: entry v - 1 has u's bit when u -> v or u == v."""
    ins = [0] * g.n
    for u, row in enumerate(g.rows):
        bit = 1 << u
        while row:
            low = row & -row
            row ^= low
            ins[low.bit_length() - 1] |= bit
    return ins


def find_forbidden(g: InfluenceGraph) -> Optional[ForbiddenWitness]:
    """First forbidden pattern in lexicographic vertex order, or None.

    Transitivity violations are reported before incomparable-influencer
    pairs; within a kind the smallest (x, y, z) wins.  Each (x, y) reads
    its smallest z off one bitmask: the rows carry the loop bit, so x and y
    never show up in a mask below.
    """
    rows = g.rows
    for x, out_x in enumerate(rows):
        others = out_x & ~(1 << x)
        while others:
            y = (others & -others).bit_length() - 1
            others &= others - 1
            # z with y -> z and not x -> z; out_x holds x itself and y
            missing = rows[y] & ~out_x
            if missing:
                return ForbiddenWitness("G1", (x + 1, y + 1, (missing & -missing).bit_length()))
    ins = _in_masks(g)
    for x, in_x in enumerate(ins):
        influencers = in_x & ~(1 << x)
        while influencers:
            y = (influencers & -influencers).bit_length() - 1
            influencers &= influencers - 1
            # z > y with z -> x, and neither y -> z nor z -> y
            unrelated = influencers & ~rows[y] & ~ins[y]
            if unrelated:
                return ForbiddenWitness("G2", (x + 1, y + 1, (unrelated & -unrelated).bit_length()))
    return None


@dataclass(frozen=True, slots=True)
class Branching:
    """A forest of arborescences on dimensions 1..n, given by parent links.

    ``parent`` is a read-only copy of the links the constructor checked.
    """

    n: int
    parent: Mapping[int, int]

    def __init__(self, n: int, parent: dict[int, int]) -> None:
        if type(n) is not int or n < 0:
            raise ValueError(f"branching size must be a nonnegative integer, got {n!r}")
        for child, par in parent.items():
            if not (type(child) is int and type(par) is int and 1 <= child <= n and 1 <= par <= n):
                raise ValueError(f"parent link {child!r}->{par!r} is not a pair of integers in 1..{n}")
            if child == par:
                raise ValueError(f"dimension {child} cannot be its own parent")
        for start in range(1, n + 1):
            seen = {start}
            v = start
            while v in parent:
                v = parent[v]
                if v in seen:
                    raise ValueError(f"parent links form a cycle through {v}")
                seen.add(v)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "parent", MappingProxyType(dict(parent)))

    def roots(self) -> list[int]:
        return [v for v in range(1, self.n + 1) if v not in self.parent]

    def ancestors(self, v: int) -> list[int]:
        """Path from v up to its root, excluding v itself."""
        out = []
        while v in self.parent:
            v = self.parent[v]
            out.append(v)
        return out

    def transitive_closure(self) -> InfluenceGraph:
        edges = [(a, v) for v in range(1, self.n + 1) for a in self.ancestors(v)]
        return InfluenceGraph(self.n, edges)

    def __repr__(self) -> str:
        links = ", ".join(f"{c}->{p}" for c, p in sorted(self.parent.items()))
        return f"Branching(n={self.n}, {{{links}}})"


def is_branching_closure(g: InfluenceGraph) -> Optional[Branching]:
    """The branching whose transitive closure is g, or None.

    In a closure the in-set of v is its ancestor set, so v's parent is the
    in-neighbour u whose in-set plus u is exactly v's in-set.  Conversely,
    when every v with in-neighbours has such a u, the in-set sizes fall by
    one along each parent link, so the links form a forest whose ancestor
    sets are the in-sets: its closure is g.  A cyclic g therefore gives None.
    """
    n = g.n
    ins = _in_masks(g)
    # two dimensions share an in-mask only on a cycle; either one serves the argument above
    owner = {mask: u for u, mask in enumerate(ins, start=1)}
    parent: dict[int, int] = {}
    for v, mask in enumerate(ins, start=1):
        above = mask & ~(1 << (v - 1))
        if above:
            if above not in owner:
                return None
            parent[v] = owner[above]
    return Branching(n, parent)


def holt_klee_3face(o: Orientation, face: Face) -> bool:
    """Three internally vertex-disjoint source-to-sink paths in a 3-face?

    Requires the face to be three-dimensional with a unique source and a
    unique sink; realizable orientations pass this on every 3-face.

    By Menger's theorem the number of internally disjoint paths from the
    source to a sink it does not point at is the fewest vertices, source and
    sink excluded, whose removal cuts the sink off.  So three such paths
    exist exactly when no two vertices cut it off.  When the source points
    straight at the sink, that edge is one path with no interior; the other
    two avoid it, so the edge is dropped and no single vertex may cut the
    sink off.
    """
    if face.dimension != 3:
        raise ValueError(f"Holt-Klee screening needs a 3-face, got dimension {face.dimension}")
    if face.fixed | face.spanning >= 1 << o.n:
        raise ValueError(f"face {face} leaves the {o.n}-cube")
    span = face.spanning
    out = {v: o.outmap(v) & span for v in face.vertices()}
    sources = [v for v, m in out.items() if m == span]
    sinks = [v for v, m in out.items() if not m]
    if len(sources) != 1 or len(sinks) != 1:
        raise ValueError("face restriction must have a unique source and sink")
    src, dst = sources[0], sinks[0]
    adjacent = (src ^ dst).bit_count() == 1
    if adjacent:  # every edge at the source leaves it, so it points at the sink
        out[src] ^= src ^ dst
    inner = [v for v in out if v not in (src, dst)]
    return not any(_cut_off(out, src, dst, cut) for cut in combinations(inner, 2 - adjacent))


def _cut_off(out: dict[int, int], src: int, dst: int, removed: tuple[int, ...]) -> bool:
    """No path src -> dst along the face's out-edges avoids the removed vertices?"""
    seen = {src, *removed}
    stack = [src]
    while stack:
        v = stack.pop()
        edges = out[v]
        while edges:
            w = v ^ (edges & -edges)
            edges &= edges - 1
            if w == dst:
                return False
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return True


def synthesize_extension(b: Branching) -> CyclicExtension:
    """A realizing cyclic extension for a branching's closure graph.

    Each subtree contributes its root i, then its child subtrees in
    increasing label order, then the partner i+n; q goes last.  The flip
    set takes the partner of every dimension with an even number of
    strict descendants, which is exactly what the parity condition needs
    for this nesting.
    """
    n = b.n
    order: list = []
    flipped: list[int] = []
    children: dict[int, list[int]] = {}
    for c in sorted(b.parent):
        children.setdefault(b.parent[c], []).append(c)

    def emit(v: int) -> int:
        """Write v's subtree and return its size, v included."""
        order.append(v)
        size = 1 + sum(emit(c) for c in children.get(v, ()))
        order.append(v + n)
        if size % 2 == 1:  # an even number of strict descendants
            flipped.append(v + n)
        return size

    for r in b.roots():
        emit(r)
    order.append(Q)
    return CyclicExtension(n, order, flipped)
