"""Cyclic P-matroid extensions given by a permutation and a sign-flip set.

The ground set is E = {1..2n} plus one extra element q.  Elements i and
i+n form a complementary pair.  A permutation places all 2n+1 elements on
positions 1..2n+1 (points on the moment curve, in order); circuits of the
resulting rank-n uniform matroid are read off combinatorially: sort the
support by position, alternate signs starting with + at the smallest
position, then flip the sign of every support member of the flip set F.

Such a matroid is a P-matroid exactly when the pairs nest like balanced
parentheses and F hits each pair according to the parity of the number of
element pairs enclosed between its two members.  The nesting relation of
the pairs is a dimension influence graph, which ties these extensions to
Matousek-type orientations.  One scan of the order, O(n) with no cache,
reads off the conditions, the nesting and the induced orientation.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Union

from .cube import MAX_ROW_DIMENSION, Orientation, _check_n, _json_fields
from .matousek import InfluenceGraph

Q = "q"
Element = Union[int, str]


class CyclicExtension:
    """Permutation plus sign-flip data of a simple cyclic extension.

    ``order`` lists the 2n+1 element tokens by increasing position;
    ``flipped`` is the set F of sign-flipped elements (q is never in F:
    circuit normalisation absorbs a global q sign).  Structural validity
    is enforced here; the P-matroid conditions are a separate check,
    :func:`validate_conditions`, because invalid combinations must remain
    representable (the circuit-level cross-checks enumerate them).  The
    extension holds its three fields and nothing derived from them.
    """

    __slots__ = ("n", "order", "flipped")

    def __init__(self, n: int, order: Sequence[Element], flipped: Iterable[int]) -> None:
        if type(n) is not int or n < 1:
            raise ValueError(f"extension size must be an integer of at least 1, got {n!r}")
        tokens, flip = tuple(order), tuple(flipped)
        # types first: a list cannot go in a set, and set equality would take 1.0 or True for 1
        if (
            len(tokens) != 2 * n + 1
            or not all(type(t) is int or t == Q for t in tokens)
            or set(tokens) != set(range(1, 2 * n + 1)) | {Q}
        ):
            raise ValueError(
                f"order must list 1..{2*n} and '{Q}' exactly once, got {tokens!r}"
            )
        bad = [e for e in flip if not (type(e) is int and 1 <= e <= 2 * n)]
        if bad:
            raise ValueError(f"flip set may only contain elements 1..{2*n}, got {bad}")
        self.n = n
        self.order = tokens
        self.flipped = frozenset(flip)

    def _reordered(self, order: Sequence[Element]) -> "CyclicExtension":
        """The same pairs and flip set under a permutation of this order's tokens.

        The caller guarantees that ``order`` only rearranges ``self.order``,
        so the constructor's checks would pass and are not repeated.
        """
        ext = CyclicExtension.__new__(CyclicExtension)
        ext.n, ext.order, ext.flipped = self.n, tuple(order), self.flipped
        return ext

    @property
    def position(self) -> dict:
        """Element token -> position 1..2n+1, built anew on each read."""
        return {e: p for p, e in enumerate(self.order, start=1)}

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CyclicExtension)
            and self.n == other.n
            and self.order == other.order
            and self.flipped == other.flipped
        )

    def __hash__(self) -> int:
        return hash((self.n, self.order, self.flipped))

    def __repr__(self) -> str:
        return f"CyclicExtension(n={self.n}, order={self.order!r}, flipped={sorted(self.flipped)})"

    def to_json_obj(self) -> dict:
        return {"n": self.n, "order": list(self.order), "F": sorted(self.flipped)}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "CyclicExtension":
        n, order, flipped = _json_fields(obj, "extension", "n", "order", "F")
        if not isinstance(order, list) or not isinstance(flipped, list):
            raise ValueError("extension JSON: 'order' and 'F' must be lists")
        return cls(n, order, flipped)


def _scan(ext: CyclicExtension) -> Optional[tuple[int, list[int], int, int]]:
    """(parity, inside, q_inside, below_q), or ``None`` unless the conditions hold.

    A token that closes the innermost open pair j leaves the lower members
    seen since j opened as exactly the pairs nested in j (``inside[j-1]``);
    bit j-1 of ``q_inside`` marks q seen in between.  Any other token opens
    a pair, and one left open at the end crosses another.  Bit i-1 of
    ``parity`` is rank(i) + [i before q] + [i in F] mod 2, rank counting
    the lower members before i; ``below_q`` counts those before q.
    """
    n, flipped = ext.n, ext.flipped
    open_pairs: list[tuple[int, int, bool]] = []  # (pair, lows at its opening, q seen then)
    inside = [0] * n
    lows = parity = q_inside = below_q = 0
    q_seen = False
    for e in ext.order:
        if e == Q:
            q_seen = True
            below_q = lows.bit_count()
            continue
        i = e if e <= n else e - n
        bit = 1 << (i - 1)
        if e <= n:
            if (lows.bit_count() + (not q_seen) + (e in flipped)) & 1:
                parity |= bit
            lows |= bit
        if not open_pairs or open_pairs[-1][0] != i:
            open_pairs.append((i, lows, q_seen))
            continue
        _, opened, q_then = open_pairs.pop()
        nested = lows & ~opened & ~bit
        hits = (i in flipped) + (i + n in flipped)
        if (hits == 1) == (nested.bit_count() % 2 == 1):
            return None
        inside[i - 1] = nested
        if q_seen != q_then:
            q_inside |= bit
    if open_pairs:
        return None
    return parity, inside, q_inside, below_q


def _checked_scan(ext: CyclicExtension) -> tuple[int, list[int], int, int]:
    scan = _scan(ext)
    if scan is None:
        raise ValueError("extension does not satisfy the P-matroid conditions")
    return scan


def validate_conditions(ext: CyclicExtension) -> bool:
    """The two P-matroid conditions on (order, F), restricted to the pairs.

    The conditions describe the deletion of q, so q's position does not
    affect them.

    Condition 1 (nesting): for every pair, any other pair lies either fully
    inside or fully outside its position interval.
    Condition 2 (parity): with k pairs enclosed between the two members of a
    pair, F contains exactly one member of the pair when k is even, and both
    or neither when k is odd.

    One scan of the order with a stack of open pairs checks both: the pairs
    nest exactly when every second member closes the innermost open pair.
    """
    return _scan(ext) is not None


def containment_graph(ext: CyclicExtension) -> InfluenceGraph:
    """Influence graph of the pair nesting: edge (i, j) when pair j sits
    strictly inside the position interval of pair i."""
    return InfluenceGraph.from_rows(ext.n, _checked_scan(ext)[1])


def extension_to_uso(ext: CyclicExtension) -> Orientation:
    """The orientation induced by the extension, in row form, in O(n) integer steps.

    Vertex v keeps the basis c_i = i (bit i-1 of v clear) or i+n (set); the
    fundamental circuit through q, normalised q-positive, marks dimension i
    outgoing when c_i is negative.  Its signs alternate along the positions
    and F flips them, so i is outgoing exactly when

        rank(c_i) + rank(q) + [c_i in F]

    is odd, where rank counts the support members at a smaller position.
    At v = 0 that is the scan's parity bit plus 1 + below_q.  Under the
    nesting condition every pairwise term of that parity is affine in the
    two pairs' bits, so the flip pattern of each dimension is constant:
    o(v) = o(0) XOR the rows r_j of the dimensions j in v.  Bit i != j of r_j
    is set when exactly one of element i and q lies strictly inside pair j's
    interval; bit j of r_j is the parity condition, always 1.
    """
    parity, inside, q_inside, below_q = _checked_scan(ext)
    _check_n(ext.n, MAX_ROW_DIMENSION)  # extensions have no cap; the row form does
    full = (1 << ext.n) - 1
    base = parity if below_q % 2 else parity ^ full
    rows = tuple(row ^ (full if q_inside >> j & 1 else 1 << j) for j, row in enumerate(inside))
    return Orientation._from_checked_rows(ext.n, base, rows)


def push_q_left(ext: CyclicExtension) -> tuple[CyclicExtension, int, bool]:
    """Swap q with its left neighbour in the order.

    Returns the new extension, the dimension i of the crossed pair element,
    and whether the element was the pair's second member i+n (in which case
    the induced orientation changes on the upper i-facet, else on the lower).
    """
    p = ext.order.index(Q)
    if p == 0:
        raise ValueError("q is already at the front of the order")
    crossed = ext.order[p - 1]
    new_ext = ext._reordered(ext.order[: p - 1] + (Q, crossed) + ext.order[p + 1 :])
    if crossed <= ext.n:
        return new_ext, crossed, False
    return new_ext, crossed - ext.n, True
