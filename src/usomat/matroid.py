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
Matousek-type orientations.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Sequence, Union

from .cube import Orientation
from .matousek import InfluenceGraph

Q = "q"
Element = Union[int, str]


def complement(e: int, n: int) -> int:
    """The partner of e in its complementary pair."""
    return e + n if e <= n else e - n


class CyclicExtension:
    """Permutation plus sign-flip data of a simple cyclic extension.

    ``order`` lists the 2n+1 element tokens by increasing position;
    ``flipped`` is the set F of sign-flipped elements (q is never in F:
    circuit normalisation absorbs a global q sign).  Structural validity
    is enforced here; the P-matroid conditions are a separate check,
    :func:`validate_conditions`, because invalid combinations must remain
    representable (the circuit-level cross-checks enumerate them).
    """

    __slots__ = ("n", "order", "flipped", "__dict__")

    def __init__(self, n: int, order: Sequence[Element], flipped: Iterable[int]) -> None:
        if type(n) is not int or n < 1:
            raise ValueError(f"extension size must be an integer of at least 1, got {n!r}")
        tokens = tuple(order)
        expected = set(range(1, 2 * n + 1)) | {Q}
        # set equality alone would accept 1.0 or True for the integer 1
        if (
            len(tokens) != 2 * n + 1
            or set(tokens) != expected
            or not set(map(type, tokens)) <= {int, str}
        ):
            raise ValueError(
                f"order must list 1..{2*n} and '{Q}' exactly once, got {tokens!r}"
            )
        flip = frozenset(flipped)
        bad = [e for e in flip if not (type(e) is int and 1 <= e <= 2 * n)]
        if bad:
            raise ValueError(f"flip set may only contain elements 1..{2*n}, got {bad}")
        self.n = n
        self.order = tokens
        self.flipped = flip

    def _reordered(self, order: Sequence[Element]) -> "CyclicExtension":
        """The same pairs and flip set under a permutation of this order's tokens.

        The caller guarantees that ``order`` only rearranges ``self.order``,
        so the constructor's checks would pass and are not repeated.
        """
        ext = CyclicExtension.__new__(CyclicExtension)
        ext.n, ext.order, ext.flipped = self.n, tuple(order), self.flipped
        return ext

    @cached_property
    def valid(self) -> bool:
        """Whether the P-matroid conditions hold (:func:`validate_conditions`), checked once.

        They do not depend on where q sits, so :func:`push_q_left` hands
        the answer on to the extension it returns.
        """
        return validate_conditions(self)

    @cached_property
    def position(self) -> dict:
        """Element token -> position 1..2n+1."""
        return {e: p for p, e in enumerate(self.order, start=1)}

    def complement(self, e: int) -> int:
        return complement(e, self.n)

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
        try:
            n, order, flipped = obj["n"], obj["order"], obj["F"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"extension JSON needs 'n', 'order', 'F': {exc}") from exc
        if type(n) is not int:
            raise ValueError(f"extension JSON: 'n' must be an integer, got {n!r}")
        if not isinstance(order, list) or not all(type(t) is int or t == Q for t in order):
            raise ValueError(f"extension JSON: 'order' must be a list of integers and '{Q}'")
        if not isinstance(flipped, list) or not all(type(e) is int for e in flipped):
            raise ValueError("extension JSON: 'F' must be a list of integers")
        return cls(n, order, flipped)


def validate_conditions(ext: CyclicExtension) -> bool:
    """The two P-matroid conditions on (order, F), restricted to the pairs.

    The conditions describe the deletion of q: a q sitting between two pair
    members adds one token to the gap, which the halving rounds away.

    Condition 1 (nesting): for every pair, any other pair lies either fully
    inside or fully outside its position interval.
    Condition 2 (parity): with k pairs enclosed between the two members of a
    pair, F contains exactly one member of the pair when k is even, and both
    or neither when k is odd.

    One scan of the order with a stack of open pairs checks both: the pairs
    nest exactly when every second member closes the innermost open pair.
    """
    n = ext.n
    open_pairs: list[tuple[int, int]] = []  # (pair, position of its first member)
    for p, e in enumerate(ext.order, start=1):
        if e == Q:
            continue
        i = e if e <= n else e - n
        if not open_pairs or open_pairs[-1][0] != i:
            open_pairs.append((i, p))
            continue
        a = open_pairs.pop()[1]
        enclosed_pairs = (p - a - 1) // 2
        hits = (i in ext.flipped) + (i + n in ext.flipped)
        if (hits == 1) == (enclosed_pairs % 2 == 1):
            return False
    return not open_pairs  # a pair pushed twice crosses another


def containment_graph(ext: CyclicExtension) -> InfluenceGraph:
    """Influence graph of the pair nesting: edge (i, j) when pair j sits
    strictly inside the position interval of pair i."""
    if not ext.valid:
        raise ValueError("extension does not satisfy the P-matroid conditions")
    n = ext.n
    pos = ext.position
    edges = []
    for i in range(1, n + 1):
        a, b = sorted((pos[i], pos[i + n]))
        for j in range(1, n + 1):
            if j != i and a < pos[j] < b and a < pos[j + n] < b:
                edges.append((i, j))
    return InfluenceGraph(n, edges)


def extension_to_uso(ext: CyclicExtension) -> Orientation:
    """The orientation induced by the extension, in row form, in O(n^2) integer steps.

    Vertex v keeps the basis c_i = i (bit i-1 of v clear) or i+n (set); the
    fundamental circuit through q, normalised q-positive, marks dimension i
    outgoing when c_i is negative.  Its signs alternate along the positions
    and F flips them, so i is outgoing exactly when

        rank(c_i) + rank(q) + [c_i in F]

    is odd, where rank counts the support members at a smaller position.
    Under the nesting condition every pairwise term of that parity is affine
    in the two pairs' bits, so the flip pattern of each dimension is constant:
    o(v) = o(0) XOR the rows r_j of the dimensions j in v.  Bit i != j of r_j
    is set when exactly one of element i and q lies strictly inside pair j's
    interval; bit j of r_j is the parity condition, always 1.
    """
    if not ext.valid:
        raise ValueError("extension does not satisfy the P-matroid conditions")
    n = ext.n
    full = (1 << n) - 1
    pos = ext.position
    q_pos = pos[Q]
    lower = [pos[i] for i in range(1, n + 1)]  # positions of c_i at v = 0
    ranked = sorted(lower)
    # at v = 0, rank(c_i) = rank(i) among the lower members + [q before i] and
    # rank(q) = below_q, so bit i of o(0) has the parity of
    # 1 + below_q + rank(i) + [i before q] + [i in F]
    offset = 1 + sum(p < q_pos for p in lower)  # 1 + below_q
    base = 0
    rows = []
    for j, p in enumerate(lower):
        bit = 1 << j
        a, b = sorted((p, pos[j + 1 + n]))
        inside = 0
        for i, p_i in enumerate(lower):
            if a < p_i < b:
                inside |= 1 << i
        rows.append(inside ^ (full if a < q_pos < b else bit))
        if (offset + ranked.index(p) + (p < q_pos) + (j + 1 in ext.flipped)) & 1:
            base |= bit
    return Orientation.from_rows(n, base, rows)


def push_q_left(ext: CyclicExtension) -> tuple[CyclicExtension, int, bool]:
    """Swap q with its left neighbour in the order.

    Returns the new extension, the dimension i of the crossed pair element,
    and whether the element was the pair's second member i+n (in which case
    the induced orientation changes on the upper i-facet, else on the lower).
    """
    p = ext.position[Q]
    if p == 1:
        raise ValueError("q is already at the front of the order")
    tokens = list(ext.order)
    crossed = tokens[p - 2]
    tokens[p - 2], tokens[p - 1] = tokens[p - 1], tokens[p - 2]
    new_ext = ext._reordered(tokens)
    if "valid" in ext.__dict__:  # q's position does not affect the conditions
        new_ext.valid = ext.valid
    if crossed <= ext.n:
        return new_ext, crossed, False
    return new_ext, crossed - ext.n, True
