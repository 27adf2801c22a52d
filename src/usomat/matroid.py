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
Matousek-type orientations.  One O(n) scan of the order reads off the
conditions, the nesting and the induced orientation, and the extension
keeps what it found.  Most of it does not depend on where q is, so moving
q one step (:func:`push_q_left`) hands it on and updates q's part in O(1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Union

from .cube import MAX_ROW_DIMENSION, Orientation, _check_n, _json_fields
from .matousek import InfluenceGraph

Q = "q"
Element = Union[int, str]


@dataclass(frozen=True, slots=True)
class CyclicExtension:
    """Permutation plus sign-flip data of a simple cyclic extension.

    ``order`` lists the 2n+1 element tokens by increasing position;
    ``flipped`` is the set F of sign-flipped elements (q is never in F:
    circuit normalisation absorbs a global q sign).  Structural validity
    is enforced here; the P-matroid conditions are a separate check,
    :func:`validate_conditions`, because invalid combinations must remain
    representable (the circuit-level cross-checks enumerate them).

    The fields are fixed once the constructor has checked them.  The
    extension also keeps what the first scan of its order found (see
    :func:`_scan_order`), so :func:`push_q_left` can hand the q-free part
    on and update q's part in O(1).  Equality, hashing, pickling and
    copying see the three fields only.
    """

    n: int
    order: tuple[Element, ...]
    flipped: frozenset[int]
    _scan: Optional[tuple] = field(init=False, compare=False, repr=False)

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
        _fill(self, n, tokens, frozenset(flip), None)

    def __reduce__(self) -> tuple:
        # the three fields only: the constructor checks them again, and the scan is redone when read
        return CyclicExtension, (self.n, self.order, self.flipped)

    @property
    def position(self) -> dict:
        """Element token -> position 1..2n+1, built anew on each read."""
        return {e: p for p, e in enumerate(self.order, start=1)}

    def to_json_obj(self) -> dict:
        return {"n": self.n, "order": list(self.order), "F": sorted(self.flipped)}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "CyclicExtension":
        n, order, flipped = _json_fields(obj, "extension", "n", "order", "F")
        if not isinstance(order, list) or not isinstance(flipped, list):
            raise ValueError("extension JSON: 'order' and 'F' must be lists")
        return cls(n, order, flipped)


def _fill(ext: CyclicExtension, n: int, order: tuple, flipped: frozenset, scan: Optional[tuple]) -> None:
    object.__setattr__(ext, "n", n)
    object.__setattr__(ext, "order", order)
    object.__setattr__(ext, "flipped", flipped)
    object.__setattr__(ext, "_scan", scan)


def _scan_order(ext: CyclicExtension) -> tuple:
    """Scan the order once; store and return ``(pairs, lows_before_q, straddle)``.

    ``pairs`` is the q-free part: ``(parity, inside)``, or ``()`` unless the
    conditions hold.  A token that closes the innermost open pair j leaves
    the lower members seen since j opened as exactly the pairs nested in j
    (``inside[j-1]``).  Any other token opens a pair, and one left open at
    the end crosses another.  Bit i-1 of ``parity`` is rank(i) + [i in F]
    mod 2, rank counting the lower members before i.  None of that depends
    on where q is.  q's part, recorded when the scan meets q, is the mask
    of lower members before q and the mask of pairs open at q, which
    straddle it; it means nothing when the conditions fail.
    """
    n, flipped = ext.n, ext.flipped
    open_pairs: list[tuple[int, int]] = []  # (pair, lows at its opening)
    inside = [0] * n
    lows = parity = lows_before_q = straddle = 0
    pairs: tuple = ()
    for e in ext.order:
        if e == Q:
            lows_before_q = lows
            straddle = sum(1 << (i - 1) for i, _ in open_pairs)
            continue
        i = e if e <= n else e - n
        bit = 1 << (i - 1)
        if e <= n:
            if (lows.bit_count() + (e in flipped)) & 1:
                parity |= bit
            lows |= bit
        if not open_pairs or open_pairs[-1][0] != i:
            open_pairs.append((i, lows))
            continue
        _, opened = open_pairs.pop()
        nested = lows & ~opened & ~bit
        hits = (i in flipped) + (i + n in flipped)
        if (hits == 1) == (nested.bit_count() % 2 == 1):
            break
        inside[i - 1] = nested
    else:
        if not open_pairs:
            pairs = (parity, tuple(inside))
    scan = (pairs, lows_before_q, straddle)
    object.__setattr__(ext, "_scan", scan)
    return scan


def _checked_scan(ext: CyclicExtension) -> tuple:
    """The stored scan, scanning on the first read only; a ValueError unless the conditions hold."""
    scan = ext._scan or _scan_order(ext)
    if not scan[0]:
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
    The extension keeps the verdict, so it is scanned on the first read only.
    """
    return bool((ext._scan or _scan_order(ext))[0])


def containment_graph(ext: CyclicExtension) -> InfluenceGraph:
    """Influence graph of the pair nesting: edge (i, j) when pair j sits
    strictly inside the position interval of pair i."""
    return InfluenceGraph.from_rows(ext.n, _checked_scan(ext)[0][1])


def extension_to_uso(ext: CyclicExtension) -> Orientation:
    """The orientation induced by the extension, in row form, in O(n) integer steps.

    Vertex v keeps the basis c_i = i (bit i-1 of v clear) or i+n (set); the
    fundamental circuit through q, normalised q-positive, marks dimension i
    outgoing when c_i is negative.  Its signs alternate along the positions
    and F flips them, so i is outgoing exactly when

        rank(c_i) + rank(q) + [c_i in F]

    is odd, where rank counts the support members at a smaller position.
    At v = 0 that is the q-free parity bit of :func:`_scan_order` plus
    [i before q] + 1 + rank(q), and rank(q) counts the lower members before
    q.  Under the nesting condition every pairwise term of that parity is
    affine in the two pairs' bits, so the flip pattern of each dimension is
    constant: o(v) = o(0) XOR the rows r_j of the dimensions j in v.  Bit
    i != j of r_j is set when exactly one of element i and q lies strictly
    inside pair j's interval; bit j of r_j is the parity condition, always 1.
    Once the order has been scanned, all of that is read from the stored
    scan: no call after the first scans again, and neither does one on an
    extension that :func:`push_q_left` made from a scanned one.
    """
    n = ext.n
    _check_n(n, MAX_ROW_DIMENSION)  # extensions have no cap; the row form does
    (parity, inside), lows, straddle = _checked_scan(ext)
    full = (1 << n) - 1
    base = parity ^ lows if lows.bit_count() & 1 else parity ^ lows ^ full
    rows = tuple([row ^ (full if straddle >> j & 1 else 1 << j) for j, row in enumerate(inside)])
    return Orientation._from_checked_rows(n, base, rows)


def push_q_left(ext: CyclicExtension) -> tuple[CyclicExtension, int, bool]:
    """Swap q with its left neighbour in the order.

    Returns the new extension, the dimension i of the crossed pair element,
    and whether the element was the pair's second member i+n (in which case
    the induced orientation changes on the upper i-facet, else on the lower).
    The pairs do not move, so the new extension takes the q-free scan as it
    is.  q's part changes by the crossed element alone: a lower member i
    leaves the members before q, and pair i starts or stops straddling q.
    """
    order = ext.order
    p = order.index(Q)
    if p == 0:
        raise ValueError("q is already at the front of the order")
    crossed = order[p - 1]
    n = ext.n
    upper = crossed > n
    i = crossed - n if upper else crossed
    bit = 1 << (i - 1)
    scan = ext._scan
    if scan is not None:
        pairs, lows, straddle = scan
        scan = (pairs, lows if upper else lows & ~bit, straddle ^ bit)
    new_ext = CyclicExtension.__new__(CyclicExtension)
    _fill(new_ext, n, order[: p - 1] + (Q, crossed) + order[p + 1 :], ext.flipped, scan)
    return new_ext, i, upper
