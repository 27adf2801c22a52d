"""Every labeled influence DAG at small n, written once, as blocks of rows.

Labeled DAG counts grow fast (1, 3, 25, 543, 29281, 3781503 for n = 1..6,
OEIS A003024, then 1138779265 at n = 7), so the generator refuses n past
``ENUMERATE_CAP``.
Deleting the last vertex of a DAG on m + 1 vertices leaves a DAG on m
vertices, so every DAG is, in exactly one way, a smaller DAG plus a new
vertex with out-set O and in-set I such that no path leads from O to I.
A block carries the reachability masks of its DAGs, self included: the
OR of the masks over O is reach(O), the pairs with reach(O) & I == 0 are
kept, and the children's rows and masks follow by masked ORs.  Nothing
is filtered out afterwards and nothing is deduplicated.

A block is a numpy array with one line per DAG: column d - 1 holds the
out-neighbour mask of dimension d with its loop bit, as in
``InfluenceGraph.rows``, as ``np.uint8``.  The generator stops at
``ENUMERATE_CAP`` vertices, so eight bits always hold a row.
The census classifies each block in one bitwise pass, :func:`classify_block`,
which gives three verdicts per DAG.  Each is the batch form of a scalar
predicate that the library keeps for the single graphs whose witnesses and
branchings it needs: ``rows_acyclic``, ``find_forbidden`` and
``is_branching_closure``.  The pass reads rows only, so it is defined on any
digraph, cyclic ones included.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .matousek import InfluenceGraph

ENUMERATE_CAP = 6  # 3781503 labeled DAGs: dag_blocks alone 0.6 to 0.7 s, the census 1.4 to 1.7 s
# (Python 3.11, numpy 2.4, 2 shared CPUs); n = 7 has 1138779265, about 300 times as many

BLOCK_BYTES = 1 << 18  # rows in one block: 42 DAGs on 5 vertices extended per pass at n = 6


def dag_blocks(n: int) -> Iterator[np.ndarray]:
    """Every acyclic digraph on vertices 1..n, each exactly once, as blocks of rows.

    Each block is a ``np.uint8`` array with one line per DAG and holds at most
    ``BLOCK_BYTES`` of rows.  ``ValueError`` unless 1 <= n <= ``ENUMERATE_CAP``.
    """
    for cols, _ in _dag_columns(n):
        yield cols.T


def all_dags(n: int) -> Iterator[InfluenceGraph]:
    """Every acyclic digraph on vertices 1..n, each exactly once: the lines of :func:`dag_blocks`."""
    for rows in dag_blocks(n):
        for line in rows.tolist():
            yield InfluenceGraph.from_rows(n, line)


def _dag_columns(n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The blocks of :func:`dag_blocks`, transposed, with the reach masks of their DAGs.

    A transposed block has one line per vertex and one column per DAG, so
    that every pass runs along the DAGs.
    """
    if not 1 <= n <= ENUMERATE_CAP:
        raise ValueError(f"DAGs are enumerated for 1 to {ENUMERATE_CAP} vertices, not {n}")
    single = np.ones((1, 1), np.uint8)
    return _extensions(single, single, n)


def _extensions(
    cols: np.ndarray, reach: np.ndarray, n: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The DAGs on n vertices that extend the given ones, with their reach masks."""
    m, count = cols.shape
    if m == n:
        yield cols, reach
        return
    # (parent, O, I) candidates per pass, each a child of m + 1 one-byte masks if kept
    parents = max(1, BLOCK_BYTES // ((m + 1) * 4**m))
    masks = np.arange(1 << m, dtype=np.uint8)  # the choices of O, and of I
    for p in range(0, count, parents):
        yield from _extensions(*_children(cols[:, p : p + parents], reach[:, p : p + parents], masks), n)


def _children(cols: np.ndarray, reach: np.ndarray, masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each parent with a new last vertex, for each out-set O and in-set I in masks with no path from O to I."""
    m = len(cols)
    span = len(masks)
    zero, one, new = np.uint8(0), np.uint8(1), np.uint8(1 << m)
    shifts = np.arange(m, dtype=np.uint8)[:, None]
    reach_out = np.zeros((cols.shape[1], span), np.uint8)
    for j, in_out in enumerate((masks >> shifts) & one):
        reach_out |= reach[j][:, None] * in_out
    flat = np.flatnonzero((reach_out[:, :, None] & masks) == zero)
    p, o = np.divmod(flat // span, span)
    in_set = masks[flat % span]
    new_reach = reach_out[p, o] | new
    old_reach = reach[:, p]
    child = np.empty((m + 1, len(flat)), np.uint8)
    child[:m] = cols[:, p] | ((in_set >> shifts) & one) << np.uint8(m)
    child[m] = masks[o] | new
    child_reach = np.empty_like(child)
    # an old vertex reaches the new one exactly when it reaches I, and then all the new one reaches
    child_reach[:m] = old_reach | np.where((old_reach & in_set) != zero, new_reach, zero)
    child_reach[m] = new_reach
    return child, child_reach


def classify_block(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(acyclic, witness_free, branching_closure)`` for each line of a block.

    These are ``rows_acyclic``, ``find_forbidden(g) is None`` and
    ``is_branching_closure(g) is not None``, read off one transposed copy of
    the block and one table of in-masks.
    """
    cols = np.ascontiguousarray(rows.T)  # each vertex's masks contiguous
    zero, one = cols.dtype.type(0), cols.dtype.type(1)
    shifts = np.arange(len(cols), dtype=cols.dtype)[:, None]
    loops = one << shifts
    ins = np.zeros_like(cols)  # ins[y, k]: the x with x -> y in graph k, y itself included
    for x, shift in enumerate(shifts[:, 0]):
        ins |= ((cols[x] >> shifts) & one) << shift
    above = ins & ~loops

    # acyclic: strip every sink at once, one round per vertex
    others = cols & ~loops
    alive = np.full(len(rows), np.bitwise_or.reduce(loops[:, 0]), cols.dtype)
    for _ in shifts:
        # a vertex is a sink when no live vertex besides itself is in its row
        sinks = ((others & alive) == zero).astype(cols.dtype)
        alive &= ~np.bitwise_or.reduce(sinks << shifts, axis=0)

    reached = cols.copy()
    ins_below = np.zeros_like(cols)
    for y, shift in enumerate(shifts[:, 0]):
        into_y = (cols >> shift) & one  # x -> y
        reached |= into_y * cols[y]  # x -> y -> z
        ins_below |= into_y * above[y]  # z -> y <- x, z != y
    # no G1: the rows over row_x, which holds x itself, add nothing to it;
    # no G2: every other in-neighbour of a vertex that x points to is related to x
    transitive = (reached == cols).all(axis=0)
    incomparable = ((ins_below & ~(cols | ins)) != zero).any(axis=0)

    # a branching closure: each nonempty above_v is some vertex's in-mask
    parented = above == zero
    for in_u in ins:
        parented |= above == in_u
    return alive == zero, transitive & ~incomparable, parented.all(axis=0)
