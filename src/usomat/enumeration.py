"""Every labeled influence DAG at small n, each built exactly once.

Labeled DAG counts grow fast (1, 3, 25, 543, 29281, 3781503 for n = 1..6,
OEIS A003024), so the generator is meant for desk-scale sweeps only.
Every DAG splits into layers in exactly one way: its sinks, then the sinks
of what is left, and so on.  A vertex above the bottom layer has at least
one out-neighbour in the layer just below it and any out-neighbours
further down.  Choosing the layers and then those out-rows writes each DAG
once, with no filter and no deduplication.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator

from .cube import Face, mask_to_dims
from .matousek import InfluenceGraph


def all_dags(n: int) -> Iterator[InfluenceGraph]:
    """Every acyclic digraph on vertices 1..n, each exactly once."""
    if n < 1:
        raise ValueError("need at least one vertex")
    for rows in _layers_above(0, (1 << n) - 1, 0, [0] * n):
        yield InfluenceGraph.from_rows(n, rows)


def _layers_above(layer: int, rest: int, lower: int, rows: list[int]) -> Iterator[list[int]]:
    """Fill ``rows`` for the vertices in rest, stacked in layers above layer.

    lower is the union of the layers below layer; layer 0 stands for the
    floor under the sinks, whose rows are 0.  The one list is overwritten
    in place and yielded whenever every vertex has its row.
    """
    if not rest:
        yield rows
        return
    choices = [
        hit | other
        for hit in Face(0, layer).vertices()
        if hit
        for other in Face(0, lower).vertices()
    ] if layer else [0]
    for top in Face(0, rest).vertices():
        if not top:
            continue
        dims = mask_to_dims(top)
        for picks in product(choices, repeat=len(dims)):
            for d, row in zip(dims, picks):
                rows[d - 1] = row
            yield from _layers_above(top, rest ^ top, lower | layer, rows)
