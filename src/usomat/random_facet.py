"""Random Facet sink-finding with vertex-evaluation accounting.

The classic recursion: inside a face, pick a spanning dimension uniformly
at random, solve the facet containing the current vertex, and either stop
(the facet sink also closes the remaining dimension) or step across and
solve the opposite facet.  Cost is counted in vertex evaluations: only
the 0-faces the recursion reaches query an outmap, and since the two
sub-solves of a face run in opposite facets, these leaves lie in disjoint
faces, hence distinct, so their number is the count of distinct vertices
evaluated on any orientation.

A small harness contrasts influence-graph families: realizable ones
(loops, path closure, star) against a non-realizable cousin obtained by
making two chain dimensions incomparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence, Union

import numpy as np

from .cube import MAX_DIMENSION, MAX_ROW_DIMENSION, Orientation, global_sink
from .matousek import InfluenceGraph, build_matousek

# Each float64 uniform takes one 64-bit PCG64 output, so the picks are the
# same for any block size; small blocks waste less on short runs.
_UNIFORM_BLOCK = 32
_BITS = tuple(1 << d for d in range(MAX_ROW_DIMENSION))  # a search starts on span _BITS[:n]


@dataclass(frozen=True)
class RfResult:
    """Outcome of one run: the sink found and what it cost."""

    sink: int
    evaluations: int
    recursion_depth: int  # always n: the first descent runs down to a 0-face


@dataclass(frozen=True)
class TrialStats:
    """Aggregated evaluation counts of repeated runs on one orientation."""

    family: str
    n: int
    trials: int
    seed: int
    mean: float
    stddev: float
    min: int
    max: int

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("statistics need at least one trial")
        if not self.min <= self.mean <= self.max:
            raise ValueError("mean must lie between min and max")


def random_facet(
    o: Orientation,
    start: int | None = None,
    seed: Union[int, np.random.SeedSequence] = 0,
) -> RfResult:
    """Find the sink of a USO, counting outmap queries.

    The input must be a USO; that is not checked, since the check costs
    far more than the search.  On any orientation the recursion visits
    fewer than 2^(n+1) faces and ends, but without unique sinks the vertex
    it ends on need not be a sink (ValueError), or may be one of several.

    start defaults to the bitwise complement of the global sink.  Results
    are a pure function of (orientation, start, seed); the generator is a
    PCG64 stream so runs reproduce across platforms.

    An orientation that holds its table reads each leaf's outmap there.
    One in row form computes only the start's outmap, in O(n): every
    later leaf is the previous one with one bit d flipped, so its outmap
    is the previous one XOR r_d, and no table is built.
    """
    n = o.n
    full = (1 << n) - 1
    if start is None:
        start = global_sink(o) ^ full
    if not 0 <= start <= full:
        raise ValueError(f"start vertex {start} out of range for n={n}")
    entropy = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    rng = np.random.Generator(np.random.PCG64(entropy))
    uniforms: list[float] = []
    used = 0
    if o.has_table:
        outmaps, rows = o.outmaps, None
        out = outmaps[start]
    else:
        outmaps, rows = None, o.rows
        out = o.outmap(start)

    # One stack holds the pending second facets of every open face: solving
    # a face picks d, solves the facet holding w, and only if the facet sink
    # w leaves along d goes on to the facet across d, from w with bit d
    # flipped.  Each pass descends from (span, w) to a 0-face, drawing the
    # picks in the order the plain recursion draws them, then pops until a
    # facet sink leaves along its face's pick.  A descent keeps w, so the
    # leaf it reaches is the vertex the last step went to.
    span = _BITS[:n]
    k = n  # len(span)
    w = start
    pending: list[tuple[int, tuple[int, ...]]] = []
    leaves = 0
    while True:
        if used + k > len(uniforms):  # one list serves the whole descent
            uniforms = uniforms[used:] + rng.random(k + _UNIFORM_BLOCK).tolist()
            used = 0
        while k:
            idx = int(uniforms[used] * k)
            used += 1
            if idx == k:
                idx -= 1
            rest = span[:idx] + span[idx + 1 :]
            pending.append((span[idx], rest))
            span = rest
            k -= 1
        leaves += 1
        while pending:
            bit, span = pending.pop()
            if out & bit:
                w ^= bit
                out = outmaps[w] if rows is None else out ^ rows[bit.bit_length() - 1]
                k = len(span)
                break
        else:
            break

    if out:
        raise ValueError(f"search ended on vertex {w} with a nonempty outmap: not a USO")
    return RfResult(w, leaves, n)


def loops_family(n: int) -> InfluenceGraph:
    """No influences at all; builds the uniform orientation."""
    return InfluenceGraph(n, [])


def path_family(n: int) -> InfluenceGraph:
    """Transitive closure of the chain 1 -> 2 -> ... -> n (realizable)."""
    return InfluenceGraph(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


def star_family(n: int) -> InfluenceGraph:
    """Dimension 1 influences everything else (realizable)."""
    return InfluenceGraph(n, [(1, j) for j in range(2, n + 1)])


def merged_family(n: int) -> InfluenceGraph:
    """Chain closure with 1 and 2 made incomparable (not realizable for n >= 3)."""
    edges = [
        (i, j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if (i, j) != (1, 2)
    ]
    return InfluenceGraph(n, edges)


FAMILIES: dict[str, Callable[[int], InfluenceGraph]] = {
    "loops": loops_family,
    "path": path_family,
    "star": star_family,
    "merged": merged_family,
}


def family_graph(name: str, n: int) -> InfluenceGraph:
    """The influence graph of the built-in family ``name`` on n dimensions."""
    if name not in FAMILIES:
        raise ValueError(f"unknown family {name!r}; known families: {', '.join(sorted(FAMILIES))}")
    return FAMILIES[name](n)


def run_trials(family: str, n_list: Sequence[int], trials: int, seed: int) -> list[TrialStats]:
    """Repeated runs per cube size on a named family, each from the sink's antipodal vertex.

    Trial t uses the generator stream seeded by (seed, t), so any prefix
    of the trial sequence is stable under a larger trial count and the
    whole run reproduces exactly.  Every returned sink is checked against
    the known one.  The runs read the table up to n = MAX_DIMENSION, and
    step along the flip rows above it, where no table can be built.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    out = []
    for n in n_list:
        o = build_matousek(family_graph(family, n))
        if n <= MAX_DIMENSION:
            o.outmaps  # build the table: the runs read it instead of XORing rows
        sink = global_sink(o)
        start = sink ^ ((1 << n) - 1)
        # exact running sums: memory stays constant in the trial count
        total = squares = high = 0
        low = 1 << n  # a run evaluates at most every vertex once
        for t in range(trials):
            res = random_facet(o, start, np.random.SeedSequence((seed, t)))
            if res.sink != sink:
                raise RuntimeError(f"run {t} on n={n} returned {res.sink}, sink is {sink}")
            x = res.evaluations
            total += x
            squares += x * x
            low = min(low, x)
            high = max(high, x)
        out.append(
            TrialStats(
                family=family,
                n=n,
                trials=trials,
                seed=seed,
                mean=total / trials,
                stddev=math.sqrt(Fraction(trials * squares - total * total, trials * trials)),
                min=low,
                max=high,
            )
        )
    return out


def stats_to_csv(stats: Iterable[TrialStats]) -> str:
    """Render rows in a fixed column order with a trailing newline."""
    lines = ["family,n,trials,seed,mean,stddev,min,max"]
    for s in stats:
        lines.append(
            f"{s.family},{s.n},{s.trials},{s.seed},{s.mean:.4f},{s.stddev:.4f},{s.min},{s.max}"
        )
    return "\n".join(lines) + "\n"
