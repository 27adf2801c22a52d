"""Random Facet sink-finding with vertex-evaluation accounting.

The classic recursion: inside a face, pick a spanning dimension uniformly
at random, solve the facet containing the current vertex, and either stop
(the facet sink also closes the remaining dimension) or step across and
solve the opposite facet.  Cost is counted in distinct vertex evaluations,
memoized, since re-querying a known outmap is free.

A small harness contrasts influence-graph families: realizable ones
(loops, path closure, star) against a non-realizable cousin obtained by
making two chain dimensions incomparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, Union

import numpy as np

from .cube import Orientation, global_sink
from .matousek import InfluenceGraph, build_matousek

_UNIFORM_BLOCK = 256


@dataclass(frozen=True)
class RfResult:
    """Outcome of one run: the sink found and what it cost."""

    sink: int
    evaluations: int
    recursion_depth: int


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


class _UniformStream:
    """Blocks of uniform floats from one generator, consumed one at a time."""

    __slots__ = ("_rng", "_buf", "_next")

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self._buf = rng.random(_UNIFORM_BLOCK)
        self._next = 0

    def pick(self, k: int) -> int:
        """Uniform index in range(k)."""
        if self._next == len(self._buf):
            self._buf = self._rng.random(_UNIFORM_BLOCK)
            self._next = 0
        u = self._buf[self._next]
        self._next += 1
        return min(int(u * k), k - 1)


def random_facet(
    o: Orientation,
    start: int | None = None,
    seed: Union[int, np.random.SeedSequence] = 0,
) -> RfResult:
    """Find the sink of a USO, counting distinct outmap queries.

    The input must be a USO; that is not checked, since the check costs
    far more than the search.  On any orientation the recursion visits
    fewer than 2^(n+1) faces and ends, but without unique sinks the vertex
    it ends on need not be a sink (ValueError), or may be one of several.

    start defaults to the bitwise complement of the global sink.  Results
    are a pure function of (orientation, start, seed); the generator is a
    PCG64 stream so runs reproduce across platforms.
    """
    n = o.n
    full = (1 << n) - 1
    if start is None:
        start = global_sink(o) ^ full
    if not 0 <= start <= full:
        raise ValueError(f"start vertex {start} out of range for n={n}")
    entropy = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    stream = _UniformStream(np.random.Generator(np.random.PCG64(entropy)))

    evaluated: dict[int, int] = {}
    max_depth = 0

    def evaluate(v: int) -> int:
        if v not in evaluated:
            evaluated[v] = o.outmaps[v]
        return evaluated[v]

    def solve(span: tuple[int, ...], v: int, depth: int) -> int:
        nonlocal max_depth
        max_depth = max(max_depth, depth)
        if not span:
            evaluate(v)
            return v
        idx = stream.pick(len(span))
        d = span[idx]
        rest = span[:idx] + span[idx + 1 :]
        w = solve(rest, v, depth + 1)
        bit = 1 << (d - 1)
        if not evaluate(w) & bit:
            return w
        return solve(rest, w ^ bit, depth + 1)

    sink = solve(tuple(range(1, n + 1)), start, 0)
    if evaluated[sink]:
        raise ValueError(f"search ended on vertex {sink} with a nonempty outmap: not a USO")
    return RfResult(sink, len(evaluated), max_depth)


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
    the known one.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    out = []
    for n in n_list:
        o = build_matousek(family_graph(family, n))
        sink = global_sink(o)
        start = sink ^ ((1 << n) - 1)
        counts = np.empty(trials, dtype=np.int64)
        for t in range(trials):
            res = random_facet(o, start, np.random.SeedSequence((seed, t)))
            if res.sink != sink:
                raise RuntimeError(f"run {t} on n={n} returned {res.sink}, sink is {sink}")
            counts[t] = res.evaluations
        out.append(
            TrialStats(
                family=family,
                n=n,
                trials=trials,
                seed=seed,
                mean=float(counts.mean()),
                stddev=float(counts.std()),
                min=int(counts.min()),
                max=int(counts.max()),
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
