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
making two chain dimensions incomparable.  It runs large blocks of
trials in lockstep, one numpy lane per trial, each stepping its own
PCG64 stream in numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from .cube import MAX_ROW_DIMENSION, Orientation, global_sink
from .matousek import InfluenceGraph, build_matousek

if TYPE_CHECKING:  # numpy.random is imported only by the functions that draw
    from numpy.random.bit_generator import ISeedSequence

# Each float64 uniform takes one 64-bit PCG64 output, so the picks are the
# same for any block size; small blocks waste less on short runs.  A pick
# int(u * k) needs no clamp to k - 1: u = j * 2^-53 with j < 2^53, so u * k
# lies at least k * 2^-53 below k, more than half an ulp of the floats just
# below k, and rounds to one of them.
_UNIFORM_BLOCK = 32
_BITS = tuple(1 << d for d in range(MAX_ROW_DIMENSION))  # a search starts on span _BITS[:n]

# run_trials seeds trials [k * _SEED_BLOCK, (k + 1) * _SEED_BLOCK) in one
# pass and runs them as one lockstep block: memory stays constant in the
# trial count, and since 2^32 is a multiple of the block, no block holds
# trial numbers of two word counts.  A block pays once for the steps of its
# longest trial, so bench's 10,000 trials per n run as one block, not three.
_SEED_BLOCK = 16384
# numpy's SeedSequence constants: a 4-word pool of uint32, hashed on the way
# in (A) and on the way out (B), the pool words mixed pairwise.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)

# run_trials runs a seeding block of at least this many trials in lockstep
# (random_facet_lanes) and smaller ones trial by trial.  numpy's call
# overhead is paid once per step for all lanes, and a block takes as many
# steps as its longest trial, so lockstep wins only with enough lanes.  The
# break-even lies near 256 lanes (path at n >= 16, merged) or below it;
# from 512 lanes on lockstep won for every family from n = 4 to 64
# (README).  The threshold stays at 1,000 until a benchmark workload runs
# blocks below it, and bench's default of 1,000 trials runs in lockstep.
_LOCKSTEP_MIN = 1000
# numpy's PCG64: a 128-bit LCG, state * _PCG_MULT + inc, with XSL-RR output.
# Every uint64 operand is a numpy uint64, so numpy 1.x's value-based
# casting cannot turn a mixed expression into float64.
_U64 = np.uint64
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MULT_HI, _MULT_LO = _U64(_PCG_MULT >> 64), _U64(_PCG_MULT & 0xFFFFFFFFFFFFFFFF)
_MULT_LO_1, _MULT_LO_0 = _U64(_PCG_MULT >> 32 & _MASK32), _U64(_PCG_MULT & _MASK32)
_LOW32, _ONE = _U64(_MASK32), _U64(1)
_BIT64 = np.left_shift(_ONE, np.arange(MAX_ROW_DIMENSION, dtype=np.uint64))
_CHUNK = 12  # picks select a set bit through tables over 12-bit chunks of the span
_CHUNK_MASK = _U64((1 << _CHUNK) - 1)


@dataclass(frozen=True)
class RfResult:
    """Outcome of one run: the sink found and what it cost."""

    sink: int
    evaluations: int


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
    seed: int | ISeedSequence = 0,
) -> RfResult:
    """Find the sink of a USO, counting outmap queries.

    The input must be a USO; that is not checked, since the check costs
    far more than the search.  On any orientation the recursion visits
    fewer than 2^(n+1) faces and ends, but without unique sinks the vertex
    it ends on need not be a sink (ValueError), or may be one of several.

    start defaults to the bitwise complement of the global sink.  Results
    are a pure function of (orientation, start, seed); the generator is a
    PCG64 stream so runs reproduce across platforms.  seed is an int, a
    numpy SeedSequence or any other ISeedSequence; PCG64 reads its state
    from seed.generate_state(4, np.uint64), and an int s seeds exactly as
    SeedSequence(s) does.  seed=None raises ValueError, since PCG64(None)
    would draw fresh entropy from the operating system.

    An orientation that holds its table reads each leaf's outmap there.
    One in row form computes only the start's outmap, in O(n): every
    later leaf is the previous one with one bit d flipped, so its outmap
    is the previous one XOR r_d, and no table is built.
    """
    if seed is None:
        raise ValueError("random_facet needs a seed; None would draw fresh OS entropy")
    n = o.n
    full = (1 << n) - 1
    if start is None:
        start = global_sink(o) ^ full
    if not 0 <= start <= full:
        raise ValueError(f"start vertex {start} out of range for n={n}")
    rng = np.random.Generator(np.random.PCG64(seed))
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
    return RfResult(w, leaves)


def _pcg_seed(words: np.ndarray) -> tuple[np.ndarray, ...]:
    """The PCG64 states (hi, lo, inc_hi, inc_lo) that rows of seeding words give.

    As numpy seeds PCG64: initstate = w0 * 2^64 + w1, inc = 2 * (w2 * 2^64
    + w3) + 1; the state starts at 0, steps, gains initstate and steps.
    """
    w0, w1, w2, w3 = words.T
    inc_hi = (w2 << _ONE) | (w3 >> _U64(63))
    inc_lo = (w3 << _ONE) | _ONE
    lo = inc_lo + w1
    hi = inc_hi + w0 + (lo < w1)  # the carry of the low words
    hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
    return hi, lo, inc_hi, inc_lo


def _pcg_step(hi, lo, inc_hi, inc_lo) -> tuple[np.ndarray, np.ndarray]:
    """state * _PCG_MULT + inc mod 2^128, on 64-bit halves."""
    # the high 64 bits of lo * _MULT_LO, from 32-bit halves
    a0, a1 = lo & _LOW32, lo >> _U64(32)
    p00, p01, p10 = a0 * _MULT_LO_0, a0 * _MULT_LO_1, a1 * _MULT_LO_0
    mid = (p00 >> _U64(32)) + (p01 & _LOW32) + (p10 & _LOW32)
    lo_hi = a1 * _MULT_LO_1 + (p01 >> _U64(32)) + (p10 >> _U64(32)) + (mid >> _U64(32))
    new_lo = lo * _MULT_LO + inc_lo
    new_hi = hi * _MULT_LO + lo * _MULT_HI + lo_hi + inc_hi + (new_lo < inc_lo)
    return new_hi, new_lo


def _pcg_uniform(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """Generator.random() of a stepped state: XSL-RR output, top 53 bits scaled to [0, 1)."""
    x = hi ^ lo
    rot = hi >> _U64(58)
    x = (x >> rot) | (x << ((_U64(64) - rot) & _U64(63)))
    return (x >> _U64(11)) * 2.0**-53


@cache
def _select_tables() -> tuple[np.ndarray, np.ndarray]:
    """For every 12-bit chunk c: its popcount, and the positions of its set bits at c * 12 + rank."""
    popcount = np.zeros(1, np.int8)
    select = np.zeros((1, _CHUNK), np.int8)
    for b in range(_CHUNK):  # the chunks c + 2^b: the set bits of c, then b
        upper = select.copy()
        upper[np.arange(len(upper)), popcount] = b
        popcount = np.concatenate([popcount, popcount + 1])
        select = np.concatenate([select, upper])
    return popcount, select.ravel()


def random_facet_lanes(o: Orientation, start: int, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``random_facet(o, start, row)`` for every row of seeding words, run in lockstep.

    Returns the sinks (uint64) and the evaluation counts (int64), one per
    row, equal to the per-row runs'.  Each row is one lane of numpy
    arrays, and one loop step makes exactly one pick for every live lane;
    a lane whose pick empties its span then pops, in the same step, every
    pending facet that its vertex does not leave.  A lane steps its own
    PCG64 stream in numpy, so the picks are the ones
    ``Generator(PCG64(row))`` draws.  The leaves' outmaps step along the
    rows, so o must be Matousek-type; no table is built.  The first lane
    that ends on a vertex with a nonempty outmap raises random_facet's
    ValueError.
    """
    if o.rows is None:
        raise ValueError("lockstep runs step along the rows; this orientation has none")
    n, m = o.n, len(words)
    popcount, select = _select_tables()
    rows = np.array(o.rows, np.uint64)
    hi, lo, inc_hi, inc_lo = _pcg_seed(words)
    w = np.full(m, start, np.uint64)
    out = np.full(m, o.outmap(start), np.uint64)
    span = np.full(m, (1 << n) - 1, np.uint64)
    held = np.zeros(m, np.uint64)  # the picks on the stack: out & held ignores crossed dimensions
    k = np.full(m, n, np.int8)  # popcount of span; 0 on a live lane only while it pops
    top = np.zeros(m, np.int8)  # the free stack slot
    leaves = np.zeros(m, np.int64)
    # Stack slot (lane, j): the face a pick was made in, the pick's dimension
    # and the rest's size, which is not n - j - 1 once a flip reused j.  The
    # faces nest up the stack and a pick lies in no face above its own, so
    # the slots whose face meets x = out & held are a prefix that ends at
    # the topmost pick in x: the facet the lane crosses into.  n + 1 slots
    # keep slot top free, and zeroed it ends that prefix.
    face_type = np.min_scalar_type((1 << n) - 1)
    faces = np.empty(m * (n + 1), face_type)
    dims = np.empty(m * (n + 1), np.int8)
    sizes = np.empty(m * (n + 1), np.int8)
    lane = np.arange(m)  # the row each position holds
    row_at = lane * (n + 1)  # where each position's slots start in the flat stack
    sinks, outs, counts = np.empty(m, np.uint64), np.empty(m, np.uint64), np.empty(m, np.int64)
    finished = 0  # lanes done since the last compaction; a done lane keeps k = 0
    while len(lane):
        # picks: every lane draws idx below its span size and pushes that
        # dimension; a done lane picks from its empty span into its free
        # slot, which nothing reads, and neither its k nor its top moves
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        idx = (_pcg_uniform(hi, lo) * k).astype(np.int8)  # below k: see the note at _UNIFORM_BLOCK
        # the idx-th lowest set bit of the span: step past each chunk
        # holding at most idx set bits, then one gather in the chunk reached
        s, base = span, 0
        for _ in range(_CHUNK, n, _CHUNK):
            c = popcount[(s & _CHUNK_MASK).astype(np.intp)]
            past = idx >= c
            idx = idx - c * past
            s = np.where(past, s >> _U64(_CHUNK), s)
            base = base + _CHUNK * past
        d = select[(s & _CHUNK_MASK).astype(np.intp) * _CHUNK + idx] + base
        at = row_at + top
        faces[at] = span.astype(face_type, copy=False)
        dims[at] = d
        bit = _BIT64[d]
        span &= ~bit
        held |= bit
        leaf = np.flatnonzero(k == 1)  # these picks empty the span
        live = k != 0
        k -= live
        sizes[at] = k
        top += live
        # pops: a lane at a leaf crosses into the facet of its topmost pending
        # pick that out leaves along, and a crossing into an empty rest is a
        # leaf again; a lane with no such pick is done
        while len(leaf):
            leaves[leaf] += 1
            base_q = row_at[leaf]
            faces[base_q + top[leaf]] = 0
            x = (out[leaf] & held[leaf]).astype(face_type, copy=False)
            meets = (np.take(faces.reshape(-1, n + 1), leaf, axis=0) & x[:, None]) != 0
            miss = meets.argmin(axis=1)  # the first slot whose face misses x, one above the crossing
            cross = miss != 0
            finished += len(leaf) - np.count_nonzero(cross)
            f, j = leaf[cross], miss[cross] - 1
            at = base_q[cross] + j
            face = faces[at].astype(np.uint64, copy=False)
            d = dims[at]
            bit = _BIT64[d]
            w[f] ^= bit
            out[f] ^= rows[d]
            span[f] = face ^ bit
            held[f] &= ~face
            k[f] = size = sizes[at]
            top[f] = j
            leaf = f[size == 0]
        if 2 * finished >= len(lane):  # compact once half the lanes are done
            done = k == 0
            ids = lane[done]
            sinks[ids], outs[ids], counts[ids] = w[done], out[done], leaves[done]
            live = ~done
            lane, hi, lo, inc_hi, inc_lo, w, out, span, held, k, top, leaves = (
                a[live] for a in (lane, hi, lo, inc_hi, inc_lo, w, out, span, held, k, top, leaves)
            )
            faces, dims, sizes = (a.reshape(-1, n + 1)[live].ravel() for a in (faces, dims, sizes))
            row_at = np.arange(len(lane)) * (n + 1)
            finished = 0
    bad = np.flatnonzero(outs)
    if len(bad):
        raise ValueError(f"search ended on vertex {sinks[bad[0]]} with a nonempty outmap: not a USO")
    return sinks, counts


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


def _int_words(x: int) -> list[int]:
    """x as SeedSequence reads an int: little-endian uint32 words, [0] for 0."""
    if x < 0:
        raise ValueError("expected non-negative integer")  # SeedSequence's message
    words = [x & _MASK32]
    while x := x >> 32:
        words.append(x & _MASK32)
    return words


def trial_seed_words(seed: int, first: int, count: int) -> np.ndarray:
    """The PCG64 seeding words of trials first .. first + count - 1, one row each.

    Row i equals ``SeedSequence((seed, first + i)).generate_state(4,
    np.uint64)``, computed for all rows in one vectorised pass of numpy's
    SeedSequence algorithm: the entropy words of seed and of the trial
    number go through the 4-word pool's hashmix and mix, and 8 output words
    are read as little-endian uint64.  The trial numbers must agree from
    bit 32 up, so that they have equally many words; ValueError otherwise.
    """
    if first < 0 or count < 1 or first >> 32 != (first + count - 1) >> 32:
        raise ValueError(f"trials {first}..{first + count - 1} do not share their high words")
    high = first >> 32
    # Constant words broadcast as 1-element arrays: the pool only widens
    # to count lanes where the trial number's low word reaches it.
    entropy = [np.array([w], np.uint32) for w in _int_words(seed)]
    entropy.append(np.arange(count, dtype=np.uint32) + np.uint32(first & _MASK32))
    if high:
        entropy += [np.array([w], np.uint32) for w in _int_words(high)]

    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> _XSHIFT)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> _XSHIFT)

    zero = np.zeros(1, np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for i_src in range(_POOL_SIZE, len(entropy)):
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(entropy[i_src]))

    state = np.empty((count, 8), "<u4")
    hash_const = _INIT_B
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        state[:, i] = value ^ (value >> _XSHIFT)
    return state.view("<u8").astype(np.uint64, copy=False)


@cache
def _seed_row_type() -> type:
    """An ISeedSequence holding one row of trial_seed_words, made on first use."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedRow(ISeedSequence):
        def __init__(self, row: np.ndarray) -> None:
            self.row = row

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            # PCG64 asks for (4, np.uint64); the identity test skips np.dtype
            if n_words != len(self.row) or dtype is not np.uint64 and np.dtype(dtype) != np.uint64:
                raise ValueError(f"holds exactly {len(self.row)} uint64 words")
            return self.row

    return SeedRow


def run_trials(family: str, n_list: Sequence[int], trials: int, seed: int) -> list[TrialStats]:
    """Repeated runs per cube size on a named family, each from the sink's antipodal vertex.

    Trial t uses the generator stream seeded by SeedSequence((seed, t)),
    so any prefix of the trial sequence is stable under a larger trial
    count and the whole run reproduces exactly.  The seeding words come
    from trial_seed_words, 16,384 trials at a time.  A block of at least
    _LOCKSTEP_MIN = 1,000 trials runs in lockstep (random_facet_lanes), a
    smaller one trial by trial (random_facet); both step along the flip
    rows and build no 2^n table, and both give every trial the same picks.
    Every returned sink is checked against the known one.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    _int_words(seed)  # a negative seed fails here, before any trial
    out = []
    for n in n_list:
        o = build_matousek(family_graph(family, n))
        sink = global_sink(o)
        start = sink ^ ((1 << n) - 1)
        # exact running sums: memory stays constant in the trial count
        total = squares = high = 0
        low = 1 << n  # a run evaluates at most every vertex once
        for first in range(0, trials, _SEED_BLOCK):
            words = trial_seed_words(seed, first, min(_SEED_BLOCK, trials - first))
            if len(words) >= _LOCKSTEP_MIN:
                sinks, counts = random_facet_lanes(o, start, words)
                counts = counts.tolist()
            else:
                seed_row = _seed_row_type()  # imports numpy.random
                runs = [random_facet(o, start, seed_row(row)) for row in words]
                sinks = np.array([r.sink for r in runs], np.uint64)
                counts = [r.evaluations for r in runs]
            wrong = np.flatnonzero(sinks != np.uint64(sink))
            if len(wrong):
                t = wrong[0]
                raise RuntimeError(f"run {first + t} on n={n} returned {sinks[t]}, sink is {sink}")
            total += sum(counts)
            squares += sum(x * x for x in counts)
            low = min(low, *counts)
            high = max(high, *counts)
            del words  # free this block before the next is built: peak RSS holds one
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
