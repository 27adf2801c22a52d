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

numpy is imported by the functions that draw or seed, when they run:
the search, the lockstep lanes and their PCG64 stepper, the seeding
words and the trial runner.  The families, the statistics and importing
the module leave it unloaded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from .cube import MAX_ROW_DIMENSION, Orientation, _check_n, global_sink, is_uso
from .matousek import InfluenceGraph, build_matousek

if TYPE_CHECKING:  # numpy and numpy.random are imported only by the functions that use them
    import numpy as np
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
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16

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
# casting cannot turn a mixed expression into float64: the stepper and
# the seeding make these ints numpy scalars once per block.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MULT_HI, _MULT_LO = _PCG_MULT >> 64, _PCG_MULT & 0xFFFFFFFFFFFFFFFF
_MULT_LO_1, _MULT_LO_0 = _PCG_MULT >> 32 & _MASK32, _PCG_MULT & _MASK32
_CHUNK = 12  # picks select a set bit through tables over 12-bit chunks of the span


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
    SeedSequence(s) does.  Any other seed, a bool or None, raises ValueError;
    PCG64(None) would draw fresh entropy from the operating system.

    A Matousek-type orientation, built from a table or from rows, is
    searched along its rows: only the start's outmap is read, and every
    later leaf is the previous one with one bit d flipped, so its outmap
    is the previous one XOR r_d; no table is built.  Any other orientation
    reads each leaf's outmap in its table.
    """
    import numpy as np

    if type(seed) is not int and not isinstance(seed, np.random.bit_generator.ISeedSequence):
        raise ValueError(f"random_facet needs a seed, an integer or an ISeedSequence, got {seed!r}")
    n = o.n
    full = (1 << n) - 1
    if start is None:
        start = global_sink(o) ^ full
    if type(start) is not int or not 0 <= start <= full:
        raise ValueError(f"start vertex {start!r} is not an integer in 0..{full}")
    rng = np.random.Generator(np.random.PCG64(seed))
    uniforms: list[float] = []
    used = 0
    rows = o.rows
    outmaps = o.outmaps if rows is None else None
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


def _pcg_seed(words: np.ndarray) -> _PcgLanes:
    """The PCG64 streams that rows of seeding words give, one lane each.

    As numpy seeds PCG64: initstate = w0 * 2^64 + w1, inc = 2 * (w2 * 2^64
    + w3) + 1; the state starts at 0, steps, gains initstate and steps.
    """
    import numpy as np

    one = np.uint64(1)
    w0, w1, w2, w3 = words.T
    inc_hi = (w2 << one) | (w3 >> np.uint64(63))
    inc_lo = (w3 << one) | one
    lo = inc_lo + w1
    hi = inc_hi + w0 + (lo < w1)  # the carry of the low words
    lanes = _PcgLanes(hi, lo, inc_hi, inc_lo)
    lanes.step()
    return lanes


class _PcgLanes:
    """numpy's PCG64, one stream per lane, stepped in place.

    Each lane's 128-bit state and increment are held as uint64 halves (hi,
    lo) and (inc_hi, inc_lo).  A step or a draw writes only into them and
    into scratch buffers sized at the first lane count, so it allocates
    nothing; after keep() it works in the buffers' leading entries.
    """

    def __init__(self, hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray) -> None:
        import numpy as np

        self.hi, self.lo, self.inc_hi, self.inc_lo = hi, lo, inc_hi, inc_lo
        # the uint64 operands of step (the multiplier's halves and low quarters, the low-32
        # mask and shift) and of draw (its shifts)
        self._step_u64 = tuple(map(np.uint64, (_MULT_HI, _MULT_LO, _MULT_LO_1, _MULT_LO_0, _MASK32, 32)))
        self._draw_u64 = tuple(map(np.uint64, (11, 58, 63, 64)))
        m = len(hi)
        self._u64_buf = np.empty((4, m), np.uint64)
        self._carry_buf, self._uniform_buf = np.empty(m, np.bool_), np.empty(m)
        self._fit_scratch()

    def _fit_scratch(self) -> None:
        m = len(self.hi)
        self._t = tuple(self._u64_buf[:, :m])
        self._carry, self._uniform = self._carry_buf[:m], self._uniform_buf[:m]

    def keep(self, live: np.ndarray) -> None:
        """Keep the lanes where live is True, in order, as a compaction does."""
        state = (self.hi, self.lo, self.inc_hi, self.inc_lo)
        self.hi, self.lo, self.inc_hi, self.inc_lo = (a[live] for a in state)
        self._fit_scratch()

    def step(self) -> None:
        """state * _PCG_MULT + inc mod 2^128, on 64-bit halves."""
        import numpy as np

        hi, lo, t0, t1, t2, t3 = self.hi, self.lo, *self._t
        mult_hi, mult_lo, mult_lo_1, mult_lo_0, low32, s32 = self._step_u64
        np.bitwise_and(lo, low32, out=t0)  # lo's 32-bit halves a0, a1
        np.right_shift(lo, s32, out=t1)
        hi *= mult_lo  # hi * _MULT_LO + lo * _MULT_HI + inc_hi, before lo moves
        np.multiply(lo, mult_hi, out=t2)
        hi += t2
        hi += self.inc_hi
        lo *= mult_lo
        lo += self.inc_lo
        hi += np.less(lo, self.inc_lo, out=self._carry)  # the carry of the low words
        # plus the high 64 bits of old lo * _MULT_LO from 32-bit halves, no sum overflowing:
        # u = a1 * m0 + (a0 * m0 >> 32), v = a0 * m1 + (u & low32), a1 * m1 + (u >> 32) + (v >> 32)
        np.multiply(t0, mult_lo_0, out=t2)
        t2 >>= s32
        np.multiply(t1, mult_lo_0, out=t3)
        t3 += t2
        t0 *= mult_lo_1
        t0 += np.bitwise_and(t3, low32, out=t2)
        t1 *= mult_lo_1
        t3 >>= s32
        t1 += t3
        t0 >>= s32
        t1 += t0
        hi += t1

    def draw(self) -> np.ndarray:
        """Step every lane and return Generator.random() of each, in a buffer the next draw reuses.

        XSL-RR output, its top 53 bits scaled to [0, 1).
        """
        import numpy as np

        self.step()
        x, rot, right = self._t[:3]
        s11, s58, s63, s64 = self._draw_u64
        np.bitwise_xor(self.hi, self.lo, out=x)
        np.right_shift(self.hi, s58, out=rot)
        np.right_shift(x, rot, out=right)
        np.subtract(s64, rot, out=rot)
        rot &= s63
        x <<= rot
        x |= right
        x >>= s11
        return np.multiply(x, 2.0**-53, out=self._uniform)


@cache
def _select_tables() -> tuple[np.ndarray, np.ndarray]:
    """For every 12-bit chunk c: its popcount, and the positions of its set bits at c * 12 + rank."""
    import numpy as np

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
    ``Generator(PCG64(row))`` draws; the streams are stepped in place, in
    scratch buffers that a compaction leaves in use.  Vertices, outmaps,
    spans, stacked faces and rows are held in the smallest unsigned type
    that holds 2^n - 1, so a step converts none of them.  The leaves'
    outmaps step along the rows; no table is built.  o must be a Matousek
    USO in row form and start an int vertex, else ValueError before the
    first step; a lane that still ends on a vertex with a nonempty outmap
    raises random_facet's ValueError.
    """
    import numpy as np

    n, m = o.n, len(words)
    if o.rows is None or not is_uso(o):  # O(n^2) on rows; raises on a row without its loop bit
        raise ValueError("lockstep runs need a Matousek USO in row form: acyclic rows with loop bits")
    if type(start) is not int or not 0 <= start < 1 << n:
        raise ValueError(f"start vertex {start!r} is not an integer in 0..{(1 << n) - 1}")
    popcount, select = _select_tables()
    # vertices, outmaps, spans and faces share the smallest unsigned type
    # that holds 2^n - 1, so no step converts one
    face_type = np.min_scalar_type((1 << n) - 1).type
    rows = np.array(o.rows, face_type)
    bits = np.array(_BITS[:n], face_type)
    chunk_mask, chunk_shift = face_type((1 << min(n, _CHUNK)) - 1), face_type(_CHUNK)
    pcg = _pcg_seed(words)
    w = np.full(m, start, face_type)
    out = np.full(m, o.outmap(start), face_type)
    span = np.full(m, (1 << n) - 1, face_type)
    k = np.full(m, n, np.int8)  # popcount of span; 0 on a live lane only while it pops
    top = np.zeros(m, np.int8)  # the free stack slot
    leaves = np.zeros(m, np.int64)
    # Stack slot (lane, j): the face a pick was made in, the pick's dimension
    # and the rest's size, which is not n - j - 1 once a flip reused j.  The
    # faces nest up the stack, and on a USO a leaf is the sink of every face
    # above the topmost pick in its outmap x, so the slots whose face meets x
    # are a prefix that ends at that pick: the facet the lane crosses into.
    # n + 1 slots keep slot top free, and zeroed it ends that prefix.
    faces = np.empty(m * (n + 1), face_type)
    dims = np.empty(m * (n + 1), np.int8)
    sizes = np.empty(m * (n + 1), np.int8)
    lane = np.arange(m)  # the row each position holds
    row_at = lane * (n + 1)  # where each position's slots start in the flat stack
    sinks, outs, counts = np.empty(m, np.uint64), np.empty(m, face_type), np.empty(m, np.int64)
    finished = 0  # lanes done since the last compaction; a done lane keeps k = 0
    while len(lane):
        # picks: every lane draws idx below its span size and pushes that
        # dimension; a done lane picks into its free slot, which nothing
        # reads, neither its k nor its top moves, and its span is not read
        u = pcg.draw()
        u *= k
        idx = u.astype(np.int8)  # below k: see the note at _UNIFORM_BLOCK
        # the idx-th lowest set bit of the span: step past each chunk
        # holding at most idx set bits, then one gather in the chunk reached;
        # take() reads the narrow index types faster than fancy indexing
        s, base = span, 0
        for _ in range(_CHUNK, n, _CHUNK):
            c = popcount.take(s & chunk_mask)
            past = idx >= c
            idx = idx - c * past
            s = np.where(past, s >> chunk_shift, s)
            base = base + _CHUNK * past
        d = select.take((s & chunk_mask).astype(np.intp) * _CHUNK + idx) + base
        at = row_at + top
        faces[at] = span
        dims[at] = d
        span ^= bits.take(d)  # a live lane's picked bit is in its span
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
            meets = (np.take(faces.reshape(-1, n + 1), leaf, axis=0) & out[leaf, None]) != 0
            miss = meets.argmin(axis=1)  # the first slot whose face misses x, one above the crossing
            cross = miss != 0
            finished += len(leaf) - np.count_nonzero(cross)
            f, j = leaf[cross], miss[cross] - 1
            at = base_q[cross] + j
            d = dims[at]
            bit = bits.take(d)
            w[f] ^= bit
            out[f] ^= rows.take(d)
            span[f] = faces[at] ^ bit
            k[f] = size = sizes[at]
            top[f] = j
            leaf = f[size == 0]
        if 2 * finished >= len(lane):  # compact once half the lanes are done
            done = k == 0
            ids = lane[done]
            sinks[ids], outs[ids], counts[ids] = w[done], out[done], leaves[done]
            live = ~done
            pcg.keep(live)
            lane, w, out, span, k, top, leaves = (a[live] for a in (lane, w, out, span, k, top, leaves))
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
    _check_n(n, MAX_ROW_DIMENSION)
    return FAMILIES[name](n)


def _int_words(x: int) -> list[int]:
    """x as SeedSequence reads an int: little-endian uint32 words, [0] for 0."""
    if type(x) is not int or x < 0:
        raise ValueError(f"expected non-negative integer, got {x!r}")  # SeedSequence's wording
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
    are read as little-endian uint64.  first must be an int of at least 0
    and count an int of at least 1, and the trial numbers must agree from
    bit 32 up, so that they have equally many words; ValueError otherwise.
    """
    import numpy as np

    if type(first) is not int or first < 0:
        raise ValueError(f"first trial must be a non-negative integer, got {first!r}")
    if type(count) is not int or count < 1:
        raise ValueError(f"trial count must be an integer of at least 1, got {count!r}")
    if first >> 32 != (first + count - 1) >> 32:
        raise ValueError(f"trials {first}..{first + count - 1} do not share their high words")
    high = first >> 32
    mult_l, mult_r, xshift = np.uint32(_MIX_MULT_L), np.uint32(_MIX_MULT_R), np.uint32(_XSHIFT)
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
        return value ^ (value >> xshift)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = mult_l * x - mult_r * y
        return result ^ (result >> xshift)

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
        state[:, i] = value ^ (value >> xshift)
    return state.view("<u8").astype(np.uint64, copy=False)


@cache
def _seed_row_type() -> type:
    """An ISeedSequence holding one row of trial_seed_words, made on first use."""
    import numpy as np
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
    if type(trials) is not int or trials < 1:
        raise ValueError(f"trials must be at least 1 and an integer, got {trials!r}")
    _int_words(seed)  # a negative or non-integer seed fails here, before any trial
    import numpy as np

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
