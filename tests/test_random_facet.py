import importlib
import re
from itertools import product

import numpy as np
import pytest

from usomat import (
    FAMILIES,
    Orientation,
    build_matousek,
    family_graph,
    global_sink,
    random_facet,
    run_trials,
    stats_to_csv,
)
from usomat.cube import rows_acyclic
from usomat.random_facet import (
    _LOCKSTEP_MIN,
    _SEED_BLOCK,
    TrialStats,
    _pcg_seed,
    _pcg_step,
    _pcg_uniform,
    _select_tables,
    merged_family,
    path_family,
    random_facet_lanes,
    trial_seed_words,
)
from oracles import all_dags, brute_force_sink, random_facet_by_memo, run_trials_by_seedsequence


def test_families_are_well_formed():
    assert set(FAMILIES) == {"loops", "path", "star", "merged"}
    for make in FAMILIES.values():
        g = make(4)
        assert g.is_acyclic()


def test_merged_family_not_realizable():
    from usomat import find_forbidden

    assert find_forbidden(merged_family(3)) is not None
    assert find_forbidden(path_family(3)) is None


def test_trivial_run():
    res = random_facet(Orientation(1, range(2)), start=1, seed=0)
    assert res.sink == 0
    assert res.evaluations <= 2


def test_non_uso_without_sink_raises():
    """A 4-cycle on the square has no sink; every search must refuse to return one."""
    cycle = Orientation(2, (1, 2, 2, 1))  # 0 -> {1} -> {1,2} -> {2} -> 0
    for seed in range(5):
        for start in range(4):
            with pytest.raises(ValueError, match="not a USO"):
                random_facet(cycle, start, seed)


def test_sink_correct_exhaustive_small():
    for n in (1, 2, 3):
        for g in all_dags(n):
            o = build_matousek(g)
            want = brute_force_sink(o)
            for seed in range(3):
                for start in range(1 << n):
                    assert random_facet(o, start, seed).sink == want


def _kernel(o, start, seed):
    res = random_facet(o, start, seed)
    return res.sink, res.evaluations


def _outcome(search, o, start, seed):
    """(sink, evaluations) of one search, or the text of the ValueError it raised."""
    try:
        return search(o, start, seed)
    except ValueError as exc:
        return str(exc)


def _agree_with_memo(cases) -> list:
    """The kernel's outcome on each case, after checking it against the memoised recursion."""
    outcomes = []
    for o, start, seed in cases:
        got = _outcome(_kernel, o, start, seed)
        assert got == _outcome(random_facet_by_memo, o, start, seed), (o, start, seed)
        outcomes.append(got)
    return outcomes


def test_leaf_count_matches_memo_on_every_small_table():
    """Every outmap table with n <= 2, orientations or not, USOs or not."""
    cases = [
        (Orientation(n, table), start, seed)
        for n in (1, 2)
        for table in product(range(1 << n), repeat=1 << n)
        for start in range(1 << n)
        for seed in range(3)
    ]
    outcomes = _agree_with_memo(cases)
    assert len(outcomes) == 3096
    assert sum(isinstance(x, str) for x in outcomes) == 1350  # searches ending off a sink


def test_leaf_count_matches_memo_on_every_small_dag():
    cases = [
        (build_matousek(g), start, seed)
        for n in (1, 2, 3)
        for g in all_dags(n)
        for start in range(1 << n)
        for seed in range(3)
    ]
    assert len(_agree_with_memo(cases)) == 642


def test_leaf_count_matches_memo_on_the_families():
    rng = np.random.default_rng(2024)
    cases = []
    for name in sorted(FAMILIES):
        for n in range(3, 11):
            o = build_matousek(family_graph(name, n))
            for start in rng.integers(0, 1 << n, size=4).tolist():
                for seed in range(3):
                    cases.append((o, start, np.random.SeedSequence((seed, start))))
    assert len(_agree_with_memo(cases)) == 384


def test_default_start_is_sink_antipode():
    g = FAMILIES["star"](3)
    o = build_matousek(g)
    res = random_facet(o, seed=5)
    antipode = global_sink(o) ^ 0b111
    explicit = random_facet(o, antipode, seed=5)
    assert res == explicit


def test_determinism():
    o = build_matousek(path_family(6))
    a = random_facet(o, seed=123)
    b = random_facet(o, seed=123)
    assert a == b
    seen = {random_facet(o, seed=s).evaluations for s in range(30)}
    assert len(seen) > 1  # different seeds explore differently


def test_evaluations_bounded_by_vertex_count():
    for n in (2, 4, 6):
        o = build_matousek(path_family(n))
        for seed in range(10):
            res = random_facet(o, seed=seed)
            assert res.evaluations <= 1 << n


def test_start_validation():
    with pytest.raises(ValueError):
        random_facet(Orientation(2, range(4)), start=4, seed=0)
    with pytest.raises(ValueError, match="needs a seed"):
        random_facet(Orientation(2, range(4)), seed=None)


def test_run_trials_loops_family():
    stats = run_trials("loops", [4], trials=1000, seed=11)
    assert len(stats) == 1
    s = stats[0]
    assert s.family == "loops" and s.n == 4 and s.trials == 1000 and s.seed == 11
    assert s.min <= s.mean <= s.max
    assert s.max <= 16


def test_family_graph_is_the_one_resolver():
    assert family_graph("path", 4) == path_family(4)
    with pytest.raises(ValueError, match="unknown family 'nope'; known families: loops, merged"):
        family_graph("nope", 4)


def test_run_trials_validation():
    with pytest.raises(ValueError):
        run_trials("path", [3], trials=0, seed=1)
    with pytest.raises(ValueError) as err:
        run_trials("nope", [3], trials=5, seed=1)
    assert "loops" in str(err.value)


@pytest.mark.parametrize("seed", [0, 1, 7, 2**32 - 1, 2**32, 2**64 + 1, 10**30])
def test_trial_seed_words_match_seedsequence(seed):
    # [0, 5000) starts at trial 0; the others meet at 2^32, where the
    # trial number gains a second word
    for first, count in [(0, 5000), (2**32 - 4096, 4096), (2**32, 4096)]:
        words = trial_seed_words(seed, first, count)
        want = [
            np.random.SeedSequence((seed, t)).generate_state(4, np.uint64)
            for t in range(first, first + count)
        ]
        assert words.dtype == np.uint64
        np.testing.assert_array_equal(words, want)


def test_trial_seed_words_validation():
    with pytest.raises(ValueError, match="do not share their high words"):
        trial_seed_words(0, 2**32 - 1, 2)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        trial_seed_words(-1, 0, 1)


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_run_trials_matches_per_trial_seedsequence(family, seed):
    sizes = [1, 2, 3, 4, 5, 6, 13, 21]  # n = 21 steps along the rows
    for trials in (1, 7):
        want = run_trials_by_seedsequence(family, sizes, trials, seed)
        assert run_trials(family, sizes, trials, seed) == want
    # at n <= 4: either side of the lockstep threshold
    n = 1 + sorted(FAMILIES).index(family)
    for trials in (_LOCKSTEP_MIN - 1, _LOCKSTEP_MIN, _LOCKSTEP_MIN + 1):
        want = run_trials_by_seedsequence(family, [n], trials, seed)
        assert run_trials(family, [n], trials, seed) == want


def test_run_trials_across_a_seeding_block_boundary():
    """One full lockstep block, then trial _SEED_BLOCK alone in a per-trial block."""
    trials = _SEED_BLOCK + 1
    assert run_trials("merged", [4], trials, 3) == run_trials_by_seedsequence("merged", [4], trials, 3)


def test_run_trials_names_the_first_wrong_sink(monkeypatch):
    module = importlib.import_module("usomat.random_facet")
    lanes, per_trial = module.random_facet_lanes, module.random_facet
    sink = global_sink(build_matousek(family_graph("path", 4)))

    def two_wrong(o, start, words):
        sinks, counts = lanes(o, start, words)
        sinks[[7, 9]] ^= np.uint64(1)
        return sinks, counts

    monkeypatch.setattr(module, "random_facet_lanes", two_wrong)
    with pytest.raises(RuntimeError, match=f"^run 7 on n=4 returned {sink ^ 1}, sink is {sink}$"):
        run_trials("path", [4], _LOCKSTEP_MIN, 0)

    def wrong(o, start, seed):
        res = per_trial(o, start, seed)
        return type(res)(res.sink ^ 2, res.evaluations)

    monkeypatch.setattr(module, "random_facet_lanes", lanes)
    monkeypatch.setattr(module, "random_facet", wrong)
    with pytest.raises(RuntimeError, match=f"^run {_SEED_BLOCK} on n=4 returned {sink ^ 2}, sink is {sink}$"):
        run_trials("path", [4], _SEED_BLOCK + 1, 0)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_lanes_match_random_facet_trial_by_trial(family):
    """n = 13 selects a pick in two 12-bit rounds, n = 21 is past the table cap, n = 64 uses bit 63."""
    for n in (1, 2, 3, 4, 5, 6, 12, 13, 21, 64):
        o = build_matousek(family_graph(family, n))
        start = global_sink(o) ^ ((1 << n) - 1)
        sinks, counts = random_facet_lanes(o, start, trial_seed_words(5, 0, 300))
        runs = [random_facet(o, start, np.random.SeedSequence((5, t))) for t in range(300)]
        assert (sinks.dtype, counts.dtype) == (np.uint64, np.int64)
        assert sinks.tolist() == [r.sink for r in runs], (family, n)
        assert counts.tolist() == [r.evaluations for r in runs], (family, n)


def test_lanes_match_random_facet_through_chains_of_empty_rests():
    """2,000 lanes of merged: many leaves cross into an empty rest and pop again in the same step."""
    for n in (8, 13):
        o = build_matousek(merged_family(n))
        start = global_sink(o) ^ ((1 << n) - 1)
        sinks, counts = random_facet_lanes(o, start, trial_seed_words(2, 0, 2000))
        runs = [random_facet(o, start, np.random.SeedSequence((2, t))) for t in range(2000)]
        assert sinks.tolist() == [r.sink for r in runs], n
        assert counts.tolist() == [r.evaluations for r in runs], n


@pytest.mark.parametrize("seed", [0, 3, 2**64 + 1])
def test_numpy_pcg64_matches_generator_random(seed):
    trials = [*range(2048), *range(2**32 + 5, 2**32 + 2053)]
    words = np.concatenate([trial_seed_words(seed, 0, 2048), trial_seed_words(seed, 2**32 + 5, 2048)])
    hi, lo, inc_hi, inc_lo = _pcg_seed(words)
    got = np.empty((len(words), 200))
    for j in range(200):
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        got[:, j] = _pcg_uniform(hi, lo)
    want = np.array([
        np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, t)))).random(200)
        for t in trials
    ])
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_select_tables_list_each_chunks_set_bits():
    popcount, select = _select_tables()
    for c in range(1 << 12):
        bits = [d for d in range(12) if c >> d & 1]
        assert popcount[c] == len(bits)
        assert select[12 * c : 12 * c + len(bits)].tolist() == bits


def test_lanes_on_cyclic_rows_match_random_facet():
    """Each lane ends where random_facet does, or the first lane to fail raises its ValueError."""
    rng = np.random.default_rng(11)
    outcomes = {"returned": 0, "raised": 0}
    for n in (2, 3, 4, 5):
        for _ in range(3):
            rows = [1 << d | int(rng.integers(0, 1 << n)) for d in range(n)]
            rows[0], rows[1] = rows[0] | 0b10, rows[1] | 0b01  # dimensions 1 and 2 influence each other
            assert not rows_acyclic(rows)
            o = Orientation.from_rows(n, int(rng.integers(0, 1 << n)), rows)
            for start in range(1 << n):
                runs = [_outcome(_kernel, o, start, np.random.SeedSequence((0, t))) for t in range(300)]
                errors = [x for x in runs if isinstance(x, str)]
                if errors:
                    outcomes["raised"] += 1
                    with pytest.raises(ValueError, match=re.escape(errors[0])):
                        random_facet_lanes(o, start, trial_seed_words(0, 0, 300))
                else:
                    outcomes["returned"] += 1
                    sinks, counts = random_facet_lanes(o, start, trial_seed_words(0, 0, 300))
                    assert list(zip(sinks.tolist(), counts.tolist())) == runs
    assert min(outcomes.values()) > 0, outcomes
    with pytest.raises(ValueError, match="step along the rows"):
        random_facet_lanes(Orientation(3, (0, 1, 2, 3, 4, 7, 6, 5)), 0, trial_seed_words(0, 0, 2))


def test_run_trials_seed_range(monkeypatch):
    big = 2**64 + 1
    assert run_trials("path", [5], 7, big) == run_trials_by_seedsequence("path", [5], 7, big)

    def no_trial(*args):
        raise AssertionError("a trial ran")

    # the package re-exports the function under the module's name
    monkeypatch.setattr(importlib.import_module("usomat.random_facet"), "random_facet", no_trial)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        run_trials("path", [3], trials=5, seed=-1)


def test_running_sums_match_numpy_statistics():
    for family, n, trials, seed in [("path", 5, 300, 7), ("merged", 6, 41, 2), ("loops", 3, 1, 0)]:
        o = build_matousek(family_graph(family, n))
        start = global_sink(o) ^ ((1 << n) - 1)
        counts = np.array([
            random_facet(o, start, np.random.SeedSequence((seed, t))).evaluations
            for t in range(trials)
        ])
        (s,) = run_trials(family, [n], trials, seed)
        assert s.mean == counts.mean()
        assert f"{s.stddev:.4f}" == f"{counts.std():.4f}"
        assert (s.min, s.max) == (counts.min(), counts.max())


def test_trial_stats_validation():
    with pytest.raises(ValueError):
        TrialStats("path", 3, 0, 1, 2.0, 0.0, 1, 3)
    with pytest.raises(ValueError):
        TrialStats("path", 3, 5, 1, 9.0, 0.0, 1, 3)


def test_csv_byte_identical():
    a = stats_to_csv(run_trials("path", [4, 5], trials=200, seed=7))
    b = stats_to_csv(run_trials("path", [4, 5], trials=200, seed=7))
    assert a == b
    assert a.splitlines()[0] == "family,n,trials,seed,mean,stddev,min,max"
    assert a.startswith("family,") and a.endswith("\n")


def test_csv_seed_changes_results():
    a = stats_to_csv(run_trials("path", [6], trials=200, seed=1))
    b = stats_to_csv(run_trials("path", [6], trials=200, seed=2))
    assert a != b


def test_trial_prefix_stability():
    """Growing the trial count keeps the per-trial streams of the prefix."""
    o = build_matousek(path_family(5))
    start = global_sink(o) ^ 0b11111
    first = [
        random_facet(o, start, np.random.SeedSequence((9, t))).evaluations
        for t in range(20)
    ]
    again = [
        random_facet(o, start, np.random.SeedSequence((9, t))).evaluations
        for t in range(40)
    ]
    assert first == again[:20]


def test_loops_mean_nondecreasing():
    stats = run_trials("loops", [2, 3, 4, 5], trials=400, seed=3)
    means = [s.mean for s in stats]
    assert means == sorted(means)


@pytest.mark.slow
def test_qualitative_gap_path_vs_merged():
    """Realizable path closure stays below the non-realizable variant (2x slack)."""
    trials = 10_000
    path_stats = run_trials("path", [12], trials=trials, seed=42)[0]
    merged_stats = run_trials("merged", [12], trials=trials, seed=42)[0]
    assert path_stats.mean <= 2 * merged_stats.mean
