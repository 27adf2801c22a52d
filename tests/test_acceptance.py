"""Acceptance gate: ten end-to-end checks, one printed PASS/FAIL line each.

Run `pytest tests/test_acceptance.py -s` to see the lines as they pass.
Each check is exhaustive or statistical at desk scale; the slowest is the
q-move sweep over every valid extension at n = 4 (about 30 s on 2 CPUs).
"""

import time
from itertools import permutations, product

from usomat import (
    CyclicExtension,
    Face,
    InfluenceGraph,
    build_matousek,
    canonicalize,
    extension_to_uso,
    extract_influence_graph,
    find_forbidden,
    flip_facet,
    holt_klee_3face,
    is_branching_closure,
    push_q_left,
    random_facet,
    run_trials,
    stats_to_csv,
    synthesize_extension,
    uso_by_pairs,
)
from usomat.enumeration import all_branchings, all_dags
from usomat.matroid import Q, containment_graph, validate_conditions
from usomat.plcp import is_p_matrix, plcp_to_uso, realization_matrix, translate_to_plcp
from oracles import brute_force_sink, is_p_matroid


def _report(num: int, desc: str, ok: bool) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {desc}", flush=True)
    assert ok, f"criterion {num} failed: {desc}"


def test_01_construction_is_always_uso():
    t0 = time.perf_counter()
    counts = {}
    for n in (4, 5):
        counts[n] = 0
        for g in all_dags(n):
            # the pair test, not is_uso: is_uso takes the construction as proof
            assert uso_by_pairs(build_matousek(g))
            counts[n] += 1
    elapsed = time.perf_counter() - t0
    ok = counts == {4: 543, 5: 29281} and elapsed < 30
    _report(1, f"all {sum(counts.values())} influence DAGs at n=4,5 build to USOs "
                f"({elapsed:.1f}s)", ok)


def test_02_forbidden_patterns_match_branching_closures():
    mismatches = 0
    realizable = {}
    for n in range(1, 6):
        realizable[n] = 0
        for g in all_dags(n):
            witness_free = find_forbidden(g) is None
            closure = is_branching_closure(g) is not None
            if witness_free != closure:
                mismatches += 1
            if witness_free:
                realizable[n] += 1
    ok = mismatches == 0 and realizable == {1: 1, 2: 3, 3: 16, 4: 125, 5: 1296}
    _report(2, f"witness-free = branching-closure on every DAG up to n=5 "
                f"(realizable counts {list(realizable.values())})", ok)


def test_03_sign_condition_matches_brute_force_p_matroid():
    t0 = time.perf_counter()
    checked = mismatches = 0
    for n in (1, 2, 3):
        # neither predicate depends on where q sits (both read only the
        # relative order of 1..2n), so fixing q last loses nothing
        for perm in permutations(range(1, 2 * n + 1)):
            order = perm + (Q,)
            for mask in range(1 << (2 * n)):
                F = {e for e in range(1, 2 * n + 1) if mask >> (e - 1) & 1}
                ext = CyclicExtension(n, order, F)
                checked += 1
                if is_p_matroid(ext) != validate_conditions(ext):
                    mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and checked == 8 + 384 + 46080 and elapsed < 60
    _report(3, f"order/flip conditions = almost-complementary circuit signs on "
                f"{checked} extensions, n<=3 ({elapsed:.1f}s)", ok)


def test_04_three_construction_routes_agree():
    t0 = time.perf_counter()
    count = 0
    for n in (1, 2, 3, 4):
        for b in all_branchings(n):
            ext = synthesize_extension(b)
            g = containment_graph(ext)
            via_graph = canonicalize(build_matousek(g))
            via_matroid = canonicalize(extension_to_uso(ext))
            inst = translate_to_plcp(realization_matrix(ext), ext)
            via_lcp = canonicalize(plcp_to_uso(inst))
            assert via_graph == via_matroid == via_lcp
            count += 1
    elapsed = time.perf_counter() - t0
    ok = count == 145 and elapsed < 60
    _report(4, f"graph / extension / LCP constructions agree vertexwise on all "
                f"{count} branchings, n<=4 ({elapsed:.1f}s)", ok)


def test_05_translated_matrices_are_p_matrices():
    count = 0
    for n in (1, 2, 3, 4):
        for b in all_branchings(n):
            ext = synthesize_extension(b)
            inst = translate_to_plcp(realization_matrix(ext), ext)
            assert is_p_matrix(inst.M)
            count += 1
    _report(5, f"all principal minors positive for every translated matrix, "
                f"n<=4 ({count} instances, exact arithmetic)", count == 145)


def test_06_holt_klee_separates_realizable():
    cube3 = Face(0, 0b111)
    g1 = InfluenceGraph(3, [(1, 2), (2, 3)])
    g2 = InfluenceGraph(3, [(1, 3), (2, 3)])
    forbidden_fail = not holt_klee_3face(build_matousek(g1), cube3) and not holt_klee_3face(
        build_matousek(g2), cube3
    )
    realizable_pass = all(
        holt_klee_3face(build_matousek(g), cube3)
        for g in all_dags(3)
        if find_forbidden(g) is None
    )
    _report(6, "both forbidden-pattern USOs fail Holt-Klee; all 16 realizable "
               "n=3 USOs pass", forbidden_fail and realizable_pass)


def _valid_extensions_q_last(n):
    """Every (order, F) with q last that satisfies the realizability conditions."""
    for perm in permutations(range(1, 2 * n + 1)):
        pos = {e: i for i, e in enumerate(perm)}
        choices = []
        for i in range(1, n + 1):
            a, b = sorted((pos[i], pos[i + n]))
            if ((b - a - 1) // 2) % 2 == 0:
                choices.append(({i}, {i + n}))
            else:
                choices.append((set(), {i, i + n}))
        probe = CyclicExtension(n, perm + (Q,), set().union(*(c[1] for c in choices)))
        if not validate_conditions(probe):
            continue  # pair intervals cross; no F can fix that
        for picks in product(*choices):
            yield CyclicExtension(n, perm + (Q,), set().union(*picks))


def test_07_q_moves_are_facet_flips():
    t0 = time.perf_counter()
    walks = steps = 0
    for n in (1, 2, 3, 4):
        for ext in _valid_extensions_q_last(n):
            # q walks from the back to the front; the intermediate states
            # cover every valid extension with q in mid-order, so checking
            # each step checks every adjacent q-transposition there is
            assert validate_conditions(ext)
            uso = extension_to_uso(ext)
            cur = ext
            while cur.order[0] != Q:
                nxt, dim, upper = push_q_left(cur)
                predicted = flip_facet(uso, dim, upper)
                uso = extension_to_uso(nxt)
                assert uso.outmaps == predicted.outmaps  # whole tables, not just rows
                cur = nxt
                steps += 1
            walks += 1
    elapsed = time.perf_counter() - t0
    # 4 + 64 + 1920 + 86016 walks for n = 1..4, each taking 2n steps
    ok = walks == 88004 and steps == 699912
    _report(7, f"every q-transposition flips exactly the predicted facet "
                f"({steps} transpositions over {walks} extensions, n<=4, "
                f"{elapsed:.0f}s)", ok)


def test_08_root_path_flips_preserve_realizability():
    checked = 0
    for n in range(1, 6):
        for b in all_branchings(n):
            o = build_matousek(b.transitive_closure())
            for v in range(1, n + 1):
                path = [v]
                while path[-1] in b.parent:
                    path.append(b.parent[path[-1]])
                flipped = o
                for d in path:
                    flipped = flip_facet(flipped, d)
                g2 = extract_influence_graph(flipped)
                assert is_branching_closure(g2) is not None
                checked += 1
    _report(8, f"row flips along every root-path keep the graph a branching "
                f"closure ({checked} flips, n<=5)", checked > 0)


def test_09_random_facet_always_finds_the_sink():
    # run_trials re-checks every returned sink against the table scan and
    # raises on the first mismatch, so completing cleanly means 100% correct
    total = 0
    stats_a = []
    for family in ("loops", "path", "star", "merged"):
        for s in run_trials(family, [4, 8, 12], trials=1000, seed=2024):
            stats_a.append(s)
            total += s.trials
    for g in all_dags(3):
        o = build_matousek(g)
        want = brute_force_sink(o)
        for seed in range(5):
            res = random_facet(o, seed=seed)
            assert res.sink == want
            total += 1
    csv_a = stats_to_csv(stats_a)
    stats_b = [
        s
        for family in ("loops", "path", "star", "merged")
        for s in run_trials(family, [4, 8, 12], trials=1000, seed=2024)
    ]
    ok = total >= 10_000 and csv_a == stats_to_csv(stats_b)
    _report(9, f"{total} trials all returned the true sink; repeated seed gives "
                f"byte-identical CSV", ok)


def test_10_mean_cost_stays_in_quadratic_envelope():
    # Calibration (documented in README): six seeds x 10^4 trials on the
    # path closure gave mean/n^2 between 0.248 (n=12) and 0.407 (n=4).
    # The frozen envelope 0.18 n^2 <= mean <= 0.55 n^2 gives ~1.3x slack
    # either side; a linear-growth mean would leave it by n=12.
    lower, upper = 0.18, 0.55
    stats = run_trials("path", [4, 8, 12], trials=10_000, seed=0)
    ok = all(lower * s.n**2 <= s.mean <= upper * s.n**2 for s in stats)
    detail = ", ".join(f"n={s.n}: {s.mean:.1f}" for s in stats)
    _report(10, f"path-closure mean evaluations inside [{lower}, {upper}] x n^2 "
                 f"({detail})", ok)
