"""The row form of an orientation against its dense table.

A Matousek-type orientation is o(v) = base XOR the rows of the dimensions
in v.  Built orientations, extension orientations and facet flips stay in
that form, and every check decides them from their rows.  Here each check
is compared with the slow definition on the table, which the oracles read
vertex by vertex: the same answer, or the same ``ValueError``.
"""

from importlib import import_module
from itertools import permutations

import pytest

from usomat import (
    MAX_DIMENSION,
    MAX_ROW_DIMENSION,
    CyclicExtension,
    InfluenceGraph,
    Orientation,
    Q,
    build_matousek,
    check_orientation,
    extension_to_uso,
    extract_influence_graph,
    flip_facet,
    global_sink,
    is_uso,
    push_q_left,
    random_facet,
)
from usomat.cli import main
from usomat.random_facet import path_family
import usomat.matroid as matroid
from oracles import (
    all_dags,
    edge_consistent_scan,
    extract_influence_graph_by_scan,
    orientation_from_rows,
    random_facet_by_memo,
    sink_by_scan,
    szabo_welzl_pairs,
)

rf = import_module("usomat.random_facet")  # ``usomat.random_facet`` as an attribute is the function


def outcome(f, *args):
    """f(*args), or the class and text of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def uso_by_definition(table_o):
    if not edge_consistent_scan(table_o):
        raise ValueError("outmap table is not an orientation (edge consistency fails)")
    return szabo_welzl_pairs(table_o)


def flip_by_vertex(table, n, d, upper):
    bit = 1 << (d - 1)
    others = ((1 << n) - 1) & ~bit
    side = bit if upper else 0
    return tuple(out ^ others if v & bit == side else out for v, out in enumerate(table))


def valid_extensions(n):
    """Every (order, F) with q last that meets the P-matroid conditions."""
    elements = list(range(1, 2 * n + 1))
    for perm in permutations(elements):
        for f_mask in range(1 << (2 * n)):
            ext = CyclicExtension(n, perm + (Q,), [e for e in elements if f_mask >> (e - 1) & 1])
            if matroid.validate_conditions(ext):
                yield ext


def agree_on_checks(o):
    """The row-form checks on o against the oracles on a table-born copy."""
    dense = Orientation(o.n, o.outmaps)
    assert dense == o and hash(dense) == hash(o)
    assert check_orientation(o) == edge_consistent_scan(dense)
    assert outcome(is_uso, o) == outcome(uso_by_definition, dense)
    assert outcome(global_sink, o) == outcome(sink_by_scan, dense)
    want = outcome(extract_influence_graph_by_scan, dense)
    got = outcome(extract_influence_graph, o)
    assert (got if isinstance(got, InfluenceGraph) else got[0]) == (
        want if isinstance(want, InfluenceGraph) else want[0]
    )
    if isinstance(want, InfluenceGraph):
        # the same canonical form: one graph read off the rows and off the table
        assert extract_influence_graph(o) == extract_influence_graph(dense) == want


def agree_everywhere(o):
    """The checks on o and on all its facet flips, and Random Facet from every start."""
    table = o.outmaps
    assert [Orientation.from_rows(o.n, o.base, o.rows).outmap(v) for v in range(1 << o.n)] == list(table)
    agree_on_checks(o)
    for d in range(1, o.n + 1):
        for upper in (False, True):
            flipped = flip_facet(o, d, upper)
            assert flipped.rows is not None  # stays in row form
            assert flipped.outmaps == flip_by_vertex(table, o.n, d, upper)
            agree_on_checks(flipped)
    for start in range(1 << o.n):
        for seed in range(3):
            res = random_facet(o, start, seed)
            assert (res.sink, res.evaluations) == random_facet_by_memo(o, start, seed)


def test_every_dag_n_le_4():
    graphs = 0
    for n in (1, 2, 3, 4):
        for g in all_dags(n):
            o = build_matousek(g)
            assert o.base == 0 and o.rows == g.rows
            agree_everywhere(o)
            graphs += 1
    assert graphs == 572


def test_every_valid_extension_n3_at_every_q_position():
    """1,920 walks of 7 q positions; checks run once per distinct table."""
    distinct = {}
    walks = 0
    for ext in valid_extensions(3):
        walks += 1
        while True:
            o = extension_to_uso(ext)
            assert o.rows is not None
            distinct.setdefault(o.outmaps, o)
            if ext.order[0] == Q:
                break
            ext = push_q_left(ext)[0]
    assert walks == 1920
    # each realizable graph on 3 dimensions, with its sink anywhere
    assert len(distinct) == 16 * 8
    for o in distinct.values():
        agree_everywhere(o)


def test_unchecked_row_forms_hold_exact_ints_and_match_from_rows(monkeypatch):
    """What the library's producers pass to the unchecked row-form builder would pass from_rows.

    build_matousek on every DAG with n <= 4, flip_facet on each for every d
    and side, and extension_to_uso on every valid n <= 3 extension at every
    q position: each value is an exact int, the rows a tuple, and the
    orientation equals the checked build on the same values.
    """
    calls = []
    unchecked = Orientation._from_checked_rows

    def record(n, base, rows):
        calls.append((n, base, rows))
        return unchecked(n, base, rows)

    monkeypatch.setattr(Orientation, "_from_checked_rows", record)
    built = []
    for n in (1, 2, 3, 4):
        for g in all_dags(n):
            o = build_matousek(g)
            built.append(o)
            built += [flip_facet(o, d, upper) for d in range(1, n + 1) for upper in (False, True)]
    for n in (1, 2, 3):
        for ext in valid_extensions(n):
            while True:
                built.append(extension_to_uso(ext))
                if ext.order[0] == Q:
                    break
                ext = push_q_left(ext)[0]
    monkeypatch.undo()
    assert len(calls) == len(built) == 572 + (2 * 1 + 4 * 3 + 6 * 25 + 8 * 543) + (4 * 3 + 64 * 5 + 1920 * 7)
    for (n, base, rows), o in zip(calls, built):
        assert type(n) is int and type(base) is int and type(rows) is tuple
        assert all(type(row) is int for row in rows)
        assert o == Orientation.from_rows(n, base, rows)


def test_equality_and_hash_across_constructions():
    cases = [build_matousek(g) for n in (1, 2, 3) for g in all_dags(n)]
    cases += [flip_facet(o, d, upper) for o in cases for d in (1, o.n) for upper in (False, True)]
    tables = [Orientation(o.n, o.outmaps) for o in cases]
    for a, ta in zip(cases, tables):
        assert a == ta and ta == a and hash(a) == hash(ta)
        for b, tb in zip(cases, tables):
            same = a.n == b.n and a.outmaps == b.outmaps
            assert (a == b) == (a == tb) == (ta == b) == same
    assert len(set(cases)) == len(set(tables)) == len({(o.n, o.outmaps) for o in cases})


def test_non_matousek_tables_compare_by_table():
    twisted = Orientation(3, (0, 1, 2, 3, 4, 7, 6, 5))
    assert twisted.rows is None and twisted.base is None
    assert twisted == Orientation(3, twisted.outmaps)
    assert hash(twisted) == hash(Orientation(3, twisted.outmaps))
    assert twisted != Orientation(3, range(8))
    assert flip_facet(twisted, 2).rows is None  # the dense route


def test_run_trials_reads_rows_only(monkeypatch):
    """Blocks under _LOCKSTEP_MIN run trial by trial, larger ones in lockstep; neither builds a table, at any n."""
    import usomat.cube

    seen = []

    def recording(search):
        def run(o, start, seed):
            seen.append((search.__name__, o.n))
            return search(o, start, seed)

        return run

    def no_table(base, rows):
        raise AssertionError("a table was built from rows")

    monkeypatch.setattr(usomat.cube, "xor_table", no_table)
    monkeypatch.setattr(rf, "random_facet", recording(random_facet))
    monkeypatch.setattr(rf, "random_facet_lanes", recording(rf.random_facet_lanes))
    rf.run_trials("path", [3, MAX_DIMENSION + 1], 2, 0)
    rf.run_trials("path", [3], rf._LOCKSTEP_MIN, 0)
    per_trial = [("random_facet", 3)] * 2 + [("random_facet", MAX_DIMENSION + 1)] * 2
    assert seen == per_trial + [("random_facet_lanes", 3)]


def test_random_facet_is_the_same_search_on_either_form(monkeypatch):
    """A table-born copy of a Matousek USO is searched along its rows too: no table read, the same result everywhere."""
    cases = []
    for n in (1, 2, 3, 4):
        for g in all_dags(n):
            o = build_matousek(g)
            dense = Orientation(n, o.outmaps)
            assert dense.rows == o.rows
            cases.append((o, dense))
    monkeypatch.setattr(Orientation, "outmaps", property(lambda o: pytest.fail("random_facet read a table")))
    for o, dense in cases:
        for start in range(1 << o.n):
            for seed in range(3):
                assert random_facet(dense, start, seed) == random_facet(o, start, seed)


def test_tables_are_capped():
    o = build_matousek(path_family(MAX_DIMENSION + 1))
    assert o.outmap(0) == 0
    with pytest.raises(ValueError, match=rf"2\^21 entries; tables are capped at n = {MAX_DIMENSION}"):
        o.outmaps
    with pytest.raises(ValueError):
        Orientation.from_rows(MAX_ROW_DIMENSION + 1, 0, [1 << d for d in range(MAX_ROW_DIMENSION + 1)])
    with pytest.raises(ValueError):
        InfluenceGraph(MAX_ROW_DIMENSION + 1)
    wide = MAX_ROW_DIMENSION + 1  # extensions have no cap; their row form has
    pairs = [e for i in range(1, wide + 1) for e in (i, i + wide)]
    with pytest.raises(ValueError, match=f"cube dimension must be in 1..{MAX_ROW_DIMENSION}, got {wide}"):
        extension_to_uso(CyclicExtension(wide, pairs + [Q], range(1, wide + 1)))
    with pytest.raises(ValueError, match=r"base is 4, not an integer with bits in 1\.\.2 only"):
        Orientation.from_rows(2, 4, [1, 2])
    with pytest.raises(ValueError, match="need 2 rows"):
        Orientation.from_rows(2, 0, [1])


def test_checks_beyond_the_table_cap():
    n = MAX_ROW_DIMENSION
    o = build_matousek(path_family(n))
    assert check_orientation(o) and is_uso(o)
    assert extract_influence_graph(o) == path_family(n)
    assert global_sink(o) == 0
    # mirrored along dimension n: the sink moves to {n}
    mirrored = Orientation.from_rows(n, o.rows[n - 1], o.rows)
    assert global_sink(mirrored) == 1 << (n - 1)
    assert extract_influence_graph(mirrored) == extract_influence_graph(o)
    # flipping the lower n-facet adds n -> d for every d, against the path's d -> n
    flipped = flip_facet(o, n)
    assert check_orientation(flipped) and not is_uso(flipped)
    # two dimensions influencing each other: sinks 0 and {1, 2}
    double = orientation_from_rows(21, [2, 1] + [0] * 19)
    with pytest.raises(ValueError, match="multiple sinks: 0 and 3"):
        global_sink(double)
    no_loops = Orientation.from_rows(21, 0, [0] * 21)
    assert not check_orientation(no_loops)
    with pytest.raises(ValueError, match="not an orientation"):
        is_uso(no_loops)


def test_random_facet_default_start_at_n64():
    o = build_matousek(path_family(64))
    res = random_facet(o, seed=0)
    assert res.sink == 0
    assert 65 <= res.evaluations


def test_bench_beyond_the_table_cap(capsys):
    assert main(["bench", "--family", "path", "--n", "24,32,48,64", "--trials", "50"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header == "family,n,trials,seed,mean,stddev,min,max"
    assert [int(row.split(",")[1]) for row in rows] == [24, 32, 48, 64]
    for row in rows:
        cells = row.split(",")
        n, mean, low, high = int(cells[1]), float(cells[4]), int(cells[6]), int(cells[7])
        assert n + 1 <= low <= mean <= high


def test_an_invalid_walk_raises_at_every_step():
    ext = CyclicExtension(2, (1, 3, 2, 4, Q), ())  # crossing pairs
    while True:
        with pytest.raises(ValueError, match="does not satisfy the P-matroid conditions"):
            extension_to_uso(ext)
        if ext.order[0] == Q:
            break
        ext = push_q_left(ext)[0]
