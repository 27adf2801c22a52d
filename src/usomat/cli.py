"""Command-line front door: build, check, realize, bench, enumerate.

Graphs, orientations, extensions and LCP instances travel as small JSON
documents; influence graphs can also be rendered as DOT and benchmark
results as CSV.  Every run prints its version to stderr.  A semantic input
error (a bad file, an unknown family, a value out of range) is a
``ValueError`` or ``OSError``, printed as one ``error:`` line with exit
status 1; argparse keeps syntax errors, which exit with status 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional, Sequence

from . import __version__
from .cube import (
    MAX_DIMENSION,
    MAX_ROW_DIMENSION,
    Orientation,
    _check_n,
    check_orientation,
    is_uso,
    mask_to_dims,
)
from .matousek import (
    CyclicInfluence,
    InfluenceGraph,
    NotMatousekType,
    build_matousek,
    extract_influence_graph,
)
from .matroid import extension_to_uso
from .plcp import plcp_to_uso, translate_to_plcp
from .random_facet import FAMILIES, family_graph, run_trials, stats_to_csv
from .realizability import find_forbidden, is_branching_closure, synthesize_extension
from .enumeration import ENUMERATE_CAP, classify_block, dag_blocks


def _read_json(path: str) -> object:
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def _write_text(text: str, out: Optional[str]) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(text)


def _load_graph(args: argparse.Namespace, cap: int) -> InfluenceGraph:
    """The graph of a file or a family, with n at most ``cap``."""
    if args.graph is not None:
        if args.family is not None:
            raise ValueError("give either a graph file or --family, not both")
        if args.n is not None:
            raise ValueError("--n goes with --family; a graph file gives its own n")
        g = InfluenceGraph.from_json_obj(_read_json(args.graph))
    elif args.family is None:
        raise ValueError("need a graph file or --family")
    elif args.n is None:
        raise ValueError("--family needs --n")
    else:
        g = family_graph(args.family, args.n)
    _check_n(g.n, cap)
    return g


def _parse_n_list(text: str) -> list[int]:
    """Cube sizes in 1..MAX_ROW_DIMENSION: a single value, a comma list, or an inclusive a..b range."""
    lo, dots, hi = text.partition("..")
    try:
        values = range(int(lo), int(hi) + 1) if dots else [int(part) for part in text.split(",")]
    except ValueError:
        values = []
    # a range is checked lazily: one out of bounds stops the scan within MAX_ROW_DIMENSION + 1 steps
    if not values or not all(1 <= v <= MAX_ROW_DIMENSION for v in values):
        raise ValueError(f"bad cube size list: {text!r} (sizes are 1..{MAX_ROW_DIMENSION})")
    return list(values)


def _orientation_json(o: Orientation) -> str:
    """The text of ``json.dumps(o.to_json_obj(), indent=2)``, written directly.

    An indent sends ``json.dumps`` to its pure-Python encoder.  Here the
    lines of every outmap are built once per mask instead, each from the
    mask without its top dimension.
    """
    lines = [""]
    for d in range(1, o.n + 1):
        item = f"\n      {d},"
        lines += [below + item for below in lines]
    entries = ["[" + lines[m][:-1] + "\n    ]" if m else "[]" for m in o.outmaps]
    return f'{{\n  "n": {o.n},\n  "outmaps": [\n    ' + ",\n    ".join(entries) + "\n  ]\n}"


def cmd_build(args: argparse.Namespace) -> int:
    g = _load_graph(args, MAX_DIMENSION)  # the output is a 2^n table
    o = build_matousek(g)
    witness = find_forbidden(g)
    if witness is not None:
        print(
            f"warning: not realizable; witness {json.dumps(witness.to_json_obj())}",
            file=sys.stderr,
        )
    if args.format == "dot":
        _write_text(g.to_dot(), args.out)
    else:
        _write_text(_orientation_json(o), args.out)
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    o = Orientation.from_json_obj(_read_json(args.orientation))
    if not check_orientation(o):
        print("orientation: inconsistent (some edge claimed by both endpoints)")
        return 1
    print(f"USO: {'yes' if is_uso(o) else 'no'}")
    try:
        g = extract_influence_graph(o)
    except CyclicInfluence:
        print("Matousek: no (influence pattern is cyclic)")
        return 0
    except NotMatousekType:
        print("Matousek: no (flip pattern varies across vertices)")
        return 0
    print("Matousek: yes")
    print(f"influence graph: {json.dumps(g.to_json_obj())}")
    witness = find_forbidden(g)
    if witness is None:
        print("realizable: yes")
    else:
        x, y, z = witness.vertices
        print(f"realizable: no ({witness.kind} at {x},{y},{z})")
        print(f"witness: {json.dumps(witness.to_json_obj())}")
    return 0


def _route_problem(route: str, got: Orientation, g: InfluenceGraph) -> Optional[str]:
    """How one construction route's orientation differs from the graph's, or None.

    The canonical form of a Matousek USO is the orientation of its influence
    graph, with o(0) = 0, so vertex {d} holds row d of the graph, and the
    first differing row names the first vertex where the canonical forms differ.
    """
    if got.n != g.n:
        return f"{route} route gives an orientation of n = {got.n}, the graph has n = {g.n}"
    try:
        rows = extract_influence_graph(got).rows
    except ValueError as exc:
        return f"{route} route gives no Matousek USO ({exc})"
    for d, (mine, theirs) in enumerate(zip(rows, g.rows), start=1):
        if mine != theirs:
            return (
                f"{route} route disagrees with the graph at vertex {[d]} "
                f"of the canonical form: {route} outmap {mask_to_dims(mine)}, "
                f"graph outmap {mask_to_dims(theirs)}"
            )
    return None


def cmd_realize(args: argparse.Namespace) -> int:
    g = _load_graph(args, MAX_ROW_DIMENSION)  # every route stays in row form
    build_matousek(g)  # a cyclic graph stops here with CyclicInfluence
    branching = is_branching_closure(g)
    if branching is None:
        witness = find_forbidden(g)
        if witness is None:
            raise ValueError("graph is not a branching closure, yet no forbidden pattern was found")
        x, y, z = witness.vertices
        print(json.dumps(witness.to_json_obj()))
        print(f"not realizable: {witness.kind} at {x},{y},{z}", file=sys.stderr)
        return 1
    ext = synthesize_extension(branching)
    inst = translate_to_plcp(ext)
    problem = _route_problem("extension", extension_to_uso(ext), g)
    if problem is None:
        try:  # a P-matrix M is certified here: plcp_to_uso refuses any other
            problem = _route_problem("LCP", plcp_to_uso(inst), g)
        except ValueError as exc:
            problem = f"LCP route: {exc}"
    if problem is not None:
        print(f"verification failed: {problem}; nothing written", file=sys.stderr)
        return 1
    print("round-trip: exact match")
    ext_doc = json.dumps(ext.to_json_obj(), indent=2)
    plcp_doc = json.dumps(inst.to_json_obj(), indent=2)
    if args.out is None:
        print(ext_doc)
        print(plcp_doc)
    else:
        _write_text(ext_doc, f"{args.out}.ext.json")
        _write_text(plcp_doc, f"{args.out}.plcp.json")
        print(f"wrote {args.out}.ext.json and {args.out}.plcp.json")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    stats = run_trials(args.family, _parse_n_list(args.n), args.trials, args.seed)
    _write_text(stats_to_csv(stats), args.out)
    return 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    n = args.n
    if not 1 <= n <= ENUMERATE_CAP:
        raise ValueError(f"--n must be between 1 and {ENUMERATE_CAP}")
    dags = uso_failures = realizable = mismatches = 0
    for rows in dag_blocks(n):
        # acyclic rows are what is_uso accepts for build_matousek's orientation
        acyclic, witness_free, closure = classify_block(rows)
        dags += len(rows)
        uso_failures += int((~acyclic).sum())
        realizable += int(witness_free.sum())
        mismatches += int((witness_free != closure).sum())
    if args.format == "csv":
        text = "n,dags,uso_failures,realizable,mismatches\n"
        text += f"{n},{dags},{uso_failures},{realizable},{mismatches}\n"
    else:
        text = json.dumps(
            {
                "n": n,
                "dags": dags,
                "uso_failures": uso_failures,
                "realizable": realizable,
                "mismatches": mismatches,
            },
            indent=2,
        )
    _write_text(text, args.out)
    return 0 if uso_failures == 0 and mismatches == 0 else 1


@functools.cache  # built once per process: main may run many times in one process
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="usomat",
        description="Matousek-type unique sink orientations: build, check, realize, benchmark.",
    )
    parser.add_argument("--version", action="version", version=f"usomat {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    families = ", ".join(sorted(FAMILIES))

    def graph_source(p: argparse.ArgumentParser) -> None:
        p.add_argument("graph", nargs="?", help="influence graph JSON file ('-' for stdin)")
        p.add_argument("--family", help=f"built-in graph family ({families})")
        p.add_argument("--n", type=int, help="cube dimension for --family")

    p = sub.add_parser("build", help="construct the orientation of an influence graph")
    graph_source(p)
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(handler=cmd_build)

    p = sub.add_parser("check", help="inspect an orientation table")
    p.add_argument("orientation", help="orientation JSON file ('-' for stdin)")
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser("realize", help="synthesize extension and LCP data for a graph")
    graph_source(p)
    p.add_argument("--out", help="output prefix: writes PREFIX.ext.json and PREFIX.plcp.json")
    p.set_defaults(handler=cmd_realize)

    p = sub.add_parser("bench", help="Random Facet evaluation statistics as CSV")
    p.add_argument("--family", required=True, help=f"built-in graph family ({families})")
    p.add_argument(
        "--n",
        required=True,
        help=f"cube sizes, each in 1..{MAX_ROW_DIMENSION}: '8', '4,8,12' or '4..12' "
        "(the orientations stay in row form and build no 2^n table)",
    )
    p.add_argument("--trials", type=int, default=1000, help="runs per cube size (default 1000)")
    p.add_argument("--seed", type=int, default=0, help="RNG seed, recorded in every row (default 0)")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(handler=cmd_bench)

    p = sub.add_parser("enumerate", help="exhaustive small-n construction/realizability sweep")
    p.add_argument("--n", type=int, required=True, help=f"cube dimension (1..{ENUMERATE_CAP})")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(handler=cmd_enumerate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    print(f"usomat {__version__}", file=sys.stderr)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
