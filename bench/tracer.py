"""Outside-in span tracer for the usomat layers.

The tracer wraps public functions of the package from the outside: no
program file changes.  Because ``from .x import f`` copies the function
object into the importing module at import time, wrapping ``x.f`` alone
would miss calls made through those copies, so every ``usomat`` module
attribute bound to the original object is rebound to the wrapper (for
example ``usomat.cli.plcp_to_uso`` as well as ``usomat.plcp.plcp_to_uso``).
Methods are wrapped on their class.

Each call becomes a span (name, start, end, parent id) kept in memory;
self time is a span's duration minus the durations of its direct child
spans, computed once when the pass is over.  A few exact counts ride on
the same wrappers.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable

# layer module -> traced public names; "Class.method" names a method
TRACED: dict[str, tuple[str, ...]] = {
    "cube": ("is_uso", "check_orientation", "global_sink", "apply_isomorphism"),
    "matousek": ("build_matousek", "extract_influence_graph", "canonicalize", "flip_facet"),
    "realizability": ("find_forbidden", "is_branching_closure", "synthesize_extension"),
    "matroid": ("extension_to_uso", "push_q_left", "validate_conditions"),
    "plcp": (
        "realization_matrix",
        "translate_to_plcp",
        "plcp_to_uso",
        "solve_candidate",
        "is_p_matrix",
        "RationalMatrix.det",
    ),
    "random_facet": ("random_facet", "run_trials"),
    "enumeration": ("all_dags",),
    "cli": ("main",),
}

# spans whose only reported figure is self time (the CLI's own parsing and JSON I/O)
SELF_ONLY = ("cli.main",)

COUNTS = (
    "random_facet.evaluations",
    "random_facet.evaluations_per_trial",
    "plcp.linear_solves",
    "plcp.determinants",
    "cube.is_uso.pairs",
    "cube.Orientation.entries",
)


def span_names() -> list[str]:
    return [f"{module}.{name}" for module, names in TRACED.items() for name in names]


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced pass reports, with its unit."""
    units: dict[str, str] = {}
    for name in span_names():
        if name in SELF_ONLY:
            units[f"{name}.self_s"] = "s"
            continue
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.total_s"] = "s"
    for name in COUNTS:
        units[name] = "count/trial" if name.endswith("_per_trial") else "count"
    units["trace.overhead_ratio"] = "ratio"
    return units


def _usomat_modules() -> list[object]:
    return [
        mod
        for key, mod in list(sys.modules.items())
        if mod is not None and (key == "usomat" or key.startswith("usomat."))
    ]


class Tracer:
    """Installs span wrappers, records spans, and reduces them to metrics."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> tuple[int, float]:
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent))
        self._stack.append(span_id)
        return span_id, perf_counter()

    def _close(self, span_id: int, start: float) -> None:
        end = perf_counter()
        self._stack.pop()
        name, _, _, parent = self.spans[span_id]
        self.spans[span_id] = (name, start, end, parent)

    def _span_wrapper(self, name: str, fn: Callable, on_call: Callable | None) -> Callable:
        if inspect.isgeneratorfunction(fn):
            # one span per resume of the generator, so consumer time is excluded
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    span_id, start = self._open(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self._close(span_id, start)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id, start = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span_id, start)
            if on_call is not None:
                on_call(args, result)
            return result

        return wrapper

    def _count_wrapper(self, fn: Callable, on_call: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            on_call(args, result)
            return result

        return wrapper

    # -- installing --------------------------------------------------------

    def _rebind(self, original: object, replacement: object) -> None:
        for mod in _usomat_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def _patch_method(self, owner: type, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = owner.__dict__[attr]
        setattr(owner, attr, make(original))
        self._undo.append((owner, attr, original))

    def install(self) -> None:
        """Wrap every traced name in every usomat module that binds it."""
        counts = self.counts

        def rf_done(args, result) -> None:
            counts["random_facet.evaluations"] += result.evaluations

        def uso_checked(args, result) -> None:
            counts["cube.is_uso.pairs"] += 4 ** args[0].n

        def solved(args, result) -> None:
            counts["plcp.linear_solves"] += 1

        def table_built(args, result) -> None:
            counts["cube.Orientation.entries"] += 1 << args[0].n

        hooks = {"random_facet.random_facet": rf_done, "cube.is_uso": uso_checked}
        for module, names in TRACED.items():
            mod = sys.modules.get(f"usomat.{module}")
            for name in names:
                full = f"{module}.{name}"
                owner_name, _, attr = name.rpartition(".")
                owner = getattr(mod, owner_name, None) if owner_name else mod
                if owner is None or not hasattr(owner, attr):
                    self.missing.append(full)
                elif owner_name:
                    self._patch_method(owner, attr, lambda fn, full=full: self._span_wrapper(full, fn, None))
                else:
                    original = getattr(owner, attr)
                    self._rebind(original, self._span_wrapper(full, original, hooks.get(full)))

        plcp = sys.modules["usomat.plcp"]
        cube = sys.modules["usomat.cube"]
        self._patch_method(plcp.RationalMatrix, "solve_matrix", lambda fn: self._count_wrapper(fn, solved))
        self._patch_method(cube.Orientation, "__post_init__", lambda fn: self._count_wrapper(fn, table_built))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reducing ------------------------------------------------------------

    def per_name(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, self seconds, total seconds) over all recorded spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: [0, 0.0, 0.0] for name in span_names()}
        for (name, start, end, _), inner in zip(self.spans, child):
            row = out[name]
            row[0] += 1
            row[1] += end - start - inner
            row[2] += end - start
        return {name: tuple(row) for name, row in out.items()}

    def top_level_seconds(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def metrics(self, overhead_ratio: float) -> dict[str, float | int]:
        stats = self.per_name()
        values: dict[str, float | int] = {}
        for name, (calls, self_s, total_s) in stats.items():
            if name in SELF_ONLY:
                values[f"{name}.self_s"] = self_s
                continue
            values[f"{name}.calls"] = calls
            values[f"{name}.self_s"] = self_s
            values[f"{name}.total_s"] = total_s
        trials = stats["random_facet.random_facet"][0]
        values["random_facet.evaluations"] = self.counts["random_facet.evaluations"]
        values["random_facet.evaluations_per_trial"] = (
            self.counts["random_facet.evaluations"] / trials if trials else 0.0
        )
        values["plcp.linear_solves"] = self.counts["plcp.linear_solves"]
        values["plcp.determinants"] = stats["plcp.RationalMatrix.det"][0]
        values["cube.is_uso.pairs"] = self.counts["cube.is_uso.pairs"]
        values["cube.Orientation.entries"] = self.counts["cube.Orientation.entries"]
        values["trace.overhead_ratio"] = overhead_ratio
        return values

    def write(self, path: Path, extra: dict) -> None:
        """Dump every span, relative to the first one, plus run details."""
        names = span_names()
        index = {name: i for i, name in enumerate(names)}
        origin = self.spans[0][1] if self.spans else 0.0
        doc = dict(extra)
        doc["span_names"] = names
        doc["span_fields"] = ["name", "start_s", "end_s", "parent"]
        doc["spans"] = [
            [index[name], start - origin, end - origin, parent]
            for name, start, end, parent in self.spans
        ]
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")
