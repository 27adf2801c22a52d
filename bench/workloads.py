"""The five benchmark workloads: inputs made from a seed, one pass, pinned checks.

Every workload is a closed loop with one caller: each operation starts
when the previous one has returned.  A workload object is built once per
process (that is its set-up: inputs generated, pinned outputs loaded) and
then ``run`` executes one pass, recording every operation it attempts and
every one that fails in a :class:`Tally`.  An operation fails on an
exception, a nonzero exit code, or output that differs from its check.

Library functions are always called through their module
(``matousek.build_matousek(...)``), never through names copied into this
file, so the tracer's rebinding reaches them.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
from dataclasses import dataclass, field
from itertools import permutations, product
from pathlib import Path
from typing import Callable, Optional

from usomat import cli, cube, matousek, matroid, plcp, realizability

# the package re-exports the function random_facet under the submodule's name
rf = importlib.import_module("usomat.random_facet")

PINS = Path(__file__).resolve().parent / "expected.json"
DEFAULT_SEED = 0  # goldens that depend on the seed are pinned for this one


@dataclass
class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def fail(self, units: int, reason: str) -> None:
        self.failed += units
        if len(self.reasons) < 10:
            self.reasons.append(reason)

    def check(self, units: int, label: str, op: Callable[[], Optional[str]]) -> None:
        """Run one operation; it returns None when its output checks out."""
        self.attempted += units
        try:
            reason = op()
        except Exception as exc:  # any error of the program is a failed operation
            reason = f"{type(exc).__name__}: {exc}"
        if reason is not None:
            self.fail(units, f"{label}: {reason}")


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``usomat.cli.main`` in-process, stdout captured; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 1
    return rc, out.getvalue()


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Realize:
    """``usomat realize`` per (family, n), then reload the LCP and certify M."""

    name = "realize"
    predicted = {"function": "plcp.solve_candidate"}

    def __init__(self, seed: int, tiny: bool, pins: dict) -> None:
        self.cases = [("path", 3), ("path", 4), ("star", 4)] if tiny else [
            ("path", 6), ("path", 8), ("path", 10), ("star", 10)
        ]
        self.digests = pins["digests"]

    def _one(self, family: str, n: int, scratch: Path) -> Optional[str]:
        prefix = scratch / f"{family}{n}"
        rc, out = run_cli(["realize", "--family", family, "--n", str(n), "--out", str(prefix)])
        if rc != 0:
            return f"exit code {rc}"
        if out.splitlines()[:1] != ["round-trip: exact match"]:
            return f"unexpected stdout {out[:80]!r}"
        ext_path = Path(f"{prefix}.ext.json")
        plcp_path = Path(f"{prefix}.plcp.json")
        want = self.digests[f"{family}-{n}"]
        if sha256(ext_path) != want["ext"]:
            return "extension JSON digest differs from the pinned one"
        if sha256(plcp_path) != want["plcp"]:
            return "PLCP JSON digest differs from the pinned one"
        inst = plcp.PLCPInstance.from_json_obj(json.loads(plcp_path.read_text(encoding="utf-8")))
        if not plcp.is_p_matrix(inst.M):
            return "reloaded M is not a P-matrix"
        return None

    def run(self, tally: Tally, scratch: Path) -> None:
        for family, n in self.cases:
            tally.check(1, f"realize {family} n={n}", lambda: self._one(family, n, scratch))


class RfTrials:
    """``usomat bench`` CSV: pinned at the default seed, repeatable at any seed."""

    name = "rf_trials"
    predicted = {"function": "random_facet.random_facet"}

    def __init__(self, seed: int, tiny: bool, pins: dict) -> None:
        self.seed = seed
        self.sizes = [4, 6] if tiny else [4, 8, 12]
        self.trials = 50 if tiny else 10000
        self.pinned = pins["csv_seed0"] if seed == DEFAULT_SEED else None
        self.first: Optional[str] = None  # the first pass's CSV, for later passes

    def _csv_problem(self, rc: int, csv: str) -> Optional[str]:
        if rc != 0:
            return f"exit code {rc}"
        if self.pinned is not None and csv != self.pinned:
            return "CSV differs from the pinned one"
        if self.first is not None and csv != self.first:
            return "CSV differs from the first pass"
        lines = csv.splitlines()
        if lines[:1] != ["family,n,trials,seed,mean,stddev,min,max"] or len(lines) != len(self.sizes) + 1:
            return f"unexpected CSV {csv[:80]!r}"
        return None

    def _row_problem(self, n: int, line: str) -> Optional[str]:
        cells = line.split(",")
        if len(cells) != 8:
            return f"row {line!r} has {len(cells)} cells"
        family, rn, trials, seed = cells[0], int(cells[1]), int(cells[2]), int(cells[3])
        mean, lo, hi = float(cells[4]), int(cells[6]), int(cells[7])
        if (family, rn, trials, seed) != ("path", n, self.trials, self.seed):
            return f"row {line!r} does not echo the run's parameters"
        # the antipodal start is n steps from the sink, and no run sees more than the cube
        if not n + 1 <= lo <= mean <= hi <= 1 << n:
            return f"row {line!r} breaks n+1 <= min <= mean <= max <= 2^n"
        return None

    def run(self, tally: Tally, scratch: Path) -> None:
        units = self.trials * len(self.sizes)
        argv = ["bench", "--family", "path", "--n", ",".join(map(str, self.sizes)),
                "--trials", str(self.trials), "--seed", str(self.seed)]
        # whole-CSV checks fail every trial; a row's invariants fail that row's trials
        rows: list[str] = []

        def whole() -> Optional[str]:
            rc, csv = run_cli(argv)
            problem = self._csv_problem(rc, csv)
            if problem is None:
                rows.extend(csv.splitlines()[1:])
                if self.first is None:
                    self.first = csv
            return problem

        tally.check(units, "bench", whole)
        for n, line in zip(self.sizes, rows):
            try:
                problem = self._row_problem(n, line)
            except ValueError as exc:
                problem = f"row {line!r} does not parse: {exc}"
            if problem is not None:
                tally.fail(self.trials, f"bench n={n}: {problem}")


class Census:
    """``usomat enumerate``: every labeled DAG built, checked and classified."""

    name = "census"
    predicted = {"modules": ["cube", "matousek"]}

    def __init__(self, seed: int, tiny: bool, pins: dict) -> None:
        self.n = 3 if tiny else 5
        self.expected = pins["json"]

    def _one(self) -> Optional[str]:
        rc, out = run_cli(["enumerate", "--n", str(self.n)])
        if rc != 0:
            return f"exit code {rc}"
        got = json.loads(out)
        return None if got == self.expected else f"got {got}"

    def run(self, tally: Tally, scratch: Path) -> None:
        tally.check(self.expected["dags"], f"enumerate n={self.n}", self._one)


def valid_extensions_q_last(n: int):
    """Every (order, F) with q last that meets the P-matroid conditions."""
    for perm in permutations(range(1, 2 * n + 1)):
        pos = {e: i for i, e in enumerate(perm)}
        choices = []
        for i in range(1, n + 1):
            a, b = sorted((pos[i], pos[i + n]))
            if ((b - a - 1) // 2) % 2 == 0:
                choices.append(({i}, {i + n}))
            else:
                choices.append((set(), {i, i + n}))
        probe = matroid.CyclicExtension(n, perm + (matroid.Q,), set().union(*(c[1] for c in choices)))
        if not matroid.validate_conditions(probe):
            continue  # pair intervals cross; no flip set can repair that
        for picks in product(*choices):
            yield matroid.CyclicExtension(n, perm + (matroid.Q,), set().union(*picks))


def random_branching(n: int, rng: random.Random) -> realizability.Branching:
    """A forest on 1..n: each vertex in a shuffled order hangs below an earlier one or is a root."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    parent = {}
    for k in range(1, n):
        j = rng.randrange(k + 1)
        if j < k:
            parent[order[k]] = order[j]
    return realizability.Branching(n, parent)


class QWalk:
    """Move q from back to front; every step must be the predicted facet flip."""

    name = "qwalk"
    predicted = {"function": "matroid.extension_to_uso"}

    def __init__(self, seed: int, tiny: bool, pins: dict) -> None:
        small, big, count = (2, 4, 3) if tiny else (3, 8, 40)
        rng = random.Random(seed)
        self.extensions = list(valid_extensions_q_last(small)) + [
            realizability.synthesize_extension(random_branching(big, rng)) for _ in range(count)
        ]
        self.expected = pins["counts"]

    def _walk(self, ext: matroid.CyclicExtension) -> Optional[str]:
        uso = matroid.extension_to_uso(ext)
        while ext.order[0] != matroid.Q:
            ext, dim, upper = matroid.push_q_left(ext)
            predicted = matousek.flip_facet(uso, dim, upper)
            uso = matroid.extension_to_uso(ext)
            self.steps += 1
            if uso != predicted:
                return f"moving q to position {ext.position[matroid.Q]} of {ext.order} is not the predicted flip"
        return None

    def run(self, tally: Tally, scratch: Path) -> None:
        self.steps = 0
        for ext in self.extensions:
            tally.check(1, "qwalk", lambda: self._walk(ext))
        counts = {"walks": len(self.extensions), "steps": self.steps}
        if counts != self.expected:
            # a miscount cannot be pinned on one walk, so the pass fails as a whole
            tally.fail(len(self.extensions), f"qwalk: counted {counts}; pinned {self.expected}")


class BigTables:
    """Huge tables through cube and matousek, then ``build`` and ``check`` via JSON."""

    name = "big_tables"
    predicted = {"modules": ["matousek", "cube"]}

    def __init__(self, seed: int, tiny: bool, pins: dict) -> None:
        self.cases = [("path", 8), ("merged", 7)] if tiny else [("path", 20), ("merged", 18)]
        self.graphs = {key: rf.FAMILIES[key[0]](key[1]) for key in self.cases}
        self.cli_n = 5 if tiny else 13
        self.build_digest = pins["build_sha256"]
        self.check_stdout = pins["check_stdout"]

    def _pipeline(self, g: matousek.InfluenceGraph) -> Optional[str]:
        o = matousek.build_matousek(g)
        if not cube.check_orientation(o):
            return "built table is not edge-consistent"
        if matousek.extract_influence_graph(o) != g:
            return "extracted graph differs from the input"
        if cube.global_sink(o) != 0:
            return "sink is not the empty vertex"
        for s in range(3):
            if rf.random_facet(o, seed=s).sink != 0:
                return f"random_facet seed {s} missed the sink"
        return None

    def _build(self, path: Path) -> Optional[str]:
        rc, _ = run_cli(["build", "--family", "path", "--n", str(self.cli_n), "--out", str(path)])
        if rc != 0:
            return f"exit code {rc}"
        return None if sha256(path) == self.build_digest else "orientation JSON digest differs"

    def _check(self, path: Path) -> Optional[str]:
        rc, out = run_cli(["check", str(path)])
        if rc != 0:
            return f"exit code {rc}"
        return None if out == self.check_stdout else f"stdout {out[:80]!r} differs from the pinned one"

    def run(self, tally: Tally, scratch: Path) -> None:
        for (family, n), g in self.graphs.items():
            tally.check(1, f"tables {family} n={n}", lambda: self._pipeline(g))
        path = scratch / f"path{self.cli_n}.json"
        tally.check(1, f"build path n={self.cli_n}", lambda: self._build(path))
        tally.check(1, f"check path n={self.cli_n}", lambda: self._check(path))


WORKLOADS = {w.name: w for w in (Realize, RfTrials, Census, QWalk, BigTables)}


def load_pins(tiny: bool) -> dict:
    return json.loads(PINS.read_text(encoding="utf-8"))["tiny" if tiny else "full"]


def make(name: str, seed: int, tiny: bool, pins: Optional[dict] = None):
    """Set up one workload: generate its inputs and load its pinned outputs."""
    pins = load_pins(tiny) if pins is None else pins
    return WORKLOADS[name](seed, tiny, pins[name])
