"""Self-test of the benchmark itself; run from the checkout root:

    python3 bench/selftest.py

1. A tiny pass of every workload, traced and untraced, prints a result
   whose metric names and units are exactly those BENCHMARK.json declares.
2. Corrupting any single pinned output makes the workload report failed
   operations, so no check is vacuous.
3. In a directory holding only BENCHMARK.json and bench/, the benchmark
   exits nonzero without printing a result.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
RUN = [sys.executable, str(BENCH_DIR / "run.py")]

sys.path.insert(0, str(ROOT / "src"))
import workloads  # noqa: E402  (needs the checkout's src/ on the path)

problems: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        problems.append(what)


def declared(spec: dict, key: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec[key]}


def check_metric_names(spec: dict) -> None:
    names = [w["name"] for w in spec["workloads"]]
    expect(names == list(workloads.WORKLOADS), f"declared workloads {names} are the implemented ones")
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                RUN + ["--workload", w["name"], "--seed", "1", "--seconds", "1",
                       "--trace", str(trace), "--tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=180,
            )
            label = f"{w['name']} --trace {trace}"
            if proc.returncode != 0:
                expect(False, f"{label}: exit code {proc.returncode}: {proc.stderr[-300:]}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{label}: result has exactly the four keys")
            expect(got == declared(spec, key), f"{label}: metrics are exactly the declared {key}")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{label}: {result['attempted']} attempted, {result['failed']} failed")


def leaves(obj, path=()):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from leaves(value, path + (key,))
    else:
        yield path


def corrupted(pins: dict, path: tuple) -> dict:
    out = copy.deepcopy(pins)
    holder = out
    for key in path[:-1]:
        holder = holder[key]
    value = holder[path[-1]]
    if isinstance(value, str):
        holder[path[-1]] = value[:-1] + ("0" if value[-1:] != "0" else "1")
    else:
        holder[path[-1]] = value + 1
    return out


def check_corruption_is_caught() -> None:
    pins = workloads.load_pins(tiny=True)
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as scratch:
        for name in workloads.WORKLOADS:
            for path in leaves(pins[name]):
                bad = corrupted(pins, (name,) + path)
                workload = workloads.make(name, workloads.DEFAULT_SEED, True, bad)
                tally = workloads.Tally()
                workload.run(tally, Path(scratch))
                expect(tally.failed > 0,
                       f"{name}: corrupt pin {'/'.join(path)} gives fail ratio "
                       f"{tally.failed}/{tally.attempted}")


def check_bare_directory_fails() -> None:
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, Path(bare) / BENCH_DIR.name, ignore=shutil.ignore_patterns("out"))
        proc = subprocess.run(
            [sys.executable, str(Path(bare) / BENCH_DIR.name / "run.py"), "--workload", "realize",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               f"without src/ the benchmark exits {proc.returncode} and prints no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_metric_names(spec)
    check_corruption_is_caught()
    check_bare_directory_fails()
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
