"""Benchmark of usomat's user paths: one workload per process, one caller.

Run from the root of a source checkout:

    python3 bench/run.py --workload realize --seed 0 --seconds 22 --trace 0

With ``--trace 0`` it times whole passes of the workload for about
``--seconds`` seconds (at least two passes) and reports the end-to-end
metrics; with ``--trace 1`` it runs one untraced and one traced pass and
reports the per-layer metrics.  The last line of stdout is the result
object; the line before it holds run details and the environment.
``--tiny`` shrinks every workload to seconds for ``bench/selftest.py``.
"""

from __future__ import annotations

import os

# one thread for numeric libraries, set before numpy can be imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import Tracer, metric_units

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

MIN_PASSES = 2
SETUP_BEFORE = 5  # set-up processes timed before the first pass; one more follows each pass
REF_DIMS = tuple(1 << d for d in range(10))
REF_INTERVAL_S = 0.05  # wall time between reference samples inside a pass (each about 0.5 ms)
REF_BRACKET = 5  # reference samples right before and right after each pass


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=22.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="seconds-sized inputs for the self-test")
    p.add_argument("--setup-only", action="store_true",
                   help="set the workload up and exit; the parent times this to get setup_s")
    return p.parse_args(argv)


def import_program():
    """Import usomat from this checkout's src/ and nowhere else."""
    if not (SRC / "usomat" / "__init__.py").is_file():
        raise SystemExit(f"error: no usomat sources at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import usomat

    if Path(usomat.__file__).resolve().parent != SRC / "usomat":
        raise SystemExit(f"error: imported usomat from {usomat.__file__}, not from {SRC}")
    import workloads

    return workloads


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(numpy_version: str) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "loadavg_start": list(os.getloadavg()),
    }


def setup_command(args: argparse.Namespace) -> list[str]:
    return [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])


def time_setup(cmd: list[str]) -> float:
    """Wall time of one fresh process that starts, imports and sets the workload up."""
    start = time.perf_counter()
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - start


def _ref_recurse(span: tuple[int, ...], v: int, seen: dict) -> int:
    """A Random-Facet-shaped recursion over bit dimensions; touches no usomat code."""
    if not span:
        seen[v] = v
        return v
    mid = len(span) // 2
    rest = span[:mid] + span[mid + 1 :]
    w = _ref_recurse(rest, v, seen)
    return _ref_recurse(rest, w ^ span[mid], seen) if w & span[mid] else w


def reference_kernel() -> float:
    """Seconds for a fixed mix of pure-Python work: a probe of how fast the machine runs now.

    Integer arithmetic, small allocations and recursive calls each slow down
    differently when other tenants load the host; their sum tracks the
    workloads better than any one of them.  It calls no usomat code, so a
    change to the program cannot move it.
    """
    start = time.perf_counter()
    s = 0
    for i in range(2000):
        s += i * i % 7
    held = [(i, i + 1, {i: (i,)}) for i in range(700)]
    for k in range(10):
        _ref_recurse(REF_DIMS, 1023 - k, {})
    del held
    return time.perf_counter() - start


class SpeedProbe:
    """Reference-kernel samples around a pass and, if armed, every REF_INTERVAL_S inside it.

    Inside a pass the kernel runs from a SIGALRM handler, so it samples the
    machine's speed at the same moments and on the same thread as the work.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame) -> None:
        self.samples.append(reference_kernel())

    def bracket(self) -> None:
        self.samples.extend(reference_kernel() for _ in range(REF_BRACKET))

    def arm(self, on: bool) -> None:
        interval = REF_INTERVAL_S if on else 0.0
        signal.setitimer(signal.ITIMER_REAL, interval, interval)


def timed_pass(
    workload, tally, scratch: Path, probe: SpeedProbe, sample_inside: bool
) -> tuple[float, float, float]:
    """Wall seconds, CPU seconds and the median reference-kernel seconds of one pass."""
    gc.collect()
    probe.samples = []
    probe.bracket()
    probe.arm(sample_inside)
    try:
        wall, cpu = time.perf_counter(), time.process_time()
        workload.run(tally, scratch)
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    finally:
        probe.arm(False)
    probe.bracket()
    return wall, cpu, statistics.median(probe.samples)


def measure(args, workload, tally, scratch: Path, details: dict) -> dict:
    # set-up processes run between passes too, so setup_s spans the run like the passes do
    cmd = setup_command(args)
    setups = [time_setup(cmd) for _ in range(SETUP_BEFORE)]
    probe = SpeedProbe()
    walls, cpus, refs = [], [], []
    start = time.perf_counter()
    while len(walls) < MIN_PASSES or time.perf_counter() - start + statistics.median(walls) <= args.seconds:
        wall, cpu, ref = timed_pass(workload, tally, scratch, probe, sample_inside=True)
        walls.append(wall)
        cpus.append(cpu)
        refs.append(ref)
        setups.append(time_setup(cmd))
    setup_s = statistics.median(setups)
    details.update(
        passes=len(walls),
        pass_setup_s=setups,
        wall_s=statistics.median(walls),
        cpu_s=statistics.median(cpus),
        pass_wall_s=walls,
        pass_cpu_s=cpus,
        pass_ref_s=refs,
    )
    return {
        "wall_ref": (statistics.median(w / r for w, r in zip(walls, refs)), "ref"),
        "cpu_ref": (statistics.median(c / r for c, r in zip(cpus, refs)), "ref"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def module_self_s(per_name: dict) -> dict[str, float]:
    by_module: dict[str, float] = {}
    for name, (_, self_s, _) in per_name.items():
        module = name.split(".", 1)[0]
        by_module[module] = by_module.get(module, 0.0) + self_s
    return by_module


def dominant(per_name: dict, by_module: dict, pass_s: float, predicted: dict) -> dict:
    """Largest self time by function and by module, against the workload's prediction."""
    function = max(per_name, key=lambda name: per_name[name][1])
    module = max(by_module, key=by_module.get)
    if "function" in predicted:
        confirmed = function == predicted["function"]
    else:
        confirmed = module in predicted["modules"]
    return {
        "function": function,
        "function_share": per_name[function][1] / pass_s,
        "module": module,
        "module_share": by_module[module] / pass_s,
        "predicted": predicted,
        "confirmed": confirmed,
    }


def trace(args, workload, tally, scratch: Path, details: dict) -> dict:
    # the probe samples only around these passes, so no kernel time lands in a span
    probe = SpeedProbe()
    untraced, _, untraced_ref = timed_pass(workload, tally, scratch, probe, sample_inside=False)
    tracer = Tracer()
    tracer.install()
    try:
        traced, _, traced_ref = timed_pass(workload, tally, scratch, probe, sample_inside=False)
    finally:
        tracer.uninstall()
    per_name = tracer.per_name()
    by_module = module_self_s(per_name)
    details.update(
        untraced_pass_s=untraced,
        traced_pass_s=traced,
        outside_spans_s=traced - tracer.top_level_seconds(),
        spans=len(tracer.spans),
        untraced_names=tracer.missing,
        per_module_self_s=by_module,
        dominant=dominant(per_name, by_module, traced, workload.predicted),
    )
    trace_path = OUT_DIR / f"trace-{args.workload}.json"
    details["trace_file"] = str(trace_path.relative_to(ROOT))
    tracer.write(trace_path, {"details": details})
    units = metric_units()
    values = tracer.metrics((traced / traced_ref) / (untraced / untraced_ref))
    return {name: (values[name], units[name]) for name in units}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    workloads = import_program()
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = workloads.make(args.workload, args.seed, args.tiny)
    if args.setup_only:
        return 0

    import numpy

    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "tiny": args.tiny, "environment": environment(numpy.__version__)}
    tally = workloads.Tally()
    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        run = trace if args.trace else measure
        metrics = run(args, workload, tally, scratch, details)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    details["environment"]["loadavg_end"] = list(os.getloadavg())
    details["fail_ratio"] = tally.failed / tally.attempted
    details["failures"] = tally.reasons
    print(json.dumps(details))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
