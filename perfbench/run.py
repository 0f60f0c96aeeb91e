"""Benchmark toricva on one workload: closed loop, one client, one process.

    python3 perfbench/run.py --workload fuzz-pool --seed 0 --seconds 30 --trace 0

The script finds the source tree from its own path and imports toricva from
its `src/`.  With `--trace 0` the operations run back to back for
`--seconds` of operation time at reference speed (see speed.py) and the
end-to-end metrics are printed, times at reference speed with wall times
beside them.  With
`--trace 1` a fixed number of operations runs once unwrapped and once with
every layer's public functions wrapped in spans, and the per-layer metrics
are printed.  Every operation's output is checked against golden.json.  The
last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the exit code is 0 only when every
output was correct.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# An untraced run sets up at least this many times, and more until this
# much set-up time has passed; the median set-up time is reported.
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
# Operation time between two host-speed probes.
WINDOW_S = 0.5

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def import_toricva():
    """Import the package afresh from this tree's src/."""
    for name in [n for n in sys.modules if n == "toricva" or n.startswith("toricva.")]:
        del sys.modules[name]
    toricva = importlib.import_module("toricva")
    if Path(toricva.__file__).resolve().parent != ROOT / "src" / "toricva":
        raise ImportError(f"imported toricva from {toricva.__file__}, not from this tree")
    return toricva, importlib.import_module("toricva.cli")


def set_up(name: str, seed: int, repeats: int, min_s: float = 0.0):
    """Import, draw the operation list and emit its inputs: `repeats` times,
    and more until `min_s` seconds have passed.  Returns the workload, its
    operation list, and the median set-up time at reference speed and wall."""
    scaled, wall = [], []
    before = speed.probe()
    while len(wall) < repeats or sum(wall) < min_s:
        gc.collect()  # free the previous import, so memory stays flat
        t0 = time.perf_counter()
        wl = workloads.WORKLOADS[name](*import_toricva())
        keys = wl.draw(seed)
        wl.prepare(keys)
        wall.append(time.perf_counter() - t0)
        after = speed.probe()
        scaled.append(wall[-1] * speed.factor(before, after))
        before = after
    gc.collect()
    return wl, keys, statistics.median(scaled), statistics.median(wall)


class Checker:
    """Runs operations and counts those whose output is wrong."""

    def __init__(self, wl, golden: dict[str, str]):
        self.wl = wl
        self.golden = golden
        self.attempted = 0
        self.problems: list[str] = []

    def __call__(self, key: str, run=None) -> None:
        self.attempted += 1
        try:
            got, problem = (run or self.wl.run)(key)
        except Exception as exc:  # an operation that raises is a failed operation
            problem = f"raised {type(exc).__name__}: {exc}"
        else:
            want = self.golden.get(key)
            if problem is None and got != want:
                problem = f"output digest {got} differs from recorded {want}"
        if problem is not None:
            self.problems.append(f"{key}: {problem}")


def closed_loop(check: Checker, keys: list[str], seconds: float):
    """Run operations back to back until `seconds` of operation time at
    reference speed have passed, so that a run does the same work however
    fast the host is.  Returns each operation's wall time and its time at
    reference speed, from host-speed probes between windows of WINDOW_S."""
    wall, scaled, window = [], [], []
    before = speed.probe()
    f = speed.factor(before, before)  # estimate for the open window
    done = window_s = 0.0
    window_end = time.perf_counter() + WINDOW_S
    while done + window_s * f < seconds:
        t0 = time.perf_counter()
        check(keys[(len(wall) + len(window)) % len(keys)])
        t1 = time.perf_counter()
        window.append(t1 - t0)
        window_s += t1 - t0
        if t1 >= window_end or done + window_s * f >= seconds:
            after = speed.probe()
            f = speed.factor(before, after)
            wall.extend(window)
            scaled.extend(dt * f for dt in window)
            done += window_s * f
            window.clear()
            window_s = 0.0
            before = after
            window_end = time.perf_counter() + WINDOW_S
    return wall, scaled


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Value, percentile and samples beyond, for the highest percentile with
    at least ten samples beyond it (the maximum when there are too few)."""
    s = sorted(latencies)
    n = len(s)
    rank = n - 10 if n > 10 else n
    return s[rank - 1], 100.0 * rank / n, n - rank


def _e2e(latencies: list[float], setup_s: float) -> tuple[dict[str, float], str]:
    tail_s, tail_pct, beyond = tail(latencies)
    values = {
        "ops_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": 1000 * statistics.median(latencies),
        "latency_tail_ms": 1000 * tail_s,
        "setup_s": setup_s,
    }
    return values, f"p{tail_pct:.1f}, {beyond} of {len(latencies)} samples beyond"


def measure(wl, keys, setup, check: Checker, seconds: float) -> dict[str, float]:
    wall, scaled = closed_loop(check, keys, seconds)
    values, tail_note = _e2e(scaled, setup[0])
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    walls, _ = _e2e(wall, setup[1])
    print(f"workload {wl.name}: closed loop, 1 client, {len(wall)} operations in "
          f"{sum(wall):.2f} s; host at {sum(scaled) / sum(wall):.2f} of reference speed")
    for name, unit in END_TO_END.items():
        note = f"  wall {walls[name]:.4f}" if name in walls else ""
        if name == "latency_tail_ms":
            note += f"  ({tail_note})"
        print(f"  {name:<16} {values[name]:12.4f} {unit}{note}")
    failed = len(check.problems)
    print(f"  {'fail_ratio':<16} {failed / check.attempted:12.4f} ratio  ({failed} of {check.attempted})")
    return values


def trace(wl, keys, check: Checker, path: Path) -> dict[str, float]:
    """Run each operation unwrapped, then wrapped; the time difference is the
    tracing overhead, and interleaving keeps drift out of it."""
    count = wl.trace_ops or len(keys)
    ops = [keys[i % len(keys)] for i in range(count)]
    tracer = tracing.Tracer()
    root = tracer.wrap(wl.run, tracing.ROOT)
    untraced_s = traced_s = 0.0
    for key in ops:
        t0 = time.perf_counter()
        check(key)
        t1 = time.perf_counter()
        tracer.install()
        try:
            check(key, root)
        finally:
            tracer.uninstall()
        t2 = time.perf_counter()
        untraced_s += t1 - t0
        traced_s += t2 - t1
    if tracer.missing:
        print(f"not traced (missing): {', '.join(tracer.missing)}", file=sys.stderr)
    values = tracer.metrics(traced_s - untraced_s)
    tracer.write(path)
    print(f"workload {wl.name}: {len(ops)} operations, {untraced_s:.2f} s untraced, "
          f"{traced_s:.2f} s traced, {len(tracer.spans)} spans in {path.relative_to(ROOT)}")
    for name, (unit, _) in tracing.METRICS.items():
        print(f"  {name:<40} {values[name]:14.6g} {unit}")
    return values


def use_tree() -> bool:
    """Work from the root of this source tree and import toricva from its src/."""
    if not (ROOT / "src" / "toricva" / "__init__.py").is_file():
        return False
    os.chdir(ROOT)
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    return True


def run_workload(wl, keys, setup: list[float], seconds: float, traced: bool) -> dict:
    """Measure one set-up workload and return the result object."""
    with open(HERE / "golden.json", encoding="utf-8") as fh:
        check = Checker(wl, json.load(fh)[wl.name])
    if traced:
        values = trace(wl, keys, check, OUT / f"trace-{wl.name}.jsonl")
        units = {name: unit for name, (unit, _) in tracing.METRICS.items()}
    else:
        values = measure(wl, keys, setup, check, seconds)
        units = END_TO_END
    for problem in check.problems[:10]:
        print(f"failed: {problem}", file=sys.stderr)
    return {
        "correct": not check.problems,
        "attempted": check.attempted,
        "failed": len(check.problems),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not use_tree():
        print(f"run.py: no toricva sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.trace:
        wl, keys, *setup = set_up(args.workload, args.seed, 1)
    else:
        wl, keys, *setup = set_up(args.workload, args.seed, SETUP_REPEATS, SETUP_MIN_S)
    result = run_workload(wl, keys, setup, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
