"""Self-test of the benchmark, every workload at a tiny size.

    python3 perfbench/selftest.py

Checks, per workload, that an untraced run reports exactly the end-to-end
metrics BENCHMARK.json declares, with their units; that two traced runs on
one seed report the declared per-layer metrics and identical counts; and
that a deliberately corrupted program output is counted as a failure.  It
also checks that the benchmark refuses, without a result line, to run in a
tree that holds only BENCHMARK.json and perfbench/.  Exits non-zero on the
first broken check.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys

import run
import workloads

SEED = 0
# Tiny sizes: operations per list (via blocks) and per traced run.
workloads.FuzzPool.blocks = 1
workloads.FuzzPool.trace_ops = 2
workloads.CliDocs.blocks = 1
workloads.CliDocs.trace_ops = 8
workloads.AmpleScale.trace_ops = 3


def declared(kind: str) -> dict[str, str]:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def units(result: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def tiny_run(name: str, traced: bool, corrupt=None) -> dict:
    wl, keys, *setup = run.set_up(name, SEED, 1)
    if corrupt is not None:
        corrupt(wl)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return run.run_workload(wl, keys[:3], setup, 0.2, traced)


def corrupt_cli(wl) -> None:
    """Append one byte to everything the CLI prints."""
    main = wl.cli.main

    def bad_main(argv):
        code = main(argv)
        print(end=" ")
        return code

    wl.cli.main = bad_main


def corrupt_report(wl) -> None:
    """Add a note to every nef-threshold report."""
    check = wl.toricva.check_nef_threshold
    wl.toricva.check_nef_threshold = lambda inst: dataclasses.replace(
        check(inst), notes=("corrupted",)
    )


CORRUPTERS = {"fuzz-pool": corrupt_report, "ample-scale": corrupt_cli, "cli-docs": corrupt_cli}


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest: FAILED: {what}")
    print(f"selftest: ok: {what}")


def check_bare_tree() -> None:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-docs", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "a tree without src/ exits non-zero and prints no result")


def main() -> int:
    if not run.use_tree():
        raise SystemExit("selftest: no toricva sources in this tree")
    end_to_end, per_layer = declared("end_to_end"), declared("per_layer")
    for name in sorted(workloads.WORKLOADS):
        plain = tiny_run(name, traced=False)
        expect(plain["correct"] and units(plain) == end_to_end,
               f"{name}: correct, every end-to-end metric with its unit")
        first, second = tiny_run(name, traced=True), tiny_run(name, traced=True)
        expect(first["correct"] and units(first) == per_layer,
               f"{name}: traced run reports every per-layer metric with its unit")
        counts = [
            {k: m["value"] for k, m in r["metrics"].items() if m["unit"] != "s"}
            for r in (first, second)
        ]
        expect(counts[0] == counts[1], f"{name}: two traced runs give identical counts")
        bad = tiny_run(name, traced=False, corrupt=CORRUPTERS[name])
        expect(not bad["correct"] and bad["failed"] == bad["attempted"],
               f"{name}: corrupted output counted as failed")
    check_bare_tree()
    return 0


if __name__ == "__main__":
    sys.exit(main())
