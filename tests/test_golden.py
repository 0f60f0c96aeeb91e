"""Replays a seeded sample of the benchmark's recorded outputs in process.

`perfbench/golden.json` holds a digest of every operation the benchmark's
workloads can draw: the reports of all seven statements on a pool instance,
or the exit code and standard output of one CLI command.  This test runs a
seeded sample of them through `perfbench/workloads.py` and asks for the
same digests, so any change in output bytes fails here.  It runs from a
temporary directory, where the workloads emit their documents under the
same relative paths the digests were recorded with, and it writes nothing
under `perfbench/`.
"""

import json
import random
import sys
from pathlib import Path

import toricva
from toricva import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SAMPLE = {"fuzz-pool": 16, "cli-docs": 32, "ample-scale": 6}


def test_seeded_golden_sample_is_reproduced(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    golden = json.loads((PERFBENCH / "golden.json").read_text(encoding="utf-8"))
    monkeypatch.chdir(tmp_path)
    rng = random.Random("toricva:golden-sample")
    for name, count in SAMPLE.items():
        wl = workloads.WORKLOADS[name](toricva, cli)
        keys = rng.sample(wl.universe(), count)
        wl.prepare(keys)
        for key in keys:
            got, problem = wl.run(key)
            assert problem is None, (name, key, problem)
            assert got == golden[name][key], (name, key)
