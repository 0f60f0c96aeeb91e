"""Record golden.json: the output digest of every operation any seed can draw.

    python3 perfbench/record_golden.py [WORKLOAD ...]

Rewrites the entries of the named workloads (all by default) from the
current sources.  It refuses to record an operation that fails its own
checks.  Re-record only for a change whose output difference is intended
and explained; a digest change is what the benchmark reports as a failure.
"""

from __future__ import annotations

import json
import sys

from run import HERE, import_toricva, use_tree
from workloads import WORKLOADS


def record(name: str) -> dict[str, str]:
    wl = WORKLOADS[name](*import_toricva())
    keys = wl.universe()
    wl.prepare(keys)
    digests = {}
    for key in keys:
        got, problem = wl.run(key)
        if problem is not None:
            raise SystemExit(f"{name} {key}: {problem}; nothing recorded")
        digests[key] = got
    return digests


def main(argv: list[str]) -> int:
    if not use_tree():
        raise SystemExit("record_golden.py: no toricva sources in this tree")
    path = HERE / "golden.json"
    golden = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    for name in argv or sorted(WORKLOADS):
        golden[name] = record(name)
        print(f"{name}: {len(golden[name])} digests")
    path.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
