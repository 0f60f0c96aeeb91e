"""The benchmark's workloads: seeded operation lists, set-up and checked operations.

Each workload names its operations by string keys.  `draw(seed)` turns a
workload seed into the ordered key list a run cycles through, `prepare(keys)`
does the set-up those keys need (emitting input documents), and `run(key)`
performs one operation and returns a digest of its output plus a problem
message when the output is wrong on its face.  `universe()` lists every key
any seed can draw; golden.json holds a digest for each of them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

# Instance seeds a workload seed draws from: the acceptance suite's pools
# (dim-2 seeds 0..129, dim-3 seeds 0..29).  Drawing from a fixed pool keeps
# run-to-run spread across workload seeds small, and every drawable operation
# has a recorded digest.
UNIVERSE = {2: 130, 3: 30}
# One block of the acceptance suite's 130:30 proportion.  Operation lists are
# built from whole shuffled blocks, so any prefix of whole blocks keeps it.
BLOCK = {2: 13, 3: 3}
# The CLI's default for `verify interior-bound --interior-bound`.
INTERIOR_BOUND = 5
# Documents are written here, relative to the repository root, and CLI
# output names them by this path, so the path is part of each digest.
DOC_DIR = "perfbench/out/docs"


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _rational(x):
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _seeded(seed: int, name: str) -> random.Random:
    return random.Random(f"perfbench:{name}:{seed}")


def _draw_instances(rng: random.Random, blocks: int) -> list[tuple[int, int]]:
    """`blocks` shuffled blocks of distinct (dim, instance seed) pairs."""
    picks = {dim: rng.sample(range(UNIVERSE[dim]), BLOCK[dim] * blocks) for dim in BLOCK}
    out = []
    for b in range(blocks):
        block = [
            (dim, s) for dim in BLOCK for s in picks[dim][b * BLOCK[dim]:(b + 1) * BLOCK[dim]]
        ]
        rng.shuffle(block)
        out.extend(block)
    return out


def _all_instances() -> list[tuple[int, int]]:
    return [(dim, s) for dim in BLOCK for s in range(UNIVERSE[dim])]


def write_document(inst, path: str) -> None:
    """Write an instance as a CLI input document (the `examples --emit` format)."""
    doc = {
        "label": inst.label,
        "rank": inst.fan.rank,
        "rays": [list(r.coords) for r in inst.fan.rays],
        "max_cones": [list(c) for c in inst.fan.max_cones],
        "divisors": {
            "D": [_rational(c) for c in inst.d.coeffs],
            "Dprime": [_rational(c) for c in inst.dprime.coeffs],
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def call_cli(cli, argv: list[str]) -> tuple[int, str]:
    """Run the CLI in process; return its exit code and standard output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


def _cli_result(code: int, stdout: str) -> tuple[str, str | None]:
    problem = None if code == 0 else f"exit code {code}"
    return digest(f"{code}\n".encode() + stdout.encode("utf-8")), problem


class Workload:
    name = ""
    # Operations in a traced run, from the start of the list (None: all of
    # it).  A fixed count, so that two traced runs on one seed make identical
    # calls.
    trace_ops = None

    def __init__(self, toricva, cli):
        self.toricva = toricva
        self.cli = cli

    def draw(self, seed: int) -> list[str]:
        raise NotImplementedError

    def universe(self) -> list[str]:
        raise NotImplementedError

    def prepare(self, keys: list[str]) -> None:
        """Set-up for `keys`: nothing by default."""

    def run(self, key: str) -> tuple[str, str | None]:
        raise NotImplementedError


class FuzzPool(Workload):
    """All seven statements on one random instance per operation."""

    name = "fuzz-pool"
    blocks = 10  # the whole pool, in a seeded order
    trace_ops = 64

    def draw(self, seed):
        return [f"{d}/{s}" for d, s in _draw_instances(_seeded(seed, self.name), self.blocks)]

    def universe(self):
        return [f"{d}/{s}" for d, s in _all_instances()]

    def run(self, key):
        dim, seed = map(int, key.split("/"))
        tv = self.toricva
        inst = tv.random_instance(dim, seed)
        reports = [
            tv.check_generation(inst),
            tv.check_nef_excluding_pspace(inst),
            tv.check_nef_threshold(inst),
            tv.check_corner_containment(inst),
        ]
        for ci in range(len(inst.fan.max_cones)):
            reports.append(tv.check_wall_bound(inst, ci))
            reports.append(tv.check_interior_bound(inst, ci, INTERIOR_BOUND))
            reports.append(tv.check_nonregular_bound(inst, ci))
        records = [_report_record(r) for r in reports]
        failed = [f"{r[0]} on {r[1]}" for r in records if r[2] == "fail"]
        problem = "statement failed: " + ", ".join(failed) if failed else None
        return digest(json.dumps(records, separators=(",", ":")).encode()), problem


def _opt(x):
    return None if x is None else str(x)


def _report_record(rep) -> list:
    """Canonical form of a CheckReport: every field that reaches a user."""
    return [
        rep.statement,
        rep.label,
        rep.status,
        [[h.name, h.holds, h.detail] for h in rep.hypotheses],
        rep.conclusion,
        [[f.kind, f.index, f.message] for f in rep.failures],
        [
            [c.cone_index, _opt(c.t), _opt(c.m), _opt(c.lambda_min_dual), _opt(c.lambda_max_dual)]
            for c in rep.cone_data
        ],
        list(rep.notes),
    ]


# ROADMAP scaling series: the fan stays small while the lattice box of the
# shifted polytopes grows like t^n.  Short enough that a run covers at
# least four passes, so its slowest samples always come from the same
# documents.
SCALING_SERIES = (
    [f"ew_simplex({t})" for t in range(4, 17)]
    + [f"product_p1({a},{a})" for a in range(8, 33, 8)]
    + [f"intro_simplex_3d({t})" for t in range(2, 13, 2)]
    + [f"projective_space({n},{n + 1})" for n in range(2, 5)]
)


def _builtin_call(expr: str) -> tuple[str, tuple[int, ...]]:
    name, args = expr.rstrip(")").split("(")
    return name, tuple(int(a) for a in args.split(","))


def _doc_path(stem: str) -> str:
    return f"{DOC_DIR}/{stem}.json"


class AmpleScale(Workload):
    """`analyze --very-ample --json` on the builtin scaling series."""

    name = "ample-scale"

    def draw(self, seed):
        keys = list(SCALING_SERIES)
        _seeded(seed, self.name).shuffle(keys)
        return keys

    def universe(self):
        return list(SCALING_SERIES)

    @staticmethod
    def _stem(key):
        return "".join(c if c.isalnum() else "_" for c in key).strip("_")

    def prepare(self, keys):
        Path(DOC_DIR).mkdir(parents=True, exist_ok=True)
        for key in sorted(set(keys)):
            write_document(self.toricva.builtin(*_builtin_call(key)), _doc_path(self._stem(key)))

    def run(self, key):
        return _cli_result(
            *call_cli(self.cli, ["analyze", _doc_path(self._stem(key)), "--very-ample", "--json"])
        )


CLI_COMMANDS = {
    "analyze": lambda doc: ["analyze", doc, "--json"],
    "nef-sharp": lambda doc: ["verify", "nef-sharp", doc, "--json"],
    "wall-bound": lambda doc: ["verify", "wall-bound", doc, "--json"],
    "hilbert": lambda doc: ["hilbert", doc, "--sigma", "0", "--d", "D", "--json"],
}


class CliDocs(Workload):
    """One CLI command per operation on documents of random instances."""

    name = "cli-docs"
    blocks = 8

    def draw(self, seed):
        rng = _seeded(seed, self.name)
        keys = [
            f"{cmd}/{d}/{s}" for d, s in _draw_instances(rng, self.blocks) for cmd in CLI_COMMANDS
        ]
        rng.shuffle(keys)
        return keys

    def universe(self):
        return [f"{cmd}/{d}/{s}" for d, s in _all_instances() for cmd in CLI_COMMANDS]

    def prepare(self, keys):
        Path(DOC_DIR).mkdir(parents=True, exist_ok=True)
        for doc in sorted({key.split("/", 1)[1] for key in keys}):
            dim, seed = map(int, doc.split("/"))
            inst = self.toricva.random_instance(dim, seed)
            write_document(inst, _doc_path(f"random_{dim}_{seed}"))

    def run(self, key):
        cmd, dim, seed = key.split("/")
        argv = CLI_COMMANDS[cmd](_doc_path(f"random_{dim}_{seed}"))
        return _cli_result(*call_cli(self.cli, argv))


WORKLOADS = {w.name: w for w in (FuzzPool, AmpleScale, CliDocs)}
