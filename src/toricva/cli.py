"""Command line front end.

Four subcommands:

  analyze    classify divisors from a JSON input file (Cartier, nef, ...)
  verify     run one named statement check on a file, builtin, or fuzz batch
  hilbert    print the Hilbert basis of one maximal cone's dual
  examples   list builtin instances or emit them as JSON input files

Input files describe a complete fan and named divisors:

  {"rank": 2,
   "rays": [[1, 1], [-1, 1], [0, -1]],
   "max_cones": [[0, 1], [1, 2], [0, 2]],
   "divisors": {"D": [1, 0, 0], "half": ["1/2", 0, 0]}}

Rational coefficients are integers or "p/q" strings; floats are rejected so
reports stay exact and byte-reproducible.  Reports are emitted as text or,
with --json, as canonical JSON (sorted keys, rationals as "p/q" strings).

Exit status: 0 when the run completed (negative verdicts included), 1 on bad
input, 2 when a verified statement was falsified or an internal invariant
broke.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from functools import cache
from pathlib import Path

from .cones import dual_cone
from .divisors import Divisor, NotQCartier, canonical_divisor, in_shifted_polytope
from .fans import Fan, build_fan
from .harness import (
    BUILTINS,
    STATEMENTS,
    CheckReport,
    ConeData,
    Instance,
    Statement,
    builtin,
    generation_scan,
    random_instance,
    random_label,
)
from .intersections import DivisorSolve, solve_divisor
from .linalg import N, vec
from .semigroups import hilbert_basis


class InputError(Exception):
    pass


@contextmanager
def _labelled(where: str):
    """Prefix `where` to an input error or a ValueError, raised as an input
    error, and to an internal RuntimeError."""
    try:
        yield
    except (InputError, ValueError) as exc:
        raise InputError(f"{where}: {exc}") from None
    except RuntimeError as exc:
        raise RuntimeError(f"{where}: {exc}") from None


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems on the input-error exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: input error: {message}\n")


def _enc_scalar(x):
    if type(x) is int:  # not bool, which encodes as 0 or 1
        return x
    f = x if type(x) is Fraction else Fraction(x)
    if f.denominator == 1:
        return f.numerator
    return f"{f.numerator}/{f.denominator}"


def _enc_vec(v):
    return [_enc_scalar(c) for c in v.coords]


def _enc_opt(x):
    return None if x is None else _enc_scalar(x)


def _parse_scalar(raw, where: str):
    if isinstance(raw, bool):
        raise InputError(f"{where}: expected a rational, got a boolean")
    if isinstance(raw, int):
        return raw
    if isinstance(raw, float):
        raise InputError(f"{where}: floats are not accepted, use an integer or 'p/q' string")
    if isinstance(raw, str):
        return _parse_rational(raw, where)
    raise InputError(f"{where}: expected a rational, got {type(raw).__name__}")


def _parse_rational(text: str, where: str):
    """An integer or "p/q" string.  Any other form is refused at once:
    Fraction also parses exponents such as "1e10000000", writing out every
    digit."""
    try:
        if not re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", text):
            raise ValueError
        f = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"{where}: {text!r} is not a rational") from None
    return int(f) if f.denominator == 1 else f


def _parse_int(raw, where: str) -> int:
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise InputError(f"{where}: expected an integer")
    return raw


def load_document(path: str) -> tuple[Fan, dict[str, Divisor]]:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from None
    except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
        raise InputError(f"{path}: invalid JSON: {exc}") from None
    with _labelled(path):
        if not isinstance(doc, dict):
            raise InputError("top level must be an object")
        for key in ("rank", "rays", "max_cones"):
            if key not in doc:
                raise InputError(f"missing key {key!r}")
        rank = _parse_int(doc["rank"], "rank")
        if rank < 2:
            raise InputError("rank must be at least 2")
        rays = []
        if not isinstance(doc["rays"], list):
            raise InputError("rays must be a list of integer vectors")
        for i, row in enumerate(doc["rays"]):
            if not isinstance(row, list) or len(row) != rank:
                raise InputError(f"rays[{i}]: expected a list of {rank} integers")
            rays.append(vec([_parse_int(x, f"rays[{i}]") for x in row], N))
        if not isinstance(doc["max_cones"], list):
            raise InputError("max_cones must be a list of index lists")
        cones = []
        for i, row in enumerate(doc["max_cones"]):
            if not isinstance(row, list):
                raise InputError(f"max_cones[{i}]: expected a list of ray indices")
            cones.append(tuple(_parse_int(x, f"max_cones[{i}]") for x in row))
        fan = build_fan(rays, cones, rank)
        divisors = {}
        raw_divs = doc.get("divisors", {})
        if not isinstance(raw_divs, dict):
            raise InputError("divisors must be an object mapping names to coefficient lists")
        for name, coeffs in raw_divs.items():
            if not isinstance(coeffs, list) or len(coeffs) != len(rays):
                raise InputError(
                    f"divisor {name!r}: expected {len(rays)} coefficients, one per ray"
                )
            divisors[name] = Divisor(
                tuple(_parse_scalar(c, f"divisor {name!r}") for c in coeffs)
            )
    return fan, divisors


def _named(divisors: dict[str, Divisor], name: str) -> tuple[str, Divisor]:
    if name not in divisors:
        known = ", ".join(sorted(divisors)) or "none"
        raise InputError(f"no divisor named {name!r} (available: {known})")
    return name, divisors[name]


def _pick_divisor(divisors: dict[str, Divisor], requested: str | None) -> tuple[str, Divisor]:
    """The base divisor defaults to 'D', or to the file's only divisor."""
    if requested is not None:
        return _named(divisors, requested)
    if "D" in divisors:
        return "D", divisors["D"]
    if len(divisors) == 1:
        return next(iter(divisors.items()))
    raise InputError("pass --d NAME: the file does not name a divisor 'D'")


def _pick_dprime(fan: Fan, divisors: dict[str, Divisor], requested: str | None):
    """The perturbation defaults to the canonical representative."""
    if requested is not None:
        return (*_named(divisors, requested), [])
    if "Dprime" in divisors:
        return "Dprime", divisors["Dprime"], []
    return (
        "canonical",
        canonical_divisor(fan),
        ["perturbation defaults to the canonical divisor; name one with --dprime"],
    )


def _builtin_from_expr(expr: str) -> Instance:
    m = re.fullmatch(r"\s*([a-z0-9_]+)\s*(?:\(([^()]*)\))?\s*", expr)
    if not m:
        raise InputError(f"cannot parse builtin expression {expr!r}")
    name, raw_args = m.group(1), m.group(2)
    args = ()
    if raw_args:
        try:
            args = tuple(int(a) for a in raw_args.split(","))
        except ValueError:
            raise InputError(f"builtin arguments must be integers: {expr!r}") from None
    with _labelled(expr.strip()):
        return builtin(name, args)


def _divisor_verdicts(fan: Fan, solved: DivisorSolve, want_very_ample: bool) -> dict:
    """Positivity verdicts of a divisor from its solve."""
    local = solved.local
    out = {"q_cartier": local is not None}
    if local is None:
        return out
    out["cartier"] = all(u.is_lattice for u in local)
    out["nef"] = solved.nef
    if out["cartier"]:
        out["basepoint_free"] = solved.nef
        if want_very_ample:
            out["very_ample"] = solved.nef and not generation_scan(fan, solved)
    return out


def _instance_json(fan: Fan) -> dict:
    return {
        "rank": fan.rank,
        "rays": [list(r.coords) for r in fan.rays],
        "max_cones": [list(c) for c in fan.max_cones],
    }


def _cone_json(cd: ConeData) -> dict:
    return {
        "index": cd.cone_index,
        "t": _enc_opt(cd.t),
        "m": _enc_opt(cd.m),
        "lambda_min": _enc_opt(cd.lambda_min_dual),
        "lambda_max": _enc_opt(cd.lambda_max_dual),
    }


def _cones_json(inst: Instance) -> list[dict]:
    solves = (("u_sigma", inst.d_solve), ("u_sigma_perturbation", inst.dprime_solve))
    rows = []
    for cd in inst.cone_data:
        row = _cone_json(cd)
        for key, solved in solves:
            if solved.local is not None:
                row[key] = _enc_vec(solved.local[cd.cone_index])
        rows.append(row)
    return rows


def _walls_json(inst: Instance) -> list[dict]:
    rows = []
    for wi, w in enumerate(inst.fan.walls):
        row = {"sigma": w.sigma, "tau": w.tau, "rays": list(w.rays)}
        for key, solved in (("value", inst.d_solve), ("combined_value", inst.total_solve)):
            if solved.local is not None:
                row[key] = _enc_scalar(solved.values[wi])
        rows.append(row)
    return rows


def _report_json(rep: CheckReport) -> dict:
    return {
        "statement": rep.statement,
        "label": rep.label,
        "status": rep.status,
        "applicable": rep.applicable,
        "conclusion": rep.conclusion,
        "hypotheses": [
            {"name": h.name, "holds": h.holds, "detail": h.detail}
            for h in rep.hypotheses
        ],
        "failures": [
            {"kind": f.kind, "index": f.index, "message": f.message}
            for f in rep.failures
        ],
        "cones": [_cone_json(cd) for cd in rep.cone_data],
        "notes": list(rep.notes),
    }


_ENCODE_STR = json.encoder.encode_basestring_ascii


def _encode(x, indent: str, parts: list) -> None:
    """Append the parts of json.dumps(x, sort_keys=True, indent=2), for x
    nested inside the given indent, to `parts`.  Only str, int, bool, None,
    list and dict (with str keys) occur in a report; anything else raises
    TypeError."""
    t = type(x)
    if t is str:
        parts.append(_ENCODE_STR(x))
    elif t is int:
        parts.append(repr(x))
    elif x is None or t is bool:
        parts.append("null" if x is None else "true" if x else "false")
    elif t is list:
        if not x:
            parts.append("[]")
            return
        inner = indent + "  "
        sep = "[\n" + inner
        for item in x:
            parts.append(sep)
            _encode(item, inner, parts)
            sep = ",\n" + inner
        parts.append("\n" + indent + "]")
    elif t is dict:
        if not x:
            parts.append("{}")
            return
        inner = indent + "  "
        sep = "{\n" + inner
        for key in sorted(x):
            if type(key) is not str:
                raise TypeError(f"report keys must be str, not {type(key).__name__}")
            parts.append(sep + _ENCODE_STR(key) + ": ")
            _encode(x[key], inner, parts)
            sep = ",\n" + inner
        parts.append("\n" + indent + "}")
    else:
        raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def _emit(doc: dict, out) -> None:
    """Write doc as json.dumps(doc, sort_keys=True, indent=2) would, and a
    newline: the same bytes from a smaller encoder, as json's indenting
    encoder is its slow pure-Python one."""
    parts: list[str] = []
    _encode(doc, "", parts)
    parts.append("\n")
    out.write("".join(parts))


def _fmt_verdicts(v: dict) -> str:
    order = ("q_cartier", "cartier", "nef", "basepoint_free", "very_ample")
    parts = []
    for key in order:
        if key in v:
            parts.append(f"{key.replace('_', ' ')} {'yes' if v[key] else 'no'}")
    return ", ".join(parts)


def cmd_analyze(args, out) -> int:
    fan, divisors = load_document(args.input)
    d_name, d = _pick_divisor(divisors, args.d)
    dp_name, dp, remarks = _pick_dprime(fan, divisors, args.dprime)
    inst = Instance(fan, d, dp, args.input)
    total = d + dp
    remarks.append("projectivity is not certified for hand-entered fans")
    with _labelled(args.input):
        doc = {
            "command": "analyze",
            "input": args.input,
            "instance": _instance_json(fan),
            "divisors": {
                "d": {"name": d_name, "coefficients": [_enc_scalar(c) for c in d.coeffs]},
                "perturbation": {
                    "name": dp_name,
                    "coefficients": [_enc_scalar(c) for c in dp.coeffs],
                },
                "combined": {"coefficients": [_enc_scalar(c) for c in total.coeffs]},
            },
            "verdicts": {
                "d": _divisor_verdicts(fan, inst.d_solve, args.very_ample),
                "perturbation": _divisor_verdicts(fan, inst.dprime_solve, False),
                "combined": _divisor_verdicts(fan, inst.total_solve, args.very_ample),
            },
            "cones": _cones_json(inst),
            "walls": _walls_json(inst),
            "remarks": remarks,
            "exit_status": 0,
        }
    if args.json:
        _emit(doc, out)
        return 0
    print(f"instance: {args.input} (rank {fan.rank}, {len(fan.rays)} rays, "
          f"{len(fan.max_cones)} maximal cones)", file=out)
    print(f"divisor {d_name}: {_fmt_verdicts(doc['verdicts']['d'])}", file=out)
    print(f"perturbation {dp_name}: {_fmt_verdicts(doc['verdicts']['perturbation'])}", file=out)
    print(f"combined: {_fmt_verdicts(doc['verdicts']['combined'])}", file=out)
    for row in doc["cones"]:
        bits = [f"cone {row['index']}:"]
        if "u_sigma" in row:
            bits.append("u_sigma = (" + ", ".join(str(c) for c in row["u_sigma"]) + ")")
        for key in ("t", "m", "lambda_min", "lambda_max"):
            if row[key] is not None:
                bits.append(f"{key} = {row[key]}")
        print("  " + " ".join(bits), file=out)
    for row in doc["walls"]:
        bits = [f"wall rays {tuple(row['rays'])} (cones {row['sigma']}|{row['tau']}):"]
        if "value" in row:
            bits.append(f"value {row['value']}")
        if "combined_value" in row:
            bits.append(f"combined {row['combined_value']}")
        print("  " + " ".join(bits), file=out)
    for r in remarks:
        print(f"note: {r}", file=out)
    return 0


def _gather_instances(args) -> list[Instance]:
    sources = [s for s in (args.input, args.builtin, args.fuzz) if s]
    if len(sources) != 1:
        raise InputError("pass exactly one of INPUT, --builtin, or --fuzz")
    for option in ("d", "dprime"):
        if getattr(args, option) is not None and not args.input:
            raise InputError(f"--{option} names a divisor of an INPUT document")
    if args.input:
        fan, divisors = load_document(args.input)
        _, d = _pick_divisor(divisors, args.d)
        _, dp, _ = _pick_dprime(fan, divisors, args.dprime)
        return [Instance(fan, d, dp, args.input)]
    if args.builtin:
        return [_builtin_from_expr(args.builtin)]
    dim, seed, count = args.fuzz
    if count < 1:
        raise InputError("fuzz count must be positive")
    instances = []
    for s in range(seed, seed + count):
        with _labelled(random_label(dim, s)):
            instances.append(random_instance(dim, s))
    return instances


def _run_statement(inst: Instance, statement: Statement, args) -> list[CheckReport]:
    """Run the statement's check on the instance, once per maximal cone (or
    on --sigma alone) for a per-cone statement, passing its other options.
    An internal error is re-raised with the instance label and cone index."""
    calls = [()]
    if statement.per_cone:
        ncones = len(inst.fan.max_cones)
        if args.sigma is not None and not 0 <= args.sigma < ncones:
            raise InputError(f"no maximal cone with index {args.sigma}")
        cones = [args.sigma] if args.sigma is not None else range(ncones)
        rest = [getattr(args, o) for o in statement.options[1:] if getattr(args, o) is not None]
        calls = [(ci, *rest) for ci in cones]
    reports = []
    for call in calls:
        try:
            reports.append(statement.check(inst, *call))
        except NotQCartier as exc:
            raise InputError(
                f"{inst.label}: divisor has no local data on cone {exc.cone_index}"
            ) from None
        except ValueError as exc:
            raise InputError(f"{inst.label}: {exc}") from None
        except RuntimeError as exc:
            where = f" cone {call[0]}" if call else ""
            raise RuntimeError(f"{inst.label}{where}: {exc}") from None
    return reports


def cmd_verify(args, out) -> int:
    statement = STATEMENTS[args.statement]
    for option in ("sigma", "r", "interior_bound"):
        if getattr(args, option) is not None and option not in statement.options:
            flag = "--" + option.replace("_", "-")
            raise InputError(f"{flag} does not apply to {args.statement}")
    if args.r is not None and _parse_rational(args.r, "--r") <= 0:
        raise InputError("--r must be positive")
    if args.interior_bound is not None and args.interior_bound < 1:
        raise InputError("--interior-bound must be at least 1")
    instances = _gather_instances(args)
    entries = []
    tally = {"pass": 0, "fail": 0, "not_applicable": 0}
    for inst in instances:
        for rep in _run_statement(inst, statement, args):
            tally[rep.status] += 1
            entries.append(_report_json(rep))
    falsified = tally["fail"] > 0
    doc = {
        "command": "verify",
        "statement": args.statement,
        "instances": entries,
        "summary": {**tally, "total": sum(tally.values())},
        "exit_status": 2 if falsified else 0,
    }
    if args.input:
        doc["remarks"] = ["projectivity is not certified for hand-entered fans"]
    if args.json:
        _emit(doc, out)
    else:
        print(f"statement: {args.statement}", file=out)
        for e in entries:
            cone_ids = [c["index"] for c in e["cones"]]
            where = f" cone {cone_ids[0]}" if len(cone_ids) == 1 and statement.per_cone else ""
            print(f"  {e['label']}{where}: {e['status']}", file=out)
            for h in e["hypotheses"]:
                if not h["holds"]:
                    detail = f" ({h['detail']})" if h["detail"] else ""
                    print(f"    hypothesis failed: {h['name']}{detail}", file=out)
            for f in e["failures"]:
                print(f"    {f['kind']} {f['index']}: {f['message']}", file=out)
            for n in e["notes"]:
                print(f"    note: {n}", file=out)
        print(
            "summary: pass={pass} fail={fail} not_applicable={not_applicable}".format(**tally),
            file=out,
        )
        rejections = Counter(
            h["name"] for e in entries for h in e["hypotheses"] if not h["holds"]
        )
        if rejections:
            print(
                "hypothesis rejections: "
                + ", ".join(f"{k}={v}" for k, v in sorted(rejections.items())),
                file=out,
            )
    return 2 if falsified else 0


def cmd_hilbert(args, out) -> int:
    fan, divisors = load_document(args.input)
    if not 0 <= args.sigma < len(fan.max_cones):
        raise InputError(f"no maximal cone with index {args.sigma}")
    dual = dual_cone(fan.cones[args.sigma])
    with _labelled(f"{args.input}: dual of maximal cone {args.sigma}"):
        basis = hilbert_basis(dual)
    doc = {
        "command": "hilbert",
        "input": args.input,
        "sigma": args.sigma,
        "dual_rays": [_enc_vec(r) for r in dual.rays],
        "basis": [_enc_vec(b) for b in basis],
        "exit_status": 0,
    }
    membership = None
    if args.d is not None:
        name, d = _pick_divisor(divisors, args.d)
        with _labelled(args.input):
            solved = solve_divisor(fan, d)
        if solved.local is None:
            raise InputError(f"divisor {name!r} has no local data on cone {solved.missing}")
        offsets = solved.offsets[args.sigma]
        membership = [
            {"element": _enc_vec(b), "in_shifted_polytope": in_shifted_polytope(fan, offsets, b)}
            for b in basis
        ]
        doc["divisor"] = name
        doc["membership"] = membership
    if args.json:
        _emit(doc, out)
        return 0
    print(f"maximal cone {args.sigma}: dual rays {[tuple(r) for r in doc['dual_rays']]}", file=out)
    print(f"Hilbert basis ({len(basis)} elements):", file=out)
    for i, b in enumerate(doc["basis"]):
        line = f"  {tuple(b)}"
        if membership is not None:
            line += "  in shifted polytope: " + ("yes" if membership[i]["in_shifted_polytope"] else "no")
        print(line, file=out)
    return 0


def _safe_name(label: str) -> str:
    return re.sub(r"[^A-Za-z0-9]+", "_", label).strip("_") or "instance"


def cmd_examples(args, out) -> int:
    if args.emit is None:
        for entry in BUILTINS.values():
            print(entry.signature, file=out)
        return 0
    inst = _builtin_from_expr(args.emit)
    doc = {
        "label": inst.label,
        **_instance_json(inst.fan),
        "divisors": {
            "D": [_enc_scalar(c) for c in inst.d.coeffs],
            "Dprime": [_enc_scalar(c) for c in inst.dprime.coeffs],
        },
    }
    target = Path(args.dir) / f"{_safe_name(inst.label)}.json"
    try:
        with open(target, "w", encoding="utf-8") as fh:
            _emit(doc, fh)
    except OSError as exc:
        raise InputError(f"cannot write {target}: {exc.strerror or exc}") from None
    print(target, file=out)
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every later
    one: `main` may run many times in one process.  Callers must not mutate
    it.  Parsing fills a fresh namespace each time, and usage errors read
    sys.stderr when raised, so nothing carries over from one call to the
    next."""
    parser = _Parser(prog="toricva", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="classify divisors from a JSON input file")
    pa.add_argument("input", help="JSON input file")
    pa.add_argument("--d", help="name of the base divisor (default: D)")
    pa.add_argument("--dprime", help="name of the perturbation (default: canonical)")
    pa.add_argument("--very-ample", action="store_true", help="also decide very ampleness")
    pa.add_argument("--json", action="store_true", help="emit a JSON report")

    pv = sub.add_parser("verify", help="run one statement check")
    pv.add_argument("statement", choices=list(STATEMENTS))
    pv.add_argument("input", nargs="?", help="JSON input file")
    pv.add_argument("--builtin", help="builtin instance, e.g. 'ew_simplex(4)'")
    pv.add_argument(
        "--fuzz",
        nargs=3,
        type=int,
        metavar=("DIM", "SEED", "COUNT"),
        help="COUNT random instances of dimension DIM starting at SEED",
    )
    pv.add_argument("--d", help="name of the base divisor (default: D)")
    pv.add_argument("--dprime", help="name of the perturbation (default: canonical)")
    pv.add_argument("--sigma", type=int, help="restrict per-cone statements to one cone")
    pv.add_argument("--r", help="slack for wall-bound's local hypotheses")
    pv.add_argument(
        "--interior-bound",
        type=int,
        metavar="B",
        help="coordinate bound for interior-bound enumeration (default 5)",
    )
    pv.add_argument("--json", action="store_true", help="emit a JSON report")

    ph = sub.add_parser("hilbert", help="Hilbert basis of one dual cone")
    ph.add_argument("input", help="JSON input file")
    ph.add_argument("--sigma", type=int, required=True, help="maximal cone index")
    ph.add_argument("--d", help="also test basis membership in this divisor's shifted polytope")
    ph.add_argument("--json", action="store_true", help="emit a JSON report")

    pe = sub.add_parser("examples", help="list or emit builtin instances")
    pe.add_argument("--emit", help="builtin expression to write as a JSON input file")
    pe.add_argument("--dir", default=".", help="output directory (default: current)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    # argparse fills verify's optional INPUT only from positionals before the options.
    if args.command == "verify" and args.input is None and extra and not extra[0].startswith("-"):
        args.input = extra.pop(0)
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    handlers = {
        "analyze": cmd_analyze,
        "verify": cmd_verify,
        "hilbert": cmd_hilbert,
        "examples": cmd_examples,
    }
    try:
        return handlers[args.command](args, sys.stdout)
    except InputError as exc:
        print(f"toricva: input error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"toricva: internal invariant violated: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
