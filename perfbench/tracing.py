"""Spans around calls into toricva's layers, recorded from outside the program.

`Tracer()` builds a timing wrapper for each traced function and finds every
`toricva.*` namespace that binds it: the package imports with `from .x import
y`, so one function is bound in several modules, and the CLI also keeps some
in module-level dicts.  `install()` puts the wrappers there and `uninstall()`
puts the originals back.  Spans carry
their parent's id and stay in memory until `write()`.  An untraced run never
creates a Tracer, so it runs unwrapped code.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from math import ceil, floor

# Layer (module of toricva) -> public functions wrapped in that layer.
TRACED = {
    "linalg": (
        "solve_matrix", "solve_exact", "nullspace_matrix", "perp_basis",
        "matrix_rank", "det_int", "diagonalize_int",
    ),
    "lp": ("lp_solve", "lp_feasible", "in_nonneg_span"),
    "cones": ("cone_from_generators", "dual_cone", "intersect_cones", "classify", "is_face"),
    "fans": ("build_fan",),
    "hulls": ("hull_facets", "hull_vertices", "affine_rank"),
    "divisors": ("local_data", "polytope"),
    "intersections": ("wall_value", "wall_values", "is_nef"),
    "lambdas": ("lambda_min", "lambda_max"),
    "semigroups": ("lattice_points", "hilbert_basis", "generates"),
    "harness": (
        "random_instance", "polytope_fan", "generation_scan", "cone_table",
        "check_generation", "check_nef_excluding_pspace", "check_nef_threshold",
        "check_corner_containment", "check_wall_bound", "check_interior_bound",
        "check_nonregular_bound",
    ),
    "cli": ("main", "load_document"),
}
LAYERS = tuple(TRACED)
ROOT = "bench.operation"

# Functions whose call counts are reported.
COUNTED = (
    "linalg.solve_matrix", "linalg.nullspace_matrix", "linalg.matrix_rank", "linalg.det_int",
    "lp.lp_solve",
    "cones.cone_from_generators", "cones.dual_cone", "cones.intersect_cones",
    "fans.build_fan",
    "hulls.hull_facets", "hulls.hull_vertices",
    "divisors.local_data", "divisors.polytope",
    "intersections.wall_value", "intersections.is_nef",
    "lambdas.lambda_min", "lambdas.lambda_max",
    "semigroups.lattice_points", "semigroups.hilbert_basis", "semigroups.generates",
    "harness.random_instance", "harness.polytope_fan", "harness.generation_scan",
    "cli.load_document",
)

# Every per-layer metric a traced run reports: name -> (unit, better).
METRICS = {
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    **{f"{name}.calls": ("count", "lower") for name in COUNTED},
    "lp.lp_solve.infeasible": ("count", "lower"),
    "semigroups.lattice_points.points": ("count", "lower"),
    "semigroups.lattice_points.box_points": ("count", "lower"),
    "semigroups.lattice_points.hit_ratio": ("ratio", "higher"),
    "harness.random_instance.accept_ratio": ("ratio", "higher"),
    "trace.overhead_s": ("s", "lower"),
}


def _lattice_points_extra(args, kwargs, result):
    return args[0] if args else kwargs["p"], len(result)


def _lp_solve_extra(args, kwargs, result):
    return result.status


# What a span keeps from its call, for the derived counts.
EXTRA = {
    "semigroups.lattice_points": _lattice_points_extra,
    "lp.lp_solve": _lp_solve_extra,
}


def box_points(polytope) -> int:
    """Lattice points in the bounding box of the polytope's vertices."""
    verts = polytope.vertices
    if not verts:
        return 0
    total = 1
    for i in range(verts[0].rank):
        lo = min(ceil(v.coords[i]) for v in verts)
        hi = max(floor(v.coords[i]) for v in verts)
        total *= max(0, hi - lo + 1)
    return total


def _ratio(num, den) -> float:
    return num / den if den else 0.0


class Tracer:
    """Wrappers for every traced function, built once and swapped in and out."""

    def __init__(self):
        self.names: list[str] = []
        # One [parent id, name id, start, end, extra] per call, in call order.
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack = [-1]
        self._patches: list[tuple[dict, str, object, object]] = []
        namespaces = []
        for modname, mod in sorted(sys.modules.items()):
            if mod is not None and (modname == "toricva" or modname.startswith("toricva.")):
                ns = vars(mod)
                namespaces.append(ns)
                namespaces.extend(
                    v for k, v in ns.items() if type(v) is dict and not k.startswith("__")
                )
        for layer, funcs in TRACED.items():
            home = sys.modules.get(f"toricva.{layer}")
            for fname in funcs:
                orig = getattr(home, fname, None)
                if orig is None:
                    self.missing.append(f"{layer}.{fname}")
                    continue
                wrapper = self.wrap(orig, f"{layer}.{fname}")
                self._patches.extend(
                    (ns, key, orig, wrapper)
                    for ns in namespaces
                    for key, val in ns.items()
                    if val is orig
                )

    def wrap(self, fn, name: str):
        fid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        extra = EXTRA.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            span = [stack[-1], fid, 0.0, 0.0, None]
            spans.append(span)
            stack.append(sid)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if extra is not None:
                span[4] = extra(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        for ns, key, _, wrapper in self._patches:
            ns[key] = wrapper

    def uninstall(self) -> None:
        for ns, key, orig, _ in self._patches:
            ns[key] = orig

    def metrics(self, overhead_s: float) -> dict[str, float]:
        spans, names = self.spans, self.names
        child = [0.0] * len(spans)
        for parent, _, t0, t1, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_s = dict.fromkeys(LAYERS, 0.0)
        calls = Counter()
        infeasible = points = box = nested_fans = 0
        for sid, (parent, fid, t0, t1, extra) in enumerate(spans):
            name = names[fid]
            calls[name] += 1
            layer = name.split(".", 1)[0]
            if layer in self_s:
                self_s[layer] += (t1 - t0) - child[sid]
            if extra is None:
                continue
            if name == "lp.lp_solve":
                infeasible += extra == "infeasible"
            elif name == "semigroups.lattice_points":
                points += extra[1]
                box += box_points(extra[0])
        for parent, fid, *_ in spans:
            if names[fid] == "harness.polytope_fan" and parent >= 0:
                nested_fans += names[spans[parent][1]] == "harness.random_instance"
        out = {f"{layer}.self_s": s for layer, s in self_s.items()}
        out.update({f"{name}.calls": calls[name] for name in COUNTED})
        out["lp.lp_solve.infeasible"] = infeasible
        out["semigroups.lattice_points.points"] = points
        out["semigroups.lattice_points.box_points"] = box
        out["semigroups.lattice_points.hit_ratio"] = _ratio(points, box)
        out["harness.random_instance.accept_ratio"] = _ratio(
            calls["harness.random_instance"], nested_fans
        )
        out["trace.overhead_s"] = overhead_s
        return out

    def write(self, path) -> None:
        """One JSON object per span; `op` is the id of the operation's root span."""
        if not self.spans:
            return
        base = self.spans[0][2]
        ops = []
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (parent, fid, t0, t1, _) in enumerate(self.spans):
                ops.append(sid if parent < 0 else ops[parent])
                rec = {
                    "id": sid,
                    "parent": parent,
                    "op": ops[sid],
                    "name": self.names[fid],
                    "start_s": round(t0 - base, 7),
                    "end_s": round(t1 - base, 7),
                }
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")
